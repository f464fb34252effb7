"""Seeded random expressions for AD-vs-finite-difference checks and for
differential tests of the compiled jet kernels.

For finite differences, ``random_expr`` restricts the grammar to
operations that are smooth on all of R^2 (sums, differences, products,
small integer powers, sin/cos/exp/sinh/cosh/tanh) so that rejection
sampling only has to guard against magnitude blow-ups, never against
domain boundaries.  Points whose jet fields exceed 1e4 are redrawn, and
a partial derivative is compared against finite differences only when
it is large enough relative to the function value for the comparison to
sit above central-difference round-off (step 1e-5 leaves ~1e-9 relative
head-room for first derivatives and ~1e-5 for second ones at those
thresholds).

``random_expr_full`` draws from the whole language instead, including
the operations with domain boundaries (division, log, sqrt, abs, tan)
and integer, negative and non-integer exponents, for tests that compare
two evaluators point by point, DomainErrors included.
"""

from __future__ import annotations

import math

from jet2ref import eval_jet2
from isogeo import surface as srf
from isogeo.errors import DomainError
from isogeo.expr import Binary, Const, Expr, Unary, Var
from isogeo.isotropy import SpaceKind
from isogeo.rng import SplitMix64

_UNARY = ("sin", "cos", "exp", "sinh", "cosh", "tanh")
_BINARY = ("+", "-", "*")

FD_STEP = 1e-5


def random_expr(rng: SplitMix64, depth: int) -> Expr:
    if depth == 0:
        return _leaf(rng)
    r = rng.random()
    if r < 0.30:
        return _leaf(rng)
    if r < 0.60:
        return Unary(_UNARY[rng.randint(len(_UNARY))], random_expr(rng, depth - 1))
    if r < 0.70:
        return Binary("^", random_expr(rng, depth - 1), Const(float(2 + rng.randint(2))))
    op = _BINARY[rng.randint(len(_BINARY))]
    return Binary(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


_UNARY_FULL = _UNARY + ("tan", "log", "sqrt", "abs")
_BINARY_FULL = _BINARY + ("/",)
# constant exponents: pow_int's repeated squaring for the integral ones
# (negative ones through a reciprocal), exp(b log a) for the others
_EXPONENTS = (0.0, 1.0, 2.0, 3.0, 5.0, -1.0, -2.0, 0.5, 1.5, -0.5, 2.25)


def random_expr_full(rng: SplitMix64, depth: int) -> Expr:
    if depth == 0:
        return _leaf(rng)
    r = rng.random()
    if r < 0.25:
        return _leaf(rng)
    if r < 0.55:
        return Unary(_UNARY_FULL[rng.randint(len(_UNARY_FULL))], random_expr_full(rng, depth - 1))
    if r < 0.70:
        q = rng.random()
        if q < 0.6:
            exponent = Const(_EXPONENTS[rng.randint(len(_EXPONENTS))])
        elif q < 0.8:
            # as the parser spells "a^-2": it folds to -2 when the kernel is
            # written, and takes the run-time branch's integer power
            exponent = Unary("neg", Const(float(1 + rng.randint(3))))
        else:
            exponent = random_expr_full(rng, depth - 1)
        return Binary("^", random_expr_full(rng, depth - 1), exponent)
    op = _BINARY_FULL[rng.randint(len(_BINARY_FULL))]
    return Binary(op, random_expr_full(rng, depth - 1), random_expr_full(rng, depth - 1))


def random_patches(seed: int, count: int) -> list[srf.SurfacePatch]:
    """``count`` patches over [-2, 2]^2, in simply isotropic and
    pseudo-isotropic space by turns: graphs of ``random_expr_full`` trees
    of depth 4, and parametric patches x = tree + u, y = tree + v (depth
    2) with z of depth 4, also by turns."""
    patches = []
    for i in range(count):
        rng = SplitMix64(seed + i)
        kind = (SpaceKind.SIMPLY_ISOTROPIC, SpaceKind.PSEUDO_ISOTROPIC)[i % 2]
        if i % 4 < 2:
            patches.append(srf.graph_patch(kind, random_expr_full(rng, 4), (-2.0, 2.0, -2.0, 2.0)))
        else:
            x, y = (Binary("+", random_expr_full(rng, 2), Var(t)) for t in "uv")
            patches.append(srf.parametric_patch(kind, x, y, random_expr_full(rng, 4), (-2.0, 2.0, -2.0, 2.0)))
    return patches


def _leaf(rng: SplitMix64) -> Expr:
    r = rng.random()
    if r < 0.40:
        return Var("u")
    if r < 0.80:
        return Var("v")
    # negative literals are spelled with unary minus, as the parser builds them
    c = rng.uniform(-2.0, 2.0)
    return Const(c) if c >= 0.0 else Unary("neg", Const(-c))


def _value(e: Expr, u: float, v: float) -> float:
    return eval_jet2(e, u, v).val


def sample_checkable_pairs(seed: int, count: int):
    """Yield (expr, u, v, jet) tuples whose jets are finite, bounded and
    have at least one first partial large enough to compare against
    central differences."""
    rng = SplitMix64(seed)
    produced = 0
    while produced < count:
        e = random_expr(rng, 4)
        u = rng.uniform(-1.5, 1.5)
        v = rng.uniform(-1.5, 1.5)
        try:
            jet = eval_jet2(e, u, v)
        except DomainError:
            continue
        fields = (jet.val, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv)
        if not all(math.isfinite(x) and abs(x) <= 1e4 for x in fields):
            continue
        scale = 1.0 + abs(jet.val)
        if max(abs(jet.du), abs(jet.dv)) < 1e-3 * scale:
            continue
        produced += 1
        yield e, u, v, jet


def fd_check(e: Expr, u: float, v: float, jet) -> tuple[list[float], list[float]]:
    """Relative errors of the checkable first and second partials against
    central finite differences."""
    h = FD_STEP
    try:
        fpp = _value(e, u + h, v + h)
        fpm = _value(e, u + h, v - h)
        fmp = _value(e, u - h, v + h)
        fmm = _value(e, u - h, v - h)
        fp0 = _value(e, u + h, v)
        fm0 = _value(e, u - h, v)
        f0p = _value(e, u, v + h)
        f0m = _value(e, u, v - h)
        f00 = _value(e, u, v)
    except DomainError:
        return [], []
    scale = 1.0 + abs(jet.val)
    firsts = []
    for ad, fd in (
        (jet.du, (fp0 - fm0) / (2 * h)),
        (jet.dv, (f0p - f0m) / (2 * h)),
    ):
        if abs(ad) >= 1e-3 * scale:
            firsts.append(abs(fd - ad) / abs(ad))
    seconds = []
    for ad, fd in (
        (jet.duu, (fp0 - 2 * f00 + fm0) / (h * h)),
        (jet.dvv, (f0p - 2 * f00 + f0m) / (h * h)),
        (jet.duv, (fpp - fpm - fmp + fmm) / (4 * h * h)),
    ):
        if abs(ad) >= 0.1 * scale:
            seconds.append(abs(fd - ad) / abs(ad))
    return firsts, seconds
