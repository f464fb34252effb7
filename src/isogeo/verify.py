"""Identity-verification suites behind the ``verify`` subcommand.

Every suite samples seeded random points (splitmix64, so reports are
bit-reproducible) and checks one family of identities:

    flatness          Levi-Civita curvature tensor vanishes
    egregium          K equals denom * R_2112 / det g (relative tensor)
    codazzi           relative and Levi-Civita Codazzi residuals, plus
                      pairwise agreement of the three Gauss-equation
                      right-hand sides
    umbilic           totally-umbilical classification matches the known
                      answer per catalog entry
    minimal           wave-form and harmonic graphs have zero mean
                      curvature
    sphere-geodesics  integrated autoparallels match closed-form plane
                      sections on spheres of parabolic type

The tensor suites differentiate the coefficients exactly (see
``connection``).  Sampling near the lightlike locus is still excluded for
the relative-connection suites: rho and xi grow like 1/denom there and
their partials like 1/denom^2, so rounding in the residuals grows with
them and a fixed absolute tolerance stops meaning the same thing.
Closeness to the locus is measured in gradient units,
|denom| / max(1, |grad denom|), since a small denom with a steep
gradient means the singular set is a short parameter distance away; the
gradient is exact, from the 2-jet at the candidate point.  Each draw is
one call of a point kernel of its patch (``surface.point_kernel``): a
guarded draw is the record of ``connection.guarded_record``, whose
coefficients and gradient the guard reads and the tensor suites take as
they are, K included, and an unguarded draw is the curvature report of
``surface.curvature_record``.  Every sampled suite folds its records'
residuals in ``_fold``, and every check's default tolerance is in
``TOLERANCES``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import catalog
from .connection import (
    codazzi_residuals,
    coeff_derivatives,
    egregium_checks,
    flatness_residuals,
    gauss_residuals,
    guarded_record,
    levi_civita,
    np,
)
from .errors import IsoGeoError, SpecError
from .isotropy import SpaceKind
from .rng import SplitMix64
from .surface import CurvatureClass, SurfacePatch, curvature_record, point_kernel

# The ``fd_step`` of every suite and of the report.  It only widens the
# sampler's border margin (see ``_sample``), so it decides which
# points a seeded run draws and nothing else.
DEFAULT_FD_STEP = 1e-4

# The relative coefficients grow like 1/denom near the lightlike locus.
# The guard excludes points whose denom is small measured in units of its
# own gradient, i.e. points close to the singular locus in parameter
# distance, not just in denom value.
RELATIVE_DENOM_GUARD = 0.3

# Light guard for suites that only need the coefficients to exist.
BASIC_DENOM_GUARD = 1e-3

# Records per batch of the tensor suites.  The blocks run across patches
# and end wherever a patch's records do; the suites' memory grows with
# neither --samples nor the number of patches, and no bit depends on it.
POINT_BLOCK = 256

# Random wave-form graphs the minimal suite adds to the catalog's; a
# user-supplied surface gets none.
RANDOM_WAVES = 5

# The default tolerance of every check by name, a ``minimal`` check's by
# the family of its surface as well.  ``--tol`` replaces them all.
TOLERANCES = {
    "flatness": 1e-6,
    "egregium": 1e-5,
    "egregium_flat": 1e-6,
    "codazzi": 1e-6,
    "codazzi_lc": 1e-6,
    "gauss_rhs": 1e-8,
    "minimal": {"minimal_wave": 1e-10, "minimal_harmonic": 1e-8},
    "umbilic": 0.0,
    "sphere_geodesic": 1e-6,
    "sphere_geodesic_parallel": 1e-5,
}

SUITES = ("flatness", "egregium", "codazzi", "umbilic", "minimal", "sphere-geodesics")


class CheckResult(NamedTuple):
    name: str
    surface: str
    points: int
    max_residual: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "surface": self.surface,
            "points": int(self.points),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }


@functools.cache
def verification_patches() -> tuple[SurfacePatch, ...]:
    """Fixed instantiation of the catalog used by --all-catalog runs,
    built (and its kernels compiled) once per process.  The cylindrical
    sphere is omitted: it is nowhere admissible, so no pointwise identity
    applies (its role is covered by admissibility tests)."""
    i3, ip3 = SpaceKind.SIMPLY_ISOTROPIC, SpaceKind.PSEUDO_ISOTROPIC
    return (
        catalog.make("parabolic_sphere", i3, {"p": 2.0}),
        catalog.make("parabolic_sphere", ip3, {"p": 1.5}),
        catalog.make("plane", i3, {"a": 0.3, "b": -0.2, "c": 0.7}),
        catalog.make("plane", ip3, {"a": -0.4, "b": 0.25, "c": -1.0}),
        catalog.make("ruled_nondiag", ip3, {"b": 2.0}),
        catalog.make("helicoid", ip3, {"c": 1.0}),
        catalog.make("revolution", ip3, {"z": "log(u)"}),
        catalog.make(
            "minimal_wave", ip3,
            {"f": "0.3*u^3 - 0.2*u", "g": "0.25*u^3 + 0.1*u^2"},
        ),
        catalog.make("minimal_harmonic", i3, {"f": "exp(u) * sin(v)"}),
    )


def _label(patch: SurfacePatch) -> str:
    return f"{patch.name}[{patch.kind.value}]"


def _margin(lo: float, hi: float, border: float) -> float:
    """``border`` plus 2 % of the side [lo, hi], or a quarter of the side
    where that would leave no interval to draw from (a side narrower than
    about border / 0.48): the draws stay inside the domain."""
    margin = 0.02 * (hi - lo) + border
    return margin if lo + margin <= hi - margin else 0.25 * (hi - lo)


def _sample(
    patch: SurfacePatch,
    count: int,
    rng: SplitMix64,
    border: float,
    denom_guard: Optional[float],
) -> Iterator:
    """``count`` seeded points, ``_margin`` inside each side of the domain:
    the curvature reports of ``curvature_record``'s kernel, or with a
    ``denom_guard`` the records of ``guarded_record``'s.  A draw is redrawn
    where its kernel raises (an unguarded draw's curvatures included, a
    guarded draw's never run), a float of the frame or third partials is
    not finite, or |denom| < denom_guard, in units of max(1, |grad denom|)
    for a guard above BASIC_DENOM_GUARD.  Gives up after 200 * count + 200
    draws, or after 400 if none was accepted."""
    kernel = point_kernel(patch, 2, curvature_record) if denom_guard is None else point_kernel(patch, 3, guarded_record)
    u0, u1, v0, v1 = patch.domain
    mu = _margin(u0, u1, border)
    mv = _margin(v0, v1, border)
    accepted = draws = 0
    while accepted < count:
        draws += 1
        if draws > 200 * count + 200 or (draws > 400 and not accepted):
            raise IsoGeoError(f"could not sample {count} guarded points on {_label(patch)}")
        u = rng.uniform(u0 + mu, u1 - mu)
        v = rng.uniform(v0 + mv, v1 - mv)
        try:
            if denom_guard is None:
                f, record = kernel(u, v)
                floats = f[3:]
            else:
                record = coeffs, grad, thirds, _ = kernel(u, v)
                floats = (*coeffs.frame[3:], *thirds)
        except IsoGeoError:
            continue
        if not all(map(math.isfinite, floats)):
            continue
        if denom_guard is not None:
            slope = math.hypot(*grad) if denom_guard > BASIC_DENOM_GUARD else 0.0
            if not abs(coeffs.denom) >= denom_guard * max(1.0, slope):
                continue
        accepted += 1
        yield record


def _per_patch(total: int, n_patches: int) -> int:
    return max(1, math.ceil(total / n_patches))


def _fold(
    patches: Sequence[SurfacePatch], n: int, rng: SplitMix64, border: float, denom_guard: Optional[float],
    residuals: Callable[[list], Iterable],
) -> dict[str, list[list]]:
    """[worst residual, number of residuals] per check name and patch of
    the (check name, residual) pairs ``residuals(block)`` gives each record.
    The ``n`` records per patch of ``_sample`` are one stream, drawn from
    the shared ``rng`` patch after patch as the blocks of POINT_BLOCK
    records need them (a block may end inside a patch), so one block of
    records is held at a time."""
    records = itertools.chain.from_iterable(_sample(p, n, rng, border, denom_guard) for p in patches)
    folds = collections.defaultdict(lambda: [[0.0, 0] for _ in patches])
    start = 0
    for block in iter(lambda: list(itertools.islice(records, POINT_BLOCK)), []):
        for i, pairs in enumerate(residuals(block), start):
            p = i // n
            for name, residual in pairs:
                fold = folds[name][p]
                if residual > fold[0] or residual != residual:  # max(worst, residual); a NaN stays worst
                    fold[0] = residual
                fold[1] += 1
        start += len(block)
    return folds


def _check(name: str, label: str, points: int, worst: float, tol: float) -> CheckResult:
    return CheckResult(name, label, points, worst, tol, worst <= tol)


def _tensor_suite(border: float, denom_guard: float, names: tuple[str, ...], pairs: Callable) -> Callable:
    """The suite that folds ``pairs(block)`` of records guarded by
    ``denom_guard``, drawn ``border`` * fd_step inside the domain: a check
    per patch and name in ``names`` that a record gave."""

    def suite(patches: Sequence[SurfacePatch], samples: int, seed: int, fd_step: float) -> list[CheckResult]:
        n = _per_patch(samples, len(patches))
        rng = SplitMix64(seed)
        # a NaN or inf in a block's tensors fails the checks that read it (see _fold), with no warning
        with np.errstate(all="ignore"):
            folds = _fold(patches, n, rng, border * fd_step, denom_guard, pairs)
        return [
            _check(name, _label(patch), count, worst, TOLERANCES[name])
            for p, patch in enumerate(patches) for name in names for worst, count in [folds[name][p]] if count
        ]

    return suite


def _codazzi_pairs(block: list) -> Iterator[tuple]:
    b = coeff_derivatives(block)
    relative, lc_residuals = codazzi_residuals(b)
    for rel, lc, gauss in zip(relative.tolist(), lc_residuals.tolist(), gauss_residuals(b).tolist()):
        yield ("codazzi", rel), ("codazzi_lc", lc), ("gauss_rhs", max(0.0, *gauss))


# flatness reads the Levi-Civita part alone
suite_flatness = _tensor_suite(2.0, BASIC_DENOM_GUARD, ("flatness",), lambda block: (
    (("flatness", r),) for r in flatness_residuals(levi_civita(block)).tolist()
))
# the relative error where K is not 0, else the absolute one
suite_egregium = _tensor_suite(0.5, RELATIVE_DENOM_GUARD, ("egregium", "egregium_flat"), lambda block: (
    (("egregium", c.rel_err) if abs(c.k_extrinsic) > 1e-6 else ("egregium_flat", c.abs_err),)
    for c in egregium_checks(coeff_derivatives(block))
))
suite_codazzi = _tensor_suite(0.5, RELATIVE_DENOM_GUARD, ("codazzi", "codazzi_lc", "gauss_rhs"), _codazzi_pairs)


UMBILIC_EXPECTATION = {
    "parabolic_sphere": True,
    "plane": True,
    "helicoid": False,
    "ruled_nondiag": False,
}


def suite_umbilic(
    patches: Sequence[SurfacePatch], samples: int, seed: int, fd_step: float
) -> list[CheckResult]:
    n = _per_patch(samples, len(patches))
    # a pair per umbilic record, so that a patch's count is its umbilic records
    folds = _fold(patches, n, SplitMix64(seed), 2.0 * fd_step, None, lambda block: [
        (("umbilic", 0.0),) if r.label is CurvatureClass.UMBILIC else () for r in block
    ])
    out = []
    for patch, (_, umbilic_count) in zip(patches, folds["umbilic"]):
        expected = UMBILIC_EXPECTATION.get(patch.name)
        if expected is None:  # informational for user-supplied surfaces
            finding = {n: "totally umbilical", 0: "not totally umbilical"}.get(umbilic_count, "mixed")
            name, mismatches = f"umbilic({finding})", 0
        elif expected:
            name, mismatches = "umbilic(expected)", n - umbilic_count
        else:
            name, mismatches = "umbilic(expected-negative)", umbilic_count
        out.append(_check(name, _label(patch), n, float(mismatches), TOLERANCES["umbilic"]))
    return out


def _random_cubic(rng: SplitMix64) -> str:
    c3, c2, c1 = (rng.uniform(-0.5, 0.5) for _ in range(3))
    return f"{c3!r}*u^3 + {c2!r}*u^2 + {c1!r}*u"


def suite_minimal(
    patches: Sequence[SurfacePatch], samples: int, seed: int, fd_step: float, n_random_waves: int = RANDOM_WAVES
) -> list[CheckResult]:
    rng = SplitMix64(seed)
    n = _per_patch(samples, max(1, n_random_waves))
    tolerances = TOLERANCES["minimal"]
    targets = [p for p in patches if p.name in tolerances]
    for _ in range(n_random_waves):
        waves = {"f": _random_cubic(rng), "g": _random_cubic(rng)}
        targets.append(catalog.make("minimal_wave", SpaceKind.PSEUDO_ISOTROPIC, waves))
    folds = _fold(targets, n, rng, 2.0 * fd_step, None, lambda block: [(("minimal", abs(r.H)),) for r in block])
    return [
        _check("minimal", f"{_label(patch)}#{idx}", count, worst, tolerances[patch.name])
        for idx, (patch, (worst, count)) in enumerate(zip(targets, folds["minimal"]))
    ]


SPHERE_GEODESIC_CONFIGS = (
    (2.0, 0.0, 0.0, SpaceKind.SIMPLY_ISOTROPIC),
    (1.0, 1.0, 0.0, SpaceKind.SIMPLY_ISOTROPIC),
    (1.0, 1.0, 1.0, SpaceKind.SIMPLY_ISOTROPIC),
    (1.0, 2.0, 0.0, SpaceKind.PSEUDO_ISOTROPIC),
    (1.0, 0.0, 2.0, SpaceKind.PSEUDO_ISOTROPIC),
)


def suite_sphere_geodesics(t_end: float = 1.0, step: float = 1e-3) -> list[CheckResult]:
    # imported here, so that only this suite loads the integrator
    from .geodesic import _step_count, cross_check_sphere_geodesic

    # the samples compared per configuration, the steps of both traces
    points = _step_count(t_end, step) + 1
    out = []
    worst_parallel = 0.0
    for p, a, b, kind in SPHERE_GEODESIC_CONFIGS:
        chk = cross_check_sphere_geodesic(p, a, b, kind, t_end, step)
        # max_deviation is inf where either trace stopped early, so an
        # integration that did not complete fails its check
        worst = max(
            chk.max_deviation, chk.integrated_plane_residual, chk.integrated_sphere_residual,
            chk.section_plane_residual, chk.section_sphere_residual,
        )
        worst_parallel = max(worst_parallel, chk.max_parallel_residual)
        label = f"parabolic_sphere(p={p!r},a={a!r},b={b!r})[{kind.value}]"
        out.append(_check("sphere_geodesic", label, points, worst, TOLERANCES["sphere_geodesic"]))
    n_configs = len(SPHERE_GEODESIC_CONFIGS)
    tol = TOLERANCES["sphere_geodesic_parallel"]
    out.append(_check("sphere_geodesic_parallel", "all-configs", n_configs, worst_parallel, tol))
    return out


def run_verify(
    patches: Optional[Sequence[SurfacePatch]],
    suites: list[str],
    samples: int,
    seed: int,
    tol_override: Optional[float] = None,
) -> dict:
    """Run the requested suites and assemble the report dict.  A tolerance
    override replaces every check's default tolerance (blunt, but gives a
    single reproducibility knob).  Suites that produce no check, such as
    ``minimal`` on a surface that is not a minimal catalog entry, raise
    SpecError rather than pass vacuously."""
    for suite in suites:  # before any patch is built
        if suite not in SUITES:
            raise IsoGeoError(f"unknown suite {suite!r}; known: {SUITES}")
    target = verification_patches() if patches is None else patches
    fd_step = DEFAULT_FD_STEP
    waves = RANDOM_WAVES if patches is None else 0
    # looked up per call, so that a wrapped suite function is the one run
    runs = {
        "flatness": suite_flatness, "egregium": suite_egregium,
        "codazzi": suite_codazzi, "umbilic": suite_umbilic,
        "minimal": lambda *args: suite_minimal(*args, waves),
        "sphere-geodesics": lambda *args: suite_sphere_geodesics(),
    }
    checks: list[CheckResult] = []
    for suite in suites:
        checks += runs[suite](target, samples, seed, fd_step)
    if not checks:
        raise SpecError(f"no check of the suite(s) {', '.join(suites)} applies to this surface")
    if tol_override is not None:
        checks = [c._replace(tolerance=tol_override, passed=c.max_residual <= tol_override) for c in checks]
    overall = all(chk.passed for chk in checks)
    return {
        "overall": "pass" if overall else "fail",
        "seed": seed,
        "samples": samples,
        "fd_step": fd_step,
        "suites": list(suites),
        "checks": [chk.to_json() for chk in checks],
    }
