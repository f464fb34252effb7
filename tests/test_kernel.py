"""The compiled jet kernel of a patch against the ``eval_jet2`` tree walk:
every component bit for bit, and every error with the same type and
message.

Components are compared by ``repr``, which tells -0.0 from 0.0 and
round-trips every finite float and infinity, but prints every NaN as
``nan``.  NaN sign and payload are not reproducible in CPython itself:
once the interpreter specialises a float multiply, ``-nan * nan`` can
change sign between two calls of the same function.
"""

import ast
import dis
import math
import pickle
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genexpr import random_expr, random_expr_full, random_patches
import jet2ref
import stageref
from jet2ref import eval_jet2
from jet3 import walk3
from isogeo import catalog, cli, rows
from isogeo import expr as ex
from isogeo import geodesic as geo
from isogeo import surface as srf
from isogeo.errors import DomainError
from isogeo.expr import Binary, Const, Unary, Var
from isogeo.isotropy import SpaceKind
from isogeo.rng import SplitMix64

U, V = Var("u"), Var("v")


def bits(values):
    return [repr(x) for x in values]


def walk(exprs, u, v):
    """Reference: the tree walk of each expression in turn."""
    out = []
    for e in exprs:
        j = eval_jet2(e, u, v)
        out += [j.val, j.du, j.dv, j.duu, j.duv, j.dvv]
    return out


def outcome(fn, *args):
    try:
        return "ok", bits(fn(*args))
    except DomainError as err:
        return type(err), str(err)


def assert_same(exprs, u, v):
    expected = outcome(walk, exprs, u, v)
    assert outcome(ex.compile_jet(exprs, 2), u, v) == expected, (exprs, u, v)
    # the order-3 kernel starts with the same 18 floats, or fails alike
    first18 = lambda u, v: ex.compile_jet(exprs, 3)(u, v)[:18]
    assert outcome(first18, u, v) == expected, (exprs, u, v)


def test_random_expressions_match_tree_walk():
    rng = SplitMix64(20260401)
    seen = {"ok": 0, "error": 0}
    for _ in range(600):
        exprs = [random_expr_full(rng, 4) for _ in range(3)]
        kernel = ex.compile_jet(exprs, 2)
        for _ in range(4):
            # exact zeros hit log, sqrt, abs and division at their boundary
            u = 0.0 if rng.random() < 0.1 else rng.uniform(-2.0, 2.0)
            v = 0.0 if rng.random() < 0.1 else rng.uniform(-2.0, 2.0)
            got = outcome(kernel, u, v)
            assert got == outcome(walk, exprs, u, v), (exprs, u, v)
            seen["ok" if got[0] == "ok" else "error"] += 1
    # both outcomes are exercised in earnest
    assert seen["ok"] >= 1000 and seen["error"] >= 100, seen


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324])
def test_special_constants_keep_their_bits(value):
    c = Const(value)
    cases = [
        [c, Binary("*", c, U), Binary("*", Const(0.0), Binary("-", U, Const(3.0)))],
        [Binary("+", U, c), Binary("^", U, c), Binary("/", V, c)],
        [Unary("neg", c), Binary("*", Binary("-", c, c), V), Unary("sin", Binary("*", U, c))],
    ]
    for exprs in cases:
        for u, v in ((1.25, -0.5), (-2.0, 0.0), (0.0, 3.0)):
            assert_same(exprs, u, v)


def test_signed_zeros_are_not_shared():
    kernel = ex.compile_jet([Const(0.0), Const(-0.0), Binary("+", Const(-0.0), Const(-0.0))], 2)
    values = kernel(1.0, 2.0)
    assert bits(values) == bits(walk([Const(0.0), Const(-0.0), Binary("+", Const(-0.0), Const(-0.0))], 1.0, 2.0))
    assert math.copysign(1.0, values[6]) == -1.0 and math.copysign(1.0, values[12]) == -1.0


def test_no_algebraic_folding():
    # a value is never folded: 0 * u is -0.0 at u = -3 and NaN at u = inf;
    # a partial skips only the structural zeros and ones of the constant's
    # and the variable's partials, so d(0 * u)/du is the constant 0.0
    times_zero = Binary("*", Const(0.0), U)
    exprs = [times_zero, Binary("*", Const(1.0), V), Binary("^", U, Const(0.0))]
    for u in (-3.0, math.inf, 2.0):
        assert_same(exprs, u, -1.5)
    kernel = ex.compile_jet(exprs, 2)
    assert bits(kernel(-3.0, -1.5)[:6]) == ["-0.0"] + ["0.0"] * 5
    assert bits(kernel(math.inf, -1.5)[:6]) == ["nan"] + ["0.0"] * 5
    assert bits(kernel(math.inf, -1.5)[6:]) == ["-1.5", "0.0", "1.0", "0.0", "0.0", "0.0"] + ["1.0"] + ["0.0"] * 5


@pytest.mark.parametrize("n", [1024.0, -1024.0, 1025.0, -1025.0, 4096.0])
def test_integer_exponents_beyond_1024_take_exp_log(n):
    # repeated squaring only up to |n| = 1024, as in jets.powj
    for u in (1.0005, 0.9993, -1.0005):
        assert_same([Binary("^", U, Const(n)), U, V], u, 0.5)


def test_first_domain_error_in_post_order_wins():
    exprs = [
        Binary("*", U, V),
        Binary("+", Unary("sqrt", U), Unary("log", V)),  # sqrt fails first
        Binary("/", U, Binary("-", V, V)),
    ]
    with pytest.raises(DomainError, match="sqrt of non-positive value -1.0"):
        ex.compile_jet(exprs, 2)(-1.0, -2.0)
    assert_same(exprs, -1.0, -2.0)
    assert_same(exprs, 1.0, -2.0)  # log fails
    assert_same(exprs, 1.0, 2.0)  # division by zero


def test_overflow_becomes_domain_error():
    for fn in ("exp", "sinh", "cosh"):
        exprs = [U, Unary(fn, Binary("*", Const(1000.0), U)), V]
        assert_same(exprs, 1.0, 0.0)
        with pytest.raises(DomainError, match=f"overflow in {fn}"):
            ex.compile_jet(exprs, 2)(1.0, 0.0)


@pytest.mark.parametrize("fn", ["sin", "cos", "tan"])
def test_trig_of_a_non_finite_value_is_a_domain_error(fn):
    # math.sin(inf) raises a bare ValueError, math.sin(nan) returns nan
    overflow = Binary("*", Const(1e308), Binary("*", Const(10.0), U))
    not_a_number = Binary("*", Const(math.inf), Binary("-", U, U))
    for arg, u, value in ((overflow, 1.0, "inf"), (overflow, -1.0, "-inf"), (not_a_number, 1.0, "nan")):
        exprs = [U, Unary(fn, arg), V]
        assert_same(exprs, u, 0.5)
        with pytest.raises(DomainError, match=f"{fn} of non-finite value {value}"):
            ex.compile_jet(exprs, 3)(u, 0.5)


def test_deeply_nested_expression():
    node = U
    for k in range(300):
        op = ("sin", "+", "*", "tanh", "-")[k % 5]
        node = Unary(op, node) if op in ("sin", "tanh") else Binary(op, node, V)
    assert_same([node, Binary("*", node, node), U], 0.3, 0.7)


def test_operator_text_never_reaches_the_source():
    # an unknown binary operator is a power in the tree walk; the kernel
    # takes the same branch and never writes the operator out
    odd = Binary("); import os #", U, V)
    assert_same([odd, U, V], 1.5, 0.25)
    with pytest.raises(KeyError):
        ex.compile_jet([Unary("os.system", U)], 2)


def test_catalog_kernel_shares_structurally_identical_subtrees():
    patch = srf.parametric_patch(
        SpaceKind.PSEUDO_ISOTROPIC, "u*cosh(v)", "u*sinh(v)", "cosh(v) + v", (0.5, 3.0, -1.0, 1.0)
    )
    kernel = patch.jet_kernel
    assert bits(kernel(1.7, 0.3)) == bits(walk([patch.x_expr, patch.y_expr, patch.z_expr], 1.7, 0.3))
    # the cosh and sinh nodes of v share one call of math.cosh; the second
    # cosh(v) reuses the first
    calls = [
        ins for ins in dis.get_instructions(kernel)
        if ins.opname == "LOAD_GLOBAL" and ins.argval == "cosh"
    ]
    assert len(calls) == 1


def test_kernel_compiled_once_per_patch_and_not_at_construction(monkeypatch):
    calls = []
    real = ex.compile_jet

    def counting(exprs, order):
        calls.append(exprs)
        return real(exprs, order)

    monkeypatch.setattr(ex, "compile_jet", counting)
    patch = srf.graph_patch(SpaceKind.SIMPLY_ISOTROPIC, "(u^2 + v^2)/4 - 1", (-2.0, 2.0, -2.0, 2.0))
    assert calls == [] and "jet_kernel" not in vars(patch)
    for u in (0.1, 0.2, 0.3):
        patch.jet_kernel(u, 0.5)
        srf.frame_at(patch, u, -0.5)
    assert len(calls) == 1
    other = srf.graph_patch(SpaceKind.SIMPLY_ISOTROPIC, "(u^2 + v^2)/4 - 1", (-2.0, 2.0, -2.0, 2.0))
    other.jet_kernel(0.0, 0.0)
    assert len(calls) == 2  # no cache shared between patches


def test_patch_with_compiled_kernel_still_pickles():
    patch = srf.parametric_patch(
        SpaceKind.PSEUDO_ISOTROPIC, "u*cosh(v)", "u*sinh(v)", "v", (0.5, 3.0, -1.0, 1.0)
    )
    before = srf.frame_at(patch, 1.5, 0.2)
    copy = pickle.loads(pickle.dumps(patch))
    assert copy == patch and "jet_kernel" not in vars(copy)
    assert srf.frame_at(copy, 1.5, 0.2).xi == before.xi


# ------------------------------------------------------------ order 3

_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_seeds = st.integers(0, 2**64 - 1)
# exact zeros hit log, sqrt, abs and division at their boundary
_coords = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@_settings
@given(_seeds, _coords, _coords)
def test_order3_kernel_extends_the_order2_kernel(seed, u, v):
    rng = SplitMix64(seed)
    exprs = [random_expr_full(rng, 4) for _ in range(3)]
    order2 = outcome(ex.compile_jet(exprs, 2), u, v)
    order3 = outcome(ex.compile_jet(exprs, 3), u, v)
    if order2[0] == "ok":
        assert order3[0] == "ok" and order3[1][:18] == order2[1], exprs
    else:
        assert order3 == order2, exprs


@_settings
@given(_seeds, _coords, _coords)
def test_order3_kernel_matches_reference_jets(seed, u, v):
    rng = SplitMix64(seed)
    exprs = [random_expr_full(rng, 4) for _ in range(3)]
    assert outcome(ex.compile_jet(exprs, 3), u, v) == outcome(walk3, exprs, u, v), exprs


@_settings
@given(_seeds, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_third_partials_are_differences_of_exact_second_partials(seed, u, v):
    # smooth trees only; central differences of duu, duv and dvv, with
    # step 1e-5, carry ~1e-10 truncation and ~1e-11 relative round-off
    e = random_expr(SplitMix64(seed), 4)
    h = 1e-5
    try:
        third = ex.compile_jet([e], 3)(u, v)[6:]
        plus_u, minus_u = eval_jet2(e, u + h, v), eval_jet2(e, u - h, v)
        plus_v, minus_v = eval_jet2(e, u, v + h), eval_jet2(e, u, v - h)
    except DomainError:
        return
    second = (plus_u.duu, plus_u.duv, plus_u.dvv, plus_v.duu, plus_v.duv, plus_v.dvv)
    assume(all(math.isfinite(x) and abs(x) <= 1e4 for x in second + tuple(third)))
    scale = 1.0 + max(abs(x) for x in second)
    fd = {
        "uuu": [(plus_u.duu - minus_u.duu) / (2 * h)],
        "uuv": [(plus_v.duu - minus_v.duu) / (2 * h), (plus_u.duv - minus_u.duv) / (2 * h)],
        "uvv": [(plus_u.dvv - minus_u.dvv) / (2 * h), (plus_v.duv - minus_v.duv) / (2 * h)],
        "vvv": [(plus_v.dvv - minus_v.dvv) / (2 * h)],
    }
    for exact, (name, estimates) in zip(third, fd.items()):
        for estimate in estimates:
            assert abs(exact - estimate) <= 1e-6 * scale, (e, name, exact, estimate)


@pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 3, 4, 7])
def test_pow_int_factors(n):
    # du, duu and duuu of u^n, whose exponent the kernel decides at run time
    kernel = ex.compile_jet([ex.parse(f"u^({n}+0)" if n >= 0 else f"u^-({-n}+0)")], 3)

    def factors(x):
        jet = kernel(x, 0.5)
        return jet[1], jet[3], jet[6]

    for x in (-1.5, 0.75, 2.0):
        want = (n * x ** (n - 1), n * (n - 1) * x ** (n - 2), n * (n - 1) * (n - 2) * x ** (n - 3))
        got = factors(x)
        assert all(abs(g - w) <= 1e-14 * (1.0 + abs(w)) for g, w in zip(got, want)), (x, n, got)
    if n >= 0:  # at 0 a factor is 0 or n!, exactly
        assert factors(0.0) == tuple(float(math.perm(n, k)) if n == k else 0.0 for k in (1, 2, 3))
    # overflow, not OverflowError
    assert ex.compile_jet([ex.parse("u^(7+0)")], 3)(1e200, 0.5)[1] == math.inf


def test_an_exponent_with_third_partials_adds_its_log_term():
    # b's first and second partials vanish, so a^b takes the integer
    # power; its third partials still carry a^n ln(a) b_ijk
    for source, u, v, want in (
        ("u^(v^3)", 2.0, 0.0, 6.0 * math.log(2.0)),
        ("u^(2 + (v - 0.5)^3)", 2.0, 0.5, 24.0 * math.log(2.0)),
    ):
        duuu, duuv, duvv, dvvv = ex.compile_jet([ex.parse(source)], 3)(u, v)[6:]
        assert abs(dvvv - want) <= 1e-14 * want and (duuu, duuv, duvv) == (0.0, 0.0, 0.0), source
    # ln(a) has no real value for a <= 0: the third partial that needs it is
    # NaN, and the order-2 part raises nothing and keeps its bits
    e = [ex.parse("(-u)^(v^3)")]
    jet = ex.compile_jet(e, 3)(2.0, 0.0)
    assert bits(jet[:6]) == bits(ex.compile_jet(e, 2)(2.0, 0.0))
    assert math.isnan(jet[9]) and jet[6:9] == (0.0, 0.0, 0.0)


def test_runtime_integer_power_raises_only_where_order_2_does():
    # 1e-62^5 is subnormal, 1e-62^6 underflows to 0: the order-2 part of
    # u^-5 divides by the former only, and so must the order-3 part
    e = ex.parse("u ^ -5")
    assert bits(ex.compile_jet([e], 3)(1e-62, 0.0)[:6]) == bits(ex.compile_jet([e], 2)(1e-62, 0.0))


def test_third_partials_of_a_runtime_integer_power():
    # "u ^ -2" parses with a negated constant exponent, which folds to -2
    # when the kernel is written and takes the run-time branch's integer
    # power; negative bases stay legal on that branch
    e = ex.parse("(u*v) ^ -2 + v ^ (1 + 1)")
    for u, v in ((-1.25, 0.5), (0.75, -2.0)):
        got = ex.compile_jet([e], 3)(u, v)[6:]
        # d^3/du^3 (uv)^-2 = -24 v^-2 u^-5, and so on
        want = (-24.0 * u**-5 * v**-2, -12.0 * u**-4 * v**-3, -12.0 * u**-3 * v**-4, -24.0 * u**-2 * v**-5)
        assert all(abs(g - w) <= 1e-13 * abs(w) for g, w in zip(got, want)), (u, v, got)


# ------------------------------------------------------------ run-time powers


RUNTIME_POWERS = [
    pytest.param(ex.parse("u^-2"), id="u^-2"),
    # exponents that fold to an integer when the kernel is written (v - v),
    # and exponents whose partials vanish only at run time (sin(v - v))
    *(pytest.param(ex.parse(f"u^(v - v + {n})"), id=f"u^(v-v{n:+d})")
      for n in (-1025, -1024, -3, -1, 0, 1, 2, 1024, 1025)),
    *(pytest.param(ex.parse(f"u^(sin(v - v) + {n})"), id=f"u^(sin(v-v){n:+d})") for n in (-1025, -3, 0, 2, 1024)),
    pytest.param(ex.parse("(u - u)^(v - v - 1)"), id="zero-base"),
    pytest.param(ex.parse("(-u)^(v - v + 0.5)"), id="negative-base"),
    pytest.param(ex.parse("u^(v - v + 800.5)"), id="exp-overflow"),
    # at v = 0.5 the exponent's third partial dvvv alone is not 0
    pytest.param(ex.parse("u^(2 + (v - 0.5)^3)"), id="exponent-third-partial"),
]


@pytest.mark.parametrize("e", RUNTIME_POWERS)
def test_runtime_powers_match_the_reference(e):
    for u in (1.0005, 0.75, 3.0, -1.25, 0.0):
        exprs = [e, Binary("*", U, V), V]
        assert_same(exprs, u, 0.5)
        assert outcome(ex.compile_jet(exprs, 3), u, 0.5) == outcome(walk3, exprs, u, 0.5), (e, u)


def test_runtime_power_errors():
    cases = [
        ("(u - u)^(v - v - 1)", "division by zero"),
        ("(-u)^(v - v + 0.5)", "power with non-integer exponent needs a positive base, got -3.0"),
        ("u^(v - v + 800.5)", "overflow in exp"),
    ]
    for source, message in cases:
        for order in (2, 3):
            with pytest.raises(DomainError) as err:
                ex.compile_jet([ex.parse(source)], order)(3.0, 0.5)
            assert str(err.value) == message


def test_kernels_call_nothing_but_math_functions():
    # every operation is written out as kernel lines: the only callables a
    # kernel can reach through its globals are math's and DomainError
    exprs = [ex.parse(s) for s in (
        "u^-2 + v^(u - u + 3) * (u*v)^0.5", "sin(u) / cos(v) + tan(u*v) - log(u) * sqrt(v)",
        "sinh(u)^cosh(v) - tanh(v) * exp(u) + abs(u - v)",
    )]
    patch = srf.graph_patch(SpaceKind.SIMPLY_ISOTROPIC, "u^(v - v - 1) + v^2.5", (0.5, 2.0, 0.5, 2.0))
    kernels = [ex.compile_jet(exprs, order) for order in (2, 3)] + [patch.jet_kernel, patch.jet3_kernel]
    for kernel in kernels:
        kernel(1.25, 0.75)
        for name, value in kernel.__globals__.items():
            if callable(value):
                assert value is DomainError or getattr(value, "__module__", None) == "math", name


@pytest.mark.parametrize("exponent", [0.5, -0.5, 2.25, 1024.5, 1025.0, -3000.0, math.inf, math.nan])
def test_constant_non_integral_exponent_writes_the_real_branch_only(exponent):
    # _integer_exponent rejects the constant when the kernel is written, so
    # the run-time test could never pass: no integer power is written
    e = Binary("^", Binary("+", U, Binary("*", U, V)), Const(exponent))
    for order in (2, 3):
        writer = ex._KernelWriter(order)
        writer.expr(e)
        assert not any("is_integer" in line or "while" in line for line in writer.lines())
    exprs = [e, Binary("*", U, V), V]
    for u in (1.5, 0.25, 0.0, -0.75, -2.0):
        assert_same(exprs, u, 0.5)
        assert outcome(ex.compile_jet(exprs, 3), u, 0.5) == outcome(walk3, exprs, u, 0.5), (exponent, u)
    with pytest.raises(DomainError) as err:
        ex.compile_jet(exprs, 3)(-2.0, 0.5)
    assert str(err.value) == "power with non-integer exponent needs a positive base, got -3.0"


def test_a_constant_and_a_run_time_exponent_do_not_share_a_node():
    # 0.5 ^ 1 has the jet of the constant 0.5, but its power is decided at
    # run time: that branch's result holds no structural slot, while the
    # constant exponent's keeps them, so the two powers are two nodes
    e = ex.parse("2^0.5 * (1e308*10*u) + 2^(0.5^1) * (1e308*10*u)")
    for exprs in ([e, U, V], [Binary("+", e.right, e.left), U, V]):
        assert_same(exprs, 1.0, 0.5)
        assert outcome(ex.compile_jet(exprs, 3), 1.0, 0.5) == outcome(walk3, exprs, 1.0, 0.5)


# ------------------------------------------------------------ structural zeros and ones

CATALOG_PARAMS = {
    "parabolic_sphere": {"p": 2.0},
    "cylindrical_sphere": {"r": 1.0},
    "plane": {"a": 0.3, "b": -0.2, "c": 0.7},
    "ruled_nondiag": {"b": 2.0},
    "helicoid": {"c": 1.0},
    "revolution": {"z": "log(u)"},
    "minimal_wave": {"f": "0.3*u^3 - 0.2*u", "g": "0.25*u^3 + 0.1*u^2"},
    "minimal_harmonic": {"f": "exp(u) * sin(v)"},
}
CATALOG_CASES = [
    pytest.param(name, kind, id=f"{name}[{kind.value}]")
    for name, entry in catalog.CATALOG.items() for kind in entry.kinds
]
# a product or power of ZERO or ONE, a sum or difference with ZERO, ZERO
# divided or a division by ONE
STRUCTURAL_ARITHMETIC = re.compile(
    r"\b(ZERO|ONE)\s*\*|\*\s*(ZERO|ONE)\b|[-+]\s*ZERO\b|\bZERO\s*[-+/]|/\s*ONE\b"
)


@pytest.mark.parametrize("name, kind", CATALOG_CASES)
def test_catalog_kernels_skip_structural_zeros_and_ones(monkeypatch, name, kind):
    sources = []
    real = ex.compile_function

    def recording(signature, lines, namespace):
        sources.append(list(lines))
        return real(signature, lines, namespace)

    monkeypatch.setattr(ex, "compile_function", recording)
    patch = catalog.make(name, kind, CATALOG_PARAMS[name])
    exprs = (patch.x_expr, patch.y_expr, patch.z_expr)
    compilers = {
        "jet2": lambda: ex.compile_jet(exprs, 2),
        "jet3": lambda: ex.compile_jet(exprs, 3),
        "stage r": lambda: geo._accel_kernel(patch, geo.GeodesicKind.RELATIVE),
        "stage lc": lambda: geo._accel_kernel(patch, geo.GeodesicKind.LEVI_CIVITA),
        "row": lambda: cli._row_kernel(patch),
    }
    for label, build in compilers.items():
        sources.clear()
        build()
        assert len(sources) == (2 if label == "row" else 1), label  # the row kernel and its columns
        folded = [line for lines in sources for line in lines if STRUCTURAL_ARITHMETIC.search(line)]
        assert folded == [], (label, folded)


def _stored_names(lines) -> set:
    """The names that the body ``lines`` of a function assign to."""
    tree = ast.parse("def f():\n" + "".join(f"    {line}\n" for line in lines))
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


# what a fused kernel assigns to: a jet temporary, a jet name or a frame name
_JET_TEMPORARY = re.compile(r"j\d+_")
_FRAME_NAMES = set(srf.FRAME_NAMES.split(", ")) - {"kind", "u", "v"}


def _point_names(names) -> set:
    return {n for n in names if n in _FRAME_NAMES or n in srf.JET_NAMES or _JET_TEMPORARY.match(n)}


@pytest.mark.parametrize("name, kind", [
    pytest.param("minimal_harmonic", SpaceKind.SIMPLY_ISOTROPIC, id="minimal_harmonic[i3]"),
    pytest.param("revolution", SpaceKind.PSEUDO_ISOTROPIC, id="revolution[ip3]"),
    pytest.param("ruled_nondiag", SpaceKind.PSEUDO_ISOTROPIC, id="ruled_nondiag[ip3]"),
])
def test_the_fused_kernels_share_one_point_prelude(monkeypatch, name, kind):
    # the row kernel and both stage kernels each call surface.point_lines
    # once, and it alone writes the jet and frame lines: each body holds the
    # lines of its writer's liveness passes as contiguous runs at one indent
    # (the row kernel its pass, in the places of its statements, see
    # _row_runs; a stage kernel the pass from
    # its early return before that return, and the other lines of the pass
    # from its final return after it), each pass begins with the jet lines
    # it keeps, in the jet writer's order after a stage kernel's conversion
    # of u, and no line outside the runs assigns a jet or frame name
    patch = catalog.make(name, kind, CATALOG_PARAMS[name])
    jet = ["U = float(u)", *ex.jet_writer((patch.x_expr, patch.y_expr, patch.z_expr), 2)[0].lines(prune=False)]
    calls = {"jet_writer": 0, "frame_lines": 0}
    writers, outputs, bodies = [], [], []

    def counted(fn_name, fn):
        def call(*args):
            calls[fn_name] += 1
            return fn(*args)

        return call

    def recording_point_lines(s):
        w, namespace = real_point_lines(s)
        assert srf.FRAME_GLOBALS.items() <= namespace.items()
        writers.append(w)
        return w, namespace

    def recording_lines(self, *after, prune=True):
        out = real_lines(self, *after, prune=prune)
        outputs.append((self, out))
        return out

    def recording_compile(signature, lines, namespace):
        bodies.append(list(lines))
        return real_compile(signature, lines, namespace)

    real_point_lines, real_lines, real_compile = srf.point_lines, ex.Lines.lines, ex.compile_function
    monkeypatch.setattr(ex, "jet_writer", counted("jet_writer", ex.jet_writer))
    monkeypatch.setattr(srf, "frame_lines", counted("frame_lines", srf.frame_lines))
    for module in (rows, geo):
        monkeypatch.setattr(module, "point_lines", recording_point_lines)
    monkeypatch.setattr(ex.Lines, "lines", recording_lines)
    monkeypatch.setattr(ex, "compile_function", recording_compile)
    cli._row_kernel(patch)
    geo._accel_kernel(patch, geo.GeodesicKind.RELATIVE)
    geo._accel_kernel(patch, geo.GeodesicKind.LEVI_CIVITA)
    assert calls == {"jet_writer": 3, "frame_lines": 3} and len(bodies) == 4
    kernel, columns, *stages = bodies
    row = [line.strip() for line in kernel]  # the row kernel converts u once, before its loop
    loop = next(i for i, line in enumerate(row) if line.startswith("for v, sv, "))
    assert row.count("U = float(u)") == 1 and row.index("U = float(u)") < loop
    assert [w for w, _ in outputs] == [writers[0], writers[1], writers[1], writers[2], writers[2]]
    passes = [[outputs[1][1], outputs[2][1]], [outputs[3][1], outputs[4][1]]]
    # the row pass's lines in its four places: once per grid, once per v,
    # once per row and at each point, each run in the pass's order
    (row_pass,) = [out for w, out in outputs if w is writers[0]]
    runs = _row_runs(kernel, columns)
    assert Counter(row_pass) == Counter(line for run in runs for line in run)
    for run in runs:
        remaining = iter(row_pass)
        assert all(line in remaining for line in run)
    # no line outside the runs assigns a jet or frame name, apart from the
    # kernel's unpacking of the consts and of each table entry, which
    # assigns the names that its columns computed
    unpacked = set(re.findall(r"\w+", row[loop].removesuffix(" in cols:")))
    unpacked |= set(re.findall(r"\w+", row[0].removesuffix(" = consts"))) if row[0].endswith(" = consts") else set()
    for body, outs, runs, allowed in [
        (kernel + columns, [row_pass], runs, unpacked),
        *((stage, outs, [outs[0], [line for line in outs[1] if line not in outs[0]]], set())
          for stage, outs in zip(stages, passes)),
    ]:
        for out in outs:
            k = next((i for i, line in enumerate(out) if line not in jet), len(out))
            remaining = iter(jet)
            assert all(line in remaining for line in out[:k])
            assert not [line for line in out[k:] if _point_names(stageref.assigned(line.strip())) - _FRAME_NAMES]
        rest = body
        for run in filter(None, runs):
            n = len(run)
            found = [
                (i, line[: -len(run[0])]) for i, line in enumerate(rest)
                if line.endswith(run[0]) and not line[: -len(run[0])].strip()
                and rest[i:i + n] == [line[: -len(run[0])] + x for x in run]
            ]
            ((start, indent),) = found
            rest = [*rest[:start], f"{indent}pass", *rest[start + n:]]
        assert _point_names(_stored_names(rest)) <= allowed


def _row_runs(kernel, columns) -> list:
    """The lines of the row kernel's liveness pass in their four places,
    with the indent of their place removed: in ``columns`` before and in
    its loop over v, and in ``kernel`` in the try before its loop and in
    the try of its loop over v; the texts of the columns are left out."""

    def run(body, start, end, indent):
        return [x[indent:] for x in body[start:end] if not re.match(r" *s\d+ = f'", x)]

    prelude = (kernel.index("try:") + 1, kernel.index("except Exception:")) if "try:" in kernel else (0, 0)
    loop = kernel.index("    try:", next(i for i, x in enumerate(kernel) if x.startswith("for v, sv, ")))
    return [
        run(columns, 0, columns.index("cols = []"), 0),
        run(columns, columns.index("for v, sv in vs:") + 1, len(columns) - 2, 4),
        run(kernel, *prelude, 4),
        run(kernel, loop + 1, kernel.index("    except NotAdmissible:", loop), 8),
    ]


def _kernel_bodies(monkeypatch, patch) -> dict:
    """The body lines of the row kernel, its columns and both stage kernels
    of ``patch``."""
    bodies = []
    real = ex.compile_function

    def recording(signature, lines, namespace):
        bodies.append(list(lines))
        return real(signature, lines, namespace)

    monkeypatch.setattr(ex, "compile_function", recording)
    cli._row_kernel(patch)
    geo._accel_kernel(patch, geo.GeodesicKind.RELATIVE)
    geo._accel_kernel(patch, geo.GeodesicKind.LEVI_CIVITA)
    return dict(zip(("row", "columns", "r", "lc"), bodies, strict=True))


def _is_graph(name, kind) -> bool:
    patch = catalog.make(name, kind, CATALOG_PARAMS[name])
    return (patch.x_expr, patch.y_expr) == (U, V)


GRAPH_CASES = [case for case in CATALOG_CASES if _is_graph(*case.values)]


@pytest.mark.parametrize("name, kind", GRAPH_CASES)
def test_graph_kernels_write_no_swap_and_no_bind(monkeypatch, name, kind):
    # x = u and y = v: m12 is the structural ONE, so no kernel swaps or binds
    # a jet name, and the top views are (1, 0) and (0, 1), so no kernel writes
    # the admissibility guard, which could not fire; and every Levi-Civita
    # coefficient is ZERO, so the Levi-Civita stage kernel writes no
    # coefficient and no second fundamental form
    patch = catalog.make(name, kind, CATALOG_PARAMS[name])
    for label, body in _kernel_bodies(monkeypatch, patch).items():
        assert not any("m12" in line or "swapped" in line for line in body), label
        assert not any("scale" in line or "raise NotAdmissible" in line for line in body), label
        assert not _stored_names(body) & set(srf.JET_NAMES), label
        if label == "lc":
            stored = _stored_names(body)
            assert not {x for x in stored if re.fullmatch(r"ga\d{3}|h\d\d", x)}, stored
            assert "    return ZERO, ZERO" in body


def test_a_stage_keeps_no_more_lines_before_its_return_than_the_sample_last_reference():
    # on the catalog and 200 random patches: the lines before the
    # ``if not sample:`` return are at most those that the reference pass
    # leaves there on the kernel's whole body, and no name is assigned on
    # both sides of the return.  The split rests on this: a let that reads
    # a name which a later block re-assigns (m12_0, before the frame's swap)
    # stays before the return, where it reads what it read in place
    patches = [catalog.make(name, kind, CATALOG_PARAMS[name]) for name, kind in (c.values for c in CATALOG_CASES)]
    for patch in patches + random_patches(3000, 200):
        for g in geo.GeodesicKind:
            _, body, w, _, whole_body = stageref.stage(patch, g)
            cut, ref = body.index("if not sample:"), stageref.sample_last(whole_body).index("if not sample:")
            assert cut <= ref, (patch, g)
            before = {n for line in body[2:cut] for n in stageref.assigned(line)}
            after = {n for line in body[cut + 2:-1] for n in stageref.assigned(line)}
            assert not before & after, (patch, g)
            readers = {}  # a name, and the names of the lets that read it
            for x in w.body:
                if isinstance(x, str):
                    for name in stageref.assigned(x.strip()):
                        assert not readers.get(name, set()) & after, (patch, g, x)
                else:
                    for target, value in x:
                        for name in re.findall(r"[A-Za-z_]\w*", value):
                            readers.setdefault(name, set()).add(target)


@pytest.mark.parametrize("name, kind", GRAPH_CASES)
def test_a_levi_civita_graph_stage_runs_only_its_guards(monkeypatch, name, kind):
    # a graph's Levi-Civita coefficients are all ZERO, so a stage call
    # returns ZERO, ZERO: before that return it runs the domain test, the
    # jet's guards (the lines that raise, with their blocks) and the lines
    # that a guard reads, and no other line; the position and the jet lines
    # only it reads come after the return
    patch = catalog.make(name, kind, CATALOG_PARAMS[name])
    body = _kernel_bodies(monkeypatch, patch)["lc"]
    cut = body.index("if not sample:")
    assert body[cut + 1] == "    return ZERO, ZERO"
    head = body[:cut]
    blocks = [i for i, line in enumerate(head) if not re.fullmatch(r"\w+(, \w+)* = .*", line)]
    read = set(re.findall(r"[A-Za-z_]\w*", " ".join(head[i] for i in blocks)))
    assert any("raise" in head[i] for i in blocks)
    for line in reversed([line for i, line in enumerate(head) if i not in blocks]):
        targets = line.partition(" = ")[0].split(", ")
        assert set(targets) <= read, line
        read |= set(re.findall(r"[A-Za-z_]\w*", line))
    # the position's z, which no guard reads, is computed after the return
    pz = body[-1].split(", ")[4]
    assert [line for line in body[cut:] if line.startswith(f"{pz} = ")], pz
    if name in ("parabolic_sphere", "plane", "minimal_wave"):  # guards on constants only
        assert not [line for line in head if " = " in line], head


@pytest.mark.parametrize("source, value", [
    ("2", 2.0), ("-2", -2.0), ("v/v", 1.0), ("v - v", 0.0), ("0*v", 0.0), ("v*0", 0.0),
    ("v - v + 3", 3.0), ("2*(v/v)", 2.0), ("(u*v)/(u*v) - 4", -3.0), ("-(sin(u) - sin(u))", -0.0),
    ("1/3*3", 1.0), ("2/(v - v)", None), ("v", None), ("2*v/v", None), ("u/v", None), ("2^1", None),
    ("sin(0)", None),
])
def test_an_exponent_folds_where_it_is_constant_by_its_structure(source, value):
    got = ex._folded(ex.parse(source))
    assert repr(got) == repr(value)
    if value is not None:  # the value the jet computes from the literals
        assert repr(got) == repr(jet2ref._fold(ex.parse(source)))


def test_an_exponent_constant_by_structure_takes_the_integer_power_at_every_order():
    # v/v rounds to 1 - 2^-53 (v = 49), v - v is nan at v = inf: neither
    # passes the run-time test, and a negative base has no real power; the
    # folded exponent takes the integer power, with no log term at order 3
    for source, u, v in (("u^(v/v)", -1.5, 49.0), ("(u - 1)^(2*(v/v))", 0.25, 49.0),
                         ("u^(1e308*10*v - 1e308*10*v + 3)", -2.0, 0.5)):
        e = ex.parse(source)
        for order in (2, 3):
            got = ex.compile_jet([e, U, V], order)(u, v)
            assert all(math.isfinite(x) for x in got), (source, order, got)
            assert outcome(ex.compile_jet([e, U, V], order), u, v) == (
                outcome(walk, [e, U, V], u, v) if order == 2 else outcome(walk3, [e, U, V], u, v)
            )
    assert ex.compile_jet([ex.parse("u^(v/v)")], 3)(-1.5, 49.0) == (-1.5, 1.0) + (0.0,) * 8


def test_sin_and_cos_of_one_argument_share_one_block():
    # the helicoid's sinh(v) and cosh(v) take both functions from one block
    patch = catalog.make("helicoid", SpaceKind.PSEUDO_ISOTROPIC, {"c": 1.0})
    for order in (2, 3):
        source = "\n".join(ex.jet_writer((patch.x_expr, patch.y_expr, patch.z_expr), order)[0].lines(prune=False))
        assert source.count("sinh(") == 1 and source.count("cosh(") == 1, source
    source = "\n".join(ex.jet_writer([ex.parse("sin(u) * cos(u) + cos(u + v)")], 2)[0].lines(prune=False))
    assert source.count("sin(") == 2 and source.count("cos(") == 2, source
    # the first node's block raises first, with its own message
    for src, message in (("cosh(v) + sinh(v)", "overflow in cosh"), ("sin(1e308*10*v) * cos(1e308*10*v)", "sin of")):
        with pytest.raises(DomainError, match=message):
            ex.compile_jet([ex.parse(src), U, V], 2)(0.5, 1000.0)


def _unread_lets(monkeypatch, patch) -> list:
    """(kernel, name) for each name that no later line of one of
    ``patch``'s kernels reads: every name stored in ``compile_jet``'s
    kernels at orders 2 and 3, and every name a let stores in the row
    kernel and in each path of both stage kernels, the early return's and
    the sample's."""
    bodies, lets = [], set()
    real_compile, real_lines = ex.compile_function, ex.Lines.lines

    def lines(self, *after, prune=True):  # a let is a line that is not in the body as text
        out = real_lines(self, *after, prune=prune)
        lets.update(set(out) - {x for x in self.body if isinstance(x, str)})
        return out

    with monkeypatch.context() as m:
        m.setattr(ex, "compile_function", lambda *args: bodies.append(list(args[1])) or real_compile(*args))
        m.setattr(ex.Lines, "lines", lines)
        exprs = (patch.x_expr, patch.y_expr, patch.z_expr)
        ex.compile_jet(exprs, 2)
        ex.compile_jet(exprs, 3)
        cli._row_kernel(patch)
        for g in geo.GeodesicKind:
            patch.accel_kernels.pop(g, None)
            geo._accel_kernel(patch, g)
    jet2, jet3, row, columns, r, lc = bodies
    paths = {"jet2": jet2, "jet3": jet3, "row": row, "columns": columns}
    for label, body in (("r", r), ("lc", lc)):
        cut = body.index("if not sample:")
        paths[label], paths[f"{label} sample"] = body[: cut + 2], [*body[:cut], *body[cut + 2:]]
    unread = []
    for label, lines in paths.items():
        tree = ast.parse("def f():\n" + "".join(f"    {line}\n" for line in lines))
        names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
        loads = [(n.lineno, n.id) for n in names if isinstance(n.ctx, ast.Load)]
        for store in (n for n in names if isinstance(n.ctx, ast.Store)):
            # lines[0] is line 2; of compile_jet's kernels every name stored
            if label.startswith("jet") or lines[store.lineno - 2].strip() in lets:
                if not any(k > store.lineno and n == store.id for k, n in loads):
                    unread.append((label, store.id))
    return unread


@pytest.mark.parametrize("name, kind", CATALOG_CASES)
def test_catalog_jet_kernels_assign_no_unread_name(monkeypatch, name, kind):
    # no line of compile_jet's kernels, and no let of a fused kernel (a jet
    # partial, a chain-rule factor or a template's quantity), writes a name
    # that no later line of the kernel reads or returns, on either path of
    # a stage kernel
    assert _unread_lets(monkeypatch, catalog.make(name, kind, CATALOG_PARAMS[name])) == []


def test_genexpr_kernels_assign_no_unread_name(monkeypatch):
    # the same for the fused kernels of 60 random patches.  compile_jet
    # writes every line unpruned, since it returns every slot: there, the
    # jet of an exponent that folds to an integer, such as -3, goes unread
    for patch in random_patches(4100, 60):
        assert [(k, n) for k, n in _unread_lets(monkeypatch, patch) if not k.startswith("jet")] == [], patch


def test_a_constant_keeps_its_structural_partials_where_a_factor_overflows():
    # d/dx log(x) at x = 5e-324 is inf, and inf * 0.0 is NaN: the partials
    # of log(5e-324) are structural zeros instead, so z = log(5e-324) u + u v
    # has the finite partials of a plane with a saddle, not NaN
    jet = ex.compile_jet([ex.parse("log(5e-324) * u + u*v"), U, V], 2)(1.0, -1.0)
    assert bits(jet[:6]) == bits([math.log(5e-324) - 1.0, math.log(5e-324) - 1.0, 1.0, 0.0, 1.0, 0.0])
