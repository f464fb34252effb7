"""The compiled jet kernel of a patch against the ``eval_jet2`` tree walk:
every component bit for bit, and every error with the same type and
message.

Components are compared by ``repr``, which tells -0.0 from 0.0 and
round-trips every finite float and infinity, but prints every NaN as
``nan``.  NaN sign and payload are not reproducible in CPython itself:
once the interpreter specialises a float multiply, ``-nan * nan`` can
change sign between two calls of the same function.
"""

import dis
import math
import pickle

import pytest

from genexpr import random_expr_full
from isogeo import expr as ex
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
        j = ex.eval_jet2(e, u, v)
        out += [j.val, j.du, j.dv, j.duu, j.duv, j.dvv]
    return out


def outcome(fn, *args):
    try:
        return "ok", bits(fn(*args))
    except (DomainError, ValueError) as err:  # ValueError: e.g. sin(inf)
        return type(err), str(err)


def assert_same(exprs, u, v):
    kernel = ex.compile_jet2(exprs)
    assert outcome(kernel, u, v) == outcome(walk, exprs, u, v), (exprs, u, v)


def test_random_expressions_match_tree_walk():
    rng = SplitMix64(20260401)
    seen = {"ok": 0, "error": 0}
    for _ in range(600):
        exprs = [random_expr_full(rng, 4) for _ in range(3)]
        kernel = ex.compile_jet2(exprs)
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
    kernel = ex.compile_jet2([Const(0.0), Const(-0.0), Binary("+", Const(-0.0), Const(-0.0))])
    values = kernel(1.0, 2.0)
    assert bits(values) == bits(walk([Const(0.0), Const(-0.0), Binary("+", Const(-0.0), Const(-0.0))], 1.0, 2.0))
    assert math.copysign(1.0, values[6]) == -1.0 and math.copysign(1.0, values[12]) == -1.0


def test_no_algebraic_folding():
    # 0 * x is -0.0 for negative x and NaN for infinite x
    times_zero = Binary("*", Const(0.0), U)
    for u in (-3.0, math.inf, 2.0):
        assert_same([times_zero, Binary("*", Const(1.0), V), Binary("^", U, Const(0.0))], u, -1.5)


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
        ex.compile_jet2(exprs)(-1.0, -2.0)
    assert_same(exprs, -1.0, -2.0)
    assert_same(exprs, 1.0, -2.0)  # log fails
    assert_same(exprs, 1.0, 2.0)  # division by zero


def test_overflow_becomes_domain_error():
    for fn in ("exp", "sinh", "cosh"):
        exprs = [U, Unary(fn, Binary("*", Const(1000.0), U)), V]
        assert_same(exprs, 1.0, 0.0)
        with pytest.raises(DomainError, match=f"overflow in {fn}"):
            ex.compile_jet2(exprs)(1.0, 0.0)


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
        ex.compile_jet2([Unary("os.system", U)])


def test_catalog_kernel_shares_structurally_identical_subtrees():
    patch = srf.parametric_patch(
        SpaceKind.PSEUDO_ISOTROPIC, "u*cosh(v)", "u*sinh(v)", "cosh(v) + v", (0.5, 3.0, -1.0, 1.0)
    )
    kernel = patch.jet_kernel
    assert bits(kernel(1.7, 0.3)) == bits(walk([patch.x_expr, patch.y_expr, patch.z_expr], 1.7, 0.3))
    # the cosh and sinh nodes each call math.cosh once; the second
    # cosh(v) reuses the first
    calls = [
        ins for ins in dis.get_instructions(kernel)
        if ins.opname == "LOAD_GLOBAL" and ins.argval == "cosh"
    ]
    assert len(calls) == 2


def test_kernel_compiled_once_per_patch_and_not_at_construction(monkeypatch):
    calls = []
    real = ex.compile_jet2

    def counting(exprs):
        calls.append(exprs)
        return real(exprs)

    monkeypatch.setattr(ex, "compile_jet2", counting)
    patch = srf.graph_patch(SpaceKind.SIMPLY_ISOTROPIC, "(u^2 + v^2)/4 - 1", (-2.0, 2.0, -2.0, 2.0))
    assert calls == [] and "jet_kernel" not in vars(patch)
    for u in (0.1, 0.2, 0.3):
        patch.evaluate(u, 0.5)
        srf.frame_at(patch, u, -0.5)
    assert len(calls) == 1
    other = srf.graph_patch(SpaceKind.SIMPLY_ISOTROPIC, "(u^2 + v^2)/4 - 1", (-2.0, 2.0, -2.0, 2.0))
    other.evaluate(0.0, 0.0)
    assert len(calls) == 2  # no cache shared between patches


def test_patch_with_compiled_kernel_still_pickles():
    patch = srf.parametric_patch(
        SpaceKind.PSEUDO_ISOTROPIC, "u*cosh(v)", "u*sinh(v)", "v", (0.5, 3.0, -1.0, 1.0)
    )
    before = srf.frame_at(patch, 1.5, 0.2)
    copy = pickle.loads(pickle.dumps(patch))
    assert copy == patch and "jet_kernel" not in vars(copy)
    assert srf.frame_at(copy, 1.5, 0.2).xi == before.xi
