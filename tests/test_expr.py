import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genexpr import fd_check, random_expr, random_expr_full, sample_checkable_pairs
from jet2ref import eval_jet2
from isogeo import expr as ex
from isogeo.errors import DomainError, ExprSyntaxError
from isogeo.rng import SplitMix64


def test_atoms():
    assert ex.parse("u") == ex.Var("u")
    assert ex.parse("v") == ex.Var("v")
    assert ex.parse("2") == ex.Const(2.0)
    assert ex.parse(".5") == ex.Const(0.5)
    assert ex.parse("2e3") == ex.Const(2000.0)
    assert ex.parse("pi") == ex.Const(math.pi)
    assert ex.parse("e") == ex.Const(math.e)


def test_power_right_associative():
    jet = eval_jet2(ex.parse("2^3^2"), 0.7, -0.3)
    assert jet.val == 512.0


def test_unary_minus_binds_looser_than_power():
    assert eval_jet2(ex.parse("-2^2"), 0.0, 0.0).val == -4.0
    assert eval_jet2(ex.parse("(-2)^2"), 0.0, 0.0).val == 4.0


def test_unary_minus_in_products():
    assert eval_jet2(ex.parse("2*-3"), 0.0, 0.0).val == -6.0
    assert eval_jet2(ex.parse("--2"), 0.0, 0.0).val == 2.0


def test_subtraction_left_associative():
    assert eval_jet2(ex.parse("2-3-4"), 0.0, 0.0).val == -5.0


def test_parabolic_sphere_expression():
    e = ex.parse("(u^2+v^2)/4 - 1")
    assert ex.parse(ex.to_source(e)) == e
    jet = eval_jet2(e, 2.0, 0.0)
    assert abs(jet.val) < 1e-15
    assert abs(jet.du - 1.0) < 1e-15
    assert jet.dv == 0.0
    assert abs(jet.duu - 0.5) < 1e-15
    assert jet.duv == 0.0
    assert abs(jet.dvv - 0.5) < 1e-15


def test_bilinear_monomial():
    jet = eval_jet2(ex.parse("u*v"), 2.0, 3.0)
    assert (jet.val, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv) == (6.0, 3.0, 2.0, 0.0, 1.0, 0.0)


def test_sin_jet():
    jet = eval_jet2(ex.parse("sin(u)"), 0.0, 1.7)
    assert jet.val == 0.0 and jet.du == 1.0 and jet.duu == 0.0


@pytest.mark.parametrize(
    "source, offset",
    [
        ("", 0),
        ("   ", 0),
        ("u +", 3),
        ("(u + v", 6),
        ("u + w", 4),
        ("foo(u)", 0),
        ("u $ v", 2),
        ("sin u", 4),
        ("u) ", 1),
        ("2e", 1),
    ],
)
def test_syntax_errors_carry_offsets(source, offset):
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse(source)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "source, offset", [("1e400", 0), ("u + 1e400", 4), ("2*1.8e308*u", 2), ("u^(v - 99999e999)", 7)]
)
def test_a_literal_that_overflows_a_float_is_a_syntax_error(source, offset):
    # it would parse to Const(inf), which to_source prints as "inf"
    with pytest.raises(ExprSyntaxError, match="overflows a float") as err:
        ex.parse(source)
    assert err.value.offset == offset
    # the largest float and an underflow to 0 are finite
    assert ex.parse("1.7976931348623157e308 - 1e-400") == ex.Binary(
        "-", ex.Const(1.7976931348623157e308), ex.Const(0.0)
    )


_BOUND = ex.MAX_DEPTH


@pytest.mark.parametrize(
    "at_bound, past_bound, offset",
    [
        # parentheses nest the parser but add no node
        ("(" * (_BOUND - 1) + "u" + ")" * (_BOUND - 1), "(" * _BOUND + "u" + ")" * _BOUND, _BOUND - 1),
        # a sum of n terms is a left-deep tree n deep; the bound is met at a "+"
        ("+".join(["u"] * _BOUND), "+".join(["u"] * (_BOUND + 1)), 2 * _BOUND - 1),
        ("-" * (_BOUND - 1) + "u", "-" * _BOUND + "u", _BOUND - 1),
        ("sin(" * (_BOUND - 1) + "u" + ")" * (_BOUND - 1), "sin(" * _BOUND + "u" + ")" * _BOUND, 4 * (_BOUND - 1)),
        ("u^" * (_BOUND - 1) + "u", "u^" * _BOUND + "u", 2 * _BOUND - 1),
    ],
    ids=["parens", "sum", "negations", "functions", "powers"],
)
def test_nesting_past_the_bound_is_a_syntax_error(at_bound, past_bound, offset):
    # past the bound the parser, or the kernel writer on the tree, would
    # overflow the interpreter's stack
    node = ex.parse(at_bound)
    assert ex.parse(ex.to_source(node)) == node
    ex.compile_jet([node], 3)(0.5, 0.25)
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {_BOUND} levels") as err:
        ex.parse(past_bound)
    assert err.value.offset == offset


@pytest.mark.parametrize("source, offset", [("u^\u00b2", 2), ("\u00bd*u", 0), ("2\u2082", 1)])
def test_a_digit_that_is_not_decimal_is_an_unexpected_character(source, offset):
    # float() reads decimal digits only; a superscript two once reached it
    with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
        ex.parse(source)
    assert err.value.offset == offset
    # any decimal digit is a number, as float() reads it
    assert ex.parse("\u0663.5*u") == ex.Binary("*", ex.Const(3.5), ex.Var("u"))


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_jet2(ex.parse("log(u)"), -1.0, 0.0)
    with pytest.raises(DomainError):
        eval_jet2(ex.parse("u/v"), 1.0, 0.0)


def test_functions_round_trip_values():
    assert abs(eval_jet2(ex.parse("exp(log(u))"), 3.0, 0.0).val - 3.0) < 1e-12
    assert abs(eval_jet2(ex.parse("sqrt(u)^2"), 7.0, 0.0).val - 7.0) < 1e-12
    assert abs(eval_jet2(ex.parse("tan(u)"), 0.4, 0.0).val - math.tan(0.4)) < 1e-15
    assert abs(eval_jet2(ex.parse("abs(v)"), 0.0, -2.5).val - 2.5) < 1e-15


def test_print_parse_round_trip_random():
    rng = SplitMix64(404)
    for _ in range(300):
        e = random_expr(rng, 4)
        assert ex.parse(ex.to_source(e)) == e


def _as_parsed(e):
    """e with every negative constant Const(c) spelled neg(Const(-c)), the
    only way ``parse`` builds one."""
    match e:
        case ex.Const(c) if math.copysign(1.0, c) < 0.0:
            return ex.Unary("neg", ex.Const(-c))
        case ex.Unary(op, arg):
            return ex.Unary(op, _as_parsed(arg))
        case ex.Binary(op, left, right):
            return ex.Binary(op, _as_parsed(left), _as_parsed(right))
    return e


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 5))
def test_print_parse_round_trip_over_the_whole_language(seed, depth):
    # random_expr_full has negative constant exponents, Const(-0.5) and
    # the like, which parse never builds
    e = random_expr_full(SplitMix64(seed), depth)
    parsed = _as_parsed(e)
    assert ex.parse(ex.to_source(e)) == parsed
    assert ex.parse(ex.to_source(parsed)) == parsed


@pytest.mark.parametrize("c", [-2.0, -0.5, -0.0])
def test_a_negative_constant_prints_as_a_negation(c):
    u, k = ex.Var("u"), ex.Const(c)
    neg = ex.Unary("neg", ex.Const(-c))
    for e, text in (
        (ex.Binary("^", k, u), f"({c!r}) ^ u"),  # -2.0 ^ u would read -(2.0 ^ u)
        (ex.Binary("^", u, k), f"u ^ ({c!r})"),
        (ex.Binary("-", u, k), f"u - {c!r}"),
        (ex.Unary("neg", k), f"-{c!r}"),
    ):
        assert ex.to_source(e) == text
        assert ex.parse(text) == _as_parsed(e)
    assert _as_parsed(k) == neg


def test_sum_product_homomorphism_exact():
    # evaluating a combined tree equals combining the evaluated jets, exactly
    rng = SplitMix64(505)
    done = 0
    while done < 100:
        a = random_expr(rng, 3)
        b = random_expr(rng, 3)
        u, v = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
        try:
            ja = eval_jet2(a, u, v)
            jb = eval_jet2(b, u, v)
            jsum = eval_jet2(ex.Binary("+", a, b), u, v)
            jprod = eval_jet2(ex.Binary("*", a, b), u, v)
        except DomainError:
            continue
        if not all(
            math.isfinite(x)
            for j in (ja, jb)
            for x in (j.val, j.du, j.dv, j.duu, j.duv, j.dvv)
        ):
            continue
        done += 1
        assert jsum == ja + jb
        assert jprod == ja * jb


def test_first_and_second_partials_match_finite_differences():
    first_checked = second_checked = 0
    for e, u, v, jet in sample_checkable_pairs(606, 200):
        firsts, seconds = fd_check(e, u, v, jet)
        for rel in firsts:
            assert rel <= 1e-6
            first_checked += 1
        for rel in seconds:
            assert rel <= 1e-4
            second_checked += 1
    assert first_checked >= 200
    assert second_checked >= 100


def test_substitute():
    f = ex.parse("u^3 - u")
    composed = ex.substitute(f, {"u": ex.parse("u + v")})
    jet = eval_jet2(composed, 0.5, 0.25)
    s = 0.75
    assert abs(jet.val - (s**3 - s)) < 1e-15
    assert abs(jet.du - (3 * s**2 - 1)) < 1e-12
    assert abs(jet.du - jet.dv) < 1e-15


def test_variables_of():
    assert ex.variables_of(ex.parse("sin(u)*2 + cos(1)")) == {"u"}
    assert ex.variables_of(ex.parse("u + v")) == {"u", "v"}
    assert ex.variables_of(ex.parse("3")) == set()
