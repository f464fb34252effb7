import math

import pytest

import jets
from jets import Jet2
from isogeo.errors import DomainError
from isogeo.rng import SplitMix64


def as_tuple(a: Jet2):
    return (a.val, a.du, a.dv, a.duu, a.duv, a.dvv)


def test_seeds():
    assert as_tuple(jets.seed_u(2.0)) == (2.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert as_tuple(jets.seed_v(0.0)) == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    assert as_tuple(jets.const(5.0)) == (5.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_square_of_seed():
    sq = jets.seed_u(3.0) * jets.seed_u(3.0)
    assert sq.val == 9.0 and sq.du == 6.0 and sq.duu == 2.0
    assert sq.dv == sq.duv == sq.dvv == 0.0


def test_sin_at_zero():
    s = jets.sin(jets.seed_u(0.0))
    assert s.val == 0.0 and s.du == 1.0 and s.duu == 0.0


def test_mixed_partial_of_uv():
    prod = jets.seed_u(2.0) * jets.seed_v(3.0)
    assert as_tuple(prod) == (6.0, 3.0, 2.0, 0.0, 1.0, 0.0)


def _random_jet(rng: SplitMix64) -> Jet2:
    return Jet2(*(rng.uniform(-3.0, 3.0) for _ in range(6)))


def test_multiplication_commutes_exactly():
    rng = SplitMix64(101)
    for _ in range(200):
        a, b = _random_jet(rng), _random_jet(rng)
        assert as_tuple(a * b) == as_tuple(b * a)


def test_addition_associative_on_dyadic_values():
    # components are multiples of 1/64, so float addition is exact and
    # associativity holds bit-for-bit
    rng = SplitMix64(202)
    for _ in range(200):
        a, b, c = (
            Jet2(*(rng.randint(2048) / 64.0 - 16.0 for _ in range(6)))
            for _ in range(3)
        )
        assert as_tuple((a + b) + c) == as_tuple(a + (b + c))


def test_division():
    q = jets.seed_u(1.0) / jets.seed_v(2.0)
    assert q.val == 0.5 and q.du == 0.5 and q.dv == -0.25
    assert q.duu == 0.0 and abs(q.duv + 0.25) < 1e-15 and abs(q.dvv - 0.25) < 1e-15


def test_division_by_zero():
    with pytest.raises(DomainError):
        jets.seed_u(1.0) / jets.const(0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        jets.log(jets.const(-1.0))
    with pytest.raises(DomainError):
        jets.sqrt(jets.const(-4.0))
    with pytest.raises(DomainError):
        jets.absj(jets.const(0.0))


def test_abs_negative_branch():
    a = jets.absj(jets.seed_u(-3.0))
    assert a.val == 3.0 and a.du == -1.0 and a.duu == 0.0


def test_integer_power_negative_base():
    cube = jets.seed_u(-2.0) ** 3
    assert cube.val == -8.0 and cube.du == 12.0 and cube.duu == -12.0


def test_integer_power_negative_exponent():
    inv2 = jets.seed_u(2.0) ** -2
    assert abs(inv2.val - 0.25) < 1e-15
    assert abs(inv2.du + 0.25) < 1e-15  # d/du u^-2 = -2 u^-3


def test_fractional_power():
    p = jets.seed_u(4.0) ** 2.5
    assert abs(p.val - 32.0) < 1e-12
    assert abs(p.du - 20.0) < 1e-12
    assert abs(p.duu - 7.5) < 1e-12


def test_fractional_power_needs_positive_base():
    with pytest.raises(DomainError):
        jets.seed_u(-4.0) ** 2.5


def test_variable_exponent():
    p = jets.powj(jets.seed_u(2.0), jets.seed_v(3.0))
    assert abs(p.val - 8.0) < 1e-12
    assert abs(p.du - 12.0) < 1e-12
    assert abs(p.dv - 8.0 * math.log(2.0)) < 1e-12


_SAFE_UNARY = (jets.sin, jets.cos, jets.exp, jets.tanh, jets.sinh, jets.cosh)
_SAFE_SCALAR = (math.sin, math.cos, math.exp, math.tanh, math.sinh, math.cosh)


def test_chain_rule_against_finite_differences():
    # f(g(alpha*u + beta*v)) as a scalar map; second-order jets must match
    # central differences of the plain evaluation
    rng = SplitMix64(303)
    h = 1e-5
    checked = 0
    while checked < 100:
        fi = rng.randint(len(_SAFE_UNARY))
        gi = rng.randint(len(_SAFE_UNARY))
        alpha, beta = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        u0, v0 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)

        def scalar(u, v):
            return _SAFE_SCALAR[fi](_SAFE_SCALAR[gi](alpha * u + beta * v))

        arg = jets.seed_u(u0) * alpha + jets.seed_v(v0) * beta
        jet = _SAFE_UNARY[fi](_SAFE_UNARY[gi](arg))
        if max(abs(jet.duu), abs(jet.duv), abs(jet.dvv)) < 0.1:
            continue
        checked += 1
        fd_uu = (scalar(u0 + h, v0) - 2 * scalar(u0, v0) + scalar(u0 - h, v0)) / h**2
        fd_vv = (scalar(u0, v0 + h) - 2 * scalar(u0, v0) + scalar(u0, v0 - h)) / h**2
        fd_uv = (
            scalar(u0 + h, v0 + h)
            - scalar(u0 + h, v0 - h)
            - scalar(u0 - h, v0 + h)
            + scalar(u0 - h, v0 - h)
        ) / (4 * h**2)
        for ad, fd in ((jet.duu, fd_uu), (jet.duv, fd_uv), (jet.dvv, fd_vv)):
            if abs(ad) >= 0.1:
                assert abs(fd - ad) / abs(ad) < 1e-4
