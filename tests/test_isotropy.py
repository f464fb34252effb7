import math

import pytest

from isogeo import isotropy as iso
from isogeo.isotropy import Motion, SpaceKind, Vec3
from isogeo.rng import SplitMix64

I3 = SpaceKind.SIMPLY_ISOTROPIC
IP3 = SpaceKind.PSEUDO_ISOTROPIC


def test_degenerate_products():
    u, v = Vec3(1, 2, 7), Vec3(3, 4, 9)
    assert iso.dot(I3, u, v) == 11.0
    assert iso.dot(IP3, u, v) == -5.0
    assert iso.dot(I3, iso.E3, iso.E3) == 0.0
    assert iso.dot(IP3, iso.E3, iso.E3) == 0.0


def test_norms_top_view_codistance():
    assert abs(iso.norm(IP3, Vec3(3, 2, 5)) - math.sqrt(5.0)) < 1e-15
    assert iso.top_view(Vec3(1, 2, 3)) == Vec3(1, 2, 0)
    assert iso.codistance(Vec3(1, 2, 3), Vec3(1, 2, 10)) == 7.0


def test_cross_products():
    assert iso.cross_euclid(Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)) == iso.E3
    assert iso.cross_lorentz(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)
    f1, f2 = 0.7, -1.3
    assert iso.cross_lorentz(Vec3(1, 0, f1), Vec3(0, 1, f2)) == Vec3(-f1, f2, 1.0)


def test_lorentz_cross_vanishes_only_on_dependence():
    rng = SplitMix64(11)
    for _ in range(50):
        u = Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        k = rng.uniform(-3, 3)
        assert iso.norm_euclid(iso.cross_lorentz(u, u.scaled(k))) < 1e-12


def test_motion_identity():
    m = Motion(I3)
    p = Vec3(1.3, -0.2, 4.0)
    assert iso.apply_motion(m, p) == p


def test_quarter_turn():
    m = Motion(I3, phi=math.pi / 2)
    moved = iso.apply_motion(m, Vec3(1, 0, 0))
    assert abs(moved.x) < 1e-15 and abs(moved.y - 1.0) < 1e-15 and moved.z == 0.0


def test_isotropic_direction_fixed_by_linear_part():
    m = Motion(IP3, phi=0.83)
    assert iso.apply_motion(m, Vec3(0, 0, 1)) == Vec3(0, 0, 1)
    m2 = Motion(IP3, a=1, b=2, c=3, c1=0.4, c2=-0.5, phi=0.83)
    p, q = Vec3(2, 1, 0), Vec3(2, 1, 5)
    assert iso.norm_euclid(iso.apply_motion(m2, q) - iso.apply_motion(m2, p) - Vec3(0, 0, 5)) < 1e-14


def _random_motion(rng: SplitMix64, kind: SpaceKind) -> Motion:
    return Motion(
        kind,
        a=rng.uniform(-2, 2),
        b=rng.uniform(-2, 2),
        c=rng.uniform(-2, 2),
        c1=rng.uniform(-1, 1),
        c2=rng.uniform(-1, 1),
        phi=rng.uniform(-1, 1),
    )


def _random_vec(rng: SplitMix64) -> Vec3:
    return Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))


@pytest.mark.parametrize("kind", [I3, IP3])
def test_motions_preserve_degenerate_product(kind):
    rng = SplitMix64(22)
    for _ in range(100):
        m = _random_motion(rng, kind)
        p, q, r = _random_vec(rng), _random_vec(rng), _random_vec(rng)
        before = iso.dot(kind, q - p, r - p)
        mp, mq, mr = (iso.apply_motion(m, x) for x in (p, q, r))
        after = iso.dot(kind, mq - mp, mr - mp)
        assert abs(after - before) < 1e-12 * (1.0 + abs(before))


@pytest.mark.parametrize("kind", [I3, IP3])
def test_codistance_invariant_on_isotropic_segments(kind):
    rng = SplitMix64(33)
    for _ in range(50):
        m = _random_motion(rng, kind)
        p = _random_vec(rng)
        q = Vec3(p.x, p.y, p.z + rng.uniform(-4, 4))
        assert (
            abs(
                iso.codistance(iso.apply_motion(m, p), iso.apply_motion(m, q))
                - iso.codistance(p, q)
            )
            < 1e-12
        )


@pytest.mark.parametrize("kind", [I3, IP3])
def test_top_view_depends_only_on_top_view(kind):
    rng = SplitMix64(44)
    for _ in range(50):
        m = _random_motion(rng, kind)
        p = _random_vec(rng)
        q = Vec3(p.x, p.y, p.z + 2.5)  # same top view
        assert iso.top_view(iso.apply_motion(m, p)) == iso.top_view(iso.apply_motion(m, q))


@pytest.mark.parametrize("kind", [I3, IP3])
def test_composition_closure(kind):
    rng = SplitMix64(55)
    for _ in range(50):
        m1 = _random_motion(rng, kind)
        m2 = _random_motion(rng, kind)
        composed = iso.compose(m2, m1)
        assert composed.kind is kind
        p = _random_vec(rng)
        direct = iso.apply_motion(m2, iso.apply_motion(m1, p))
        via = iso.apply_motion(composed, p)
        assert iso.norm_euclid(direct - via) < 1e-12


def test_compose_rejects_mixed_kinds():
    with pytest.raises(ValueError):
        iso.compose(Motion(I3), Motion(IP3))
