import math

import numpy as np
import pytest

from genexpr import random_patches
from jet2ref import eval_jet2
from isogeo import catalog
from isogeo import expr as ex
from isogeo import isotropy as iso
from isogeo import surface as srf
from isogeo import verify
from isogeo.errors import IsoGeoError, LightlikeDirection, NotAdmissible, WrongSpace
from isogeo.isotropy import Motion, SpaceKind, Vec3
from isogeo.rng import SplitMix64
from test_kernel import CATALOG_CASES, CATALOG_PARAMS

I3 = SpaceKind.SIMPLY_ISOTROPIC
IP3 = SpaceKind.PSEUDO_ISOTROPIC


def sphere_i3(p=2.0):
    return catalog.make("parabolic_sphere", I3, {"p": p})


def test_sphere_apex_frame():
    f = srf.frame_at(sphere_i3(), 0.0, 0.0)
    assert f.xi == Vec3(0.0, 0.0, 0.5)
    assert np.allclose(f.g, np.eye(2))
    assert np.allclose(f.h, 0.5 * np.eye(2))
    assert f.n_h == Vec3(0.0, 0.0, 1.0)
    assert f.m12 == 1.0


def test_sphere_offcenter_gauss_map():
    f = srf.frame_at(sphere_i3(), 2.0, 0.0)
    assert abs(f.xi.x + 1.0) < 1e-15
    assert abs(f.xi.y) < 1e-15
    assert abs(f.xi.z) < 1e-15  # lands on the unit parabolic sphere rim


def test_pseudo_graph_gauss_map():
    patch = srf.graph_patch(IP3, "(u^2 - v^2)/4", (-5, 5, -5, 5))
    f = srf.frame_at(patch, 0.0, 2.0)
    assert (f.m23, f.m13, f.m12) == (0.0, -1.0, 1.0)
    assert f.xi == Vec3(0.0, -1.0, 1.0)


@pytest.mark.parametrize(
    "make_patch",
    [
        lambda: sphere_i3(),
        lambda: catalog.make("parabolic_sphere", IP3, {"p": 1.5}),
        lambda: catalog.make("helicoid", IP3, {"c": 1.0}),
        lambda: catalog.make("revolution", IP3, {"z": "log(u)"}),
        lambda: catalog.make("ruled_nondiag", IP3, {"b": 2.0}),
    ],
)
def test_frame_invariants(make_patch):
    patch = make_patch()
    rng = SplitMix64(77)
    u0, u1, v0, v1 = patch.domain
    for _ in range(25):
        u, v = rng.uniform(u0, u1), rng.uniform(v0, v1)
        try:
            f = srf.frame_at(patch, u, v)
        except NotAdmissible:
            continue
        # det g = +/- m12^2
        sign = 1.0 if patch.kind is I3 else -1.0
        assert abs(f.det_g - sign * f.m12**2) < 1e-9 * (1.0 + f.m12**2)
        # xi and n_h share their top view
        assert iso.top_view(f.xi) == iso.top_view(f.n_h)
        # xi lies on the unit sphere of parabolic type
        sq = f.xi.x**2 + f.xi.y**2 if patch.kind is I3 else f.xi.x**2 - f.xi.y**2
        assert abs(f.xi.z - (0.5 - 0.5 * sq)) < 1e-10
        # h_ij = -A_i^k g_kj
        assert np.max(np.abs(f.h + f.a_mat @ f.g)) < 1e-10 * (1 + np.max(np.abs(f.h)))
        # basis-independence certificate (linear independence of x1, x2, xi)
        if patch.kind is I3:
            lhs = iso.dot_euclid(iso.cross_euclid(f.x1, f.x2), f.xi)
            rhs = (f.m23**2 + f.m31**2 + f.m12**2) / (2.0 * f.m12)
            assert rhs > 0.0
        else:
            lhs = iso.dot_lorentz(iso.cross_lorentz(f.x1, f.x2), f.xi)
            rhs = (f.m23**2 - f.m13**2 + f.m12**2) / (2.0 * f.m12)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


@pytest.mark.parametrize("kind", [I3, IP3])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_parabolic_sphere_curvatures(kind, p):
    patch = catalog.make("parabolic_sphere", kind, {"p": p})
    for u in (-3.0, 0.0, 2.5):
        for v in (-1.0, 0.5):
            rep = srf.curvatures_at(patch, u, v)
            assert abs(rep.K - 1.0 / p**2) < 1e-10
            assert abs(rep.H - 1.0 / p) < 1e-10
            assert rep.label is srf.CurvatureClass.UMBILIC
            assert abs(rep.umbilic_factor - 1.0 / p) < 1e-10


def test_helicoid_curvatures():
    patch = catalog.make("helicoid", IP3, {"c": 1.0})
    rep = srf.curvatures_at(patch, 2.0, 0.4)
    assert abs(rep.K - 0.0625) < 1e-10
    assert abs(rep.H) < 1e-12
    assert rep.label is srf.CurvatureClass.COMPLEX_PRINCIPAL


def test_ruled_curvatures_and_shape_operator():
    patch = catalog.make("ruled_nondiag", IP3, {"b": 2.0})
    f = srf.frame_at(patch, 0.7, -0.3)
    rep = srf.curvatures_at(patch, 0.7, -0.3)
    assert abs(rep.K - 0.25) < 1e-10
    assert abs(rep.H + 0.5) < 1e-10
    assert abs(rep.discriminant) < 1e-9
    assert rep.label is srf.CurvatureClass.NON_DIAGONALIZABLE_REAL
    assert np.max(np.abs(f.shape_operator() - np.array([[-0.5, 1.0], [0.0, -0.5]]))) < 1e-10


def test_revolution_curvatures():
    patch = catalog.make("revolution", IP3, {"z": "log(u)"})
    rep = srf.curvatures_at(patch, 1.0, 0.3)
    assert abs(rep.K + 1.0) < 1e-10
    assert abs(rep.H) < 1e-12
    assert rep.label is srf.CurvatureClass.DIAGONALIZABLE
    assert abs(rep.kappa1 - 1.0) < 1e-8 and abs(rep.kappa2 + 1.0) < 1e-8


def test_diagonalizable_kappas_recombine():
    patch = catalog.make("revolution", IP3, {"z": "log(u) + 0.1*u^2"})
    rng = SplitMix64(88)
    for _ in range(20):
        u = rng.uniform(0.6, 3.5)
        v = rng.uniform(-1.0, 1.0)
        rep = srf.curvatures_at(patch, u, v)
        if rep.label is srf.CurvatureClass.DIAGONALIZABLE:
            assert abs(rep.kappa1 * rep.kappa2 - rep.K) < 1e-10 * (1 + abs(rep.K))
            assert abs(rep.kappa1 + rep.kappa2 - 2 * rep.H) < 1e-10 * (1 + abs(rep.H))


def _poly_graph(kind, rng):
    terms = []
    for du, dv in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)):
        c = rng.uniform(-0.8, 0.8)
        terms.append(f"{c!r}*u^{du}*v^{dv}")
    return srf.graph_patch(kind, " + ".join(terms), (-2, 2, -2, 2))


def test_graph_closed_forms_random_polynomials():
    rng = SplitMix64(99)
    for _ in range(15):
        for kind in (I3, IP3):
            patch = _poly_graph(kind, rng)
            u, v = rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8)
            jet = eval_jet2(patch.z_expr, u, v)
            rep = srf.curvatures_at(patch, u, v)
            if kind is I3:
                k_ref = jet.duu * jet.dvv - jet.duv**2
                h_ref = 0.5 * (jet.duu + jet.dvv)
            else:
                k_ref = jet.duv**2 - jet.duu * jet.dvv
                h_ref = 0.5 * (jet.duu - jet.dvv)
            assert abs(rep.K - k_ref) < 1e-10 * (1 + abs(k_ref))
            assert abs(rep.H - h_ref) < 1e-10 * (1 + abs(h_ref))


def test_normal_curvature_examples():
    t = 0.8
    assert abs(srf.normal_curvature(sphere_i3(), 1.0, -0.5, (math.cos(t), math.sin(t))) - 0.5) < 1e-12
    plane = catalog.make("plane", I3, {"a": 0.0, "b": 0.0, "c": 0.0})
    assert srf.normal_curvature(plane, 0.3, 0.4, (0.0, 1.0)) == 0.0
    pseudo = srf.graph_patch(IP3, "(u^2 - v^2)/4", (-5, 5, -5, 5))
    assert abs(srf.normal_curvature(pseudo, 0.0, 0.0, (1.0, 0.0)) - 0.5) < 1e-12


def test_normal_curvature_guards():
    pseudo = srf.graph_patch(IP3, "(u^2 - v^2)/4", (-5, 5, -5, 5))
    with pytest.raises(LightlikeDirection):
        srf.normal_curvature(pseudo, 0.0, 0.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        srf.normal_curvature(sphere_i3(), 0.0, 0.0, (2.0, 0.0))


@pytest.mark.parametrize("kind", [I3, IP3])
def test_cylindrical_sphere_not_admissible(kind):
    patch = catalog.make("cylindrical_sphere", kind, {"r": 1.5})
    report = srf.is_admissible(patch, 12, 12)
    assert not report.admissible_everywhere
    assert len(report.inadmissible) == report.points
    assert report.min_abs_m12 < 1e-12
    with pytest.raises(NotAdmissible):
        srf.frame_at(patch, *patch.domain[::2])


def test_graphs_admissible_and_helicoid_timelike():
    report = srf.is_admissible(sphere_i3(), 10, 10)
    assert report.admissible_everywhere and abs(report.min_abs_m12 - 1.0) < 1e-15
    hel = catalog.make("helicoid", IP3, {"c": 1.0})
    rep = srf.is_admissible(hel, 10, 10)
    assert rep.admissible_everywhere
    assert rep.timelike_everywhere is True
    assert srf.is_admissible(sphere_i3(), 4, 4).timelike_everywhere is None


def test_lightlike_points_detection():
    # locus u^2 - v^2 = -4 crosses this window
    patch = srf.graph_patch(IP3, "(u^2 - v^2)/4", (-1.0, 1.0, 1.8, 2.4))
    points = srf.lightlike_points(patch, 15, 15)
    assert points
    for u, v in points:
        assert abs(srf.lightlike_condition(patch, u, v)) < 1e-6


def test_lightlike_points_absent():
    flat = catalog.make("plane", IP3, {"a": 0.0, "b": 0.0, "c": 0.0})
    assert srf.lightlike_points(flat, 8, 8) == []
    tilted = srf.graph_patch(IP3, "u", (-2, 2, -2, 2))
    assert srf.lightlike_points(tilted, 8, 8) == []


def test_lightlike_points_wrong_space():
    with pytest.raises(WrongSpace):
        srf.lightlike_points(sphere_i3(), 5, 5)


def bits(values):
    return [repr(x) for x in values]


_EXCHANGE = {"u": ex.Var("v"), "v": ex.Var("u")}


def reversed_chart(p):
    """q(u, v) = p(v, u): the same surface with the parameters exchanged."""
    u0, u1, v0, v1 = p.domain
    x, y, z = (ex.substitute(e, _EXCHANGE) for e in (p.x_expr, p.y_expr, p.z_expr))
    return srf.parametric_patch(p.kind, x, y, z, (v0, v1, u0, u1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IsoGeoError as err:
        return type(err).__name__


def test_chart_reversal_is_an_exact_invariant():
    # exchanging u and v negates m12, m23 and m31 alike and exchanges the
    # indices of g and h, so the Gauss map, K and the class do not move; H
    # sums the terms of its numerator in the other order.  The jets are
    # mirror images bit for bit, the mixed third partials too: the chain
    # rule forms a_v a_v a_u as the mirror of a_u a_u a_v
    rng = SplitMix64(35)
    patches = [catalog.make(name, kind, CATALOG_PARAMS[name]) for name, kind in (c.values for c in CATALOG_CASES)]
    frames = 0
    for p in patches + random_patches(3000, 150):
        q = reversed_chart(p)
        u0, u1, v0, v1 = p.domain
        for _ in range(25):
            u, v = rng.uniform(u0, u1), rng.uniform(v0, v1)
            jet3 = [ex.compile_jet((s.x_expr, s.y_expr, s.z_expr), 3) for s in (p, q)]
            jp, jq = _outcome(jet3[0], u, v), _outcome(jet3[1], v, u)
            if isinstance(jp, str):
                assert jq == jp, (p, u, v)
                continue
            for c in range(3):
                val, du, dv, duu, duv, dvv = jp[6 * c:6 * c + 6]
                uuu, uuv, uvv, vvv = jp[18 + 4 * c:22 + 4 * c]
                assert bits(jq[6 * c:6 * c + 6]) == bits((val, dv, du, dvv, duv, duu)), (p, u, v)
                assert bits(jq[18 + 4 * c:22 + 4 * c]) == bits((vvv, uvv, uuv, uuu)), (p, u, v)
            fp, fq = _outcome(srf.frame_at, p, u, v), _outcome(srf.frame_at, q, v, u)
            if isinstance(fp, str):
                assert fq == fp, (p, u, v)
                continue
            assert fq.m12 == -fp.m12 or math.isnan(fp.m12) and math.isnan(fq.m12), (p, u, v)
            frames += 1
            cp, cq = _outcome(srf.curvatures_at, p, u, v), _outcome(srf.curvatures_at, q, v, u)
            if isinstance(cp, str):
                assert cq == cp, (p, u, v)
                continue
            assert (fq.xi_x, fq.xi_y, fq.xi_z) == (fp.xi_x, fp.xi_y, fp.xi_z), (p, u, v)
            assert (cq.K, cq.label) == (cp.K, cp.label), (p, u, v)
            # within a few roundings of the largest term of H's numerator
            terms = abs(fp.g11 * fp.h22) + abs(2.0 * fp.g12 * fp.h12) + abs(fp.g22 * fp.h11)
            assert abs(cq.H - cp.H) <= 8.0 * 2.0**-52 * terms / abs(2.0 * fp.det_g), (p, u, v)
        ap, aq = _outcome(srf.is_admissible, p), _outcome(srf.is_admissible, q)
        if isinstance(ap, str):
            assert aq == ap, p
        else:
            assert repr(aq.min_abs_m12) == repr(ap.min_abs_m12), p
            assert sorted((v, u) for u, v in aq.inadmissible) == sorted(ap.inadmissible), p
    assert frames >= 2500
    # the catalog sphere's reversed chart has m12 = -1 everywhere
    assert srf.frame_at(reversed_chart(sphere_i3()), 1.0, -0.7).m12 == -1.0


def _random_motion(rng, kind):
    return Motion(
        kind,
        a=rng.uniform(-2, 2),
        b=rng.uniform(-2, 2),
        c=rng.uniform(-2, 2),
        c1=rng.uniform(-1, 1),
        c2=rng.uniform(-1, 1),
        phi=rng.uniform(-1, 1),
    )


@pytest.mark.parametrize(
    "kind, builder",
    [
        (I3, lambda: sphere_i3()),
        (I3, lambda: srf.graph_patch(I3, "0.2*u^3 - 0.4*u*v + sin(v)", (-2, 2, -2, 2))),
        (IP3, lambda: catalog.make("helicoid", IP3, {"c": 1.0})),
        (IP3, lambda: srf.graph_patch(IP3, "0.3*u^2*v + cos(u)", (-2, 2, -2, 2))),
    ],
)
def test_rigid_motion_invariance_of_curvatures(kind, builder):
    rng = SplitMix64(kind is I3 and 123 or 321)
    patch = builder()
    u0, u1, v0, v1 = patch.domain
    for _ in range(10):
        m = _random_motion(rng, kind)
        moved = srf.transform_patch(patch, m)
        u = rng.uniform(u0 + 0.1, u1 - 0.1)
        v = rng.uniform(v0 + 0.1, v1 - 0.1)
        base = srf.curvatures_at(patch, u, v)
        image = srf.curvatures_at(moved, u, v)
        assert abs(base.K - image.K) < 1e-9 * (1 + abs(base.K))
        assert abs(base.H - image.H) < 1e-9 * (1 + abs(base.H))


def test_transform_patch_moves_positions():
    m = Motion(I3, a=1.0, b=-2.0, c=0.5, c1=0.3, c2=-0.1, phi=0.7)
    patch = sphere_i3()
    moved = srf.transform_patch(patch, m)
    p = srf.frame_at(patch, 1.2, 0.4).position
    q = srf.frame_at(moved, 1.2, 0.4).position
    assert iso.norm_euclid(q - iso.apply_motion(m, p)) < 1e-12


def test_transform_patch_wrong_space():
    with pytest.raises(WrongSpace):
        srf.transform_patch(sphere_i3(), Motion(IP3))


def test_patch_arguments_of_the_wrong_type_are_named_at_construction():
    square = (-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(TypeError, match="^kind must be a SpaceKind, got 'u\\^2\\+v\\^2'$"):
        srf.graph_patch("u^2+v^2", I3, square)
    with pytest.raises(TypeError, match="^f must be an expression or its text, got <SpaceKind"):
        srf.graph_patch(I3, I3, square)
    with pytest.raises(TypeError, match="^z must be an expression or its text, got 1.0$"):
        srf.parametric_patch(IP3, "u", ex.Var("v"), 1.0, square)
    with pytest.raises(TypeError, match="^kind must be a SpaceKind, got 'i3'$"):
        srf.parametric_patch("i3", "u", "v", "u*v", square)
    # trees and their text give the same patch
    assert srf.parametric_patch(IP3, ex.Var("u"), "v", "u*v", square) == srf.parametric_patch(IP3, "u", "v", "u*v", square)


def test_umbilic_classification_split():
    rng = SplitMix64(777)
    positives = [
        catalog.make("parabolic_sphere", I3, {"p": 0.5}),
        catalog.make("parabolic_sphere", IP3, {"p": 2.0}),
        catalog.make("plane", I3, {"a": 0.4, "b": -0.2, "c": 1.0}),
        catalog.make("plane", IP3, {"a": -0.3, "b": 0.1, "c": 0.0}),
    ]
    negatives = [
        catalog.make("helicoid", IP3, {"c": 1.0}),
        catalog.make("ruled_nondiag", IP3, {"b": 2.0}),
    ]
    for patch in positives:
        u0, u1, v0, v1 = patch.domain
        for _ in range(15):
            rep = srf.curvatures_at(patch, rng.uniform(u0, u1), rng.uniform(v0, v1))
            assert rep.label is srf.CurvatureClass.UMBILIC
    for patch in negatives:
        u0, u1, v0, v1 = patch.domain
        for _ in range(15):
            rep = srf.curvatures_at(patch, rng.uniform(u0, u1), rng.uniform(v0, v1))
            assert rep.label is not srf.CurvatureClass.UMBILIC


def test_simply_isotropic_discriminant_nonnegative():
    rng = SplitMix64(888)
    for _ in range(25):
        patch = _poly_graph(I3, rng)
        rep = srf.curvatures_at(patch, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        assert rep.discriminant >= -1e-12


def test_minimal_surfaces_have_zero_mean_curvature():
    wave = catalog.make(
        "minimal_wave", IP3, {"f": "0.4*u^3 - 0.3*u", "g": "0.2*u^3 + 0.5*u^2"}
    )
    harmonic = catalog.make("minimal_harmonic", I3, {"f": "exp(u)*sin(v)"})
    rng = SplitMix64(999)
    for _ in range(20):
        u, v = rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8)
        assert abs(srf.curvatures_at(wave, u, v).H) < 1e-10
        assert abs(srf.curvatures_at(harmonic, u, v).H) < 1e-8


def test_admissibility_is_judged_on_the_top_view():
    # m12 has no z-part, so steep z-derivatives do not make a point
    # inadmissible: at (30, 0.5), |x1| |x2| = e^30 but m12 = 1
    steep = srf.graph_patch(I3, "exp(u)", (0.0, 1000.0, 0.0, 1.0))
    assert srf.frame_at(steep, 30.0, 0.5).m12 == 1.0
    report = srf.is_admissible(srf.graph_patch(I3, "exp(u)", (0.0, 300.0, 0.0, 1.0)))
    assert report.admissible_everywhere and report.min_abs_m12 == 1.0


@pytest.mark.parametrize("kind", [I3, IP3])
def test_admissibility_is_invariant_under_an_isotropic_shear(kind):
    # z -> z + c1 x is an isotropic motion: it changes z-derivatives only
    domain = (0.0, 1e13, 0.0, 1.0)
    for f in ("u^2/2", "u^2/2 - 3e12*u"):
        frame = srf.frame_at(srf.graph_patch(kind, f, domain), 3e12, 0.5)
        assert frame.m12 == 1.0
        assert srf.is_admissible(srf.graph_patch(kind, f, domain), 4, 4).admissible_everywhere


def test_a_top_view_scale_that_would_overflow_is_still_a_number():
    # |x1_top|^2 overflows and x2 = 0: a scale of inf * 0 = nan once let
    # m12 = 0 through to a division by zero
    patch = srf.parametric_patch(I3, "1e200*u", "1e200*u", "v*0", (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(NotAdmissible):
        srf.frame_at(patch, 0.5, 0.5)
    assert not srf.is_admissible(patch, 3, 3).admissible_everywhere


def _reference_scan(s, nu, nv):
    """``is_admissible`` as a scan of its own over the reference tree walk:
    the m12 formula, the top-view scale and a Gram det g."""
    u0, u1, v0, v1 = s.domain
    min_abs, bad = math.inf, []
    timelike = True if s.kind is IP3 else None
    for u in srf.grid_values(u0, u1, nu):
        for v in srf.grid_values(v0, v1, nv):
            jx, jy, jz = (eval_jet2(e, u, v) for e in (s.x_expr, s.y_expr, s.z_expr))
            x1, x2 = Vec3(jx.du, jy.du, jz.du), Vec3(jx.dv, jy.dv, jz.dv)
            m12 = x1.x * x2.y - x1.y * x2.x
            min_abs = min(min_abs, abs(m12))
            scale = 1.0 + math.hypot(x1.x, x1.y) * math.hypot(x2.x, x2.y)
            if abs(m12) <= srf.ADMISSIBILITY_RTOL * scale:
                bad.append((u, v))
            elif s.kind is IP3:
                gram = iso.dot(IP3, x1, x1) * iso.dot(IP3, x2, x2) - iso.dot(IP3, x1, x2) ** 2
                if gram >= 0.0:
                    timelike = False
    return srf.AdmissibilityReport(not bad, min_abs, nu * nv, bad, timelike)


def _reference_lightlike_condition(s, u, v):
    """<n, n> with n = x1 x x2, Lorentzian, from the reference tree walk."""
    jx, jy, jz = (eval_jet2(e, u, v) for e in (s.x_expr, s.y_expr, s.z_expr))
    n = iso.cross_lorentz(Vec3(jx.du, jy.du, jz.du), Vec3(jx.dv, jy.dv, jz.dv))
    return iso.dot_lorentz(n, n)


def test_scans_equal_their_reference_on_the_catalog(monkeypatch):
    patches = list(verify.verification_patches())
    for kind in (I3, IP3):
        patches.append(catalog.make("cylindrical_sphere", kind, {"r": 1.5}))
        # m12 = 3e-9: admissible, with a Gram det g that cancels
        patches.append(srf.parametric_patch(kind, "u + v", "u + (1 + 3e-9) * v", "u * v", (0, 1, 0, 1)))
    for s in patches:
        for n in (7, 20):
            assert srf.is_admissible(s, n, n + 1) == _reference_scan(s, n, n + 1), s.name
    pseudo = [s for s in patches if s.kind is IP3]
    found = [srf.lightlike_points(s, n, n + 1) for s in pseudo for n in (7, 20)]
    assert any(found)
    for s in pseudo:
        for u, v in ((0.7, 0.3), (1.2, -0.4)):
            if s.contains(u, v):
                assert srf.lightlike_condition(s, u, v) == _reference_lightlike_condition(s, u, v)
    monkeypatch.setattr(srf, "lightlike_condition", _reference_lightlike_condition)
    assert found == [srf.lightlike_points(s, n, n + 1) for s in pseudo for n in (7, 20)]
