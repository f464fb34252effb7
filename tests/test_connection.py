import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorref
from fdstencil import codazzi, curvature_tensor, gauss_form, stencil_derivatives
from genexpr import random_expr
from isogeo import catalog, cli
from isogeo import connection as con
from isogeo import surface as srf
from isogeo import verify
from isogeo.errors import IsoGeoError, LightlikePoint
from isogeo.expr import Binary, Var
from isogeo.isotropy import SpaceKind
from isogeo.rng import SplitMix64

I3 = SpaceKind.SIMPLY_ISOTROPIC
IP3 = SpaceKind.PSEUDO_ISOTROPIC


def catalog_patches():
    return [
        catalog.make("parabolic_sphere", I3, {"p": 2.0}),
        catalog.make("parabolic_sphere", IP3, {"p": 1.5}),
        catalog.make("plane", I3, {"a": 0.3, "b": -0.2, "c": 0.7}),
        catalog.make("ruled_nondiag", IP3, {"b": 2.0}),
        catalog.make("helicoid", IP3, {"c": 1.0}),
        catalog.make("revolution", IP3, {"z": "log(u)"}),
    ]


def _interior_points(patch, rng, n, margin=0.05):
    u0, u1, v0, v1 = patch.domain
    mu, mv = margin * (u1 - u0), margin * (v1 - v0)
    out = []
    while len(out) < n:
        u = rng.uniform(u0 + mu, u1 - mu)
        v = rng.uniform(v0 + mv, v1 - mv)
        try:
            c = con.coeffs_at(patch, u, v)
        except Exception:
            continue
        if abs(c.denom) < 0.05:
            continue
        out.append((u, v))
    return out


def test_plane_has_trivial_connections():
    plane = catalog.make("plane", I3, {"a": 0.5, "b": -1.0, "c": 2.0})
    c = con.coeffs_at(plane, 0.7, -0.9)
    assert np.all(c.gamma == 0.0)
    assert np.all(c.xi_coeffs == 0.0)
    assert np.all(c.rho == 0.0)


def test_sphere_apex_coefficients():
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    c = con.coeffs_at(sphere, 0.0, 0.0)
    assert np.all(c.gamma == 0.0)
    assert abs(c.denom - 0.5) < 1e-15
    assert np.allclose(c.rho, np.eye(2), atol=1e-15)
    assert np.max(np.abs(c.xi_coeffs)) < 1e-15
    assert not c.unreliable


def _xi_by_direct_solve(patch, u, v):
    """Independent route: solve x_ij = Xi_ij^k x_k + rho_ij xi as a 3x3
    linear system per index pair."""
    f = srf.frame_at(patch, u, v)
    basis = np.array(
        [f.x1.as_tuple(), f.x2.as_tuple(), f.xi.as_tuple()]
    ).T  # columns x1, x2, xi
    xi_coeffs = np.zeros((2, 2, 2))
    rho = np.zeros((2, 2))
    for (i, j), vec in (((0, 0), f.x11), ((0, 1), f.x12), ((1, 1), f.x22)):
        sol = np.linalg.solve(basis, np.array(vec.as_tuple()))
        xi_coeffs[i, j, 0] = xi_coeffs[j, i, 0] = sol[0]
        xi_coeffs[i, j, 1] = xi_coeffs[j, i, 1] = sol[1]
        rho[i, j] = rho[j, i] = sol[2]
    return xi_coeffs, rho


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relative_coefficients_match_direct_decomposition(seed):
    # the Gamma + g^{kl} x_l_z rho correction must agree with solving the
    # three-vector decomposition directly
    rng = SplitMix64(seed)
    for patch in catalog_patches():
        for u, v in _interior_points(patch, rng, 5):
            c = con.coeffs_at(patch, u, v)
            xi_direct, rho_direct = _xi_by_direct_solve(patch, u, v)
            scale = 1.0 + np.max(np.abs(xi_direct))
            assert np.max(np.abs(c.xi_coeffs - xi_direct)) < 1e-10 * scale
            assert np.max(np.abs(c.rho - rho_direct)) < 1e-10 * (1 + np.max(np.abs(rho_direct)))


def test_both_decompositions_reassemble():
    rng = SplitMix64(42)
    for patch in catalog_patches():
        for u, v in _interior_points(patch, rng, 8):
            c = con.coeffs_at(patch, u, v)
            err_lc, err_rel = tensorref.reassemble_second_derivatives(c)
            assert err_lc < 1e-10
            assert err_rel < 1e-10
            # rho * denom reproduces h
            assert np.max(np.abs(c.rho * c.denom - c.frame.h)) < 1e-10
            if patch.kind is I3:
                assert c.denom > 0.0  # never singular in the simply isotropic space


def test_rho_times_denom_is_h_on_graphs():
    patch = srf.graph_patch(IP3, "0.2*u^3 - 0.1*u*v^2", (-2, 2, -2, 2))
    c = con.coeffs_at(patch, 0.4, -0.8)
    assert np.max(np.abs(c.rho * c.denom - c.frame.h)) < 1e-12


def test_flatness_across_catalog():
    rng = SplitMix64(7)
    for patch in catalog_patches():
        for u, v in _interior_points(patch, rng, 6):
            sample = con.curvature_tensors_at(patch, u, v)
            assert float(np.max(np.abs(sample.r_lc))) <= 1e-6


def test_sphere_apex_lowered_tensor():
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    sample = con.curvature_tensors_at(sphere, 0.0, 0.0)
    assert abs(sample.r_lowered[1, 0, 0, 1] - 0.5) < 1e-6
    # antisymmetry in the last index pair is structural
    assert np.max(np.abs(sample.r_rel + np.swapaxes(sample.r_rel, 2, 3))) < 1e-12


def test_egregium_examples():
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    res = con.egregium_check(sphere, 0.0, 0.0)
    assert abs(res.k_extrinsic - 0.25) < 1e-12
    assert res.rel_err <= 1e-5

    hel = catalog.make("helicoid", IP3, {"c": 1.0})
    res = con.egregium_check(hel, 2.0, 0.3)
    assert abs(res.k_extrinsic - 0.0625) < 1e-12
    assert abs(res.k_from_tensor - 0.0625) < 1e-5 * 0.0625 * 10
    assert res.rel_err <= 1e-5

    plane = catalog.make("plane", I3, {"a": 0.1, "b": 0.2, "c": 0.3})
    res = con.egregium_check(plane, 0.5, 0.5)
    assert res.k_extrinsic == 0.0 and res.abs_err < 1e-12


def test_codazzi_residuals():
    plane = catalog.make("plane", IP3, {"a": 0.1, "b": 0.2, "c": 0.3})
    res = con.codazzi_residual(plane, 0.5, -0.5)
    assert res.relative == 0.0 and res.levi_civita == 0.0

    rng = SplitMix64(13)
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    for u, v in _interior_points(sphere, rng, 5):
        res = con.codazzi_residual(sphere, u, v)
        assert res.relative <= 1e-6
        assert res.levi_civita <= 1e-6

    poly = srf.graph_patch(I3, "0.3*u^3 - 0.2*u*v^2 + 0.1*v^3", (-2, 2, -2, 2))
    for u, v in _interior_points(poly, rng, 5):
        res = con.codazzi_residual(poly, u, v)
        assert res.relative <= 1e-5
        assert res.levi_civita <= 1e-5


def test_gauss_equation_rhs_forms_agree():
    rng = SplitMix64(17)
    for patch in catalog_patches():
        for u, v in _interior_points(patch, rng, 4):
            rhs1, rhs2, rhs3 = con.gauss_equation_rhs(patch, u, v)
            assert float(np.max(np.abs(rhs1 - rhs2))) <= 1e-8
            assert float(np.max(np.abs(rhs2 - rhs3))) <= 1e-8
            assert float(np.max(np.abs(rhs1 - rhs3))) <= 1e-8


def test_gauss_equation_fd_tensor_matches_rhs():
    hel = catalog.make("helicoid", IP3, {"c": 1.0})
    sample = con.curvature_tensors_at(hel, 2.0, 0.3)
    rhs1, _, _ = con.gauss_equation_rhs(hel, 2.0, 0.3)
    assert float(np.max(np.abs(sample.r_rel - rhs1))) < 1e-6


def test_fd_convergence_is_fourth_order():
    # the reference stencil's error against the exact partials is pure
    # truncation at these steps: halving h divides it by 2^4 = 16
    wave = catalog.make(
        "minimal_wave", IP3, {"f": "0.3*u^3 - 0.2*u", "g": "0.25*u^3 + 0.1*u^2"}
    )
    u, v = 1.3364082314029715, 1.4921403754248024
    exact = con.coeff_derivatives_at(wave, u, v).d_rho
    coarse = np.abs(stencil_derivatives(wave, u, v, 2e-3)[3] - exact).max()
    fine = np.abs(stencil_derivatives(wave, u, v, 1e-3)[3] - exact).max()
    assert coarse > 0.0 and fine > 0.0
    assert 12.0 <= coarse / fine <= 20.0


def _guarded_points(patch, rng, n):
    """Interior points where the relative suites would sample."""
    sampled = verify._sample(patch, n, rng, 0.0, verify.RELATIVE_DENOM_GUARD)
    return [(c.frame.u, c.frame.v) for c, _, _ in sampled]


@pytest.mark.parametrize("seed", [8, 9])
def test_exact_partials_match_the_reference_stencil(seed):
    rng = SplitMix64(seed)
    patches = list(verify.verification_patches()) + [
        srf.parametric_patch(I3, "v", "u", "(v^2 + u^2)/4 - 1 + u^3/9", (-4, 4, -4, 4)),  # m12 = -1
    ]
    for patch in patches:
        for u, v in _guarded_points(patch, rng, 4):
            exact = con.coeff_derivatives_at(patch, u, v)
            center, *reference = stencil_derivatives(patch, u, v, 2.5e-5)
            assert exact.coeffs == center
            got = (exact.d_gamma, exact.d_xi, exact.d_rho, exact.d_h)
            for name, a, b in zip(("gamma", "xi", "rho", "h"), got, reference):
                assert a.shape == b.shape
                scale = 1.0 + float(np.abs(b).max())
                assert float(np.abs(a - b).max()) <= 1e-8 * scale, (patch.name, name, u, v)


@pytest.mark.parametrize("seed", [10, 11])
def test_einsum_forms_match_index_loops(seed):
    # tensors, Codazzi residuals and Gauss-equation forms against plain
    # loops over the same exact partials, and the relative tensor against
    # loops over the reference stencil's partials
    rng = SplitMix64(seed)
    for patch in verify.verification_patches():
        for u, v in _guarded_points(patch, rng, 3):
            d = con.coeff_derivatives_at(patch, u, v)
            c = d.coeffs
            sample = con.curvature_tensors_at(patch, u, v)
            for got, want in (
                (sample.r_lc, curvature_tensor(c.gamma, d.d_gamma)),
                (sample.r_rel, curvature_tensor(c.xi_coeffs, d.d_xi)),
            ):
                assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
            fd_rel = curvature_tensor(c.xi_coeffs, stencil_derivatives(patch, u, v, 2.5e-5)[2])
            assert np.abs(sample.r_rel - fd_rel).max() <= 1e-8 * (1.0 + np.abs(fd_rel).max())

            cod = con.codazzi_residual(patch, u, v)
            assert abs(cod.relative - codazzi(d.d_rho, c.xi_coeffs, c.rho)) <= 1e-13
            assert abs(cod.levi_civita - codazzi(d.d_h, c.gamma, c.frame.h)) <= 1e-13

            h, rho, g_inv = c.frame.h, c.rho, c.frame.g_inv
            expected = (
                gauss_form(rho, h, g_inv, 1.0),
                gauss_form(h, h, g_inv, 1.0 / c.denom),
                gauss_form(rho, rho, g_inv, c.denom),
            )
            for got, want in zip(con.gauss_equation_rhs(patch, u, v), expected):
                assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())


def test_tensors_exact_beside_a_fold():
    # m12 = 2u changes sign at u = 0; a stencil of step 1e-3 straddled the
    # fold here, the exact partials need only the point itself
    folded = srf.parametric_patch(I3, "u^2", "v", "u*v", (-1.0, 1.0, -1.0, 1.0))
    u, v = 5e-4, 0.3
    sample = con.curvature_tensors_at(folded, u, v)
    scale = float(np.abs(sample.coeffs.gamma).max()) ** 2
    assert float(np.abs(sample.r_lc).max()) <= 1e-14 * scale
    res = con.egregium_check(folded, u, v)
    assert res.rel_err <= 1e-12
    cod = con.codazzi_residual(folded, u, v)
    assert cod.relative <= 1e-14 * scale and cod.levi_civita <= 1e-14 * scale


@pytest.mark.parametrize("seed", [5, 6])
def test_denom_gradient_matches_central_differences(seed):
    rng = SplitMix64(seed)
    patches = catalog_patches() + [
        srf.parametric_patch(IP3, "v", "u", "u^3/3 + u*v^2", (-2, 2, -2, 2)),  # m12 = -1
    ]
    h = 1e-5
    for patch in patches:
        for u, v in _interior_points(patch, rng, 4):
            gu, gv = con.denom_gradient_of_frame(srf.frame_at(patch, u, v))
            fd_u = (tensorref.denom_at(patch, u + h, v) - tensorref.denom_at(patch, u - h, v)) / (2 * h)
            fd_v = (tensorref.denom_at(patch, u, v + h) - tensorref.denom_at(patch, u, v - h)) / (2 * h)
            scale = 1.0 + abs(fd_u) + abs(fd_v)
            assert abs(gu - fd_u) <= 1e-7 * scale and abs(gv - fd_v) <= 1e-7 * scale, patch.name


@pytest.mark.parametrize("kind", [I3, IP3])
@pytest.mark.parametrize("graph, reverse", [(True, False), (False, False), (False, True)])
def test_denom_gradient_matches_the_minor_derivatives(kind, graph, reverse):
    # the gradient read off the Gauss map's derivative against the
    # derivatives of the minors, on random surfaces
    rng = SplitMix64(41)
    frames = negative = 0
    for seed in range(40):
        patch = _random_patch(1000 + seed, kind, graph, reverse)
        for _ in range(30):
            try:
                f = srf.frame_at(patch, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            except IsoGeoError:
                continue
            if not all(map(np.isfinite, f[3:])):
                continue
            got, want = con.denom_gradient_of_frame(f), tensorref.denom_gradient_by_minors(f)
            err = max(abs(g - w) / (1.0 + np.hypot(*want)) for g, w in zip(got, want))
            assert err <= 1e-12, (patch.name, f.u, f.v, got, want)
            frames += 1
            negative += f.m12 < 0.0
    # m12 < 0 on more than half the frames of the reversed charts only
    assert frames >= 300 and (negative > frames // 2 if reverse else negative < frames // 2)


def test_lightlike_point_raises():
    hel = catalog.make("helicoid", IP3, {"c": 1.0})
    with pytest.raises(LightlikePoint):
        con.coeffs_at(hel, 1.0, 0.3)  # denom = 0 exactly at u = c


def test_near_lightlike_flagged_unreliable():
    hel = catalog.make("helicoid", IP3, {"c": 1.0})
    c = con.coeffs_at(hel, 1.0 + 5e-7, 0.3)
    assert c.unreliable
    far = con.coeffs_at(hel, 2.0, 0.3)
    assert not far.unreliable


def test_tensors_exact_at_domain_edge():
    # the partials come from the jet at the point, so the border of the
    # domain needs no room for stencil points
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    u_edge, v_edge = sphere.domain[1], sphere.domain[2]
    res = con.egregium_check(sphere, u_edge, v_edge)
    assert abs(res.k_extrinsic - 0.25) < 1e-12 and res.rel_err <= 1e-12
    assert float(np.max(np.abs(con.curvature_tensors_at(sphere, u_edge, v_edge).r_lc))) == 0.0


def test_swapped_parameterization_keeps_identities():
    # reversed parameter roles make m12 = -1; all identities hold in the
    # caller's order with the minor's own sign
    swapped = srf.parametric_patch(I3, "v", "u", "(v^2 + u^2)/4 - 1", (-4, 4, -4, 4))
    assert srf.frame_at(swapped, 1.0, -0.7).m12 == -1.0
    res = con.egregium_check(swapped, 1.0, -0.7)
    assert abs(res.k_extrinsic - 0.25) < 1e-12
    assert res.rel_err <= 1e-5
    sample = con.curvature_tensors_at(swapped, 1.0, -0.7)
    assert float(np.max(np.abs(sample.r_lc))) <= 1e-6
    cod = con.codazzi_residual(swapped, 1.0, -0.7)
    assert cod.relative <= 1e-6 and cod.levi_civita <= 1e-6
    c = con.coeffs_at(swapped, 1.0, -0.7)
    err_lc, err_rel = tensorref.reassemble_second_derivatives(c)
    assert err_lc < 1e-10 and err_rel < 1e-10


def test_codazzi_suite_builds_one_frame_per_point(monkeypatch):
    patch = catalog.make("helicoid", IP3, {"c": 1.0})
    u, v = 1.3, 0.2
    # the order-3 jet's first 18 floats are the order-2 jet's, so the
    # batch's Gauss sides are those of the frame from ``frame_at``
    expected = [arr.tolist() for arr in tensorref.gauss_equation_rhs(patch, u, v)]
    d = con.coeff_derivatives_at(patch, u, v)
    assert [arr.tolist() for arr in con.gauss_rhs(d)] == expected
    assert _bits(con.codazzi_residuals(d)) == _bits(tensorref.codazzi_residual(patch, u, v))

    def second_frame(*args):
        raise AssertionError("the codazzi suite built a second frame")

    monkeypatch.setattr(con, "frame_at", second_frame)
    checks = verify.suite_codazzi([patch], 6, 7, verify.DEFAULT_FD_STEP)
    assert [c.points for c in checks] == [6, 6, 6]
    assert all(c.passed for c in checks)


def test_a_tensor_draw_evaluates_its_coefficients_and_gradient_once(monkeypatch):
    # a guarded draw is one record: the guard reads its denom and gradient,
    # and the batch reads the record, so neither is evaluated twice
    patch = catalog.make("helicoid", IP3, {"c": 1.0})
    counts = dict.fromkeys(("coeffs_of_frame", "denom_gradient_of_frame"), 0)
    for name in counts:
        def counted(f, name=name, real=getattr(con, name)):
            counts[name] += 1
            return real(f)

        for module in (con, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    verify.suite_codazzi([patch], 30, 3, verify.DEFAULT_FD_STEP)
    assert counts["coeffs_of_frame"] == counts["denom_gradient_of_frame"] > 0


# ---------------------------------------------------------------- batches
# The batched tensor code against tests/tensorref.py, its per-point
# reference, point by point and bit for bit.


def _per_point(patch, points):
    """The per-point reference at each point, or the first error's type
    and message, as a loop over the points raises it."""
    try:
        return [tensorref.coeff_derivatives_at(patch, u, v) for u, v in points]
    except IsoGeoError as err:
        return type(err), str(err)


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def _bits(result):
    """A result record's fields, in order, by ``repr``: the per-point code
    gives numpy floats where the batch gives Python floats of the same bits."""
    return [repr(float(getattr(result, name))) for name in result._fields]


@np.errstate(all="ignore")  # where the reference overflows, so does the batch
def _assert_batch_matches_reference(patch, points):
    expected = _per_point(patch, points)
    try:
        b = con.coeff_derivatives(con.sample_at(patch, u, v) for u, v in points)
    except IsoGeoError as err:
        assert (type(err), str(err)) == expected
        return None
    assert not isinstance(expected, tuple), expected
    rhs, gauss = con.gauss_rhs(b), con.gauss_residuals(b)
    r_lc, r_rel = con._curvature_tensor(b.gamma, b.d_gamma), con._curvature_tensor(b.xi, b.d_xi)
    flat, cod, egregium = con.flatness_residuals(b), con.codazzi_residuals(b), list(con.egregium_checks(b))
    for i, d in enumerate(expected):
        c = d.coeffs
        assert repr(b.coeffs[i]) == repr(c)
        for got, want in zip((b.d_gamma, b.d_xi, b.d_rho, b.d_h), d[1:]):
            assert _same(got[i], want)
        assert _same(r_lc[i], tensorref.curvature_tensor(c.gamma, d.d_gamma))
        assert repr(float(flat[i])) == repr(float(np.abs(r_lc[i]).max()))
        assert _same(r_rel[i], tensorref.curvature_tensor(c.xi_coeffs, d.d_xi))
        assert _bits(egregium[i]) == _bits(tensorref.egregium_check(patch, *points[i]))
        want = tensorref.codazzi_of_derivatives(d)
        assert repr(float(cod.relative[i])) == repr(want.relative)
        assert repr(float(cod.levi_civita[i])) == repr(want.levi_civita)
        sides = tensorref.gauss_rhs_of_coeffs(c)
        for got, want in zip(rhs, sides):
            assert _same(got[i], want)
        pairs = ((0, 1), (1, 2), (0, 2))
        assert repr(gauss[i].tolist()) == repr([float(np.abs(sides[x] - sides[y]).max()) for x, y in pairs])
    # the one-point entry points are the batch of one
    u, v = points[0]
    got, want = con.curvature_tensors_at(patch, u, v), tensorref.curvature_tensors_at(patch, u, v)
    assert all(_same(getattr(got, k), getattr(want, k)) for k in ("r_lc", "r_rel", "r_lowered"))
    assert _bits(con.egregium_check(patch, u, v)) == _bits(tensorref.egregium_check(patch, u, v))
    assert _bits(con.codazzi_residual(patch, u, v)) == _bits(tensorref.codazzi_residual(patch, u, v))
    pairs = zip(con.gauss_equation_rhs(patch, u, v), tensorref.gauss_equation_rhs(patch, u, v))
    assert all(_same(got, want) for got, want in pairs)
    return b


def _random_patch(seed, kind, graph, reverse):
    """``tests/genexpr.py`` surfaces as in test_frame.py: the graph of a
    random expression, or x = e1 + s, y = e2 + t with (s, t) = (v, u)
    when ``reverse``, which makes m12 < 0 at most points."""
    rng = SplitMix64(seed)
    term = lambda: Binary("*", random_expr(rng, 2), random_expr(rng, 2))
    z = Binary("+", term(), random_expr(rng, 3))
    if graph:
        return srf.graph_patch(kind, z, (-1.5, 1.5, -1.5, 1.5))
    s, t = (Var("v"), Var("u")) if reverse else (Var("u"), Var("v"))
    x, y = Binary("+", term(), s), Binary("+", term(), t)
    return srf.parametric_patch(kind, x, y, z, (-1.5, 1.5, -1.5, 1.5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**64 - 1), st.sampled_from([I3, IP3]), st.booleans(), st.booleans(),
    st.integers(0, 2**64 - 1), st.sampled_from([1, 2]),
)
def test_batch_matches_the_per_point_reference(seed, kind, graph, swap, point_seed, size):
    patch = _random_patch(seed, kind, graph, swap)
    rng = SplitMix64(point_seed)
    points = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(size)]
    _assert_batch_matches_reference(patch, points)


def test_batch_one_past_the_block_matches_the_per_point_reference():
    rng = SplitMix64(23)
    n = verify.POINT_BLOCK + 1
    cases = [(patch, _guarded_points(patch, rng, n)) for patch in verify.verification_patches()]
    for patch in (_random_patch(3, IP3, False, True), _random_patch(4, I3, True, False)):
        points = []
        while len(points) < n:
            u, v = rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)
            if not isinstance(_per_point(patch, [(u, v)]), tuple):
                points.append((u, v))
        cases.append((patch, points))
    negative = 0
    for patch, points in cases:
        b = _assert_batch_matches_reference(patch, points)
        assert b.d_xi.shape == (n, 2, 2, 2, 2)
        negative += sum(c.frame.m12 < 0.0 for c in b.coeffs)
    assert negative > 0


@pytest.mark.parametrize(
    "patch, bad",
    [
        (catalog.make("helicoid", IP3, {"c": 1.0}), (1.0, 0.3)),  # lightlike: denom = 0 at u = c
        (srf.graph_patch(I3, "u*v + sqrt(v)", (-1.0, 1.0, -1.0, 1.0)), (0.4, -0.5)),  # undefined
        (srf.parametric_patch(I3, "u^2", "v", "u*v", (-1.0, 1.0, -1.0, 1.0)), (0.0, 0.3)),  # fold
    ],
    ids=["lightlike", "undefined", "inadmissible"],
)
def test_batch_raises_as_the_per_point_loop(patch, bad):
    good = [(0.6, 0.2), (0.9, 0.7)]
    for points in ([bad], [good[0], bad], [good[0], bad, good[1], bad]):
        expected = _per_point(patch, points)
        assert isinstance(expected, tuple), expected
        assert _assert_batch_matches_reference(patch, points) is None
    assert _assert_batch_matches_reference(patch, good) is not None


def _point_values(b):
    """Every value of the batch ``b`` at each point, by ``repr``: the
    coefficients and their partials, and every identity function."""
    relative, levi_civita = con.codazzi_residuals(b)
    arrays = [
        *(getattr(b, name) for name in b._fields[1:]), con.flatness_residuals(b), relative, levi_civita,
        con.gauss_residuals(b), *con.gauss_rhs(b),
    ]
    egregium = list(con.egregium_checks(b))
    return [
        [repr(c), *(repr(a[i].tolist()) for a in arrays), _bits(egregium[i])] for i, c in enumerate(b.coeffs)
    ]


def test_a_block_of_many_patches_gives_each_point_its_own_patch_s_bits():
    # the records of the catalog and of two random surfaces, one of them
    # with m12 < 0 at most points, interleaved so that no two neighbours
    # share a patch
    rng = SplitMix64(31)
    patches = [*verify.verification_patches(), _random_patch(3, IP3, False, True), _random_patch(4, I3, True, False)]
    n = 5
    records = [list(verify._sample(p, n, rng, 0.0, verify.BASIC_DENOM_GUARD)) for p in patches]
    order = [(p, i) for i in range(n) for p in range(len(patches))]
    mixed = con.coeff_derivatives([records[p][i] for p, i in order])
    assert {c.frame.kind for c in mixed.coeffs} == {I3, IP3}
    assert any(c.frame.m12 < 0.0 for c in mixed.coeffs)
    own = [_point_values(con.coeff_derivatives(r)) for r in records]
    for got, (p, i) in zip(_point_values(mixed), order):
        assert got == own[p][i]


def _count_einsums(monkeypatch):
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append([a.shape for a in args if isinstance(a, np.ndarray)])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return calls


# numpy.einsum calls per block of the codazzi suite: seven for the partials,
# two Codazzi residuals and three Gauss-equation sides
EINSUMS_PER_BLOCK = 12


def test_codazzi_suite_calls_einsum_a_fixed_number_of_times_per_block(monkeypatch, capsys):
    # the blocks run over all patches: 9 and 90 samples are one block of 9
    # and 90 records, 1000 samples four blocks of the 9 * 112 records
    calls = _count_einsums(monkeypatch)
    n_patches = len(verify.verification_patches())
    for samples in (9, 90, 1000):
        calls.clear()
        argv = ["verify", "--all-catalog", "--suite", "codazzi", "--samples", str(samples), "--seed", "3"]
        assert cli.main(argv) == cli.EXIT_OK
        points = verify._per_patch(samples, n_patches) * n_patches
        assert len(calls) == EINSUMS_PER_BLOCK * math.ceil(points / verify.POINT_BLOCK)
    capsys.readouterr()


def test_a_nan_residual_is_the_sticky_worst_of_its_fold():
    patch = verify.verification_patches()[:1]
    nan = math.nan

    def fold(values):
        # the k-th record of each block gives values[k]
        return verify._fold(patch, len(values), SplitMix64(0), 2e-4, None, lambda block: [
            (("x", values[k]),) for k in range(len(block))
        ])["x"]

    (worst, count), = fold([nan, nan, nan])
    assert math.isnan(worst) and count == 3
    # a NaN before or after finite residuals stays the worst
    for values in ([nan, 1.0, 2.0], [1.0, 2.0, nan], [1.0, nan, 0.5]):
        (worst, count), = fold(values)
        assert math.isnan(worst) and count == 3
    assert fold([1.0, 3.0, 2.0]) == [[3.0, 3]]
    assert not verify._check("x", "p", 3, nan, 1.0).passed


def test_a_nan_residual_fails_its_suite(monkeypatch):
    real = con.flatness_residuals

    def nan_at_the_third_record(b):  # of the first patch: 100 samples are one block
        residuals = real(b).copy()
        residuals[2] = np.nan
        return residuals

    monkeypatch.setattr(verify, "flatness_residuals", nan_at_the_third_record)
    report = verify.run_verify(None, ["flatness"], 100, 7)
    assert report["overall"] == "fail"
    failed = [c for c in report["checks"] if not c["pass"]]
    assert len(failed) == 1 and math.isnan(failed[0]["max_residual"])


@pytest.mark.parametrize("seed", [0, 7])
def test_reports_do_not_depend_on_where_a_block_cuts_a_patch(monkeypatch, capsys, seed):
    # 12 records per patch: one block of all 108, blocks of 7 that end
    # inside patches, and a batch of one per record
    reports = []
    for block in (256, 7, 1):
        monkeypatch.setattr(verify, "POINT_BLOCK", block)
        for suite in ("flatness", "egregium", "codazzi"):
            argv = ["verify", "--all-catalog", "--suite", suite, "--samples", "100", "--seed", str(seed)]
            reports.append((cli.main(argv), capsys.readouterr().out))
    assert reports[:3] == reports[3:6] == reports[6:]


def _umbilic_patches():
    """The catalog, a user surface for each informational finding, and a
    sphere named as the helicoid, which expects no umbilic record."""
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    square = (-1.0, 1.0, -1.0, 1.0)
    return [
        *verify.verification_patches(),
        srf.graph_patch(I3, "u^2 + v^2", square),  # totally umbilical
        srf.graph_patch(I3, "u*v", square),  # not totally umbilical
        srf.graph_patch(I3, "u^2 + v^2 + (u + abs(u))^3", square),  # umbilic where u < 0
        srf.SurfacePatch(sphere.kind, sphere.x_expr, sphere.y_expr, sphere.z_expr, sphere.domain, "helicoid"),
    ]


@pytest.mark.parametrize("seed", [0, 7])
def test_each_check_is_the_worst_of_its_own_patch_s_records(seed):
    # the reference evaluates each patch's records as a batch of their own,
    # or one record at a time, drawn in the same order from the same
    # generator
    patches, fd_step = verify.verification_patches(), verify.DEFAULT_FD_STEP
    n = verify._per_patch(100, len(patches))

    def batches(border, guard):
        rng = SplitMix64(seed)
        return [(p, con.coeff_derivatives(list(verify._sample(p, n, rng, border, guard)))) for p in patches]

    expected = {"flatness": [], "egregium": [], "codazzi": [], "umbilic": [], "minimal": []}
    for p, b in batches(2.0 * fd_step, verify.BASIC_DENOM_GUARD):
        expected["flatness"].append(("flatness", verify._label(p), n, max(0.0, *con.flatness_residuals(b).tolist())))
    for p, b in batches(0.5 * fd_step, verify.RELATIVE_DENOM_GUARD):
        results = list(con.egregium_checks(b))
        for name, errs in (
            ("egregium", [r.rel_err for r in results if abs(r.k_extrinsic) > 1e-6]),
            ("egregium_flat", [r.abs_err for r in results if not abs(r.k_extrinsic) > 1e-6]),
        ):
            if errs:
                expected["egregium"].append((name, verify._label(p), len(errs), max(0.0, *errs)))
        relative, levi_civita = con.codazzi_residuals(b)
        for name, values in (
            ("codazzi", relative), ("codazzi_lc", levi_civita), ("gauss_rhs", con.gauss_residuals(b).ravel()),
        ):
            expected["codazzi"].append((name, verify._label(p), n, max(0.0, *values.tolist())))
    umbilic_patches = _umbilic_patches()
    m = verify._per_patch(100, len(umbilic_patches))
    rng = SplitMix64(seed)
    findings = {m: "totally umbilical", 0: "not totally umbilical"}
    for p in umbilic_patches:
        umbilic = 0
        for report in verify._sample(p, m, rng, 2.0 * fd_step, None):  # curvatures_of_frame's
            umbilic += report.label is srf.CurvatureClass.UMBILIC
        want = verify.UMBILIC_EXPECTATION.get(p.name)
        if want is None:
            name, mismatches = f"umbilic({findings.get(umbilic, 'mixed')})", 0
        elif want:
            name, mismatches = "umbilic(expected)", m - umbilic
        else:
            name, mismatches = "umbilic(expected-negative)", umbilic
        expected["umbilic"].append((name, verify._label(p), m, float(mismatches)))
    rng = SplitMix64(seed)
    waves = [{"f": verify._random_cubic(rng), "g": verify._random_cubic(rng)} for _ in range(verify.RANDOM_WAVES)]
    targets = [p for p in patches if p.name.startswith("minimal")]
    targets += [catalog.make("minimal_wave", IP3, w) for w in waves]
    k = verify._per_patch(100, verify.RANDOM_WAVES)
    for idx, p in enumerate(targets):
        worst = 0.0
        for report in verify._sample(p, k, rng, 2.0 * fd_step, None):
            worst = max(worst, abs(report.H))
        expected["minimal"].append(("minimal", f"{verify._label(p)}#{idx}", k, worst))
    got = {}
    for suite, want in expected.items():
        got[suite] = getattr(verify, f"suite_{suite}")(
            umbilic_patches if suite == "umbilic" else patches, 100, seed, fd_step
        )
        assert [(c.name, c.surface, c.points, repr(c.max_residual)) for c in got[suite]] == [
            (name, label, points, repr(worst)) for name, label, points, worst in want
        ]
    assert [(c.name, c.max_residual, c.passed) for c in got["umbilic"][-4:]] == [
        ("umbilic(totally umbilical)", 0.0, True),
        ("umbilic(not totally umbilical)", 0.0, True),
        ("umbilic(mixed)", 0.0, True),
        # every record of the sphere named as the helicoid is a mismatch
        ("umbilic(expected-negative)", float(m), False),
    ]


def test_batches_stay_within_the_block(monkeypatch):
    patch = catalog.make("helicoid", IP3, {"c": 1.0})
    suites = (verify.suite_flatness, verify.suite_egregium, verify.suite_codazzi)
    samples = verify.POINT_BLOCK + 40
    plain = [suite([patch], samples, 5, verify.DEFAULT_FD_STEP) for suite in suites]
    calls = _count_einsums(monkeypatch)
    sizes = []
    batch = verify.coeff_derivatives

    def recorded(sampled):
        b = batch(sampled)
        sizes.extend(len(a) for a in b)
        return b

    monkeypatch.setattr(verify, "coeff_derivatives", recorded)
    for block in (verify.POINT_BLOCK, 7):
        monkeypatch.setattr(verify, "POINT_BLOCK", block)
        calls.clear()
        sizes.clear()
        # the reports do not depend on the block size
        assert [suite([patch], samples, 5, verify.DEFAULT_FD_STEP) for suite in suites] == plain
        assert max(sizes) == block
        assert max(shape[0] for shapes in calls for shape in shapes) == block


def test_suite_memory_does_not_grow_with_the_samples(monkeypatch):
    # the sampler streams the records of every patch into the blocks, so
    # no list of the points is built; a small block keeps the traced runs
    # short, and its blocks end inside patches
    patches = [
        catalog.make("helicoid", IP3, {"c": 1.0}),
        catalog.make("parabolic_sphere", I3, {"p": 2.0}),
        catalog.make("ruled_nondiag", IP3, {"b": 2.0}),
    ]
    monkeypatch.setattr(verify, "POINT_BLOCK", 32)
    verify.suite_flatness(patches, 50, 5, verify.DEFAULT_FD_STEP)  # compiles the kernels
    peaks = []
    for samples in (200, 2000):
        tracemalloc.start()
        verify.suite_flatness(patches, samples, 5, verify.DEFAULT_FD_STEP)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]
