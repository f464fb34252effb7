"""The float point frame and both connections against an independent
numpy construction, bit for bit, and the connection arrays against their
six-float tuples.

The reference below builds the tangent vectors as arrays from the same
jet, the minors with ``np.cross``, and g, g^-1, h and the coefficients
as arrays with elementwise products; it never calls a matrix product,
whose rounding depends on the BLAS kernel.  Values are compared by ``repr`` (see
test_kernel.py for why NaNs cannot be compared more finely).
"""

import math

import numpy as np
import pytest

import rk4ref
from genexpr import random_expr
from isogeo import catalog
from isogeo import connection as con
from isogeo import geodesic as geo
from isogeo import surface as srf
from isogeo.errors import IsoGeoError, LightlikePoint, NotAdmissible
from isogeo.expr import Binary, Var
from isogeo.isotropy import SpaceKind, Vec3
from isogeo.rng import SplitMix64

I3 = SpaceKind.SIMPLY_ISOTROPIC
IP3 = SpaceKind.PSEUDO_ISOTROPIC


def bits(values):
    return [repr(float(x)) for x in values]


@np.errstate(all="ignore")  # numpy gives inf and nan where floats would raise
def reference(patch, u, v, tol=1e-9):
    j = patch.jet_kernel(u, v)
    # rows x, y, z; columns val, du, dv, duu, duv, dvv
    jet = np.array([j[0:6], j[6:12], j[12:18]])
    x1, x2, x11, x12, x22 = (jet[:, k] for k in range(1, 6))
    swapped = bool(np.cross(x1, x2)[2] < 0.0)
    if swapped:
        x1, x2, x11, x22 = x2, x1, x22, x11
    m23, m31, m12 = np.cross(x1, x2)
    # m12 is judged against the lengths of the top views only
    scale = 1.0 + math.hypot(float(x1[0]), float(x1[1])) * math.hypot(float(x2[0]), float(x2[1]))
    if abs(m12) <= srf.ADMISSIBILITY_RTOL * scale:
        raise NotAdmissible(u, v, float(m12))

    sig = 1.0 if patch.kind is I3 else -1.0
    top = np.array([x1[:2], x2[:2]])
    prod = top[:, None, :] * top[None, :, :]  # [i, j, c]
    g = prod[:, :, 0] + sig * prod[:, :, 1]
    det_g = sig * (m12 * m12)  # the Lagrange identity
    g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det_g

    a = m23 / m12
    b = (m31 if patch.kind is I3 else -m31) / m12
    xi = np.array([a, b, 0.5 * (1.0 - (a * a + sig * (b * b)))])
    n_bg = np.array([a, b, 1.0]) * np.array([1.0, sig, 1.0])
    second = np.array([[x11, x12], [x12, x22]])  # [i, j, component]
    terms = second * n_bg
    h = terms[:, :, 0] + terms[:, :, 1] + terms[:, :, 2]

    # Levi-Civita: top-view solve by Cramer's rule, [i, j, k]
    top2 = second[:, :, :2]
    gamma = np.stack(
        [
            (top2[..., 0] * x2[1] - top2[..., 1] * x2[0]) / m12,
            (x1[0] * top2[..., 1] - x1[1] * top2[..., 0]) / m12,
        ],
        axis=-1,
    )
    denom = xi[0] * xi[0] + sig * (xi[1] * xi[1]) + xi[2]
    if abs(denom) <= con.LIGHTLIKE_HARD_TOL:
        coeffs = "lightlike"
    else:
        rho = h / denom
        terms = g_inv * np.array([x1[2], x2[2]])  # [k, l]
        correction = terms[:, 0] + terms[:, 1]  # g^{kl} (x_l)_z
        xi_c = gamma + correction[None, None, :] * rho[:, :, None]
        coeffs = [bits(arr.ravel()) for arr in (gamma, xi_c, rho)] + [bits((denom,))]

    k = (h[0, 0] * h[1, 1] - h[0, 1] ** 2) / det_g
    h_mean = (g[0, 0] * h[1, 1] - 2.0 * g[0, 1] * h[0, 1] + g[1, 1] * h[0, 0]) / (2.0 * det_g)
    disc = h_mean * h_mean - k
    if disc > tol:
        label = srf.CurvatureClass.DIAGONALIZABLE
    elif disc < -tol:
        label = srf.CurvatureClass.COMPLEX_PRINCIPAL
    elif np.max(np.abs(h - h_mean * g)) <= tol * max(1.0, float(np.max(np.abs(g)))):
        label = srf.CurvatureClass.UMBILIC
    else:
        label = srf.CurvatureClass.NON_DIAGONALIZABLE_REAL
    # the principal curvatures H +- sqrt(disc) where real and distinct, H at
    # an umbilic (kappa1, kappa2 and the umbilic factor)
    kappas = [None] * 3
    if label is srf.CurvatureClass.DIAGONALIZABLE:
        kappas[:2] = h_mean + math.sqrt(disc), h_mean - math.sqrt(disc)
    elif label is srf.CurvatureClass.UMBILIC:
        kappas = [h_mean] * 3
    return {
        "swapped": swapped,
        "minors": bits((m12, m23, m31)),
        "g": bits(g.ravel()),
        "g_inv": bits(g_inv.ravel()),
        "det_g": bits((det_g,)),
        "h": bits(h.ravel()),
        "xi": bits(xi),
        "curvature": bits((k, h_mean, disc)) + [label],
        "kappas": [x if x is None else repr(float(x)) for x in kappas],
        "coeffs": coeffs,
    }


def from_frame(patch, u, v):
    f = srf.frame_at(patch, u, v)
    rep = srf.curvatures_of_frame(f)
    try:
        c = con.coeffs_of_frame(f)
        arrays = (c.gamma, c.xi_coeffs, c.rho)
        coeffs = [bits(arr.ravel()) for arr in arrays] + [bits((c.denom,))]
    except LightlikePoint:
        coeffs = "lightlike"
    return {
        "swapped": f.swapped,
        "minors": bits((f.m12, f.m23, f.m31)),
        "g": bits((f.g11, f.g12, f.g12, f.g22)),
        "g_inv": bits(f.g_inv.ravel()),
        "det_g": bits((f.det_g,)),
        "h": bits((f.h11, f.h12, f.h12, f.h22)),
        "xi": bits(f.xi.as_tuple()),
        "curvature": bits((rep.K, rep.H, rep.discriminant)) + [rep.label],
        "kappas": [x if x is None else repr(x) for x in (rep.kappa1, rep.kappa2, rep.umbilic_factor)],
        "coeffs": coeffs,
    }


def outcome(fn, patch, u, v):
    try:
        return fn(patch, u, v)
    except NotAdmissible as err:
        return str(err)


def random_patches(seed, count):
    """Parametric patches x = e1 + s, y = e2 + t with (s, t) = (u, v) or
    (v, u), so that both orientations are common, and the graph of the
    third component, in both spaces.  Products of random factors give
    the mixed partials that single-variable expressions lack."""
    rng = SplitMix64(seed)
    for n in range(count):
        kind = I3 if n % 2 == 0 else IP3
        s, t = (Var("u"), Var("v")) if rng.random() < 0.5 else (Var("v"), Var("u"))
        term = lambda: Binary("*", random_expr(rng, 2), random_expr(rng, 2))
        x = Binary("+", term(), s)
        y = Binary("+", term(), t)
        z = Binary("+", term(), random_expr(rng, 3))
        yield srf.parametric_patch(kind, x, y, z, (-1.5, 1.5, -1.5, 1.5))
        yield srf.graph_patch(kind, z, (-1.5, 1.5, -1.5, 1.5))


def test_float_frame_matches_numpy_reference_on_random_patches():
    rng = SplitMix64(20261018)
    seen = {"swapped": 0, "plain": 0, "inadmissible": 0}
    for patch in random_patches(5, 150):
        for _ in range(4):
            u, v = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            want = outcome(reference, patch, u, v)
            got = outcome(from_frame, patch, u, v)
            assert got == want, (patch, u, v)
            # the arrays of the frame are its scalars
            if isinstance(got, dict):
                seen["swapped" if got["swapped"] else "plain"] += 1
                f = srf.frame_at(patch, u, v)
                assert bits(f.g.ravel()) == got["g"] and bits(f.h.ravel()) == got["h"]
            else:
                seen["inadmissible"] += 1
    # both orientations occur in earnest
    assert seen["swapped"] >= 100 and seen["plain"] >= 300, seen


@pytest.mark.parametrize(
    "name,kind,params",
    [
        ("parabolic_sphere", I3, {"p": 2.0}),  # umbilic
        ("parabolic_sphere", IP3, {"p": -1.5}),
        ("plane", IP3, {"a": 0.3, "b": -0.2, "c": 0.7}),  # umbilic, h = 0
        ("ruled_nondiag", IP3, {"b": 2.0}),  # non-diagonalizable
        ("helicoid", IP3, {"c": 1.0}),  # complex principal
        ("minimal_harmonic", I3, {"f": "exp(u) * sin(v)"}),
    ],
)
def test_float_frame_matches_numpy_reference_on_catalog(name, kind, params):
    patch = catalog.make(name, kind, params)
    rng = SplitMix64(3)
    u0, u1, v0, v1 = patch.domain
    labels = set()
    for _ in range(40):
        u, v = rng.uniform(u0, u1), rng.uniform(v0, v1)
        want = outcome(reference, patch, u, v)
        assert outcome(from_frame, patch, u, v) == want, (u, v)
        if isinstance(want, dict):
            labels.add(want["curvature"][-1])
    assert len(labels) == 1, labels  # each entry has one class everywhere


@pytest.mark.parametrize("kind", [I3, IP3])
@pytest.mark.parametrize(
    "eps,label",
    [(1e-6, srf.CurvatureClass.NON_DIAGONALIZABLE_REAL), (1e-12, srf.CurvatureClass.UMBILIC)],
)
def test_umbilic_test_matches_reference(kind, eps, label):
    # at the origin g = diag(1, +/-1) and h = g + eps [[0, 1], [1, 0]], so
    # the discriminant is within tolerance and only h - H g decides
    pm = "+" if kind is I3 else "-"
    patch = srf.graph_patch(kind, f"(u^2 {pm} v^2)/2 + {eps!r}*u*v", (-1, 1, -1, 1))
    got = from_frame(patch, 0.0, 0.0)
    assert got == reference(patch, 0.0, 0.0)
    assert got["curvature"][-1] is label


@pytest.mark.parametrize("kind, sign", [(I3, 1.0), (IP3, -1.0)])
@pytest.mark.parametrize("eps", [3e-9, 1e-9])
def test_det_g_is_exact_where_the_gram_determinant_cancels(kind, sign, eps):
    # x1 and x2 are nearly parallel, so in the simply isotropic space
    # g11 g22 - g12^2 cancels: at (0.3, 0.2) it gives -8.9e-16 for
    # eps = 3e-9 (negative, so K was +1.1e15) and 0 for eps = 1e-9 (an
    # inadmissible point), where det g = m12^2 ~ 1e-17
    patch = srf.parametric_patch(kind, "u + v", f"u + (1 + {eps!r})*v", "u*v", (-1, 1, -1, 1))
    assert outcome(from_frame, patch, 0.3, 0.2) == outcome(reference, patch, 0.3, 0.2)
    f = srf.frame_at(patch, 0.3, 0.2)
    assert f.m12 == (1 + eps) - 1.0
    assert f.det_g == sign * (f.m12 * f.m12)
    # h = [[0, 1], [1, 0]] exactly, so K = -1/det g: -1/m12^2 in I3, the
    # Hessian of z = uv carried to top-view coordinates
    assert srf.curvatures_of_frame(f).K == -1.0 / f.det_g
    if kind is I3:
        assert f.g11 * f.g22 - f.g12 * f.g12 <= 0.0 < f.det_g


def test_frame_arrays_are_read_only():
    f = srf.frame_at(catalog.make("helicoid", IP3, {"c": 1.0}), 2.0, 0.3)
    for arr in (f.g, f.g_inv, f.h, f.a_mat):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert f.m13 == -f.m31
    assert f.n_h.as_tuple() == (f.xi.x, f.xi.y, 1.0)


def _coefficient_points():
    rng = SplitMix64(11)
    for patch in random_patches(8, 40):
        for _ in range(3):
            u, v = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            try:
                yield con.coeffs_at(patch, u, v)
            except IsoGeoError:
                continue


def test_coefficient_arrays_equal_their_tuples_and_are_symmetric():
    count = 0
    for c in _coefficient_points():
        count += 1
        order = ((0, 0), (0, 1), (1, 1))
        for arr, six in ((c.gamma, c.gamma6), (c.xi_coeffs, c.xi6)):
            assert arr.shape == (2, 2, 2)
            assert bits(arr[i, j, k] for i, j in order for k in (0, 1)) == bits(six)
            assert bits(arr[0, 1]) == bits(arr[1, 0])
        assert bits(c.rho[i, j] for i, j in order) == bits(c.rho3)
        assert bits(c.rho[0, 1:]) == bits(c.rho[1, :1])
        assert bits(rk4ref.gamma6_of_frame(c.frame)) == bits(c.gamma6)
        for arr in (c.gamma, c.xi_coeffs, c.rho):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
    assert count >= 100


def test_rk4_path_is_python_floats():
    patch = catalog.make("helicoid", IP3, {"c": 0.6})
    for gkind in geo.GeodesicKind:
        trace = geo.integrate(patch, gkind, 2.0, 0.1, 0.3, -0.25, 0.2, 1e-2)
        assert trace.completed and len(trace.samples) == 21
        for smp in trace.samples:
            values = (smp.t, smp.u, smp.v, smp.du, smp.dv) + smp.position.as_tuple()
            assert all(type(x) is float for x in values), (gkind, smp)
        assert all(type(x) is float for x in trace.residuals["parallel"])


def test_frame_scalars_are_python_floats():
    patch = catalog.make("revolution", IP3, {"z": "log(u)"})
    f = srf.frame_at(patch, 1.7, 0.4)
    scalars = [f.m12, f.m23, f.m31, f.g11, f.g12, f.g22, f.det_g, f.h11, f.h12, f.h22]
    for vec in (f.position, f.x1, f.x2, f.x11, f.x12, f.x22, f.xi):
        scalars += vec.as_tuple()
    rep = srf.curvatures_of_frame(f)
    scalars += [rep.K, rep.H, rep.discriminant]
    c = con.coeffs_of_frame(f)
    scalars += list(c.gamma6) + list(c.xi6) + list(c.rho3) + [c.denom]
    assert all(type(x) is float for x in scalars)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on the per-point path")


def test_per_point_path_builds_no_ndarray(monkeypatch):
    # every ndarray the package builds goes through its modules' np name
    monkeypatch.setattr(srf, "np", _NoNumpy())
    monkeypatch.setattr(con, "np", _NoNumpy())
    patch = catalog.make("helicoid", IP3, {"c": 0.6})
    for u, v in ((2.0, 0.1), (1.1, -0.4)):
        srf.curvatures_of_frame(srf.frame_at(patch, u, v))
    for gkind in geo.GeodesicKind:
        trace = geo.integrate(patch, gkind, 2.0, 0.1, 0.3, -0.25, 0.1, 1e-2)
        assert trace.completed


@pytest.mark.parametrize("kind", [I3, IP3])
@pytest.mark.parametrize("swapped", [False, True])
def test_vector_properties_are_the_stored_floats(kind, swapped):
    x, y = "u + 0.1*v^2", "v - 0.2*u*v"
    if swapped:  # m12 < 0, so the frame exchanges u and v
        x, y = y, x
    patch = srf.parametric_patch(kind, x, y, "u^3*v + cos(u*v)", (0.1, 1.0, 0.1, 1.0))
    f = srf.frame_at(patch, 0.4, 0.7)
    assert f.swapped is swapped
    jet = patch.jet_kernel(0.4, 0.7)  # (val, du, dv, duu, duv, dvv) of x, y, z

    def partial(i):
        return tuple(jet[6 * c + i] for c in range(3))

    d1, d2, d11, d22 = (2, 1, 5, 3) if swapped else (1, 2, 3, 5)
    expected = {
        "position": ("p", partial(0)),
        "x1": ("x1", partial(d1)),
        "x2": ("x2", partial(d2)),
        "x11": ("x11", partial(d11)),
        "x12": ("x12", partial(4)),
        "x22": ("x22", partial(d22)),
        "xi": ("xi", (f.m23 / f.m12, (1.0 if kind is I3 else -1.0) * f.m31 / f.m12, f.xi_z)),
    }
    for name, (prefix, floats) in expected.items():
        vec = getattr(f, name)
        assert type(vec) is Vec3
        stored = tuple(getattr(f, f"{prefix}_{c}") for c in "xyz")
        assert vec.as_tuple() == stored == floats, name
    assert f.n_h.as_tuple() == (f.xi_x, f.xi_y, 1.0)
