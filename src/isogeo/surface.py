"""Pointwise extrinsic geometry of admissible surface patches.

Conventions
-----------
For an immersion x(u, v) write x1, x2 for the first derivatives and
m_ij for the 2x2 minors of the Jacobian taken from coordinate columns
i and j, so that

    x1 x x2   = (m23, m31, m12)        (Euclidean product)
    x1 x1 x2  = (m23, m13, m12)        (Lorentzian product)

A point is admissible iff m12 != 0 there; the sign convention m12 > 0
is restored by swapping the roles of the two parameters, and the swap
is recorded on the frame so downstream index bookkeeping stays
consistent.  With A = m23/m12 and B = m31/m12 (simply isotropic) or
B = m13/m12 (pseudo-isotropic), the normalized normal and the Gauss
map are

    n_h = (A, B, 1)
    xi  = (A, B, (1 - (A^2 +/- B^2)) / 2)

xi lands on the unit sphere of parabolic type; it shares its top view
with n_h and differs from it only by the vertical shift that keeps
{x1, x2, xi} a basis at every admissible point.  Second-fundamental
coefficients are h_ij = <n_h, x_ij> with the background (Euclidean or
Lorentzian) product.  The shape-operator coefficient matrix ``a_mat``
follows L(x_i) = -a_mat[i, k] x_k, equivalently h = -(a_mat @ g); the
operator acting on coordinate columns is ``-a_mat.T``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from . import expr as ex
from .errors import DomainError, LightlikeDirection, NotAdmissible, WrongSpace
from .isotropy import (
    Motion,
    SpaceKind,
    Vec3,
    dot,
    norm_euclid,
)
from .jets import Jet2, Jet2Vec3

ADMISSIBILITY_RTOL = 1e-12


class _LazyNumpy:
    """Stands in for a module's ``np`` until the first array is built.

    The first attribute read imports numpy and rebinds the owning
    module's global ``np`` to it, so later reads cost what they would
    after a plain ``import numpy as np``.  Commands that compute only
    with floats never pay for the import."""

    def __init__(self, namespace: dict) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())


@dataclass(frozen=True)
class SurfacePatch:
    """Evaluatable immersion of a rectangle into one of the two spaces.

    Graph patches keep x = u and y = v identically; parametric patches
    carry arbitrary component expressions.  Builtin catalog surfaces are
    parametric patches with a name and parameter dict attached.
    """

    kind: SpaceKind
    x_expr: ex.Expr
    y_expr: ex.Expr
    z_expr: ex.Expr
    domain: tuple[float, float, float, float]  # (u0, u1, v0, v1)
    name: str = "parametric"
    params: dict = field(default_factory=dict)

    @functools.cached_property
    def jet_kernel(self):
        """``(u, v) ->`` the 18 floats (val, du, dv, duu, duv, dvv) of x, y
        and z, bit-identical to ``eval_jet2`` on each expression; compiled
        on first use and kept on this patch."""
        return ex.compile_jet((self.x_expr, self.y_expr, self.z_expr), 2)

    @functools.cached_property
    def jet3_kernel(self):
        """``(u, v) ->`` the 18 floats of ``jet_kernel``, bit for bit,
        followed by the third partials (duuu, duuv, duvv, dvvv) of x, y
        and z; compiled on first use, by the curvature-tensor code only."""
        return ex.compile_jet((self.x_expr, self.y_expr, self.z_expr), 3)

    def __getstate__(self) -> dict:
        # kernels are generated code that pickle cannot name; a copy
        # compiles its own on first use
        return {k: v for k, v in self.__dict__.items() if k not in ("jet_kernel", "jet3_kernel")}

    def evaluate(self, u: float, v: float) -> Jet2Vec3:
        r = self.jet_kernel(u, v)
        return Jet2Vec3(Jet2(*r[0:6]), Jet2(*r[6:12]), Jet2(*r[12:18]))

    def contains(self, u: float, v: float) -> bool:
        u0, u1, v0, v1 = self.domain
        return u0 <= u <= u1 and v0 <= v <= v1


def graph_patch(
    kind: SpaceKind,
    f: ex.Expr | str,
    domain: tuple[float, float, float, float],
    name: str = "graph",
    params: Optional[dict] = None,
) -> SurfacePatch:
    f_expr = ex.parse(f) if isinstance(f, str) else f
    return SurfacePatch(
        kind, ex.Var("u"), ex.Var("v"), f_expr, domain, name, params or {}
    )


def parametric_patch(
    kind: SpaceKind,
    x: ex.Expr | str,
    y: ex.Expr | str,
    z: ex.Expr | str,
    domain: tuple[float, float, float, float],
    name: str = "parametric",
    params: Optional[dict] = None,
) -> SurfacePatch:
    conv = lambda e: ex.parse(e) if isinstance(e, str) else e
    return SurfacePatch(kind, conv(x), conv(y), conv(z), domain, name, params or {})


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class PointFrame(NamedTuple):
    """Everything pointwise at one admissible point, as Python floats.

    Vectors are stored as their three components (``x1_x, x1_y, x1_z``
    for x1, and so on), in the frame's own parameter order; ``position``,
    ``x1``, ``x2``, ``x11``, ``x12``, ``x22``, ``xi`` and ``n_h`` build a
    ``Vec3`` from them on each access.  The metric and the second
    fundamental form are stored as their three independent entries (both
    are symmetric); ``g``, ``g_inv``, ``h`` and ``a_mat`` are read-only
    2x2 arrays built from them on each access.  A NamedTuple of floats
    rather than a frozen dataclass of vectors: building one is a single
    tuple allocation, which matters once per RK4 stage."""

    kind: SpaceKind
    u: float
    v: float
    swapped: bool  # parameters were exchanged to make m12 > 0
    p_x: float  # position
    p_y: float
    p_z: float
    x1_x: float  # first partials
    x1_y: float
    x1_z: float
    x2_x: float
    x2_y: float
    x2_z: float
    x11_x: float  # second partials
    x11_y: float
    x11_z: float
    x12_x: float
    x12_y: float
    x12_z: float
    x22_x: float
    x22_y: float
    x22_z: float
    m12: float
    m23: float
    m31: float
    g11: float  # induced metric
    g12: float
    g22: float
    det_g: float
    xi_x: float  # Gauss map
    xi_y: float
    xi_z: float
    h11: float  # second fundamental form
    h12: float
    h22: float

    @property
    def position(self) -> Vec3:
        return Vec3(self.p_x, self.p_y, self.p_z)

    @property
    def x1(self) -> Vec3:
        return Vec3(self.x1_x, self.x1_y, self.x1_z)

    @property
    def x2(self) -> Vec3:
        return Vec3(self.x2_x, self.x2_y, self.x2_z)

    @property
    def x11(self) -> Vec3:
        return Vec3(self.x11_x, self.x11_y, self.x11_z)

    @property
    def x12(self) -> Vec3:
        return Vec3(self.x12_x, self.x12_y, self.x12_z)

    @property
    def x22(self) -> Vec3:
        return Vec3(self.x22_x, self.x22_y, self.x22_z)

    @property
    def xi(self) -> Vec3:
        return Vec3(self.xi_x, self.xi_y, self.xi_z)

    @property
    def m13(self) -> float:
        return -self.m31

    @property
    def n_h(self) -> Vec3:
        return Vec3(self.xi_x, self.xi_y, 1.0)

    @property
    def g(self) -> np.ndarray:
        return _read_only(np.array([[self.g11, self.g12], [self.g12, self.g22]]))

    @property
    def g_inv(self) -> np.ndarray:
        adj = np.array([[self.g22, -self.g12], [-self.g12, self.g11]])
        return _read_only(adj / self.det_g)

    @property
    def h(self) -> np.ndarray:
        return _read_only(np.array([[self.h11, self.h12], [self.h12, self.h22]]))

    @property
    def a_mat(self) -> np.ndarray:
        """h = -(a_mat @ g)."""
        return _read_only(-(self.h @ self.g_inv))

    def shape_operator(self) -> np.ndarray:
        """Matrix of L on coordinate columns: (L w)^k = M[k, i] w^i."""
        return -self.a_mat.T


class CurvatureClass(Enum):
    DIAGONALIZABLE = "diagonalizable"
    NON_DIAGONALIZABLE_REAL = "non_diagonalizable_real"
    COMPLEX_PRINCIPAL = "complex_principal"
    UMBILIC = "umbilic"


@dataclass(frozen=True)
class CurvatureReport:
    K: float
    H: float
    discriminant: float  # H^2 - K
    label: CurvatureClass
    kappa1: Optional[float] = None
    kappa2: Optional[float] = None
    umbilic_factor: Optional[float] = None


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible_everywhere: bool
    min_abs_m12: float
    points: int
    inadmissible: list[tuple[float, float]]
    timelike_everywhere: Optional[bool]  # pseudo only, None in simply isotropic


def frame_at(s: SurfacePatch, u: float, v: float) -> PointFrame:
    return frame_of_jet(s.kind, u, v, s.jet_kernel(u, v))


def frame_of_jet(kind: SpaceKind, u: float, v: float, jet) -> PointFrame:
    """The frame at (u, v) from the 18 floats of ``jet_kernel`` there."""
    (
        px, xu, xv, xuu, xuv, xvv,
        py, yu, yv, yuu, yuv, yvv,
        pz, zu, zv, zuu, zuv, zvv,
    ) = jet
    swapped = False
    m12 = xu * yv - xv * yu
    if m12 < 0.0:
        xu, xv, yu, yv, zu, zv = xv, xu, yv, yu, zv, zu
        xuu, xvv, yuu, yvv, zuu, zvv = xvv, xuu, yvv, yuu, zvv, zuu
        swapped = True
        m12 = -m12

    scale = 1.0 + math.sqrt(xu * xu + yu * yu + zu * zu) * math.sqrt(
        xv * xv + yv * yv + zv * zv
    )
    if abs(m12) <= ADMISSIBILITY_RTOL * scale:
        raise NotAdmissible(u, v, m12)

    m23 = yu * zv - zu * yv
    m31 = zu * xv - xu * zv
    a = m23 / m12
    if kind is SpaceKind.SIMPLY_ISOTROPIC:
        b = m31 / m12
        g11 = xu * xu + yu * yu
        g12 = xu * xv + yu * yv
        g22 = xv * xv + yv * yv
        xi_z = 0.5 * (1.0 - (a * a + b * b))
        # h_ij = <n_h, x_ij>, Euclidean, with n_h = (a, b, 1)
        h11 = a * xuu + b * yuu + zuu
        h12 = a * xuv + b * yuv + zuv
        h22 = a * xvv + b * yvv + zvv
    else:
        b = -m31 / m12  # m13 / m12
        g11 = xu * xu - yu * yu
        g12 = xu * xv - yu * yv
        g22 = xv * xv - yv * yv
        xi_z = 0.5 * (1.0 - (a * a - b * b))
        # h_ij = <n_h, x_ij>, Lorentzian
        h11 = a * xuu - b * yuu + zuu
        h12 = a * xuv - b * yuv + zuv
        h22 = a * xvv - b * yvv + zvv
    det_g = g11 * g22 - g12 * g12
    if det_g == 0.0:
        # det g = +/- m12^2 in exact arithmetic; a zero here means m12 is
        # lost in the rounding of g, and nothing dividing by det g exists
        raise NotAdmissible(u, v, m12)

    return PointFrame(
        kind, u, v, swapped,
        px, py, pz,
        xu, yu, zu,
        xv, yv, zv,
        xuu, yuu, zuu,
        xuv, yuv, zuv,
        xvv, yvv, zvv,
        m12, m23, m31,
        g11, g12, g22, det_g,
        a, b, xi_z,
        h11, h12, h22,
    )


def curvatures_at(
    s: SurfacePatch, u: float, v: float, tol: float = 1e-9
) -> CurvatureReport:
    """Gaussian and mean curvature plus the diagonalizability trichotomy
    of the shape operator (read off the characteristic polynomial
    lambda^2 - 2H lambda + K)."""
    f = frame_at(s, u, v)
    return curvatures_of_frame(f, tol)


def gaussian_curvature(f: PointFrame) -> float:
    """K = det h / det g."""
    try:
        # libm's pow, which does not always round like h12 * h12
        h12_sq = f.h12**2
    except OverflowError:
        h12_sq = math.inf
    return (f.h11 * f.h22 - h12_sq) / f.det_g


def curvatures_of_frame(f: PointFrame, tol: float = 1e-9) -> CurvatureReport:
    g11, g12, g22, h11, h12, h22 = f.g11, f.g12, f.g22, f.h11, f.h12, f.h22
    k = gaussian_curvature(f)
    h_mean = (g11 * h22 - 2.0 * g12 * h12 + g22 * h11) / (2.0 * f.det_g)
    # NaN fails every comparison below and would land in some class;
    # xi.z = (1 - (A^2 +/- B^2)) / 2 is finite only where A and B are
    if not (math.isfinite(k) and math.isfinite(h_mean) and math.isfinite(f.xi_z)):
        raise DomainError(f"K={k!r}, H={h_mean!r} or xi not finite at ({f.u!r}, {f.v!r})")
    disc = h_mean * h_mean - k
    if disc > tol:
        root = math.sqrt(disc)
        return CurvatureReport(
            k, h_mean, disc, CurvatureClass.DIAGONALIZABLE,
            kappa1=h_mean + root, kappa2=h_mean - root,
        )
    if disc < -tol:
        return CurvatureReport(k, h_mean, disc, CurvatureClass.COMPLEX_PRINCIPAL)
    # umbilic iff h = H g up to tol, relative to the size of g; a NaN
    # entry fails every comparison and so is never umbilic
    bound = tol * max(1.0, abs(g11), abs(g12), abs(g22))
    if (
        abs(h11 - h_mean * g11) <= bound
        and abs(h12 - h_mean * g12) <= bound
        and abs(h22 - h_mean * g22) <= bound
    ):
        return CurvatureReport(
            k, h_mean, disc, CurvatureClass.UMBILIC,
            kappa1=h_mean, kappa2=h_mean, umbilic_factor=h_mean,
        )
    return CurvatureReport(k, h_mean, disc, CurvatureClass.NON_DIAGONALIZABLE_REAL)


def normal_curvature(
    s: SurfacePatch, u: float, v: float, w: tuple[float, float]
) -> float:
    """Second fundamental form on a unit tangent direction w = (w1, w2)
    given in the caller's parameter order."""
    f = frame_at(s, u, v)
    w1, w2 = (w[1], w[0]) if f.swapped else (w[0], w[1])
    wv = np.array([w1, w2])
    speed2 = float(wv @ f.g @ wv)
    if abs(speed2) <= 1e-12:
        if s.kind is SpaceKind.PSEUDO_ISOTROPIC:
            raise LightlikeDirection(f"direction {w!r} is lightlike at ({u}, {v})")
        raise ValueError(f"direction {w!r} has zero induced length")
    if abs(abs(speed2) - 1.0) > 1e-8:
        raise ValueError(
            f"direction must be unit in the induced metric, got |I(w,w)|={abs(speed2)!r}"
        )
    return float(wv @ f.h @ wv)


def grid_values(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced values from lo to hi, the grid of every scan and of
    the CLI's grids; the last value is lo + (hi - lo), which may differ
    from hi in its last bit."""
    return [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]


def is_admissible(s: SurfacePatch, nu: int = 20, nv: int = 20) -> AdmissibilityReport:
    """Scan a grid: minimum |m12| and, in pseudo-isotropic space, whether
    the induced metric is timelike (det g < 0) wherever admissible."""
    u0, u1, v0, v1 = s.domain
    us = grid_values(u0, u1, nu)
    vs = grid_values(v0, v1, nv)
    min_abs = math.inf
    bad: list[tuple[float, float]] = []
    timelike: Optional[bool] = (
        True if s.kind is SpaceKind.PSEUDO_ISOTROPIC else None
    )
    for uu in us:
        for vv in vs:
            jv = s.evaluate(uu, vv)
            x1, x2 = jv.d1(), jv.d2()
            m12 = x1.x * x2.y - x1.y * x2.x
            scale = 1.0 + norm_euclid(x1) * norm_euclid(x2)
            min_abs = min(min_abs, abs(m12))
            if abs(m12) <= ADMISSIBILITY_RTOL * scale:
                bad.append((uu, vv))
            elif s.kind is SpaceKind.PSEUDO_ISOTROPIC:
                det_g = dot(s.kind, x1, x1) * dot(s.kind, x2, x2) - dot(
                    s.kind, x1, x2
                ) ** 2
                if det_g >= 0.0:
                    timelike = False
    return AdmissibilityReport(
        admissible_everywhere=not bad,
        min_abs_m12=min_abs,
        points=nu * nv,
        inadmissible=bad,
        timelike_everywhere=timelike,
    )


def lightlike_condition(s: SurfacePatch, u: float, v: float) -> float:
    """(m23)^2 - (m13)^2 + (m12)^2; zero exactly at lightlike points."""
    jv = s.evaluate(u, v)
    x1, x2 = jv.d1(), jv.d2()
    m12 = x1.x * x2.y - x1.y * x2.x
    m23 = x1.y * x2.z - x1.z * x2.y
    m13 = x1.x * x2.z - x1.z * x2.x
    return m23 * m23 - m13 * m13 + m12 * m12


def lightlike_points(
    s: SurfacePatch, nu: int = 20, nv: int = 20, tol: float = 1e-9
) -> list[tuple[float, float]]:
    """Locate lightlike points on a grid.  Grid nodes within tolerance are
    reported directly; sign changes along grid edges are refined by
    bisection, so any locus crossing the grid is detected."""
    if s.kind is not SpaceKind.PSEUDO_ISOTROPIC:
        raise WrongSpace("lightlike points exist only in pseudo-isotropic space")
    u0, u1, v0, v1 = s.domain
    us = grid_values(u0, u1, nu)
    vs = grid_values(v0, v1, nv)
    vals = [[lightlike_condition(s, uu, vv) for vv in vs] for uu in us]
    found: dict[tuple[float, float], tuple[float, float]] = {}

    def record(uu: float, vv: float) -> None:
        key = (round(uu, 9), round(vv, 9))
        found.setdefault(key, (uu, vv))

    def bisect(pa, pb, fa, fb) -> None:
        for _ in range(80):
            mid = ((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0)
            fm = lightlike_condition(s, *mid)
            if abs(fm) <= tol:
                record(*mid)
                return
            if (fa < 0.0) != (fm < 0.0):
                pb, fb = mid, fm
            else:
                pa, fa = mid, fm
        record(*mid)

    for i, uu in enumerate(us):
        for j, vv in enumerate(vs):
            fij = vals[i][j]
            if abs(fij) <= tol:
                record(uu, vv)
                continue
            if i + 1 < nu and (fij < 0.0) != (vals[i + 1][j] < 0.0):
                bisect((uu, vv), (us[i + 1], vv), fij, vals[i + 1][j])
            if j + 1 < nv and (fij < 0.0) != (vals[i][j + 1] < 0.0):
                bisect((uu, vv), (uu, vs[j + 1]), fij, vals[i][j + 1])
    return sorted(found.values())


def _linear_combo(k0: float, terms: list[tuple[float, ex.Expr]]) -> ex.Expr:
    node: ex.Expr = ex.Const(k0)
    for coef, e in terms:
        node = ex.Binary("+", node, ex.Binary("*", ex.Const(coef), e))
    return node


def transform_patch(s: SurfacePatch, m: Motion) -> SurfacePatch:
    """Patch obtained by moving the surface rigidly; parameters are kept,
    so corresponding points share (u, v)."""
    if m.kind is not s.kind:
        raise WrongSpace("motion and surface live in different spaces")
    m11, m12c, m21, m22 = m.linear_xy()
    x, y, z = s.x_expr, s.y_expr, s.z_expr
    return SurfacePatch(
        kind=s.kind,
        x_expr=_linear_combo(m.a, [(m11, x), (m12c, y)]),
        y_expr=_linear_combo(m.b, [(m21, x), (m22, y)]),
        z_expr=_linear_combo(m.c, [(m.c1, x), (m.c2, y), (1.0, z)]),
        domain=s.domain,
        name=f"{s.name}+motion",
        params=dict(s.params),
    )
