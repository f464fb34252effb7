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
from typing import Optional

import numpy as np

from . import expr as ex
from .errors import LightlikeDirection, NotAdmissible, WrongSpace
from .isotropy import (
    Motion,
    SpaceKind,
    Vec3,
    dot,
    dot_background,
    norm_euclid,
)
from .jets import Jet2, Jet2Vec3

ADMISSIBILITY_RTOL = 1e-12


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
        return ex.compile_jet2((self.x_expr, self.y_expr, self.z_expr))

    def __getstate__(self) -> dict:
        # the kernel is generated code that pickle cannot name; a copy
        # compiles its own on first use
        return {k: v for k, v in self.__dict__.items() if k != "jet_kernel"}

    def evaluate(self, u: float, v: float) -> Jet2Vec3:
        r = self.jet_kernel(u, v)
        return Jet2Vec3(Jet2(*r[0:6]), Jet2(*r[6:12]), Jet2(*r[12:18]))

    def contains(self, u: float, v: float) -> bool:
        u0, u1, v0, v1 = self.domain
        return u0 <= u <= u1 and v0 <= v <= v1

    def domain_diameter(self) -> float:
        u0, u1, v0, v1 = self.domain
        return math.hypot(u1 - u0, v1 - v0)

    @property
    def is_graph(self) -> bool:
        return self.x_expr == ex.Var("u") and self.y_expr == ex.Var("v")


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


@dataclass(frozen=True)
class PointFrame:
    kind: SpaceKind
    u: float
    v: float
    swapped: bool  # parameters were exchanged to make m12 > 0
    position: Vec3
    x1: Vec3
    x2: Vec3
    x11: Vec3
    x12: Vec3
    x22: Vec3
    m12: float
    m23: float
    m31: float
    m13: float
    g: np.ndarray  # 2x2 induced metric
    g_inv: np.ndarray
    det_g: float
    n_h: Vec3
    xi: Vec3
    h: np.ndarray  # 2x2 second fundamental form
    a_mat: np.ndarray  # h = -(a_mat @ g)

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
    (
        px, xu, xv, xuu, xuv, xvv,
        py, yu, yv, yuu, yuv, yvv,
        pz, zu, zv, zuu, zuv, zvv,
    ) = s.jet_kernel(u, v)
    swapped = False
    m12 = xu * yv - xv * yu
    if m12 < 0.0:
        xu, xv, yu, yv, zu, zv = xv, xu, yv, yu, zv, zu
        xuu, xvv, yuu, yvv, zuu, zvv = xvv, xuu, yvv, yuu, zvv, zuu
        swapped = True
        m12 = -m12

    x1, x2 = Vec3(xu, yu, zu), Vec3(xv, yv, zv)
    scale = 1.0 + norm_euclid(x1) * norm_euclid(x2)
    if abs(m12) <= ADMISSIBILITY_RTOL * scale:
        raise NotAdmissible(u, v, m12)

    m23 = x1.y * x2.z - x1.z * x2.y
    m31 = x1.z * x2.x - x1.x * x2.z
    m13 = -m31

    g = np.array(
        [
            [dot(s.kind, x1, x1), dot(s.kind, x1, x2)],
            [dot(s.kind, x2, x1), dot(s.kind, x2, x2)],
        ]
    )
    det_g = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det_g

    a = m23 / m12
    b = (m31 if s.kind is SpaceKind.SIMPLY_ISOTROPIC else m13) / m12
    n_h = Vec3(a, b, 1.0)
    if s.kind is SpaceKind.SIMPLY_ISOTROPIC:
        xi = Vec3(a, b, 0.5 * (1.0 - (a * a + b * b)))
    else:
        xi = Vec3(a, b, 0.5 * (1.0 - (a * a - b * b)))

    x11, x12, x22 = Vec3(xuu, yuu, zuu), Vec3(xuv, yuv, zuv), Vec3(xvv, yvv, zvv)
    h = np.array(
        [
            [dot_background(s.kind, n_h, x11), dot_background(s.kind, n_h, x12)],
            [dot_background(s.kind, n_h, x12), dot_background(s.kind, n_h, x22)],
        ]
    )
    a_mat = -(h @ g_inv)

    return PointFrame(
        kind=s.kind,
        u=u,
        v=v,
        swapped=swapped,
        position=Vec3(px, py, pz),
        x1=x1,
        x2=x2,
        x11=x11,
        x12=x12,
        x22=x22,
        m12=m12,
        m23=m23,
        m31=m31,
        m13=m13,
        g=g,
        g_inv=g_inv,
        det_g=det_g,
        n_h=n_h,
        xi=xi,
        h=h,
        a_mat=a_mat,
    )


def curvatures_at(
    s: SurfacePatch, u: float, v: float, tol: float = 1e-9
) -> CurvatureReport:
    """Gaussian and mean curvature plus the diagonalizability trichotomy
    of the shape operator (read off the characteristic polynomial
    lambda^2 - 2H lambda + K)."""
    f = frame_at(s, u, v)
    return curvatures_of_frame(f, tol)


def curvatures_of_frame(f: PointFrame, tol: float = 1e-9) -> CurvatureReport:
    k = (f.h[0, 0] * f.h[1, 1] - f.h[0, 1] ** 2) / f.det_g
    h_mean = (
        f.g[0, 0] * f.h[1, 1] - 2.0 * f.g[0, 1] * f.h[0, 1] + f.g[1, 1] * f.h[0, 0]
    ) / (2.0 * f.det_g)
    disc = h_mean * h_mean - k
    if disc > tol:
        root = math.sqrt(disc)
        return CurvatureReport(
            k, h_mean, disc, CurvatureClass.DIAGONALIZABLE,
            kappa1=h_mean + root, kappa2=h_mean - root,
        )
    if disc < -tol:
        return CurvatureReport(k, h_mean, disc, CurvatureClass.COMPLEX_PRINCIPAL)
    dev = f.h - h_mean * f.g
    if np.max(np.abs(dev)) <= tol * max(1.0, float(np.max(np.abs(f.g)))):
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


def is_admissible(s: SurfacePatch, nu: int = 20, nv: int = 20) -> AdmissibilityReport:
    """Scan a grid: minimum |m12| and, in pseudo-isotropic space, whether
    the induced metric is timelike (det g < 0) wherever admissible."""
    u0, u1, v0, v1 = s.domain
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    min_abs = math.inf
    bad: list[tuple[float, float]] = []
    timelike: Optional[bool] = (
        True if s.kind is SpaceKind.PSEUDO_ISOTROPIC else None
    )
    for uu in us:
        for vv in vs:
            jv = s.evaluate(float(uu), float(vv))
            x1, x2 = jv.d1(), jv.d2()
            m12 = x1.x * x2.y - x1.y * x2.x
            scale = 1.0 + norm_euclid(x1) * norm_euclid(x2)
            min_abs = min(min_abs, abs(m12))
            if abs(m12) <= ADMISSIBILITY_RTOL * scale:
                bad.append((float(uu), float(vv)))
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
    us = [u0 + (u1 - u0) * i / (nu - 1) for i in range(nu)]
    vs = [v0 + (v1 - v0) * j / (nv - 1) for j in range(nv)]
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
