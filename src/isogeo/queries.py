"""Queries of a patch that no command runs: the admissibility and
lightlike scans, the normal curvature of a direction and rigid motions.
``surface`` resolves these names on first use, so that the modules
``import isogeo.cli`` loads do not compile them."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import expr as ex
from .errors import LightlikeDirection, NotAdmissible, WrongSpace
from .isotropy import Motion, SpaceKind
from .surface import SurfacePatch, _LazyNumpy, frame_at, grid_values

np = _LazyNumpy(globals())


class AdmissibilityReport(NamedTuple):
    admissible_everywhere: bool
    min_abs_m12: float
    points: int
    inadmissible: list[tuple[float, float]]
    # pseudo only, None in simply isotropic; always True, since det g =
    # -m12^2 < 0 at every admissible point
    timelike_everywhere: Optional[bool]


def normal_curvature(
    s: SurfacePatch, u: float, v: float, w: tuple[float, float]
) -> float:
    """Second fundamental form on a unit tangent direction w = (w1, w2)."""
    f = frame_at(s, u, v)
    wv = np.array([w[0], w[1]])
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
    """Scan a grid of frames for the minimum |m12| and the inadmissible
    points."""
    u0, u1, v0, v1 = s.domain
    vs = grid_values(v0, v1, nv)
    min_abs = math.inf
    bad: list[tuple[float, float]] = []
    for uu in grid_values(u0, u1, nu):
        for vv in vs:
            try:
                m12 = abs(frame_at(s, uu, vv).m12)
            except NotAdmissible as err:
                m12 = abs(err.minor)
                bad.append((uu, vv))
            min_abs = min(min_abs, m12)
    return AdmissibilityReport(
        admissible_everywhere=not bad,
        min_abs_m12=min_abs,
        points=nu * nv,
        inadmissible=bad,
        timelike_everywhere=True if s.kind is SpaceKind.PSEUDO_ISOTROPIC else None,
    )


def lightlike_condition(s: SurfacePatch, u: float, v: float) -> float:
    """(m23)^2 - (m13)^2 + (m12)^2; zero exactly at lightlike points.
    Read from the jet, not the frame: it is defined where m12 = 0 too."""
    jet = s.jet_kernel(u, v)
    xu, xv, yu, yv, zu, zv = jet[1], jet[2], jet[7], jet[8], jet[13], jet[14]
    m12 = xu * yv - xv * yu
    m23 = yu * zv - zu * yv
    m13 = xu * zv - zu * xv
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
