"""Geodesic integration and spherical plane sections.

Autoparallel curves of either connection satisfy

    u''^k + C_ij^k u'^i u'^j = 0

with C the Levi-Civita or the relative coefficients.  The system is
integrated by classic fixed-step RK4 on (u, v, u', v'); fixed steps keep
convergence-order tests clean.  Integration halts with a flagged trace
(rather than extrapolating) when the trajectory leaves the parameter
domain or, for the relative connection in pseudo-isotropic space,
reaches a lightlike point.

Every sample carries a parallelism residual: for relative geodesics the
ambient acceleration must be parallel to the Gauss map, measured as
|gamma'' x xi| / |gamma''| with the background vector product of the
matching space; Levi-Civita geodesics use the isotropic normal (0,0,1)
as reference instead.

Plane sections of spheres of parabolic type z = p/2 - (x^2 +/- y^2)/2p
by planes through the center are relative geodesics once reparameterized.
Writing the section as a curve in an angle theta, the parallelism
condition reduces to theta'' = -(D'(theta)/D(theta)) theta'^2 for a
branch-dependent positive function D, so Theta = theta' satisfies the
linear equation dTheta/dtheta = -(D'/D) Theta whose solution is exactly

    theta'(t) * D(theta(t)) = const.

The angular speed law is therefore known in closed form and only the
quadrature theta' = F(theta) is integrated numerically (second stage of
the two-stage reduction).  There are three non-degenerate branches:
trigonometric (simply isotropic), cosh and sinh (pseudo-isotropic,
by the sign of R^2 = 1 + a^2 - b^2); R = 0 degenerates to a pair of
straight lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .connection import (
    LIGHTLIKE_GUARD_BAND,
    coeffs_of_frame,
    denom_of_frame,
    gamma6_of_frame,
)
from .errors import (
    DegenerateBranch,
    LeftDomain,
    LightlikePoint,
    LightlikePointHit,
    NotAdmissible,
    StepNotPositive,
    TooManySteps,
)
from .isotropy import E3, SpaceKind, Vec3, cross_background, norm_euclid
from .surface import SurfacePatch, frame_at, graph_patch


# upper bound on the RK4 steps of one trace; each step keeps a sample
MAX_STEPS = 1_000_000


class GeodesicKind(Enum):
    LEVI_CIVITA = "lc"
    RELATIVE = "r"


@dataclass(frozen=True)
class TraceSample:
    t: float
    u: float
    v: float
    du: float
    dv: float
    position: Vec3


@dataclass
class GeodesicTrace:
    kind: GeodesicKind
    samples: list[TraceSample]
    residuals: dict[str, list[float]]
    stopped_reason: Optional[str] = None
    stop_time: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.stopped_reason is None


class _Halt(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _eval_point(s: SurfacePatch, gkind: GeodesicKind, u: float, v: float):
    """Frame and the connection's six coefficients C_ij^k used by the ODE
    at one point (see ``connection.Coeffs6``)."""
    if not s.contains(u, v):
        raise _Halt("left_domain")
    try:
        f = frame_at(s, u, v)
    except NotAdmissible:
        raise _Halt("inadmissible")
    if gkind is GeodesicKind.LEVI_CIVITA:
        return f, gamma6_of_frame(f)
    try:
        return f, coeffs_of_frame(f).xi6
    except LightlikePoint:
        raise _Halt("lightlike")


def _rhs(s, gkind, state):
    u, v, du, dv = state
    f, (c111, c112, c121, c122, c221, c222) = _eval_point(s, gkind, u, v)
    w1, w2 = (dv, du) if f.swapped else (du, dv)
    a1 = -(c111 * w1 * w1 + 2.0 * c121 * w1 * w2 + c221 * w2 * w2)
    a2 = -(c112 * w1 * w1 + 2.0 * c122 * w1 * w2 + c222 * w2 * w2)
    au, av = (a2, a1) if f.swapped else (a1, a2)
    return (du, dv, au, av), f


def _ambient_acceleration(f, w1: float, w2: float, a1: float, a2: float) -> Vec3:
    """x1 a1 + x2 a2 + x11 w1^2 + x12 2 w1 w2 + x22 w2^2, summed left to
    right, one component at a time."""
    s11, s12, s22 = w1 * w1, 2.0 * w1 * w2, w2 * w2
    return Vec3(
        a1 * f.x1_x + a2 * f.x2_x + s11 * f.x11_x + s12 * f.x12_x + s22 * f.x22_x,
        a1 * f.x1_y + a2 * f.x2_y + s11 * f.x11_y + s12 * f.x12_y + s22 * f.x22_y,
        a1 * f.x1_z + a2 * f.x2_z + s11 * f.x11_z + s12 * f.x12_z + s22 * f.x22_z,
    )


def _parallel_residual(kind: SpaceKind, gdd: Vec3, reference: Vec3) -> float:
    mag = norm_euclid(gdd)
    if mag <= 1e-10:
        return 0.0
    return norm_euclid(cross_background(kind, gdd, reference)) / mag


def _step_count(t_end: float, step: float) -> int:
    """Number of fixed steps covering [0, t_end], checked before any
    sample is allocated."""
    if step <= 0.0:
        raise StepNotPositive(f"step must be > 0, got {step!r}")
    ratio = t_end / step
    if not ratio <= MAX_STEPS:  # also rejects inf and nan
        raise TooManySteps(
            f"t_end/step = {ratio!r} steps; at most {MAX_STEPS} are allowed"
        )
    return max(1, round(ratio))


def integrate(
    s: SurfacePatch,
    gkind: GeodesicKind,
    u0: float,
    v0: float,
    du0: float,
    dv0: float,
    t_end: float,
    step: float,
) -> GeodesicTrace:
    n_steps = _step_count(t_end, step)
    if not s.contains(u0, v0):
        raise LeftDomain(f"start point ({u0!r}, {v0!r}) outside domain {s.domain!r}")
    # invalid starts are errors; later failures merely flag the trace
    try:
        start_frame, _ = _eval_point(s, gkind, u0, v0)
    except _Halt as halt:
        if halt.reason == "lightlike":
            raise LightlikePointHit(
                f"geodesic started on a lightlike point at ({u0!r}, {v0!r})"
            ) from None
        raise NotAdmissible(u0, v0, 0.0) from None
    if (
        gkind is GeodesicKind.RELATIVE
        and s.kind is SpaceKind.PSEUDO_ISOTROPIC
        and abs(denom_of_frame(start_frame)) < LIGHTLIKE_GUARD_BAND
    ):
        raise LightlikePointHit(
            f"geodesic started on a lightlike point at ({u0!r}, {v0!r})"
        )

    # the step is nudged to divide t_end evenly (no-op for exact multiples)
    step = t_end / n_steps
    samples: list[TraceSample] = []
    residuals: list[float] = []
    trace = GeodesicTrace(gkind, samples, {"parallel": residuals})

    watch_lightlike = (
        gkind is GeodesicKind.RELATIVE and s.kind is SpaceKind.PSEUDO_ISOTROPIC
    )
    prev_denom: Optional[float] = None
    state = (u0, v0, du0, dv0)
    t = 0.0
    for k in range(n_steps + 1):
        try:
            deriv, f = _rhs(s, gkind, state)
        except _Halt as halt:
            trace.stopped_reason = halt.reason
            trace.stop_time = t
            return trace
        if watch_lightlike:
            # the connection is singular on the lightlike locus; stop when
            # entering the guard band or stepping across a sign change
            denom = denom_of_frame(f)
            if abs(denom) < LIGHTLIKE_GUARD_BAND or (
                prev_denom is not None and (denom < 0.0) != (prev_denom < 0.0)
            ):
                trace.stopped_reason = "lightlike"
                trace.stop_time = t
                return trace
            prev_denom = denom
        u, v, du, dv = state
        samples.append(TraceSample(t, u, v, du, dv, f.position))
        w1, w2 = (dv, du) if f.swapped else (du, dv)
        a1, a2 = (deriv[3], deriv[2]) if f.swapped else (deriv[2], deriv[3])
        gdd = _ambient_acceleration(f, w1, w2, a1, a2)
        ref = f.xi if gkind is GeodesicKind.RELATIVE else E3
        residuals.append(_parallel_residual(s.kind, gdd, ref))
        if k == n_steps:
            break
        try:
            state = _rk4_step(s, gkind, state, step, deriv)
        except _Halt as halt:
            trace.stopped_reason = halt.reason
            trace.stop_time = t
            return trace
        t = (k + 1) * step
    return trace


def _rk4_step(s, gkind, y, h, k1):
    def shifted(base, slope, scale):
        return tuple(base[i] + scale * slope[i] for i in range(4))

    k2, _ = _rhs(s, gkind, shifted(y, k1, 0.5 * h))
    k3, _ = _rhs(s, gkind, shifted(y, k2, 0.5 * h))
    k4, _ = _rhs(s, gkind, shifted(y, k3, h))
    return tuple(
        y[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        for i in range(4)
    )


class SectionBranch(Enum):
    TRIG = "trig"
    HYPERBOLIC_COSH = "cosh"
    HYPERBOLIC_SINH = "sinh"
    LINE_PAIR = "line_pair"


@dataclass(frozen=True)
class PlaneSection:
    """Section of the sphere z = p/2 - (x^2 +/- y^2)/2p by the plane
    z = -a x - b y (simply isotropic) or z = -a x + b y (pseudo)."""

    kind: SpaceKind
    p: float
    a: float
    b: float
    branch: SectionBranch
    r_value: float
    theta0: float = 0.0
    theta_dot0: float = 1.0


def make_plane_section(
    kind: SpaceKind,
    p: float,
    a: float,
    b: float,
    theta0: float = 0.0,
    theta_dot0: float = 1.0,
) -> PlaneSection:
    if p == 0.0:
        raise DegenerateBranch("sphere parameter p must be non-zero")
    if kind is SpaceKind.SIMPLY_ISOTROPIC:
        r = math.sqrt(1.0 + a * a + b * b)
        branch = SectionBranch.TRIG
    else:
        r_sq = 1.0 + a * a - b * b
        if abs(r_sq) <= 1e-12:
            return PlaneSection(kind, p, a, b, SectionBranch.LINE_PAIR, 0.0, theta0, theta_dot0)
        branch = (
            SectionBranch.HYPERBOLIC_COSH if r_sq > 0.0 else SectionBranch.HYPERBOLIC_SINH
        )
        r = math.sqrt(abs(r_sq))
    return PlaneSection(kind, p, a, b, branch, r, theta0, theta_dot0)


def _section_point(ps: PlaneSection, theta: float) -> Vec3:
    p, a, b, r = ps.p, ps.a, ps.b, ps.r_value
    if ps.branch is SectionBranch.TRIG:
        c, s = math.cos(theta), math.sin(theta)
        return Vec3(p * (r * c + a), p * (r * s + b), p * (-a * a - b * b - r * (a * c + b * s)))
    if ps.branch is SectionBranch.HYPERBOLIC_COSH:
        ch, sh = math.cosh(theta), math.sinh(theta)
        return Vec3(p * (r * ch + a), p * (r * sh + b), p * (-a * a + b * b - r * (a * ch - b * sh)))
    ch, sh = math.cosh(theta), math.sinh(theta)
    return Vec3(p * (r * sh + a), p * (r * ch + b), p * (-a * a + b * b - r * (a * sh - b * ch)))


def _section_d1(ps: PlaneSection, theta: float) -> Vec3:
    p, a, b, r = ps.p, ps.a, ps.b, ps.r_value
    if ps.branch is SectionBranch.TRIG:
        c, s = math.cos(theta), math.sin(theta)
        return Vec3(-p * r * s, p * r * c, p * r * (a * s - b * c))
    if ps.branch is SectionBranch.HYPERBOLIC_COSH:
        ch, sh = math.cosh(theta), math.sinh(theta)
        return Vec3(p * r * sh, p * r * ch, p * r * (-a * sh + b * ch))
    ch, sh = math.cosh(theta), math.sinh(theta)
    return Vec3(p * r * ch, p * r * sh, p * r * (-a * ch + b * sh))


def _section_d2(ps: PlaneSection, theta: float) -> Vec3:
    p, a, b, r = ps.p, ps.a, ps.b, ps.r_value
    if ps.branch is SectionBranch.TRIG:
        c, s = math.cos(theta), math.sin(theta)
        return Vec3(-p * r * c, -p * r * s, p * r * (a * c + b * s))
    if ps.branch is SectionBranch.HYPERBOLIC_COSH:
        ch, sh = math.cosh(theta), math.sinh(theta)
        return Vec3(p * r * ch, p * r * sh, p * r * (-a * ch + b * sh))
    ch, sh = math.cosh(theta), math.sinh(theta)
    return Vec3(p * r * sh, p * r * ch, p * r * (-a * sh + b * ch))


def _section_denominator(ps: PlaneSection, theta: float) -> float:
    a, b, r = ps.a, ps.b, ps.r_value
    if ps.branch is SectionBranch.TRIG:
        return r + a * math.cos(theta) + b * math.sin(theta)
    if ps.branch is SectionBranch.HYPERBOLIC_COSH:
        return r + a * math.cosh(theta) - b * math.sinh(theta)
    return r + b * math.cosh(theta) - a * math.sinh(theta)


def section_residuals(ps: PlaneSection, pos: Vec3) -> tuple[float, float]:
    """(plane residual, sphere residual) of an ambient point."""
    if ps.kind is SpaceKind.SIMPLY_ISOTROPIC:
        plane = abs(pos.z + ps.a * pos.x + ps.b * pos.y)
        sphere = abs(pos.z - ps.p / 2.0 + (pos.x**2 + pos.y**2) / (2.0 * ps.p))
    else:
        plane = abs(pos.z + ps.a * pos.x - ps.b * pos.y)
        sphere = abs(pos.z - ps.p / 2.0 + (pos.x**2 - pos.y**2) / (2.0 * ps.p))
    return plane, sphere


def plane_section(ps: PlaneSection, t_grid: list[float]) -> GeodesicTrace:
    """Trace the section curve over the given times.  The angular speed
    law theta' D(theta) = const is exact; theta(t) itself comes from RK4
    on theta' = F(theta), one step per grid interval."""
    if ps.branch is SectionBranch.LINE_PAIR:
        raise DegenerateBranch(
            "R = 0: the section is a pair of straight lines; use line_pair()"
        )
    const = ps.theta_dot0 * _section_denominator(ps, ps.theta0)

    def f_theta(theta: float) -> float:
        return const / _section_denominator(ps, theta)

    samples: list[TraceSample] = []
    plane_res: list[float] = []
    sphere_res: list[float] = []
    parallel_res: list[float] = []
    trace = GeodesicTrace(
        GeodesicKind.RELATIVE,
        samples,
        {"plane": plane_res, "sphere": sphere_res, "parallel": parallel_res},
    )

    theta = ps.theta0
    for idx, t in enumerate(t_grid):
        theta_dot = f_theta(theta)
        pos = _section_point(ps, theta)
        d1 = _section_d1(ps, theta)
        samples.append(
            TraceSample(float(t), pos.x, pos.y, d1.x * theta_dot, d1.y * theta_dot, pos)
        )
        p_res, s_res = section_residuals(ps, pos)
        plane_res.append(p_res)
        sphere_res.append(s_res)
        # gamma'' = P'' theta'^2 + P' theta'' with theta'' = F'(theta) F(theta)
        dd = _section_denominator(ps, theta)
        d_dd = {
            SectionBranch.TRIG: -ps.a * math.sin(theta) + ps.b * math.cos(theta),
            SectionBranch.HYPERBOLIC_COSH: ps.a * math.sinh(theta) - ps.b * math.cosh(theta),
            SectionBranch.HYPERBOLIC_SINH: ps.b * math.sinh(theta) - ps.a * math.cosh(theta),
        }[ps.branch]
        theta_dd = -const * d_dd / (dd * dd) * theta_dot
        gdd = _section_d2(ps, theta).scaled(theta_dot * theta_dot) + d1.scaled(theta_dd)
        parallel_res.append(
            _parallel_residual(ps.kind, gdd, pos.scaled(1.0 / ps.p))
        )
        if idx + 1 == len(t_grid):
            break
        h = float(t_grid[idx + 1]) - float(t)
        k1 = f_theta(theta)
        k2 = f_theta(theta + 0.5 * h * k1)
        k3 = f_theta(theta + 0.5 * h * k2)
        k4 = f_theta(theta + h * k3)
        theta += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return trace


def line_pair(ps: PlaneSection, t_grid: list[float]) -> tuple[GeodesicTrace, GeodesicTrace]:
    """The two straight lines of a degenerate (R = 0) pseudo-isotropic
    section; straight lines are relative geodesics."""
    if ps.branch is not SectionBranch.LINE_PAIR:
        raise DegenerateBranch("section is non-degenerate; use plane_section()")
    p, a, b = ps.p, ps.a, ps.b
    traces = []
    for sign in (1.0, -1.0):
        samples: list[TraceSample] = []
        plane_res: list[float] = []
        sphere_res: list[float] = []
        parallel_res: list[float] = []
        direction = Vec3(sign, 1.0, b - sign * a)
        origin = Vec3(a * p, b * p, p * (b * b - a * a))
        for t in t_grid:
            pos = origin + direction.scaled(float(t))
            samples.append(
                TraceSample(float(t), pos.x, pos.y, direction.x, direction.y, pos)
            )
            p_res, s_res = section_residuals(ps, pos)
            plane_res.append(p_res)
            sphere_res.append(s_res)
            parallel_res.append(0.0)  # gamma'' = 0 on a line
        traces.append(
            GeodesicTrace(
                GeodesicKind.RELATIVE,
                samples,
                {"plane": plane_res, "sphere": sphere_res, "parallel": parallel_res},
            )
        )
    return traces[0], traces[1]


def section_sphere_patch(ps: PlaneSection) -> SurfacePatch:
    """Graph patch of the sphere carrying the section; callers size the
    domain to the curve they intend to trace."""
    pm = "+" if ps.kind is SpaceKind.SIMPLY_ISOTROPIC else "-"
    f_src = f"{ps.p / 2.0!r} - (u^2 {pm} v^2)/{2.0 * ps.p!r}"
    return graph_patch(ps.kind, f_src, (0.0, 0.0, 0.0, 0.0), name="section_sphere")


@dataclass(frozen=True)
class SphereGeodesicCheck:
    max_deviation: float
    integrated_plane_residual: float
    integrated_sphere_residual: float
    section_plane_residual: float
    section_sphere_residual: float
    max_parallel_residual: float
    integrated_completed: bool


def cross_check_sphere_geodesic(
    p: float,
    a: float,
    b: float,
    kind: SpaceKind,
    t_end: float,
    step: float,
    theta0: float = 0.0,
    theta_dot0: float = 1.0,
) -> SphereGeodesicCheck:
    """Integrate the autoparallel ODE from the section's initial data and
    compare against the closed-form plane section."""
    ps = make_plane_section(kind, p, a, b, theta0, theta_dot0)
    n_steps = _step_count(t_end, step)
    t_grid = [k * step for k in range(n_steps + 1)]
    section = plane_section(ps, t_grid)

    xs = [smp.u for smp in section.samples]
    ys = [smp.v for smp in section.samples]
    pad = 1.0 + 0.2 * (max(xs) - min(xs) + max(ys) - min(ys))
    domain = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
    base = section_sphere_patch(ps)
    patch = SurfacePatch(
        base.kind, base.x_expr, base.y_expr, base.z_expr, domain, base.name
    )

    start = section.samples[0]
    integrated = integrate(
        patch,
        GeodesicKind.RELATIVE,
        start.u,
        start.v,
        start.du,
        start.dv,
        t_end,
        step,
    )

    deviation = 0.0
    for smp_int, smp_sec in zip(integrated.samples, section.samples):
        deviation = max(deviation, norm_euclid(smp_int.position - smp_sec.position))
    if len(integrated.samples) < len(section.samples):
        deviation = math.inf

    int_plane = 0.0
    int_sphere = 0.0
    for smp in integrated.samples:
        p_res, s_res = section_residuals(ps, smp.position)
        int_plane = max(int_plane, p_res)
        int_sphere = max(int_sphere, s_res)

    return SphereGeodesicCheck(
        max_deviation=deviation,
        integrated_plane_residual=int_plane,
        integrated_sphere_residual=int_sphere,
        section_plane_residual=max(section.residuals["plane"]),
        section_sphere_residual=max(section.residuals["sphere"]),
        max_parallel_residual=max(
            max(integrated.residuals["parallel"], default=0.0),
            max(section.residuals["parallel"], default=0.0),
        ),
        integrated_completed=integrated.completed,
    )


def induced_speed_profile(kind: SpaceKind, trace: GeodesicTrace) -> list[float]:
    """sqrt(|I(gamma', gamma')|) along a trace; the relative connection is
    not metric, so this need not be constant on relative geodesics."""
    sign = 1.0 if kind is SpaceKind.SIMPLY_ISOTROPIC else -1.0
    return [
        math.sqrt(abs(smp.du * smp.du + sign * smp.dv * smp.dv))
        for smp in trace.samples
    ]
