"""Geodesic integration and spherical plane sections.

Autoparallel curves of either connection satisfy

    u''^k + C_ij^k u'^i u'^j = 0

with C the Levi-Civita or the relative coefficients.  The system is
integrated by classic fixed-step RK4 on (u, v, u', v'); fixed steps keep
convergence-order tests clean.  Integration halts with a flagged trace
(rather than extrapolating) when the trajectory leaves the parameter
domain, reaches a point where a coordinate expression has no value, an
inadmissible point or, for the relative connection in pseudo-isotropic
space, a lightlike point, or when its state or connection coefficients
stop being finite.

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
from enum import Enum
from typing import NamedTuple, Optional

from . import expr as ex
from .connection import LIGHTLIKE_GUARD_BAND, RELATIVE_GLOBALS, gamma_lines, relative_lines
from .errors import (
    DegenerateBranch,
    DomainError,
    LeftDomain,
    LightlikePoint,
    LightlikePointHit,
    NonFiniteStart,
    NotAdmissible,
    StepNotPositive,
    TooManySteps,
)
from .isotropy import SpaceKind, Vec3
from .surface import SurfacePatch, graph_patch, point_lines


# upper bound on the RK4 steps of one trace; each step keeps a sample
MAX_STEPS = 1_000_000


class GeodesicKind(Enum):
    LEVI_CIVITA = "lc"
    RELATIVE = "r"


class TraceSample(NamedTuple):
    """One sample of a trace; the position is stored as its three
    components, and ``position`` builds a ``Vec3`` from them on access."""

    t: float
    u: float
    v: float
    du: float
    dv: float
    p_x: float
    p_y: float
    p_z: float

    @property
    def position(self) -> Vec3:
        return Vec3(self.p_x, self.p_y, self.p_z)


class GeodesicTrace(NamedTuple):
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


# the halt reasons of the typed errors that a jet, a frame or a connection raises
_REASONS = {DomainError: "undefined", NotAdmissible: "inadmissible", LightlikePoint: "lightlike"}


def _outside(u: float, v: float) -> _Halt:
    # an overflowed state is outside every domain; say which it was
    return _Halt("left_domain" if math.isfinite(u) and math.isfinite(v) else "non_finite")


def _accel_lines(w: ex.Lines, relative: bool) -> tuple[str, str]:
    """The lets of (u'', v'') = -C_ij^k u'^i u'^j in the caller's parameter
    order, from the coefficients C_ij^k in the frame's order (the relative
    xi_ijk or the Levi-Civita ga_ijk), and of the sample's position, parallel
    residual of gamma'' against xi or (0, 0, 1) and, for the relative
    connection, denom (None for Levi-Civita); returns both return lines."""
    c = "xi" if relative else "ga"
    c111, c112, c121, c122, c221, c222 = w.get(f"{c}111 {c}112 {c}121 {c}122 {c}221 {c}222")
    # (x, y) in the caller's order, the frame's where its lines wrote no swap
    swap = str(w.get("swapped")[0]) != "False"
    caller = lambda x, y: (f"({y} if swapped else {x})", f"({x} if swapped else {y})") if swap else (x, y)
    w1, w2 = w.let("w1, w2", *caller("du", "dv"))
    a1, a2 = w.let(
        "a1, a2",
        -(c111 * w1 * w1 + 2.0 * c121 * w1 * w2 + c221 * w2 * w2),
        -(c112 * w1 * w1 + 2.0 * c122 * w1 * w2 + c222 * w2 * w2),
    )
    au, av = w.let("au, av", *caller(a1, a2))
    # gamma'' = x1 a1 + x2 a2 + x11 w1^2 + x12 2 w1 w2 + x22 w2^2, each
    # component summed left to right
    s11, s12, s22 = w.let("s11, s12, s22", w1 * w1, 2.0 * w1 * w2, w2 * w2)
    gamma = [
        a1 * x1 + a2 * x2 + s11 * x11 + s12 * x12 + s22 * x22
        for x1, x2, x11, x12, x22 in (w.get(f"{x}u {x}v {x}uu {x}uv {x}vv") for x in "xyz")
    ]
    normal = w.get("a b xi_z") if relative else ("ZERO", "ZERO", "ONE")
    _residual_lines(w, gamma, normal)
    px, py, pz, denom = w.get("px py pz denom") if relative else [*w.get("px py pz"), "None"]
    return f"return {au}, {av}", f"return {au}, {av}, {px}, {py}, {pz}, residual, {denom}"


def _accel_kernel(s: SurfacePatch, gkind: GeodesicKind):
    """``(u, v, du, dv, sample=False) -> (u'', v'')`` of the geodesic ODE,
    or with ``sample`` the tuple of ``_accel_lines``: the jet, frame,
    coefficient and acceleration lines as one function, which builds no
    frame.  Raises _Halt outside the domain, the jet's DomainError, the
    frame's NotAdmissible and the relative connection's LightlikePoint, in
    that order.  Compiled on first use, once per patch and connection.
    What (u'', v'') reads, and every guard and block, comes before the
    ``if not sample:`` return, and what only the sample reads after it.  A
    block that re-assigns names (the frame's swap, a run-time integer
    power's loop) reads each line before it that reads one of them, such as
    m12_0, so a line after the return reads what it read in place."""
    kernel = s.accel_kernels.get(gkind)
    if kernel is None:
        relative = gkind is GeodesicKind.RELATIVE
        w, namespace = point_lines(s)
        w.body.insert(0, [("U", "float(u)")])  # a let, so that only a line that reads U writes it
        gamma_lines(w)
        if relative:
            relative_lines(w, s.kind)
        early, final = _accel_lines(w, relative)
        head = w.lines(early)
        before = set(head)
        u0, u1, v0, v1 = s.domain
        kernel = s.accel_kernels[gkind] = ex.compile_function(
            "kernel(u, v, du, dv, sample=False)",
            # SurfacePatch.contains, inlined: a method call would cost each
            # stage more than the comparison does
            ["if not (u0 <= u <= u1 and v0 <= v <= v1):", "    raise _outside(u, v)", *head,
             "if not sample:", f"    {early}", *(x for x in w.lines(final) if x not in before), final],
            {
                **namespace, **RELATIVE_GLOBALS, "_outside": _outside,
                "u0": u0, "u1": u1, "v0": v0, "v1": v1,
            },
        )
    return kernel


def _residual_lines(w: ex.Lines, gamma=("gx", "gy", "gz"), r=("rx", "ry", "rz")) -> None:
    """The lets of residual = |gamma'' x r| / |gamma''|.  The Lorentzian
    product differs from the Euclidean one only in the sign of its middle
    component, so one length serves both spaces."""
    gx, gy, gz = w.let("gx, gy, gz", *gamma)
    rx, ry, rz = w.let("rx, ry, rz", *r)
    # gamma'' is scaled to unit length before the product, and both lengths
    # are hypots, so neither overflows where |gamma''| |r| would; a gamma''
    # that overflowed itself has no direction, and reads inf.  A gamma'' of
    # length at most 1e-10 reads 0.0, and its unit vector, unread, divides by 1.0
    (mag,) = w.let("mag", f"math.hypot({gx}, {gy}, {gz})")
    (unit,) = w.let("unit", f"{mag} if {mag} > 1e-10 else 1.0")
    nx, ny, nz = w.let("nx, ny, nz", gx / unit, gy / unit, gz / unit)
    cross = (ny * rz - nz * ry, nz * rx - nx * rz, nx * ry - ny * rx)
    w.let(
        "residual",
        f"0.0 if {mag} <= 1e-10 else math.inf if not isfinite({mag}) "
        f"else math.hypot({', '.join(map(str, cross))})",
    )


# the residual of one sample, from the lines the stage kernels run
_parallel_residual = ex.compile_function(
    "_parallel_residual(gx, gy, gz, rx, ry, rz)",
    [*ex.template_lines(_residual_lines), "return residual"],
    {"math": math, "isfinite": math.isfinite},
)


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
    if t_end <= 0.0:
        raise StepNotPositive(f"t_end must be > 0, got {t_end!r}")
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
    # the step is nudged to divide t_end evenly (no-op for exact multiples)
    step = t_end / n_steps
    samples: list[TraceSample] = []
    residuals: list[float] = []
    stopped_reason = stop_time = None

    watch_lightlike = (
        gkind is GeodesicKind.RELATIVE and s.kind is SpaceKind.PSEUDO_ISOTROPIC
    )
    prev_denom: Optional[float] = None
    accel = _accel_kernel(s, gkind)
    isfinite, new = math.isfinite, tuple.__new__
    u, v, du, dv = u0, v0, du0, dv0
    half, sixth = 0.5 * step, step / 6.0
    t = 0.0
    try:
        for k in range(n_steps + 1):
            au, av, px, py, pz, residual, denom = accel(u, v, du, dv, True)
            # once per step: a non-finite velocity or coefficient at any stage
            # reaches this step's state, so the next check here sees it; a
            # sample is written only with a finite velocity and position (an
            # acceleration known to be 0 does not carry a velocity's inf or
            # NaN into the check).  x * 0.0 is NaN where x is inf or NaN and
            # a zero elsewhere, so one test covers all seven
            if not isfinite(au * 0.0 + av * 0.0 + du * 0.0 + dv * 0.0 + px * 0.0 + py * 0.0 + pz * 0.0):
                raise _Halt("non_finite")
            if watch_lightlike:
                # the connection is singular on the lightlike locus; stop when
                # entering the guard band or stepping across a sign change
                if abs(denom) < LIGHTLIKE_GUARD_BAND or (
                    prev_denom is not None and (denom < 0.0) != (prev_denom < 0.0)
                ):
                    raise _Halt("lightlike")
                prev_denom = denom
            # built at C level: a NamedTuple's own __new__ is Python code
            samples.append(new(TraceSample, (t, u, v, du, dv, px, py, pz)))
            residuals.append(residual)
            if k == n_steps:
                break
            # classic RK4: stage n has the state derivative (dun, dvn, aun,
            # avn), and each sum keeps the operation order of the 4-vector form
            du2, dv2 = du + half * au, dv + half * av
            au2, av2 = accel(u + half * du, v + half * dv, du2, dv2)
            du3, dv3 = du + half * au2, dv + half * av2
            au3, av3 = accel(u + half * du2, v + half * dv2, du3, dv3)
            du4, dv4 = du + step * au3, dv + step * av3
            au4, av4 = accel(u + step * du3, v + step * dv3, du4, dv4)
            u, v, du, dv = (
                u + sixth * (du + 2.0 * du2 + 2.0 * du3 + du4),
                v + sixth * (dv + 2.0 * dv2 + 2.0 * dv3 + dv4),
                du + sixth * (au + 2.0 * au2 + 2.0 * au3 + au4),
                dv + sixth * (av + 2.0 * av2 + 2.0 * av3 + av4),
            )
            t = (k + 1) * step
    except (_Halt, DomainError, NotAdmissible, LightlikePoint) as halt:
        stopped_reason = halt.reason if isinstance(halt, _Halt) else _REASONS[type(halt)]
        # a halt before the first sample is an invalid start, an error;
        # later halts merely flag the trace
        if not samples:
            if stopped_reason == "lightlike":
                raise LightlikePointHit(
                    f"geodesic started on a lightlike point at ({u0!r}, {v0!r})"
                ) from None
            if stopped_reason == "non_finite":
                raise NonFiniteStart(
                    f"geodesic equation not finite at the start ({u0!r}, {v0!r}): velocity "
                    f"({du!r}, {dv!r}), acceleration ({au!r}, {av!r}), position ({px!r}, {py!r}, {pz!r})"
                ) from None
            raise halt from None  # the jet's DomainError or the frame's NotAdmissible
        stop_time = t
    return GeodesicTrace(gkind, samples, {"parallel": residuals}, stopped_reason, stop_time)


def csv_text(trace: GeodesicTrace) -> str:
    """The ``geodesic`` command's CSV of ``trace``: a header, then t, u, v,
    du, dv, x, y, z and the parallel residual of each sample, one repr per
    value.  The curvature row kernel's rule writes each text once: equal
    floats that are not zeros have the same bits (NaN equals nothing), so
    x and y write the text of u and v where they equal them, and du, dv and
    the residual their previous row's text where they repeat."""
    lines = ["t,u,v,du,dv,x,y,z,parallel_residual"]
    ldu = ldv = lres = math.nan
    for (t, u, v, du, dv, x, y, z), res in zip(trace.samples, trace.residuals["parallel"]):
        su, sv = repr(u), repr(v)
        if du != ldu or not du:
            ldu, sdu = du, repr(du)
        if dv != ldv or not dv:
            ldv, sdv = dv, repr(dv)
        if res != lres or not res:
            lres, sres = res, repr(res)
        sx = su if x == u and x else repr(x)
        lines.append(f"{t!r},{su},{sv},{sdu},{sdv},{sx},{sv if y == v and y else repr(y)},{z!r},{sres}")
    return "\n".join(lines) + "\n"


class SectionBranch(Enum):
    TRIG = "trig"
    HYPERBOLIC_COSH = "cosh"
    HYPERBOLIC_SINH = "sinh"
    LINE_PAIR = "line_pair"


class PlaneSection(NamedTuple):
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
    params = (p, a, b, theta0, theta_dot0)
    if not all(map(math.isfinite, params)):
        raise DegenerateBranch(f"plane section parameters must be finite, got {params!r}")
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


# The non-degenerate branches by the functions (X, Y) of theta that place
# the section point, with X' = sign * Y and Y' = X
_BRANCHES = {
    SectionBranch.TRIG: (math.cos, math.sin, -1.0),
    SectionBranch.HYPERBOLIC_COSH: (math.cosh, math.sinh, 1.0),
    SectionBranch.HYPERBOLIC_SINH: (math.sinh, math.cosh, 1.0),
}


def _section_jet(ps: PlaneSection, theta: float):
    """(P, P', P'', D, D') at theta: the section point and its first two
    derivatives as (x, y, z) tuples, then the angular-speed denominator D
    and its derivative."""
    x_of, y_of, sign = _BRANCHES[ps.branch]
    p, a, b, r = ps.p, ps.a, ps.b, ps.r_value
    bp = b if ps.kind is SpaceKind.SIMPLY_ISOTROPIC else -b  # the plane is z = -a x - bp y
    x, y = x_of(theta), y_of(theta)
    dx, dy, ddx, ddy = sign * y, x, sign * x, sign * y
    pr = p * r
    point = (p * (r * x + a), p * (r * y + b), p * (-a * a - bp * b - r * (a * x + bp * y)))
    d1 = (pr * dx, pr * dy, pr * (-a * dx - bp * dy))
    d2 = (pr * ddx, pr * ddy, pr * (-a * ddx - bp * ddy))
    if ps.branch is SectionBranch.HYPERBOLIC_SINH:
        # R^2 < 0: D = r - (a X + bp Y), with the b term summed first
        return point, d1, d2, r + b * y - a * x, b * dy - a * dx
    return point, d1, d2, r + a * x + bp * y, a * dx + bp * dy


def section_residuals(ps: PlaneSection, x: float, y: float, z: float) -> tuple[float, float]:
    """(plane residual, sphere residual) of the ambient point (x, y, z)."""
    if ps.kind is SpaceKind.SIMPLY_ISOTROPIC:
        plane = abs(z + ps.a * x + ps.b * y)
        sphere = abs(z - ps.p / 2.0 + (x**2 + y**2) / (2.0 * ps.p))
    else:
        plane = abs(z + ps.a * x - ps.b * y)
        sphere = abs(z - ps.p / 2.0 + (x**2 - y**2) / (2.0 * ps.p))
    return plane, sphere


def plane_section(ps: PlaneSection, t_grid: list[float]) -> GeodesicTrace:
    """Trace the section curve over the given times.  The angular speed
    law theta' D(theta) = const is exact; theta(t) itself comes from RK4
    on theta' = F(theta), one step per grid interval.  The law has no
    continuation past a zero of D, so, as ``integrate`` does, the trace
    keeps the samples before the first step whose sample or stage has a
    D that is zero or of the other sign from D(theta0), and stops flagged
    ``lightlike``; where theta or the section overflows it stops
    ``non_finite``.  A section that cannot be traced from theta0 is a
    DegenerateBranch."""
    if ps.branch is SectionBranch.LINE_PAIR:
        raise DegenerateBranch(
            "R = 0: the section is a pair of straight lines; use line_pair()"
        )
    try:
        den0 = _section_jet(ps, ps.theta0)[3]
    except OverflowError:
        den0 = math.inf
    const = ps.theta_dot0 * den0
    if den0 == 0.0 or not math.isfinite(const):
        raise DegenerateBranch(
            f"the angular-speed law theta' D(theta) = const cannot be traced from theta0 = {ps.theta0!r}: "
            f"D(theta0) = {den0!r}, const = {const!r}"
        )
    positive = den0 > 0.0

    def jet(theta: float):
        if not math.isfinite(theta):
            raise _Halt("non_finite")
        j = _section_jet(ps, theta)
        if not math.isfinite(j[3]):
            raise _Halt("non_finite")
        if not (j[3] > 0.0 if positive else j[3] < 0.0):
            raise _Halt("lightlike")
        return j

    def f_theta(theta: float) -> float:
        return const / jet(theta)[3]

    samples: list[TraceSample] = []
    plane_res: list[float] = []
    sphere_res: list[float] = []
    parallel_res: list[float] = []
    stopped_reason = stop_time = None
    inv_p = 1.0 / ps.p
    theta = ps.theta0
    try:
        for idx, t in enumerate(t_grid):
            (px, py, pz), (d1x, d1y, d1z), (d2x, d2y, d2z), den, den_prime = jet(theta)
            theta_dot = const / den
            # the residuals come first: a sample is kept with all of them
            p_res, s_res = section_residuals(ps, px, py, pz)
            # gamma'' = P'' theta'^2 + P' theta'' with theta'' = F'(theta) F(theta)
            theta_dd = -const * den_prime / (den * den) * theta_dot
            sq = theta_dot * theta_dot
            parallel = _parallel_residual(
                sq * d2x + theta_dd * d1x, sq * d2y + theta_dd * d1y, sq * d2z + theta_dd * d1z,
                inv_p * px, inv_p * py, inv_p * pz,
            )
            samples.append(TraceSample(float(t), px, py, d1x * theta_dot, d1y * theta_dot, px, py, pz))
            plane_res.append(p_res)
            sphere_res.append(s_res)
            parallel_res.append(parallel)
            if idx + 1 == len(t_grid):
                break
            h = float(t_grid[idx + 1]) - float(t)
            k2 = f_theta(theta + 0.5 * h * theta_dot)
            k3 = f_theta(theta + 0.5 * h * k2)
            k4 = f_theta(theta + h * k3)
            theta += (h / 6.0) * (theta_dot + 2.0 * k2 + 2.0 * k3 + k4)
    except (_Halt, OverflowError) as halt:  # math.cosh or a square out of range
        if not samples:
            raise DegenerateBranch(f"the section overflows at theta0 = {ps.theta0!r}") from None
        stopped_reason = halt.reason if isinstance(halt, _Halt) else "non_finite"
        stop_time = float(t)
    return GeodesicTrace(
        GeodesicKind.RELATIVE,
        samples,
        {"plane": plane_res, "sphere": sphere_res, "parallel": parallel_res},
        stopped_reason,
        stop_time,
    )


def line_pair(ps: PlaneSection, t_grid: list[float]) -> tuple[GeodesicTrace, GeodesicTrace]:
    """The two straight lines of a degenerate (R = 0) pseudo-isotropic
    section; straight lines are relative geodesics.  As in
    ``plane_section``, a line stops ``non_finite`` at the first time
    where its point or a residual overflows, keeping the samples before
    it."""
    if ps.branch is not SectionBranch.LINE_PAIR:
        raise DegenerateBranch("section is non-degenerate; use plane_section()")
    p, a, b = ps.p, ps.a, ps.b
    traces = []
    for sign in (1.0, -1.0):
        samples: list[TraceSample] = []
        plane_res: list[float] = []
        sphere_res: list[float] = []
        parallel_res: list[float] = []
        stopped_reason = stop_time = None
        direction = Vec3(sign, 1.0, b - sign * a)
        origin = Vec3(a * p, b * p, p * (b * b - a * a))
        for t in t_grid:
            pos = origin + direction.scaled(float(t))
            try:
                if not all(map(math.isfinite, pos.as_tuple())):
                    raise _Halt("non_finite")
                # the residuals come first: a sample is kept with all of them
                p_res, s_res = section_residuals(ps, *pos.as_tuple())
            except (_Halt, OverflowError):  # the point or a square out of range
                stopped_reason, stop_time = "non_finite", float(t)
                break
            samples.append(
                TraceSample(float(t), pos.x, pos.y, direction.x, direction.y, pos.x, pos.y, pos.z)
            )
            plane_res.append(p_res)
            sphere_res.append(s_res)
            parallel_res.append(0.0)  # gamma'' = 0 on a line
        traces.append(
            GeodesicTrace(
                GeodesicKind.RELATIVE,
                samples,
                {"plane": plane_res, "sphere": sphere_res, "parallel": parallel_res},
                stopped_reason,
                stop_time,
            )
        )
    return traces[0], traces[1]


def section_sphere_patch(ps: PlaneSection) -> SurfacePatch:
    """Graph patch of the sphere carrying the section; callers size the
    domain to the curve they intend to trace."""
    pm = "+" if ps.kind is SpaceKind.SIMPLY_ISOTROPIC else "-"
    f_src = f"{ps.p / 2.0!r} - (u^2 {pm} v^2)/{2.0 * ps.p!r}"
    return graph_patch(ps.kind, f_src, (0.0, 0.0, 0.0, 0.0), name="section_sphere")


class SphereGeodesicCheck(NamedTuple):
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
        dx, dy, dz = smp_int.p_x - smp_sec.p_x, smp_int.p_y - smp_sec.p_y, smp_int.p_z - smp_sec.p_z
        deviation = max(deviation, math.sqrt(dx * dx + dy * dy + dz * dz))
    if not (integrated.completed and section.completed):
        deviation = math.inf

    int_plane = 0.0
    int_sphere = 0.0
    for smp in integrated.samples:
        p_res, s_res = section_residuals(ps, smp.p_x, smp.p_y, smp.p_z)
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


def induced_speed_profile(
    kind: SpaceKind, trace: GeodesicTrace, patch: Optional[SurfacePatch] = None
) -> list[float]:
    """sqrt(|I(gamma', gamma')|) along a trace, from the top view of gamma'
    = x_u u' + x_v v' (``patch.jet_kernel``), or (u', v') itself without a
    patch, as on a graph.  The relative connection is not metric, so this
    need not be constant on relative geodesics."""
    sign = 1.0 if kind is SpaceKind.SIMPLY_ISOTROPIC else -1.0
    speeds = []
    for _, u, v, du, dv, *_ in trace.samples:
        if patch is not None:
            _, xu, xv, _, _, _, _, yu, yv, *_ = patch.jet_kernel(u, v)
            du, dv = xu * du + xv * dv, yu * du + yv * dv
        speeds.append(math.sqrt(abs(du * du + sign * dv * dv)))
    return speeds
