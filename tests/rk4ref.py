"""Tuple-form RK4 reference for ``isogeo.geodesic.integrate``.

A copy of the integrator as it stood before its stages were written out
on named floats: the state is a 4-tuple, every stage goes through
``eval_point`` and then ``rhs``, and ``rk4_step`` forms the shifted
states with a closure and generator expressions.  ``trace`` repeats
``integrate``'s sample loop (the start checks are left out), so on a
valid start the two must agree bit for bit.  A point's frame is
``jet2ref.frame``'s, whose structural ZERO and ONE reach the coefficients
and the acceleration as they reach the stage kernel's lines; the kernel
returns floats, so the structure ends at the acceleration it returns.
"""

from __future__ import annotations

import math

from isogeo.connection import LIGHTLIKE_GUARD_BAND
from isogeo.errors import DomainError, LightlikePoint, NotAdmissible
from isogeo.geodesic import GeodesicKind
from isogeo.isotropy import E3, SpaceKind, Vec3, cross_euclid, cross_lorentz
from jet2ref import frame
from plainref import coeffs_of_frame, gamma6_of_frame
from tensorref import denom_of_frame


def cross_background(kind: SpaceKind, u: Vec3, v: Vec3) -> Vec3:
    """The cross product of the background metric of the space ``kind``."""
    if kind is SpaceKind.SIMPLY_ISOTROPIC:
        return cross_euclid(u, v)
    return cross_lorentz(u, v)


class Halt(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def eval_point(s, gkind, u, v):
    if not s.contains(u, v):
        raise Halt("left_domain")
    try:
        f = frame(s, u, v)
    except DomainError:
        raise Halt("undefined")
    except NotAdmissible:
        raise Halt("inadmissible")
    if gkind is GeodesicKind.LEVI_CIVITA:
        return f, gamma6_of_frame(f)
    try:
        return f, coeffs_of_frame(f).xi6
    except LightlikePoint:
        raise Halt("lightlike")


def rhs(s, gkind, state):
    u, v, du, dv = state
    f, (c111, c112, c121, c122, c221, c222) = eval_point(s, gkind, u, v)
    a1 = -(c111 * du * du + 2.0 * c121 * du * dv + c221 * dv * dv)
    a2 = -(c112 * du * du + 2.0 * c122 * du * dv + c222 * dv * dv)
    return (du, dv, float(a1), float(a2)), f, (du, dv, a1, a2)


def rk4_step(s, gkind, y, h, k1):
    def shifted(base, slope, scale):
        return tuple(base[i] + scale * slope[i] for i in range(4))

    k2 = rhs(s, gkind, shifted(y, k1, 0.5 * h))[0]
    k3 = rhs(s, gkind, shifted(y, k2, 0.5 * h))[0]
    k4 = rhs(s, gkind, shifted(y, k3, h))[0]
    return tuple(
        y[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        for i in range(4)
    )


def ambient_acceleration(f, w1, w2, a1, a2) -> Vec3:
    s11, s12, s22 = w1 * w1, 2.0 * w1 * w2, w2 * w2
    return Vec3(
        a1 * f.x1_x + a2 * f.x2_x + s11 * f.x11_x + s12 * f.x12_x + s22 * f.x22_x,
        a1 * f.x1_y + a2 * f.x2_y + s11 * f.x11_y + s12 * f.x12_y + s22 * f.x22_y,
        a1 * f.x1_z + a2 * f.x2_z + s11 * f.x11_z + s12 * f.x12_z + s22 * f.x22_z,
    )


def parallel_residual(kind, gdd, reference) -> float:
    mag = math.hypot(gdd.x, gdd.y, gdd.z)
    if mag <= 1e-10:
        return 0.0
    if not math.isfinite(mag):
        return math.inf
    c = cross_background(kind, Vec3(gdd.x / mag, gdd.y / mag, gdd.z / mag), reference)
    return math.hypot(c.x, c.y, c.z)


def trace(s, gkind, u0, v0, du0, dv0, t_end, step):
    """(rows, residuals, stopped_reason, stop_time), a row being
    (t, u, v, du, dv, x, y, z)."""
    n_steps = max(1, round(t_end / step))
    step = t_end / n_steps
    rows, residuals = [], []
    watch_lightlike = gkind is GeodesicKind.RELATIVE and s.kind is SpaceKind.PSEUDO_ISOTROPIC
    prev_denom = None
    state = (u0, v0, du0, dv0)
    t = 0.0
    for k in range(n_steps + 1):
        try:
            deriv, f, (w1, w2, a1, a2) = rhs(s, gkind, state)
        except Halt as halt:
            return rows, residuals, halt.reason, t
        if watch_lightlike:
            denom = denom_of_frame(f)
            if abs(denom) < LIGHTLIKE_GUARD_BAND or (
                prev_denom is not None and (denom < 0.0) != (prev_denom < 0.0)
            ):
                return rows, residuals, "lightlike", t
            prev_denom = denom
        u, v, du, dv = state
        rows.append((t, u, v, du, dv, f.p_x, f.p_y, f.p_z))
        gdd = ambient_acceleration(f, w1, w2, a1, a2)
        ref = f.xi if gkind is GeodesicKind.RELATIVE else E3
        residuals.append(parallel_residual(s.kind, gdd, ref))
        if k == n_steps:
            break
        try:
            state = rk4_step(s, gkind, state, step, deriv)
        except Halt as halt:
            return rows, residuals, halt.reason, t
        t = (k + 1) * step
    return rows, residuals, None, None
