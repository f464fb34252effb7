"""Per-branch reference for ``isogeo.geodesic.plane_section``.

A copy of the plane sections as they stood before their branch code was
collapsed into one table: four helpers that each repeat the three-way
branch, a per-sample dict for D', and a loop that evaluates D three times
per sample.  ``plane_section`` here must agree with the module's bit for
bit on every non-degenerate section.
"""

from __future__ import annotations

import math

from isogeo.geodesic import (
    GeodesicKind,
    GeodesicTrace,
    PlaneSection,
    SectionBranch,
    TraceSample,
    _parallel_residual,
)
from isogeo.isotropy import SpaceKind, Vec3


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
    """The section curve over the given times (non-degenerate branches)."""
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
            TraceSample(float(t), pos.x, pos.y, d1.x * theta_dot, d1.y * theta_dot, pos.x, pos.y, pos.z)
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
            _parallel_residual(*gdd.as_tuple(), *pos.scaled(1.0 / ps.p).as_tuple())
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
