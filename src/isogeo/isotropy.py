"""Ambient-space algebra for the two isotropic geometries.

Both spaces are R^3 with a degenerate metric whose radical is the z-axis:

    simply isotropic   ds^2 = dx^2 + dy^2
    pseudo-isotropic   ds^2 = dx^2 - dy^2

The z-direction (``e3``) is fixed by every rigid motion, so projecting a
vector onto the xy-plane (its "top view") is geometrically meaningful.
Alongside the degenerate products this module keeps the non-degenerate
background products of Euclidean and Lorentzian R^3 and their vector
products; those are needed for second-fundamental-form coefficients and
linear-independence checks, not as part of the isotropic structure.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple


class SpaceKind(Enum):
    SIMPLY_ISOTROPIC = "i3"
    PSEUDO_ISOTROPIC = "ip3"


class Vec3(NamedTuple):
    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scaled(self, k: float) -> "Vec3":
        return Vec3(k * self.x, k * self.y, k * self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


E3 = Vec3(0.0, 0.0, 1.0)  # the isotropic direction


def dot(kind: SpaceKind, u: Vec3, v: Vec3) -> float:
    """Degenerate inner product; the z-components never contribute."""
    if kind is SpaceKind.SIMPLY_ISOTROPIC:
        return u.x * v.x + u.y * v.y
    return u.x * v.x - u.y * v.y


def norm(kind: SpaceKind, u: Vec3) -> float:
    return math.sqrt(abs(dot(kind, u, u)))


def top_view(u: Vec3) -> Vec3:
    return Vec3(u.x, u.y, 0.0)


def codistance(u: Vec3, v: Vec3) -> float:
    """Secondary invariant separating points with equal top view."""
    return abs(v.z - u.z)


def dot_euclid(u: Vec3, v: Vec3) -> float:
    return u.x * v.x + u.y * v.y + u.z * v.z


def dot_lorentz(u: Vec3, v: Vec3) -> float:
    return u.x * v.x - u.y * v.y + u.z * v.z


def norm_euclid(u: Vec3) -> float:
    return math.sqrt(u.x * u.x + u.y * u.y + u.z * u.z)


def cross_xyz(ux: float, uy: float, uz: float, vx: float, vy: float, vz: float):
    """The Euclidean vector product of (ux, uy, uz) and (vx, vy, vz), as
    three floats."""
    return (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)


def cross_euclid(u: Vec3, v: Vec3) -> Vec3:
    return Vec3(*cross_xyz(u.x, u.y, u.z, v.x, v.y, v.z))


def cross_lorentz(u: Vec3, v: Vec3) -> Vec3:
    # Vanishes exactly when u and v are linearly dependent, like the
    # Euclidean product (it differs from it by a sign flip of the middle
    # component).
    return Vec3(
        u.y * v.z - u.z * v.y,
        u.x * v.z - u.z * v.x,
        u.x * v.y - u.y * v.x,
    )


class Motion(NamedTuple):
    """Rigid motion of the chosen space.

    The xy-part is a rotation by ``phi`` (simply isotropic) or a boost by
    ``phi`` (pseudo-isotropic) followed by a translation (a, b); the
    z-part is the shear z + c1*x + c2*y + c.  Six parameters, matching
    the dimension of the motion group.
    """

    kind: SpaceKind
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    phi: float = 0.0

    def linear_xy(self) -> tuple[float, float, float, float]:
        """Entries (m11, m12, m21, m22) of the top-view linear part."""
        if self.kind is SpaceKind.SIMPLY_ISOTROPIC:
            cp, sp = math.cos(self.phi), math.sin(self.phi)
            return (cp, -sp, sp, cp)
        ch, sh = math.cosh(self.phi), math.sinh(self.phi)
        return (ch, sh, sh, ch)


def apply_motion(m: Motion, p: Vec3) -> Vec3:
    m11, m12, m21, m22 = m.linear_xy()
    return Vec3(
        m.a + m11 * p.x + m12 * p.y,
        m.b + m21 * p.x + m22 * p.y,
        m.c + m.c1 * p.x + m.c2 * p.y + p.z,
    )


def compose(outer: Motion, inner: Motion) -> Motion:
    """Motion equal to applying ``inner`` first, then ``outer``."""
    if outer.kind is not inner.kind:
        raise ValueError("cannot compose motions of different space kinds")
    m11, m12, m21, m22 = outer.linear_xy()
    i11, i12, i21, i22 = inner.linear_xy()
    a = outer.a + m11 * inner.a + m12 * inner.b
    b = outer.b + m21 * inner.a + m22 * inner.b
    c = outer.c + inner.c + outer.c1 * inner.a + outer.c2 * inner.b
    c1 = outer.c1 * i11 + outer.c2 * i21 + inner.c1
    c2 = outer.c1 * i12 + outer.c2 * i22 + inner.c2
    return Motion(outer.kind, a, b, c, c1, c2, outer.phi + inner.phi)
