"""Second-order forward-mode jets in two parameters: the tests' reference
arithmetic for the order-2 part of ``isogeo.expr.compile_jet``'s kernels
(``jet2ref`` walks expression trees with it).

A ``Jet2`` carries a value together with its first and second partial
derivatives with respect to two scalar parameters (u, v).  Propagating
jets through arithmetic yields derivatives exact up to floating-point
rounding, with no truncation error: the second-order product rule

    (ab)_uu = a_uu b + 2 a_u b_u + a b_uu

and the chain rule

    f(a)_uv = f''(a) a_u a_v + f'(a) a_uv

are applied literally.  The mixed partial is stored once (``duv``), so
symmetry of second derivatives is baked into the representation.  All
arithmetic is 64-bit binary floating point.

Products are written with symmetric grouping so that ``a * b`` and
``b * a`` produce bit-identical results.

A partial known to be 0 or 1 before any value is, such as a constant's
or a seed's, is the structural ``ZERO`` or ``ONE``.  Arithmetic skips
it as the kernels' writer does: a product with ``ZERO`` is ``ZERO``, a
factor ``ONE`` is dropped, and so is a term ``ZERO`` of a sum or a
difference; ``ZERO / x`` is ``ZERO``, ``x / ONE`` is ``x``, and the
square of ``ZERO`` or ``ONE`` is itself.  So ``0 * u`` has the partial
0.0 even at u = inf, and a skipped zero never decides the sign of a zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from isogeo.errors import DomainError


class _Structural(float):
    """The float of a structural ``ZERO`` or ``ONE``; the result of any
    operation that does not skip it is a plain float."""

    __slots__ = ()

    def __mul__(self, other):
        if self is ZERO or other is ZERO:
            return ZERO
        return other  # self is ONE

    __rmul__ = __mul__

    def __add__(self, other):
        if self is ZERO:
            return other
        return self if other is ZERO else float.__add__(self, other)

    __radd__ = __add__  # float addition commutes, signed zeros included

    def __sub__(self, other):
        if other is ZERO:
            return self
        return -other if self is ZERO else float.__sub__(self, other)

    def __rsub__(self, other):
        return other if self is ZERO else float.__rsub__(self, other)

    def __neg__(self):
        return ZERO if self is ZERO else -1.0

    def __truediv__(self, other):
        if self is ZERO or other is ONE:
            return self
        return float.__truediv__(self, other)

    def __rtruediv__(self, other):
        return other if self is ONE else float.__rtruediv__(self, other)

    def __pow__(self, other):
        return self if other == 2 else float.__pow__(self, other)


ZERO = _Structural(0.0)
ONE = _Structural(1.0)


@dataclass(frozen=True, slots=True)
class Jet2:
    val: float
    du: float = ZERO
    dv: float = ZERO
    duu: float = ZERO
    duv: float = ZERO
    dvv: float = ZERO

    def __add__(self, other):
        o = _coerce(other)
        return Jet2(
            self.val + o.val,
            self.du + o.du,
            self.dv + o.dv,
            self.duu + o.duu,
            self.duv + o.duv,
            self.dvv + o.dvv,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return Jet2(
            self.val - o.val,
            self.du - o.du,
            self.dv - o.dv,
            self.duu - o.duu,
            self.duv - o.duv,
            self.dvv - o.dvv,
        )

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Jet2(-self.val, -self.du, -self.dv, -self.duu, -self.duv, -self.dvv)

    def __mul__(self, other):
        a, b = self, _coerce(other)
        return Jet2(
            a.val * b.val,
            a.du * b.val + a.val * b.du,
            a.dv * b.val + a.val * b.dv,
            (a.duu * b.val + a.val * b.duu) + 2.0 * (a.du * b.du),
            (a.duv * b.val + a.val * b.duv) + (a.du * b.dv + a.dv * b.du),
            (a.dvv * b.val + a.val * b.dvv) + 2.0 * (a.dv * b.dv),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * recip(_coerce(other))

    def __rtruediv__(self, other):
        return _coerce(other) * recip(self)

    def __pow__(self, other):
        return powj(self, _coerce(other))

    def plain(self) -> Jet2:
        """The same floats with no structural slot, as a kernel's run-time
        names hold them."""
        return Jet2(*map(float, (self.val, self.du, self.dv, self.duu, self.duv, self.dvv)))

    def is_constant(self) -> bool:
        return (
            self.du == 0.0
            and self.dv == 0.0
            and self.duu == 0.0
            and self.duv == 0.0
            and self.dvv == 0.0
        )


def _coerce(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, float)):
        return Jet2(float(x))
    raise TypeError(f"cannot mix Jet2 with {type(x).__name__}")


def const(val: float) -> Jet2:
    return Jet2(float(val))


def seed_u(val: float) -> Jet2:
    return Jet2(float(val), du=ONE)


def seed_v(val: float) -> Jet2:
    return Jet2(float(val), dv=ONE)


def _chain(a: Jet2, f0: float, f1: float, f2: float) -> Jet2:
    """Compose the scalar function with derivatives (f0, f1, f2) after a."""
    return Jet2(
        f0,
        f1 * a.du,
        f1 * a.dv,
        f2 * (a.du * a.du) + f1 * a.duu,
        f2 * (a.du * a.dv) + f1 * a.duv,
        f2 * (a.dv * a.dv) + f1 * a.dvv,
    )


def recip(a: Jet2) -> Jet2:
    if a.val == 0.0:
        raise DomainError("division by zero")
    inv = 1.0 / a.val
    return _chain(a, inv, -inv * inv, 2.0 * inv * inv * inv)


def _finite(fn: str, a: Jet2) -> None:
    # math.sin and friends raise a bare ValueError at infinity
    if not math.isfinite(a.val):
        raise DomainError(f"{fn} of non-finite value {a.val!r}")


def sin(a: Jet2) -> Jet2:
    _finite("sin", a)
    s, c = math.sin(a.val), math.cos(a.val)
    return _chain(a, s, c, -s)


def cos(a: Jet2) -> Jet2:
    _finite("cos", a)
    s, c = math.sin(a.val), math.cos(a.val)
    return _chain(a, c, -s, -c)


def tan(a: Jet2) -> Jet2:
    _finite("tan", a)
    t = math.tan(a.val)
    d = 1.0 + t * t
    return _chain(a, t, d, 2.0 * t * d)


def sinh(a: Jet2) -> Jet2:
    try:
        s, c = math.sinh(a.val), math.cosh(a.val)
    except OverflowError as exc:
        raise DomainError("overflow in sinh") from exc
    return _chain(a, s, c, s)


def cosh(a: Jet2) -> Jet2:
    try:
        s, c = math.sinh(a.val), math.cosh(a.val)
    except OverflowError as exc:
        raise DomainError("overflow in cosh") from exc
    return _chain(a, c, s, c)


def tanh(a: Jet2) -> Jet2:
    t = math.tanh(a.val)
    d = 1.0 - t * t
    return _chain(a, t, d, -2.0 * t * d)


def exp(a: Jet2) -> Jet2:
    try:
        e = math.exp(a.val)
    except OverflowError as exc:
        raise DomainError("overflow in exp") from exc
    return _chain(a, e, e, e)


def log(a: Jet2) -> Jet2:
    if a.val <= 0.0:
        raise DomainError(f"log of non-positive value {a.val!r}")
    inv = 1.0 / a.val
    return _chain(a, math.log(a.val), inv, -inv * inv)


def sqrt(a: Jet2) -> Jet2:
    if a.val <= 0.0:
        raise DomainError(f"sqrt of non-positive value {a.val!r}")
    r = math.sqrt(a.val)
    d1 = 0.5 / r
    return _chain(a, r, d1, -0.5 * d1 / a.val)


def absj(a: Jet2) -> Jet2:
    if a.val == 0.0:
        raise DomainError("abs is not differentiable at 0")
    s = 1.0 if a.val > 0.0 else -1.0
    return _chain(a, abs(a.val), s, 0.0)


def pow_int(a: Jet2, n: int, start: Jet2 = Jet2(ONE)) -> Jet2:
    """Integer power by repeated squaring; negative bases stay legal.  The
    products start from ``start``, the structural one by default."""
    if n < 0:
        return recip(pow_int(a, -n, start))
    result = start
    base = a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def integer_exponent(b: Jet2) -> int | None:
    """The n for which ``powj(a, b)`` is ``pow_int(a, n)``, else None."""
    if b.is_constant() and float(b.val).is_integer() and abs(b.val) <= 1024:
        return int(b.val)
    return None


def real_power(a: Jet2, b: Jet2) -> Jet2:
    """exp(b log(a)), which needs a positive base: the only branch of a
    constant exponent that ``integer_exponent`` rejects."""
    if a.val <= 0.0:
        raise DomainError(
            f"power with non-integer exponent needs a positive base, got {a.val!r}"
        )
    return exp(b * log(a))


def powj(a: Jet2, b: Jet2, folded: int | None = None) -> Jet2:
    """a ** b with the branch taken on the values, as a kernel takes it at
    run time, or the integer power of ``folded`` where that is given (the
    exponent folds to it when the kernel is written): its integer power
    multiplies plain floats from a plain 1, and the result holds no
    structural slot."""
    n = integer_exponent(b) if folded is None else folded
    if n is not None:
        return pow_int(a.plain(), n, Jet2(1.0).plain())
    return real_power(a, b).plain()


UNARY = {
    "neg": Jet2.__neg__,
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "abs": absj,
}
