"""Reference third-order jets for tests: a tree walk over expression trees
whose float operations are those ``expr.compile_jet(..., 3)`` emits, in
the same grouping, so the two agree bit for bit.

A jet is a tuple (val, du, dv, duu, duv, dvv, duuu, duuv, duvv, dvvv).
The order-2 part of every operation is ``jets.Jet2``'s; the third
partials follow Leibniz's rule and the chain rule

    f(a)_uuu = f''' a_u^3 + 3 f'' a_u a_uu + f' a_uuu
    f(a)_uuv = f''' a_u^2 a_v + f'' (a_uu a_v + 2 a_u a_uv) + f' a_uuv
"""

from __future__ import annotations

import math

import jets
from jet2ref import folded_integer
from jets import ONE, ZERO, Jet2
from isogeo.expr import Binary, Const, Expr, Unary, Var


def _pair(a, b):
    return Jet2(*a[:6]), Jet2(*b[:6])


def _order2(j: Jet2) -> tuple:
    return (j.val, j.du, j.dv, j.duu, j.duv, j.dvv)


def const(c: float) -> tuple:
    return (c,) + (ZERO,) * 9


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def neg(a):
    return tuple(-x for x in a)


def mul(a, b):
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = b
    return _order2(Jet2(*a[:6]) * Jet2(*b[:6])) + (
        a6 * b0 + a0 * b6 + 3.0 * (a3 * b1 + a1 * b3),
        a7 * b0 + a0 * b7 + (a3 * b2 + a2 * b3) + 2.0 * (a4 * b1 + a1 * b4),
        a8 * b0 + a0 * b8 + (a5 * b1 + a1 * b5) + 2.0 * (a4 * b2 + a2 * b4),
        a9 * b0 + a0 * b9 + 3.0 * (a5 * b2 + a2 * b5),
    )


def _third(a, f1, f2, f3) -> tuple:
    _, a1, a2, a3, a4, a5, a6, a7, a8, a9 = a
    return (
        f3 * (a1 * a1 * a1) + 3.0 * f2 * (a1 * a3) + f1 * a6,
        f3 * (a1 * a1 * a2) + f2 * (a3 * a2 + 2.0 * (a1 * a4)) + f1 * a7,
        f3 * (a2 * a2 * a1) + f2 * (a5 * a1 + 2.0 * (a2 * a4)) + f1 * a8,
        f3 * (a2 * a2 * a2) + 3.0 * f2 * (a2 * a5) + f1 * a9,
    )


def _factors(fn: str, x: float) -> tuple[float, float, float]:
    """f', f'' and f''' of the elementary function at x, once the order-2
    part (which does the domain checks) has succeeded."""
    if fn in ("sin", "cos"):
        s, c = math.sin(x), math.cos(x)
        return (c, -s, -c) if fn == "sin" else (-s, -c, s)
    if fn == "tan":
        t = math.tan(x)
        d = 1.0 + t * t
        return d, 2.0 * t * d, 2.0 * d * (d + 2.0 * (t * t))
    if fn in ("sinh", "cosh"):
        s, c = math.sinh(x), math.cosh(x)
        return (c, s, c) if fn == "sinh" else (s, c, s)
    if fn == "tanh":
        t = math.tanh(x)
        d = 1.0 - t * t
        return d, -2.0 * t * d, 2.0 * d * (2.0 * (t * t) - d)
    if fn == "exp":
        e = math.exp(x)
        return e, e, e
    if fn == "log":
        i = 1.0 / x
        return i, -i * i, 2.0 * i * i * i
    if fn == "sqrt":
        d = 0.5 / math.sqrt(x)
        return d, -0.5 * d / x, 0.75 * d / x / x
    if fn == "abs":
        return (1.0 if x > 0.0 else -1.0), 0.0, 0.0
    if fn == "recip":
        i = 1.0 / x
        return -i * i, 2.0 * i * i * i, -6.0 * i * i * i * i
    raise KeyError(fn)


def chain(fn: str, a):
    if fn == "recip":
        low = jets.recip(Jet2(*a[:6]))
    else:
        low = jets.UNARY[fn](Jet2(*a[:6]))
    return _order2(low) + _third(a, *_factors(fn, a[0]))


def pow_int(a, n: int, start: tuple = (ONE,) + (ZERO,) * 9):
    """Integer power by repeated squaring from ``start``, the structural
    one by default."""
    if n < 0:
        return chain("recip", pow_int(a, -n, start))
    result, base = start, a
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def real_power(a, b):
    low = _order2(jets.real_power(*_pair(a, b)))
    return low + chain("exp", mul(b, chain("log", a)))[6:]


def powj(a, b, folded=None):
    """a ** b with the branch taken at run time, as ``jets.powj``: the
    integer power multiplies plain floats from a plain 1, and the result
    holds no structural slot.  Each third partial of the exponent that is
    not 0 adds a^n ln(a) b_ijk, NaN where a <= 0.  An exponent that folds
    to the integer ``folded`` when the kernel is written takes its integer
    power with no such term."""
    n = jets.integer_exponent(Jet2(*b[:6])) if folded is None else folded
    if n is None:
        return tuple(map(float, real_power(a, b)))
    power = pow_int(tuple(map(float, a)), n, (1.0,) + (0.0,) * 9)
    if folded is not None:
        return power
    term = power[0] * math.log(a[0]) if a[0] > 0.0 else math.nan
    return power[:6] + tuple(x + term * y if y != 0.0 else x for x, y in zip(power[6:], b[6:]))


def eval_jet3(e: Expr, u: float, v: float) -> tuple:
    match e:
        case Const(value):
            return const(value)
        case Var(name):
            return (float(u), ONE) + (ZERO,) * 8 if name == "u" else (float(v), ZERO, ONE) + (ZERO,) * 7
        case Unary(op, arg):
            a = eval_jet3(arg, u, v)
            return neg(a) if op == "neg" else chain(op, a)
        case Binary(op, left, right):
            a = eval_jet3(left, u, v)
            b = eval_jet3(right, u, v)
            if op == "+":
                return add(a, b)
            if op == "-":
                return sub(a, b)
            if op == "*":
                return mul(a, b)
            if op == "/":
                return mul(a, chain("recip", b))
            if isinstance(right, Const):
                n = jets.integer_exponent(Jet2(right.value))
                return real_power(a, b) if n is None else pow_int(a, n)
            return powj(a, b, folded_integer(right))
    raise TypeError(f"not an expression node: {e!r}")


def walk3(exprs, u: float, v: float) -> list[float]:
    """The order-3 kernel's layout: every tree's order-2 part, then every
    tree's third partials."""
    results = [eval_jet3(e, u, v) for e in exprs]
    return [x for r in results for x in r[:6]] + [x for r in results for x in r[6:]]

