"""Reference second-order jets of expression trees for tests: a tree walk
over ``jets.Jet2``, which the compiled kernels of ``isogeo.expr.compile_jet``
must match bit for bit, DomainErrors (type, message and post-order)
included; and the frames of the fused point kernels, from those jets."""

from __future__ import annotations

import jets
from jets import Jet2
from isogeo.expr import Binary, Const, Expr, Unary, Var
from isogeo.surface import PointFrame, SurfacePatch
from plainref import frame_of_jet

def frame(s: SurfacePatch, u: float, v: float) -> PointFrame:
    """The frame at (u, v) that the fused point kernels compute: the
    structural jets of x, y and z run through ``plainref.frame_of_jet``, whose
    floats skip what the jets' ZERO and ONE skip."""
    jet = [
        x for e in (s.x_expr, s.y_expr, s.z_expr)
        for j in (eval_jet2(e, u, v),) for x in (j.val, j.du, j.dv, j.duu, j.duv, j.dvv)
    ]
    return frame_of_jet(s.kind, u, v, jet)


def eval_jet2(e: Expr, u: float, v: float) -> Jet2:
    """Value and all partials through second order at (u, v)."""
    return _eval(e, jets.seed_u(u), jets.seed_v(v))


def _eval(e: Expr, ju: Jet2, jv: Jet2) -> Jet2:
    match e:
        case Const(value):
            return Jet2(value)
        case Var(name):
            return ju if name == "u" else jv
        case Unary(op, arg):
            return jets.UNARY[op](_eval(arg, ju, jv))
        case Binary(op, left, right):
            a = _eval(left, ju, jv)
            b = _eval(right, ju, jv)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                return a / b
            # a constant exponent's branch is known when the kernel is
            # written, and keeps its structural slots
            if isinstance(right, Const):
                n = jets.integer_exponent(b)
                return jets.real_power(a, b) if n is None else jets.pow_int(a, n)
            return jets.powj(a, b, folded_integer(right))
    raise TypeError(f"not an expression node: {e!r}")


def _fold(e: Expr):
    match e:
        case Const(value):
            return value
        case Unary("neg", arg):
            x = _fold(arg)
            return None if x is None else -x
        case Binary(op, left, right) if op in ("-", "/") and left == right:
            return 0.0 if op == "-" else 1.0
        case Binary(op, left, right) if op != "^":
            x, y = _fold(left), _fold(right)
            if op == "*" and (x == 0.0 or y == 0.0):
                return 0.0
            if x is None or y is None:
                return None
            if op == "/":
                return None if y == 0.0 else x * (1.0 / y)
            return {"+": x + y, "-": x - y, "*": x * y}[op]
    return None


def folded_integer(e: Expr):
    """The integer that a kernel takes a non-literal exponent ``e`` to be
    when it is written, else None: the value of a tree that is constant by
    its structure (a literal; x - x = 0 and x / x = 1 for equal subtrees;
    0 * x = 0; and negations, sums, differences, products and quotients of
    such values, x / y as x * (1 / y)), where it is an integer n with
    |n| <= 1024."""
    value = _fold(e)
    if value is not None and float(value).is_integer() and abs(value) <= 1024:
        return int(value)
    return None
