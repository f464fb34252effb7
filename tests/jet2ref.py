"""Reference second-order jets of expression trees for tests: a tree walk
over ``jets.Jet2``, which the compiled kernels of ``isogeo.expr.compile_jet``
must match bit for bit, DomainErrors (type, message and post-order)
included."""

from __future__ import annotations

import jets
from jets import Jet2
from isogeo.expr import Binary, Const, Expr, Unary, Var


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
            return jets.powj(a, b)
    raise TypeError(f"not an expression node: {e!r}")
