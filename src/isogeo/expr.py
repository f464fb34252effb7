"""Infix expression language for surface definitions.

Grammar, lowest to highest binding:

    expr    := term   (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?          right-associative
    atom    := NUMBER | "pi" | "e" | "u" | "v"
             | FUNC "(" expr ")" | "(" expr ")"

FUNC is one of sin cos tan sinh cosh tanh exp log sqrt abs; u and v are
the only variables.  ``^`` with a constant integer exponent is evaluated
by repeated multiplication so negative bases work; any other exponent
goes through exp(b*log(a)) and requires a positive base.

Parsing is total: the first error aborts with the byte offset of the
offending token.  Trees are immutable; evaluation is pure.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Union

from . import jets
from .errors import DomainError, ExprSyntaxError
from .jets import Jet2


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str  # "u" or "v"


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # "neg" or a function name
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Unary, Binary]

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("u", "v")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # num | name | op | lparen | rparen | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            # consume an exponent only when digits actually follow
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(_Token("num", source[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and source[i].isalpha():
                i += 1
            tokens.append(_Token("name", source[start:i], start))
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if value == math.inf:  # a literal cannot be nan or negative
                raise ExprSyntaxError(f"number {tok.text!r} overflows a float", tok.pos)
            return Const(value)
        if tok.kind == "name":
            if tok.text in VARIABLES:
                return Var(tok.text)
            if tok.text in CONSTANTS:
                return Const(CONSTANTS[tok.text])
            if tok.text in FUNCTIONS:
                opening = self.advance()
                if opening.kind != "lparen":
                    raise ExprSyntaxError(
                        f"expected '(' after function {tok.text!r}", opening.pos
                    )
                arg = self.expr()
                closing = self.advance()
                if closing.kind != "rparen":
                    raise ExprSyntaxError("unbalanced parenthesis", closing.pos)
                return Unary(tok.text, arg)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "lparen":
            node = self.expr()
            closing = self.advance()
            if closing.kind != "rparen":
                raise ExprSyntaxError("unbalanced parenthesis", closing.pos)
            return node
        if tok.kind == "rparen":
            raise ExprSyntaxError("unbalanced parenthesis", tok.pos)
        raise ExprSyntaxError("unexpected end of expression", tok.pos)


def parse(source: str) -> Expr:
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected token {trailing.text!r}", trailing.pos)
    return node


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
            return jets.powj(a, b)
    raise TypeError(f"not an expression node: {e!r}")


# ------------------------------------------------------------ jet kernels
#
# ``compile_jet`` writes the jet arithmetic of several trees out as one
# straight-line Python function (forward-mode Taylor arithmetic, as in
# Griewank & Walther, "Evaluating Derivatives", ch. 13).  Every order-2
# line repeats an operation of ``jets.Jet2`` on the same operands in the
# same grouping, with no algebraic folding, so the kernel's floats are
# bit-identical to ``eval_jet2`` (NaN sign and payload aside, which
# CPython's own float arithmetic does not keep stable) and its
# DomainErrors (type and message) arise in the same post-order.  Order 3
# adds third partials after each node's order-2 lines, lines that cannot
# raise, so it fails where order 2 fails and otherwise repeats its floats.
# Structurally identical operations are emitted once: the same
# operations on the same inputs give the same bits.
# Constants are bound by name in the kernel's namespace, never written as
# source literals; the source holds only generated identifiers.

# Per elementary function: statements, then the chain-rule factors
# (f0, f1, f2, f3) at the argument value {x}, mirroring the function of
# the same name in ``jets``; f3 is read at order 3 only.  {p} prefixes
# the node's temporaries.
_OVERFLOW = (
    "try:",
    "    {p}s = sinh({x})",
    "    {p}c = cosh({x})",
    "except OverflowError as exc:",
    "    raise DomainError('overflow in {fn}') from exc",
)
_NON_FINITE = ("if not isfinite({x}):", "    raise DomainError(f'{fn} of non-finite value {{{x}!r}}')")
_SIN_COS = (*_NON_FINITE, "{p}s = sin({x})", "{p}c = cos({x})")
_CHAIN_SRC = {
    "sin": (_SIN_COS, ("{p}s", "{p}c", "-{p}s", "-{p}c")),
    "cos": (_SIN_COS, ("{p}c", "-{p}s", "-{p}c", "{p}s")),
    "tan": (
        (*_NON_FINITE, "{p}t = tan({x})", "{p}d = 1.0 + {p}t * {p}t"),
        ("{p}t", "{p}d", "2.0 * {p}t * {p}d", "2.0 * {p}d * ({p}d + 2.0 * ({p}t * {p}t))"),
    ),
    "sinh": (_OVERFLOW, ("{p}s", "{p}c", "{p}s", "{p}c")),
    "cosh": (_OVERFLOW, ("{p}c", "{p}s", "{p}c", "{p}s")),
    "tanh": (
        ("{p}t = tanh({x})", "{p}d = 1.0 - {p}t * {p}t"),
        ("{p}t", "{p}d", "-2.0 * {p}t * {p}d", "2.0 * {p}d * (2.0 * ({p}t * {p}t) - {p}d)"),
    ),
    "exp": (
        (
            "try:",
            "    {p}e = exp({x})",
            "except OverflowError as exc:",
            "    raise DomainError('overflow in exp') from exc",
        ),
        ("{p}e", "{p}e", "{p}e", "{p}e"),
    ),
    "log": (
        (
            "if {x} <= 0.0:",
            "    raise DomainError(f'log of non-positive value {{{x}!r}}')",
            "{p}i = 1.0 / {x}",
        ),
        ("log({x})", "{p}i", "-{p}i * {p}i", "2.0 * {p}i * {p}i * {p}i"),
    ),
    "sqrt": (
        (
            "if {x} <= 0.0:",
            "    raise DomainError(f'sqrt of non-positive value {{{x}!r}}')",
            "{p}r = sqrt({x})",
            "{p}d = 0.5 / {p}r",
        ),
        # {x} > 0, so neither division can divide by zero
        ("{p}r", "{p}d", "-0.5 * {p}d / {x}", "0.75 * {p}d / {x} / {x}"),
    ),
    "abs": (
        (
            "if {x} == 0.0:",
            "    raise DomainError('abs is not differentiable at 0')",
            "{p}s = 1.0 if {x} > 0.0 else -1.0",
        ),
        ("abs({x})", "{p}s", "0.0", "0.0"),
    ),
    "recip": (
        (
            "if {x} == 0.0:",
            "    raise DomainError('division by zero')",
            "{p}i = 1.0 / {x}",
        ),
        ("{p}i", "-{p}i * {p}i", "2.0 * {p}i * {p}i * {p}i", "-6.0 * {p}i * {p}i * {p}i * {p}i"),
    ),
}


def _powj_flat(*c: float) -> tuple[float, ...]:
    """``jets.powj`` on two jets given as 12 floats."""
    r = jets.powj(Jet2(*c[:6]), Jet2(*c[6:]))
    return r.val, r.du, r.dv, r.duu, r.duv, r.dvv


def _pow_int_factors(x: float, n: int) -> tuple[float, float, float]:
    """(f1, f2, f3) of t -> t^n at x.  f1 and f2 come from ``jets.pow_int``
    on the values the order-2 part multiplied, so they raise nowhere it did
    not (it raised for 0^n, n < 0); f3 = (n - 2) f2 / x divides by x != 0."""
    t = jets.pow_int(Jet2(x, 1.0), n)
    return t.du, t.duu, (n - 2) * t.duu / x if x != 0.0 else (6.0 if n == 3 else 0.0)


def _chain_terms(a, f1: str, f2: str, f3: str = "") -> list[str]:
    """Partials of f(a) given the derivatives f1, f2 (and f3) of f at a."""
    a0, a1, a2, a3, a4, a5, *third = a
    terms = [
        f"{f1} * {a1}",
        f"{f1} * {a2}",
        f"{f2} * ({a1} * {a1}) + {f1} * {a3}",
        f"{f2} * ({a1} * {a2}) + {f1} * {a4}",
        f"{f2} * ({a2} * {a2}) + {f1} * {a5}",
    ]
    if third:
        a6, a7, a8, a9 = third
        terms += [
            f"{f3} * ({a1} * {a1} * {a1}) + 3.0 * {f2} * ({a1} * {a3}) + {f1} * {a6}",
            f"{f3} * ({a1} * {a1} * {a2}) + {f2} * ({a3} * {a2} + 2.0 * ({a1} * {a4})) + {f1} * {a7}",
            f"{f3} * ({a1} * {a2} * {a2}) + {f2} * ({a5} * {a1} + 2.0 * ({a2} * {a4})) + {f1} * {a8}",
            f"{f3} * ({a2} * {a2} * {a2}) + 3.0 * {f2} * ({a2} * {a5}) + {f1} * {a9}",
        ]
    return terms


class _KernelWriter:
    """Emits the lines of one kernel of the given order; a jet is the tuple
    of the names holding (val, du, dv, duu, duv, dvv), followed at order 3
    by (duuu, duuv, duvv, dvvv)."""

    def __init__(self, order: int, namespace: dict | None = None, prefix: str = "j") -> None:
        self.order = order
        self.ZERO = zeros = ("ZERO",) * (4 * order - 3)  # 5 at order 2, 9 at order 3
        self.ONE = ("ONE",) + zeros
        self.U = ("U", "ONE") + zeros[1:]  # jets.seed_u
        self.V = ("V", "ZERO", "ONE") + zeros[2:]  # jets.seed_v
        self.prefix = prefix
        self.lines: list[str] = []
        self.namespace: dict[str, object] = namespace if namespace is not None else {
            "ZERO": 0.0,
            "ONE": 1.0,
            "DomainError": DomainError,
            "Jet2": Jet2,
            "_powj": _powj_flat,
            "_integer_exponent": jets.integer_exponent,
            "_pow_int_factors": _pow_int_factors,
            **{name: getattr(math, name) for name in
               ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "isfinite")},
        }
        self.emitted: dict[tuple, tuple[str, ...]] = {}

    def node(self, key: tuple, emit) -> tuple[str, ...]:
        """The jet for ``key``, emitting it on first use only."""
        jet = self.emitted.get(key)
        if jet is None:
            p = f"{self.prefix}{len(self.emitted)}_"
            jet = emit(p)
            self.emitted[key] = jet
        return jet

    def lines_for(self, p: str, exprs: list[str]) -> tuple[str, ...]:
        names = tuple(f"{p}{k}" for k in range(len(exprs)))
        self.lines.extend(f"{n} = {x}" for n, x in zip(names, exprs))
        return names

    def const(self, value) -> tuple[str, ...]:
        # floats are shared by bit pattern (0.0 and -0.0 differ); any other
        # number type keeps its own slot, since Jet2 keeps the type
        if type(value) is float:
            key = ("const", struct.pack("<d", value))
        else:
            key = ("const", len(self.emitted))

        def emit(p: str) -> tuple[str, ...]:
            self.namespace[f"{p}k"] = value
            return (f"{p}k",) + self.ZERO

        return self.node(key, emit)

    def neg(self, a) -> tuple[str, ...]:
        return self.node(("neg", a), lambda p: self.lines_for(p, [f"-{x}" for x in a]))

    def add_sub(self, op: str, a, b) -> tuple[str, ...]:
        return self.node(
            (op, a, b),
            lambda p: self.lines_for(p, [f"{x} {op} {y}" for x, y in zip(a, b)]),
        )

    def mul(self, a, b) -> tuple[str, ...]:
        a0, a1, a2, a3, a4, a5 = a[:6]
        b0, b1, b2, b3, b4, b5 = b[:6]
        terms = [
            f"{a0} * {b0}",
            f"{a1} * {b0} + {a0} * {b1}",
            f"{a2} * {b0} + {a0} * {b2}",
            # "+" groups to the left, as the parentheses in Jet2.__mul__ do
            f"{a3} * {b0} + {a0} * {b3} + 2.0 * ({a1} * {b1})",
            f"{a4} * {b0} + {a0} * {b4} + ({a1} * {b2} + {a2} * {b1})",
            f"{a5} * {b0} + {a0} * {b5} + 2.0 * ({a2} * {b2})",
        ]
        if self.order == 3:  # Leibniz's rule
            a6, a7, a8, a9 = a[6:]
            b6, b7, b8, b9 = b[6:]
            terms += [
                f"{a6} * {b0} + {a0} * {b6} + 3.0 * ({a3} * {b1} + {a1} * {b3})",
                f"{a7} * {b0} + {a0} * {b7} + ({a3} * {b2} + {a2} * {b3})"
                f" + 2.0 * ({a4} * {b1} + {a1} * {b4})",
                f"{a8} * {b0} + {a0} * {b8} + ({a5} * {b1} + {a1} * {b5})"
                f" + 2.0 * ({a4} * {b2} + {a2} * {b4})",
                f"{a9} * {b0} + {a0} * {b9} + 3.0 * ({a5} * {b2} + {a2} * {b5})",
            ]
        return self.node(("*", a, b), lambda p: self.lines_for(p, terms))

    def chain(self, fn: str, a) -> tuple[str, ...]:
        statements, factors = _CHAIN_SRC[fn]

        def emit(p: str) -> tuple[str, ...]:
            fill = {"p": p, "x": a[0], "fn": fn}
            self.lines.extend(s.format(**fill) for s in statements)
            f0, *fs = (f.format(**fill) for f in factors[: self.order + 1])
            # f1, f2 (and f3) are evaluated once each, as the arguments of _chain
            for k, fk in enumerate(fs):
                if not fk.isidentifier():
                    self.lines.append(f"{p}f{k + 1} = {fk}")
                    fs[k] = f"{p}f{k + 1}"
            return self.lines_for(p, [f0, *_chain_terms(a, *fs)])

        return self.node((fn, a), emit)

    def pow_int(self, a, n: int) -> tuple[str, ...]:
        if n < 0:
            return self.chain("recip", self.pow_int(a, -n))
        result, base = self.ONE, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            # jets.pow_int squares once more after the last bit; that
            # product is unused and cannot raise where result * base did
            # not, so it is left out
            if n:
                base = self.mul(base, base)
        return result

    def powj(self, a, b) -> tuple[str, ...]:
        def emit(p: str) -> tuple[str, ...]:
            names = tuple(f"{p}{k}" for k in range(len(a)))
            self.lines.append(f"{', '.join(names[:6])} = _powj({', '.join(a[:6] + b[:6])})")
            if self.order == 3:
                self.third_of_power(p, a, b, names[6:])
            return names

        return self.node(("^", a, b), emit)

    def third_of_power(self, p: str, a, b, out) -> None:
        """Third partials of a ** b on the branch ``jets.powj`` took for
        the order-2 part; exp(b * log(a)) gets a writer of its own, so
        that no name defined inside the branch is shared outside it."""
        sub = _KernelWriter(3, self.namespace, f"{p}x")
        e = sub.chain("exp", sub.mul(b, sub.chain("log", a)))
        f1, f2, f3 = f"{p}f1", f"{p}f2", f"{p}f3"
        self.lines += [
            f"{p}n = _integer_exponent(Jet2({', '.join(b[:6])}))",
            f"if {p}n is not None:",
            f"    {f1}, {f2}, {f3} = _pow_int_factors({a[0]}, {p}n)",
            *(f"    {o} = {t}" for o, t in zip(out, _chain_terms(a, f1, f2, f3)[5:])),
            "else:",
            *(f"    {line}" for line in sub.lines),
            f"    {', '.join(out)} = {', '.join(e[6:])}",
        ]

    def expr(self, e: Expr) -> tuple[str, ...]:
        match e:
            case Const(value):
                return self.const(value)
            case Var(name):
                return self.U if name == "u" else self.V
            case Unary(op, arg):
                if op not in jets.UNARY:
                    raise KeyError(op)
                a = self.expr(arg)
                return self.neg(a) if op == "neg" else self.chain(op, a)
            case Binary(op, left, right):
                a = self.expr(left)
                b = self.expr(right)
                if op in ("+", "-"):
                    return self.add_sub(op, a, b)
                if op == "*":
                    return self.mul(a, b)
                if op == "/":
                    return self.mul(a, self.chain("recip", b))
                # a constant exponent takes jets.powj's branch at compile
                # time; any other waits for the values at run time
                if isinstance(right, Const):
                    n = jets.integer_exponent(Jet2(right.value))
                    if n is not None:
                        return self.pow_int(a, n)
                return self.powj(a, b)
        raise TypeError(f"not an expression node: {e!r}")


def compile_jet(
    exprs, order: int, *, args: str = "u, v", head=(), bind=(), tail=(), env=None
) -> Callable[..., tuple[float, ...]]:
    """One function ``(u, v) -> floats``.  At order 2 it gives, for each
    tree in order, the value and partials (val, du, dv, duu, duv, dvv)
    that ``eval_jet2`` gives, bit for bit, and raises the same DomainError
    as when the trees are walked one after the other.  At order 3 the
    same floats are followed by the third partials (duuu, duuv, duvv,
    dvvv) of each tree in order.

    A kernel with ``tail`` lines does not return the floats: it binds
    them in order to the names ``bind`` and runs ``tail``, which returns.
    It takes the arguments ``args``, which begin with u and v, runs the
    ``head`` lines before the jet, and its lines see ``env``'s names."""
    writer = _KernelWriter(order)
    results = [writer.expr(e) for e in exprs]
    outputs = [name for r in results for name in r[:6]] + [name for r in results for name in r[6:]]
    body = [*head, "U = float(u)", "V = float(v)", *writer.lines]
    if tail:
        body += [f"{name} = {out}" for name, out in zip(bind, outputs, strict=True)] + list(tail)
    else:
        body.append(f"return ({''.join(f'{name}, ' for name in outputs)})")
    return compile_function(f"kernel({args})", body, {**writer.namespace, **(env or {})})


def compile_function(signature: str, lines, namespace: dict) -> Callable:
    """``def signature:`` with the given body lines, compiled with
    ``namespace`` as its globals."""
    name = signature.partition("(")[0]
    source = f"def {signature}:\n" + "".join(f"    {line}\n" for line in lines)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    # popped, so that the function and its namespace form no reference cycle
    return namespace.pop(name)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 9


def _prec(e: Expr) -> int:
    match e:
        case Binary(op, _, _):
            return _PREC[op]
        case Unary("neg", _):
            return _PREC["neg"]
        case Const(value) if math.copysign(1.0, value) < 0.0:
            return _PREC["neg"]  # printed with its sign, it reads as a negation
        case _:
            return _ATOM_PREC


def to_source(e: Expr) -> str:
    """Print with minimal parentheses.  ``parse(to_source(e)) == e`` for
    every tree that ``parse`` builds.  ``parse`` never builds a negative
    or a non-finite constant: ``Const(c)`` with c < 0 (or c = -0.0)
    prints with its sign and comes back as ``neg(Const(-c))``, and inf
    and nan print as names that ``parse`` does not know."""
    match e:
        case Const(value):
            return repr(value)
        case Var(name):
            return name
        case Unary("neg", arg):
            inner = to_source(arg)
            if _prec(arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        case Unary(op, arg):
            return f"{op}({to_source(arg)})"
        case Binary(op, left, right):
            lsrc, rsrc = to_source(left), to_source(right)
            p = _PREC[op]
            if op == "^":
                if _prec(left) <= p:
                    lsrc = f"({lsrc})"
                if _prec(right) < p:
                    rsrc = f"({rsrc})"
            else:
                if _prec(left) < p:
                    lsrc = f"({lsrc})"
                if _prec(right) <= p:
                    rsrc = f"({rsrc})"
            return f"{lsrc} {op} {rsrc}"
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e: Expr, bindings: dict[str, Expr]) -> Expr:
    """Replace variables by whole subtrees (used to compose expressions)."""
    match e:
        case Const(_):
            return e
        case Var(name):
            return bindings.get(name, e)
        case Unary(op, arg):
            return Unary(op, substitute(arg, bindings))
        case Binary(op, left, right):
            return Binary(op, substitute(left, bindings), substitute(right, bindings))
    raise TypeError(f"not an expression node: {e!r}")


def variables_of(e: Expr) -> set[str]:
    match e:
        case Const(_):
            return set()
        case Var(name):
            return {name}
        case Unary(_, arg):
            return variables_of(arg)
        case Binary(_, left, right):
            return variables_of(left) | variables_of(right)
    raise TypeError(f"not an expression node: {e!r}")
