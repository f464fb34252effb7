"""Infix expression language for surface definitions.

Grammar, lowest to highest binding:

    expr    := term   (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?          right-associative
    atom    := NUMBER | "pi" | "e" | "u" | "v"
             | FUNC "(" expr ")" | "(" expr ")"

FUNC is one of sin cos tan sinh cosh tanh exp log sqrt abs; u and v are
the only variables.  ``^`` with an exponent that is an integer n,
|n| <= 1024, by its structure (2, v/v, v - v + 3) or where its first and
second partials vanish, is evaluated by repeated squaring so negative
bases work; any other exponent goes through exp(b*log(a)) and requires a
positive base.

Parsing is total: the first error aborts with the offset of the
offending token, a code-point index into the source ``str``, and nesting
past ``MAX_DEPTH`` is such an error.  Trees are immutable; evaluation is pure.
"""

from __future__ import annotations

import functools
import math
import re
import struct
import types
from typing import Callable, NamedTuple, Union

from .errors import DomainError, ExprSyntaxError


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str  # "u" or "v"


class Unary(NamedTuple):
    op: str  # "neg" or a function name
    arg: "Expr"


class Binary(NamedTuple):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


def _node_eq(self, other) -> bool:
    # a node equals only a node of its own type, never a plain tuple;
    # equal nodes keep equal tuple hashes
    return type(other) is type(self) and tuple.__eq__(self, other)


for _node in (Const, Var, Unary, Binary):
    _node.__eq__, _node.__ne__ = _node_eq, lambda self, other: not _node_eq(self, other)


Expr = Union[Const, Var, Unary, Binary]

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("u", "v")


class _Token(NamedTuple):
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
        if ch.isdecimal() or (ch == "." and i + 1 < n and source[i + 1].isdecimal()):
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdecimal():
                    i += 1
            # consume an exponent only when digits actually follow
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdecimal():
                    i = j
                    while i < n and source[i].isdecimal():
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


# The deepest nesting ``parse`` accepts.  A parenthesis, a function call, a
# negation and an exponent each nest the parser one level further, and the
# tree it returns, through which the kernel writer and ``to_source`` recurse,
# may be at most this many nodes deep (a sum of n terms is n deep).  At five
# frames a level, the parser stays well inside the recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Each rule takes the nesting ``level`` it parses at, one more for each
    enclosing parenthesis, function call, negation and exponent, and
    returns its node with the node's height."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    @staticmethod
    def bounded(depth: int, tok: _Token) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", tok.pos)
        return depth

    def expr(self, level: int, ops: str = "+-") -> tuple[Expr, int]:
        """The left-associative levels: ``+ -`` over terms, and ``* /`` over factors."""
        operand = functools.partial(self.expr, ops="*/") if ops == "+-" else self.factor
        node, height = operand(level)
        while self.peek().kind == "op" and self.peek().text in ops:
            tok = self.advance()
            right, h = operand(level)
            node, height = Binary(tok.text, node, right), self.bounded(1 + max(height, h), tok)
        return node, height

    def factor(self, level: int) -> tuple[Expr, int]:
        if self.peek().kind == "op" and self.peek().text == "-":
            tok = self.advance()
            arg, h = self.factor(self.bounded(level + 1, tok))
            return Unary("neg", arg), self.bounded(1 + h, tok)
        return self.power(level)

    def power(self, level: int) -> tuple[Expr, int]:
        base, height = self.atom(level)
        if self.peek().kind == "op" and self.peek().text == "^":
            tok = self.advance()
            exponent, h = self.factor(self.bounded(level + 1, tok))
            return Binary("^", base, exponent), self.bounded(1 + max(height, h), tok)
        return base, height

    def atom(self, level: int) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if value == math.inf:  # a literal cannot be nan or negative
                raise ExprSyntaxError(f"number {tok.text!r} overflows a float", tok.pos)
            return Const(value), 1
        if tok.kind == "name":
            if tok.text in VARIABLES:
                return Var(tok.text), 1
            if tok.text in CONSTANTS:
                return Const(CONSTANTS[tok.text]), 1
            if tok.text in FUNCTIONS:
                opening = self.advance()
                if opening.kind != "lparen":
                    raise ExprSyntaxError(
                        f"expected '(' after function {tok.text!r}", opening.pos
                    )
                arg, h = self.expr(self.bounded(level + 1, tok))
                closing = self.advance()
                if closing.kind != "rparen":
                    raise ExprSyntaxError("unbalanced parenthesis", closing.pos)
                return Unary(tok.text, arg), self.bounded(1 + h, tok)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "lparen":
            node = self.expr(self.bounded(level + 1, tok))
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
    node, _ = parser.expr(1)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected token {trailing.text!r}", trailing.pos)
    return node


# ------------------------------------------------------------ jet kernels
#
# ``compile_jet`` writes the jet arithmetic of several trees out as one
# straight-line Python function (forward-mode Taylor arithmetic, as in
# Griewank & Walther, "Evaluating Derivatives", ch. 13).  Every order-2
# line is one operation of second-order jet arithmetic in a fixed
# grouping, with no algebraic folding beyond the structural zeros and
# ones of the partials (see ``_Src``; the sparse forward mode of the same
# book), so the floats are those of a tree walk that does the same
# operations in the same grouping and skips the same slots (the tests
# keep one as the reference), NaN sign and payload aside, which CPython's
# own float arithmetic does not keep stable.  DomainErrors (type and message)
# arise in the tree's post-order.  Order 3 adds third partials after each
# node's order-2 lines, lines that cannot raise, so it fails where order
# 2 fails and otherwise repeats its floats; an integer power multiplies at
# the kernel's order, its exponent known when the kernel is written or only
# at run time (see ``powj``).  Structurally identical
# operations are emitted once: the same operations on the same inputs
# give the same bits.  A kernel calls no helper: only ``math`` functions,
# the builtins float, int and abs, and DomainError.
# Constants are bound by name in the kernel's namespace, never written as
# source literals; the source holds only generated identifiers.  The fused
# point kernels write their lines after the jet's from templates over the
# jet's slots (``Lines``), with the same structural rule.  In every kernel,
# one liveness pass (``Lines.statements``) from its return writes a let
# only where a later statement reads it.

# Per elementary function: statements, then the chain-rule factors
# (f0, f1, f2, f3) at the argument value {x}; f3 is read at order 3 only.
# A statement is a guard or block, one string of lines, or a let (name,
# value).  {p} prefixes the node's temporaries, {q} those of its
# statements: sin and cos of one argument share one block of them, and so
# do sinh and cosh, the block of the first of them, whose message it keeps.
_OVERFLOW = (
    "try:\n"
    "    {q}s = sinh({x})\n"
    "    {q}c = cosh({x})\n"
    "except OverflowError as exc:\n"
    "    raise DomainError('overflow in {fn}') from exc",
)
_NON_FINITE = ("if not isfinite({x}):\n    raise DomainError(f'{fn} of non-finite value {{{x}!r}}')",)
_SIN_COS = (*_NON_FINITE, ("{q}s", "sin({x})"), ("{q}c", "cos({x})"))
_SHARED = (_OVERFLOW, _SIN_COS)
_CHAIN_SRC = {
    "sin": (_SIN_COS, ("{q}s", "{q}c", "-{q}s", "-{q}c")),
    "cos": (_SIN_COS, ("{q}c", "-{q}s", "-{q}c", "{q}s")),
    "tan": (
        (*_NON_FINITE, ("{p}t", "tan({x})"), ("{p}d", "1.0 + {p}t * {p}t")),
        ("{p}t", "{p}d", "2.0 * {p}t * {p}d", "2.0 * {p}d * ({p}d + 2.0 * ({p}t * {p}t))"),
    ),
    "sinh": (_OVERFLOW, ("{q}s", "{q}c", "{q}s", "{q}c")),
    "cosh": (_OVERFLOW, ("{q}c", "{q}s", "{q}c", "{q}s")),
    "tanh": (
        (("{p}t", "tanh({x})"), ("{p}d", "1.0 - {p}t * {p}t")),
        ("{p}t", "{p}d", "-2.0 * {p}t * {p}d", "2.0 * {p}d * (2.0 * ({p}t * {p}t) - {p}d)"),
    ),
    "exp": (
        ("try:\n    {p}e = exp({x})\nexcept OverflowError as exc:\n    raise DomainError('overflow in exp') from exc",),
        ("{p}e", "{p}e", "{p}e", "{p}e"),
    ),
    "log": (
        ("if {x} <= 0.0:\n    raise DomainError(f'log of non-positive value {{{x}!r}}')", ("{p}i", "1.0 / {x}")),
        ("log({x})", "{p}i", "-{p}i * {p}i", "2.0 * {p}i * {p}i * {p}i"),
    ),
    "sqrt": (
        (
            "if {x} <= 0.0:\n    raise DomainError(f'sqrt of non-positive value {{{x}!r}}')",
            ("{p}r", "sqrt({x})"),
            ("{p}d", "0.5 / {p}r"),
        ),
        # {x} > 0, so neither division can divide by zero
        ("{p}r", "{p}d", "-0.5 * {p}d / {x}", "0.75 * {p}d / {x} / {x}"),
    ),
    "abs": (
        (
            "if {x} == 0.0:\n    raise DomainError('abs is not differentiable at 0')",
            ("{p}s", "1.0 if {x} > 0.0 else -1.0"),
        ),
        ("abs({x})", "{p}s", "0.0", "0.0"),
    ),
    "recip": (
        ("if {x} == 0.0:\n    raise DomainError('division by zero')", ("{p}i", "1.0 / {x}")),
        ("{p}i", "-{p}i * {p}i", "2.0 * {p}i * {p}i * {p}i", "-6.0 * {p}i * {p}i * {p}i * {p}i"),
    ),
}


def _integer_exponent(value) -> int | None:
    """The n for which a ** value is the integer power a^n, else None (also
    for a value of None): an integral value with |n| <= 1024.
    ``_KernelWriter.powj`` writes the same test out for an exponent known
    only at run time, which also needs the exponent's first and second
    partials to be 0."""
    return int(value) if value is not None and float(value).is_integer() and abs(value) <= 1024 else None


def _folded(e: Expr) -> float | None:
    """The value of a tree that is constant by its structure, else None:
    literals, x - x = 0 and x / x = 1 for equal subtrees, 0 * x = 0, and what
    negation, +, -, * and / make of such values, rounded as the jet rounds."""
    match e:
        case Const(value):
            return value
        case Unary("neg", arg) if (x := _folded(arg)) is not None:
            return -x
        case Binary("-" | "/" as op, left, right) if left == right:
            return 0.0 if op == "-" else 1.0
        case Binary("+" | "-" | "*" | "/" as op, left, right):
            x, y = _folded(left), _folded(right)
            if op == "*" and 0.0 in (x, y):
                return 0.0
            if x is not None and y is not None and (op != "/" or y != 0.0):
                return x + y if op == "+" else x - y if op == "-" else x * (y if op == "*" else 1.0 / y)
    return None


class _Src:
    """The kernel source of one float expression, built with Python's own
    operators, so that a template reads as the arithmetic it writes and
    groups as Python does.  The names ZERO and ONE are structural: they
    hold a slot known to be 0 or 1 when the kernel is written.  A product
    with ZERO is ZERO, a factor ONE is dropped, and so is a term ZERO of a
    sum or difference; ZERO / x is ZERO and x / ONE is x.  ``tests/jets.py``
    keeps the same rule on floats."""

    __slots__ = ("text", "prec")  # prec: 1 sum, 2 product, 3 atom

    def __init__(self, text, prec: int = 3) -> None:
        self.text = text if isinstance(text, str) else repr(text)
        self.prec = prec

    def __str__(self) -> str:
        return self.text

    def _operand(self, prec: int) -> str:
        return self.text if self.prec >= prec else f"({self.text})"

    def __mul__(self, other) -> "_Src":
        other = _src(other)
        if "ZERO" in (self.text, other.text):
            return _Src("ZERO")
        if self.text == "ONE":
            return other
        if other.text == "ONE":
            return self
        return _Src(f"{self._operand(2)} * {other._operand(3)}", 2)

    def __rmul__(self, other) -> "_Src":
        return _src(other) * self

    def __truediv__(self, other) -> "_Src":
        other = _src(other)
        if self.text == "ZERO" or other.text == "ONE":
            return self
        return _Src(f"{self._operand(2)} / {other._operand(3)}", 2)

    def __add__(self, other) -> "_Src":
        other = _src(other)
        if self.text == "ZERO":
            return other
        if other.text == "ZERO":
            return self
        return _Src(f"{self.text} + {other._operand(2)}", 1)

    def __radd__(self, other) -> "_Src":
        return _src(other) + self

    def __rsub__(self, other) -> "_Src":
        return _src(other) - self

    def __sub__(self, other) -> "_Src":
        other = _src(other)
        if other.text == "ZERO":
            return self
        if self.text == "ZERO":
            return -other
        return _Src(f"{self.text} - {other._operand(2)}", 1)

    def __neg__(self) -> "_Src":
        return self if self.text == "ZERO" else _Src(f"-{self._operand(3)}")


def _src(x) -> _Src:
    return x if isinstance(x, _Src) else _Src(x)


# a name, and the targets of each assignment of a block (also m >>= 1);
# compiled on first use, by the re module's cache
_NAME, _TARGETS = r"[A-Za-z_]\w*", r"^ *(?:(?:\w+, )*\w+ (?:>>)?= )+"


class Statement(NamedTuple):
    """A kernel statement: its lines, the names they read outside its raise
    lines, the names it assigns, in order, and the names its raise lines read."""
    lines: tuple[str, ...]
    reads: set[str]
    writes: tuple[str, ...]
    message: frozenset[str]


class Lines:
    """Kernel statements written from templates over slots: the ``_Src``
    that holds a named quantity, such as xu or h11, where that is not the
    name itself, so that a template over no slots writes plain source.
    ``let`` writes a one-line assignment as its (name, value) pairs, and
    ``line`` a guard, a block or a loop, into which the template formats
    the slots it reads, as one ``Statement``.  A let reads its own targets
    too, as its text does, though no kernel needs that: the one let that a
    later statement re-assigns, a run-time integer power's loop state, is
    read by that loop itself, which keeps the let in its place."""

    def __init__(self, slots=()) -> None:
        self.slots, self.body = dict(slots), []  # statements, and the (name, value) pairs of each let

    def get(self, names: str) -> list[_Src]:
        return [self.slots.get(n) or _Src(n) for n in names.replace(",", " ").split()]

    def values(self, names: str) -> str:
        """The slots of ``names`` as the text of a tuple's items."""
        return ", ".join(map(str, self.get(names)))

    def let(self, names: str, *values) -> list[_Src]:
        """``names = values``; returns the names' slots.  A value that is a
        name already (ZERO, ONE or a slot) becomes the name's slot, and
        writes no line."""
        pairs = []
        for name, value in zip(names.split(", "), map(_src, values)):
            slot = value.text.isidentifier()
            self.slots[name] = value if slot else _Src(name)
            pairs += [] if slot else [(name, value.text)]
        self.body += [pairs] if pairs else []
        return self.get(names)

    def line(self, *lines: str) -> None:
        """One guard, block or loop; a raise line only makes a message."""
        names, message = re.compile(_NAME).findall, [x for x in lines if x.lstrip().startswith("raise ")]
        test = [x for x in lines if x not in message]
        writes = tuple(names("".join(re.findall(_TARGETS, "\n".join(lines), re.M))))
        self.body.append(Statement(lines, set(names(" ".join(test))), writes, frozenset(names(" ".join(message)))))

    def statements(self, *after: str) -> list[Statement]:
        """The statements written, by one backward liveness pass from the
        lines ``after`` them: each let keeps only the names that a later
        statement or message reads, and every other statement is kept."""
        names = re.compile(_NAME).findall
        live, out = set(names(" ".join(after))), []
        for x in reversed(self.body):
            if type(x) is list:
                x = [(n, v) for n, v in x if n in live]
                if not x:
                    continue
                targets, values = zip(*x)
                text = f"{', '.join(targets)} = {', '.join(values)}"
                x = Statement((text,), set(names(text)), targets, frozenset())
            live |= x.reads
            live |= x.message
            out.append(x)
        return out[::-1]

    def lines(self, *after: str) -> list[str]:
        """The lines of ``statements(*after)``."""
        return [line for x in self.statements(*after) for line in x.lines]


def template_lines(template, *args) -> list[str]:
    """The lines of ``template(w, *args)`` over plain names, all of them:
    the pass runs from a line that reads every name a let assigns."""
    w = Lines()
    template(w, *args)
    return w.lines(*(n for x in w.body if type(x) is list for n, _ in x))


def _chain_terms(a, f1: str, f2: str, f3: str = "") -> list[str]:
    """Partials of f(a) given the derivatives f1, f2 (and f3) of f at a."""
    a0, a1, a2, a3, a4, a5, *third = map(_Src, a)
    f1, f2, f3 = _Src(f1), _Src(f2), _Src(f3)
    terms = [
        f1 * a1,
        f1 * a2,
        f2 * (a1 * a1) + f1 * a3,
        f2 * (a1 * a2) + f1 * a4,
        f2 * (a2 * a2) + f1 * a5,
    ]
    if third:
        a6, a7, a8, a9 = third
        terms += [
            f3 * (a1 * a1 * a1) + 3.0 * f2 * (a1 * a3) + f1 * a6,
            f3 * (a1 * a1 * a2) + f2 * (a3 * a2 + 2.0 * (a1 * a4)) + f1 * a7,
            f3 * (a2 * a2 * a1) + f2 * (a5 * a1 + 2.0 * (a2 * a4)) + f1 * a8,
            f3 * (a2 * a2 * a2) + 3.0 * f2 * (a2 * a5) + f1 * a9,
        ]
    return [str(t) for t in terms]


class _KernelWriter(Lines):
    """Writes the jet lines of one kernel of the given order; a jet is the
    tuple of the names holding (val, du, dv, duu, duv, dvv), followed at
    order 3 by (duuu, duuv, duvv, dvvv).  A slot may be the structural name
    ZERO or ONE (see ``_Src``): a constant's partials, a variable's, and
    what the jet rules make of them."""

    def __init__(self, order: int, namespace: dict | None = None, prefix: str = "j") -> None:
        super().__init__()
        self.order = order
        self.ZERO = zeros = ("ZERO",) * (4 * order - 3)  # 5 at order 2, 9 at order 3
        self.ONE = ("ONE",) + zeros
        self.U = ("U", "ONE") + zeros[1:]
        self.V = ("V", "ZERO", "ONE") + zeros[2:]
        self.prefix = prefix
        self.namespace: dict[str, object] = namespace if namespace is not None else {
            "ZERO": 0.0,
            "ONE": 1.0,
            "DomainError": DomainError,
            **{name: getattr(math, name) for name in
               ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "isfinite", "nan")},
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

    def lines_for(self, p: str, exprs) -> tuple[str, ...]:
        """A name for each expression: a new let for it, unless it is a
        name already, such as ZERO or ONE."""
        names = []
        for k, x in enumerate(map(str, exprs)):
            if not x.isidentifier():
                self.body.append([(f"{p}{k}", x)])
                x = f"{p}{k}"
            names.append(x)
        return tuple(names)

    def const(self, value) -> tuple[str, ...]:
        # floats are shared by bit pattern (0.0 and -0.0 differ); any other
        # number type keeps its own slot, since the arithmetic keeps the type
        if type(value) is float:
            key = ("const", struct.pack("<d", value))
        else:
            key = ("const", len(self.emitted))

        def emit(p: str) -> tuple[str, ...]:
            self.namespace[f"{p}k"] = value
            return (f"{p}k",) + self.ZERO

        return self.node(key, emit)

    def neg(self, a) -> tuple[str, ...]:
        return self.node(("neg", a), lambda p: self.lines_for(p, [-_Src(x) for x in a]))

    def add_sub(self, op: str, a, b) -> tuple[str, ...]:
        def emit(p: str) -> tuple[str, ...]:
            pairs = zip(map(_Src, a), map(_Src, b))
            return self.lines_for(p, [x + y if op == "+" else x - y for x, y in pairs])

        return self.node((op, a, b), emit)

    def mul(self, a, b) -> tuple[str, ...]:
        a0, a1, a2, a3, a4, a5, *a_third = map(_Src, a)
        b0, b1, b2, b3, b4, b5, *b_third = map(_Src, b)
        terms = [
            a0 * b0,
            a1 * b0 + a0 * b1,
            a2 * b0 + a0 * b2,
            a3 * b0 + a0 * b3 + 2.0 * (a1 * b1),
            a4 * b0 + a0 * b4 + (a1 * b2 + a2 * b1),
            a5 * b0 + a0 * b5 + 2.0 * (a2 * b2),
        ]
        if self.order == 3:  # Leibniz's rule
            a6, a7, a8, a9 = a_third
            b6, b7, b8, b9 = b_third
            terms += [
                a6 * b0 + a0 * b6 + 3.0 * (a3 * b1 + a1 * b3),
                a7 * b0 + a0 * b7 + (a3 * b2 + a2 * b3) + 2.0 * (a4 * b1 + a1 * b4),
                a8 * b0 + a0 * b8 + (a5 * b1 + a1 * b5) + 2.0 * (a4 * b2 + a2 * b4),
                a9 * b0 + a0 * b9 + 3.0 * (a5 * b2 + a2 * b5),
            ]
        return self.node(("*", a, b), lambda p: self.lines_for(p, terms))

    def chain(self, fn: str, a) -> tuple[str, ...]:
        statements, factors = _CHAIN_SRC[fn]

        def emit(p: str) -> tuple[str, ...]:
            fill = {"p": p, "q": p, "x": a[0], "fn": fn}

            def block(q: str) -> str:
                fill["q"] = q
                for s in statements:
                    if isinstance(s, str):
                        self.line(*s.format(**fill).split("\n"))
                    else:  # a let's (name, value)
                        self.body.append([(s[0].format(**fill), s[1].format(**fill))])
                return q

            if statements in _SHARED:
                fill["q"] = self.node(("block", statements, a[0]), block)
            else:
                block(p)
            f0, *fs = (f.format(**fill) for f in factors[: self.order + 1])
            # f1, f2 (and f3) are evaluated once each, before any term uses them
            names = [fk if fk.isidentifier() else f"{p}f{k + 1}" for k, fk in enumerate(fs)]
            self.body += [[(n, fk)] for n, fk in zip(names, fs) if n != fk]
            return self.lines_for(p, [f0, *_chain_terms(a, *names)])

        return self.node((fn, a), emit)

    def pow_int(self, a, n: int) -> tuple[str, ...]:
        """a^n for an int n known when the kernel is written, by repeated
        squaring, with a reciprocal for n < 0; negative bases stay legal."""
        if n < 0:
            return self.chain("recip", self.pow_int(a, -n))
        result, base = self.ONE, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            # no square after the last bit: it would go unused, and a
            # product of floats cannot raise
            if n:
                base = self.mul(base, base)
        return result

    def pow_int_loop(self, a, n: str) -> tuple[str, ...]:
        """a^n for the int held in the name ``n``: ``pow_int``'s
        multiplications in its order, as a loop over the bits of |n| whose
        steps are written by ``mul`` and ``chain`` at the writer's order."""

        def emit(p: str) -> tuple[str, ...]:
            r, q = (tuple(f"{p}{c}{k}" for k in range(len(a))) for c in "rq")

            def step(tag: str, target, op) -> list[str]:
                # a writer of its own, so that no temporary leaves the step
                sub = _KernelWriter(self.order, self.namespace, f"{p}{tag}")
                names = op(sub)
                return [*sub.lines(*names), f"{', '.join(target)} = {', '.join(names)}"]

            # the loop's state: |n|, the result 1 and the base a
            self.body.append([(f"{p}m", f"-{n} if {n} < 0 else {n}"), *zip(r, self.ONE), *zip(q, a)])
            self.line(
                f"while {p}m:",
                f"    if {p}m & 1:",
                *(f"        {x}" for x in step("a", r, lambda w: w.mul(r, q))),
                f"    {p}m >>= 1",
                f"    if {p}m:",
                *(f"        {x}" for x in step("b", q, lambda w: w.mul(q, q))),
            )
            self.line(f"if {n} < 0:", *(f"    {x}" for x in step("c", r, lambda w: w.chain("recip", r))))
            return r

        return self.node(("pow_int", a, n), emit)

    def real_power(self, a, b) -> tuple[str, ...]:
        """exp(b * log(a)), which needs a positive base."""
        self.line(
            f"if {a[0]} <= 0.0:",
            "    raise DomainError("
            f"f'power with non-integer exponent needs a positive base, got {{{a[0]}!r}}')",
        )
        return self.chain("exp", self.mul(b, self.chain("log", a)))

    def powj(self, a, b, folded: int | None = None) -> tuple[str, ...]:
        """a ** b with the branch taken at run time: an exponent whose first
        and second partials vanish and whose value passes
        ``_integer_exponent``'s test takes the integer power, any other
        ``real_power``.  At order 3 the integer power adds a^n ln(a) b_ijk,
        NaN for a <= 0, to each third partial whose b_ijk is not 0.  With the
        int ``folded``, the ``_folded`` value of an exponent such as v/v, whose
        rounding (v * (1/v) = 1 - 2^-53) fails that test, only that integer
        power is written.  Each branch has a writer of its own, so that no
        name defined inside a branch is shared outside it, and the result
        holds no structural slot."""

        def emit(p: str) -> tuple[str, ...]:
            out = tuple(f"{p}{k}" for k in range(len(a)))
            n = f"{p}n"
            integral = _KernelWriter(self.order, self.namespace, f"{p}i")
            power = integral.pow_int_loop(a, n)
            if folded is not None:  # one branch: its lines and names are the node's
                self.namespace[n] = folded
                self.body += integral.body
                return power
            real = _KernelWriter(self.order, self.namespace, f"{p}x")
            e = real.real_power(a, b)
            # a structural zero passes the test, and adds nothing, by construction
            tests = [f"{x} == 0.0" for x in b[1:6] if x != "ZERO"]
            third = [(o, x) for o, x in zip(out[6:], b[6:]) if x != "ZERO"]
            self.line(
                f"if {' and '.join(tests + [f'float({b[0]}).is_integer()'])} and abs({b[0]}) <= 1024:",
                f"    {n} = int({b[0]})",
                *(f"    {x}" for x in integral.lines(*power)),
                f"    {', '.join(out)} = {', '.join(power)}",
                *([f"    {p}l = {out[0]} * log({a[0]}) if {a[0]} > 0.0 else nan"] if third else []),
                *(f"    {o} = {o} + {p}l * {x} if {x} != 0.0 else {o}" for o, x in third),
                "else:",
                *(f"    {x}" for x in real.lines(*e)),
                f"    {', '.join(out)} = {', '.join(e)}",
            )
            return out

        return self.node(("^", a, b, folded), emit)

    def expr(self, e: Expr) -> tuple[str, ...]:
        match e:
            case Const(value):
                return self.const(value)
            case Unary("neg", Const(value)) if type(value) is float:
                # negation is exact: the constant -c has the bits of the jet's -c
                return self.const(-value)
            case Var(name):
                return self.U if name == "u" else self.V
            case Unary(op, arg):
                if op != "neg" and op not in FUNCTIONS:
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
                # a constant exponent's branch is known when the kernel is
                # written, and so is that of one that folds to an integer; any
                # other waits for the values at run time
                n = _integer_exponent(_folded(right))
                if isinstance(right, Const):
                    return self.real_power(a, b) if n is None else self.pow_int(a, n)
                return self.powj(a, b, n)
        raise TypeError(f"not an expression node: {e!r}")


def compile_jet(exprs, order: int) -> Callable[[float, float], tuple[float, ...]]:
    """One function ``(u, v) -> floats``.  At order 2 it gives, for each
    tree in order, the value and partials (val, du, dv, duu, duv, dvv),
    and raises the DomainError of the first failing node, the trees taken
    one after the other, each in post-order.  At order 3 the same floats
    are followed by the third partials (duuu, duuv, duvv, dvvv) of each
    tree in order.  Trees of one shape (see ``_shape``) share one compiled
    code object, each kernel binding its own floats."""

    def write() -> tuple[_KernelWriter, Callable]:
        writer, outputs = jet_writer(exprs, order)
        ret = f"return ({''.join(f'{name}, ' for name in outputs)})"
        return writer, compile_function("kernel(u, v)", ["U = float(u)", *writer.lines(ret), ret], writer.namespace)

    return compile_shaped(exprs, order, None, write)


def compile_shaped(exprs, order: int, tag, write: Callable) -> Callable:
    """The function that ``write()`` compiles, returning it with the writer
    that holds the ``jet_writer`` lines of ``exprs`` at ``order`` which it
    runs: one code object for all trees of one shape (see ``_shape``) and
    one hashable ``tag``, kept in ``_JET_KERNELS``, each function binding
    its own floats."""
    key, values = _shape(exprs, order)
    entry = _JET_KERNELS.get((key, tag))
    if entry is None:
        writer, kernel = write()
        names = [writer.emitted["const", struct.pack("<d", x)][0] for x in values]
        if len(_JET_KERNELS) >= _MAX_JET_KERNELS:
            del _JET_KERNELS[next(iter(_JET_KERNELS))]  # the oldest
        entry = _JET_KERNELS[key, tag] = kernel.__code__, kernel.__globals__, names, kernel.__defaults__
    code, namespace, names, defaults = entry
    return types.FunctionType(code, {**namespace, **dict(zip(names, values))}, None, defaults)


# compile_shaped's functions by shape and tag: (code, namespace, the name of
# each slot, the defaults)
_JET_KERNELS: dict = {}
_MAX_JET_KERNELS = 32


def _shape(exprs, order: int) -> tuple[tuple, list[float]]:
    """The key under which trees share one kernel, and the float of each
    slot in it.  A float literal becomes a slot, one per bit pattern (0.0
    and -0.0 differ), as the writer shares them, and so does the negation
    of one, the slot of -c, as the writer folds it; a literal under an
    exponent also keeps its bits, from which the writer picks the branch
    (``_folded``).  Any other constant keeps its type and ``repr``."""
    slots: dict[bytes, int] = {}
    values: list[float] = []

    def slot(value: float, exponent: bool):
        bits = struct.pack("<d", value)
        if bits not in slots:
            slots[bits] = len(values)
            values.append(value)
        return (slots[bits], bits) if exponent else slots[bits]

    def walk(e, exponent: bool):
        match e:
            case Const(value) if type(value) is float:
                return slot(value, exponent)
            case Const(value):  # by repr, which tells numpy's -0.0 from 0.0
                return type(value), repr(value)
            case Unary("neg", Const(value)) if type(value) is float:
                # the literal -c, which only an exponent tells from Const(-c)
                return ("neg", slot(-value, True)) if exponent else slot(-value, False)
            case Unary(op, arg):
                return op, walk(arg, exponent)
            case Binary(op, left, right):
                return op, walk(left, exponent), walk(right, exponent or op == "^")
        return e

    return (order, *(walk(e, False) for e in exprs)), values


def jet_writer(exprs, order: int) -> tuple[_KernelWriter, list[str]]:
    """The writer that holds the jet lines of ``compile_jet``'s kernel,
    from the float V of v on, which read the float U of u that the caller
    defines and raise what the kernel raises, with its ``namespace``; and
    the names of the floats the kernel returns, in its order.
    ``surface.point_lines`` writes the fused point kernels' frame lines
    into the same writer."""
    writer = _KernelWriter(order)
    writer.let("V", "float(v)")
    results = [writer.expr(e) for e in exprs]
    return writer, [name for r in results for name in r[:6]] + [name for r in results for name in r[6:]]


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
