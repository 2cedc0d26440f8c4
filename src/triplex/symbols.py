"""Expression language for coefficient symbols in (t, x, xi).

A small immutable AST with exact symbolic differentiation and vectorized
numpy evaluation.  It is deliberately tiny: the coefficient symbols of the
third-order model operator only need arithmetic, integer powers, sin, cos,
exp, sqrt and the bracket jp(u) = (1 + u^2)^(1/2).

Grammar accepted by :func:`parse_symbol` (whitespace is insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom (('^' | '**') integer)?
    atom   := number | 't' | 'x' | 'xi' | func '(' expr ')' | '(' expr ')'
    func   := sin | cos | exp | sqrt | jp

Numbers are unsigned decimal literals (``2``, ``0.5``, ``1e-3``).  There is
no unary minus; write ``0 - x`` or multiply by a parenthesised constant.
Syntax errors carry the byte offset of the offending token.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

VARIABLES = ("t", "x", "xi")
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "jp")

__all__ = [
    "SymbolError",
    "ParseError",
    "EvalDomainError",
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "T",
    "X",
    "XI",
    "ZERO",
    "ONE",
    "add",
    "sub",
    "mul",
    "div",
    "pow_",
    "call",
    "parse_symbol",
    "differentiate",
    "is_zero",
    "x_degree",
]


class SymbolError(Exception):
    """Base class for expression-language errors."""


class ParseError(SymbolError):
    """Syntax or vocabulary error, with the byte offset into the input."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(SymbolError):
    """Evaluation left the declared domain (division by zero, sqrt of a
    negative number, overflow)."""


def _as_expr(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot coerce {value!r} to an expression")


class Expr:
    """Base node.  Subclasses are frozen dataclasses, so nodes hash and
    compare structurally and can key caches."""

    precedence = 4

    # -- construction sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, n):
        return pow_(self, n)

    def __neg__(self):
        return sub(ZERO, self)

    # -- interface implemented by every node --------------------------------
    def evaluate(self, t, x, xi):
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    def __str__(self):
        raise NotImplementedError


def _fmt_number(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


@dataclass(frozen=True)
class Const(Expr):
    value: float

    precedence = 4

    def evaluate(self, t, x, xi):
        return self.value

    def diff(self, var):
        return ZERO

    def __str__(self):
        if self.value < 0:
            # keep printed text inside the grammar, which has no unary minus
            return f"(0 - {_fmt_number(-self.value)})"
        return _fmt_number(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    precedence = 4

    def evaluate(self, t, x, xi):
        if self.name == "t":
            return t
        if self.name == "x":
            return x
        return xi

    def diff(self, var):
        return ONE if self.name == var else ZERO

    def __str__(self):
        return self.name


def _paren(child, parent_prec, tight=False):
    text = str(child)
    if child.precedence < parent_prec or (tight and child.precedence == parent_prec):
        return f"({text})"
    return text


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    precedence = 1

    def evaluate(self, t, x, xi):
        return self.left.evaluate(t, x, xi) + self.right.evaluate(t, x, xi)

    def diff(self, var):
        return add(self.left.diff(var), self.right.diff(var))

    def __str__(self):
        return f"{_paren(self.left, 1)} + {_paren(self.right, 1, tight=True)}"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    precedence = 1

    def evaluate(self, t, x, xi):
        return self.left.evaluate(t, x, xi) - self.right.evaluate(t, x, xi)

    def diff(self, var):
        return sub(self.left.diff(var), self.right.diff(var))

    def __str__(self):
        return f"{_paren(self.left, 1)} - {_paren(self.right, 1, tight=True)}"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    precedence = 2

    def evaluate(self, t, x, xi):
        return self.left.evaluate(t, x, xi) * self.right.evaluate(t, x, xi)

    def diff(self, var):
        return add(
            mul(self.left.diff(var), self.right),
            mul(self.left, self.right.diff(var)),
        )

    def __str__(self):
        return f"{_paren(self.left, 2)} * {_paren(self.right, 2, tight=True)}"


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    precedence = 2

    def evaluate(self, t, x, xi):
        num = self.left.evaluate(t, x, xi)
        den = self.right.evaluate(t, x, xi)
        if np.any(np.asarray(den) == 0):
            raise EvalDomainError(f"division by zero in {self}")
        with np.errstate(over="ignore", invalid="ignore"):
            out = num / den
        if not np.all(np.isfinite(out)):
            raise EvalDomainError(f"overflow in {self}")
        return out

    def diff(self, var):
        return div(
            sub(mul(self.left.diff(var), self.right), mul(self.left, self.right.diff(var))),
            mul(self.right, self.right),
        )

    def __str__(self):
        return f"{_paren(self.left, 2)} / {_paren(self.right, 2, tight=True)}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    precedence = 3

    def evaluate(self, t, x, xi):
        base = self.base.evaluate(t, x, xi)
        if self.exponent < 0 and np.any(np.asarray(base) == 0):
            raise EvalDomainError(f"zero raised to a negative power in {self}")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.power(base, self.exponent) if not np.isscalar(base) else base**self.exponent
        except OverflowError:  # a Python float raises where numpy returns inf
            out = math.inf
        if not np.all(np.isfinite(out)):
            raise EvalDomainError(f"overflow in {self}")
        return out

    def diff(self, var):
        return mul(
            mul(Const(float(self.exponent)), pow_(self.base, self.exponent - 1)),
            self.base.diff(var),
        )

    def __str__(self):
        return f"{_paren(self.base, 3, tight=True)}^{self.exponent}"


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    precedence = 4

    def evaluate(self, t, x, xi):
        u = self.arg.evaluate(t, x, xi)
        if self.fn == "sin":
            return np.sin(u)
        if self.fn == "cos":
            return np.cos(u)
        if self.fn == "exp":
            with np.errstate(over="ignore"):
                out = np.exp(u)
            if not np.all(np.isfinite(out)):
                raise EvalDomainError(f"overflow in {self}")
            return out
        if self.fn == "sqrt":
            if np.any(np.asarray(u) < 0):
                raise EvalDomainError(f"sqrt of a negative number in {self}")
            return np.sqrt(u)
        # jp(u) = (1 + u^2)^(1/2)
        return np.sqrt(1.0 + u * u)

    def diff(self, var):
        du = self.arg.diff(var)
        if self.fn == "sin":
            return mul(call("cos", self.arg), du)
        if self.fn == "cos":
            return mul(sub(ZERO, call("sin", self.arg)), du)
        if self.fn == "exp":
            return mul(self, du)
        if self.fn == "sqrt":
            # sqrt(u) at u = 0 evaluates fine; this derivative then divides
            # by zero there and evaluation reports a domain error, as wanted
            return div(du, mul(Const(2.0), self))
        # d/du jp(u) = u / jp(u)
        return div(mul(self.arg, du), self)

    def __str__(self):
        return f"{self.fn}({self.arg})"


# ---------------------------------------------------------------------------
# simplifying constructors

ZERO = Const(0.0)
ONE = Const(1.0)
T = Var("t")
X = Var("x")
XI = Var("xi")


def _fold(value, node, *args):
    """Const(value) when it is finite, else the unfolded node(*args): str() has no inf."""
    return Const(value) if math.isfinite(value) else node(*args)


def add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value + b.value, Add, a, b)
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return Add(a, b)


def sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value - b.value, Sub, a, b)
    if isinstance(b, Const) and b.value == 0:
        return a
    return Sub(a, b)


def mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value * b.value, Mul, a, b)
    if isinstance(a, Const):
        if a.value == 0:
            return ZERO
        if a.value == 1:
            return b
    if isinstance(b, Const):
        if b.value == 0:
            return ZERO
        if b.value == 1:
            return a
    return Mul(a, b)


def div(a, b):
    if isinstance(b, Const) and b.value == 1:
        return a
    if isinstance(a, Const) and a.value == 0:
        return ZERO
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return _fold(a.value / b.value, Div, a, b)
    return Div(a, b)


def pow_(base, exponent):
    n = int(exponent)
    if n != exponent:
        raise ValueError("exponent must be an integer")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        try:
            return _fold(base.value**n, Pow, base, n)
        except (OverflowError, ZeroDivisionError):
            pass
    return Pow(base, n)


_SAFE_CONST_FOLD = {"sin": math.sin, "cos": math.cos, "jp": lambda u: math.sqrt(1 + u * u)}


def call(fn, arg):
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if isinstance(arg, Const) and fn in _SAFE_CONST_FOLD:
        return _fold(_SAFE_CONST_FOLD[fn](arg.value), Call, fn, arg)
    return Call(fn, arg)


# ---------------------------------------------------------------------------
# differentiation

def differentiate(expr, var, order=1):
    """Return the symbolic derivative d^order expr / d var^order.

    var is one of 't', 'x', 'xi'; order is capped at 4 (the model analysis
    never needs more, and repeated quotient rules blow the tree up fast).
    """
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    if not 0 <= order <= 4:
        raise ValueError("derivative order must be between 0 and 4")
    out = expr
    for _ in range(order):
        out = out.diff(var)
    return out


def is_zero(expr):
    """True for a symbol that is literally the constant 0.

    The simplifying constructors fold a derivative that cancels on the tree,
    such as d/dt (t - t), to it, so a symbol whose derivative in a variable
    is_zero does not depend on that variable.
    """
    return isinstance(expr, Const) and expr.value == 0.0


def x_degree(expr):
    """Degree of expr as a trig polynomial in x, or None when it is not one.

    Terms free of x have degree 0, and cos(c x + f) and sin(c x + f) with f
    free of x (the argument's x-derivative is a Const) have degree |c|.
    Sums take the larger degree, products add them, a power n >= 0
    multiplies by n and a quotient by a term free of x keeps the
    numerator's.  Anything else involving x gives None: x itself, exp, sqrt
    or jp of it, or a negative power.  Each node is visited once.
    """
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Var):
        return None if expr.name == "x" else 0
    if isinstance(expr, (Add, Sub, Mul)):
        left, right = x_degree(expr.left), x_degree(expr.right)
        if left is None or right is None:
            return None
        return left + right if isinstance(expr, Mul) else max(left, right)
    if isinstance(expr, Div):
        return x_degree(expr.left) if x_degree(expr.right) == 0 else None
    if isinstance(expr, Pow):
        base = x_degree(expr.base)
        if base == 0:
            return 0
        return None if base is None or expr.exponent < 0 else base * expr.exponent
    if expr.fn in ("cos", "sin"):
        slope = expr.arg.diff("x")
        return abs(slope.value) if isinstance(slope, Const) else None
    return 0 if x_degree(expr.arg) == 0 else None


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            offset = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[offset]!r}", offset)
        if m.end() == m.start():  # pure whitespace tail
            break
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self):
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", offset)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def factor(self):
        e = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value in ("^", "**"):
            self.advance()
            e = pow_(e, self.integer())
        return e

    def integer(self):
        sign = 1
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            sign = -1
            self.advance()
            kind, value, offset = self.peek()
        if kind != "number":
            raise ParseError("expected an integer exponent", offset)
        self.advance()
        as_float = float(value)
        if as_float != int(as_float):
            raise ParseError("exponent must be an integer", offset)
        return sign * int(as_float)

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "number":
            if not math.isfinite(float(value)):
                raise ParseError(f"number {value!r} out of range", offset)
            return Const(float(value))
        if kind == "ident":
            if value in VARIABLES:
                return Var(value)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {value!r}", offset)


def parse_symbol(text):
    """Parse a symbol expression; raises ParseError with a byte offset."""
    if not isinstance(text, str):
        raise TypeError("parse_symbol expects a string")
    return _Parser(text).parse()
