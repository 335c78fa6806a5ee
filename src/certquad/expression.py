"""Expression trees for the functions being integrated.

Grammar (one variable, x):

    expr   :=  unary (OP unary)*          OP from _OPERATORS, by precedence
    unary  :=  "-" unary | power
    power  :=  atom ("^" unary)?          exponent must fold to a constant
    atom   :=  NUMBER | "x" | NAME "(" expr ")" | "(" expr ")"

Two tables declare the language: _OPERATORS gives each binary symbol
its node class and precedence, and _FUNCTIONS gives each function name
(exp, ln, abs, sign) its evaluator and derivative rule.  Powers are
right associative and bind tighter than unary minus, so -x^2 is -(x^2).
Printing an expression yields a canonical string that re-parses to the
same tree.

Evaluation compiles a tree once into nested closures.  A FunctionModel
derives f' from f on construction and keeps the closures of both.
Fraction inputs stay exact through +, -, *, /, integer powers and abs,
and fall to float only at exp/ln or non-integer powers.  Dividing two
integer literals is float division, as in Python, in f and f' alike, and
so is a quotient that differentiation folds to two integers: 1/3*x^3
holds the float 1/3, and so does the f' of x/3.  Write x^3/3 to stay
exact.

An integral power of an exact base goes through ``params._power``, evaluated
or folded, so one estimated past its bit budget is an OverflowError and 2^1e9
fails at once.

abs(u) differentiates to sign(u)*u' with sign(0) = 0, so f' reads 0 at a
kink; a model keeps its kinks, so the engines refuse to read f' there and
the convexity probe reads it one ulp to each side.  No builtin calls abs.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import DomainError, ParseError
from .params import _power
from .record import Record


class Expr(Record):
    """Base class for expression nodes. Nodes are immutable."""

    __slots__ = ()


class Const(Expr):
    __slots__ = ("value",)  # int, float, or Fraction


class Var(Expr):
    __slots__ = ()


class Add(Expr):
    __slots__ = ("left", "right")


class Sub(Expr):
    __slots__ = ("left", "right")


class Mul(Expr):
    __slots__ = ("left", "right")


class Div(Expr):
    __slots__ = ("left", "right")


class Pow(Expr):
    __slots__ = ("base", "exponent")  # exponent: numeric constant, not a subtree


class Neg(Expr):
    __slots__ = ("operand",)


class Call(Expr):
    __slots__ = ("func", "arg")  # func: a key of _FUNCTIONS


X = Var()

# symbol -> (node class, precedence); all binary operators associate left
_OPERATORS = {"+": (Add, 1), "-": (Sub, 1), "*": (Mul, 2), "/": (Div, 2)}
_SYMBOL = {cls: symbol for symbol, (cls, _) in _OPERATORS.items()}
_PREC = {**dict(_OPERATORS.values()), Neg: 3, Pow: 4}
_PREC_ATOM = 5


def _ln(v):
    if v <= 0:
        raise DomainError(f"ln of non-positive value {v!r}")
    return math.log(v)


# name -> (evaluator, rule: (u, u') -> derivative of name(u))
_FUNCTIONS = {
    "exp": (math.exp, lambda u, du: Mul(Call("exp", u), du)),
    "ln": (_ln, lambda u, du: Div(du, u)),
    "abs": (abs, lambda u, du: Mul(Call("sign", u), du)),
    "sign": (lambda v: (v > 0) - (v < 0),
             lambda u, du: Const(0)),  # zero a.e.; the kink itself maps to 0
}


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(
    r"\s+"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>.)"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []  # (kind, value, offset)
        for m in _TOKEN.finditer(text):
            kind, tok = m.lastgroup, m.group()
            if kind == "bad":
                raise ParseError(f"unexpected character {tok!r}", m.start())
            if kind == "num":
                tok = int(tok) if tok.isdecimal() else float(tok)
            if kind is not None:  # None: whitespace
                self.tokens.append((kind, tok, m.start()))
        self.i = 0

    def _peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, value, offset = self._next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, offset = self._peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", offset)
        return e

    def expr(self, min_prec: int = 1) -> Expr:
        """Operands joined by binary operators of precedence >= min_prec."""
        e = self.unary()
        while True:
            kind, value, _ = self._peek()
            cls, prec = _OPERATORS.get(value, (None, 0)) if kind == "op" else (None, 0)
            if prec < min_prec:
                return e
            self._next()
            e = cls(e, self.expr(prec + 1))

    def unary(self) -> Expr:
        kind, value, _ = self._peek()
        if kind == "op" and value == "-":
            self._next()
            operand = self.unary()
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Neg(operand)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, offset = self._peek()
        if kind == "op" and value == "^":
            self._next()
            start = self.i
            exp_offset = self._peek()[2]
            exponent = self.unary()
            if any(tok[0] == "name" for tok in self.tokens[start:self.i]):
                raise ParseError("exponent must be a constant", exp_offset)
            try:
                n = evaluate(exponent, None)
                if isinstance(n, float) and not math.isfinite(n):
                    raise OverflowError(f"{n!r} is not finite")
            except (DomainError, OverflowError) as exc:
                raise ParseError(f"bad constant exponent: {exc}",
                                 exp_offset) from None
            return Pow(base, n)
        return base

    def atom(self) -> Expr:
        kind, value, offset = self._next()
        if kind == "num":
            return Const(value)
        if kind == "name":
            if value == "x":
                return X
            if value in _FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self._expect_op(")")
            return e
        raise ParseError(f"expected a value, got {value!r}", offset)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing

def _prec(e: Expr) -> int:
    if isinstance(e, Const) and e.value < 0:
        return _PREC[Neg]  # prints with a leading minus
    return _PREC.get(type(e), _PREC_ATOM)


def _num_str(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _wrap(e: Expr, minimum: int) -> str:
    s = to_string(e)
    return f"({s})" if _prec(e) < minimum else s


def to_string(e: Expr) -> str:
    """Canonical rendering; parse(to_string(e)) reproduces e."""
    if isinstance(e, Const):
        return _num_str(e.value)
    if isinstance(e, Var):
        return "x"
    if type(e) in _SYMBOL:
        prec = _PREC[type(e)]
        return f"{_wrap(e.left, prec)} {_SYMBOL[type(e)]} {_wrap(e.right, prec + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.operand, _PREC[Neg])}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{_num_str(e.exponent)}"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation

def _is_integral(n) -> bool:
    if isinstance(n, int):
        return True
    if isinstance(n, Fraction):
        return n.denominator == 1
    return isinstance(n, float) and n.is_integer()


_PLAIN_POWER = 64  # x**k up to this |k| skips the estimate: x's own size bounds it


def evaluate(e: Expr, x):
    """Evaluate at x with domain checks; Fractions stay exact where possible."""
    return _compile(e)(x)


def _compile(e: Expr):
    """x -> value of e; the one definition of evaluation, decided per node once."""
    if isinstance(e, Const):
        value = e.value
        return lambda x: value
    if isinstance(e, Var):
        return lambda x: x
    if isinstance(e, (Add, Sub, Mul, Div)):
        left, right = _compile(e.left), _compile(e.right)
        if isinstance(e, Add):
            return lambda x: left(x) + right(x)
        if isinstance(e, Sub):
            return lambda x: left(x) - right(x)
        if isinstance(e, Mul):
            return lambda x: left(x) * right(x)
        def div(x):
            num, den = left(x), right(x)
            if den == 0:
                raise DomainError("division by zero")
            return num / den
        return div
    if isinstance(e, Neg):
        operand = _compile(e.operand)
        return lambda x: -operand(x)
    if isinstance(e, Pow):
        base, n = _compile(e.base), e.exponent
        if _is_integral(n):
            k = int(n)
            if not (isinstance(e.base, Var) and abs(k) <= _PLAIN_POWER):
                return lambda x: _power(base(x), k)
            def integral_power(x):  # decided once, so x^3 pays nothing per point
                if k < 0 and x == 0:
                    raise DomainError("zero base with negative exponent")
                return x ** k
            return integral_power
        def real_power(x):
            b = base(x)
            if b < 0:
                raise DomainError(f"negative base {b!r} with non-integer exponent")
            if b == 0 and n < 0:
                raise DomainError("zero base with negative exponent")
            return float(b) ** float(n)
        return real_power
    if isinstance(e, Call):
        func, arg = _FUNCTIONS[e.func][0], _compile(e.arg)
        return lambda x: func(arg(x))
    raise TypeError(f"not an Expr: {e!r}")


def sign_arguments(e: Expr) -> list:
    """The u of every sign(u) in e, outer before inner, left before right;
    a stack, not recursion, walks any depth the parser admits."""
    found, stack = [], [e]
    while stack:
        e = stack.pop()
        if getattr(e, "func", None) == "sign":
            found.append(e.arg)
        for name in reversed(e._fields):
            child = getattr(e, name)
            if isinstance(child, Expr):  # not a number or a function name
                stack.append(child)
    return found


# ---------------------------------------------------------------------------
# Differentiation

def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative, lightly simplified."""
    return simplify(_diff(e))


def _diff(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Var):
        return Const(1)
    if isinstance(e, Add):
        return Add(_diff(e.left), _diff(e.right))
    if isinstance(e, Sub):
        return Sub(_diff(e.left), _diff(e.right))
    if isinstance(e, Mul):
        return Add(Mul(_diff(e.left), e.right), Mul(e.left, _diff(e.right)))
    if isinstance(e, Div):
        num = Sub(Mul(_diff(e.left), e.right), Mul(e.left, _diff(e.right)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Neg):
        return Neg(_diff(e.operand))
    if isinstance(e, Pow):
        n = e.exponent
        return Mul(Mul(Const(n), Pow(e.base, n - 1)), _diff(e.base))
    if isinstance(e, Call):
        return _FUNCTIONS[e.func][1](e.arg, _diff(e.arg))
    raise TypeError(f"not an Expr: {e!r}")


def simplify(e: Expr) -> Expr:
    """Constant folding plus *1 / *0 / ^1 / ^0 elimination."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Call):
        return Call(e.func, simplify(e.arg))
    if isinstance(e, Neg):
        op = simplify(e.operand)
        if isinstance(op, Const):
            return Const(-op.value)
        if isinstance(op, Neg):
            return op.operand
        return Neg(op)
    if isinstance(e, Pow):
        base = simplify(e.base)
        n = e.exponent
        if n == 1:
            return base
        if n == 0:
            return Const(1)
        if isinstance(base, Const) and _is_integral(n) and int(n) >= 0:
            return Const(_power(base.value, int(n)))
        return Pow(base, n)

    left = simplify(e.left)
    right = simplify(e.right)
    lc = left.value if isinstance(left, Const) else None
    rc = right.value if isinstance(right, Const) else None
    if isinstance(e, Add):
        if lc == 0:
            return right
        if rc == 0:
            return left
        if lc is not None and rc is not None:
            return Const(lc + rc)
        return Add(left, right)
    if isinstance(e, Sub):
        if rc == 0:
            return left
        if lc is not None and rc is not None:
            return Const(lc - rc)
        if lc == 0:
            return simplify(Neg(right))
        return Sub(left, right)
    if isinstance(e, Mul):
        if lc == 0 or rc == 0:
            return Const(0)
        if lc == 1:
            return right
        if rc == 1:
            return left
        if lc == -1:
            return simplify(Neg(right))
        if rc == -1:
            return simplify(Neg(left))
        if lc is not None and rc is not None:
            return Const(lc * rc)
        return Mul(left, right)
    if isinstance(e, Div):
        if rc == 1:
            return left
        if lc is not None and rc is not None and rc != 0:
            return Const(lc / rc)
        return Div(left, right)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Function models

NEG_INF = float("-inf")
INF = float("inf")
PROVENANCES = ("builtin", "user-asserted", "numerically-probed")


class FunctionModel(Record):
    """An evaluatable function with its exact derivative and metadata.

    ``domain`` is an open interval.  ``provenance``, one of PROVENANCES,
    says how convexity of |f'|**q is known: builtin models carry it for
    every q >= 1 by construction, user-asserted ones on the caller's word,
    and numerically-probed ones get sampled, so any certificate built from
    them is flagged advisory.  Construction derives ``deriv`` (f'),
    ``has_sign`` (expr calls sign) and ``kinks`` (the compiled u of every
    sign(u) in deriv, so an abs(u) whose u' folds to 0 has none) once.
    """

    _fields = ("name", "expr", "domain", "provenance")
    __slots__ = _fields + ("deriv", "has_sign", "kinks", "_value", "_derivative")  # derived
    _defaults = {"domain": (NEG_INF, INF), "provenance": "numerically-probed"}

    def __post_init__(self):
        if self.provenance not in PROVENANCES:  # an unknown one must not skip the probe
            raise DomainError(f"provenance must be one of {PROVENANCES}, "
                              f"got {self.provenance!r}")
        deriv = differentiate(self.expr)
        FunctionModel.deriv.__set__(self, deriv)
        FunctionModel.has_sign.__set__(self, bool(sign_arguments(self.expr)))
        FunctionModel.kinks.__set__(self, tuple(map(_compile, sign_arguments(deriv))))
        FunctionModel._value.__set__(self, _compile(self.expr))
        FunctionModel._derivative.__set__(self, _compile(deriv))

    def value(self, x):
        return self._value(x)

    def derivative(self, x):
        return self._derivative(x)

    def contains(self, lo, hi) -> bool:
        return self.domain[0] < lo and hi < self.domain[1]

    def __str__(self) -> str:
        return self.name


def from_expression(text: str, *, assume_convex: bool = False) -> FunctionModel:
    """Build a model on all of R named by its text; f' is derived symbolically."""
    provenance = "user-asserted" if assume_convex else "numerically-probed"
    return FunctionModel(text, parse(text), (NEG_INF, INF), provenance)


def _builtin(name, expr, domain) -> FunctionModel:
    return FunctionModel(name, expr, domain, "builtin")


def power_model(n: int, side: str = "pos") -> FunctionModel:
    """x**n on one side of zero.

    |f'|**q = |n|**q * |x|**((n-1)q) is convex on either half line for
    every q >= 1 (the exponent is >= q for n >= 2 and <= -q for n <= -1),
    and for n >= 1 the same holds on all of R, so positive powers get the
    full real line as domain.
    """
    if not isinstance(n, int) or n == 0:
        raise DomainError(f"power model needs a nonzero integer exponent, got {n!r}")
    if side not in ("pos", "neg"):
        raise DomainError(f"side must be 'pos' or 'neg', got {side!r}")
    if n >= 1:
        domain = (NEG_INF, INF) if side == "pos" else (NEG_INF, 0.0)
    else:
        domain = (0.0, INF) if side == "pos" else (NEG_INF, 0.0)
    suffix = "" if side == "pos" else ":neg"
    return _builtin(f"pow:{n}{suffix}", Pow(X, n), domain)


def builtin_corpus() -> list[FunctionModel]:
    """The stock battery of functions with proven-convex |f'|**q.

    Positive powers and the exponentials live on all of R; reciprocal
    powers and -ln(x) on (0, inf).
    """
    return list(_corpus().values())


@functools.cache
def _corpus() -> dict[str, FunctionModel]:
    """The corpus by name, built once; models are immutable."""
    return {m.name: m for m in [
        power_model(2),
        power_model(3),
        power_model(4),
        power_model(-2),
        _builtin("reciprocal", Div(Const(1), X), (0.0, INF)),
        _builtin("neglog", Neg(Call("ln", X)), (0.0, INF)),
        _builtin("exp", Call("exp", X), (NEG_INF, INF)),
        _builtin("negexp", Call("exp", Neg(X)), (NEG_INF, INF)),
    ]}


def resolve_function(name_or_expr: str, *,
                     assume_convex: bool = False) -> FunctionModel:
    """Look up a corpus name ("pow:3", "reciprocal", "neglog", "exp",
    "negexp") or fall back to parsing the text as an expression."""
    if name_or_expr in _corpus():
        return _corpus()[name_or_expr]
    if name_or_expr.startswith("pow:"):
        try:
            n = int(name_or_expr[4:])
        except ValueError:
            raise DomainError(f"bad power name {name_or_expr!r}") from None
        return power_model(n)
    return from_expression(name_or_expr, assume_convex=assume_convex)


# ---------------------------------------------------------------------------
# Convexity probe

PROBE_GRID = 64  # the probe reads 2*PROBE_GRID - 1 samples
PROBE_K = (1 - 2.0 ** -49) / (1 + 2.0 ** -49)  # (1 - 16u) / (1 + 16u), u = 2**-53
PROBE_FLOOR = 2.0 ** -1072  # four units of the smallest subnormal


def probe_convexity(f: FunctionModel, q, lo, hi) -> bool:
    """Local convexity check of |f'|**q at the 2*PROBE_GRID - 1 equispaced
    samples v[k] of [lo, hi].

    The verdict is True iff every consecutive triple passes
    0.5*v[k-1] + 0.5*v[k+1] + PROBE_FLOOR >= PROBE_K*v[k] in float
    arithmetic, the halved form of v[k-1] + v[k+1] - 2*v[k] >=
    -16u*(v[k-1] + v[k+1] + 2*v[k]): the threshold scales with the three
    samples, halving keeps every sum finite, and PROBE_FLOOR absorbs the
    absolute error of underflowed samples.  A jump of |f'| between two
    samples is not seen.  At a sample where a kink of f is 0, |f'| is
    read one ulp to each side and the larger value kept; at lo and hi
    only the side inside [lo, hi] is read.  A non-finite sample raises
    OverflowError naming q and the point, a non-finite width one naming [lo, hi].
    """
    lo, hi, p = float(lo), float(hi), float(q)
    if not math.isfinite(hi - lo):  # the grid would read f' at nan
        raise OverflowError(f"probe |f'|**{q} of {f.name}: the width of [{lo}, {hi}] overflows")
    last = 2 * PROBE_GRID - 2
    vals = []
    for k in range(last + 1):
        x = lo + (hi - lo) * k / last
        try:
            d = abs(float(f.derivative(x)))
            if f.kinks and any(g(x) == 0 for g in f.kinks):
                d = max(abs(float(f.derivative(math.nextafter(x, t))))
                        for t, inside in ((-INF, k > 0), (INF, k < last)) if inside)
            v = d ** p
        except OverflowError:
            v = INF
        if not math.isfinite(v):
            raise OverflowError(f"probe |f'|**{q} overflows at x={x} of {f.name}")
        vals.append(v)
    return all(0.5 * a + 0.5 * c + PROBE_FLOOR >= PROBE_K * b
               for a, b, c in zip(vals, vals[1:], vals[2:]))
