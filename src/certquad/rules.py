"""The two-parameter approximation of an integral mean and the exact
integral identity it satisfies.

For parameters (alpha, lambda) the rule value is

    Q = lambda*(alpha*f(a) + (1-alpha)*f(b)) + (1-lambda)*f(alpha*a + (1-alpha)*b)

an approximation of the mean (1/(b-a)) * integral of f over [a, b].
Classical rules are members: (1/2, 0) is the midpoint rule, (1/2, 1) the
trapezoid rule and (1/2, 1/3) Simpson's rule.

Q minus the mean equals a weighted integral of f' (checkable with
``identity_rhs``); the bound engines estimate exactly that difference.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import oracle
from .errors import DomainError
from .expression import FunctionModel
from .params import RuleParams, _lift, _reduced
from .record import Record


def midpoint(a, b):
    """(a + b) / 2, where a bisection cuts [a, b]."""
    return (a + b) / 2


class Interval(Record):
    """A nondegenerate interval [a, b] with a < b, and its width b - a."""

    _fields = ("a", "b")
    __slots__ = _fields + ("width",)  # derived

    def __post_init__(self):
        for label, v in (("a", self.a), ("b", self.b)):
            if isinstance(v, float) and not math.isfinite(v):
                raise DomainError(f"interval endpoint {label} must be finite")
        if not self.a < self.b:
            raise DomainError(
                f"interval needs a < b, got a={self.a!r}, b={self.b!r}")
        Interval.width.__set__(self, self.b - self.a)


def require_within_domain(f: FunctionModel, iv: Interval) -> None:
    if not f.contains(float(iv.a), float(iv.b)):
        raise DomainError(
            f"[{iv.a}, {iv.b}] is not inside the domain of {f.name}")


NAMED_RULES = {
    "midpoint": RuleParams(Fraction(1, 2), Fraction(0)),
    "trapezoid": RuleParams(Fraction(1, 2), Fraction(1)),
    "simpson": RuleParams(Fraction(1, 2), Fraction(1, 3)),
}


def named_rule(kind: str) -> RuleParams:
    """Parameters of a classical rule: midpoint, trapezoid or simpson."""
    try:
        return NAMED_RULES[kind]
    except KeyError:
        raise DomainError(
            f"unknown rule {kind!r}; expected one of {sorted(NAMED_RULES)}") from None


def stencil(params: RuleParams):
    """The rule as node(a, b) and combine(fa, fb, fn); 1 - alpha is read off
    ``params.kink_pairs``, 1 - lambda computed once from the lifted lambda.
    The weights are lifted once; exact params reduce the node and the rule value."""
    alpha, beta, lam = map(_lift, (params.alpha, params.kink_pairs[0][1], params.lam))
    kappa = 1 - lam

    def node(a, b):
        return alpha * a + beta * b

    def combine(fa, fb, fn):
        return lam * (alpha * fa + beta * fb) + kappa * fn

    if not params.exact:
        return node, combine
    return (lambda a, b: _reduced(node(a, b)),
            lambda fa, fb, fn: _reduced(combine(fa, fb, fn)))


def rule_value(f: FunctionModel, iv: Interval, params: RuleParams):
    """The rule's approximation of the integral mean of f over iv.

    A convex combination of f(a), f(b) and f at the interior node, so it
    always lies between the smallest and largest of those three values.
    """
    require_within_domain(f, iv)
    node, combine = stencil(params)
    return combine(f.value(iv.a), f.value(iv.b), f.value(node(iv.a, iv.b)))


def identity_rhs(f: FunctionModel, iv: Interval, params: RuleParams,
                 tol=None) -> float:
    """Reference value of the f'-side of the rule-minus-mean identity.

    Equals (b-a) times two weighted integrals of f' over the normalized
    parameter t in [0, 1] (first over [0, 1-alpha] with weight t - alpha*lambda,
    then over [1-alpha, 1] with weight t - 1 + lambda*(1-alpha)), evaluated
    with the reference integrator.  Matches rule_value minus the true mean
    up to oracle accuracy.
    """
    require_within_domain(f, iv)
    c1, y, c2 = (float(v) for v in params.breakpoints())
    av, bv = float(iv.a), float(iv.b)
    width = bv - av

    def on_chord(t: float) -> float:
        return float(f.derivative(t * bv + (1.0 - t) * av))

    first = oracle.integrate_ref(
        lambda t: (t - c1) * on_chord(t), 0.0, y, tol=tol)
    second = oracle.integrate_ref(
        lambda t: (t - c2) * on_chord(t), y, 1.0, tol=tol)
    return width * (first.value + second.value)
