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
from .params import RuleParams
from .record import Record


class Interval(Record):
    """A nondegenerate interval [a, b] with a < b."""

    __slots__ = ("a", "b")

    def __post_init__(self):
        for label, v in (("a", self.a), ("b", self.b)):
            if isinstance(v, float) and not math.isfinite(v):
                raise DomainError(f"interval endpoint {label} must be finite")
        if not self.a < self.b:
            raise DomainError(
                f"interval needs a < b, got a={self.a!r}, b={self.b!r}")

    @property
    def width(self):
        return self.b - self.a

    def midpoint(self):
        return (self.a + self.b) / 2


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


def interior_node(iv: Interval, params: RuleParams):
    return params.alpha * iv.a + (1 - params.alpha) * iv.b


def rule_value(f: FunctionModel, iv: Interval, params: RuleParams):
    """The rule's approximation of the integral mean of f over iv.

    A convex combination of f(a), f(b) and f at the interior node, so it
    always lies between the smallest and largest of those three values.
    """
    require_within_domain(f, iv)
    a, l = params.alpha, params.lam
    node = interior_node(iv, params)
    return l * (a * f.value(iv.a) + (1 - a) * f.value(iv.b)) \
        + (1 - l) * f.value(node)


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
    a = float(params.alpha)
    l = float(params.lam)
    av, bv = float(iv.a), float(iv.b)
    width = bv - av

    def on_chord(t: float) -> float:
        return float(f.derivative(t * bv + (1.0 - t) * av))

    c1 = a * l
    c2 = 1.0 - l * (1.0 - a)
    first = oracle.integrate_ref(
        lambda t: (t - c1) * on_chord(t), 0.0, 1.0 - a, tol=tol)
    second = oracle.integrate_ref(
        lambda t: (t - c2) * on_chord(t), 1.0 - a, 1.0, tol=tol)
    return width * (first.value + second.value)
