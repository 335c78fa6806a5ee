"""Closed-form integrals that the benchmark checks certquad's outputs against.

Every function a workload integrates appears here with its value f and an
antiderivative F, written out by hand.  The checks never call
``certquad.oracle`` or any other certquad layer, so a defect in a measured
layer cannot hide itself.  Powers stay exact on Fraction inputs; exp and
ln return floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

# verify's own allowance for float bounds that are not outward-rounded
CERT_SLACK = 1e-10


def _pow(n):
    if n == -1:
        return (lambda x: 1 / x, math.log)
    return (lambda x: x ** n, lambda x: x ** (n + 1) / (n + 1))


# name -> (f, F) for certquad's builtin corpus
BUILTINS = {
    "pow:2": _pow(2),
    "pow:3": _pow(3),
    "pow:4": _pow(4),
    "pow:-2": _pow(-2),
    "reciprocal": _pow(-1),
    "neglog": (lambda x: -math.log(x), lambda x: x - x * math.log(x)),
    "exp": (math.exp, math.exp),
    "negexp": (lambda x: math.exp(-x), lambda x: -math.exp(-x)),
}

# user expression text -> (f, F); each has |f'|**q convex on x > 0 for q >= 1
# with a wide margin, so certquad's sampled convexity probe always passes.
EXPRESSIONS = {
    "x^2*exp(x)": (lambda x: x * x * math.exp(x),
                   lambda x: math.exp(x) * (x * x - 2 * x + 2)),
    "x^4 + x^2": (lambda x: x ** 4 + x ** 2,
                  lambda x: x ** 5 / 5 + x ** 3 / 3),
    "exp(2*x) + x^3": (lambda x: math.exp(2 * x) + x ** 3,
                       lambda x: math.exp(2 * x) / 2 + x ** 4 / 4),
    "x^3 + 3*x": (lambda x: x ** 3 + 3 * x,
                  lambda x: x ** 4 / 4 + 3 * x * x / 2),
    "x*exp(x)": (lambda x: x * math.exp(x),
                 lambda x: math.exp(x) * (x - 1)),
    "exp(x) + exp(-x)": (lambda x: math.exp(x) + math.exp(-x),
                         lambda x: math.exp(x) - math.exp(-x)),
}

FUNCTIONS = {**BUILTINS, **EXPRESSIONS}


def integral(name: str, a, b):
    """Exact integral of the named function over [a, b]."""
    F = FUNCTIONS[name][1]
    return F(b) - F(a)


def mean(name: str, a, b):
    """Exact integral mean of the named function over [a, b]."""
    return integral(name, a, b) / (b - a)


def value(name: str, x):
    return FUNCTIONS[name][0](x)


def within(approx, exact, bound, slack: float) -> bool:
    """|approx - exact| <= bound: exact when all three are rational,
    otherwise in floating point with ``slack`` of headroom."""
    if all(isinstance(v, (int, Fraction)) for v in (approx, exact, bound)):
        return abs(approx - exact) <= bound
    return abs(float(approx) - float(exact)) <= float(bound) + slack
