"""The nine special means and the six mean-inequality checks built from
the rule family.

Means (weighted variants take alpha in [0, 1]):

    A_alpha(a,b) = alpha*a + (1-alpha)*b         any reals
    A(a,b)       = (a+b)/2                       any reals
    G_alpha(a,b) = a**alpha * b**(1-alpha)       a, b > 0
    G(a,b)       = sqrt(a*b)                     a, b > 0
    H_alpha(a,b) = 1/(alpha/a + (1-alpha)/b)     a, b != 0
    H(a,b)       = 2ab/(a+b)                     a, b != 0
    L(a,b)       = (b-a)/(ln|b| - ln|a|)         |a| != |b|, ab != 0
    L_n(a,b)     = ((b**(n+1)-a**(n+1))/((n+1)(b-a)))**(1/n)
                                                 integer n not in {-1, 0}, a != b
    I(a,b)       = (1/e)*(b**b/a**a)**(1/(b-a))  a, b > 0, a != b

Each inequality check is a bound engine applied to the function that
generates it: the right side is the engine's certificate, the left side
|rule value - integral mean of that function|, and the check reports
whether left <= right up to ``bounds.SOUNDNESS_SLACK``.  Indices 1..6:
the odd checks are the power-mean engine (``power_mean_bound``, q >= 1)
and the even ones the interior-node conjugate engine
(``holder_interior_bound``, q > 1), on x**n (1, 2; mean L_n**n), on 1/x
(3, 4; mean 1/L) and on -ln x (5, 6; mean -ln I).
"""

from __future__ import annotations

import math

from .bounds import SOUNDNESS_SLACK, holder_interior_bound, power_mean_bound
from .errors import DomainError
from .expression import power_model, resolve_function
from .params import RuleParams, _power
from .record import Record
from .rules import Interval

MEAN_KINDS = ("A_alpha", "A", "G_alpha", "G", "H_alpha", "H", "L", "L_n", "I")


def _require(cond: bool, predicate: str) -> None:
    if not cond:
        raise DomainError(predicate)


def _real_root(v, n: int):
    """Real n-th root; odd n keeps the sign, even n needs v >= 0."""
    if n % 2 == 0 and not v >= 0:  # lazy message: a huge Fraction's repr raises
        raise DomainError(f"even root of negative value {v!r}")
    if v < 0:
        return -((-float(v)) ** (1.0 / n))
    return float(v) ** (1.0 / n)


def log_mean(a, b):
    _require(a * b != 0, "L requires a*b != 0")
    _require(abs(a) != abs(b), "L requires |a| != |b|")
    return (b - a) / (math.log(abs(b)) - math.log(abs(a)))


def power_log_mean_nth(n: int, a, b):
    """L_n(a,b)**n, the integral mean of x**n; defined whenever a != b."""
    _require(isinstance(n, int) and n not in (-1, 0),
             "L_n requires integer n outside {-1, 0}")
    _require(a != b, "L_n requires a != b")
    if n < 0:
        _require(a * b > 0, "L_n with negative n requires 0 outside [a, b]")
    return (_power(b, n + 1) - _power(a, n + 1)) / ((n + 1) * (b - a))


def identric_mean(a, b):
    _require(a > 0 and b > 0, "I requires a, b > 0")
    _require(a != b, "I requires a != b")
    a, b = float(a), float(b)
    # exp form avoids overflow of b**b for large arguments
    return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)


def eval_mean(kind: str, a, b, *, alpha=None, n: int | None = None):
    """Evaluate one of the nine means; domain violations raise DomainError
    naming the failed predicate."""
    if kind not in MEAN_KINDS:
        raise DomainError(f"unknown mean kind {kind!r}; expected one of {MEAN_KINDS}")
    if kind.endswith("_alpha"):
        _require(alpha is not None and 0 <= alpha <= 1,
                 f"{kind} requires alpha in [0, 1]")
    if kind == "A_alpha":
        return alpha * a + (1 - alpha) * b
    if kind == "A":
        return (a + b) / 2
    if kind == "G_alpha":
        _require(a > 0 and b > 0, "G_alpha requires a, b > 0")
        return float(a) ** float(alpha) * float(b) ** float(1 - alpha)
    if kind == "G":
        _require(a > 0 and b > 0, "G requires a, b > 0")
        return math.sqrt(a * b)
    if kind == "H_alpha":
        _require(a != 0 and b != 0, "H_alpha requires a, b != 0")
        den = alpha / a + (1 - alpha) / b
        _require(den != 0, "H_alpha undefined where alpha/a + (1-alpha)/b = 0")
        return 1 / den
    if kind == "H":
        _require(a != 0 and b != 0, "H requires a, b != 0")
        _require(a + b != 0, "H undefined for a + b = 0")
        return 2 * a * b / (a + b)
    if kind == "L":
        return log_mean(a, b)
    if kind == "L_n":
        _require(n is not None, "L_n requires n")
        return _real_root(power_log_mean_nth(n, a, b), n)
    return identric_mean(a, b)


# ---------------------------------------------------------------------------
# Inequality checks

class PropositionResult(Record):
    __slots__ = ("lhs", "rhs", "holds")

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def proposition_check(which: int, a, b, params: RuleParams, q,
                      n: int | None = None) -> PropositionResult:
    """Evaluate one of the six mean inequalities; its engine checks q."""
    _require(which in (1, 2, 3, 4, 5, 6), f"check index must be 1..6, got {which!r}")
    _require(a < b, "requires a < b")
    if which <= 3:
        _require(a > 0 or b < 0, "requires 0 outside [a, b]")
    else:
        _require(a > 0, "requires 0 < a < b")
    if which <= 2:
        _require(isinstance(n, int) and abs(n) >= 2, "requires integer |n| >= 2")
    engine = power_mean_bound if which % 2 else holder_interior_bound
    iv = Interval(a, b)
    side = "pos" if a > 0 else "neg"
    # the generating function, then its integral mean: L_n**n for x**n,
    # 1/L for 1/x and -ln I for -ln x
    if which <= 2:
        cert = engine(power_model(n, side), iv, params, q)
        mean = power_log_mean_nth(n, a, b)
    elif which <= 4:
        cert = engine(power_model(-1, side), iv, params, q)
        mean = 1 / log_mean(a, b)
    else:
        cert = engine(resolve_function("neglog"), iv, params, q)
        mean = -math.log(identric_mean(a, b))
    lhs = abs(float(cert.approx - mean))
    rhs = float(cert.bound)
    return PropositionResult(lhs, rhs, lhs <= rhs + SOUNDNESS_SLACK)
