"""Closed forms for every constant used by the bound engines, plus an
independent piecewise-exact integral oracle to validate them.

Naming follows the two weight integrals behind the bounds.  With
c = alpha*lambda, u = 1 - alpha and w = lambda*(1 - alpha):

    integral over [0, u]  of |t - c|        -> gamma2 (c <= u) or gamma1 (c >= u)
    integral over [u, 1]  of |t - (1 - w)|  -> upsilon2 (1-w >= u) or upsilon1 (1-w <= u)

    same weights against t and (1 - t) give the mu and eta families:
      t-weight:      mu1 / mu3   and  eta1 / eta3
      (1-t)-weight:  mu2 / mu4   and  eta2 / eta4

    integral over [0, u] of |t - c|**p      -> eps1 or eps2, times 1/(p+1)
    integral over [u, 1] of |t - (1-w)|**p  -> eps3 or eps4, times 1/(p+1)

All closed forms are plain polynomial arithmetic in alpha and lambda, so
Fraction inputs give bit-exact rationals.  All twelve power-mean
constants are always evaluated, including the ones the active regime does
not select (those may be negative); the eps family is the exception,
because off-regime eps values would raise a negative base to a
non-integer power, so they are reported as None ("regime-inactive").

This module is also the one map from a regime tag to its constants:
``regime_selected`` and ``regime_selected_eps`` pick the six power-mean
constants and the two eps values a tag selects, and ``eps_underflows``
tells whether a selected eps is too small for its 1/p-th power.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .params import CASE2, CASE3, RuleParams
from .record import Record

_TINY = 2 * sys.float_info.min  # smallest normal float times 2 > 1 / (1 - 1/e)

WEIGHT_ONE = "1"
WEIGHT_T = "t"
WEIGHT_ONE_MINUS_T = "1-t"


class PowerMeanCoefficients(Record):
    __slots__ = ("gamma1", "gamma2", "upsilon1", "upsilon2", "mu1", "mu2",
                 "mu3", "mu4", "eta1", "eta2", "eta3", "eta4")

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._astuple()))


class HolderCoefficients(Record):
    """eps1..eps4 for a given p > 1; None marks a regime-inactive entry."""

    __slots__ = ("p", "eps1", "eps2", "eps3", "eps4")

    def as_dict(self) -> dict:
        return dict(zip(self._fields[1:], self._astuple()[1:]))


def power_mean_coeffs(params: RuleParams) -> PowerMeanCoefficients:
    """All twelve constants of the power-mean bound, exactly as written."""
    a, l = params.alpha, params.lam
    c = a * l
    u = 1 - a
    w = l * u

    gamma1 = u * (c - u / 2)
    gamma2 = c * c - gamma1
    upsilon1 = (1 - u * u) / 2 - a * (1 - w)
    upsilon2 = (1 + u * u) / 2 - (l + 1) * u * (1 - w)
    mu1 = (c ** 3 + u ** 3) / 3 - c * u * u / 2
    mu2 = (1 + a ** 3 + (1 - c) ** 3) / 3 - (1 - c) / 2 * (1 + a * a)
    mu3 = c * u * u / 2 - u ** 3 / 3
    mu4 = (c - 1) * (1 - a * a) / 2 + (1 - a ** 3) / 3
    eta1 = (1 - u ** 3) / 3 - (1 - w) / 2 * a * (2 - a)
    eta2 = w * a * a / 2 - a ** 3 / 3
    eta3 = (1 - w) ** 3 / 3 - (1 - w) / 2 * (1 + u * u) + (1 + u ** 3) / 3
    eta4 = w ** 3 / 3 - w * a * a / 2 + a ** 3 / 3
    return PowerMeanCoefficients(gamma1, gamma2, upsilon1, upsilon2,
                                 mu1, mu2, mu3, mu4,
                                 eta1, eta2, eta3, eta4)


def holder_coeffs(params: RuleParams, p) -> HolderCoefficients:
    """eps1..eps4 for exponent p > 1.

    Each entry owns one side of a breakpoint comparison and is only
    defined there; on the other side its second base goes negative and
    the value is reported as None rather than guessing a continuation.
    Callers divide by (p + 1) when matching the defining integrals.
    """
    if not p > 1:
        raise DomainError(f"holder exponent p must be > 1, got {p!r}")
    a, l = params.alpha, params.lam
    c = a * l
    u = 1 - a
    w = l * u
    k = p + 1

    eps1 = c ** k + (u - c) ** k if c <= u else None
    eps2 = c ** k - (c - u) ** k if c >= u else None
    eps3 = w ** k + (a - w) ** k if w <= a else None
    eps4 = w ** k - (w - a) ** k if w >= a else None
    return HolderCoefficients(p, eps1, eps2, eps3, eps4)


# ---------------------------------------------------------------------------
# Piecewise-exact oracle for the defining integrals

def _powers(s0, s1, p):
    """(integral of s**p, integral of s**(p+1)) for s from s0 to s1, s >= 0."""
    i1 = (s1 ** (p + 1) - s0 ** (p + 1)) / (p + 1)
    i2 = (s1 ** (p + 2) - s0 ** (p + 2)) / (p + 2)
    return i1, i2


def _piece(c, lo, hi, p, weight, above: bool):
    """Integral of |t-c|**p * weight(t) over [lo, hi] with t-c one-signed."""
    if lo == hi:
        return 0
    if above:
        # substitute s = t - c, s in [lo-c, hi-c], t = c + s
        i1, i2 = _powers(lo - c, hi - c, p)
        if weight == WEIGHT_ONE:
            return i1
        if weight == WEIGHT_T:
            return c * i1 + i2
        return (1 - c) * i1 - i2
    # substitute s = c - t, s in [c-hi, c-lo], t = c - s
    i1, i2 = _powers(c - hi, c - lo, p)
    if weight == WEIGHT_ONE:
        return i1
    if weight == WEIGHT_T:
        return c * i1 - i2
    return (1 - c) * i1 + i2


def abs_power_integral(c, lo, hi, p, weight: str = WEIGHT_ONE):
    """Integral of |t - c|**p * w(t) over [lo, hi], w in {1, t, 1-t}.

    Splits at t = c and integrates each monomial piece in closed form, so
    the only error is rounding (exact for rational inputs with integer p).
    Used to validate the coefficient formulas, never to produce them.
    """
    if weight not in (WEIGHT_ONE, WEIGHT_T, WEIGHT_ONE_MINUS_T):
        raise DomainError(f"weight must be one of '1', 't', '1-t', got {weight!r}")
    if not p >= 1:
        raise DomainError(f"exponent p must be >= 1, got {p!r}")
    if lo > hi:
        raise DomainError(f"empty range: lo={lo!r} > hi={hi!r}")
    if hi <= c:
        return _piece(c, lo, hi, p, weight, above=False)
    if lo >= c:
        return _piece(c, lo, hi, p, weight, above=True)
    return (_piece(c, lo, c, p, weight, above=False)
            + _piece(c, c, hi, p, weight, above=True))


def regime_selected(coeffs: PowerMeanCoefficients, tag: str):
    """The (gamma, mu_b, mu_a, upsilon, eta_b, eta_a) sextuple a regime picks.

    The *_b entries weight |f'(b)|**q, the *_a entries |f'(a)|**q.  The
    first half belongs to the integral over [0, 1-alpha], whose family
    only Case3 switches; the second to the one over [1-alpha, 1], whose
    family only Case2 switches.
    """
    first = ((coeffs.gamma1, coeffs.mu3, coeffs.mu4) if tag == CASE3
             else (coeffs.gamma2, coeffs.mu1, coeffs.mu2))
    second = ((coeffs.upsilon1, coeffs.eta1, coeffs.eta2) if tag == CASE2
              else (coeffs.upsilon2, coeffs.eta3, coeffs.eta4))
    return first + second


def regime_selected_eps(coeffs: HolderCoefficients, tag: str):
    """The (eps_first, eps_second) pair a regime picks; always active."""
    return (coeffs.eps2 if tag == CASE3 else coeffs.eps1,
            coeffs.eps4 if tag == CASE2 else coeffs.eps3)


def eps_underflows(params: RuleParams, tag: str, p) -> bool:
    """Whether an eps that regime ``tag`` selects is nonzero but below the
    smallest normal float, where its 1/p-th power would be lost.  Each eps
    is a sum or a difference of k-th powers, k = p + 1, of bases in [0, 1]
    read off the breakpoints (x, y, z).  big**k - (big-gap)**k is at least
    (1 - 1/e) * min(big**k, k*gap*big**(k-1)), a sum the same with gap = big
    for its larger base, and either at least (min(y, 1-y)/2)**(k+1), which
    settles most calls from y = 1 - alpha alone.  Powers are taken in
    floats, never exactly, so a huge exact k costs nothing.  Float
    breakpoints read alpha or 1 - alpha below 2**-53 as 0; the term of that
    pair is then of that order.
    """
    try:
        k = float(p) + 1
    except OverflowError:  # an exact p past the float range
        k = math.inf
    y = 1 - params.alpha
    yf = float(y)
    if (min(yf, 1 - yf) / 2) ** (k + 1) >= _TINY or y in (0, 1):
        return False  # at alpha = 0 or 1 one pair is exactly 0, the other's base 1
    x, y, z = params.breakpoints()
    first = (x, y) if tag == CASE3 else (max(x, y - x),) * 2
    second = (1 - z, 1 - y) if tag == CASE2 else (max(1 - z, z - y),) * 2
    return any(gap > 0 and min(float(big) ** k,
                               k * float(gap) * float(big) ** (k - 1)) < _TINY
               for big, gap in (first, second))
