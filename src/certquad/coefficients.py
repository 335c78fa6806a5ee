"""Closed forms for every constant used by the bound engines.

Naming follows the two weight integrals behind the bounds.  With
c = alpha*lambda, u = 1 - alpha and w = lambda*(1 - alpha):

    integral over [0, u]  of |t - c|        -> gamma2 (c <= u) or gamma1 (c >= u)
    integral over [u, 1]  of |t - (1 - w)|  -> upsilon2 (1-w >= u) or upsilon1 (1-w <= u)

    same weights against t and (1 - t) give the mu and eta families:
      t-weight:      mu1 / mu3   and  eta1 / eta3
      (1-t)-weight:  mu2 / mu4   and  eta2 / eta4

    integral over [0, u] of |t - c|**p      -> eps1 or eps2, times 1/(p+1)
    integral over [u, 1] of |t - (1-w)|**p  -> eps3 or eps4, times 1/(p+1)
      (t -> 1 - t reflects it onto [0, alpha] with its kink at w, so one
      (sum, difference) pair per ``RuleParams.kink_pairs`` gives eps1..eps4)

All closed forms are plain polynomial arithmetic in alpha and lambda, so
Fraction inputs give bit-exact rationals, reduced once from lifted inputs,
within the power budget of ``params._power`` (an OverflowError past it).
``power_mean_coeffs`` evaluates the constants it is asked for, by default
all twelve, including the ones the active regime does not select (those
may be negative); the t22 engine asks for the six its tag selects.  The
eps family always has four entries, but an off-regime eps would raise a
negative base to a non-integer power, so it is reported as None
("regime-inactive").  Each family is a plain dict from constant name to
value, gamma1 ... eta4 (or the names asked, in their order) and
eps1 ... eps4.

This module is also the one map from a regime tag to its constants:
``SELECTED`` names the six power-mean constants and the two eps values a
tag selects.  ``eps_underflows`` tells whether an active eps is too small
for its 1/p-th power; it reads the same pairs as the tag, so it needs no tag.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .params import (CASE1, CASE2, CASE3, POWER_BITS, RuleParams, _lift, _power, _power_bits,
                     _Ratio, _reduced)

_TINY = 2 * sys.float_info.min  # smallest normal float times 2 > 1 / (1 - 1/e)
_LOG10_2 = math.log10(2)

# tag -> names of (gamma, mu_b, mu_a, upsilon, eta_b, eta_a, eps_first,
# eps_second); *_b weight |f'(b)|**q, *_a |f'(a)|**q.  Only Case3 switches
# the first integral's family, only Case2 the second's.
SELECTED = {
    CASE1: ("gamma2", "mu1", "mu2", "upsilon2", "eta3", "eta4", "eps1", "eps3"),
    CASE2: ("gamma2", "mu1", "mu2", "upsilon1", "eta1", "eta2", "eps1", "eps4"),
    CASE3: ("gamma1", "mu3", "mu4", "upsilon2", "eta3", "eta4", "eps2", "eps3"),
}


POWER_MEAN = ("gamma1", "gamma2", "upsilon1", "upsilon2",
              "mu1", "mu2", "mu3", "mu4", "eta1", "eta2", "eta3", "eta4")


def power_mean_coeffs(params: RuleParams, names=POWER_MEAN) -> dict:
    """The power-mean constants ``names``, by default all twelve of
    ``POWER_MEAN``, keyed in the order asked; a recurring term is computed
    once."""
    (c, u), (w, _) = params.kink_pairs
    a, l, c, u, w = map(_lift, (params.alpha, params.lam, c, u, w))
    uu, u3, aa, a3, one_w, one_c = u * u, u ** 3, a * a, a ** 3, 1 - w, 1 - c
    cuu, waa = c * u * u / 2, w * a * a / 2
    gamma1 = u * (c - u / 2)
    out = {}
    for name in names:
        match name:
            case "gamma1": v = gamma1
            case "gamma2": v = c * c - gamma1
            case "upsilon1": v = (1 - uu) / 2 - a * one_w
            case "upsilon2": v = (1 + uu) / 2 - (l + 1) * u * one_w
            case "mu1": v = (c ** 3 + u3) / 3 - cuu
            case "mu2": v = (1 + a3 + one_c ** 3) / 3 - one_c / 2 * (1 + aa)
            case "mu3": v = cuu - u3 / 3
            case "mu4": v = (c - 1) * (1 - aa) / 2 + (1 - a3) / 3
            case "eta1": v = (1 - u3) / 3 - one_w / 2 * a * (2 - a)
            case "eta2": v = waa - a3 / 3
            case "eta3": v = one_w ** 3 / 3 - one_w / 2 * (1 + uu) + (1 + u3) / 3
            case "eta4": v = w ** 3 / 3 - waa + a3 / 3
            case _:
                raise KeyError(name)
        out[name] = _reduced(v)
    return out


def holder_coeffs(params: RuleParams, p) -> dict:
    """eps1..eps4 for exponent p > 1, keyed by name.  Each owns one side of
    a kink-versus-split comparison and is None ("regime-inactive") on the
    other, where its second base goes negative, rather than a guessed
    continuation.  Callers divide by (p + 1) to match the defining integrals.
    """
    if not p > 1:
        raise DomainError(f"holder exponent p must be > 1, got {p!r}")
    k = p + 1 if type(p) is float else _lift(p) + 1
    if type(k) is _Ratio:  # as x ** F reads an exact F: its int, or else its float
        k = k._numerator if k._denominator == 1 else k._numerator / k._denominator
    eps, exact = [], params.exact
    for kink, split in params.kink_pairs:  # (sum, difference), each None off its side
        if exact:  # a _Ratio compares on the left of >=; split is one whenever kink is
            kink, split = _lift(kink), _lift(split)
        power, below = _power(kink, k), split >= kink
        pair = (power + _power(split - kink, k) if below else None,
                power - _power(kink - split, k) if not below or split == kink else None)
        eps += map(_reduced, pair) if exact else pair  # each exact eps reduced once
    return {"eps1": eps[0], "eps2": eps[1], "eps3": eps[2], "eps4": eps[3]}


def check_eps_digits(params: RuleParams, p) -> None:
    """Raise the interpreter's ValueError for an int past its string limit
    when an exact eps of ``holder_coeffs(params, p)`` would print longer,
    before any power is computed.  With k = p + 1, a base's den**k has over
    k * (bits - 1) bits, and a sum or difference of two k-th powers cancels
    fewer than bits + k.bit_length() of them.  Float eps and eps 0 (split
    0) print short; the budget of ``params._power`` refuses first."""
    limit, k = getattr(sys, "get_int_max_str_digits", int)(), p + 1  # none before 3.10.7
    if not limit or not p > 1 or getattr(k, "denominator", 0) != 1:
        return  # float or non-integral powers print short
    for kink, split in params.kink_pairs:
        bases = kink, abs(split - kink)
        if not split or any(isinstance(b, float) for b in bases):
            continue
        if any(_power_bits(b, k) > POWER_BITS for b in bases):
            return
        bits = max(b.denominator.bit_length() for b in bases)
        if (k * (bits - 1) - bits - k.numerator.bit_length()) * _LOG10_2 > limit:
            str(10 ** limit)  # the interpreter's own error, as worded on this version


def eps_underflows(params: RuleParams, p) -> bool:
    """Whether an active eps is nonzero but below the smallest normal
    float, where its 1/p-th power would be lost.  Each (kink, split) of
    ``params.kink_pairs`` has one active eps: as the regime tag chooses, the
    difference of k-th powers, k = p + 1, when kink > split and else the
    sum.  big**k - (big-gap)**k, (big, gap) = (kink, split), is at least
    (1 - 1/e) * min(big**k, k*gap*big**(k-1)), a sum the same with gap =
    big for its larger base, and either at least (min(y, 1-y)/2)**(k+1),
    y = 1 - alpha, which settles most calls from alpha alone.  Powers are
    taken in floats, never exactly, so a huge exact k costs nothing.  Float
    parameters read alpha or 1 - alpha below 2**-53 as 0; the term of that
    pair is then of that order.
    """
    try:
        k = float(p) + 1
    except OverflowError:  # an exact p past the float range
        k = math.inf
    y = params.kink_pairs[0][1]
    yf = float(y)
    if (min(yf, 1 - yf) / 2) ** (k + 1) >= _TINY or y in (0, 1):
        return False  # at alpha = 0 or 1 one pair is exactly 0, the other's base 1
    return any(gap > 0 and min(float(big) ** k,
                               k * float(gap) * float(big) ** (k - 1)) < _TINY
               for big, gap in ((kink, split) if kink > split
                                else (max(kink, split - kink),) * 2
                                for kink, split in params.kink_pairs))
