"""Reference integrator used to validate identities, coefficients and
certificates.  It never feeds the certificate formulas themselves.

The scheme is adaptive bisection with an embedded low/high order pair:
Simpson on a panel against Simpson on its two halves, accepted when the
Richardson error estimate (difference / 15) clears the local tolerance.
Integrands with a known interior kink (the |t - c| weight family) should
be split at the kink by the caller through ``kinks``; that restores the
fast convergence the error estimate assumes.

The tolerance is DEFAULT_TOL unless a caller passes ``tol``.
"""

from __future__ import annotations

from .errors import OracleError
from .record import Record

DEFAULT_TOL = 1e-10
HH_SLACK = 1e-12  # oracle error allowed in the Hermite-Hadamard sandwich
_MAX_DEPTH = 52


class OracleResult(Record):
    __slots__ = ("value", "abs_error_estimate", "refinement_depth")


def _simpson(fa, fm, fb, width):
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _refine(g, a, b, fa, fm, fb, whole, tol, depth):
    if depth > _MAX_DEPTH:
        raise OracleError(
            f"refinement depth cap exceeded on [{a}, {b}]", best=whole)
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    # Force a couple of levels so a symmetric integrand cannot fool the
    # first estimate.
    if depth >= 2 and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, depth
    lv, le, ld = _refine(g, a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
    rv, re, rd = _refine(g, m, b, fm, frm, fb, right, tol / 2.0, depth + 1)
    return lv + rv, le + re, max(ld, rd)


def integrate_ref(g, lo, hi, tol=None, kinks=()) -> OracleResult:
    """Adaptive estimate of the integral of g over [lo, hi].

    ``g`` must be bounded on the interval.  Infinite intervals and
    endpoint singularities are out of scope.
    """
    lo, hi = float(lo), float(hi)
    tol = DEFAULT_TOL if tol is None else float(tol)
    if lo == hi:
        return OracleResult(0.0, 0.0, 0)
    sign = 1.0
    if lo > hi:
        lo, hi = hi, lo
        sign = -1.0
    cuts = [lo] + sorted(float(k) for k in kinks if lo < float(k) < hi) + [hi]
    total = 0.0
    err = 0.0
    depth = 0
    for u, v in zip(cuts, cuts[1:]):
        piece_tol = tol * (v - u) / (hi - lo)
        fa, fm, fb = g(u), g(0.5 * (u + v)), g(v)
        whole = _simpson(fa, fm, fb, v - u)
        value, piece_err, piece_depth = _refine(
            g, u, v, fa, fm, fb, whole, piece_tol, 0)
        total += value
        err += piece_err
        depth = max(depth, piece_depth)
    return OracleResult(sign * total, err, depth)


def mean_ref(f, iv, tol=None) -> float:
    """Integral mean of a function model over an interval."""
    r = integrate_ref(lambda x: float(f.value(x)), iv.a, iv.b, tol=tol)
    return r.value / float(iv.b - iv.a)


def hh_gap(f, iv) -> float:
    """Worst violation of midpoint <= integral mean <= endpoint average,
    max(mid - mean, mean - ends); at most oracle error for convex f."""
    mid = float(f.value((iv.a + iv.b) / 2))
    mean = mean_ref(f, iv)
    ends = (float(f.value(iv.a)) + float(f.value(iv.b))) / 2
    return max(mid - mean, mean - ends)
