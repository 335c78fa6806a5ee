"""Panelized integration with summed certificates.

A per-panel certificate bounds the MEAN error on that panel; multiplying
by the panel width converts it to a bound on the panel's integral error,
and those add:

    |sum_i width_i * Q_i  -  integral of f over [a, b]|  <=  sum_i width_i * bound_i

Both drivers establish the engine's hypotheses on [a, b] by one prologue
run per solve; convexity of |f'|**q on [a, b] restricts to every
subinterval, so each panel inherits them and only takes the per-piece
step, given |f'|**q and f at its ends, which a driver reads once per cut.
A result keeps each panel as its certificate, which names it.

``adaptive_integrate`` greedily bisects the panel with the largest
width-scaled bound until the summed bound clears the target, the panel
budget runs out, or that panel has no number strictly inside it.  It
bisects plain numbers: each heap entry holds a piece's ends, the bound
that ``measure`` gave and the values at its ends.  The returned panels
are issued in tiling order, found by following the cut objects that
neighbours share from a, so f is read at their nodes only and an
Interval, a rule value and a certificate are made once per returned
panel.  Panel endpoints are a, b and affine interpolations of indices or
midpoints, never accumulated widths, so they cannot drift; uniform cuts
that round onto each other are a DomainError that names [a, b] and n.
"""

from __future__ import annotations

import heapq
import math

from .bounds import prologue
from .errors import DomainError
from .expression import FunctionModel
from .params import RuleParams
from .record import Record
from .rules import Interval, midpoint


class CompositeResult(Record):
    """Approximation of the integral of f over [a, b] with a summed bound.

    ``panels`` lists the panels' ErrorCertificates, whose intervals tile
    [a, b] left to right; ``target_met`` is None for fixed panel counts and
    reports target attainment for adaptive runs.
    """

    __slots__ = ("value", "total_bound", "panels", "target_met")
    _defaults = {"target_met": None}

    @property
    def advisory(self) -> bool:
        return any(cert.advisory for cert in self.panels)


def _assemble(panels, scaled, target=None) -> CompositeResult:
    """The result of panels in order, scaled[i] the width * bound of panels[i]."""
    value = total = 0  # left to right: the builtin sum compensates floats since 3.12
    for cert, width_bound in zip(panels, scaled):
        value += cert.interval.width * cert.approx
        total += width_bound
    return CompositeResult(value, total, panels,
                           None if target is None else bool(total <= target))


def composite_integrate(f: FunctionModel, iv: Interval, params: RuleParams,
                        q, theorem: str = "t22", n: int = 1) -> CompositeResult:
    """Apply the rule on n uniform panels and sum the certificates."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"panel count must be a positive integer, got {n!r}")
    slope, value, measure, finite, issue = prologue(f, iv, params, q, theorem)
    cuts = [iv.a] + [(iv.a * (n - i) + iv.b * i) / n for i in range(1, n)] + [iv.b]
    if any(v <= u for u, v in zip(cuts, cuts[1:])):
        raise DomainError(f"{n} uniform panels of [{iv.a}, {iv.b}] have cuts that round "
                          "onto each other")
    panels, yu, fu = [], None, None  # |f'|**q and f at u, handed on from the panel before
    for u, v in zip(cuts, cuts[1:]):
        piece, xv = Interval(u, v), slope(v)
        bound = measure(u, v, piece.width, slope(u) if yu is None else yu, xv)
        fu, fv = value(u) if fu is None else fu, value(v)
        panels.append(issue(piece, finite(bound, u, v), fu, fv))
        yu, fu = xv, fv
    return _assemble(panels, [cert.interval.width * cert.bound for cert in panels])


def adaptive_integrate(f: FunctionModel, iv: Interval, params: RuleParams,
                       q, theorem: str = "t22", target=None,
                       max_panels: int = 1024) -> CompositeResult:
    """Greedy bound-driven bisection until total_bound <= target.

    Stops early (with target_met False) when max_panels is reached, or
    when the panel to bisect has no midpoint strictly inside it: its float
    midpoint rounds to an end, or past a Fraction end.  A midpoint that
    overflows is the DomainError of an infinite end.  Ties in the
    width-scaled bound break toward the leftmost panel.
    """
    if target is None or not target > 0:
        raise DomainError(f"target must be positive, got {target!r}")
    if not isinstance(max_panels, int) or isinstance(max_panels, bool) or max_panels < 1:
        raise DomainError(f"max_panels must be a positive integer, got {max_panels!r}")
    slope, value, measure, finite, issue = prologue(f, iv, params, q, theorem)
    xb, ya = slope(iv.b), slope(iv.a)  # b first, as certify reads
    bound = measure(iv.a, iv.b, iv.width, ya, xb)
    fa, fb = value(iv.a), value(iv.b)
    # (-(width * bound), a, b, bound, |f'|**q at a, b, f at a, b); panels' a differ
    heap = [(-(iv.width * finite(bound, iv.a, iv.b)), iv.a, iv.b, bound, ya, xb, fa, fb)]
    total = -heap[0][0]
    while total > target and len(heap) < max_panels:
        neg_scaled, a, b, _, ya, xb, fa, fb = heap[0]
        mid = midpoint(a, b)
        if not a < mid < b:  # a float mid: an exact one always falls inside
            if math.isinf(mid):
                Interval(a, mid)  # raises the DomainError of an infinite end
            break
        y_mid, width = slope(mid), mid - a
        bound = measure(a, mid, width, ya, y_mid)
        f_mid = value(mid)  # read before the left bound's check, as certify does
        left = -(width * finite(bound, a, mid)), a, mid, bound, ya, y_mid, fa, f_mid
        width = b - mid
        bound = finite(measure(mid, b, width, y_mid, xb), mid, b)
        right = -(width * bound), mid, b, bound, y_mid, xb, f_mid, fb
        heapq.heapreplace(heap, left)
        heapq.heappush(heap, right)
        total += -left[0] + -right[0] - (-neg_scaled)
    starts = {id(entry[1]): entry for entry in heap}  # neighbours share the cut object
    tiling = [starts[id(iv.a)]]
    while len(tiling) < len(heap):
        tiling.append(starts[id(tiling[-1][2])])
    panels = [issue(Interval(a, b) if len(heap) > 1 else iv, bound, fa, fb)
              for _, a, b, bound, _, _, fa, fb in tiling]
    return _assemble(panels, [-entry[0] for entry in tiling], target)
