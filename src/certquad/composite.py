"""Panelized integration with summed certificates.

A per-panel certificate bounds the MEAN error on that panel; multiplying
by the panel width converts it to a bound on the panel's integral error,
and those add:

    |sum_i width_i * Q_i  -  integral of f over [a, b]|  <=  sum_i width_i * bound_i

Both drivers establish the engine's hypotheses on [a, b] by one prologue
run per solve; convexity of |f'|**q on [a, b] restricts to every
subinterval, so each panel inherits them and only takes the per-piece
step.  A driver owns only the cuts: ``measure`` reads f and f', and the
driver hands the pair it returned for a cut to the piece across the cut.

``adaptive_integrate`` greedily bisects the panel with the largest
width-scaled bound until the summed bound clears the target, the panel
budget runs out, or that panel has no number strictly inside it.  A heap
entry holds plain numbers, (-(width * bound), a, b, bound, left, right,
node), the last three as ``measure`` returned them.  A cut is made on the
lifted ends and reduced, as is each key; between Fraction ends at an exact
alpha = 1/2 the cut is t23's node, whose |f'|**q the lower half takes,
decided once per solve.  The returned panels are issued in
tiling order, found by following the cut objects that neighbours share
from a, so f is read at their nodes only and an Interval, a rule value
and a certificate are made once per returned panel.  Panel endpoints are
a, b and affine interpolations of indices or midpoints, never accumulated
widths, so they cannot drift; uniform cuts that round onto each other are
a DomainError that names [a, b] and n.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .bounds import prologue
from .errors import DomainError
from .expression import FunctionModel
from .params import RuleParams, _lift, _reduced
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
    measure, issue = prologue(f, iv, params, q, theorem)
    cuts = [iv.a] + [(iv.a * (n - i) + iv.b * i) / n for i in range(1, n)] + [iv.b]
    if any(v <= u for u, v in zip(cuts, cuts[1:])):
        raise DomainError(f"{n} uniform panels of [{iv.a}, {iv.b}] have cuts that round "
                          "onto each other")
    panels, right = [], None  # a panel's right end is the next panel's left end
    for u, v in zip(cuts, cuts[1:]):
        piece = Interval(u, v)
        bound, left, right, _ = measure(u, v, piece.width, right)
        panels.append(issue(piece, bound, left, right))
    return _assemble(panels, [cert.interval.width * cert.bound for cert in panels])


def _halve(a, b):
    """The cut of the lifted [a, b], reduced, and its halves' widths, unreduced;
    None when a float cut is not strictly inside, as a Fraction cut always is."""
    lo, hi = _lift(a), _lift(b)
    mid = midpoint(lo, hi)
    width = mid - lo
    if type(mid) is not float:  # exact: strictly inside, and the halves are equal
        return _reduced(mid), width, width
    if not a < mid < b:
        if math.isinf(mid):
            Interval(a, mid)  # raises the DomainError of an infinite end
        return None
    return mid, width, hi - mid


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
    measure, issue = prologue(f, iv, params, q, theorem)
    node_is_cut = (type(iv.a) is type(iv.b) is Fraction  # then every cut is a Fraction,
                   and theorem == "t23"  # and t23's node is the cut, the same Fraction
                   and type(params.alpha) is Fraction and params.alpha == Fraction(1, 2))
    bound, left, right, node = measure(iv.a, iv.b, iv.width)
    heap = [(-(iv.width * bound), iv.a, iv.b, bound, left, right, node)]  # panels' a differ
    total = -heap[0][0]
    if type(target) is float and type(total) is Fraction and math.isfinite(target):
        target = Fraction(target)  # compared at every bisection, converted once
    while total > target and len(heap) < max_panels:
        neg_scaled, a, b, _, left, right, node = heap[0]
        if (cut := _halve(a, b)) is None:
            break
        mid, width, upper_width = cut
        bound, _, at_mid, lower_node = measure(a, mid, width, left,
                                               (node, None) if node_is_cut else None)
        lower = -_reduced(width * bound), a, mid, bound, left, at_mid, lower_node
        bound, _, _, upper_node = measure(mid, b, upper_width, at_mid, right)
        upper = -_reduced(upper_width * bound), mid, b, bound, at_mid, right, upper_node
        heapq.heapreplace(heap, lower)
        heapq.heappush(heap, upper)
        total += neg_scaled - (lower[0] + upper[0])  # -lower + -upper - -neg, bit for bit
    starts = {id(entry[1]): entry for entry in heap}  # neighbours share the cut object
    tiling = [starts[id(iv.a)]]
    while len(tiling) < len(heap):
        tiling.append(starts[id(tiling[-1][2])])
    panels = [issue(Interval(a, b) if len(heap) > 1 else iv, bound, left, right)
              for _, a, b, bound, left, right, _ in tiling]
    return _assemble(panels, [-entry[0] for entry in tiling], target)
