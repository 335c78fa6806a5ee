"""Panelized integration with summed certificates.

A per-panel certificate bounds the MEAN error on that panel; multiplying
by the panel width converts it to a bound on the panel's integral error,
and those add:

    |sum_i width_i * Q_i  -  integral of f over [a, b]|  <=  sum_i width_i * bound_i

Both drivers establish the engine's hypotheses on [a, b] by one prologue
run per solve; convexity of |f'|**q on [a, b] restricts to every
subinterval, so each panel inherits them and only takes the per-piece
step, whose memo evaluates each shared end object once.  A result keeps
each panel as its certificate, which names it.

``adaptive_integrate`` greedily bisects the panel with the largest
width-scaled bound until the summed bound clears the target or the panel
budget runs out.  Panel endpoints are a, b and affine interpolations of
indices, never accumulated widths, so they cannot drift.
"""

from __future__ import annotations

import heapq

from .bounds import prologue
from .errors import DomainError
from .expression import FunctionModel
from .params import RuleParams
from .record import Record
from .rules import Interval


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


def _entry(certify, piece: Interval):
    cert = certify(piece)
    return -(piece.width * cert.bound), piece.a, cert  # largest pops first; panels' a differ


def _assemble(entries, target=None) -> CompositeResult:
    entries = sorted(entries, key=lambda entry: entry[1])
    panels = [cert for _, _, cert in entries]
    value = total = 0  # left to right: the builtin sum compensates floats since 3.12
    for neg_scaled, _, cert in entries:
        value += cert.interval.width * cert.approx
        total += -neg_scaled
    return CompositeResult(value, total, panels,
                           None if target is None else bool(total <= target))


def composite_integrate(f: FunctionModel, iv: Interval, params: RuleParams,
                        q, theorem: str = "t22", n: int = 1) -> CompositeResult:
    """Apply the rule on n uniform panels and sum the certificates."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"panel count must be a positive integer, got {n!r}")
    certify = prologue(f, iv, params, q, theorem)
    cuts = [iv.a] + [(iv.a * (n - i) + iv.b * i) / n for i in range(1, n)] + [iv.b]
    return _assemble([_entry(certify, Interval(u, v)) for u, v in zip(cuts, cuts[1:])])


def adaptive_integrate(f: FunctionModel, iv: Interval, params: RuleParams,
                       q, theorem: str = "t22", target=None,
                       max_panels: int = 1024) -> CompositeResult:
    """Greedy bound-driven bisection until total_bound <= target.

    Stops early (with target_met False) when max_panels is reached.  Ties
    in the width-scaled bound break toward the leftmost panel.
    """
    if target is None or not target > 0:
        raise DomainError(f"target must be positive, got {target!r}")
    if not isinstance(max_panels, int) or max_panels < 1:
        raise DomainError(f"max_panels must be a positive integer, got {max_panels!r}")
    certify = prologue(f, iv, params, q, theorem)
    heap = [_entry(certify, iv)]
    total = -heap[0][0]
    while total > target and len(heap) < max_panels:
        neg_scaled, _, cert = heapq.heappop(heap)
        piece = cert.interval
        mid = piece.midpoint()
        left = _entry(certify, Interval(piece.a, mid))
        right = _entry(certify, Interval(mid, piece.b))
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
        total += -left[0] + -right[0] - (-neg_scaled)
    return _assemble(heap, target)
