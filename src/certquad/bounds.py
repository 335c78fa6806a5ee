"""Certified upper bounds on |rule value - integral mean|.

Three engines, one per derivation route:

  power_mean_bound      q >= 1, needs |f'|**q convex on [a, b].
                        Shape: (b-a) * [ gamma**(1-1/q) * (mu_b*X + mu_a*Y)**(1/q)
                                       + upsilon**(1-1/q) * (eta_b*X + eta_a*Y)**(1/q) ]
                        with X = |f'(b)|**q, Y = |f'(a)|**q and the
                        constants picked by the parameter regime.

  holder_interior_bound q > 1.  Conjugate-exponent route whose averages
                        pair each endpoint with the interior node.

  holder_endpoint_bound q > 1.  Conjugate-exponent route with averages
                        built from the endpoints only.

``prologue`` runs once per (f, [a, b], params, q, engine): q range,
domain, convexity hypothesis, conjugate, regime tag and the selected
constants raised to their fixed powers.  It works on plain values: p is
the number ``conjugate`` returns and the regime the tag string of
``classify_regime``; ``coefficients`` maps a tag to its constants and
decides whether a selected eps underflows.  Its step certifies any piece
of [a, b].  An engine steps [a, b] itself; a driver steps every panel.

At q = 1 the power-mean shape collapses through the x**0 = 1 convention
to (b-a) * [(mu_b+eta_b)*X + (mu_a+eta_a)*Y]; there is no separate code
path for it, only a separate certificate tag.

A certificate is only issued under an established convexity hypothesis:
builtin and user-asserted models pass directly, anything else is sampled
and the resulting certificate is flagged advisory.  Bounds are evaluated
in ordinary floating point (exact rationals when the inputs allow); they
are analytic constants, not outward-rounded interval enclosures, so
soundness tests should carry ``SOUNDNESS_SLACK``.  A non-finite float bound
or rule value raises OverflowError; t23 and t24 raise ArithmeticError when q
lies so close to 1 that a selected eps constant underflows.
"""

from __future__ import annotations

import math

from .coefficients import (eps_underflows, holder_coeffs, power_mean_coeffs,
                           regime_selected, regime_selected_eps)
from .errors import DomainError, Refusal
from .expression import FunctionModel, calls_sign, probe_convexity
from .params import RuleParams, classify_regime, conjugate, _normalize
from .record import Record
from .rules import Interval, interior_node, require_within_domain, rule_value

SOUNDNESS_SLACK = 1e-10  # rounding a float certificate may show against a reference


class ErrorCertificate(Record):
    """A certified bound on |approx - integral mean| over an interval.

    ``advisory`` is set when the convexity hypothesis was only sampled,
    never proven; such certificates are best-effort, not guarantees.
    """

    __slots__ = ("interval", "params", "theorem", "q", "p", "bound", "approx",
                 "advisory", "regime")


def _clamp(v):
    """Selected constants are nonnegative in-regime; shave rounding dust."""
    return v if v >= 0 else 0 * v


def prologue(f: FunctionModel, iv: Interval, params: RuleParams, q,
             theorem: str, verdicts=None):
    """Establish engine ``theorem``'s hypotheses on iv once and return the
    step that certifies any piece of iv, which inherits them.

    q >= 1 for t22, q > 1 for t23 and t24.  f must be absolutely continuous,
    so a non-builtin f calling sign is refused, even x*sign(x).  Proven-convex
    models give non-advisory certificates, a passing probe (shared through
    ``verdicts``, q -> verdict) advisory ones, a failing probe a Refusal.
    T23 and T24 share one formula and differ only in two weights and averages.
    """
    name = theorem.lower()
    if name not in ENGINES:
        raise DomainError(
            f"unknown theorem {theorem!r}; expected one of {sorted(ENGINES)}")
    q = _normalize(q)
    if name == "t22" and not q >= 1:
        raise Refusal(f"{name} needs q >= 1, got {q}")
    if name != "t22" and not q > 1:
        raise Refusal(f"{name} needs q > 1, got {q}")
    require_within_domain(f, iv)
    if f.provenance != "builtin" and calls_sign(f.expr):
        raise Refusal(f"{name} needs f absolutely continuous on [{iv.a}, {iv.b}]; sign may jump")
    advisory = not f.convex_for_all_q
    verdicts = {} if verdicts is None else verdicts
    if advisory and q not in verdicts:
        verdicts[q] = probe_convexity(f, q, iv.a, iv.b)
    if advisory and not verdicts[q]:
        raise Refusal(f"{name} needs convexity of |f'|**{q}, not established "
                      f"for {f.name} on [{iv.a}, {iv.b}]")
    p = conjugate(q)
    tag = classify_regime(params)
    theorem = "T22q1" if q == 1 else name.upper()
    inv_q = 1 / q
    alpha = params.alpha
    if name == "t22":
        gamma, mu_b, mu_a, upsilon, eta_b, eta_a = (
            _clamp(v) for v in regime_selected(power_mean_coeffs(params), tag))
        outer = 1 - inv_q
        gamma_w, upsilon_w = gamma ** outer, upsilon ** outer
    else:
        if not p > 1:  # q so large that q / (q - 1) rounds to 1
            raise ArithmeticError(f"{name} conjugate exponent of q={q} rounds to 1")
        if eps_underflows(params, tag, p):
            raise ArithmeticError(f"{name} eps underflows at q={q}, too close to 1")
        eps_first, eps_second = (
            _clamp(v) for v in regime_selected_eps(holder_coeffs(params, p), tag))
        inv_p = 1 / p
        scale = (1 / (p + 1)) ** inv_p
        # k1, k2: each weight times its eps**(1/p); the t24 weights are 1
        k1, k2 = eps_first ** inv_p, eps_second ** inv_p
        if name == "t23":
            k1, k2 = (1 - alpha) ** inv_q * k1, alpha ** inv_q * k2

    def certify(piece: Interval) -> ErrorCertificate:
        xb = abs(f.derivative(piece.b)) ** q
        ya = abs(f.derivative(piece.a)) ** q
        if name == "t22":
            bound = piece.width * (
                gamma_w * _clamp(mu_b * xb + mu_a * ya) ** inv_q
                + upsilon_w * _clamp(eta_b * xb + eta_a * ya) ** inv_q)
        else:
            if name == "t23":
                node_pow = abs(f.derivative(interior_node(piece, params))) ** q
                d1, d2 = (node_pow + ya) / 2, (node_pow + xb) / 2
            else:
                d1 = (xb * (1 - alpha) ** 2 + (1 - alpha * alpha) * ya) / 2
                d2 = (xb * alpha * (2 - alpha) + alpha * alpha * ya) / 2
            bound = piece.width * scale * (k1 * d1 ** inv_q + k2 * d2 ** inv_q)
        approx = rule_value(f, piece, params)
        for v in (bound, approx):
            if isinstance(v, float) and not math.isfinite(v):
                raise OverflowError(f"{theorem} on [{piece.a}, {piece.b}] is not finite")
        return ErrorCertificate(piece, params, theorem, q, p, bound, approx,
                                advisory, tag)

    return certify


def power_mean_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                     q) -> ErrorCertificate:
    """Certificate from the power-mean route; q >= 1."""
    return prologue(f, iv, params, q, "t22")(iv)


def holder_interior_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                          q) -> ErrorCertificate:
    """Certificate from the conjugate-exponent route with interior-node
    averages; q > 1."""
    return prologue(f, iv, params, q, "t23")(iv)


def holder_endpoint_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                          q) -> ErrorCertificate:
    """Certificate from the conjugate-exponent route with endpoint-only
    averages; q > 1."""
    return prologue(f, iv, params, q, "t24")(iv)


ENGINES = {
    "t22": power_mean_bound,
    "t23": holder_interior_bound,
    "t24": holder_endpoint_bound,
}


def best_bound(f: FunctionModel, iv: Interval, params: RuleParams,
               q_grid) -> ErrorCertificate:
    """Smallest certificate over the engines crossed with a q grid.

    Candidates: the power-mean engine at every q >= 1 in the grid, the
    two conjugate-exponent engines at every q > 1.  They are generated in
    ``ENGINES`` order, then by ascending q, and the first smallest bound
    wins, so ties break toward the power-mean engine, then the
    interior-node engine, then smaller q.  A candidate that refuses or
    fails arithmetically (overflow at a large q) drops out.  Raises Refusal
    when the grid is empty or every candidate drops out, naming each
    candidate's engine, q and reason.
    """
    q_grid = sorted(q_grid)
    if not q_grid:
        raise Refusal("empty q grid")
    candidates = []
    refusals = []
    verdicts = {}  # one probe per q serves all three engines
    for name in ENGINES:
        for q in q_grid:
            try:
                candidates.append(prologue(f, iv, params, q, name, verdicts)(iv))
            except (Refusal, ArithmeticError) as exc:
                refusals.append(f"{name} at q={q}: {exc}")
    if not candidates:
        raise Refusal("no engine produced a certificate: "
                      + "; ".join(refusals))
    return min(candidates, key=lambda c: float(c.bound))
