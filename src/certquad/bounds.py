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

All three run one prologue (q range, domain, convexity hypothesis,
conjugate, regime tag, |f'(b)|**q and |f'(a)|**q) and build their
certificate in one place.

At q = 1 the power-mean shape collapses through the x**0 = 1 convention
to (b-a) * [(mu_b+eta_b)*X + (mu_a+eta_a)*Y]; there is no separate code
path for it, only a separate certificate tag.

A certificate is only issued under an established convexity hypothesis:
builtin and user-asserted models pass directly, anything else is sampled
and the resulting certificate is flagged advisory.  Bounds are evaluated
in ordinary floating point (exact rationals when the inputs allow); they
are analytic constants, not outward-rounded interval enclosures, so
soundness tests should carry a small slack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import (holder_coeffs, power_mean_coeffs,
                           regime_selected, regime_selected_eps)
from .errors import Refusal
from .expression import FunctionModel, probe_convexity
from .params import RuleParams, classify_regime, conjugate, _normalize
from .rules import Interval, interior_node, require_within_domain, rule_value

POWER_MEAN = "T22"
POWER_MEAN_Q1 = "T22q1"
HOLDER_INTERIOR = "T23"
HOLDER_ENDPOINT = "T24"


@dataclass(frozen=True)
class ErrorCertificate:
    """A certified bound on |approx - integral mean| over an interval.

    ``advisory`` is set when the convexity hypothesis was only sampled,
    never proven; such certificates are best-effort, not guarantees.
    """

    interval: Interval
    params: RuleParams
    theorem: str
    q: object
    p: object
    bound: object
    approx: object
    advisory: bool
    regime: str


def _established_convexity(f: FunctionModel, iv: Interval, q) -> bool:
    """The advisory flag for a certificate on f over iv at exponent q.

    False for models with proven convexity of |f'|**q, True when the
    sampled probe passes; raises Refusal when the probe fails.
    """
    if f.convex_for_all_q:
        return False
    if probe_convexity(f, q, iv.a, iv.b):
        return True
    raise Refusal(
        f"convexity of |f'|**{q} not established for {f.name} on "
        f"[{iv.a}, {iv.b}]")


def _clamp(v):
    """Selected constants are nonnegative in-regime; shave rounding dust."""
    return v if v >= 0 else 0 * v


def _certify(f: FunctionModel, iv: Interval, params: RuleParams, q,
             theorem: str) -> ErrorCertificate:
    """The engine prologue, the theorem's bound formula and the certificate.

    The prologue normalises q and checks it against the engine's range
    (q >= 1 for T22, q > 1 for T23 and T24), checks the domain and the
    convexity hypothesis, and computes the conjugate p, the regime tag and
    X = |f'(b)|**q, Y = |f'(a)|**q.  T23 and T24 share one formula and
    differ only in its two weights and two averages.
    """
    q = _normalize(q)
    if theorem == POWER_MEAN and not q >= 1:
        raise Refusal(f"q >= 1 required, got {q!r}")
    if theorem != POWER_MEAN and not q > 1:
        raise Refusal(f"q > 1 required, got {q!r}")
    require_within_domain(f, iv)
    advisory = _established_convexity(f, iv, q)
    p = conjugate(q).p
    tag = classify_regime(params).tag
    xb = abs(f.derivative(iv.b)) ** q
    ya = abs(f.derivative(iv.a)) ** q
    inv_q = 1 / q
    if theorem == POWER_MEAN:
        gamma, mu_b, mu_a, upsilon, eta_b, eta_a = (
            _clamp(v) for v in regime_selected(power_mean_coeffs(params), tag))
        outer = 1 - inv_q
        term1 = gamma ** outer * _clamp(mu_b * xb + mu_a * ya) ** inv_q
        term2 = upsilon ** outer * _clamp(eta_b * xb + eta_a * ya) ** inv_q
        bound = iv.width * (term1 + term2)
    else:
        eps_first, eps_second = (
            _clamp(v) for v in regime_selected_eps(holder_coeffs(params, p), tag))
        alpha = params.alpha
        if theorem == HOLDER_INTERIOR:
            node_pow = abs(f.derivative(interior_node(iv, params))) ** q
            w1, d1 = (1 - alpha) ** inv_q, (node_pow + ya) / 2
            w2, d2 = alpha ** inv_q, (node_pow + xb) / 2
        else:
            w1, d1 = 1, (xb * (1 - alpha) ** 2 + (1 - alpha * alpha) * ya) / 2
            w2, d2 = 1, (xb * alpha * (2 - alpha) + alpha * alpha * ya) / 2
        inv_p = 1 / p
        bound = iv.width * (1 / (p + 1)) ** inv_p * (
            w1 * eps_first ** inv_p * d1 ** inv_q
            + w2 * eps_second ** inv_p * d2 ** inv_q)
    return ErrorCertificate(
        interval=iv, params=params,
        theorem=POWER_MEAN_Q1 if q == 1 else theorem,
        q=q, p=p, bound=bound, approx=rule_value(f, iv, params),
        advisory=advisory, regime=tag)


def power_mean_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                     q) -> ErrorCertificate:
    """Certificate from the power-mean route; q >= 1."""
    return _certify(f, iv, params, q, POWER_MEAN)


def holder_interior_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                          q) -> ErrorCertificate:
    """Certificate from the conjugate-exponent route with interior-node
    averages; q > 1."""
    return _certify(f, iv, params, q, HOLDER_INTERIOR)


def holder_endpoint_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                          q) -> ErrorCertificate:
    """Certificate from the conjugate-exponent route with endpoint-only
    averages; q > 1."""
    return _certify(f, iv, params, q, HOLDER_ENDPOINT)


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
    interior-node engine, then smaller q.  Raises Refusal when the grid
    is empty or every candidate refuses.
    """
    q_grid = sorted(q_grid)
    if not q_grid:
        raise Refusal("empty q grid")
    candidates = []
    refusals = []
    for engine in ENGINES.values():
        for q in q_grid:
            try:
                candidates.append(engine(f, iv, params, q))
            except Refusal as exc:
                refusals.append(str(exc))
    if not candidates:
        raise Refusal("no engine produced a certificate: "
                      + "; ".join(sorted(set(refusals))))
    return min(candidates, key=lambda c: float(c.bound))
