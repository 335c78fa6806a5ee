"""Certified upper bounds on |rule value - integral mean|.

Three engines, one per theorem, bound the same two weight integrals of the
rule-minus-mean identity, each by a weight times a q-mean of |f'|**q, so
all three share one shape (X, Y, N: |f'|**q at b, a and the rule's node):

    (b-a) * scale * [w1 * d1**(1/q) + w2 * d2**(1/q)]

  t22 power_mean_bound       q >= 1; scale 1, w = gamma**(1-1/q),
                             upsilon**(1-1/q); d = mu_b*X + mu_a*Y, eta_b*X + eta_a*Y
  t23 holder_interior_bound  q > 1; scale (1/(p+1))**(1/p), w = (1-alpha)**(1/q)
                             * eps1**(1/p), alpha**(1/q) * eps2**(1/p); d = (N+Y)/2, (N+X)/2
  t24 holder_endpoint_bound  q > 1; scale as t23, w = eps1**(1/p), eps2**(1/p);
                             d = alpha-weighted blends of X and Y

The regime tag that ``RuleParams`` derives once picks the constants through
``coefficients.SELECTED``; ``coefficients`` decides whether a selected eps
underflows.  At q = 1 the t22 weights are 1 by the x**0 = 1 convention and
only the certificate tag (T22q1) differs.

``prologue`` runs once per (f, [a, b], params, q, engine): q, domain, sign
and convexity hypotheses, conjugate, regime tag and the engine's constants.
Its step, ``(measure, issue)``, keeps nothing of a solve.
``measure(a, b, width, left=None, right=None)`` returns ``(bound, left,
right, node)``: the bound of a piece of [a, b], a plain number, its ends,
each a pair (|f'|**q, f), and the end that the lower half of a cut at
``rules.midpoint(a, b)`` may take: (|f'|**q there, None) where the cut is
t23's node, at an exact alpha = 1/2 between Fraction ends, decided once per
solve; else None.  It reads what it is not given, in one order: |f'|**q at
b, then at a, at t23's node, the bound, f at a, then at b, and last that the
bound is finite.  A driver hands a cut's end, or that offer, across it.
``issue(piece, bound, left, right)`` reads f at the node, checks the rule
value and makes the ErrorCertificate; ``certify`` serves one piece.  The
|f'|**q reader refuses a kink of f, where an argument of sign in f' is 0;
the step skips the domain check, which [a, b] passed.

A certificate is only issued under an established convexity hypothesis:
builtin and user-asserted models pass directly, anything else is sampled
and the resulting certificate is flagged advisory.  Bounds are evaluated
in ordinary floating point (exact rationals when the inputs allow); they
are analytic constants, not outward-rounded interval enclosures, so
soundness tests should carry ``SOUNDNESS_SLACK``.  A non-finite float bound
or rule value raises OverflowError, a lost power ArithmeticError: a nonzero
|f'| whose q-th power is 0, a q-mean whose 1/q-th power is 0 though a term
in it has a nonzero weight and power (a float mean that rounds to 0, or
an exact one below the float range), or in t23 and t24 an eps that
underflows near q = 1.  An overflowing f or f', an exact |f'|**q past the
budget of ``params._power`` or an exact q-mean past the float range is an
OverflowError that names the engine, f and the point or piece.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coefficients import SELECTED, eps_underflows, holder_coeffs, power_mean_coeffs
from .errors import DomainError, Refusal
from .expression import FunctionModel, probe_convexity
from .params import RuleParams, _lift, _power, _ratio, _reduced, classify_regime, finite_q
from .record import Record
from .rules import Interval, require_within_domain, stencil

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
             name: str, verdicts=None):
    """Establish the hypotheses of engine ``name`` (an ``ENGINES`` key, as
    given) on iv once and return the step for any piece of iv, which
    inherits them, as ``(measure, issue)``; ``measure`` returns the bound,
    both ends and the end it offers a lower half (see the module docstring).

    q must be finite (else a DomainError), >= 1 for t22 and > 1 for t23
    and t24.  f must be absolutely continuous: an f calling sign is
    refused, even x*sign(x), and the step refuses a piece whose end or t23
    node is a kink of f (abs(x) at 0); both facts are read off the model.
    Builtin and user-asserted models give non-advisory certificates; a
    numerically-probed one is sampled, and a passing probe (shared through
    ``verdicts``, q -> verdict) gives advisory ones, a failing probe a
    Refusal.  The engine supplies ``scale, w1, w2``, ``averages(node_pow,
    xb, ya) -> (d1, d2)`` and ``feeds``, the weights of (xb, ya, node_pow)
    in d1 and d2, which tell a lost q-mean from a true 0.
    """
    if name not in ENGINES:
        raise DomainError(f"unknown theorem {name!r}; expected one of {sorted(ENGINES)}")
    q = finite_q(q)
    if not (q >= 1 if name == "t22" else q > 1):
        raise Refusal(f"{name} needs q {'>=' if name == 't22' else '>'} 1, got {q}")
    require_within_domain(f, iv)
    if f.has_sign:
        raise Refusal(f"{name} needs f absolutely continuous on [{iv.a}, {iv.b}]; sign may jump")
    advisory = f.provenance == "numerically-probed"
    verdicts = {} if verdicts is None else verdicts
    if advisory and q not in verdicts:
        verdicts[q] = probe_convexity(f, q, iv.a, iv.b)
    if advisory and not verdicts[q]:
        raise Refusal(f"{name} needs convexity of |f'|**{q}, not established "
                      f"for {f.name} on [{iv.a}, {iv.b}]")
    tag = classify_regime(params)
    theorem = "T22q1" if q == 1 else name.upper()
    if type(q) is Fraction:  # q = n/d: 1/p = 1 - 1/q = (n - d)/n, 1/(p + 1) = (n - d)/(2n - d)
        n, d = q._numerator, q._denominator  # each power an int, or the float x ** F reads
        p, base = math.inf if n == d else Fraction(n, n - d), (n - d) / (2 * n - d)
        k, inv_q, inv_p = (1, 1, 0) if n == d else (n if d == 1 else n / d, d / n, (n - d) / n)
    else:  # p as conjugate gives it, and 1/p in each engine's float form
        p = math.inf if q == 1 else q / (q - 1)
        k, inv_q, inv_p, base = q, 1 / q, 1 - 1 / q if name == "t22" else 1 / p, 1 / (p + 1)
    alpha, beta = params.alpha, params.kink_pairs[0][1]  # beta = 1 - alpha
    exact = params.exact  # read per point, and by t22's scale
    hands_on = (name == "t23" and type(alpha) is Fraction and alpha == Fraction(1, 2)
                and type(iv.a) is type(iv.b) is Fraction)  # then every cut is t23's node

    def slope(x):  # |f'(x)|**q, the one power site
        try:
            d = abs(f.derivative(x))
            if f.kinks and any(g(x) == 0 for g in f.kinks):
                raise Refusal(f"{name} reads |f'|**{q} at the kink x={x} of {f.name}")
            h = _power(_lift(d) if exact else d, k)
        except OverflowError:
            raise OverflowError(f"{name} |f'|**{q} overflows at x={x} of {f.name}") from None
        if d and not h:  # the q-mean of a lost power would read 0, not max |f'|
            raise ArithmeticError(f"{name} |f'|**{q} underflows at x={x} of {f.name}")
        return h

    if name == "t22":
        gamma, mu_b, mu_a, upsilon, eta_b, eta_a = (
            _clamp(v) for v in map(_lift, power_mean_coeffs(params, SELECTED[tag][:6]).values()))
        scale, w1, w2 = _ratio(1, 1) if exact else 1, gamma ** inv_p, upsilon ** inv_p
        feeds = (mu_b, mu_a, 0), (eta_b, eta_a, 0)

        def averages(node_pow, xb, ya):
            return mu_b * xb + mu_a * ya, eta_b * xb + eta_a * ya
    else:
        if not p > 1:  # q so large that q / (q - 1) rounds to 1
            raise ArithmeticError(f"{name} conjugate exponent of q={q} rounds to 1")
        if eps_underflows(params, p):
            raise ArithmeticError(f"{name} eps underflows at q={q}, too close to 1")
        eps_first, eps_second = (
            _clamp(v) for v in map(holder_coeffs(params, p).get, SELECTED[tag][6:]))
        scale = base ** inv_p
        w1, w2 = eps_first ** inv_p, eps_second ** inv_p  # the t24 weights are 1
        if name == "t23":
            w1, w2 = beta ** inv_q * w1, alpha ** inv_q * w2
            feeds = (0, 1, 1), (1, 0, 1)

            def averages(node_pow, xb, ya):
                return (node_pow + ya) / 2, (node_pow + xb) / 2
        else:
            # two_minus stays a factor: xb * alpha * two_minus is left-associated
            alpha, beta = _lift(alpha), _lift(beta)
            two_minus, beta_sq, one_minus_sq, alpha_sq = (
                2 - alpha, beta ** 2, 1 - alpha * alpha, alpha * alpha)
            feeds = (beta_sq, one_minus_sq, 0), (alpha * two_minus, alpha_sq, 0)

            def averages(node_pow, xb, ya):
                return ((xb * beta_sq + one_minus_sq * ya) / 2,
                        (xb * alpha * two_minus + alpha_sq * ya) / 2)

    node_of, combine = stencil(params)

    def value(x):  # f(x)
        try:
            return f.value(x)
        except OverflowError:
            raise OverflowError(f"{name} f overflows at x={x} of {f.name}") from None

    def finite(v, a, b):  # a bound or rule value of [a, b]
        if isinstance(v, float) and not math.isfinite(v):
            raise OverflowError(f"{theorem} on [{a}, {b}] is not finite")
        return v

    def measure(a, b, width, left=None, right=None):
        xb = slope(b) if right is None else right[0]
        ya = slope(a) if left is None else left[0]
        node_pow = slope(node_of(a, b)) if name == "t23" else 0
        d1, d2 = averages(node_pow, xb, ya)
        try:
            r1, r2 = d1 ** inv_q, d2 ** inv_q  # each weight and term is nonnegative
        except OverflowError:  # an exact mean past the float range
            raise OverflowError(
                f"{name} q-mean of |f'|**{q} overflows on [{a}, {b}] of {f.name}") from None
        if not (r1 and r2):  # a root of a mean of nonnegative terms is 0 only if each term is
            for r, w, weights in zip((r1, r2), (w1, w2), feeds):  # w*r is 0 if w is
                if not r and w and any(c and x for c, x in zip(weights, (xb, ya, node_pow))):
                    raise ArithmeticError(
                        f"{name} q-mean of |f'|**{q} underflows on [{a}, {b}] of {f.name}")
        bound = width * scale * (w1 * r1 + w2 * r2)
        left = (ya, value(a)) if left is None else left
        right = (xb, value(b)) if right is None or right[1] is None else right
        return (finite(_reduced(bound) if exact else bound, a, b), left, right,
                (node_pow, None) if hands_on else None)

    def issue(piece: Interval, bound, left, right) -> ErrorCertificate:
        a, b = piece.a, piece.b
        approx = finite(combine(left[1], right[1], value(node_of(a, b))), a, b)
        return ErrorCertificate(piece, params, theorem, q, p, bound, approx, advisory, tag)

    return measure, issue


def certify(piece: Interval, measure, issue) -> ErrorCertificate:
    """The certificate of piece, whose ends ``measure`` reads."""
    return issue(piece, *measure(piece.a, piece.b, piece.width)[:3])


def power_mean_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                     q) -> ErrorCertificate:
    """Certificate from the power-mean route; q >= 1."""
    return certify(iv, *prologue(f, iv, params, q, "t22"))


def holder_interior_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                          q) -> ErrorCertificate:
    """Certificate from the conjugate-exponent route with interior-node
    averages; q > 1."""
    return certify(iv, *prologue(f, iv, params, q, "t23"))


def holder_endpoint_bound(f: FunctionModel, iv: Interval, params: RuleParams,
                          q) -> ErrorCertificate:
    """Certificate from the conjugate-exponent route with endpoint-only
    averages; q > 1."""
    return certify(iv, *prologue(f, iv, params, q, "t24"))


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
    fails arithmetically (a float overflow at a large q, an exact power
    past the budget of ``params._power``) drops out; a DomainError stops
    the search.  Raises Refusal when the grid is empty or every candidate
    drops out, naming each candidate's engine, q and reason.
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
                candidates.append(certify(iv, *prologue(f, iv, params, q, name, verdicts)))
            except (Refusal, ArithmeticError) as exc:
                refusals.append(f"{name} at q={q}: {exc}")
    if not candidates:
        raise Refusal("no engine produced a certificate: "
                      + "; ".join(refusals))
    return min(candidates, key=lambda c: float(c.bound))
