import math
import random
import subprocess
import sys
from fractions import Fraction as F
from operator import attrgetter

import pytest

from certquad import (Interval, Refusal, RuleParams, best_bound,
                      from_expression, holder_endpoint_bound,
                      holder_interior_bound, named_rule, power_mean_bound,
                      rule_value)
from certquad.params import POWER_BITS
from certquad.prng import SplitMix64
from certquad.rules import midpoint

from conftest import INTERVALS, child_env, uniform_in

SIMPSON = named_rule("simpson")
MIDPOINT = named_rule("midpoint")
TRAPEZOID = named_rule("trapezoid")


# Closed forms of the named reductions, written directly from their
# endpoint-weight displays so the engine is checked against independent
# arithmetic.

def _dpow(f, x, q):
    return abs(float(f.derivative(x))) ** q


def fixture_simpson_power_mean(f, a, b, q):
    X, Y = _dpow(f, b, q), _dpow(f, a, q)
    return (b - a) * (5 / 72) ** (1 - 1 / q) * (
        ((29 * X + 61 * Y) / 1296) ** (1 / q)
        + ((61 * X + 29 * Y) / 1296) ** (1 / q))


def fixture_midpoint_power_mean(f, a, b, q):
    X, Y = _dpow(f, b, q), _dpow(f, a, q)
    return (b - a) / 8 * (((X + 2 * Y) / 3) ** (1 / q)
                          + ((2 * X + Y) / 3) ** (1 / q))


def fixture_midpoint_q1(f, a, b):
    return (b - a) / 4 * (abs(float(f.derivative(a)))
                          + abs(float(f.derivative(b)))) / 2


def fixture_trapezoid_power_mean(f, a, b, q):
    X, Y = _dpow(f, b, q), _dpow(f, a, q)
    return (b - a) / 8 * (((X + 5 * Y) / 6) ** (1 / q)
                          + ((5 * X + Y) / 6) ** (1 / q))


def fixture_simpson_holder_interior(f, a, b, q):
    p = q / (q - 1)
    X, Y = _dpow(f, b, q), _dpow(f, a, q)
    M = _dpow(f, (a + b) / 2, q)
    factor = ((1 + 2 ** (p + 1)) / (3 * (p + 1))) ** (1 / p)
    return (b - a) / 12 * factor * (((M + Y) / 2) ** (1 / q)
                                    + ((M + X) / 2) ** (1 / q))


def fixture_simpson_holder_endpoint(f, a, b, q):
    p = q / (q - 1)
    X, Y = _dpow(f, b, q), _dpow(f, a, q)
    factor = ((1 + 2 ** (p + 1)) / (3 * (p + 1))) ** (1 / p)
    return (b - a) / 12 * factor * (((3 * X + Y) / 4) ** (1 / q)
                                    + ((3 * Y + X) / 4) ** (1 / q))


def fixture_midpoint_holder_interior(f, a, b, q):
    p = q / (q - 1)
    X, Y = _dpow(f, b, q), _dpow(f, a, q)
    M = _dpow(f, (a + b) / 2, q)
    return (b - a) / 4 * (1 / (p + 1)) ** (1 / p) * (
        ((M + Y) / 2) ** (1 / q) + ((M + X) / 2) ** (1 / q))


# ---------------------------------------------------------------------------
# Engine spot checks

def test_power_mean_midpoint_q1_exact(corpus):
    cert = power_mean_bound(corpus["pow:2"], Interval(F(0), F(1)),
                            MIDPOINT, F(1))
    assert cert.bound == F(1, 4)
    assert cert.approx == F(1, 4)
    assert cert.theorem == "T22q1"
    assert cert.regime == "Case1"
    assert not cert.advisory
    # actual error 1/12 is inside the certificate
    assert abs(F(1, 4) - F(1, 3)) <= cert.bound


def test_power_mean_trapezoid_q1_exact(corpus):
    cert = power_mean_bound(corpus["pow:2"], Interval(F(0), F(1)),
                            TRAPEZOID, F(1))
    assert cert.bound == F(1, 4)
    assert abs(F(1, 2) - F(1, 3)) <= cert.bound


def test_power_mean_simpson_exp_q2(corpus):
    cert = power_mean_bound(corpus["exp"], Interval(0.0, 1.0), SIMPSON, 2.0)
    e2 = math.e ** 2
    expected = (5 / 72) ** 0.5 * (((29 * e2 + 61) / 1296) ** 0.5
                                  + ((61 * e2 + 29) / 1296) ** 0.5)
    assert float(cert.bound) == pytest.approx(expected, rel=1e-14)
    actual = abs(float(cert.approx) - (math.e - 1))
    assert actual <= float(cert.bound)


def test_holder_interior_alpha_one_edge(corpus):
    # the (1-alpha) side carries weight zero; certificate still finite
    cert = holder_interior_bound(corpus["exp"], Interval(0.0, 1.0),
                                 RuleParams(1.0, 0.5), 2.0)
    assert cert.regime == "Case3"
    assert float(cert.bound) > 0
    gap = abs(float(cert.approx) - (math.e - 1))
    assert gap <= float(cert.bound)


def test_engines_at_float_regime_boundary(corpus):
    # lambda*(1-alpha) rounds onto alpha here; the regime tag and the eps
    # activity tests must agree, so every engine certifies
    params = RuleParams(0.1859062658947177, 0.22835977984652503)
    iv = Interval(0.0, 1.0)
    mean = math.e - 1
    for engine in (power_mean_bound, holder_interior_bound,
                   holder_endpoint_bound):
        cert = engine(corpus["exp"], iv, params, 2.0)
        assert abs(float(cert.approx) - mean) <= float(cert.bound)
    cert = best_bound(corpus["exp"], iv, params, [1.5, 2.0, 3.0])
    assert abs(float(cert.approx) - mean) <= float(cert.bound)


def test_engines_reject_bad_q(corpus):
    iv = Interval(0.5, 1.5)
    with pytest.raises(Refusal):
        power_mean_bound(corpus["exp"], iv, SIMPSON, 0.5)
    with pytest.raises(Refusal):
        holder_interior_bound(corpus["exp"], iv, SIMPSON, 1)
    with pytest.raises(Refusal):
        holder_endpoint_bound(corpus["exp"], iv, SIMPSON, 1.0)


def test_probed_function_gets_advisory_flag():
    f = from_expression("x^2 + exp(x)")
    cert = power_mean_bound(f, Interval(0.5, 1.5), SIMPSON, 2.0)
    assert cert.advisory
    assert f.provenance == "numerically-probed"


def test_probe_failure_refuses():
    f = from_expression("x^1.5")  # |f'| concave on (0, inf)
    with pytest.raises(Refusal):
        power_mean_bound(f, Interval(0.5, 2.5), MIDPOINT, 1.0)


def test_user_asserted_skips_probe_and_advisory():
    f = from_expression("x^2", assume_convex=True)
    cert = power_mean_bound(f, Interval(0.5, 1.5), SIMPSON, 2.0)
    assert not cert.advisory


# ---------------------------------------------------------------------------
# Reduction equivalences against the independent fixtures

def test_reductions_exact_rational_q1(corpus):
    x2 = corpus["pow:2"]
    iv = Interval(F(0), F(1))
    mid = power_mean_bound(x2, iv, MIDPOINT, F(1))
    assert mid.bound == F(1, 4) == F(fixture_midpoint_q1(x2, 0.0, 1.0))
    trap = power_mean_bound(x2, iv, TRAPEZOID, F(1))
    assert trap.bound == F(1, 4)
    simp = power_mean_bound(x2, iv, SIMPSON, F(1))
    # q=1 collapse of the Simpson constants: (29+61)/1296 = 5/72 per side
    assert simp.bound == F(2) * F(90, 1296)


@pytest.mark.parametrize("fixture,engine,params,qs", [
    (fixture_simpson_power_mean, power_mean_bound, SIMPSON, (1.5, 2.0, 3.0)),
    (fixture_midpoint_power_mean, power_mean_bound, MIDPOINT, (1.5, 2.0, 3.0)),
    (fixture_trapezoid_power_mean, power_mean_bound, TRAPEZOID, (1.5, 2.0, 3.0)),
    (fixture_simpson_holder_interior, holder_interior_bound, SIMPSON,
     (1.5, 2.0, 3.0)),
    (fixture_midpoint_holder_interior, holder_interior_bound, MIDPOINT,
     (1.5, 2.0, 3.0)),
    (fixture_simpson_holder_endpoint, holder_endpoint_bound, SIMPSON,
     (1.5, 2.0, 3.0)),
])
def test_named_reductions_numeric(corpus, fixture, engine, params, qs):
    rng = SplitMix64(17)
    names = sorted(corpus)
    for _ in range(20):
        f = corpus[rng.choice(names)]
        a = uniform_in(rng, 0.4, 1.2)
        b = a + uniform_in(rng, 0.3, 1.5)
        q = rng.choice(qs)
        cert = engine(f, Interval(a, b), params, q)
        want = fixture(f, a, b, q)
        assert float(cert.bound) == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Soundness and structural properties

def test_soundness_sample(corpus, oracle_mean):
    # smaller cousin of the acceptance sweep: 5x5 grid, one interval,
    # every engine
    grid = [i / 4 for i in range(5)]
    a, b = INTERVALS[1]
    for f in corpus.values():
        mean = oracle_mean(f, a, b)
        for alpha in grid:
            for lam in grid:
                params = RuleParams(alpha, lam)
                iv = Interval(a, b)
                for q in (1.0, 2.0):
                    cert = power_mean_bound(f, iv, params, q)
                    gap = abs(float(cert.approx) - mean)
                    assert gap <= float(cert.bound) + 1e-10
                for q in (1.5, 3.0):
                    for engine in (holder_interior_bound,
                                   holder_endpoint_bound):
                        cert = engine(f, iv, params, q)
                        gap = abs(float(cert.approx) - mean)
                        assert gap <= float(cert.bound) + 1e-10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
def test_bound_covers_the_rounding_of_approx(corpus):
    # Simpson's rule is exact for x**2, so the whole error of approx is the
    # rounding of its float evaluation at a huge offset; the bound, which
    # leaves that rounding out, is 3.6 times too small.  Compared exactly,
    # with no slack, against the mean (a*a + a*b + b*b) / 3.
    a, b = 1000000.0, 1000000.0000000001
    cert = power_mean_bound(corpus["pow:2"], Interval(a, b), SIMPSON, 1)
    assert not cert.advisory
    ea, eb = F(a), F(b)
    assert abs(F(cert.approx) - (ea * ea + ea * eb + eb * eb) / 3) <= F(cert.bound)


def test_bounds_dominate_raw_weighted_integral(corpus, oracle_mean):
    # every engine starts from the same weighted integral of |f'| along
    # the chord; that quantity must sit between the true error and each
    # closed-form bound, independently of the coefficient formulas
    from certquad import integrate_ref
    rng = SplitMix64(777)
    names = sorted(corpus)
    for _ in range(60):
        f = corpus[rng.choice(names)]
        a = uniform_in(rng, 0.3, 1.5)
        b = a + uniform_in(rng, 0.2, 1.5)
        alpha, lam = rng.uniform(), rng.uniform()
        iv = Interval(a, b)
        params = RuleParams(alpha, lam)
        c1, c2 = alpha * lam, 1 - lam * (1 - alpha)

        def chord(t):
            return abs(float(f.derivative(t * b + (1 - t) * a)))

        raw = (b - a) * (
            integrate_ref(lambda t: abs(t - c1) * chord(t), 0, 1 - alpha,
                          tol=1e-12, kinks=(c1,)).value
            + integrate_ref(lambda t: abs(t - c2) * chord(t), 1 - alpha, 1,
                            tol=1e-12, kinks=(c2,)).value)
        gap = abs(float(rule_value(f, iv, params)) - oracle_mean(f, a, b))
        assert gap <= raw + 1e-9
        for engine, q in ((power_mean_bound, 1.0), (power_mean_bound, 2.0),
                          (holder_interior_bound, 1.5),
                          (holder_endpoint_bound, 3.0)):
            assert raw <= float(engine(f, iv, params, q).bound) + 1e-9


def test_scale_covariance(corpus):
    from certquad.expression import Const, FunctionModel, Mul
    f = corpus["exp"]
    c = 3.5
    scaled = FunctionModel(
        name="3.5*exp", expr=Mul(Const(c), f.expr), domain=f.domain,
        provenance=f.provenance)
    assert scaled.deriv == Mul(Const(c), f.deriv)
    iv = Interval(0.25, 1.75)
    for engine, q in ((power_mean_bound, 2.0), (holder_interior_bound, 1.5),
                      (holder_endpoint_bound, 3.0)):
        base = engine(f, iv, SIMPSON, q)
        big = engine(scaled, iv, SIMPSON, q)
        assert float(big.bound) == pytest.approx(c * float(base.bound),
                                                 rel=1e-12)
        assert float(big.approx) == pytest.approx(c * float(base.approx),
                                                  rel=1e-12)


def test_width_scaling_with_constant_slope():
    # |f'| constant, so halving the interval exactly halves each bound
    f = from_expression("3*x + 1", assume_convex=True)
    params = RuleParams(F(2, 5), F(3, 4))
    for engine, q in ((power_mean_bound, F(2)), (holder_interior_bound, F(2)),
                      (holder_endpoint_bound, F(2))):
        whole = engine(f, Interval(F(0), F(2)), params, q)
        half = engine(f, Interval(F(0), F(1)), params, q)
        assert float(whole.bound) == pytest.approx(2 * float(half.bound),
                                                   rel=1e-14)


def test_fraction_exponent_flows_through_holder(corpus):
    cert = holder_interior_bound(corpus["pow:2"], Interval(F(0), F(1)),
                                 SIMPSON, F(3, 2))
    assert cert.p == F(3)  # conjugate of 3/2 kept exact
    ref = holder_interior_bound(corpus["pow:2"], Interval(0.0, 1.0),
                                SIMPSON, 1.5)
    assert float(cert.bound) == pytest.approx(float(ref.bound), rel=1e-13)


def test_best_bound_enumerates(corpus):
    x2 = corpus["pow:2"]
    iv = Interval(F(0), F(1))
    cert = best_bound(x2, iv, MIDPOINT, [F(1), F(2)])
    # candidate set includes the q=1 power-mean value 1/4
    q1 = power_mean_bound(x2, iv, MIDPOINT, F(1))
    assert float(cert.bound) <= float(q1.bound)
    candidates = [power_mean_bound(x2, iv, MIDPOINT, F(1)),
                  power_mean_bound(x2, iv, MIDPOINT, F(2)),
                  holder_interior_bound(x2, iv, MIDPOINT, F(2)),
                  holder_endpoint_bound(x2, iv, MIDPOINT, F(2))]
    assert float(cert.bound) == min(float(c.bound) for c in candidates)


def test_best_bound_singleton(corpus):
    cert = best_bound(corpus["exp"], Interval(0.0, 1.0), SIMPSON, [1.0])
    # q = 1 only fits the power-mean engine
    assert cert.theorem == "T22q1"


def test_best_bound_refusals(corpus):
    # |f'|^q is proportional to x^(q/4), concave for q = 1 and q = 2 both
    with pytest.raises(Refusal):
        best_bound(from_expression("x^1.25"), Interval(0.5, 1.5),
                   MIDPOINT, [1.0, 2.0])
    with pytest.raises(Refusal):
        best_bound(from_expression("x^2", assume_convex=True),
                   Interval(0.5, 1.5), MIDPOINT, [])
    # every candidate fails arithmetically; the refusal names each one
    with pytest.raises(Refusal) as info:
        best_bound(corpus["exp"], Interval(0.0, 1.0), MIDPOINT, [1e17])
    for name in ("t22", "t23", "t24"):
        assert f"{name} at q=1e+17: " in str(info.value)


def test_best_bound_probes_once_per_q(monkeypatch):
    import certquad.bounds as bounds
    probe, qs = bounds.probe_convexity, []

    def counted(f, q, lo, hi):
        qs.append(q)
        return probe(f, q, lo, hi)

    monkeypatch.setattr(bounds, "probe_convexity", counted)
    f = from_expression("x^2*exp(x)")
    cert = best_bound(f, Interval(0, 1), SIMPSON, [1, 2, 3, 4])
    assert sorted(qs) == [1, 2, 3, 4] and cert.advisory
    # a q that fails the probe refuses once for each engine that reaches it
    qs.clear()
    with pytest.raises(Refusal) as info:
        best_bound(from_expression("x^1.25"), Interval(0.5, 1.5), MIDPOINT,
                   [1.0, 2.0])
    assert qs == [1.0, 2.0]
    message = str(info.value)
    for name, q in (("t22", 1.0), ("t22", 2.0), ("t23", 2.0), ("t24", 2.0)):
        assert (f"{name} at q={q}: {name} needs convexity of |f'|**{q}, "
                "not established for x^1.25 on [0.5, 1.5]") in message
    assert "t23 at q=1.0: t23 needs q > 1, got 1.0" in message


@pytest.mark.parametrize("engine", [holder_interior_bound, holder_endpoint_bound])
def test_holder_engines_near_q_one_refuse_or_hold(engine, corpus):
    # eps = c**(p+1) +- d**(p+1) with bases in [0, 1] underflows as q -> 1+;
    # dropping it silently would understate the bound
    f, iv = corpus["pow:2"], Interval(F(0), F(1))  # mean 1/3
    outcomes = set()
    for params in (MIDPOINT, TRAPEZOID, SIMPSON, RuleParams(F(1, 3), F(1, 4))):
        for k in range(1, 7):
            for q in (1 + 10.0 ** -k, 1 + F(1, 10 ** k)):
                try:
                    cert = engine(f, iv, params, q)
                except ArithmeticError:
                    outcomes.add("refused")
                    continue
                outcomes.add("certified")
                assert float(cert.bound) >= abs(float(cert.approx) - 1 / 3), (params, q)
    assert outcomes == {"refused", "certified"}


def test_holder_underflow_refusal_names_engine_and_q(corpus):
    with pytest.raises(ArithmeticError, match=r"t23 .* q=1\.0001"):
        holder_interior_bound(corpus["pow:2"], Interval(0, 1), MIDPOINT, 1.0001)
    with pytest.raises(ArithmeticError, match="t24 eps underflows"):  # p > 1e400
        holder_endpoint_bound(corpus["pow:2"], Interval(0, 1), MIDPOINT,
                              1 + F(1, 10 ** 400))
    # best skips the refused candidates and keeps a sound one
    cert = best_bound(corpus["exp"], Interval(0, 1), SIMPSON, [1.0001, 2])
    assert float(cert.bound) >= abs(float(cert.approx) - (math.e - 1))


def test_holder_underflow_guard_reads_differences_exactly(corpus):
    # Case3 with 1 - alpha = 10**-k: eps2 = x**3 - (x - y)**3 is about 3*10**-k
    iv = Interval(F(0), F(1))
    for k, underflows in ((100, False), (400, True)):
        params = RuleParams(1 - F(1, 10 ** k), F(1))
        assert params.alpha * params.lam > 1 - params.alpha  # Case3
        if underflows:
            with pytest.raises(ArithmeticError, match="t24 eps underflows"):
                holder_endpoint_bound(corpus["exp"], iv, params, 2)
        else:
            assert holder_endpoint_bound(corpus["exp"], iv, params, 2).regime == "Case3"


def test_holder_exact_q_near_one_refuses_fast():
    # q = 1 + 1/N has exact eps powers of exponent N + 2; the refusal must
    # come before any of them is computed: from the underflow guard inside
    # (0, 1), from the power budget at alpha = 0 or 1, where no eps underflows
    for alpha, lam, q, theorem in (("1/3", "1/4", "1000001/1000000", "t23"),
                                   ("1", "1/3", "100000001/100000000", "t23"),
                                   ("0", "1/3", "100000001/100000000", "t24")):
        proc = subprocess.run(
            [sys.executable, "-m", "certquad", "bound", "--f", "pow:2", "--a", "0",
             "--b", "1", "--alpha", alpha, "--lambda", lam,
             "--q", q, "--theorem", theorem],
            capture_output=True, text=True, env=child_env(), timeout=10)
        assert proc.returncode == 1, alpha
        assert (proc.stdout, proc.stderr.count("\n")) == ("", 1)
        if alpha != "1/3":
            assert f"exceeds {POWER_BITS} bits" in proc.stderr


# ---------------------------------------------------------------------------
# The step against its per-engine formulas

def _reference_step(f, piece, params, q, name):
    """Bound and approx of the step as three per-engine formulas, the form
    the prologue had before the engines shared one shape, and the rule
    value as its plain formula, apart from ``rules.stencil``; kept as the
    reference."""
    from certquad.bounds import _clamp
    from certquad.coefficients import SELECTED, holder_coeffs, power_mean_coeffs
    from certquad.params import classify_regime, conjugate
    derivative = f.derivative
    p = conjugate(q)
    tag = classify_regime(params)
    inv_q = 1 / q
    alpha = params.alpha
    if name == "t22":
        gamma, mu_b, mu_a, upsilon, eta_b, eta_a = (
            _clamp(v) for v in map(power_mean_coeffs(params).get, SELECTED[tag][:6]))
        outer = 1 - inv_q
        gamma_w, upsilon_w = gamma ** outer, upsilon ** outer
    else:
        eps_first, eps_second = (
            _clamp(v) for v in map(holder_coeffs(params, p).get, SELECTED[tag][6:]))
        inv_p = 1 / p
        scale = (1 / (p + 1)) ** inv_p
        # k1, k2: each weight times its eps**(1/p); the t24 weights are 1
        k1, k2 = eps_first ** inv_p, eps_second ** inv_p
        if name == "t23":
            k1, k2 = (1 - alpha) ** inv_q * k1, alpha ** inv_q * k2

    xb = abs(derivative(piece.b)) ** q
    ya = abs(derivative(piece.a)) ** q
    if name == "t22":
        bound = piece.width * (
            gamma_w * _clamp(mu_b * xb + mu_a * ya) ** inv_q
            + upsilon_w * _clamp(eta_b * xb + eta_a * ya) ** inv_q)
    else:
        if name == "t23":
            node = params.alpha * piece.a + (1 - params.alpha) * piece.b
            node_pow = abs(derivative(node)) ** q
            d1, d2 = (node_pow + ya) / 2, (node_pow + xb) / 2
        else:
            a = params.alpha
            d1 = (xb * (1 - a) ** 2 + (1 - a * a) * ya) / 2
            d2 = (xb * a * (2 - a) + a * a * ya) / 2
        bound = piece.width * scale * (k1 * d1 ** inv_q + k2 * d2 ** inv_q)
    a, b, lam = piece.a, piece.b, params.lam
    node = alpha * a + (1 - alpha) * b
    return bound, lam * (alpha * f.value(a) + (1 - alpha) * f.value(b)) + (1 - lam) * f.value(node)


def _outcome(run):
    """(type, repr) of each value run returns, or the type of what it raises;
    a non-finite float is what the step raises OverflowError for."""
    try:
        values = run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        return "OverflowError"
    return [(type(v), repr(v)) for v in values]


def _loses_a_power(f, piece, params, q, name):
    """Whether the reference reads |f'|**q as 0 for a nonzero |f'| at b, a
    or the t23 node, where its q-mean would read 0 instead of max |f'|, or
    reads the 1/q-th power of a q-mean as 0 although a term of the mean has
    a nonzero weight and a nonzero power."""
    from certquad.bounds import _clamp
    from certquad.coefficients import SELECTED, power_mean_coeffs
    from certquad.params import classify_regime
    points = [piece.b, piece.a]
    if name == "t23":
        points.append(params.alpha * piece.a + (1 - params.alpha) * piece.b)
    powers = []
    for x in points:
        d = abs(f.derivative(x))
        try:
            powers.append(d ** q)
        except OverflowError:
            return False
        if d and not powers[-1]:
            return True
    xb, ya, a = powers[0], powers[1], params.alpha
    if name == "t22":
        mu_b, mu_a, _, eta_b, eta_a = (_clamp(v) for v in map(
            power_mean_coeffs(params).get, SELECTED[classify_regime(params)][1:6]))
        means = ((mu_b * xb + mu_a * ya, (mu_b, xb), (mu_a, ya)),
                 (eta_b * xb + eta_a * ya, (eta_b, xb), (eta_a, ya)))
    elif name == "t23":
        node_pow = powers[2]
        means = (((node_pow + ya) / 2, (1, node_pow), (1, ya)),
                 ((node_pow + xb) / 2, (1, node_pow), (1, xb)))
    else:
        means = (((xb * (1 - a) ** 2 + (1 - a * a) * ya) / 2, ((1 - a) ** 2, xb), (1 - a * a, ya)),
                 ((xb * a * (2 - a) + a * a * ya) / 2, (a * (2 - a), xb), (a * a, ya)))
    return any(not _clamp(d) ** (1 / q) and any(w and x for w, x in terms)
               for d, *terms in means)


_SPECIAL = (0, 1, 5e-324, 1 - 2 ** -53)
_STEP_QS = (F(1), 1 + 1e-9, F(3, 2), 1.5, F(2), 2.0, 1e6)


def _step_interval(rng, ends):
    """A piece with Fraction, int, float or mixed (one Fraction, one float) ends."""
    if ends == "int":
        lo = rng.randint(1, 3)
        return Interval(lo, lo + rng.randint(1, 2))
    if ends == "float":
        lo = 0.125 + 2 * rng.random()
        return Interval(lo, lo + 0.01 + 2 * rng.random())
    lo, hi = F(rng.randint(1, 16), 8), F(rng.randint(17, 32), 8)
    if ends == "mixed":
        lo, hi = (float(lo), hi) if rng.random() < 0.5 else (lo, float(hi))
    return Interval(lo, hi)


def test_step_matches_the_per_engine_formulas(corpus):
    # exact, float and mixed (alpha, lambda), crossed with every kind of end
    # and with Fraction and float q; _outcome compares type and repr, so a
    # value the step leaves unreduced, or of another type, fails here
    from certquad.bounds import certify, prologue
    rng = random.Random(12)
    models = [corpus["pow:2"], corpus["pow:3"], corpus["exp"], corpus["reciprocal"],
              from_expression("x^3 + 3*x", assume_convex=True)]
    compared = lost = 0
    for case in range(360):
        kind = ("exact", "float", "mixed")[case % 3]

        def draw():
            if rng.random() < 0.4:
                return rng.choice(_SPECIAL)
            exact = kind == "exact" or kind == "mixed" and rng.random() < 0.5
            return F(rng.randint(0, 12), 12) if exact else rng.random()

        params = RuleParams(draw(), draw())
        pieces = [_step_interval(rng, rng.choice(("fraction", "int", "float", "mixed")))]
        f, q = rng.choice(models), rng.choice(_STEP_QS)
        name = rng.choice(("t22", "t23", "t24"))
        try:
            step = prologue(f, pieces[0], params, q, name)
        except (Refusal, ArithmeticError):
            continue  # the hypotheses are checked before the step, as before
        for _ in range(3):  # bisect, so the t23 node moves with the piece
            piece = pieces[-1]
            mid = midpoint(piece.a, piece.b)
            pieces.append(rng.choice((Interval(piece.a, mid), Interval(mid, piece.b))))
        for piece in pieces:
            cert = _outcome(lambda: attrgetter("bound", "approx")(certify(piece, *step)))
            if cert == "ArithmeticError":  # the step refuses a lost power
                assert _loses_a_power(f, piece, params, q, name), (f.name, params, q, name, piece)
                lost += 1
                continue
            reference = _outcome(lambda: _reference_step(f, piece, params, q, name))
            assert cert == reference, (f.name, params, q, name, piece)
            compared += isinstance(cert, list)
    assert compared > 900 and lost > 0


def test_prologue_asks_for_the_six_selected_constants(monkeypatch, corpus):
    import certquad.bounds as bounds
    from certquad.coefficients import SELECTED
    built = bounds.power_mean_coeffs
    asked = []

    def recorded(params, names=None):
        asked.append(names)
        return built(params, names)

    monkeypatch.setattr(bounds, "power_mean_coeffs", recorded)
    seen = set()
    for alpha, lam in ((F(1, 2), F(1, 3)), (F(1, 10), F(1, 2)), (0.9, 0.5)):
        params = RuleParams(alpha, lam)
        asked.clear()
        bounds.prologue(corpus["exp"], Interval(0, 1), params, 2, "t22")
        assert asked == [SELECTED[params.regime][:6]], params
        seen.add(params.regime)
    assert seen == set(SELECTED)


@pytest.mark.parametrize("name", ["t22", "t23", "t24"])
@pytest.mark.parametrize("params, ends, node_is_cut", [
    (RuleParams(F(1, 2), F(1, 3)), [(F(1, 2), F(3, 2))], True),
    # a float alpha beside an exact lambda: params.exact alone does not decide
    (RuleParams(0.5, F(1, 3)), [(F(1, 2), F(3, 2))], False),
    (RuleParams(F(1, 3), F(1, 3)), [(F(1, 2), F(3, 2))], False),
    (RuleParams(F(1, 2), F(1, 3)), [(0.5, 1.5), (F(1, 2), 1.5), (0.5, F(3, 2))], False),
], ids=["exact-half", "float-half", "exact-third", "exact-half-float-ends"])
def test_measure_offers_the_node_only_where_it_is_the_cut(corpus, name, params, ends,
                                                          node_is_cut):
    """The fourth value of measure is the end a lower half of a cut at
    midpoint(a, b) may take: (|f'|**q there, None) for t23 at an exact
    alpha = 1/2 between Fraction ends, where the node is that cut, else None."""
    from certquad.bounds import prologue
    f, q = corpus["pow:3"], 2
    for a, b in ends:
        measure, _ = prologue(f, Interval(a, b), params, q, name)
        offer = measure(a, b, b - a)[3]
        if name == "t23" and node_is_cut:
            node_pow, f_there = offer
            assert f_there is None
            assert node_pow == abs(f.derivative(midpoint(a, b))) ** q == 9
        else:
            assert offer is None, (name, params, a, b)


def test_prologue_walks_no_expression_tree(monkeypatch):
    import certquad.expression as expression
    f = from_expression("abs(x-0.3)+x^2", assume_convex=True)

    def walked(*args):
        raise AssertionError("an expression tree was walked after construction")

    monkeypatch.setattr(expression, "_compile", walked)
    monkeypatch.setattr(expression, "sign_arguments", walked)
    cert = best_bound(f, Interval(0, 1), MIDPOINT, [1, 2, 3])
    assert (cert.theorem, cert.bound) == ("T22q1", F(1, 2))


# ---------------------------------------------------------------------------
# The bits of the exact lane

_SWEEP_INTERVALS = ((F(1, 2), F(3, 2)), (F(1), F(2)), (F(1, 4), F(3)))
_EXACT_Q = {"t22": (1, F(3, 2), 2, 3), "t23": (F(3, 2), 2, 3), "t24": (F(3, 2), 2, 3)}


def test_exact_certificates_keep_their_bits(corpus):
    # 300 exact certificates drawn as the benchmark's certify_sweep draws its
    # exact ones: small rationals p/r with r <= 12 (the first nine pairs cross
    # 0, 1/2 and 1), every engine, exact q, the builtins on the sweep
    # intervals; the digest pins type and repr of every bound and rule value
    import hashlib
    from certquad.bounds import ENGINES
    from certquad.coefficients import holder_coeffs
    from certquad.params import _Ratio, conjugate
    rng = random.Random("exact-lane-bits")
    corners = [(x, y) for x in (F(0), F(1, 2), F(1)) for y in (F(0), F(1, 2), F(1))]

    def small():
        r = rng.randint(1, 12)
        return F(rng.randint(0, r), r)

    digest = hashlib.sha256()
    for i in range(300):
        f = corpus[rng.choice(sorted(corpus))]
        name = rng.choice(("t22", "t23", "t24"))
        a, b = rng.choice(_SWEEP_INTERVALS)
        alpha, lam = corners[i] if i < len(corners) else (small(), small())
        q = rng.choice(_EXACT_Q[name])
        params = RuleParams(alpha, lam)
        assert not any(type(v) is _Ratio for pair in params.kink_pairs for v in pair)
        if q > 1:
            assert not any(type(v) is _Ratio for v in holder_coeffs(params, conjugate(q)).values())
        cert = ENGINES[name](f, Interval(a, b), params, q)
        assert not any(type(getattr(cert, field)) is _Ratio for field in cert.__slots__)
        digest.update(repr((type(cert.bound), cert.bound, type(cert.approx), cert.approx)).encode())
    assert digest.hexdigest() == \
        "318cfb21539531a80cc724f84d1256ff3fcbdeb6f9ef1021f9e476853c1c4a90"
