"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them).

Criterion 7 measures the contraction of the summed midpoint bound on exp
under panel doubling.  The per-doubling contraction RATE across n = 1 to
64 (geometric mean of the step ratios) is asserted inside [1.9, 2.1];
the individual steps from n = 2 on are likewise inside that window.
The very first step 1 -> 2 is analytically 4(1+e)/(1+2*sqrt(e)+e)
= 2.11996..., slightly above 2.1, and is pinned against that frozen
value instead.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from certquad import (Interval, RuleParams, abs_power_integral, best_bound,
                      classify_regime, composite_integrate, eval_mean,
                      holder_coeffs, holder_interior_bound,
                      holder_endpoint_bound, mean_ref, named_rule,
                      identity_rhs, power_mean_bound, power_mean_coeffs,
                      rule_value)
from certquad.bounds import ENGINES
from certquad.coefficients import regime_selected, regime_selected_eps
from certquad.prng import SplitMix64

from conftest import INTERVALS, child_env
from test_bounds import (fixture_midpoint_power_mean, fixture_midpoint_q1,
                         fixture_simpson_holder_endpoint,
                         fixture_simpson_holder_interior,
                         fixture_simpson_power_mean,
                         fixture_trapezoid_power_mean)
from test_means import assert_matches_engine

SIMPSON = named_rule("simpson")
MIDPOINT = named_rule("midpoint")
TRAPEZOID = named_rule("trapezoid")


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


def _stratified(per_regime, seed=2718):
    rng = SplitMix64(seed)
    buckets = {"Case1": [], "Case2": [], "Case3": []}
    while any(len(v) < per_regime for v in buckets.values()):
        params = RuleParams(rng.uniform(), rng.uniform())
        tag = classify_regime(params)
        if len(buckets[tag]) < per_regime:
            buckets[tag].append((params, tag))
    return [pair for bucket in buckets.values() for pair in bucket]


def _rel(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def test_criterion_1_simpson_coefficient_fixtures():
    start = time.perf_counter()
    c = power_mean_coeffs(RuleParams(F(1, 2), F(1, 3)))
    assert c.gamma2 == F(5, 72)
    assert c.mu1 == F(29, 1296)
    assert c.mu2 == F(61, 1296)
    assert c.eta3 == F(61, 1296)
    assert c.eta4 == F(29, 1296)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"simpson rationals bit-exact in {elapsed:.4f}s")


def test_criterion_2_coefficients_match_integrals():
    start = time.perf_counter()
    samples = _stratified(1000)
    worst = 0.0
    for params, tag in samples:
        a, l = params.alpha, params.lam
        c, u, w = a * l, 1 - a, l * (1 - a)
        gamma, mu_b, mu_a, upsilon, eta_b, eta_a = regime_selected(
            power_mean_coeffs(params), tag)
        pairs = [
            (gamma, abs_power_integral(c, 0, u, 1)),
            (mu_b, abs_power_integral(c, 0, u, 1, "t")),
            (mu_a, abs_power_integral(c, 0, u, 1, "1-t")),
            (upsilon, abs_power_integral(1 - w, u, 1, 1)),
            (eta_b, abs_power_integral(1 - w, u, 1, 1, "t")),
            (eta_a, abs_power_integral(1 - w, u, 1, 1, "1-t")),
        ]
        for p in (1.5, 2.0, 3.0):
            ef, es = regime_selected_eps(holder_coeffs(params, p), tag)
            pairs.append((ef / (p + 1), abs_power_integral(c, 0, u, p)))
            pairs.append((es / (p + 1), abs_power_integral(1 - w, u, 1, p)))
        for closed, integral in pairs:
            gap = _rel(closed, integral)
            worst = max(worst, gap)
            assert gap <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"{len(samples)} samples x 12 integrals, worst rel gap "
               f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_partition_identities():
    worst = 0.0
    for params, _ in _stratified(1000):
        c = power_mean_coeffs(params)
        for left, right in ((c.mu1 + c.mu2, c.gamma2),
                            (c.mu3 + c.mu4, c.gamma1),
                            (c.eta1 + c.eta2, c.upsilon1),
                            (c.eta3 + c.eta4, c.upsilon2)):
            gap = abs(left - right)
            worst = max(worst, gap)
            assert gap <= 1e-12
    _report(3, f"partition identities, worst abs gap {worst:.2e}")


def test_criterion_4_identity_residuals(corpus, oracle_mean):
    start = time.perf_counter()
    grid = [(i / 4, j / 4) for i in range(5) for j in range(5)]
    checks = 0
    worst = 0.0
    for f in corpus.values():
        for a, b in INTERVALS:
            mean = oracle_mean(f, a, b, tol=1e-11)
            iv = Interval(a, b)
            for alpha, lam in grid:
                params = RuleParams(alpha, lam)
                lhs = float(rule_value(f, iv, params)) - mean
                residual = abs(lhs - identity_rhs(f, iv, params, tol=1e-11))
                worst = max(worst, residual)
                assert residual < 1e-8
                checks += 1
    elapsed = time.perf_counter() - start
    assert checks == 600
    assert elapsed < 60.0
    _report(4, f"{checks} identity checks, worst residual {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_5_bound_soundness(corpus, oracle_mean):
    start = time.perf_counter()
    grid = [i / 10 for i in range(11)]
    intervals = [(0.5, 2.0), (1.0, 3.0)]
    q_sets = {"t22": (1.0, 1.5, 2.0, 3.0),
              "t23": (1.5, 2.0, 3.0),
              "t24": (1.5, 2.0, 3.0)}
    certificates = 0
    violations = 0
    tightest = 0.0
    for f in corpus.values():
        for a, b in intervals:
            mean = oracle_mean(f, a, b)
            iv = Interval(a, b)
            for alpha in grid:
                for lam in grid:
                    params = RuleParams(alpha, lam)
                    for theorem, qs in q_sets.items():
                        engine = ENGINES[theorem]
                        for q in qs:
                            cert = engine(f, iv, params, q)
                            gap = abs(float(cert.approx) - mean)
                            certificates += 1
                            if gap > float(cert.bound) + 1e-10:
                                violations += 1
                            if float(cert.bound) > 0:
                                tightest = max(tightest,
                                               gap / float(cert.bound))
    elapsed = time.perf_counter() - start
    assert certificates == 8 * 2 * 121 * 10  # 19360
    assert violations == 0
    assert elapsed < 300.0
    _report(5, f"{certificates} certificates, 0 violations, max tightness "
               f"{tightest:.6f}, {elapsed:.1f}s")


def test_criterion_6_reduction_equivalences(corpus):
    # exact rational layer: q = 1 power-mean reductions collapse to the
    # fixture rationals on a rational problem
    x2 = corpus["pow:2"]
    iv = Interval(F(0), F(1))
    assert power_mean_bound(x2, iv, MIDPOINT, F(1)).bound == F(1, 4)
    assert F(fixture_midpoint_q1(x2, 0.0, 1.0)) == F(1, 4)
    assert power_mean_bound(x2, iv, TRAPEZOID, F(1)).bound == F(1, 4)
    assert power_mean_bound(x2, iv, SIMPSON, F(1)).bound == F(90, 1296) * 2
    # exact eps family at the Simpson point for integer p
    for p in (2, 3):
        hc = holder_coeffs(SIMPSON, p)
        want = F(1, 6) ** (p + 1) * (1 + 2 ** (p + 1))
        assert hc.eps1 == want and hc.eps3 == want

    # numeric layer: engines against the independently coded displays at
    # 20 random (function, interval, q) tuples each
    rng = SplitMix64(616)
    names = sorted(corpus)
    cases = [
        (power_mean_bound, SIMPSON, fixture_simpson_power_mean),
        (power_mean_bound, MIDPOINT, fixture_midpoint_power_mean),
        (power_mean_bound, TRAPEZOID, fixture_trapezoid_power_mean),
        (holder_interior_bound, SIMPSON, fixture_simpson_holder_interior),
        (holder_endpoint_bound, SIMPSON, fixture_simpson_holder_endpoint),
    ]
    worst = 0.0
    for engine, params, fixture in cases:
        for _ in range(20):
            f = corpus[rng.choice(names)]
            a = rng.uniform_in(0.4, 1.2)
            b = a + rng.uniform_in(0.3, 1.5)
            q = rng.choice((1.5, 2.0, 3.0))
            got = float(engine(f, Interval(a, b), params, q).bound)
            want = fixture(f, a, b, q)
            gap = _rel(got, want)
            worst = max(worst, gap)
            assert gap <= 1e-12
    _report(6, f"reductions exact at q=1, {len(cases) * 20} numeric tuples, "
               f"worst rel gap {worst:.2e}")


def test_criterion_7_composite_convergence(corpus):
    e = math.e
    counts = (1, 2, 4, 8, 16, 32, 64)
    bounds = {}
    for n in counts:
        r = composite_integrate(corpus["exp"], Interval(0.0, 1.0), MIDPOINT,
                                1.0, "t22", n)
        bounds[n] = float(r.total_bound)
        err = abs(float(r.value) - (e - 1))
        assert err <= bounds[n] + 1e-10
    ratios = [bounds[n] / bounds[2 * n] for n in counts[:-1]]
    rate = (bounds[1] / bounds[64]) ** (1 / 6)
    assert 1.9 <= rate <= 2.1
    for ratio in ratios[1:]:
        assert 1.9 <= ratio <= 2.1
    first_exact = 4 * (1 + e) / (1 + 2 * math.sqrt(e) + e)
    assert ratios[0] == pytest.approx(first_exact, rel=1e-12)
    _report(7, "contraction rate {:.4f} in [1.9, 2.1]; step ratios {}; "
               "first step pinned at {:.5f}".format(
                   rate, ", ".join(f"{r:.4f}" for r in ratios), first_exact))


def test_criterion_8_propositions():
    start = time.perf_counter()
    rng = SplitMix64(888)
    per_prop = 200
    for which in (1, 2, 3, 4, 5, 6):
        for _ in range(per_prop):
            a = rng.uniform_in(0.6, 2.0)
            b = a + rng.uniform_in(0.1, 1.4)
            if which in (1, 2, 3) and rng.uniform() < 0.5:
                a, b = -b, -a
            params = RuleParams(rng.uniform(), rng.uniform())
            q = rng.choice([1.0, 1.5, 2.0, 3.0] if which in (1, 3, 5)
                           else [1.5, 2.0, 3.0])
            n = rng.choice([2, 3, -2]) if which in (1, 2) else None
            result = assert_matches_engine(which, a, b, params, q, n=n)
            assert result.holds, (which, a, b, params, q, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"6 x {per_prop} tuples hold and match the engines, "
               f"{elapsed:.1f}s")


def test_criterion_9_means_sanity():
    rng = SplitMix64(999)
    checked = 0
    while checked < 1000:
        a = rng.uniform_in(0.1, 10.0)
        b = rng.uniform_in(0.1, 10.0)
        if abs(a - b) < 1e-4:
            continue
        if a > b:
            a, b = b, a
        h = eval_mean("H", a, b)
        g = eval_mean("G", a, b)
        l = eval_mean("L", a, b)
        i = eval_mean("I", a, b)
        m = eval_mean("A", a, b)
        assert h <= g + 1e-12 <= l + 2e-12 <= i + 3e-12 <= m + 4e-12
        checked += 1
    # endpoint identities, bit-exact on rational inputs
    a, b = F(7, 3), F(19, 4)
    assert eval_mean("A_alpha", a, b, alpha=F(1)) == a
    assert eval_mean("A_alpha", a, b, alpha=F(0)) == b
    assert eval_mean("H_alpha", a, b, alpha=F(1)) == a
    assert eval_mean("H_alpha", a, b, alpha=F(0)) == b
    # float powers with exponents 0 and 1 are exact in IEEE arithmetic
    assert eval_mean("G_alpha", 2.25, 5.5, alpha=1) == 2.25
    assert eval_mean("G_alpha", 2.25, 5.5, alpha=0) == 5.5
    _report(9, f"classical chain on {checked} pairs, endpoint identities exact")


def test_criterion_10_cli_determinism(tmp_path):
    cmd = [sys.executable, "-m", "certquad", "verify", "--seed", "42",
           "--rows", "60"]
    runs = [subprocess.run(cmd + ["--format", fmt], capture_output=True,
                           env=child_env())
            for fmt in ("json", "json", "csv", "csv")]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[2].stdout == runs[3].stdout
    doc = json.loads(runs[0].stdout)
    assert doc["summary"]["violations"] == "0"
    _report(10, f"byte-identical verify reports "
                f"({len(runs[0].stdout)} bytes json, "
                f"{len(runs[2].stdout)} bytes csv)")
