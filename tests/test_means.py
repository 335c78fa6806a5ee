import math
from fractions import Fraction as F

import pytest

from certquad import (DomainError, Interval, Refusal, RuleParams, eval_mean,
                      holder_interior_bound, mean_ref, power_mean_bound,
                      power_model, proposition_check, resolve_function,
                      rule_value)
from certquad.prng import SplitMix64

from conftest import uniform_in


def test_mean_examples():
    assert eval_mean("A", 1, 3) == 2
    assert eval_mean("G", 4, 9) == 6
    assert eval_mean("H", 1, 1) == 1
    assert eval_mean("L_n", 1, 2, n=2) == pytest.approx(math.sqrt(7 / 3))
    assert eval_mean("L", 1.0, math.e) == pytest.approx(math.e - 1)
    assert eval_mean("I", 1.0, math.e) == pytest.approx(
        math.exp(1 / (math.e - 1)))


def test_weighted_mean_endpoints():
    for kind in ("A_alpha", "G_alpha", "H_alpha"):
        assert eval_mean(kind, 2.0, 5.0, alpha=1) == pytest.approx(2.0)
        assert eval_mean(kind, 2.0, 5.0, alpha=0) == pytest.approx(5.0)


def test_weighted_mean_reduces_to_unweighted():
    a, b = 1.7, 4.2
    assert eval_mean("A_alpha", a, b, alpha=0.5) == pytest.approx(
        eval_mean("A", a, b))
    assert eval_mean("G_alpha", a, b, alpha=0.5) == pytest.approx(
        eval_mean("G", a, b))
    assert eval_mean("H_alpha", a, b, alpha=0.5) == pytest.approx(
        eval_mean("H", a, b))


def test_mean_domain_errors():
    with pytest.raises(DomainError):
        eval_mean("L", -2, 2)  # |a| = |b|
    with pytest.raises(DomainError):
        eval_mean("L", 0, 2)
    with pytest.raises(DomainError):
        eval_mean("L_n", 1, 2, n=-1)
    with pytest.raises(DomainError):
        eval_mean("L_n", 2, 2, n=2)
    with pytest.raises(DomainError):
        eval_mean("L_n", -1, 2, n=-2)  # integrand pole inside
    with pytest.raises(DomainError):
        eval_mean("I", -1, 2)
    with pytest.raises(DomainError):
        eval_mean("G", -4, -9)
    with pytest.raises(DomainError):
        eval_mean("H", 0, 1)
    with pytest.raises(DomainError):
        eval_mean("H", -1, 1)  # a + b = 0
    with pytest.raises(DomainError):
        eval_mean("A_alpha", 1, 2, alpha=1.5)
    with pytest.raises(DomainError):
        eval_mean("median", 1, 2)


def test_odd_root_keeps_sign():
    assert eval_mean("L_n", -2.0, 1.0, n=3) == pytest.approx(
        -((15 / 12) ** (1 / 3)))


def test_classical_chain():
    rng = SplitMix64(23)
    for _ in range(1000):
        a = uniform_in(rng, 0.1, 10.0)
        b = uniform_in(rng, 0.1, 10.0)
        if abs(a - b) < 1e-4:
            continue
        if a > b:
            a, b = b, a
        h = eval_mean("H", a, b)
        g = eval_mean("G", a, b)
        l = eval_mean("L", a, b)
        i = eval_mean("I", a, b)
        m = eval_mean("A", a, b)
        assert h <= g + 1e-12
        assert g <= l + 1e-12
        assert l <= i + 1e-12
        assert i <= m + 1e-12
        for v in (h, g, l, i, m):
            assert a - 1e-12 <= v <= b + 1e-12


# ---------------------------------------------------------------------------
# Inequality checks

def test_prop1_simpson_example():
    r = proposition_check(1, F(1), F(2), RuleParams(F(1, 2), F(1, 3)),
                          F(1), n=2)
    assert r.lhs == 0  # the Simpson member is exact on quadratics
    assert float(r.rhs) == pytest.approx(5 / 12, rel=1e-15)
    assert r.holds


def test_prop3_midpoint_example():
    r = proposition_check(3, 1.0, 2.0, RuleParams(0.5, 0.0), 1.0)
    assert r.lhs == pytest.approx(abs(2 / 3 - math.log(2)), rel=1e-12)
    assert r.rhs == pytest.approx(5 / 32, rel=1e-12)
    assert r.holds


def test_prop5_midpoint_example():
    a, b = 1.0, math.e
    r = proposition_check(5, a, b, RuleParams(0.5, 0.0), 1.0)
    want = abs(math.log((a + b) / 2) - math.log(eval_mean("I", a, b)))
    assert r.lhs == pytest.approx(want, rel=1e-12)
    assert r.holds


def test_prop_domain_errors():
    params = RuleParams(0.5, 0.5)
    with pytest.raises(DomainError):
        proposition_check(1, -1.0, 2.0, params, 1.0, n=2)  # 0 inside
    with pytest.raises(DomainError):
        proposition_check(1, 1.0, 2.0, params, 1.0, n=1)  # |n| < 2
    with pytest.raises(Refusal, match="t23 needs q > 1"):
        proposition_check(2, 1.0, 2.0, params, 1.0, n=2)  # the engine checks q
    with pytest.raises(DomainError):
        proposition_check(4, -2.0, -1.0, params, 2.0)  # needs 0 < a
    with pytest.raises(DomainError):
        proposition_check(7, 1.0, 2.0, params, 1.0)


def _tuples(which, count, seed):
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        a = uniform_in(rng, 0.6, 2.0)
        b = a + uniform_in(rng, 0.1, 1.4)
        if which in (1, 2, 3) and rng.uniform() < 0.5:
            a, b = -b, -a  # negative branch is legal for these
        params = RuleParams(rng.uniform(), rng.uniform())
        q = rng.choice([1.0, 1.5, 2.0, 3.0] if which in (1, 3, 5)
                       else [1.5, 2.0, 3.0])
        n = rng.choice([2, 3, -2]) if which in (1, 2) else None
        out.append((a, b, params, q, n))
    return out


@pytest.mark.parametrize("which", [1, 2, 3, 4, 5, 6])
def test_propositions_hold_randomized(which):
    for a, b, params, q, n in _tuples(which, 60, seed=31 + which):
        r = proposition_check(which, a, b, params, q, n=n)
        assert r.holds, (which, a, b, params, q, n, r.lhs, r.rhs)
        assert r.margin >= -1e-10


def _generating_function(which, a, n):
    side = "pos" if a > 0 else "neg"
    if which in (1, 2):
        return power_model(n, side)
    if which in (3, 4):
        return power_model(-1, side)
    return resolve_function("neglog")


def assert_matches_engine(which, a, b, params, q, n=None):
    """Check ``which`` is its engine run on the generating function: the
    right side is the certificate exactly, the left side is within 1e-10
    of |rule value - reference mean|."""
    case = (which, a, b, params, q, n)
    f = _generating_function(which, a, n)
    engine = power_mean_bound if which in (1, 3, 5) else holder_interior_bound
    iv = Interval(a, b)
    result = proposition_check(which, a, b, params, q, n=n)
    assert result.rhs == float(engine(f, iv, params, q).bound), case
    gap = abs(float(rule_value(f, iv, params)) - mean_ref(f, iv, tol=1e-12))
    assert abs(result.lhs - gap) <= 1e-10, case
    return result


@pytest.mark.parametrize("which", [1, 2, 3, 4, 5, 6])
def test_consistency_with_engines(which):
    for a, b, params, q, n in _tuples(which, 12, seed=47 + which):
        assert_matches_engine(which, a, b, params, q, n=n)
