import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from certquad import DomainError, RuleParams, classify_regime, conjugate
from certquad.prng import SplitMix64


def test_validation_rejects_out_of_range():
    with pytest.raises(DomainError):
        RuleParams(-0.1, 0.5)
    with pytest.raises(DomainError):
        RuleParams(0.5, 1.2)
    with pytest.raises(DomainError):
        RuleParams(float("nan"), 0.5)
    RuleParams(0, 1)  # endpoints are fine


def test_classify_examples():
    r = classify_regime(RuleParams(F(1, 2), F(1, 3)))
    assert r.tag == "Case1"
    assert r.breakpoints == (F(1, 6), F(1, 2), F(5, 6))

    r = classify_regime(RuleParams(0.2, 0.9))
    assert r.tag == "Case2"
    assert r.breakpoints == pytest.approx((0.18, 0.8, 0.28))

    r = classify_regime(RuleParams(0.9, 0.5))
    assert r.tag == "Case3"
    assert r.breakpoints == pytest.approx((0.45, 0.1, 0.95))


def test_classify_tie_breaks_low():
    # all three breakpoints coincide at 1/2; lowest-numbered case wins
    r = classify_regime(RuleParams(F(1, 2), F(1)))
    assert r.tag == "Case1"
    assert r.breakpoints == (F(1, 2), F(1, 2), F(1, 2))


def test_classify_total_on_float_rounding_corner():
    # fl(alpha*lambda) > fl(1 - lambda*(1-alpha)) here although the two
    # are equal in exact arithmetic; classification must still land
    r = classify_regime(RuleParams(0.1, 1.0))
    assert r.tag in ("Case1", "Case2", "Case3")


def test_conjugate_examples():
    assert conjugate(2).p == 2
    assert conjugate(3).p == F(3, 2)
    pair = conjugate(1)
    assert pair.p_is_infinite and pair.p == math.inf


def test_conjugate_rejects_below_one():
    with pytest.raises(DomainError):
        conjugate(0.5)


@given(st.floats(1.000001, 64.0))
def test_conjugate_identity(q):
    pair = conjugate(q)
    assert abs(1 / pair.p + 1 / pair.q - 1) < 1e-14


@given(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False))
def test_classification_covers_unit_square(alpha, lam):
    tag = classify_regime(RuleParams(alpha, lam)).tag
    assert tag in ("Case1", "Case2", "Case3")


def test_exhaustiveness_bulk():
    # one million pseudo-random pairs: never fails, and the derived
    # ordering alpha*lambda <= 1 - lambda*(1-alpha) holds in exact
    # arithmetic for each
    rng = SplitMix64(2024)
    counts = {"Case1": 0, "Case2": 0, "Case3": 0}
    for _ in range(1_000_000):
        alpha = rng.uniform()
        lam = rng.uniform()
        params = RuleParams(alpha, lam)
        xa, xl = F(alpha), F(lam)
        assert xa * xl <= 1 - xl * (1 - xa)
        counts[classify_regime(params).tag] += 1
    assert sum(counts.values()) == 1_000_000
    assert all(c > 0 for c in counts.values())
