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
    params = RuleParams(F(1, 2), F(1, 3))
    assert classify_regime(params) == "Case1"
    assert params.breakpoints() == (F(1, 6), F(1, 2), F(5, 6))

    params = RuleParams(0.2, 0.9)
    assert classify_regime(params) == "Case2"
    assert params.breakpoints() == pytest.approx((0.18, 0.8, 0.28))

    params = RuleParams(0.9, 0.5)
    assert classify_regime(params) == "Case3"
    assert params.breakpoints() == pytest.approx((0.45, 0.1, 0.95))


def test_classify_tie_breaks_low():
    # all three breakpoints coincide at 1/2; lowest-numbered case wins
    params = RuleParams(F(1, 2), F(1))
    assert classify_regime(params) == "Case1"
    assert params.breakpoints() == (F(1, 2), F(1, 2), F(1, 2))


def test_classify_total_on_float_rounding_corner():
    # fl(alpha*lambda) > fl(1 - lambda*(1-alpha)) here although the two
    # are equal in exact arithmetic; classification must still land
    assert classify_regime(RuleParams(0.1, 1.0)) in ("Case1", "Case2", "Case3")


def test_conjugate_examples():
    assert conjugate(2) == 2
    assert conjugate(3) == F(3, 2) and isinstance(conjugate(3), F)
    assert conjugate(1) == math.inf
    assert conjugate(1.5) == 3.0 and isinstance(conjugate(1.5), float)


def test_conjugate_rejects_below_one():
    with pytest.raises(DomainError):
        conjugate(0.5)


@pytest.mark.parametrize("q", [math.inf, math.nan])
def test_conjugate_rejects_non_finite(q):
    with pytest.raises(DomainError, match="finite"):
        conjugate(q)


@given(st.floats(1.000001, 64.0))
def test_conjugate_identity(q):
    assert abs(1 / conjugate(q) + 1 / q - 1) < 1e-14


@given(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False))
def test_classification_covers_unit_square(alpha, lam):
    tag = classify_regime(RuleParams(alpha, lam))
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
        counts[classify_regime(params)] += 1
    assert sum(counts.values()) == 1_000_000
    assert all(c > 0 for c in counts.values())
