import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from certquad import (DomainError, RuleParams, abs_power_integral,
                      classify_regime, holder_coeffs, power_mean_coeffs)
from certquad.coefficients import regime_selected, regime_selected_eps
from certquad.prng import SplitMix64

unit_fraction = st.fractions(min_value=0, max_value=1)


def test_simpson_fixture_exact():
    c = power_mean_coeffs(RuleParams(F(1, 2), F(1, 3)))
    assert c.gamma2 == F(5, 72)
    assert c.mu1 == F(29, 1296)
    assert c.mu2 == F(61, 1296)
    assert c.eta3 == F(61, 1296)
    assert c.eta4 == F(29, 1296)
    assert c.upsilon2 == F(5, 72)


def test_midpoint_fixture_exact():
    c = power_mean_coeffs(RuleParams(F(1, 2), F(0)))
    assert (c.gamma2, c.mu1, c.mu2) == (F(1, 8), F(1, 24), F(1, 12))
    assert (c.upsilon2, c.eta3, c.eta4) == (F(1, 8), F(1, 12), F(1, 24))


def test_trapezoid_fixture_exact():
    # first bracket weights 1/6 for |f'(b)| and 5/6 for |f'(a)| after the
    # (b-a)/8 factor; the second bracket mirrors them
    c = power_mean_coeffs(RuleParams(F(1, 2), F(1)))
    assert c.gamma1 == c.gamma2 == F(1, 8)
    assert (c.mu1, c.mu2) == (F(1, 48), F(5, 48))
    assert (c.eta3, c.eta4) == (F(5, 48), F(1, 48))
    # triple boundary: both integral branches agree
    assert (c.mu3, c.mu4) == (c.mu1, c.mu2)
    assert c.upsilon1 == c.upsilon2


def test_gamma1_against_weight_integral():
    c = power_mean_coeffs(RuleParams(0.9, 0.5))
    assert c.gamma1 == pytest.approx(0.04, abs=1e-15)
    assert c.gamma1 == pytest.approx(abs_power_integral(0.45, 0.0, 0.1, 1))


def test_holder_simpson_p2():
    hc = holder_coeffs(RuleParams(F(1, 2), F(1, 3)), 2)
    assert hc.eps1 == F(1, 24)
    # cross-check against the defining integral, eps = (p+1) * integral
    assert hc.eps1 == 3 * abs_power_integral(F(1, 6), F(0), F(1, 2), 2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_holder_simpson_general_p(p):
    hc = holder_coeffs(RuleParams(0.5, 1 / 3), p)
    assert hc.eps1 == pytest.approx((1 / 6) ** (p + 1) * (1 + 2 ** (p + 1)),
                                    rel=1e-14)
    assert hc.eps3 == pytest.approx(hc.eps1, rel=1e-14)


def test_holder_alpha_one_edge():
    # first weight integral is empty, its closed form collapses to zero
    hc = holder_coeffs(RuleParams(1.0, 0.7), 2.0)
    assert hc.eps2 == pytest.approx(0.0, abs=1e-15)
    assert hc.eps1 is None  # alpha*lambda > 1-alpha: inactive side
    assert abs_power_integral(0.7, 0.0, 0.0, 2.0) == 0


def test_holder_inactive_sides_are_none():
    hc = holder_coeffs(RuleParams(F(1, 2), F(1, 3)), 2)
    assert hc.eps2 is None  # alpha*lambda < 1-alpha
    assert hc.eps4 is None  # lambda*(1-alpha) < alpha
    hc = holder_coeffs(RuleParams(0.2, 0.9), 2.0)
    assert hc.eps3 is None and hc.eps4 is not None


def test_holder_rejects_p_at_most_one():
    with pytest.raises(DomainError):
        holder_coeffs(RuleParams(0.5, 0.5), 1.0)


def test_abs_power_integral_examples():
    assert abs_power_integral(F(1, 6), F(0), F(1, 2), 1) == F(5, 72)
    assert abs_power_integral(F(0), F(0), F(1), 1, "t") == F(1, 3)
    assert abs_power_integral(0.45, 0.0, 0.1, 1) == pytest.approx(0.04)
    with pytest.raises(DomainError):
        abs_power_integral(0.5, 1.0, 0.0, 1)
    with pytest.raises(DomainError):
        abs_power_integral(0.5, 0.0, 1.0, 1, weight="t^2")


@given(unit_fraction, unit_fraction)
def test_partition_identities_exact(alpha, lam):
    c = power_mean_coeffs(RuleParams(alpha, lam))
    assert c.mu1 + c.mu2 == c.gamma2
    assert c.mu3 + c.mu4 == c.gamma1
    assert c.eta1 + c.eta2 == c.upsilon1
    assert c.eta3 + c.eta4 == c.upsilon2


@given(unit_fraction, unit_fraction)
@settings(max_examples=60)
def test_selected_coefficients_nonnegative(alpha, lam):
    params = RuleParams(alpha, lam)
    tag = classify_regime(params)
    for value in regime_selected(power_mean_coeffs(params), tag):
        assert value >= 0
    for value in regime_selected_eps(holder_coeffs(params, 2), tag):
        assert value is not None and value >= 0


@given(st.floats(0, 0.5), st.integers(-3, 3))
@example(0.1859062658947177, 2)  # lambda = 0.22835977984652503
def test_selected_coefficients_nonnegative_near_second_kink(alpha, ulps):
    # lambda within a few ulps of alpha/(1-alpha), where z = 1-alpha in
    # exact arithmetic and float rounding decides the side: the regime
    # must still select active eps entries
    lam = alpha / (1 - alpha)
    for _ in range(abs(ulps)):
        lam = math.nextafter(lam, math.copysign(math.inf, ulps))
    params = RuleParams(alpha, min(max(lam, 0.0), 1.0))
    tag = classify_regime(params)
    for value in regime_selected(power_mean_coeffs(params), tag):
        # cancellation leaves dust of an ulp of 1, which the engines clamp
        assert value >= -1e-15
    for p in (1.5, 2.0, 3.0):
        for value in regime_selected_eps(holder_coeffs(params, p), tag):
            assert value is not None and value >= 0


@given(st.fractions(min_value=F(1, 2), max_value=1))
def test_boundary_agreement_first_integral(alpha):
    # alpha*lambda = 1-alpha forces gamma1 = gamma2 = (1-alpha)^2/2 and
    # mu-pair agreement
    if alpha == 0:
        return
    lam = (1 - alpha) / alpha
    c = power_mean_coeffs(RuleParams(alpha, lam))
    assert c.gamma1 == c.gamma2 == (1 - alpha) ** 2 / 2
    assert c.mu1 == c.mu3 and c.mu2 == c.mu4


@given(st.fractions(min_value=0, max_value=F(1, 2)))
def test_boundary_agreement_second_integral(alpha):
    # lambda*(1-alpha) = alpha forces upsilon and eta agreement
    if alpha == 1:
        return
    lam = alpha / (1 - alpha)
    c = power_mean_coeffs(RuleParams(alpha, lam))
    assert c.upsilon1 == c.upsilon2
    assert c.eta1 == c.eta3 and c.eta2 == c.eta4


def _stratified_samples(per_regime, seed=99):
    rng = SplitMix64(seed)
    buckets = {"Case1": [], "Case2": [], "Case3": []}
    while any(len(v) < per_regime for v in buckets.values()):
        params = RuleParams(rng.uniform(), rng.uniform())
        tag = classify_regime(params)
        if len(buckets[tag]) < per_regime:
            buckets[tag].append(params)
    return buckets


def _rel_close(x, y, rel):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


@pytest.mark.parametrize("tag", ["Case1", "Case2", "Case3"])
def test_closed_forms_match_weight_integrals(tag):
    for params in _stratified_samples(120)[tag]:
        a, l = params.alpha, params.lam
        c, u, w = a * l, 1 - a, l * (1 - a)
        gamma, mu_b, mu_a, upsilon, eta_b, eta_a = regime_selected(
            power_mean_coeffs(params), tag)
        assert _rel_close(gamma, abs_power_integral(c, 0, u, 1), 1e-10)
        assert _rel_close(mu_b, abs_power_integral(c, 0, u, 1, "t"), 1e-10)
        assert _rel_close(mu_a, abs_power_integral(c, 0, u, 1, "1-t"), 1e-10)
        assert _rel_close(upsilon, abs_power_integral(1 - w, u, 1, 1), 1e-10)
        assert _rel_close(eta_b, abs_power_integral(1 - w, u, 1, 1, "t"), 1e-10)
        assert _rel_close(eta_a, abs_power_integral(1 - w, u, 1, 1, "1-t"), 1e-10)
        for p in (1.5, 2.0, 3.0):
            ef, es = regime_selected_eps(holder_coeffs(params, p), tag)
            assert _rel_close(ef / (p + 1), abs_power_integral(c, 0, u, p), 1e-10)
            assert _rel_close(es / (p + 1),
                              abs_power_integral(1 - w, u, 1, p), 1e-10)
