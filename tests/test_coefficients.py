import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from certquad import (DomainError, RuleParams, classify_regime, holder_coeffs,
                      power_mean_coeffs)
from certquad.coefficients import _TINY, POWER_MEAN, SELECTED, eps_underflows
from certquad.params import CASE1, CASE2, CASE3
from certquad.prng import SplitMix64

unit_fraction = st.fractions(min_value=0, max_value=1)


def test_simpson_fixture_exact():
    c = power_mean_coeffs(RuleParams(F(1, 2), F(1, 3)))
    assert c["gamma2"] == F(5, 72)
    assert c["mu1"] == F(29, 1296)
    assert c["mu2"] == F(61, 1296)
    assert c["eta3"] == F(61, 1296)
    assert c["eta4"] == F(29, 1296)
    assert c["upsilon2"] == F(5, 72)


def test_midpoint_fixture_exact():
    c = power_mean_coeffs(RuleParams(F(1, 2), F(0)))
    assert (c["gamma2"], c["mu1"], c["mu2"]) == (F(1, 8), F(1, 24), F(1, 12))
    assert (c["upsilon2"], c["eta3"], c["eta4"]) == (F(1, 8), F(1, 12), F(1, 24))


def test_trapezoid_fixture_exact():
    # first bracket weights 1/6 for |f'(b)| and 5/6 for |f'(a)| after the
    # (b-a)/8 factor; the second bracket mirrors them
    c = power_mean_coeffs(RuleParams(F(1, 2), F(1)))
    assert c["gamma1"] == c["gamma2"] == F(1, 8)
    assert (c["mu1"], c["mu2"]) == (F(1, 48), F(5, 48))
    assert (c["eta3"], c["eta4"]) == (F(5, 48), F(1, 48))
    # triple boundary: both integral branches agree
    assert (c["mu3"], c["mu4"]) == (c["mu1"], c["mu2"])
    assert c["upsilon1"] == c["upsilon2"]


def _power_mean_as_written(params):
    """The twelve closed forms with every recurring term written out, the
    form before each was computed once; kept verbatim as the reference."""
    a, l = params.alpha, params.lam
    c = a * l
    u = 1 - a
    w = l * u
    gamma1 = u * (c - u / 2)
    return {"gamma1": gamma1, "gamma2": c * c - gamma1,
            "upsilon1": (1 - u * u) / 2 - a * (1 - w),
            "upsilon2": (1 + u * u) / 2 - (l + 1) * u * (1 - w),
            "mu1": (c ** 3 + u ** 3) / 3 - c * u * u / 2,
            "mu2": (1 + a ** 3 + (1 - c) ** 3) / 3 - (1 - c) / 2 * (1 + a * a),
            "mu3": c * u * u / 2 - u ** 3 / 3,
            "mu4": (c - 1) * (1 - a * a) / 2 + (1 - a ** 3) / 3,
            "eta1": (1 - u ** 3) / 3 - (1 - w) / 2 * a * (2 - a),
            "eta2": w * a * a / 2 - a ** 3 / 3,
            "eta3": (1 - w) ** 3 / 3 - (1 - w) / 2 * (1 + u * u) + (1 + u ** 3) / 3,
            "eta4": w ** 3 / 3 - w * a * a / 2 + a ** 3 / 3}


def test_shared_terms_keep_every_bit():
    # exact inputs run on the unreduced kernel, the rest on their own
    # arithmetic; both must give the reference's value, type and repr, for
    # every constant and for each tag's six
    rng = SplitMix64(5)
    special = (F(0), F(1), F(1, 2), 0.0, 1.0, 5e-324, 1 - 2 ** -53, 0.5, 1e-300)
    subsets = [POWER_MEAN] + [names[:6] for names in SELECTED.values()]

    def draw():
        pick = rng.next_u64() % 4
        if pick == 0:
            return rng.choice(special)
        if pick == 1:
            return F(rng.next_u64() % 40, 40 + rng.next_u64() % 40)
        if pick == 2:  # denominators up to 2**64
            d = 1 + rng.next_u64()
            return F(rng.next_u64() % (d + 1), d)
        return rng.uniform()

    for case in range(1200):
        params = RuleParams(draw(), draw())
        want = _power_mean_as_written(params)
        assert list(power_mean_coeffs(params)) == list(want) == list(POWER_MEAN)
        for names in subsets:
            got = power_mean_coeffs(params, names)
            assert list(got) == list(names)
            assert [(type(v), repr(v)) for v in got.values()] == \
                [(type(want[k]), repr(want[k])) for k in names], (params, names)


def _eps_underflows_by_breakpoints(params, tag, p):
    """The underflow guard as it read the breakpoints (x, y, z) and the eps
    names that ``tag`` selects; kept verbatim as the reference."""
    try:
        k = float(p) + 1
    except OverflowError:
        k = math.inf
    y = 1 - params.alpha
    yf = float(y)
    if (min(yf, 1 - yf) / 2) ** (k + 1) >= _TINY or y in (0, 1):
        return False
    x, y, z = params.breakpoints()
    eps_first, eps_second = SELECTED[tag][6:]
    first = (x, y) if eps_first == "eps2" else (max(x, y - x),) * 2
    second = (1 - z, 1 - y) if eps_second == "eps4" else (max(1 - z, z - y),) * 2
    return any(gap > 0 and min(float(big) ** k,
                               k * float(gap) * float(big) ** (k - 1)) < _TINY
               for big, gap in (first, second))


def test_underflow_guard_reads_the_shared_pairs():
    rng = SplitMix64(14)
    special = (F(0), F(1), 5e-324, 2 ** -53, 1 - 2 ** -53, 1 - F(1, 10 ** 400))
    special_p = (1 + 1e-9, 1e300, F(10 ** 6 + 1), F(10 ** 400 + 1))

    def draw():
        pick = rng.next_u64() % 3
        if pick == 0:
            return rng.choice(special)
        if pick == 1:
            return F(rng.next_u64() % 6, 5)
        return rng.uniform()

    seen = set()
    for _ in range(20_000):
        params = RuleParams(draw(), draw())
        p = (rng.choice(special_p) if rng.next_u64() % 4 == 0
             else 1 + 10 ** (rng.uniform() * 309 - 9))  # 1 + 1e-9 .. 1e300
        want = _eps_underflows_by_breakpoints(params, classify_regime(params), p)
        assert eps_underflows(params, p) is want, (params, p)
        seen.add(want)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# Piecewise-exact oracle for the defining integrals: it validates the closed
# forms, which never read it

WEIGHT_ONE = "1"
WEIGHT_T = "t"
WEIGHT_ONE_MINUS_T = "1-t"


def _powers(s0, s1, p):
    """(integral of s**p, integral of s**(p+1)) for s from s0 to s1, s >= 0."""
    i1 = (s1 ** (p + 1) - s0 ** (p + 1)) / (p + 1)
    i2 = (s1 ** (p + 2) - s0 ** (p + 2)) / (p + 2)
    return i1, i2


def _piece(c, lo, hi, p, weight, above: bool):
    """Integral of |t-c|**p * weight(t) over [lo, hi] with t-c one-signed."""
    if lo == hi:
        return 0
    if above:
        # substitute s = t - c, s in [lo-c, hi-c], t = c + s
        i1, i2 = _powers(lo - c, hi - c, p)
        if weight == WEIGHT_ONE:
            return i1
        if weight == WEIGHT_T:
            return c * i1 + i2
        return (1 - c) * i1 - i2
    # substitute s = c - t, s in [c-hi, c-lo], t = c - s
    i1, i2 = _powers(c - hi, c - lo, p)
    if weight == WEIGHT_ONE:
        return i1
    if weight == WEIGHT_T:
        return c * i1 - i2
    return (1 - c) * i1 + i2


def abs_power_integral(c, lo, hi, p, weight: str = WEIGHT_ONE):
    """Integral of |t - c|**p * w(t) over [lo, hi], w in {1, t, 1-t}.

    Splits at t = c and integrates each monomial piece in closed form, so
    the only error is rounding (exact for rational inputs with integer p).
    Used to validate the coefficient formulas, never to produce them.
    """
    if weight not in (WEIGHT_ONE, WEIGHT_T, WEIGHT_ONE_MINUS_T):
        raise DomainError(f"weight must be one of '1', 't', '1-t', got {weight!r}")
    if not p >= 1:
        raise DomainError(f"exponent p must be >= 1, got {p!r}")
    if lo > hi:
        raise DomainError(f"empty range: lo={lo!r} > hi={hi!r}")
    if hi <= c:
        return _piece(c, lo, hi, p, weight, above=False)
    if lo >= c:
        return _piece(c, lo, hi, p, weight, above=True)
    return (_piece(c, lo, c, p, weight, above=False)
            + _piece(c, c, hi, p, weight, above=True))


def test_gamma1_against_weight_integral():
    c = power_mean_coeffs(RuleParams(0.9, 0.5))
    assert c["gamma1"] == pytest.approx(0.04, abs=1e-15)
    assert c["gamma1"] == pytest.approx(abs_power_integral(0.45, 0.0, 0.1, 1))


def test_holder_simpson_p2():
    hc = holder_coeffs(RuleParams(F(1, 2), F(1, 3)), 2)
    assert hc["eps1"] == F(1, 24)
    # cross-check against the defining integral, eps = (p+1) * integral
    assert hc["eps1"] == 3 * abs_power_integral(F(1, 6), F(0), F(1, 2), 2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_holder_simpson_general_p(p):
    hc = holder_coeffs(RuleParams(0.5, 1 / 3), p)
    assert hc["eps1"] == pytest.approx((1 / 6) ** (p + 1) * (1 + 2 ** (p + 1)),
                                    rel=1e-14)
    assert hc["eps3"] == pytest.approx(hc["eps1"], rel=1e-14)


def test_holder_alpha_one_edge():
    # first weight integral is empty, its closed form collapses to zero
    hc = holder_coeffs(RuleParams(1.0, 0.7), 2.0)
    assert hc["eps2"] == pytest.approx(0.0, abs=1e-15)
    assert hc["eps1"] is None  # alpha*lambda > 1-alpha: inactive side
    assert abs_power_integral(0.7, 0.0, 0.0, 2.0) == 0


def test_holder_inactive_sides_are_none():
    hc = holder_coeffs(RuleParams(F(1, 2), F(1, 3)), 2)
    assert hc["eps2"] is None  # alpha*lambda < 1-alpha
    assert hc["eps4"] is None  # lambda*(1-alpha) < alpha
    hc = holder_coeffs(RuleParams(0.2, 0.9), 2.0)
    assert hc["eps3"] is None and hc["eps4"] is not None


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
    assert c["mu1"] + c["mu2"] == c["gamma2"]
    assert c["mu3"] + c["mu4"] == c["gamma1"]
    assert c["eta1"] + c["eta2"] == c["upsilon1"]
    assert c["eta3"] + c["eta4"] == c["upsilon2"]


@given(unit_fraction, unit_fraction)
@settings(max_examples=60)
def test_selected_coefficients_nonnegative(alpha, lam):
    params = RuleParams(alpha, lam)
    tag = classify_regime(params)
    pm, hc = power_mean_coeffs(params), holder_coeffs(params, 2)
    for value in [pm[k] for k in SELECTED[tag][:6]]:
        assert value >= 0
    for value in [hc[k] for k in SELECTED[tag][6:]]:
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
    pm = power_mean_coeffs(params)
    for value in [pm[k] for k in SELECTED[tag][:6]]:
        # cancellation leaves dust of an ulp of 1, which the engines clamp
        assert value >= -1e-15
    for p in (1.5, 2.0, 3.0):
        hc = holder_coeffs(params, p)
        for value in [hc[k] for k in SELECTED[tag][6:]]:
            assert value is not None and value >= 0


def _near_second_kink(alpha, ulps):
    """(alpha, lambda) with lambda within a few ulps of alpha/(1-alpha)."""
    lam = alpha / (1 - alpha)
    for _ in range(abs(ulps)):
        lam = math.nextafter(lam, math.copysign(math.inf, ulps))
    return RuleParams(alpha, min(max(lam, 0.0), 1.0))


@given(st.floats(0, 0.5), st.integers(-3, 3))
@example(0.1859062658947177, 2)
def test_table_follows_the_case_split(alpha, ulps):
    # slots 0-2 and 6 belong to the integral over [0, 1-alpha], which only
    # Case3 switches; slots 3-5 and 7 to the one over [1-alpha, 1], which
    # only Case2 switches
    assert set(SELECTED) == {CASE1, CASE2, CASE3}
    changed = {tag: [i for i in range(8) if SELECTED[tag][i] != SELECTED[CASE1][i]]
               for tag in (CASE2, CASE3)}
    assert changed == {CASE3: [0, 1, 2, 6], CASE2: [3, 4, 5, 7]}
    params = _near_second_kink(alpha, ulps)
    hc = holder_coeffs(params, 2.0)
    assert all(hc[k] is not None for k in SELECTED[classify_regime(params)][6:])


def _ladders(pm, hc, tag):
    """The two if-ladders the table replaced, kept as the reference."""
    first = ((pm["gamma1"], pm["mu3"], pm["mu4"]) if tag == CASE3
             else (pm["gamma2"], pm["mu1"], pm["mu2"]))
    second = ((pm["upsilon1"], pm["eta1"], pm["eta2"]) if tag == CASE2
              else (pm["upsilon2"], pm["eta3"], pm["eta4"]))
    eps = (hc["eps2" if tag == CASE3 else "eps1"], hc["eps4" if tag == CASE2 else "eps3"])
    return first + second + eps


@given(st.one_of(st.tuples(unit_fraction, unit_fraction),
                 st.tuples(st.floats(0, 1), st.floats(0, 1))),
       st.sampled_from([2, F(3, 2), 1.5, 3.0]))
@settings(max_examples=200)
def test_table_matches_the_ladders(pair, p):
    params = RuleParams(*pair)
    pm, hc = power_mean_coeffs(params), holder_coeffs(params, p)
    for tag in (CASE1, CASE2, CASE3):
        table = [{**pm, **hc}[k] for k in SELECTED[tag]]
        reference = _ladders(pm, hc, tag)
        assert [(type(v), v) for v in table] == [(type(v), v) for v in reference]


@given(st.fractions(min_value=F(1, 2), max_value=1))
def test_boundary_agreement_first_integral(alpha):
    # alpha*lambda = 1-alpha forces gamma1 = gamma2 = (1-alpha)^2/2 and
    # mu-pair agreement
    if alpha == 0:
        return
    lam = (1 - alpha) / alpha
    c = power_mean_coeffs(RuleParams(alpha, lam))
    assert c["gamma1"] == c["gamma2"] == (1 - alpha) ** 2 / 2
    assert c["mu1"] == c["mu3"] and c["mu2"] == c["mu4"]


@given(st.fractions(min_value=0, max_value=F(1, 2)))
def test_boundary_agreement_second_integral(alpha):
    # lambda*(1-alpha) = alpha forces upsilon and eta agreement
    if alpha == 1:
        return
    lam = alpha / (1 - alpha)
    c = power_mean_coeffs(RuleParams(alpha, lam))
    assert c["upsilon1"] == c["upsilon2"]
    assert c["eta1"] == c["eta3"] and c["eta2"] == c["eta4"]


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
        pm = power_mean_coeffs(params)
        gamma, mu_b, mu_a, upsilon, eta_b, eta_a = [pm[k] for k in SELECTED[tag][:6]]
        assert _rel_close(gamma, abs_power_integral(c, 0, u, 1), 1e-10)
        assert _rel_close(mu_b, abs_power_integral(c, 0, u, 1, "t"), 1e-10)
        assert _rel_close(mu_a, abs_power_integral(c, 0, u, 1, "1-t"), 1e-10)
        assert _rel_close(upsilon, abs_power_integral(1 - w, u, 1, 1), 1e-10)
        assert _rel_close(eta_b, abs_power_integral(1 - w, u, 1, 1, "t"), 1e-10)
        assert _rel_close(eta_a, abs_power_integral(1 - w, u, 1, 1, "1-t"), 1e-10)
        for p in (1.5, 2.0, 3.0):
            hc = holder_coeffs(params, p)
            ef, es = [hc[k] for k in SELECTED[tag][6:]]
            assert _rel_close(ef / (p + 1), abs_power_integral(c, 0, u, p), 1e-10)
            assert _rel_close(es / (p + 1),
                              abs_power_integral(1 - w, u, 1, p), 1e-10)
