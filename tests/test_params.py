import math
import operator
import random
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from certquad import (DomainError, RuleParams, classify_regime, conjugate,
                      holder_coeffs, power_mean_coeffs)
from certquad.coefficients import eps_underflows
from certquad.params import CASE1, CASE2, CASE3, _Ratio, _ratio, _reduced
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
        # alpha = p/P and lambda = r/R, with the inequality times P*R
        (p, P), (r, R) = alpha.as_integer_ratio(), lam.as_integer_ratio()
        assert p * r <= P * R - r * (P - p)
        counts[classify_regime(params)] += 1
    assert sum(counts.values()) == 1_000_000
    assert all(c > 0 for c in counts.values())


def _kink_pairs_as_written(params):
    """The free function that computed the (kink, split) pairs on every
    read, before ``RuleParams`` derived them; kept verbatim as the reference."""
    a, l = params.alpha, params.lam
    u = 1 - a
    return (a * l, u), (l * u, a)


def _classify_as_written(params):
    """``classify_regime`` as it read those pairs; kept verbatim."""
    (x, y), (w, a) = _kink_pairs_as_written(params)
    if x > y:
        return CASE3
    if w <= a:
        return CASE1
    return CASE2


class _AsWritten:
    """A stand-in that hands the coefficient kernels the reference pairs."""

    def __init__(self, params):
        self.alpha, self.lam = params.alpha, params.lam
        self.kink_pairs = _kink_pairs_as_written(params)
        self.exact = type(self.alpha) is F or type(self.lam) is F  # as RuleParams has it


def _typed(run):
    """(name, type, repr) of each constant in the family run returns, or
    the type of what it raises."""
    try:
        family = run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    return [(name, type(v), repr(v)) for name, v in family.items()]


def test_derived_pairs_and_regime_keep_every_bit():
    rng = SplitMix64(16)
    special = (F(0), F(1), F(1, 2), F(1, 2 ** 53), 1 - F(1, 2 ** 53), 0.0, 1.0, 0.5,
               5e-324, 2 ** -53, 1 - 2 ** -53, 0.1, 1e-300)
    ps = (1 + 1e-9, F(3, 2), F(2), 3.5, 1e6)

    def draw():
        pick = rng.next_u64() % 3
        if pick == 0:
            return rng.choice(special)
        if pick == 1:
            return F(rng.next_u64() % 40, 40 + rng.next_u64() % 40)
        return rng.uniform()

    seen = {CASE1: 0, CASE2: 0, CASE3: 0}
    for _ in range(4_000):
        params = RuleParams(draw(), draw())
        ref = _AsWritten(params)
        (x, y), (w, _) = ref.kink_pairs
        assert repr(params.kink_pairs) == repr(ref.kink_pairs), params
        assert [(type(v), repr(v)) for v in params.breakpoints()] == \
            [(type(v), repr(v)) for v in (x, y, 1 - w)], params
        tag = _classify_as_written(params)
        assert classify_regime(params) is params.regime == tag, params
        seen[tag] += 1
        assert _typed(lambda: power_mean_coeffs(params)) == \
            _typed(lambda: power_mean_coeffs(ref)), params
        for p in ps:
            assert _typed(lambda: holder_coeffs(params, p)) == \
                _typed(lambda: holder_coeffs(ref, p)), (params, p)
            assert eps_underflows(params, p) is eps_underflows(ref, p), (params, p)
    assert all(seen.values()), seen


_ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
_ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def _result(run):
    """(type, repr) of what run returns, a _Ratio reduced first, or the type
    of what it raises."""
    try:
        value = run()
    except (ArithmeticError, TypeError) as exc:
        return type(exc)
    return type(_reduced(value)), repr(_reduced(value))


def _kept(op, x, y):
    """Whether op(x, y) reaches an operator _Ratio keeps; any other is a
    TypeError."""
    if op in (operator.add, operator.sub, operator.mul, operator.eq):
        return True
    if op in (operator.truediv, operator.ge):
        return type(x) is _Ratio
    return op is operator.le and type(y) is _Ratio  # x <= r reflects onto r >= x


def test_ratio_has_fractions_mixed_type_arithmetic():
    rng = random.Random(19)
    exact = [F(0), F(1), F(-1), F(3, 7), F(-5, 2)] + [
        F(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(8)]
    floats = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan] + [
        rng.uniform(-10, 10) for _ in range(4)]
    ints = [0, 1, -3, rng.randint(4, 20)]

    def unreduced(v):  # the same rational with a common factor left in
        k = rng.randint(1, 9)
        return _ratio(v.numerator * k, v.denominator * k)

    # each case: the operands with _Ratio ones, and the same with Fractions
    cases = [((unreduced(x), y), (x, y)) for x in exact for y in exact + floats + ints]
    cases += [((y, unreduced(x)), (y, x)) for x in exact for y in exact + floats + ints]
    cases += [((unreduced(x), unreduced(y)), (x, y)) for x in exact for y in exact]
    for (x, y), (fx, fy) in cases:
        for op in _ARITHMETIC + _ORDER + (operator.eq,):
            want = _result(lambda: op(fx, fy)) if _kept(op, x, y) else TypeError
            assert _result(lambda: op(x, y)) == want, (op, fx, fy)
    exponents = ints + [F(2), F(-1), F(1, 2), F(3, 2), F(-1, 3), 0.5, 2.0, -1.5]
    for x in exact:
        for k in exponents:
            assert _result(lambda: unreduced(x) ** k) == _result(lambda: x ** k), (x, k)
            with pytest.raises(TypeError):  # a _Ratio is never an exponent
                k ** unreduced(x)
        r = unreduced(x)
        assert bool(r) is bool(x)
        with pytest.raises(TypeError):  # never called: a float is read as n / d
            float(r)
        for other in (1j, "1", None, Decimal("1.5"), True):
            for op in _ARITHMETIC + _ORDER + (operator.pow,):
                with pytest.raises(TypeError):
                    op(r, other)
                with pytest.raises(TypeError):
                    op(other, r)
    assert isinstance(unreduced(F(1, 2)) + 1, _Ratio)  # exact results stay unreduced


def test_power_budget_reads_lifted_bases():
    # _power takes lifted bases from the exact kernels and int bases from
    # simplify: the bit estimate and the refusal are those of the Fraction
    from certquad.coefficients import check_eps_digits
    from certquad.expression import Const, parse, simplify
    from certquad.params import POWER_BITS, _lift, _power, _power_bits
    for b in (F(3, 7), F(-5, 2), F(1), F(0), F(2 ** 70, 3)):
        for k in (2, F(3), 10 ** 6, F(10 ** 7)):
            assert _power_bits(_lift(b), k) == _power_bits(b, k), (b, k)
        assert _reduced(_power(_lift(b), 3)) == _power(b, 3) == b ** 3
    assert _power_bits(5, 4) == _power_bits(F(5), 4) and type(_power(2, 3)) is int
    with pytest.raises(OverflowError, match=f"exponent 1000000 exceeds {POWER_BITS} bits"):
        _power(_lift(F(3, 7)), 10 ** 6)
    assert simplify(parse("2^3")) == Const(8) and type(simplify(parse("2^3")).value) is int
    # a huge exact p: the eps of lifted pairs refuse by the budget, as before
    params = RuleParams(F(1, 3), F(1, 4))
    with pytest.raises(OverflowError, match=f"exponent 1000001 exceeds {POWER_BITS} bits"):
        holder_coeffs(params, F(10 ** 6))
    # check_eps_digits refuses before any power exactly when an eps would
    # print past the interpreter's limit (none before 3.10.7)
    limited = bool(getattr(sys, "get_int_max_str_digits", lambda: 0)())
    for p, long in ((F(100), False), (F(2000), False), (F(5000), limited), (F(9999, 2), False)):
        eps = [v for v in holder_coeffs(params, p).values() if v is not None]
        if long:
            with pytest.raises(ValueError):
                [str(v) for v in eps]
            with pytest.raises(ValueError):
                check_eps_digits(params, p)
        else:
            assert all(str(v) for v in eps)
            check_eps_digits(params, p)
