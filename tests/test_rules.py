import math
from fractions import Fraction as F

import pytest

from certquad import (DomainError, Interval, RuleParams, from_expression,
                      identity_rhs, named_rule, rule_value)
from certquad.rules import NAMED_RULES

from conftest import INTERVALS, uniform_in


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1, 1)
    with pytest.raises(DomainError):
        Interval(2, 1)
    with pytest.raises(DomainError):
        Interval(0.0, float("inf"))
    assert Interval(F(0), F(1)).width == 1


def test_named_rules():
    assert named_rule("midpoint") == RuleParams(F(1, 2), F(0))
    assert named_rule("trapezoid") == RuleParams(F(1, 2), F(1))
    assert named_rule("simpson") == RuleParams(F(1, 2), F(1, 3))
    with pytest.raises(DomainError, match=r"unknown rule 'gauss'; expected one of "
                       r"\['midpoint', 'simpson', 'trapezoid'\]"):
        named_rule("gauss")


def test_named_rules_come_from_one_table():
    assert tuple(NAMED_RULES) == ("midpoint", "trapezoid", "simpson")
    for kind, params in NAMED_RULES.items():
        assert named_rule(kind) is params  # built once, at import


def test_rule_values_on_square(corpus):
    x2 = corpus["pow:2"]
    iv = Interval(F(0), F(1))
    assert rule_value(x2, iv, named_rule("simpson")) == F(1, 3)
    assert rule_value(x2, iv, named_rule("midpoint")) == F(1, 4)
    assert rule_value(x2, iv, named_rule("trapezoid")) == F(1, 2)


def test_simpson_weights(corpus):
    # (1/6)[f(a) + 4 f(mid) + f(b)]
    x3 = corpus["pow:3"]
    iv = Interval(F(1), F(3))
    expected = (x3.value(F(1)) + 4 * x3.value(F(2)) + x3.value(F(3))) / 6
    assert rule_value(x3, iv, named_rule("simpson")) == expected


def test_domain_enforced(corpus):
    with pytest.raises(DomainError):
        rule_value(corpus["reciprocal"], Interval(0.0, 1.0),
                   named_rule("midpoint"))


def test_exactness_for_affine_and_cubic(corpus):
    affine = from_expression("3*x + 1", assume_convex=True)
    iv = Interval(F(1), F(2))
    mean = F(3) * F(3, 2) + 1
    for lam in (F(0), F(1, 4), F(1, 2), F(1)):
        assert rule_value(affine, iv, RuleParams(F(1, 2), lam)) == mean
    # Simpson is exact through cubics
    x3 = corpus["pow:3"]
    assert rule_value(x3, Interval(F(0), F(1)), named_rule("simpson")) == F(1, 4)


def test_rule_is_convex_combination(corpus):
    from certquad.prng import SplitMix64
    rng = SplitMix64(3)
    for f in corpus.values():
        for _ in range(20):
            iv = Interval(0.5, 0.5 + uniform_in(rng, 0.25, 2.0))
            params = RuleParams(rng.uniform(), rng.uniform())
            node = params.alpha * iv.a + (1 - params.alpha) * iv.b
            samples = [float(f.value(iv.a)), float(f.value(iv.b)),
                       float(f.value(node))]
            v = float(rule_value(f, iv, params))
            assert min(samples) - 1e-12 <= v <= max(samples) + 1e-12


def test_identity_examples(corpus, oracle_mean):
    x3 = corpus["pow:3"]
    iv = Interval(0.0, 1.0)
    params = RuleParams(0.3, 0.7)
    lhs = float(rule_value(x3, iv, params)) - oracle_mean(x3, 0.0, 1.0)
    assert abs(lhs - identity_rhs(x3, iv, params)) < 1e-8

    e = corpus["exp"]
    params = RuleParams(0.5, 1 / 3)
    lhs = float(rule_value(e, iv, params)) - oracle_mean(e, 0.0, 1.0)
    assert abs(lhs - identity_rhs(e, iv, params)) < 1e-8

    # degenerate corner of the parameter square still balances
    params = RuleParams(1.0, 1.0)
    lhs = float(rule_value(e, iv, params)) - oracle_mean(e, 0.0, 1.0)
    assert abs(lhs - identity_rhs(e, iv, params)) < 1e-8


def test_identity_grid(corpus, oracle_mean):
    # trimmed version of the acceptance sweep: every corpus member, a
    # 3x3 parameter grid, one interval
    grid = [F(i, 2) for i in range(3)]
    for f in corpus.values():
        for alpha in grid:
            for lam in grid:
                params = RuleParams(alpha, lam)
                iv = Interval(*INTERVALS[0])
                lhs = float(rule_value(f, iv, params)) - oracle_mean(
                    f, *INTERVALS[0])
                assert abs(lhs - identity_rhs(f, iv, params)) < 1e-8
