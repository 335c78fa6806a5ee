import json
import math
from pathlib import Path

import pytest

from certquad import Interval, OracleError, from_expression, integrate_ref, mean_ref
from certquad.cli import main
from certquad.oracle import DEFAULT_TOL, HH_SLACK, hh_gap
from certquad.prng import SplitMix64

from conftest import uniform_in

GOLDEN = Path(__file__).with_name("golden_cli.json")


def test_polynomial():
    r = integrate_ref(lambda x: x * x, 0, 1, tol=1e-12)
    assert r.value == pytest.approx(1 / 3, abs=1e-12)
    assert r.abs_error_estimate <= 1e-12


def test_logarithm():
    r = integrate_ref(lambda x: 1 / x, 1, math.e, tol=1e-11)
    assert r.value == pytest.approx(1.0, abs=1e-11)


def test_abs_kink_with_split():
    r = integrate_ref(lambda t: abs(t - 1 / 6), 0, 1, tol=1e-12,
                      kinks=(1 / 6,))
    assert r.value == pytest.approx(13 / 36, abs=1e-12)


def test_empty_and_reversed_ranges():
    assert integrate_ref(lambda x: x, 2, 2).value == 0.0
    r = integrate_ref(lambda x: x, 1, 0, tol=1e-12)
    assert r.value == pytest.approx(-0.5, abs=1e-12)


def test_depth_cap_reports_best_estimate():
    # a genuinely rough integrand at an impossible tolerance
    with pytest.raises(OracleError) as info:
        integrate_ref(lambda x: abs(x - 1 / math.pi) ** 0.5, 0, 1, tol=1e-16)
    assert math.isfinite(info.value.best)


def test_known_antiderivatives_on_random_intervals():
    rng = SplitMix64(11)
    cases = [
        (lambda x: x ** 3, lambda x: x ** 4 / 4),
        (lambda x: 1 / x, lambda x: math.log(x)),
        (lambda x: math.log(x), lambda x: x * math.log(x) - x),
        (lambda x: math.exp(x), lambda x: math.exp(x)),
    ]
    for _ in range(100):
        a = uniform_in(rng, 0.2, 2.0)
        b = a + uniform_in(rng, 0.1, 2.0)
        for g, G in cases:
            r = integrate_ref(g, a, b, tol=1e-11)
            assert r.value == pytest.approx(G(b) - G(a), abs=2e-11)


def test_self_consistency_under_tol_halving():
    rng = SplitMix64(13)
    for _ in range(25):
        a = uniform_in(rng, 0.2, 1.5)
        b = a + uniform_in(rng, 0.2, 1.5)
        tol = 10.0 ** -rng.choice([6, 8, 10])
        coarse = integrate_ref(math.exp, a, b, tol=tol).value
        fine = integrate_ref(math.exp, a, b, tol=tol / 2).value
        assert abs(coarse - fine) <= tol


def test_mean_examples(corpus):
    assert mean_ref(corpus["pow:2"], Interval(0.0, 1.0)) == pytest.approx(1 / 3)
    assert mean_ref(corpus["reciprocal"], Interval(1.0, 2.0)) == pytest.approx(
        math.log(2))
    affine = from_expression("x", assume_convex=True)
    assert mean_ref(affine, Interval(0.3, 1.7)) == pytest.approx(1.0)


def hh_check(f, iv) -> bool:
    """Midpoint <= integral mean <= endpoint average, for convex f."""
    return hh_gap(f, iv) <= HH_SLACK


def test_hh_examples(corpus):
    assert hh_check(corpus["pow:2"], Interval(0.0, 1.0))
    assert hh_check(corpus["exp"], Interval(0.0, 1.0))
    # affine case: all three quantities coincide
    assert hh_check(from_expression("2*x + 1"), Interval(0.0, 1.0))
    # near-equality case: tiny interval, convex function
    assert hh_check(corpus["exp"], Interval(1.0, 1.0 + 1e-6))


def test_hh_all_corpus(corpus):
    for f in corpus.values():
        assert hh_check(f, Interval(0.5, 2.0)), f.name


def test_tolerance_is_a_constant(monkeypatch, capsys):
    # no environment variable moves the oracle: verify keeps its golden bytes
    monkeypatch.setenv("CERTQUAD_TOL", "1e-3")
    f = from_expression("exp(x)")
    assert integrate_ref(f.value, 0.0, 1.0) == integrate_ref(
        f.value, 0.0, 1.0, tol=DEFAULT_TOL)
    cases = [entry for entry in json.loads(GOLDEN.read_text())
             if entry["argv"][:3] == ["verify", "--check", "identity"]]
    # every identity golden replays, whatever else the list holds
    assert {"csv", "json"} <= {entry["argv"][entry["argv"].index("--format") + 1]
                               for entry in cases if "--format" in entry["argv"]}
    for entry in cases:
        assert main(entry["argv"]) == entry["code"]
        assert capsys.readouterr().out == entry["stdout"]
