"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import exact  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_hand_built_tree():
    # op [0, 100] -> engine [10, 70] -> coeffs [20, 30], probe [35, 65] -> deriv [40, 45], [50, 52]
    #            -> rule_value [80, 90]
    spans = [
        ("op", 0, 100, -1, 0),
        ("engine", 10, 70, 0, 0),
        ("coeffs", 20, 30, 1, 0),
        ("probe", 35, 65, 1, 0),
        ("deriv", 40, 45, 3, 0),
        ("deriv", 50, 52, 3, 0),
        ("rule_value", 80, 90, 0, 0),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 23, 5, 2, 10]


def test_recorder_folds_spans_into_totals():
    rec = tracing.Recorder()
    for _ in range(2):
        with rec.operation():
            outer = rec.open("outer")
            rec.close(rec.open("inner"))
            rec.close(outer)
    assert rec.ops == 2 and rec.spans == []
    assert rec.calls == {"op": 2, "outer": 2, "inner": 2}
    assert rec.edges == {"op>outer": 2, "outer>inner": 2}
    assert all(ns >= 0 for ns in rec.self_ns.values())


def test_merge_adds_counts_and_keeps_maxima():
    parent, child = tracing.Recorder(), tracing.Recorder()
    parent.peaks["oracle.max_depth"] = 7
    for depth in (3, 9):
        child.counts["oracle.integrand_evals"] = 10
        child.peaks["oracle.max_depth"] = depth
        parent.merge(json.loads(json.dumps(child.snapshot())))
    assert parent.counts["oracle.integrand_evals"] == 20
    assert parent.peaks["oracle.max_depth"] == 9


def _first(name, seed, n=40):
    return list(itertools.islice(workloads.make(name, str(ROOT)).operations(seed), n))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_operations_depend_only_on_seed(name):
    assert _first(name, 7) == _first(name, 7)
    assert _first(name, 7) != _first(name, 8)


def test_instrument_restores_every_original():
    import certquad
    import certquad.cli

    modules = [m for n, m in sys.modules.items() if n.startswith("certquad")]
    before = [dict(vars(m)) for m in modules]
    engines = dict(certquad.bounds.ENGINES)
    methods = (certquad.RuleParams.__post_init__, certquad.FunctionModel.derivative)
    rec = tracing.Recorder()
    restore = tracing.instrument(rec)
    assert certquad.bounds.ENGINES["t22"] is not engines["t22"]
    with rec.operation():
        certquad.best_bound(certquad.from_expression("x^3 + 3*x"),
                            certquad.Interval(1, 2), certquad.named_rule("simpson"), [1, 2])
    restore()
    assert [dict(vars(m)) for m in modules] == before
    assert certquad.bounds.ENGINES == engines
    assert (certquad.RuleParams.__post_init__, certquad.FunctionModel.derivative) == methods
    assert "parse_args" not in vars(certquad.cli._Parser)
    # q = 1 makes both conjugate-exponent engines refuse
    assert rec.counts["bounds.t23.raised.Refusal"] == 1
    assert rec.counts["bounds.t24.raised.Refusal"] == 1
    assert rec.calls["expression.probe"] == 4 and rec.edges["bounds.best>bounds.t22"] == 2


def test_checks_reject_wrong_results():
    mean = exact.mean("pow:2", Fraction(0), Fraction(1))
    assert mean == Fraction(1, 3)
    assert exact.within(Fraction(1, 4), mean, Fraction(1, 12), exact.CERT_SLACK)
    assert not exact.within(Fraction(1, 4), mean, Fraction(1, 13), exact.CERT_SLACK)
    assert not exact.within(0.25, mean, 0.08, exact.CERT_SLACK)
    argv = ("bound", "--f", "pow:2", "--a", "0", "--b", "1", "--rule", "midpoint",
            "--q", "1", "--theorem", "t22")
    doc = {"schema": "v1", "a": "0", "b": "1", "alpha": "1/2", "lambda": "0",
           "theorem": "T22q1", "q": "1", "p": "inf", "approx": "1/4", "bound": "1/12",
           "advisory": False, "regime": "Case1"}
    assert workloads.check_cli_output(argv, 0, json.dumps(doc).encode()) is None
    assert workloads.check_cli_output(argv, 2, b"") is not None
    short = json.dumps({**doc, "bound": "1/13"}).encode()
    assert "> bound" in workloads.check_cli_output(argv, 0, short)
    missing = json.dumps({k: v for k, v in doc.items() if k != "regime"}).encode()
    assert "unexpected keys" in workloads.check_cli_output(argv, 0, missing)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
