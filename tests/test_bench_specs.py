"""The traced benchmark wraps certquad functions by name (``bench/tracing.py``
``SPECS``); a rename in ``src/`` would silently drop a layer from its
metrics.  Every target must still resolve, and the CLI must still call the
wrapped names."""

import importlib
import io
import sys
from pathlib import Path

import certquad
import certquad.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_every_spec_target_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    for module_name, attr, *_ in tracing.SPECS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_cli_runs_the_traced_command_and_emitter(monkeypatch):
    tracing = _tracing(monkeypatch)
    monkeypatch.setattr("sys.stdout", io.StringIO())
    rec = tracing.Recorder()
    restore = tracing.instrument(rec)
    try:
        with rec.operation():
            code = certquad.cli.main(["coeffs", "--alpha", "1/2", "--lambda", "1/3"])
    finally:
        restore()
    assert code == 0
    assert rec.calls["cli.parse_args"] >= 1
    assert rec.calls["cli.command"] == 1
    assert rec.calls["cli.render"] >= 1


def test_engines_run_the_traced_layers(monkeypatch):
    # bench/test_bench.py lies outside testpaths; this covers the params,
    # coefficients and bounds spans, and the hooks that read the
    # coefficient arguments (params first, p second)
    tracing = _tracing(monkeypatch)
    rec = tracing.Recorder()
    restore = tracing.instrument(rec)
    try:
        with rec.operation():
            f = certquad.resolve_function("exp")
            simpson = certquad.named_rule("simpson")
            certquad.power_mean_bound(f, certquad.Interval(0, 1), simpson, 2)
            certquad.holder_interior_bound(f, certquad.Interval(0.5, 1.5),
                                           certquad.RuleParams(0.3, 0.6), 2.0)
            certquad.best_bound(f, certquad.Interval(0, 1), simpson, [1, 2])
    finally:
        restore()
    for span in ("params.classify", "coefficients.power_mean",
                 "coefficients.holder", "bounds.t22", "bounds.t23", "bounds.best"):
        assert rec.calls[span] >= 1, span
    assert rec.keys
    assert not [k for k in rec.counts if ".raised." in k]


def test_result_hooks_read_the_results(monkeypatch):
    # the hooks that read results (composite panels, bisections and target
    # attainment; oracle depth and integrand evaluations) must keep
    # matching the result types
    tracing = _tracing(monkeypatch)
    monkeypatch.setattr("sys.stdout", io.StringIO())
    rec = tracing.Recorder()
    restore = tracing.instrument(rec)
    try:
        with rec.operation():
            result = certquad.adaptive_integrate(
                certquad.resolve_function("exp"), certquad.Interval(0.0, 1.0),
                certquad.named_rule("midpoint"), 1.0, target=1e-2)
            code = certquad.cli.main(["verify", "--check", "identity", "--rows", "3"])
    finally:
        restore()
    assert code == 0
    assert len(result.panels) > 1 and result.target_met is True
    assert rec.counts["composite.panels"] == len(result.panels)
    assert rec.counts["composite.adaptive"] == 1
    assert rec.counts["composite.bisections"] == len(result.panels) - 1
    assert rec.counts["composite.target_met"] == 1
    assert rec.peaks["oracle.max_depth"] >= 1
    assert rec.counts["oracle.integrand_evals"] > 0
    assert not [k for k in rec.counts if ".raised." in k]
