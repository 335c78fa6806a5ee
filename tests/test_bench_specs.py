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
