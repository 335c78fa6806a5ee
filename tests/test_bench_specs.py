"""The traced benchmark wraps certquad functions by name (``bench/tracing.py``
``SPECS``); a rename in ``src/`` would silently drop a layer from its
metrics.  Every target must still resolve, and the CLI must still call the
wrapped names."""

import importlib
import io
import sys
from pathlib import Path

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
