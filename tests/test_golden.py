"""Golden CLI output: fixed commands compared byte for byte with
``golden_cli.json``.

Every case runs in-process through ``certquad.cli.main`` and records its
exit code and stdout.  Regenerate the data file, after checking that a
change in output is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from certquad.cli import main

DATA = Path(__file__).with_name("golden_cli.json")

_EXACT_SPAN = ("--a", "1", "--b", "2", "--rule", "simpson")
_FLOAT_SPAN = ("--a", "0.5", "--b", "1.75", "--alpha", "0.3", "--lambda", "0.6")


def _verify_cases():
    for check, rows in (("soundness", "24"), ("identity", "6"), ("hh", "1")):
        for fmt in ("csv", "json"):
            yield ("verify", "--check", check, "--seed", "7", "--rows", rows,
                   "--format", fmt)


def _bound_cases():
    for theorem, q in (("t22", "1"), ("t22", "3/2"), ("t23", "2"), ("t24", "3")):
        yield ("bound", "--f", "pow:3", *_EXACT_SPAN, "--q", q,
               "--theorem", theorem)
        yield ("bound", "--f", "exp", *_FLOAT_SPAN, "--q", q,
               "--theorem", theorem)
    yield ("bound", "--f", "pow:2", "--a", "1", "--b", "3", "--rule", "midpoint",
           "--q", "1", "--exact")
    yield ("bound", "--f", "reciprocal", *_EXACT_SPAN, "--q", "1,2,3",
           "--theorem", "best")
    yield ("bound", "--f", "negexp", *_FLOAT_SPAN, "--q", "1,1.5,2",
           "--theorem", "best")
    yield ("bound", "--f", "x^2*exp(x)", "--a", "0", "--b", "1", "--rule",
           "trapezoid", "--q", "1,2", "--theorem", "best")
    yield ("bound", "--f", "pow:2", *_EXACT_SPAN, "--q", "1", "--theorem", "t23")


def _integrate_cases():
    yield ("integrate", "--f", "exp", "--a", "0", "--b", "1", "--rule",
           "midpoint", "--q", "1", "--panels", "4")
    yield ("integrate", "--f", "pow:4", *_FLOAT_SPAN, "--q", "2",
           "--theorem", "t23", "--panels", "3", "--format", "csv")
    yield ("integrate", "--f", "pow:3", *_EXACT_SPAN, "--q", "1",
           "--target", "1/10")
    yield ("integrate", "--f", "neglog", *_FLOAT_SPAN, "--q", "2",
           "--theorem", "t24", "--target", "5e-2")


def _coeffs_cases():
    yield ("coeffs", "--alpha", "1/3", "--lambda", "1/4", "--p", "2")
    yield ("coeffs", "--alpha", "0.7", "--lambda", "0.2", "--p", "2")


def _mean_kind_cases():
    yield ("means", "--kind", "A_alpha", "--a", "1/3", "--b", "5/2",
           "--alpha", "1/4")
    yield ("means", "--kind", "A", "--a", "1/3", "--b", "5/2")
    yield ("means", "--kind", "G_alpha", "--a", "0.5", "--b", "2.5",
           "--alpha", "0.3")
    yield ("means", "--kind", "G", "--a", "0.5", "--b", "2.5")
    yield ("means", "--kind", "H_alpha", "--a", "1/3", "--b", "5/2",
           "--alpha", "2/3")
    yield ("means", "--kind", "H", "--a", "0.5", "--b", "2.5")
    yield ("means", "--kind", "L", "--a", "0.5", "--b", "2.5")
    yield ("means", "--kind", "L_n", "--a", "1", "--b", "2", "--n", "3")
    yield ("means", "--kind", "I", "--a", "0.5", "--b", "2.5")


def _prop_cases():
    for prop in range(1, 7):
        q_low, q_high = ("1", "2") if prop % 2 else ("2", "3")
        n = ("--n", "3") if prop <= 2 else ()
        yield ("means", "--prop", str(prop), "--a", "1", "--b", "5/2",
               "--alpha", "1/3", "--lambda", "1/4", "--q", q_low, *n)
        yield ("means", "--prop", str(prop), "--a", "0.75", "--b", "2.25",
               "--alpha", "0.4", "--lambda", "0.7", "--q", q_high, *n)
        yield ("means", "--prop", str(prop), "--a", "1.5", "--b", "3.25",
               "--alpha", "0.55", "--lambda", "0.15", "--q", "1.5", *n)
    for prop in (1, 2, 3):
        n = ("--n", "-2") if prop <= 2 else ()
        yield ("means", "--prop", str(prop), "--a", "-2.5", "--b", "-0.75",
               "--alpha", "0.2", "--lambda", "0.9", "--q", "2", *n)
    yield ("means", "--prop", "1", "--a", "1", "--b", "2", "--alpha", "1/2",
           "--lambda", "1/3", "--q", "1", "--n", "2")


def _help_and_pretty_cases():
    yield ("--help",)
    for command in ("bound", "integrate", "coeffs", "verify", "means"):
        yield (command, "--help")
    yield ("bound", "--f", "pow:3", *_EXACT_SPAN, "--q", "3/2", "--format", "pretty")
    yield ("integrate", "--f", "exp", *_FLOAT_SPAN, "--q", "2", "--theorem", "t24",
           "--panels", "2", "--format", "pretty")
    yield ("coeffs", "--alpha", "1/3", "--lambda", "1/4", "--p", "2",
           "--format", "pretty")
    yield ("verify", "--check", "soundness", "--seed", "7", "--rows", "3",
           "--format", "pretty")
    yield ("means", "--kind", "L_n", "--a", "1", "--b", "2", "--n", "3",
           "--format", "pretty")
    yield ("means", "--prop", "1", "--a", "1", "--b", "5/2", "--alpha", "1/3",
           "--lambda", "1/4", "--q", "1", "--n", "3", "--format", "pretty")


CASES = [list(argv) for gen in (_verify_cases, _bound_cases, _integrate_cases,
                                _coeffs_cases, _mean_kind_cases, _prop_cases,
                                _help_and_pretty_cases)
         for argv in gen()]


def run_case(argv):
    # argparse wraps --help to the terminal width, which it reads from COLUMNS
    out = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_case_list_matches_data(golden):
    assert [entry["argv"] for entry in golden] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{i:02d} {' '.join(argv[:3])}"
                              for i, argv in enumerate(CASES)])
def test_golden_output(index, golden):
    assert run_case(CASES[index]) == golden[index]


if __name__ == "__main__":
    DATA.write_text(json.dumps([run_case(argv) for argv in CASES], indent=1)
                    + "\n")
    print(f"wrote {len(CASES)} cases to {DATA}", file=sys.stderr)
