import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from certquad.cli import CSV_HEADER, main, parse_number, render

from conftest import child_env

GOLDEN = Path(__file__).with_name("golden_cli.json")


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_number():
    assert parse_number("1/3") == F(1, 3)
    assert parse_number("2") == F(2)
    assert parse_number("-7/2") == F(-7, 2)
    assert isinstance(parse_number("0.5"), float)
    with pytest.raises(Exception):
        parse_number("abc")


def test_render():
    assert render(F(5, 72)) == "5/72"
    assert render(F(2)) == "2"
    assert render(0.1) == "0.10000000000000001"
    assert render(float("inf")) == "inf"
    assert render(True) == "true"


def test_bound_midpoint_example(capsys):
    code, out, err = run_cli(
        "bound", "--f", "pow:2", "--a", "0", "--b", "1",
        "--alpha", "1/2", "--lambda", "0", "--q", "1", "--theorem", "t22",
        capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1"
    assert F(doc["bound"]) == F(1, 4)
    assert doc["theorem"] == "T22q1"
    assert doc["regime"] == "Case1"
    assert doc["advisory"] is False
    assert set(doc) == {"schema", "a", "b", "alpha", "lambda", "theorem",
                        "q", "p", "approx", "bound", "advisory", "regime"}


def test_bound_simpson_exp_q2(capsys):
    code, out, _ = run_cli(
        "bound", "--f", "exp", "--a", "0", "--b", "1", "--rule", "simpson",
        "--q", "2", "--theorem", "t22", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    import math
    e2 = math.e ** 2
    want = (5 / 72) ** 0.5 * (((29 * e2 + 61) / 1296) ** 0.5
                              + ((61 * e2 + 29) / 1296) ** 0.5)
    assert float(doc["bound"]) == pytest.approx(want, rel=1e-15)


def test_bound_best(capsys):
    code, out, _ = run_cli(
        "bound", "--f", "pow:2", "--a", "0", "--b", "1", "--rule",
        "midpoint", "--q", "1,2", "--theorem", "best", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert F(doc["bound"]) <= F(1, 4)


def test_bound_best_skips_overflowing_q(capsys):
    # every candidate at q = 1e17 overflows; the q = 2 candidates still compete
    code, out, _ = run_cli(
        "bound", "--f", "exp", "--a", "0", "--b", "1", "--rule", "simpson",
        "--q", "2,1e17", "--theorem", "best", capsys=capsys)
    assert code == 0
    assert json.loads(out)["q"] == "2"


def test_bound_refusal_exit_2(capsys):
    code, out, err = run_cli(
        "bound", "--f", "pow:2", "--a", "0", "--b", "1", "--rule", "simpson",
        "--q", "1", "--theorem", "t23", capsys=capsys)
    assert code == 2
    assert out == ""  # no partial JSON
    assert err == "certquad: refused: t23 needs q > 1, got 1\n"


@pytest.mark.parametrize("argv, code, message", [
    (("--q", "1/2"), 2, "refused: t22 needs q >= 1, got 1/2"),
    (("--q", "1", "--theorem", "t24"), 2, "refused: t24 needs q > 1, got 1"),
    (("--q", "1e17", "--theorem", "t24"), 1,
     "error: t24 conjugate exponent of q=1e+17 rounds to 1"),
])
def test_prologue_messages_name_engine_and_q(argv, code, message, capsys):
    # q prints as the user wrote it, not as Fraction(1, 2)
    assert run_cli("bound", "--f", "exp", "--a", "0", "--b", "1", "--rule",
                   "midpoint", *argv, capsys=capsys) == (code, "", f"certquad: {message}\n")


def test_bound_probe_refusal(capsys):
    code, out, err = run_cli(
        "bound", "--f", "x^1.5", "--a", "0.5", "--b", "2.5",
        "--rule", "midpoint", "--q", "1", capsys=capsys)
    assert code == 2
    assert ("t22 needs convexity of |f'|**1, not established for x^1.5 on "
            "[0.5, 2.5]") in err


def test_sign_in_f_refuses(capsys):
    # sign' is 0 almost everywhere, but f jumps at 0: a bound of 0 would be false
    for argv in (("bound", "--q", "1"), ("integrate", "--q", "1", "--panels", "3"),
                 ("bound", "--q", "1", "--assume-convex")):
        code, out, err = run_cli(
            argv[0], "--f", "sign(x)", "--a", "-1", "--b", "2",
            "--rule", "midpoint", *argv[1:], capsys=capsys)
        assert (code, out) == (2, "")
        assert "t22 needs f absolutely continuous on [-1, 2]; sign may jump" in err
    code, out, err = run_cli(
        "bound", "--f", "x*sign(x)", "--a", "1", "--b", "2", "--rule", "midpoint",
        "--q", "1", capsys=capsys)
    assert code == 2  # refused although the jump cancels


def test_bound_exact_mode(capsys):
    code, out, _ = run_cli(
        "bound", "--f", "pow:2", "--a", "0", "--b", "1", "--rule", "simpson",
        "--q", "1", "--exact", capsys=capsys)
    assert code == 0
    assert F(json.loads(out)["bound"]) == F(5, 36)
    code, out, err = run_cli(
        "bound", "--f", "exp", "--a", "0", "--b", "1", "--rule", "simpson",
        "--q", "1", "--exact", capsys=capsys)
    assert code == 2
    assert "exact mode" in err


def test_integrate_two_panels(capsys):
    code, out, _ = run_cli(
        "integrate", "--f", "pow:2", "--a", "0", "--b", "1", "--rule",
        "midpoint", "--q", "1", "--panels", "2", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert F(doc["value"]) == F(5, 16)
    assert F(doc["total_bound"]) == F(1, 8)
    assert abs(F(doc["value"]) - F(1, 3)) <= F(doc["total_bound"])
    assert len(doc["panel_table"]) == 2


def test_integrate_adaptive_target(capsys):
    code, out, _ = run_cli(
        "integrate", "--f", "exp", "--a", "0", "--b", "1", "--rule",
        "midpoint", "--q", "1", "--target", "1e-4",
        "--max-panels", "8192", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["target_met"] is True
    assert float(doc["total_bound"]) <= 1e-4
    assert doc["panels"] > 1000


def test_integrate_adaptive_capped_is_flagged(capsys):
    code, out, _ = run_cli(
        "integrate", "--f", "exp", "--a", "0", "--b", "1", "--rule",
        "midpoint", "--q", "1", "--target", "1e-9", "--max-panels", "8",
        capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["target_met"] is False
    assert doc["panels"] == 8


def test_integrate_rejects_zero_panels(capsys):
    code, out, err = run_cli(
        "integrate", "--f", "pow:2", "--a", "0", "--b", "1", "--rule",
        "midpoint", "--q", "1", "--panels", "0", capsys=capsys)
    assert code == 1
    assert out == ""


def test_coeffs_simpson(capsys):
    code, out, _ = run_cli("coeffs", "--alpha", "1/2", "--lambda", "1/3",
                           capsys=capsys)
    assert code == 0
    assert '"gamma2": "5/72"' in out
    assert '"mu1": "29/1296"' in out
    doc = json.loads(out)
    assert doc["regime"] == "Case1"
    assert doc["power_mean_decimal"]["gamma2"].startswith("0.069444")


def test_coeffs_with_holder(capsys):
    code, out, _ = run_cli("coeffs", "--alpha", "1/2", "--lambda", "1/3",
                           "--p", "2", capsys=capsys)
    doc = json.loads(out)
    assert doc["holder"]["eps1"] == "1/24"
    assert doc["holder"]["eps2"] is None  # regime-inactive


def test_means_ln(capsys):
    code, out, _ = run_cli("means", "--kind", "L_n", "--n", "2", "--a", "1",
                           "--b", "2", capsys=capsys)
    assert code == 0
    assert float(json.loads(out)["value"]) == pytest.approx((7 / 3) ** 0.5)


def test_means_prop(capsys):
    code, out, _ = run_cli(
        "means", "--prop", "1", "--n", "2", "--a", "1", "--b", "2",
        "--alpha", "1/2", "--lambda", "1/3", "--q", "1", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert float(doc["lhs"]) == 0.0
    assert float(doc["rhs"]) == pytest.approx(5 / 12)
    assert doc["holds"] is True


def test_means_domain_error_exit_1(capsys):
    code, out, err = run_cli("means", "--kind", "L", "--a", "-2", "--b", "2",
                             capsys=capsys)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("bound", "--f", "exp(1000*x)", "--a", "1", "--b", "2",
     "--rule", "midpoint", "--q", "1"),
    ("bound", "--f", "pow:2", "--a", "1e200", "--b", "2e200",
     "--rule", "midpoint", "--q", "2"),
    ("means", "--prop", "1", "--a", "1", "--b", "2", "--alpha", "1/2",
     "--lambda", "0", "--q", "1", "--n", "2000"),
    ("bound", "--f", "x^((-8)^0.5)", "--a", "1", "--b", "2",
     "--rule", "midpoint", "--q", "1"),
    ("bound", "--f", "x^(1/0)", "--a", "1", "--b", "2",
     "--rule", "midpoint", "--q", "1"),
    ("bound", "--f", "x^(0^-1)", "--a", "1", "--b", "2",
     "--rule", "midpoint", "--q", "1"),
    ("bound", "--f", "x^(1e308*10)", "--a", "1", "--b", "2",
     "--rule", "midpoint", "--q", "1"),
    ("bound", "--f", "1e300*x^2", "--a", "1", "--b", "1e10",
     "--rule", "midpoint", "--q", "1"),
    ("integrate", "--f", "1e300*x^2", "--a", "1", "--b", "1e10",
     "--rule", "midpoint", "--q", "1", "--target", "1"),
])
def test_overflow_and_bad_exponent_exit_1(argv, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("certquad: error: ") and err.count("\n") == 1


def test_verify_soundness_in_process(capsys):
    code, out, _ = run_cli("verify", "--seed", "3", "--rows", "40",
                           capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["violations"] == "0"
    assert 0 < float(doc["summary"]["max_tightness"]) <= 1 + 1e-10
    assert len(doc["rows"]) == 40
    assert list(doc["rows"][0]) == CSV_HEADER.split(",")


def test_verify_identity_and_hh(capsys):
    code, out, _ = run_cli("verify", "--check", "identity", "--seed", "5",
                           "--rows", "20", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert float(doc["summary"]["max_lhs"]) < 1e-8
    code, out, _ = run_cli("verify", "--check", "hh", capsys=capsys)
    assert code == 0


def test_verify_repeat_runs_identical(capsys):
    args = ("verify", "--seed", "11", "--rows", "30", "--format", "csv")
    code1, out1, _ = run_cli(*args, capsys=capsys)
    code2, out2, _ = run_cli(*args, capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == CSV_HEADER


def test_pretty_and_csv_formats(capsys):
    code, out, _ = run_cli("bound", "--f", "pow:2", "--a", "0", "--b", "1",
                           "--rule", "simpson", "--q", "1",
                           "--format", "pretty", capsys=capsys)
    assert code == 0
    assert "bound: 5/36" in out
    code, out, _ = run_cli("integrate", "--f", "pow:2", "--a", "0", "--b",
                           "1", "--rule", "midpoint", "--q", "1",
                           "--panels", "2", "--format", "csv", capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "a,b,approx,bound,regime"
    assert len(out.splitlines()) == 3


def test_usage_error_exit_1():
    # bad flag and missing required flags are parse errors, not refusals
    assert main(["bound", "--nope"]) == 1
    assert main(["integrate", "--f", "exp", "--a", "0", "--b", "1",
                 "--rule", "midpoint", "--q", "1"]) == 1  # panels/target


def test_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "certquad", "coeffs", "--alpha", "1/2",
         "--lambda", "1/3"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert '"gamma2": "5/72"' in proc.stdout


def test_coeffs_huge_exact_p_refuses_fast():
    # exact eps at p = 10**6 have denominators of over 10**6 digits: refuse
    # before computing them, and point to a decimal p
    env = dict(child_env(), PYTHONINTMAXSTRDIGITS="4300")
    proc = subprocess.run(
        [sys.executable, "-m", "certquad", "coeffs", "--alpha", "1/3",
         "--lambda", "1/4", "--p", "1000000"],
        capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (1, "", 1)
    assert "4300-digit limit" in proc.stderr and "1000000.0" in proc.stderr


@pytest.mark.parametrize("alpha, lam, p", [
    ("0", "1/3", "1000000"),         # bases 0 and 1: exact eps stay small
    ("1", "1/3", "1000000"),
    ("1/3", "0.25", "1000000"),      # a float lambda gives float eps
    ("1/3", "1/4", "1000000.0"),
    ("1/3", "1/4", "2000001/2"),     # a non-integral power is a float
])
def test_coeffs_huge_p_still_prints_where_it_can(alpha, lam, p, capsys):
    code, out, _ = run_cli("coeffs", "--alpha", alpha, "--lambda", lam, "--p", p,
                           capsys=capsys)
    assert code == 0 and json.loads(out)["holder"]


def test_cli_import_skips_dataclasses_and_inspect():
    # both are costly imports that every certquad process would pay; the
    # difference ignores whatever the interpreter's site set-up loaded
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); "
         "import certquad.cli; new = set(sys.modules) - before; "
         "print(sorted({'dataclasses', 'inspect'} & new))"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    # Python's 4,300-digit limit on int/str conversion raises a plain ValueError
    ("bound", "--f", "pow:2", "--a", "0", "--b", "1" + "0" * 5000,
     "--rule", "midpoint", "--q", "1"),
    ("coeffs", "--alpha", "1/3", "--lambda", "1/4", "--p", "20000"),
    # the real cause is the float overflow, not the repr of a huge Fraction
    ("means", "--kind", "L_n", "--a", "1", "--b", "2", "--n", "100000"),
])
def test_huge_numbers_exit_1_without_traceback(argv, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(*argv, capsys=capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err.startswith("certquad: error: ") and err.count("\n") == 1
    if argv[0] == "means":
        assert "too large for a float" in err


def _reference_pretty(doc: dict) -> str:
    """The pretty layout: one "key: value" line per scalar, and an indented
    line per item of a list ("k=v, ..." for a dict item) or entry of a map."""
    lines = []
    for key, value in doc.items():
        if isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                if isinstance(item, dict):
                    item = ", ".join(f"{k}={v}" for k, v in item.items())
                lines.append(f"  {item}")
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k} = {v}" for k, v in value.items())
        else:
            lines.append(f"{key}: {value}")
    return "".join(line + "\n" for line in lines)


def _pretty_cases():
    for i, entry in enumerate(json.loads(GOLDEN.read_text())):
        if not entry["stdout"].startswith("{"):
            continue  # csv
        argv = list(entry["argv"])
        if "--format" in argv:
            argv[argv.index("--format") + 1] = "pretty"
        else:
            argv += ["--format", "pretty"]
        yield pytest.param(argv, entry, id=f"{i:02d} {' '.join(argv[:3])}")


@pytest.mark.parametrize("argv, golden", _pretty_cases())
def test_pretty_matches_golden_json(argv, golden, capsys, monkeypatch):
    monkeypatch.delenv("CERTQUAD_TOL", raising=False)
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == golden["code"]
    assert out == _reference_pretty(json.loads(golden["stdout"]))
