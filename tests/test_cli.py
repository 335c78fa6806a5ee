import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from certquad.cli import CSV_HEADER, main, parse_number, render
from certquad.errors import DomainError
from certquad.params import POWER_BITS

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
    with pytest.raises(DomainError, match="zero denominator in '1/0'"):
        parse_number("1/0")


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


def test_bound_best_skips_q_past_the_power_budget(capsys):
    # at alpha = 1 the exact eps of t23 and t24 at q = 1 + 1e-8 exceed the
    # power budget; those candidates drop out and t22 at that q wins
    code, out, err = run_cli(
        "bound", "--f", "exp", "--a", "0", "--b", "1", "--alpha", "1",
        "--lambda", "1/3", "--q", "2,100000001/100000000", "--theorem", "best",
        capsys=capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["theorem"], doc["q"], doc["bound"]) == (
        "T22", "100000001/100000000", "0.78638030571265882")


_HUGE_Q = ("bound", "--f", "pow:4", "--a", "0.5", "--b", "0.6", "--rule", "midpoint")


def test_bound_refuses_a_power_that_underflows(capsys):
    # |f'| = 4x^3 < 1 on [0.5, 0.6], so |f'|**1e15 is 0.0 and the bound
    # would read 0 instead of max |f'|; the true error is about 1.5e-3
    assert run_cli(*_HUGE_Q, "--q", "1e15", "--theorem", "t22", capsys=capsys) == (
        1, "", "certquad: error: t22 |f'|**1000000000000000.0 underflows at "
               "x=0.6 of pow:4\n")


def test_bound_best_skips_a_power_that_underflows(capsys):
    code, out, err = run_cli(*_HUGE_Q, "--q", "1e15,2", "--theorem", "best",
                             capsys=capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["theorem"], doc["q"], doc["bound"], doc["advisory"]) == (
        "T22", "2", "0.017585295891165521", False)


# q = 1074 loses a q-mean that is not 0: with float ends each |f'|**1074
# (|f'| = 2x, about 1/2) is the subnormal 5e-324, and a weighted mean of
# them rounds to 0 (the true error is about 8.3e-16); with exact ends the
# powers stay exact, and the float 1/q-th power of their mean is 0
_LOST_MEANS = {  # ends -> (the piece as the refusal names it, arguments)
    "float": ("[0.25, 0.2500001] of pow:2",
              ("--f", "pow:2", "--a", "0.25", "--b", "0.2500001", "--rule", "midpoint")),
    "exact": ("[7/4, 27/8] of pow:-2",
              ("--f", "pow:-2", "--a", "7/4", "--b", "27/8", "--alpha", "1/6",
               "--lambda", "1/2")),
}


@pytest.mark.parametrize("ends, theorem", [
    ("float", "t22"), ("float", "t24"), ("exact", "t22"), ("exact", "t23"), ("exact", "t24")])
def test_bound_refuses_a_q_mean_that_underflows(ends, theorem, capsys):
    where, args = _LOST_MEANS[ends]
    assert run_cli("bound", *args, "--q", "1074", "--theorem", theorem, capsys=capsys) == (
        1, "", f"certquad: error: {theorem} q-mean of |f'|**1074 underflows on {where}\n")


@pytest.mark.parametrize("ends, bound", [
    ("float", "1.250000250035967e-08"), ("exact", "0.1241782776781864")])
def test_bound_best_skips_a_q_mean_that_underflows(ends, bound, capsys):
    code, out, err = run_cli("bound", *_LOST_MEANS[ends][1], "--q", "1074,2",
                             "--theorem", "best", capsys=capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["theorem"], doc["q"], doc["bound"], doc["advisory"]) == ("T22", "2", bound, False)


def test_bound_certifies_a_lost_q_mean_of_weight_0(capsys):
    # at alpha = 5e-324 the t24 blend xb*alpha*(2-alpha) rounds to 0, so the
    # second q-mean is lost; but eps3 reads alpha as 0, so that mean's weight
    # is 0 and its term is 0 whatever the mean
    code, out, err = run_cli(
        "bound", "--f", "pow:-2", "--a", "1.83", "--b", "3.24", "--alpha", "5e-324",
        "--lambda", "0", "--q", "2", "--theorem", "t24", capsys=capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["theorem"], doc["bound"], doc["advisory"]) == (
        "T24", "0.19087902778859409", False)


@pytest.mark.parametrize("f, a, b, message", [
    ("ln(x)", "-2", "-1", "ln of non-positive value Fraction(-2, 1)"),
    ("x^0.5", "-2", "-1", "negative base -2.0 with non-integer exponent"),
    ("reciprocal", "-1", "1", "[-1, 1] is not inside the domain of reciprocal"),
])
def test_bound_best_stops_on_a_domain_error(f, a, b, message, capsys):
    # an input outside the domain of f is not a candidate's arithmetic failure
    assert run_cli("bound", "--f", f, "--a", a, "--b", b, "--rule", "simpson",
                   "--q", "1,2", "--theorem", "best", capsys=capsys) == (
        1, "", f"certquad: error: {message}\n")


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


_ABS_T23 = ("bound", "--f", "abs(x)", "--a", "-1", "--b", "1", "--rule", "midpoint")


@pytest.mark.parametrize("argv, message", [
    # the t23 node sits on the kink; f' there reads sign(0) = 0, and the
    # bound 0.408 was below the true error 1/2
    ((*_ABS_T23, "--q", "2", "--theorem", "t23"),
     "t23 reads |f'|**2 at the kink x=0 of abs(x)"),
    ((*_ABS_T23, "--q", "2", "--theorem", "t23", "--assume-convex"),
     "t23 reads |f'|**2 at the kink x=0 of abs(x)"),
    # the left end sits on the kink; the bound was 0 with approx 3/8, mean 1/3
    (("bound", "--f", "abs(x) - x^2/2", "--assume-convex", "--a", "0", "--b", "1",
      "--rule", "midpoint", "--q", "1"),
     "t22 reads |f'|**1 at the kink x=0 of abs(x) - x^2/2"),
], ids=["t23-probed", "t23-asserted", "t22-left-end"])
def test_kink_refuses(argv, message, capsys):
    assert run_cli(*argv, capsys=capsys) == (2, "", f"certquad: refused: {message}\n")


def test_best_skips_kink_candidate(capsys):
    code, out, _ = run_cli(*_ABS_T23, "--q", "1,2", "--theorem", "best",
                           capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert (doc["theorem"], doc["bound"]) == ("T22q1", "1/2")  # the true error


@pytest.mark.parametrize("assume", [(), ("--assume-convex",)], ids=["probed", "asserted"])
def test_kink_off_the_read_points_keeps_bound(assume, capsys):
    code, out, _ = run_cli("bound", "--f", "abs(x-0.3)", "--a", "0", "--b", "1",
                           "--rule", "midpoint", "--q", "2", "--theorem", "t23",
                           *assume, capsys=capsys)
    assert code == 0
    assert json.loads(out)["bound"] == "0.28867513459481292"


def test_probe_reads_a_kink_from_both_sides(capsys):
    # the probe reads |f'(0-)| = |f'(0+)| = 1 at its sample on the kink, so a
    # continuous |f'| passes; the true error is 1/2
    code, out, _ = run_cli("integrate", "--f", "abs(x)", "--a", "-1", "--b", "2",
                           "--rule", "trapezoid", "--q", "1", "--panels", "2",
                           capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert (doc["total_bound"], doc["advisory"]) == ("9/8", True)


@pytest.mark.parametrize("f", ["x*2^1e9", "x^(2^1e9)"])
def test_huge_exact_power_exits_1_fast(f):
    proc = subprocess.run(
        [sys.executable, "-m", "certquad", "bound", "--f", f, "--a", "0", "--b", "1",
         "--rule", "midpoint", "--q", "1"],
        capture_output=True, text=True, env=child_env(), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (1, "", 1)
    assert "exact power with exponent 1000000000 exceeds" in proc.stderr


@pytest.mark.parametrize("q, message", [
    # |f'(5/3)|**10000 is exact, and so is its q-mean, whose root needs a float
    ("10000", "t22 q-mean of |f'|**10000 overflows on [1/3, 5/3] of x^3"),
    # the power budget refuses |f'|**1000000 before computing it
    ("1000000", "t22 |f'|**1000000 overflows at x=5/3 of x^3"),
])
def test_huge_exact_q_names_its_overflow_fast(q, message):
    argv = [sys.executable, "-m", "certquad", "bound", "--f", "x^3", "--assume-convex",
            "--a", "1/3", "--b", "5/3", "--rule", "midpoint", "--q"]
    proc = subprocess.run(argv + [q], capture_output=True, text=True, env=child_env(),
                          timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"certquad: error: {message}\n")
    proc = subprocess.run(argv + [f"{q},2", "--theorem", "best"], capture_output=True,
                          text=True, env=child_env(), timeout=10)
    assert (proc.returncode, json.loads(proc.stdout)["q"]) == (0, "2")


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


@pytest.mark.parametrize("prop, q, message", [
    ("1", "1/2", "t22 needs q >= 1, got 1/2"),
    ("2", "1", "t23 needs q > 1, got 1"),
])
def test_means_q_refusal_names_engine(prop, q, message, capsys):
    # the engine checks q, so means refuses as bound does
    assert run_cli("means", "--prop", prop, "--a", "1", "--b", "2", "--alpha",
                   "1/3", "--lambda", "1/4", "--q", q, "--n", "2",
                   capsys=capsys) == (2, "", f"certquad: refused: {message}\n")


_CERT = ("--f", "pow:2", "--a", "0", "--b", "1", "--rule", "midpoint")


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
    # an explicit id keeps this case's name; the 400-term sum listed before
    # it now certifies (test_long_sum_certifies)
    pytest.param(("bound", "--f", "(" * 3000 + "x" + ")" * 3000, "--a", "0",
                  "--b", "1", "--rule", "midpoint", "--q", "1"), id="argv10"),
])
def test_overflow_and_bad_exponent_exit_1(argv, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("certquad: error: ") and err.count("\n") == 1


_MIDPOINT_Q_PAST_FLOAT = ("--a", "1", "--b", "2", "--rule", "midpoint", "--q", "1000000.0")


@pytest.mark.parametrize("argv, message", [pytest.param(argv, message, id=f"{argv[2]}-{message}") for argv, message in (
    (("bound", "--f", "pow:3", *_MIDPOINT_Q_PAST_FLOAT),  # the step's power
     "t22 |f'|**1000000.0 overflows at x=2 of pow:3"),
    (("bound", "--f", "x^3", *_MIDPOINT_Q_PAST_FLOAT),  # the probe's power
     "probe |f'|**1000000.0 overflows at x=1.0 of x^3"),
    (("bound", "--f", "x^3", "--a", "1e200", "--b", "2e200", "--rule", "midpoint",
      "--q", "1"), "probe |f'|**1 overflows at x=1e+200 of x^3"),  # the probe's f'
    (("bound", "--f", "x^2", "--a", "-1e308", "--b", "1e308", "--rule", "midpoint",
      "--q", "1"), "probe |f'|**1 of x^2: the width of [-1e+308, 1e+308] overflows"),
    (("integrate", "--f", "exp", "--a", "700", "--b", "800", "--rule", "midpoint",
      "--q", "1", "--panels", "2"), "t22 |f'|**1 overflows at x=750 of exp"),  # the step's f'
    (("bound", "--f", "pow:2", "--a", "1e300", "--b", "1.0000001e300", "--rule", "midpoint",
      "--q", "1"), "t22 f overflows at x=1e+300 of pow:2"),  # the step's f
)])
def test_overflowing_power_names_engine_q_and_x(argv, message, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out, err) == (1, "", f"certquad: error: {message}\n")


def test_long_sum_certifies(capsys):
    # a tree 400 levels deep is walked once, without recursion, when the
    # model is built; f = 400x has f' = 400, so the midpoint rule is exact
    code, out, err = run_cli("bound", "--f", "+".join(["x"] * 400), "--a", "0",
                             "--b", "1", "--rule", "midpoint", "--q", "1",
                             capsys=capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["bound"], doc["approx"]) == ("100", "200")
    assert F(doc["approx"]) - 400 * F(1, 2) == 0  # the true error


@pytest.mark.parametrize("argv", [
    ("bound", *_CERT, "--q", "nan"),
    ("bound", *_CERT, "--q", "inf"),
    ("bound", *_CERT, "--q", "nan", "--theorem", "t23"),
    ("bound", *_CERT, "--q", "2,nan", "--theorem", "best"),
    ("bound", *_CERT, "--q", "2,inf", "--theorem", "best"),
    ("integrate", *_CERT, "--q", "nan", "--panels", "2"),
    ("means", "--prop", "2", "--a", "1", "--b", "2", "--alpha", "1/3",
     "--lambda", "1/4", "--q", "nan", "--n", "2"),
])
def test_non_finite_q_is_an_input_error(argv, capsys):
    # finiteness is tested before the engine's range, for every command
    value = "inf" if "inf" in argv[argv.index("--q") + 1] else "nan"
    assert run_cli(*argv, capsys=capsys) == (
        1, "", f"certquad: error: q must be finite, got {value}\n")


def test_q_below_range_stays_a_refusal(capsys):
    assert run_cli("bound", *_CERT, "--q", "1/2", capsys=capsys) == (
        2, "", "certquad: refused: t22 needs q >= 1, got 1/2\n")


_BOUND = ("bound", "--f", "pow:2", "--a", "0", "--b", "1")


@pytest.mark.parametrize("argv, code, message", [
    ((*_BOUND, "--rule", "midpoint", "--alpha", "1/2", "--q", "1"), 1,
     "error: --rule conflicts with --alpha/--lambda"),
    ((*_BOUND, "--q", "1"), 1, "error: need --rule or both --alpha and --lambda"),
    ((*_BOUND, "--rule", "midpoint", "--q", "1,2"), 1,
     "error: one --q value expected unless --theorem best"),
    (("means", "--kind", "A", "--prop", "1", "--a", "1", "--b", "2"), 1,
     "error: exactly one of --kind or --prop is required"),
    (("means", "--a", "1", "--b", "2"), 1,
     "error: exactly one of --kind or --prop is required"),
    (("means", "--prop", "1", "--a", "1", "--b", "2", "--alpha", "1/3",
      "--lambda", "1/4"), 1, "error: --prop requires --alpha, --lambda and --q"),
    (("verify", "--rows", "0"), 1, "error: --rows must be positive, got 0"),
    (("coeffs", "--alpha", "0.5", "--lambda", "1/3", "--exact"), 2,
     "refused: exact mode: result not exactly representable (inexact fields: "
     "gamma1, gamma2, upsilon1, upsilon2, mu1, mu2, mu3, mu4, "
     "eta1, eta2, eta3, eta4)"),
    (("means", "--kind", "G", "--a", "1", "--b", "2", "--exact"), 2,
     "refused: exact mode: result not exactly representable (inexact fields: value)"),
    (("coeffs", "--alpha", "1/3", "--lambda", "1/2", "--p", "3/2", "--exact"), 2,
     "refused: exact mode: result not exactly representable (inexact fields: "
     "eps1, eps3, eps4)"),  # eps2 is regime-inactive
    (("means", "--prop", "1", "--a", "1", "--b", "2", "--alpha", "1/3",
      "--lambda", "1/4", "--q", "1", "--n", "2", "--exact"), 2,
     "refused: exact mode: result not exactly representable (inexact fields: lhs, rhs)"),
])
def test_usage_errors(argv, code, message, capsys):
    assert run_cli(*argv, capsys=capsys) == (code, "", f"certquad: {message}\n")


@pytest.mark.parametrize("max_panels", ["4", "13"])
def test_adaptive_ties_below_float_resolution(max_panels, capsys):
    # the panels' left ends are closer than a float ulp and |f'| is constant,
    # so equal-width panels tie on their scaled bound and on float(a)
    b = F(10 ** 20 + 1, 10 ** 20)
    code, out, err = run_cli(
        "integrate", "--f", "3*x+1", "--assume-convex", "--a", "1", "--b", str(b),
        "--rule", "midpoint", "--q", "1", "--target", f"1/{10 ** 44}",
        "--max-panels", max_panels, capsys=capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["panels"] == int(max_panels)
    ends = [(F(p["a"]), F(p["b"])) for p in doc["panel_table"]]
    assert ends[0][0] == 1 and ends[-1][1] == b
    assert all(left[1] == right[0] for left, right in zip(ends, ends[1:]))


@pytest.mark.parametrize("a, b", [
    ("1", "1.0000000000000002"),  # (a + b) / 2 rounds to a
    ("1/3", "0.33333333333333337"),  # to b
    (f"{2 ** 60 + 1}/{2 ** 60}", "1.0000000000000002"),  # to 1.0, below the Fraction a
])
def test_adaptive_stops_at_a_panel_with_no_midpoint_inside(a, b, capsys):
    # the budget's outcome, not an error that names a panel the user never gave
    code, out, err = run_cli(
        "integrate", "--f", "pow:2", "--a", a, "--b", b, "--rule", "midpoint",
        "--q", "1", "--target", "1e-300", capsys=capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["target_met"], doc["panels"]) == (False, 1)
    assert (doc["panel_table"][0]["a"], doc["panel_table"][0]["b"]) == (a, b)


@pytest.mark.parametrize("b, n", [("1.0000000000000002", "2"), ("1.0000000000000004", "3")])
def test_uniform_cuts_that_round_onto_each_other_name_the_input(b, n, capsys):
    code, out, err = run_cli(
        "integrate", "--f", "pow:2", "--a", "1", "--b", b, "--rule", "midpoint",
        "--q", "1", "--panels", n, capsys=capsys)
    assert (code, out) == (1, "")
    assert err == (f"certquad: error: {n} uniform panels of [1, {b}] have cuts "
                   "that round onto each other\n")


def test_adaptive_reads_f_at_the_nodes_of_returned_panels_only(capsys):
    # [0, 4] bisects at 2 and then at 1, where f' divides by zero; the node
    # 1 of [0, 2], where ln reads 0, is never read, since [0, 2] is bisected
    code, out, err = run_cli(
        "integrate", "--f", "1/(x-3) + ln(x^2 - 2*x + 1)", "--assume-convex",
        "--a", "0", "--b", "4", "--alpha", "1/2", "--lambda", "1/12", "--q", "3/2",
        "--theorem", "t24", "--target", "0.01", capsys=capsys)
    assert (code, out, err) == (1, "", "certquad: error: division by zero\n")


def test_adaptive_midpoint_past_the_float_range_is_an_error(capsys):
    code, out, err = run_cli(
        "integrate", "--f", "x", "--assume-convex", "--a", "1e308", "--b", "1.7e308",
        "--rule", "midpoint", "--q", "1", "--target", "1e-300", capsys=capsys)
    assert (code, out, err) == (1, "", "certquad: error: interval endpoint b must be finite\n")


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


@pytest.mark.parametrize("f, a, extra, field, echoed", [
    # argparse alone takes -2 and -0.5 as values, but not these three
    ("pow:2", "-1/2", (), "a", "-1/2"),
    ("pow:2", "-1e-3", (), "a", "-0.001"),
    ("-x^2", "0", ("--assume-convex",), "approx", "-1/4"),  # -f(1/2)
])
def test_option_values_may_start_with_a_dash(f, a, extra, field, echoed, capsys):
    code, out, err = run_cli("bound", "--f", f, "--a", a, "--b", "1", "--rule", "midpoint",
                             "--q", "1", *extra, capsys=capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)[field] == echoed


def test_dash_options_stay_options(capsys):
    code, out, _ = run_cli("bound", "-h", capsys=capsys)
    assert code == 0 and out.startswith("usage: certquad bound")
    code, out, err = run_cli("bound", "-x", "--f", "pow:2", "--a", "0", "--b", "1",
                             "--rule", "midpoint", "--q", "1", capsys=capsys)
    assert (code, out) == (1, "")
    assert err.endswith("error: unrecognized arguments: -x\n")


def test_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "certquad", "coeffs", "--alpha", "1/2",
         "--lambda", "1/3"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert '"gamma2": "5/72"' in proc.stdout


def test_coeffs_huge_exact_p_refuses_fast():
    # exact eps at p = 10**6 have denominators of over 10**6 digits, and an
    # L_n power at n = 10**8 as many bits: the one power budget refuses them
    # before they are computed
    for argv in (("coeffs", "--alpha", "1/3", "--lambda", "1/4", "--p", "1000000"),
                 ("coeffs", "--alpha", "1", "--lambda", "1/3", "--p", "100000001"),
                 ("means", "--kind", "L_n", "--a", "1/3", "--b", "2/3",
                  "--n", "100000000")):
        proc = subprocess.run(
            [sys.executable, "-m", "certquad", *argv],
            capture_output=True, text=True, env=child_env(), timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (1, "", 1)
        assert f"exceeds {POWER_BITS} bits" in proc.stderr, argv


def test_coeffs_refuses_unprintable_eps_before_any_power(monkeypatch, capsys):
    # the exact eps at p = 209713 have denominators of about 226,000 digits,
    # below the power budget; the digit limit refuses them uncomputed
    import certquad.cli

    def never(*args):
        raise AssertionError("holder_coeffs called")

    monkeypatch.setattr(certquad.cli, "holder_coeffs", never)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli("coeffs", "--alpha", "1/3", "--lambda", "1/4",
                                 "--p", "209713", capsys=capsys)
        with pytest.raises(ValueError) as python_says:
            str(10 ** 4300)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (1, "", f"certquad: error: {python_says.value}\n")


def test_closed_stdout_exits_1_without_traceback():
    # the read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "certquad", "coeffs", "--alpha", "1/2", "--lambda", "0"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=child_env(), timeout=10)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


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
def test_pretty_matches_golden_json(argv, golden, capsys):
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == golden["code"]
    assert out == _reference_pretty(json.loads(golden["stdout"]))
