"""The four benchmark workloads: seeded inputs, one timed call each, and
output checks that run outside the timed region.

A workload turns a seed into an endless stream of operations.  Where the
cost of an operation depends strongly on its inputs, the stream is built
from rounds: each round runs every combination of the discrete choices
once, in a seeded order, and draws each continuous input once from every
one of as many equal strata as the round has operations.  Any two seeds
then spend about the same share of their time on each combination, so
run-to-run spread reflects the program and not the draw.

Every operation is one closed-loop call by a single client.  ``run`` is the
timed part; ``check`` validates the result against ``exact`` and never
calls certquad.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

import exact

RULES = ("midpoint", "trapezoid", "simpson")
# (q, engine) pairs the adaptive workloads cycle through; t23/t24 need q > 1
Q_ENGINES = ((1, "t22"), (2, "t22"), (2, "t23"), (2, "t24"))
# first-order bounds shrink like 1/panels, so target = width * |f(b) - f(a)| / PANELS
# lands the adaptive solves at 15 to 70 panels, about 32 at the median
PANELS = 128
CERTS_PER_BLOCK = 100
RATIONALS_PER_BLOCK = 25
SWEEP_INTERVALS = ((0.5, 1.5), (1.0, 2.0), (0.25, 3.0))
SWEEP_Q = {"t22": (1.0, 1.5, 2.0, 3.0), "t23": (1.5, 2.0, 3.0), "t24": (1.5, 2.0, 3.0)}
EXACT_Q = {"t22": (1, Fraction(3, 2), 2, 3), "t23": (Fraction(3, 2), 2, 3),
           "t24": (Fraction(3, 2), 2, 3)}
# left ends 1/4 .. 2 crossed with widths 1/2 .. 2
RATIONAL_INTERVALS = [(Fraction(i, 4), Fraction(i, 4) + Fraction(j, 2))
                      for i in range(1, 9) for j in range(1, 5)]


class Solve(NamedTuple):
    """One adaptive_integrate call; ``rule`` or (alpha, lam) picks the rule."""

    function: str
    a: object
    b: object
    rule: str | None
    alpha: object
    lam: object
    q: object
    engine: str
    target: float


class Certificate(NamedTuple):
    function: str
    a: object
    b: object
    alpha: object
    lam: object
    q: object
    engine: str


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"certquad-bench:{name}:{seed}")


def _strata(rng, lo: float, hi: float, n: int) -> list:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    out = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(out)
    return out


def _small_rational(rng):
    r = rng.randint(1, 12)
    return Fraction(rng.randint(0, r), r)


def _target(function, a, b) -> float:
    rise = abs(exact.value(function, b) - exact.value(function, a))
    return float((b - a) * rise) / PANELS


def _purge_and_import():
    """Drop every certquad module and import the package afresh, so each
    set-up pays the import."""
    for name in [n for n in sys.modules if n == "certquad" or n.startswith("certquad.")]:
        del sys.modules[name]
    return importlib.import_module("certquad")


class _InProcess:
    in_process = True
    warmup = 4

    def load(self):
        self.cq = _purge_and_import()


class _Adaptive(_InProcess):
    def run(self, op: Solve):
        cq = self.cq
        if op.rule is not None:
            f = cq.resolve_function(op.function)
            params = cq.named_rule(op.rule)
        else:
            f = cq.from_expression(op.function)
            params = cq.RuleParams(op.alpha, op.lam)
        return cq.adaptive_integrate(f, cq.Interval(op.a, op.b), params, op.q,
                                     theorem=op.engine, target=op.target)

    def check(self, op: Solve, result) -> str | None:
        integral = exact.integral(op.function, op.a, op.b)
        slack = exact.CERT_SLACK * max(1.0, abs(float(integral)))
        if not exact.within(result.value, integral, result.total_bound, slack):
            return (f"|value - integral| > total_bound for {op}: "
                    f"{result.value!r} vs {integral!r}, bound {result.total_bound!r}")
        if result.target_met != (result.total_bound <= op.target):
            return f"target_met={result.target_met} disagrees with total_bound for {op}"
        return None

    @staticmethod
    def fingerprint(result) -> bytes:
        return repr((result.value, result.total_bound, len(result.panels),
                     result.target_met)).encode()

    def params(self) -> dict:
        return {"panels_factor": PANELS, "q_engines": [list(p) for p in Q_ENGINES]}


class AdaptiveExact(_Adaptive):
    """adaptive_integrate on the builtin corpus with the named (Fraction)
    rules and rational endpoints."""

    name = "adaptive_exact"

    def operations(self, seed: int):
        rng = _rng(self.name, seed)
        combos = [(f, rule, q, engine) for f in exact.BUILTINS for rule in RULES
                  for q, engine in Q_ENGINES]
        while True:
            rng.shuffle(combos)
            intervals = RATIONAL_INTERVALS * (len(combos) // len(RATIONAL_INTERVALS))
            rng.shuffle(intervals)
            for (function, rule, q, engine), (a, b) in zip(combos, intervals):
                yield Solve(function, a, b, rule, None, None, q, engine,
                            _target(function, a, b))

    def params(self) -> dict:
        return {**super().params(), "functions": list(exact.BUILTINS),
                "rules": list(RULES), "round": len(exact.BUILTINS) * len(RULES) * len(Q_ENGINES)}


class AdaptiveProbed(_Adaptive):
    """from_expression followed by adaptive_integrate with float (alpha,
    lambda): every panel's certificate probes convexity."""

    name = "adaptive_probed"
    warmup = 2

    def operations(self, seed: int):
        rng = _rng(self.name, seed)
        combos = [(text, q, engine) for text in exact.EXPRESSIONS
                  for q, engine in Q_ENGINES]
        n = len(combos)
        while True:
            rng.shuffle(combos)
            draws = zip(combos, _strata(rng, 0.25, 1.5, n), _strata(rng, 0.5, 1.5, n),
                        _strata(rng, 0.05, 0.95, n), _strata(rng, 0.05, 0.95, n))
            for (text, q, engine), a, width, alpha, lam in draws:
                yield Solve(text, a, a + width, None, alpha, lam, float(q), engine,
                            _target(text, a, a + width))

    def params(self) -> dict:
        return {**super().params(), "expressions": list(exact.EXPRESSIONS),
                "round": len(exact.EXPRESSIONS) * len(Q_ENGINES)}


class CertifySweep(_InProcess):
    """Blocks of single certificates, each with fresh (alpha, lambda)."""

    name = "certify_sweep"

    def operations(self, seed: int):
        rng = _rng(self.name, seed)
        functions = list(exact.BUILTINS)
        while True:
            block = []
            rational = set(rng.sample(range(CERTS_PER_BLOCK), RATIONALS_PER_BLOCK))
            for slot in range(CERTS_PER_BLOCK):
                function = rng.choice(functions)
                engine = rng.choice(("t22", "t23", "t24"))
                if slot in rational:
                    a, b = (Fraction(v) for v in rng.choice(SWEEP_INTERVALS))
                    alpha, lam = _small_rational(rng), _small_rational(rng)
                    q = rng.choice(EXACT_Q[engine])
                else:
                    a, b = rng.choice(SWEEP_INTERVALS)
                    alpha, lam = rng.random(), rng.random()
                    q = rng.choice(SWEEP_Q[engine])
                block.append(Certificate(function, a, b, alpha, lam, q, engine))
            yield tuple(block)

    def run(self, block):
        cq = self.cq
        engines = cq.bounds.ENGINES
        return [engines[c.engine](cq.resolve_function(c.function), cq.Interval(c.a, c.b),
                                  cq.RuleParams(c.alpha, c.lam), c.q)
                for c in block]

    def check(self, block, certs) -> str | None:
        for c, cert in zip(block, certs):
            if not exact.within(cert.approx, exact.mean(c.function, c.a, c.b),
                                cert.bound, exact.CERT_SLACK):
                return f"|approx - mean| > bound for {c}: {cert.approx!r}, bound {cert.bound!r}"
        return None

    @staticmethod
    def fingerprint(certs) -> bytes:
        return repr([(c.approx, c.bound) for c in certs]).encode()

    def params(self) -> dict:
        return {"certs_per_block": CERTS_PER_BLOCK, "rationals_per_block": RATIONALS_PER_BLOCK,
                "intervals": [list(iv) for iv in SWEEP_INTERVALS]}


# ---------------------------------------------------------------------------
# cli_mix

CERT_KEYS = {"schema", "a", "b", "alpha", "lambda", "theorem", "q", "p",
             "approx", "bound", "advisory", "regime"}
INTEGRATE_KEYS = {"schema", "a", "b", "alpha", "lambda", "q", "theorem", "value",
                  "total_bound", "panels", "target_met", "advisory", "panel_table"}
COEFFS_KEYS = {"schema", "alpha", "lambda", "regime", "breakpoints", "power_mean",
               "power_mean_decimal", "holder", "holder_decimal"}
PROP_KEYS = {"schema", "prop", "a", "b", "alpha", "lambda", "q", "lhs", "rhs",
             "holds", "margin"}
VERIFY_KEYS = {"schema", "check", "seed", "rows", "summary"}
CLI_KINDS = ("bound", "bound_best", "integrate_target", "integrate_panels",
             "coeffs", "means", "verify_soundness", "verify_identity")
SOUNDNESS_ROWS = 200
IDENTITY_ROWS = 20


def _cli_op(kind: str, rng) -> tuple:
    rule = rng.choice(RULES)
    builtin = rng.choice(list(exact.BUILTINS))
    a, b = rng.choice(RATIONAL_INTERVALS)
    span = ("--a", str(a), "--b", str(b), "--rule", rule)
    if kind == "bound":
        return ("bound", "--f", builtin, *span, "--q", rng.choice(("1", "3/2", "2")),
                "--theorem", "t22")
    if kind == "bound_best":
        return ("bound", "--f", rng.choice(list(exact.EXPRESSIONS)), *span,
                "--q", "1,2,3", "--theorem", "best")
    if kind == "integrate_target":
        return ("integrate", "--f", builtin, *span, "--q", "1",
                "--target", format(_target(builtin, a, b), ".3g"))
    if kind == "integrate_panels":
        q, engine = rng.choice(Q_ENGINES)
        return ("integrate", "--f", builtin, *span, "--q", str(q), "--theorem", engine,
                "--panels", str(rng.choice((4, 8, 16))))
    if kind == "coeffs":
        return ("coeffs", "--alpha", str(_small_rational(rng)),
                "--lambda", str(_small_rational(rng)), "--p", "2")
    if kind == "means":
        prop = rng.randint(1, 6)
        q = rng.choice(("1", "2") if prop % 2 else ("2", "3"))
        extra = ("--n", str(rng.choice((2, 3, -2)))) if prop <= 2 else ()
        return ("means", "--prop", str(prop), "--a", str(a), "--b", str(b),
                "--alpha", str(_small_rational(rng)), "--lambda", str(_small_rational(rng)),
                "--q", q, *extra)
    check = kind.split("_")[1]
    rows = SOUNDNESS_ROWS if check == "soundness" else IDENTITY_ROWS
    return ("verify", "--check", check, "--rows", str(rows),
            "--seed", str(rng.randint(0, 2 ** 31)))


def _number(text: str):
    """Parse a schema-v1 numeric leaf: rationals exactly, decimals as floats."""
    return Fraction(text) if re.fullmatch(r"-?\d+(/\d+)?", text) else float(text)


def _flags(argv) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--") and not argv[i + 1].startswith("--")}


def check_cli_output(argv, code: int, stdout: bytes) -> str | None:
    """Exit code, schema-v1 keys and the certified inequalities of one command."""
    if code != 0:
        return f"exit code {code} for {' '.join(argv)}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"stdout is not JSON for {' '.join(argv)}"
    flags = _flags(argv)
    command = argv[0]
    expected = {"bound": CERT_KEYS, "integrate": INTEGRATE_KEYS, "coeffs": COEFFS_KEYS,
                "means": PROP_KEYS | ({"n"} if "n" in flags else set()),
                "verify": VERIFY_KEYS}[command]
    if doc.get("schema") != "v1" or set(doc) != expected:
        return f"unexpected keys {sorted(doc)} for {' '.join(argv)}"
    problem = None
    if command in ("bound", "integrate"):
        name, a, b = flags["f"], _number(flags["a"]), _number(flags["b"])
    if command == "bound":
        if not exact.within(_number(doc["approx"]), exact.mean(name, a, b),
                            _number(doc["bound"]), exact.CERT_SLACK):
            problem = "|approx - mean| > bound"
    elif command == "integrate":
        integral = exact.integral(name, a, b)
        total = _number(doc["total_bound"])
        slack = exact.CERT_SLACK * max(1.0, abs(float(integral)))
        if not exact.within(_number(doc["value"]), integral, total, slack):
            problem = "|value - integral| > total_bound"
        elif "target" in flags and doc["target_met"] != (total <= _number(flags["target"])):
            problem = "target_met disagrees with total_bound"
        elif "panels" in flags and doc["panels"] != int(flags["panels"]):
            problem = "wrong panel count"
    elif command == "coeffs":
        if doc["regime"] not in ("Case1", "Case2", "Case3") or len(doc["power_mean"]) != 12:
            problem = "malformed coefficient dump"
    elif command == "means":
        if doc["holds"] is not True:
            problem = "inequality does not hold"
    elif doc["summary"]["violations"] != "0" or len(doc["rows"]) != int(flags["rows"]):
        problem = f"verify summary {doc['summary']}"
    return problem and f"{problem} for {' '.join(argv)}"


class CliMix:
    """Sequential ``python -m certquad`` processes over a seeded command mix.

    With a ``recorder`` set, each command runs through ``cli_launcher.py``
    instead, which traces the layers inside the child and hands back its
    span totals.
    """

    name = "cli_mix"
    in_process = False
    warmup = 1
    recorder = None

    def __init__(self, root: str):
        self.env = dict(os.environ)
        for name in ("CERTQUAD_TOL", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.launcher = os.path.join(root, "bench", "cli_launcher.py")

    def load(self):
        pass

    def operations(self, seed: int):
        rng = _rng(self.name, seed)
        kinds = list(CLI_KINDS)
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                yield _cli_op(kind, rng)

    def run(self, argv):
        if self.recorder is None:
            cmd = [sys.executable, "-m", "certquad", *argv]
        else:
            cmd = [sys.executable, self.launcher, *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=60)
        if self.recorder is not None:
            self.recorder.merge(json.loads(proc.stderr.splitlines()[-1]))
        return proc.returncode, proc.stdout

    def check(self, argv, result) -> str | None:
        return check_cli_output(argv, *result)

    @staticmethod
    def fingerprint(result) -> bytes:
        code, stdout = result
        return b"%d\n" % code + stdout

    def params(self) -> dict:
        return {"kinds": list(CLI_KINDS), "soundness_rows": SOUNDNESS_ROWS,
                "identity_rows": IDENTITY_ROWS}


def make(name: str, root: str):
    if name == CliMix.name:
        return CliMix(root)
    return {w.name: w for w in (AdaptiveExact, AdaptiveProbed, CertifySweep)}[name]()


WORKLOADS = ("adaptive_exact", "adaptive_probed", "certify_sweep", "cli_mix")
