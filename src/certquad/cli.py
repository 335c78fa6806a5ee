"""Command line front end.

Subcommands: bound, integrate, coeffs, verify, means.  Exit codes: 0 on
success, 1 for any ValueError (parse, validation and domain errors and
Python's int/str digit limit), ArithmeticError (an exact power past the
budget of ``params._power`` is an OverflowError), a too deeply nested
expression or a stdout that its reader closed, 2 when an engine refuses
(hypothesis not established, exponent out of range, exactness forced but
unavailable).  The verify exit code is 0 only when the sweep finds zero violations.

Output conventions (schema "v1"): every numeric leaf is rendered as a
string, exact rationals as "num/den" (or a bare integer) and floats with
17 significant digits, so repeated runs are byte-identical.  Rational
command line inputs ("1/3", "2") ride the exact kernels, decimals the
floating ones.  ``_pair_from`` is the one reader of an --alpha/--lambda
pair and ``_head`` the one writer of the "a", "b", "alpha", "lambda"
fields that bound, integrate and means --prop documents share.  Verify
sweeps run the reference integrator at its default tolerance,
``oracle.DEFAULT_TOL``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from numbers import Rational

from . import bounds, composite, means, oracle
from .coefficients import check_eps_digits, holder_coeffs, power_mean_coeffs
from .errors import DomainError, OracleError, Refusal
from .expression import builtin_corpus, resolve_function
from .params import RuleParams, classify_regime
from .prng import SplitMix64
from .rules import NAMED_RULES, Interval, identity_rhs, named_rule, rule_value

SCHEMA = "v1"
IDENTITY_TOL = 1e-8

CSV_HEADER = "function,a,b,alpha,lambda,q,theorem,lhs,bound,margin,regime"

_SWEEP_INTERVALS = ((0.5, 1.5), (1.0, 2.0), (0.25, 3.0))
_SWEEP_Q = (1.0, 1.5, 2.0, 3.0)  # t23 and t24 draw from [1:], as they need q > 1


def render(x) -> str:
    """Exact rationals verbatim, floats at 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Rational):
        return str(Fraction(x))
    v = float(x)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def parse_number(text: str):
    """'p/q' and integer strings become Fractions, decimals become floats."""
    text = text.strip()
    if re.fullmatch(r"[+-]?\d+/\d+", text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {text!r}") from None
    if re.fullmatch(r"[+-]?\d+", text):
        return Fraction(int(text))
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"not a number: {text!r}") from None


def _require_exact(values: dict) -> None:
    inexact = [k for k, v in values.items() if not isinstance(v, Rational)]
    if inexact:
        raise Refusal(
            "exact mode: result not exactly representable (inexact fields: "
            + ", ".join(inexact) + ")")


class _Parser(argparse.ArgumentParser):
    # usage errors are parse errors, exit 1 (argparse defaults to 2)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")

    # one leading dash and no such option: a value, such as --a -1/2 or --f '-x^2'
    def _parse_optional(self, arg):
        if arg[:1] == "-" != arg[1:2] and arg not in self._option_string_actions:
            return None
        return super()._parse_optional(arg)


def _add_certificate_args(p: _Parser, q_help=None) -> None:
    p.add_argument("--f", required=True,
                   help="corpus name (pow:N, reciprocal, neglog, exp, negexp)"
                        " or an expression in x")
    p.add_argument("--assume-convex", action="store_true",
                   help="treat |f'|^q as convex for the requested q without probing")
    p.add_argument("--a", required=True, help="left endpoint")
    p.add_argument("--b", required=True, help="right endpoint")
    p.add_argument("--rule", choices=NAMED_RULES,
                   help="named parameter pair")
    p.add_argument("--alpha", help="node placement in [0,1]")
    p.add_argument("--lambda", dest="lam", help="endpoint blend in [0,1]")
    p.add_argument("--q", required=True, help=q_help)


def _pair_from(args) -> RuleParams:
    """The --alpha and --lambda texts as a parameter pair."""
    return RuleParams(parse_number(args.alpha), parse_number(args.lam))


def _params_from(args) -> RuleParams:
    if args.rule is not None:
        if args.alpha is not None or args.lam is not None:
            raise DomainError("--rule conflicts with --alpha/--lambda")
        return named_rule(args.rule)
    if args.alpha is None or args.lam is None:
        raise DomainError("need --rule or both --alpha and --lambda")
    return _pair_from(args)


def _interval_from(args) -> Interval:
    return Interval(parse_number(args.a), parse_number(args.b))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="certquad",
        description="Certified quadrature error bounds for the two-parameter"
                    " rule family.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="one error certificate")
    p.set_defaults(run=cmd_bound)
    _add_certificate_args(p, "exponent (comma separated list with --theorem best)")
    p.add_argument("--theorem", default="t22",
                   choices=(*bounds.ENGINES, "best"))
    p.add_argument("--exact", action="store_true",
                   help="refuse unless approx and bound are exact rationals")
    p.add_argument("--format", default="json", choices=("json", "pretty"))

    p = sub.add_parser("integrate", help="composite or adaptive integration")
    p.set_defaults(run=cmd_integrate)
    _add_certificate_args(p)
    p.add_argument("--theorem", default="t22", choices=bounds.ENGINES)
    p.add_argument("--panels", type=int, help="uniform panel count")
    p.add_argument("--target", help="adaptive total bound target")
    p.add_argument("--max-panels", type=int, default=1024)
    p.add_argument("--format", default="json", choices=("json", "csv", "pretty"))

    p = sub.add_parser("coeffs", help="dump the coefficient families")
    p.set_defaults(run=cmd_coeffs)
    p.add_argument("--alpha", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--p", help="also dump the conjugate-route eps family at this p")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--format", default="json", choices=("json", "pretty"))

    p = sub.add_parser("verify", help="randomized verification sweeps")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--check", default="soundness",
                   choices=("soundness", "identity", "hh"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=200)
    p.add_argument("--format", default="json", choices=("json", "csv", "pretty"))

    p = sub.add_parser("means", help="evaluate a mean or an inequality check")
    p.set_defaults(run=cmd_means)
    p.add_argument("--kind", choices=means.MEAN_KINDS)
    p.add_argument("--prop", type=int, choices=(1, 2, 3, 4, 5, 6))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--alpha")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--q")
    p.add_argument("--n", type=int)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--format", default="json", choices=("json", "pretty"))
    return parser


def _emit(doc: dict, fmt: str, out) -> None:
    """json, pretty or csv: the document's one table under a header of its
    first row's keys, then any summary as a "# k=v ..." line."""
    if fmt == "csv":
        rows = next(v for v in doc.values() if isinstance(v, list))
        print(",".join(rows[0]), file=out)
        for row in rows:
            print(",".join(row.values()), file=out)
        if "summary" in doc:
            print("# " + " ".join(f"{k}={v}" for k, v in doc["summary"].items()),
                  file=out)
    elif fmt == "pretty":
        for key, value in doc.items():
            if isinstance(value, dict):
                value = [f"{k} = {v}" for k, v in value.items()]
            if isinstance(value, list):
                print(f"{key}:", file=out)
                for item in value:
                    if isinstance(item, dict):
                        item = ", ".join(f"{k}={v}" for k, v in item.items())
                    print(f"  {item}", file=out)
            else:
                print(f"{key}: {value}", file=out)
    else:
        print(json.dumps(doc, indent=2), file=out)


def _head(a, b, params: RuleParams) -> dict:
    """The interval and parameter fields that lead a document."""
    return {"a": render(a), "b": render(b),
            "alpha": render(params.alpha), "lambda": render(params.lam)}


def cmd_bound(args, out) -> int:
    f = resolve_function(args.f, assume_convex=args.assume_convex)
    iv = _interval_from(args)
    params = _params_from(args)
    q_values = [parse_number(part) for part in args.q.split(",")]
    if args.theorem == "best":
        cert = bounds.best_bound(f, iv, params, q_values)
    else:
        if len(q_values) != 1:
            raise DomainError("one --q value expected unless --theorem best")
        cert = bounds.ENGINES[args.theorem](f, iv, params, q_values[0])
    if args.exact:
        _require_exact({"approx": cert.approx, "bound": cert.bound})
    doc = {
        "schema": SCHEMA,
        **_head(cert.interval.a, cert.interval.b, cert.params),
        "theorem": cert.theorem,
        "q": render(cert.q),
        "p": render(cert.p),
        "approx": render(cert.approx),
        "bound": render(cert.bound),
        "advisory": cert.advisory,
        "regime": cert.regime,
    }
    _emit(doc, args.format, out)
    return 0


def cmd_integrate(args, out) -> int:
    f = resolve_function(args.f, assume_convex=args.assume_convex)
    iv = _interval_from(args)
    params = _params_from(args)
    q = parse_number(args.q)
    if (args.panels is None) == (args.target is None):
        raise DomainError("exactly one of --panels or --target is required")
    if args.panels is not None:
        result = composite.composite_integrate(
            f, iv, params, q, theorem=args.theorem, n=args.panels)
    else:
        result = composite.adaptive_integrate(
            f, iv, params, q, theorem=args.theorem,
            target=parse_number(args.target), max_panels=args.max_panels)
    doc = {
        "schema": SCHEMA,
        **_head(iv.a, iv.b, params),
        "q": render(q),
        "theorem": args.theorem,
        "value": render(result.value),
        "total_bound": render(result.total_bound),
        "panels": len(result.panels),
        "target_met": result.target_met,
        "advisory": result.advisory,
        "panel_table": [
            {
                "a": render(cert.interval.a),
                "b": render(cert.interval.b),
                "approx": render(cert.approx),
                "bound": render(cert.bound),
                "regime": cert.regime,
            }
            for cert in result.panels
        ],
    }
    _emit(doc, args.format, out)
    return 0


def cmd_coeffs(args, out) -> int:
    params = _pair_from(args)
    families = {"power_mean": power_mean_coeffs(params)}
    if args.exact:
        _require_exact(families["power_mean"])
    doc = {
        "schema": SCHEMA,
        "alpha": render(params.alpha),
        "lambda": render(params.lam),
        "regime": classify_regime(params),
        "breakpoints": [render(v) for v in params.breakpoints()],
    }
    if args.p is not None:
        p = parse_number(args.p)
        check_eps_digits(params, p)
        families["holder"] = holder_coeffs(params, p)
        if args.exact:  # after the power-mean family's refusal
            _require_exact({k: v for k, v in families["holder"].items() if v is not None})
    for name, family in families.items():  # a regime-inactive eps stays None
        doc[name] = {k: render(v) if v is not None else None
                     for k, v in family.items()}
        doc[name + "_decimal"] = {k: render(float(v)) if v is not None else None
                                  for k, v in family.items()}
    _emit(doc, args.format, out)
    return 0


def cmd_means(args, out) -> int:
    a = parse_number(args.a)
    b = parse_number(args.b)
    if (args.kind is None) == (args.prop is None):
        raise DomainError("exactly one of --kind or --prop is required")
    holds = True
    if args.kind is not None:
        alpha = parse_number(args.alpha) if args.alpha is not None else None
        value = means.eval_mean(args.kind, a, b, alpha=alpha, n=args.n)
        if args.exact:
            _require_exact({"value": value})
        doc = {"schema": SCHEMA, "kind": args.kind,
               "a": render(a), "b": render(b)}
        if alpha is not None:
            doc["alpha"] = render(alpha)
        results = {"value": render(value)}
    else:
        if args.alpha is None or args.lam is None or args.q is None:
            raise DomainError("--prop requires --alpha, --lambda and --q")
        params = _pair_from(args)
        q = parse_number(args.q)
        result = means.proposition_check(args.prop, a, b, params, q, n=args.n)
        if args.exact:
            _require_exact({"lhs": result.lhs, "rhs": result.rhs})
        holds = result.holds
        doc = {"schema": SCHEMA, "prop": str(args.prop), **_head(a, b, params),
               "q": render(q)}
        results = {"lhs": render(result.lhs), "rhs": render(result.rhs),
                   "holds": holds, "margin": render(result.margin)}
    if args.n is not None:
        doc["n"] = str(args.n)
    doc.update(results)
    _emit(doc, args.format, out)
    return 0 if holds else 1


# ---------------------------------------------------------------------------
# verify sweeps

def _row(function, a, b, alpha, lam, q, theorem, lhs, bound, regime) -> dict:
    lhs_f, bound_f = float(lhs), float(bound)
    alpha, lam, q = (render(v) if v is not None else "" for v in (alpha, lam, q))
    return {
        "function": function,
        "a": render(a), "b": render(b),
        "alpha": alpha, "lambda": lam, "q": q,
        "theorem": theorem,
        "lhs": render(lhs_f),
        "bound": render(bound_f),
        "margin": render(bound_f - lhs_f),
        "regime": regime,
    }


def _sweep_soundness(rng: SplitMix64, rows: int, corpus):
    mean_cache: dict = {}
    out = []
    for _ in range(rows):
        f = rng.choice(corpus)
        a, b = rng.choice(_SWEEP_INTERVALS)
        theorem = rng.choice(tuple(bounds.ENGINES))
        q = rng.choice(_SWEEP_Q if theorem == "t22" else _SWEEP_Q[1:])
        alpha = rng.uniform()
        lam = rng.uniform()
        iv = Interval(a, b)
        params = RuleParams(alpha, lam)
        cert = bounds.ENGINES[theorem](f, iv, params, q)
        key = (f.name, a, b)
        if key not in mean_cache:
            mean_cache[key] = oracle.mean_ref(f, iv)
        gap = abs(float(cert.approx) - mean_cache[key])
        out.append(_row(f.name, a, b, alpha, lam, q, cert.theorem,
                        gap, cert.bound, cert.regime))
    return out


def _sweep_identity(rng: SplitMix64, rows: int, corpus):
    out = []
    for _ in range(rows):
        f = rng.choice(corpus)
        a, b = rng.choice(_SWEEP_INTERVALS)
        alpha = rng.uniform()
        lam = rng.uniform()
        iv = Interval(a, b)
        params = RuleParams(alpha, lam)
        lhs_signed = float(rule_value(f, iv, params)) - oracle.mean_ref(f, iv)
        residual = abs(lhs_signed - identity_rhs(f, iv, params))
        out.append(_row(f.name, a, b, alpha, lam, None, "identity",
                        residual, IDENTITY_TOL, classify_regime(params)))
    return out


def _sweep_hh(corpus):
    # every corpus member is convex on these intervals, so the sandwich
    # predicate applies to all of them
    out = []
    for f in corpus:
        for a, b in _SWEEP_INTERVALS:
            gap = oracle.hh_gap(f, Interval(a, b))
            out.append(_row(f.name, a, b, None, None, None, "hh",
                            max(gap, 0.0), oracle.HH_SLACK, ""))
    return out


def cmd_verify(args, out) -> int:
    corpus = builtin_corpus()
    rng = SplitMix64(args.seed)
    if args.rows < 1:
        raise DomainError(f"--rows must be positive, got {args.rows}")
    if args.check == "soundness":
        rows = _sweep_soundness(rng, args.rows, corpus)
    elif args.check == "identity":
        rows = _sweep_identity(rng, args.rows, corpus)
    else:
        rows = _sweep_hh(corpus)
    rows.sort(key=lambda r: tuple(r.values()))
    violations = sum(float(r["margin"]) < -bounds.SOUNDNESS_SLACK for r in rows)
    tightness = max((float(r["lhs"]) / float(r["bound"])
                     for r in rows if float(r["bound"]) > 0), default=0.0)
    max_lhs = max((float(r["lhs"]) for r in rows), default=0.0)
    doc = {
        "schema": SCHEMA,
        "check": args.check,
        "seed": str(args.seed),
        "rows": rows,
        "summary": {
            "rows": str(len(rows)),
            "violations": str(violations),
            "max_tightness": render(tightness),
            "max_lhs": render(max_lhs),
        },
    }
    _emit(doc, args.format, out)
    return 0 if violations == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        code = args.run(args, sys.stdout)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit's flush
        return code
    except BrokenPipeError:  # the reader went away; the final flush must not write either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError) as exc:  # ParseError, DomainError too
        print(f"certquad: error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("certquad: error: expression nested too deeply", file=sys.stderr)
        return 1
    except Refusal as exc:
        print(f"certquad: refused: {exc}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"certquad: oracle failure: {exc} (best estimate {exc.best})",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
