"""Span recorder for the traced run, and the wrappers that feed it.

The traced run times each certquad layer from outside: ``instrument``
replaces a layer's public functions, at every name their callers bind,
with wrappers that open and close a span.  Spans of one operation stay in
memory until it ends; they are then folded into per-layer totals (calls,
self time, parent/child edges) and dropped, so memory stays flat however
long the run.  ``layer_metrics`` turns the totals into the per-layer
metrics of BENCHMARK.json, normalised per operation.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

ENGINE_SPANS = ("bounds.t22", "bounds.t23", "bounds.t24")


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` holds (name, start, end, parent, op) records, where parent is
    the index of the enclosing span or -1.  The recorder runs on one thread,
    so children nest inside their parent and never overlap each other.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Recorder:
    """Collects spans per operation and keeps running per-layer totals."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.ops = 0
        self.calls = Counter()
        self.self_ns = Counter()
        self.edges = Counter()    # "parent>child" span names -> count
        self.counts = Counter()   # events seen by the wrappers' hooks
        self.peaks = Counter()    # maxima seen by the wrappers' hooks
        # hashes of distinct coefficient inputs; numeric tuples hash alike in
        # every process, so children's sets can be merged
        self.keys = set()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.ops])
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def operation(self):
        """One operation: a root span "op" over everything it calls."""
        root = self.open("op")
        try:
            yield
        finally:
            self.close(root)
            self._fold()

    def _fold(self) -> None:
        for (name, _, _, parent, _), own in zip(self.spans, self_times(self.spans)):
            self.calls[name] += 1
            self.self_ns[name] += own
            if parent >= 0:
                self.edges[f"{self.spans[parent][0]}>{name}"] += 1
        self.spans.clear()
        self.ops += 1

    def snapshot(self) -> dict:
        return {"ops": self.ops, "calls": self.calls, "self_ns": self.self_ns,
                "edges": self.edges, "counts": self.counts, "peaks": self.peaks,
                "keys": sorted(self.keys)}

    def merge(self, snap: dict) -> None:
        """Add the totals of another recorder, e.g. one in a child process."""
        self.ops += snap["ops"]
        for field in ("calls", "self_ns", "edges", "counts"):
            getattr(self, field).update(snap[field])
        self.peaks |= Counter(snap["peaks"])
        self.keys.update(snap["keys"])


# ---------------------------------------------------------------------------
# Wrapping certquad's public functions

def _power_mean_key(rec, args):
    params = args[0]
    rec.keys.add(hash((0, params.alpha, params.lam)))
    return args


def _holder_key(rec, args):
    params, p = args[0], args[1]
    rec.keys.add(hash((1, params.alpha, params.lam, p)))
    return args


def _count_integrand(rec, args):
    g = args[0]

    def counted(x):
        rec.counts["oracle.integrand_evals"] += 1
        return g(x)

    return (counted,) + args[1:]


def _probe_result(rec, passed):
    rec.counts["expression.probe.passed"] += bool(passed)


def _solve_result(rec, result):
    rec.counts["composite.panels"] += len(result.panels)
    if result.target_met is not None:
        rec.counts["composite.adaptive"] += 1
        rec.counts["composite.bisections"] += len(result.panels) - 1
        rec.counts["composite.target_met"] += result.target_met


def _oracle_result(rec, result):
    rec.peaks["oracle.max_depth"] = max(rec.peaks["oracle.max_depth"],
                                        result.refinement_depth)


# (module, attribute, span name, hook on the arguments, hook on the result)
SPECS = (
    ("certquad.params", "RuleParams.__post_init__", "params.rule_params", None, None),
    ("certquad.params", "classify_regime", "params.classify", None, None),
    ("certquad.coefficients", "power_mean_coeffs", "coefficients.power_mean",
     _power_mean_key, None),
    ("certquad.coefficients", "holder_coeffs", "coefficients.holder", _holder_key, None),
    ("certquad.bounds", "power_mean_bound", "bounds.t22", None, None),
    ("certquad.bounds", "holder_interior_bound", "bounds.t23", None, None),
    ("certquad.bounds", "holder_endpoint_bound", "bounds.t24", None, None),
    ("certquad.bounds", "best_bound", "bounds.best", None, None),
    ("certquad.expression", "probe_convexity", "expression.probe", None, _probe_result),
    ("certquad.expression", "FunctionModel.derivative", "expression.derivative", None, None),
    ("certquad.expression", "FunctionModel.value", "expression.value", None, None),
    ("certquad.expression", "parse", "expression.parse", None, None),
    ("certquad.rules", "rule_value", "rules.rule_value", None, None),
    ("certquad.composite", "adaptive_integrate", "composite.solve", None, _solve_result),
    ("certquad.composite", "composite_integrate", "composite.solve", None, _solve_result),
    ("certquad.oracle", "integrate_ref", "oracle.integrate", _count_integrand, _oracle_result),
    ("certquad.means", "proposition_check", "means.proposition", None, None),
    ("certquad.cli", "build_parser", "cli.parse_args", None, None),
    ("certquad.cli", "_Parser.parse_args", "cli.parse_args", None, None),
    ("certquad.cli", "cmd_bound", "cli.command", None, None),
    ("certquad.cli", "cmd_integrate", "cli.command", None, None),
    ("certquad.cli", "cmd_coeffs", "cli.command", None, None),
    ("certquad.cli", "cmd_verify", "cli.command", None, None),
    ("certquad.cli", "cmd_means", "cli.command", None, None),
    ("certquad.cli", "render", "cli.render", None, None),
    ("certquad.cli", "_emit", "cli.render", None, None),
)


def _traced(rec: Recorder, name: str, fn, before, after):
    def wrapper(*args, **kwargs):
        if before is not None:
            args = before(rec, args)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            rec.close(index)
        if after is not None:
            after(rec, result)
        return result

    return wrapper


def instrument(rec: Recorder):
    """Wrap every SPECS function of the loaded certquad modules.

    A module-level function is replaced wherever a loaded certquad module
    binds it, as an attribute or as a value of a module-level dict (such as
    ``bounds.ENGINES``); a method is replaced on its class.  Returns a
    function that restores the originals.
    """
    loaded = [m for n, m in sorted(sys.modules.items())
              if n == "certquad" or n.startswith("certquad.")]
    undo = []
    for module_name, attr, name, before, after in SPECS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = getattr(owner, fn_name)
            own = owner.__dict__.get(fn_name)
            undo.append(lambda o=owner, k=fn_name, v=own: (
                setattr(o, k, v) if v is not None else delattr(o, k)))
            setattr(owner, fn_name, _traced(rec, name, original, before, after))
            continue
        original = getattr(module, fn_name)
        wrapper = _traced(rec, name, original, before, after)
        for m in loaded:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append(lambda o=m, k=key, v=original: setattr(o, k, v))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            undo.append(lambda d=value, k=k, o=original: d.__setitem__(k, o))

    def restore():
        for step in reversed(undo):
            step()

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics

# (name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("params.rule_params.calls", "count/op", "lower"),
    ("params.rule_params.self_ms", "ms/op", "lower"),
    ("params.classify.calls", "count/op", "lower"),
    ("params.classify.self_ms", "ms/op", "lower"),
    ("coefficients.power_mean.calls", "count/op", "lower"),
    ("coefficients.power_mean.self_ms", "ms/op", "lower"),
    ("coefficients.holder.calls", "count/op", "lower"),
    ("coefficients.holder.self_ms", "ms/op", "lower"),
    ("coefficients.distinct_params_ratio", "ratio", "higher"),
    ("bounds.t22.calls", "count/op", "lower"),
    ("bounds.t23.calls", "count/op", "lower"),
    ("bounds.t24.calls", "count/op", "lower"),
    ("bounds.engine.self_ms", "ms/op", "lower"),
    ("bounds.best.calls", "count/op", "lower"),
    ("bounds.best.self_ms", "ms/op", "lower"),
    ("bounds.refusals", "count/op", "lower"),
    ("expression.probe.calls", "count/op", "lower"),
    ("expression.probe.self_ms", "ms/op", "lower"),
    ("expression.probe.pass_ratio", "ratio", "higher"),
    ("expression.derivative.calls", "count/op", "lower"),
    ("expression.derivative.self_ms", "ms/op", "lower"),
    ("expression.value.calls", "count/op", "lower"),
    ("expression.parse.calls", "count/op", "lower"),
    ("expression.parse.self_ms", "ms/op", "lower"),
    ("expression.derivative_evals_per_certificate", "evals/cert", "lower"),
    ("rules.rule_value.calls", "count/op", "lower"),
    ("rules.rule_value.self_ms", "ms/op", "lower"),
    ("composite.solves", "count/op", "lower"),
    ("composite.panels", "count/op", "lower"),
    ("composite.bisections", "count/op", "lower"),
    ("composite.self_ms", "ms/op", "lower"),
    ("composite.certificates_per_panel", "certs/panel", "lower"),
    ("composite.target_met_ratio", "ratio", "higher"),
    ("oracle.integrate.calls", "count/op", "lower"),
    ("oracle.integrate.self_ms", "ms/op", "lower"),
    ("oracle.integrand_evals", "count/op", "lower"),
    ("oracle.max_depth", "count", "lower"),
    ("means.proposition.calls", "count/op", "lower"),
    ("means.proposition.self_ms", "ms/op", "lower"),
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.parse_args.self_ms", "ms/op", "lower"),
    ("cli.command.self_ms", "ms/op", "lower"),
    ("cli.render.self_ms", "ms/op", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, extra: dict) -> dict:
    """Per-layer values from the recorder's totals; ``extra`` supplies the
    ones measured outside it (cli.interp_start_ms, cli.import_ms,
    trace.overhead_ratio)."""
    ops = rec.ops
    calls, counts = rec.calls, rec.counts
    values = {}
    for span in ("params.rule_params", "params.classify", "coefficients.power_mean",
                 "coefficients.holder", "bounds.best", "expression.probe",
                 "expression.derivative", "expression.parse", "rules.rule_value",
                 "oracle.integrate", "means.proposition", "cli.parse_args",
                 "cli.command", "cli.render"):
        values[f"{span}.calls"] = _ratio(calls[span], ops)
        values[f"{span}.self_ms"] = _ratio(rec.self_ns[span] / 1e6, ops)
    for span in ENGINE_SPANS:
        values[f"{span}.calls"] = _ratio(calls[span], ops)
    certificates = sum(calls[s] - sum(counts[k] for k in counts if k.startswith(s + ".raised."))
                       for s in ENGINE_SPANS)
    coefficient_calls = calls["coefficients.power_mean"] + calls["coefficients.holder"]
    values.update({
        "coefficients.distinct_params_ratio": _ratio(len(rec.keys), coefficient_calls),
        "bounds.engine.self_ms": _ratio(sum(rec.self_ns[s] for s in ENGINE_SPANS) / 1e6, ops),
        "bounds.refusals": _ratio(sum(counts[f"{s}.raised.Refusal"] for s in ENGINE_SPANS), ops),
        "expression.probe.pass_ratio": _ratio(counts["expression.probe.passed"],
                                              calls["expression.probe"]),
        "expression.value.calls": _ratio(calls["expression.value"], ops),
        "expression.derivative_evals_per_certificate": _ratio(
            calls["expression.derivative"], certificates),
        "composite.solves": _ratio(calls["composite.solve"], ops),
        "composite.panels": _ratio(counts["composite.panels"], ops),
        "composite.bisections": _ratio(counts["composite.bisections"], ops),
        "composite.self_ms": _ratio(rec.self_ns["composite.solve"] / 1e6, ops),
        "composite.certificates_per_panel": _ratio(
            sum(rec.edges[f"composite.solve>{s}"] for s in ENGINE_SPANS),
            counts["composite.panels"]),
        "composite.target_met_ratio": _ratio(counts["composite.target_met"],
                                             counts["composite.adaptive"]),
        "oracle.integrand_evals": _ratio(counts["oracle.integrand_evals"], ops),
        "oracle.max_depth": rec.peaks["oracle.max_depth"],
        "cli.interp_start_ms": 0.0,
        "cli.import_ms": 0.0,
        **extra,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
