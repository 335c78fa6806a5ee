"""certquad benchmark: one seeded, closed-loop workload per invocation.

Run from the repository root:

    python3 bench/run.py --workload adaptive_exact --seed 1 --seconds 30 --trace 0

One client issues one operation at a time for ``--seconds`` seconds and
checks every result outside its timer.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
the same run is split into an untraced third and a traced two thirds and
the object carries the per-layer metrics instead.  End-to-end timings of
the in-process workloads are rescaled to a reference machine speed that
calibrate.py measures during the run.  Lines before it give a readable summary (with error_rate and sample
counts) and the run's metadata, which keeps the wall-clock timings.  The
exit code is 0 unless the benchmark itself cannot run.
Workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7
CALIBRATION_INTERVAL_S = 1.0
WARMUP_SEED = 0
DIGEST_OPS = 32
INTERPRETER_REPS = 5

# (name, unit) in the order BENCHMARK.json lists them; timings are rescaled to
# the machine speed of calibrate.REFERENCE_S (setup_s keeps the unit s), except
# on cli_mix, whose slowdown is 1 (see measure)
END_TO_END = (("setup_s", "s"), ("throughput_ops_s", "ops/ref_s"),
              ("latency_ms_p50", "ref_ms"), ("latency_ms_p90", "ref_ms"),
              ("peak_rss_mb", "MB"))


def setup(workload, seed: int):
    """Import, input generation and warm-up; returns the seeded operation
    stream, the seconds taken and any problem.  Warm-up draws from a fixed
    seed, so that every seed pays the same set-up work."""
    start = time.perf_counter()
    workload.load()
    ops = workload.operations(seed)
    problem = None
    for op in itertools.islice(workload.operations(WARMUP_SEED), workload.warmup):
        problem = problem or workload.check(op, workload.run(op))
    return ops, time.perf_counter() - start, problem


def measure(workload, ops, seconds: float, rec=None) -> dict:
    """Closed loop for ``seconds``: time each operation, then check it.

    For in-process workloads a calibration burst runs before the first
    operation and then once per CALIBRATION_INTERVAL_S, outside every
    operation's timer.  cli_mix does its work in child processes, whose
    speed the parent's kernel does not track: rescaling widened its
    ten-seed spread from about 9 % to about 18 %, so it keeps slowdown 1."""
    latencies, problems, bursts = [], [], []
    next_burst = 0.0
    busy = 0.0
    digest = hashlib.sha256()
    digested = 0
    traced_here = rec is not None and workload.in_process
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        if workload.in_process and time.perf_counter() >= next_burst:
            bursts.append(calibrate.burst())
            next_burst = time.perf_counter() + CALIBRATION_INTERVAL_S
        op = next(ops)
        start = time.perf_counter()
        try:
            if traced_here:
                with rec.operation():
                    result = workload.run(op)
            else:
                result = workload.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - start
            problem, result = f"{type(exc).__name__}: {exc}", None
        else:
            elapsed = time.perf_counter() - start
            problem = workload.check(op, result)
        busy += elapsed
        if problem:
            problems.append(problem)
            latencies.append(float("inf"))
        else:
            latencies.append(elapsed)
        if digested < DIGEST_OPS:
            digest.update(b"failed" if result is None else workload.fingerprint(result))
            digested += 1
    ok = len(latencies) - len(problems)
    return {"latencies": latencies, "problems": problems,
            "throughput": ok / busy if busy else 0.0,
            "slowdown": statistics.mean(bursts) / calibrate.REFERENCE_S if bursts else 1.0,
            "digest": digest.hexdigest(), "digested": digested}


def _ms_or_none(seconds: float):
    return seconds * 1000 if seconds != float("inf") else None


def end_to_end(stats: dict, setup_s: float, in_process: bool) -> dict:
    """The end-to-end metrics; timings are rescaled by the run's slowdown and
    their wall-clock values go into stats["wall"]."""
    lat = stats["latencies"]
    p50 = statistics.median(lat)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) >= 2 else lat[0]
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    slowdown = stats["slowdown"]
    stats["wall"] = {"setup_s": setup_s, "throughput_ops_s": stats["throughput"],
                     "latency_ms_p50": _ms_or_none(p50), "latency_ms_p90": _ms_or_none(p90)}
    values = {
        "setup_s": setup_s / slowdown,
        "throughput_ops_s": stats["throughput"] * slowdown,
        "latency_ms_p50": _ms_or_none(p50 / slowdown),
        "latency_ms_p90": _ms_or_none(p90 / slowdown),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    stats["beyond_p90"] = sum(1 for v in lat if v > p90)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def interpreter_costs(env: dict) -> dict:
    """Median wall time of ``python -c pass`` and median time of
    ``import certquad.cli`` measured inside a fresh interpreter."""
    starts, imports = [], []
    timed_import = ("import time; t = time.perf_counter(); import certquad.cli; "
                    "print(time.perf_counter() - t)")
    for _ in range(INTERPRETER_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        starts.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", timed_import], env=env, check=True,
                             capture_output=True, timeout=60).stdout
        imports.append(float(out))
    return {"cli.interp_start_ms": statistics.median(starts) * 1000,
            "cli.import_ms": statistics.median(imports) * 1000}


def traced_run(workload, ops, seconds: float):
    """An untraced third, then a traced two thirds; returns the combined
    loop statistics and the per-layer metrics."""
    extra = {} if workload.in_process else interpreter_costs(workload.env)
    plain = measure(workload, ops, seconds / 3)
    rec = tracing.Recorder()
    if workload.in_process:
        restore = tracing.instrument(rec)
    else:
        workload.recorder = rec
    try:
        stats = measure(workload, ops, seconds * 2 / 3, rec)
    finally:
        if workload.in_process:
            restore()
        workload.recorder = None
    extra["trace.overhead_ratio"] = (
        stats["throughput"] * stats["slowdown"] / (plain["throughput"] * plain["slowdown"])
        if plain["throughput"] else 0.0)
    combined = {**plain, "latencies": plain["latencies"] + stats["latencies"],
                "problems": plain["problems"] + stats["problems"]}
    return combined, tracing.layer_metrics(rec, extra)


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "certquad" / "__init__.py").is_file():
        print(f"bench: no certquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # cache bytecode under src/ whatever PYTHONDONTWRITEBYTECODE says, so that
    # import costs the same in every environment once the cache is warm
    sys.dont_write_bytecode = False

    workload = workloads.make(args.workload, str(ROOT))
    setups, problems = [], []
    for _ in range(SETUP_REPS):
        ops, seconds, problem = setup(workload, args.seed)
        setups.append(seconds)
        problems += [problem] if problem else []
    setup_s = statistics.median(setups)

    if args.trace:
        stats, metrics = traced_run(workload, ops, args.seconds)
    else:
        stats = measure(workload, ops, args.seconds)
        metrics = end_to_end(stats, setup_s, workload.in_process)

    problems += stats["problems"]
    attempted = len(stats["latencies"])
    failed = len(stats["problems"])
    for problem in problems[:5]:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']!s:>24} {m['unit']}")
    print(f"  {'error_rate':45s} {failed / attempted!s:>24} ratio")
    meta = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "setup_reps": len(setups),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "latency_samples": attempted,
        "beyond_p90": stats.get("beyond_p90"),
        "slowdown": stats["slowdown"],
        "wall_clock": stats.get("wall"),
        "output_digest": stats["digest"],
        "digest_ops": stats["digested"],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
