"""Benchmark of the ybx pipeline: one workload per run, every output checked.

    python3 bench/run.py --workload ladder|conjugated|check --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports ybx from ./src.  The last line
of standard output is the result object (correct, attempted, failed,
metrics); the line before it holds the details: provenance, per-problem
times and counts, and in a traced run the stage self times.  A traced run
also writes its spans to .bench_work/spans-<workload>-<seed>.json.  Reported
times are reference seconds: wall time corrected for the host's speed while
it was measured (meter.py).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
HASH_SEED = "0"
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have passed;
# a cheap set-up (ladder: about 40 ms) needs many repeats for a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from meter import SpeedMeter  # noqa: E402

# name -> unit.  BENCHMARK.json lists the same names with their bounds.
END_TO_END = {
    "wall_s": "s",
    "problem_s.geomean": "s",
    "solved_share": "ratio",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_hash_seed() -> None:
    """Re-execute this process with the fixed PYTHONHASHSEED, if it differs."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def load_ybx():
    """Import ybx afresh from the checkout's src (set-up pays for the import)."""
    for name in [n for n in sys.modules if n == "ybx" or n.startswith("ybx.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    ybx = importlib.import_module("ybx")
    for sub in ("formats", "bundled", "cli"):
        importlib.import_module(f"ybx.{sub}")
    if os.path.dirname(os.path.abspath(ybx.__file__)) != os.path.join(SRC, "ybx"):
        raise ImportError(f"ybx was imported from {ybx.__file__}, not from {SRC}")
    return ybx


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


@dataclass
class Pass:
    start: float  # perf_counter readings
    end: float
    outcomes: list


def run_passes(workload, ybx, state, seed, seconds, tracer=None):
    """Passes until `seconds` of wall time have elapsed (at least one of each kind).

    Without a tracer every pass is untraced.  With one, untraced and traced
    passes alternate, so that their difference is the tracing overhead.
    Only the latest untraced pass keeps its results; older passes keep their
    signatures, so memory does not grow with the number of passes.
    Returns (untraced passes, traced passes).
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if untraced:
            for o in untraced[-1].outcomes:
                o.compact()
        t0 = time.perf_counter()
        outcomes = workload.run_pass(ybx, state, seed, tracing.NULL_TRACER)
        untraced.append(Pass(t0, time.perf_counter(), outcomes))
        if tracer is not None:
            with tracer.instrument(), tracer.span("pass"):
                t0 = time.perf_counter()
                outcomes = workload.run_pass(ybx, state, seed, tracer)
                traced.append(Pass(t0, time.perf_counter(), outcomes))
            for o in outcomes:
                o.compact()
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def summarize_passes(passes: list[Pass], meter) -> dict:
    """Per-problem medians and counts over the untraced passes."""
    per_problem: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            per_problem.setdefault(o.label, []).append(meter.seconds(o.start, o.end))
    branches = sum(o.signature()[0] for o in passes[-1].outcomes if o.ok)
    residual = sum(o.signature()[1] for o in passes[-1].outcomes if o.ok)
    walls = [meter.seconds(p.start, p.end) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "pass_s": walls,
        "pass_raw_wall_s": [p.end - p.start for p in passes],
        "problem_s": {label: statistics.median(v) for label, v in per_problem.items()},
        "problem_runs_s": per_problem,
        "branches": branches,
        "residual_branches": residual,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ybx benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_hash_seed()

    if not os.path.isfile(os.path.join(SRC, "ybx", "__init__.py")):
        print(f"error: no ybx sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with SpeedMeter() as meter:
            result = run(args, workload, workdir, meter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workload, workdir: str, meter) -> dict:
    """Set up, measure and check one workload; prints the detail line."""
    setup_times = []
    start = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        # free the previous set-up's module generation, so that peak memory
        # does not depend on how many set-ups ran
        state = ybx = None
        gc.collect()
        t0 = time.perf_counter()
        ybx = load_ybx()
        state = workload.setup(ybx, args.seed, workdir)
        setup_times.append(meter.seconds(t0, time.perf_counter()))

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = run_passes(workload, ybx, state, args.seed, args.seconds, tracer)
    # the latest untraced pass goes last: it is the one that kept its results
    all_passes = [p.outcomes for p in traced + untraced]
    failures = [f"{o.label}: {o.error}" for outcomes in all_passes for o in outcomes if not o.ok]
    failures += workload.check(ybx, state, all_passes, args.seed)
    attempted = sum(len(outcomes) for outcomes in all_passes)
    summary = summarize_passes(untraced, meter)
    detail = {"provenance": provenance(args), "setup_s": setup_times,
              "passes": len(untraced), **summary}

    if tracer is None:
        metrics = {
            "wall_s": summary["wall_s"],
            "problem_s.geomean": geomean(summary["problem_s"].values()),
            "solved_share": ((summary["branches"] - summary["residual_branches"])
                             / summary["branches"]) if summary["branches"] else 0.0,
            "ok_share": 1.0 - min(len(failures), attempted) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        probe = layers.Probe(ybx, args.seed, tracer, meter, workdir)
        metrics = probe.run(layers.cases_from(state, untraced[-1].outcomes))
        failures += probe.failures
        attempted += probe.attempted
        untraced_wall = summary["wall_s"]
        traced_wall = statistics.median(meter.seconds(p.start, p.end) for p in traced)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        detail.update(trace_detail(tracer, len(traced), probe, f"{args.workload}-{args.seed}"))
        units = layers.PER_LAYER

    detail["meter"] = meter.summary()
    detail["failures"] = failures
    print(json.dumps({"detail": detail}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def trace_detail(tracer, traced_passes: int, probe, tag: str) -> dict:
    """Self-time tables and the spans file of a traced run.

    Self times are in raw perf_counter seconds: they describe where the time
    of these particular passes went, not how fast the host was.
    """
    spans = tracer.spans
    pass_roots = {i for i, s in enumerate(spans) if s.name == "pass"}
    probe_roots = {i for i, s in enumerate(spans) if s.parent < 0 and s.name == "probe"}
    per_pass = {name: total / traced_passes
                for name, total in tracing.self_time_table(spans, pass_roots).items()}
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracing.spans_to_json(spans), fh)
    return {
        "pass_self_s": dict(sorted(per_pass.items(), key=lambda kv: -kv[1])),
        "probe_self_s": dict(sorted(tracing.self_time_table(spans, probe_roots).items(),
                                    key=lambda kv: -kv[1])),
        "probe_per_problem": probe.per_problem,
        "span_count": len(spans),
        "span_errors": tracing.check_nesting(spans),
        "spans_file": os.path.relpath(path, ROOT),
    }


if __name__ == "__main__":
    sys.exit(main())
