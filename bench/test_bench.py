"""Self-test of the benchmark harness on small problem sets (under a minute).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

import layers
import run
import tracing
import workloads
from meter import SpeedMeter

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL = {
    "ladder": lambda: workloads.Ladder(ladder=((2, 2), (3, 3), (2, 2, 2))),
    "conjugated": lambda: workloads.Conjugated(sizes=(8,)),
    "check": lambda: workloads.Check(sizes=(8,)),
}


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, capsys) -> tuple[dict, dict]:
    """One in-process run of a small workload; returns (result, detail)."""
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        with SpeedMeter() as meter:
            result = run.run(args, SMALL[workload](), workdir, meter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["detail"]
    return result, detail


def test_declared_metrics_match_the_code():
    spec = _benchmark_json()
    for group, emitted in (("end_to_end", run.END_TO_END), ("per_layer", layers.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert declared == emitted, group
        for name, unit in declared.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys):
    result, detail = _run(workload, 0, capsys)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    assert {"python", "cpu_count", "git_commit", "seed", "pythonhashseed"} <= set(
        detail["provenance"])


def test_traced_runs_nest_and_repeat_their_counts(capsys):
    counts = ("solver.branches", "solver.residual_branches", "solver.equations",
              "formats.family_bytes", "anticommutant.dim", "solver.parameters")
    seen = []
    for _ in range(2):
        result, detail = _run("ladder", 1, capsys)
        assert result["correct"], detail["failures"]
        assert set(result["metrics"]) == set(layers.PER_LAYER)
        assert detail["span_errors"] == []
        assert detail["span_count"] > 0
        assert all(v >= 0 for v in detail["pass_self_s"].values())
        seen.append({name: result["metrics"][name]["value"] for name in counts})
        seen.append({"branches": detail["branches"],
                     "residual_branches": detail["residual_branches"]})
    assert seen[0] == seen[2] and seen[1] == seen[3]
    assert seen[0]["solver.branches"] == 2 + 4 + 7  # (2,2), (3,3), (2,2,2)


def test_spans_nest_under_instrumented_calls():
    ybx = run.load_ybx()
    tracer = tracing.Tracer()
    with tracer.instrument(), tracer.span("pass"):
        sim = ybx.similarity_from_jordan(ybx.JordanSpec.from_pairs([(0, (2, 2))]))
        ybx.solve(sim)
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["pass", "solver.solve"]
    assert "solver.solve_branches" in names and "anticommutant.anticommutant_basis" in names
    assert tracing.check_nesting(tracer.spans) == []
    # instrument() restores the original functions on exit
    assert ybx.solver.solve_branches.__module__ == "ybx.solver"
    assert not hasattr(ybx.solver.solve_branches, "__wrapped__")


def test_meter_reports_positive_reference_seconds():
    with SpeedMeter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            sum(range(1000))
        end = time.perf_counter()
    assert meter.summary()["samples"] > 0
    assert meter.seconds(start, end) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(os.path.join(run.ROOT, "bench"), bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
