#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

For each workload in BENCHMARK.json: a short untraced run, a short traced
run and a full-length untraced run. Checks that every metric BENCHMARK.json
names is present and finite, that nothing failed, that the simulated
metrics of the short run equal those of the full run exactly, and that the
traced run prints the same simulated geomeans.

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_METRICS = ("sim_ms_geomean", "opt_gain_geomean")


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    sim = [line for line in lines if line.startswith("sim: ")]
    return result, sim


def check_result(label, result, names):
    assert result["correct"] is True, f"{label}: not correct: {result}"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    metrics = result["metrics"]
    assert set(metrics) == set(names), \
        f"{label}: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json"
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{label}: {name} = {value!r} is not finite"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for workload in (w["name"] for w in bench["workloads"]):
        short, short_sim = run(workload, 1, 0)
        check_result(f"{workload} short", short, end_to_end)
        assert short["metrics"]["ok_frac"]["value"] == 1, f"{workload}: ok_frac < 1"
        full, _ = run(workload, bench["run_seconds"], 0)
        check_result(f"{workload} full", full, end_to_end)
        for name in SIM_METRICS:
            assert short["metrics"][name]["value"] == full["metrics"][name]["value"], \
                f"{workload}: {name} differs between a short and a full run"
        traced, traced_sim = run(workload, 1, 1)
        check_result(f"{workload} traced", traced, per_layer)
        assert traced_sim == short_sim and short_sim, \
            f"{workload}: traced sim line {traced_sim} != untraced {short_sim}"
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"FAIL {err}", file=sys.stderr)
        sys.exit(1)
