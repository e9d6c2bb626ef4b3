#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny event budget.

    python3 perfbench/smoke_test.py

Runs each workload of BENCHMARK.json with --smoke, untraced then traced on
one seed and traced then untraced on another, and checks each result line:
the exact keys, every named metric present, finite and in its unit,
failed_window_ratio 0, no failed window, and the seed, git sha and nproc
recorded. An untraced run covers more inputs than a traced one; both
orders must pass the determinism witness the two share. Exits 1 if any
run breaks any of it.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace):
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()


def check(workload, seed, lines, expected):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, result
    records = [json.loads(line)["record"] for line in lines[:-1]
               if line.startswith('{"record"')]
    header = records[0]
    assert header["workload"] == workload and header["seed"] == seed, header
    assert header["git_sha"] and header["nproc"] >= 1, header
    ratios = [r["failed_window_ratio"] for r in records if "failed_window_ratio" in r]
    assert ratios == [0], f"failed_window_ratio: {ratios}"
    metrics = result["metrics"]
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        assert metrics[name]["unit"] == unit, (name, metrics[name]["unit"], unit)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, traces in ((7, (0, 1)), (8, (1, 0))):
            for trace in traces:
                try:
                    check(workload, seed, run(workload, seed, trace), units[trace])
                    print(f"ok    {workload} --seed {seed} --trace {trace}")
                except (AssertionError, ValueError, KeyError) as err:
                    failures += 1
                    print(f"FAIL  {workload} --seed {seed} --trace {trace}: {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
