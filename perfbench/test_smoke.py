#!/usr/bin/env python3
"""Smoke test of the benchmark itself (a few minutes in total).

    python3 perfbench/test_smoke.py

For every workload run.py knows (the four in BENCHMARK.json), at --size
smoke, under two seeds and with tracing off and on: the run exits 0, its last line is a result
object with exactly the keys correct/attempted/failed/metrics, the result
is correct with no failed operation, and every metric BENCHMARK.json names
for that mode is printed with its unit. Then checks that the benchmark
fails cleanly (non-zero exit, no result) in a directory holding only
BENCHMARK.json and perfbench/. Exits non-zero on the first violation.
"""

import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)
SECONDS = "1"


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(bench, cwd, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", SECONDS, "--trace", str(trace),
                              "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, stdin=subprocess.DEVNULL)


def check_result(bench, workload, seed, trace, proc):
    where = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        fail(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{where}: no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{where}: correct={result['correct']} failed={result['failed']}"
             f"\n{proc.stderr[-2000:]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{where}: attempted={result['attempted']}")
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(s["name"] for s in specs):
        fail(f"{where}: metric names differ from BENCHMARK.json")
    for spec in specs:
        m = metrics[spec["name"]]
        if m.get("unit") != spec["unit"]:
            fail(f"{where}: {spec['name']} unit {m.get('unit')}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {spec['name']} value {value}")
        if not trace and value <= 0:
            fail(f"{where}: end-to-end {spec['name']} is {value}")


def check_bare_directory(bench):
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench, bare, bench["workloads"][0]["name"], 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, "
             f"stdout {proc.stdout[-200:]!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = [w["name"] for w in bench["workloads"]]
    if sorted(listed) != sorted(WORKLOADS):
        fail(f"BENCHMARK.json lists {listed}, run.py knows {list(WORKLOADS)}")
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                proc = run(bench, ROOT, workload, seed, trace)
                check_result(bench, workload, seed, trace, proc)
                print(f"ok   {workload} seed {seed} trace {trace}",
                      flush=True)
    check_bare_directory(bench)
    print("ok   bare directory fails cleanly")


if __name__ == "__main__":
    main()
