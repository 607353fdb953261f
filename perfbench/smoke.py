#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and the traced pass once,
all at tiny size, and checks the output contract: the last line is one
JSON object with exactly `correct`, `attempted`, `failed` and `metrics`,
every output check passed, and the metrics are exactly those listed,
with their units. It also checks that the benchmark refuses to run, with
a non-zero status and no result, in a copy holding only BENCHMARK.json
and the benchmark's own files. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_result(label: str, proc: subprocess.CompletedProcess, expected_units: dict) -> None:
    if proc.returncode != 0:
        sys.exit(f"{label}: exit status {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{label}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{label}: checks failed\n{proc.stdout[-3000:]}")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected_units:
        sys.exit(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(expected_units))}")
    print(f"ok  {label}: {result['attempted']} commands, {len(units)} metrics")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        proc = run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny")
        check_result(f"{name} --trace 0", proc, end_to_end)
    proc = run(ROOT, "--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny")
    check_result("--trace 1", proc, per_layer)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("without faasim sources the benchmark must fail and print no result")
    print("ok  refuses to run without faasim sources")


if __name__ == "__main__":
    main()
