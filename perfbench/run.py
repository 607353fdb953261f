#!/usr/bin/env python3
"""Benchmark of the `faasim` CLI: four workloads, end-to-end and traced.

    python3 perfbench/run.py --workload sim-uniform --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root. With `--trace 0` the named workload's
command sequence runs as `python -m faasim` subprocesses, one at a time,
as many times as fit in `--seconds` (at least twice); every output is
checked and the end-to-end metrics are reported. Times are CPU times
scaled to a reference speed, measured while each command runs by a probe
on the same CPU (probe.py), so that the machine's own speed changes do
not show as a change of faasim. With
`--trace 1` an in-process traced pass over all four workloads reports
the per-layer metrics (see traced.py). `--workload all` prints every
workload's metrics in one table, and with `--trace 1` sets each traced
wall time beside the untraced host wall time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A result file with
provenance, samples and input properties is written under
`.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import suite
import traced
from probe import REFERENCE_UNIT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG = SRC / "faasim" / "data" / "default_catalog.json"
WORK = ROOT / ".perfbench_work"
RESULTS = WORK / "results"

# A seed never used while tuning the benchmark, kept for confirming claims.
HELD_OUT_SEED = 7919
COMMAND_TIMEOUT_S = 170
# No sequence starts after this much of a run has gone, whatever --seconds says.
RUN_BUDGET_S = 120

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}


def faasim_env() -> dict:
    """The environment of every faasim subprocess: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def provenance(seed: int, tiny: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if shutil.which("git"):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() if probe.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "tiny": tiny,
    }


@dataclass
class Sample:
    label: str
    seconds: float
    cpu_s: float  # user plus system time at the reference speed
    rss_mb: float
    out_bytes: int
    exit_code: int
    digest: str


class Helper:
    """A helper process that answers one line on stdin with one line on stdout."""

    def __init__(self, script: str, env: dict | None = None):
        self.proc = subprocess.Popen([sys.executable, str(HERE / script)], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        """Close its stdin, which ends it, and wait until it has ended."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Probe(Helper):
    """The speed probe beside the measured commands, on their CPU (see probe.py)."""

    def __init__(self):
        super().__init__("probe.py")
        self.mark = (0, 0.0)

    def scale(self) -> float:
        """Reference seconds per CPU second since the last call."""
        units, cpu_s = self.ask("?").split()
        (last_units, last_cpu_s), self.mark = self.mark, (int(units), float(cpu_s))
        return REFERENCE_UNIT_S * (self.mark[0] - last_units) / (self.mark[1] - last_cpu_s)


class Runner(Helper):
    """The small process that starts and times every measured command (see runner.py)."""

    def __init__(self, env: dict):
        super().__init__("runner.py", env)

    def run(self, command: suite.Command, directory: Path, index: int, probe: Probe) -> Sample:
        """Run one faasim command to completion; stdout goes to a file beside its outputs."""
        stdout_path = directory / f"stdout.{index}"
        probe.scale()
        request = {"argv": [sys.executable, "-m", "faasim", *command.args], "cwd": str(directory),
                   "stdout": str(stdout_path), "stderr": str(directory / f"stderr.{index}"),
                   "timeout_s": COMMAND_TIMEOUT_S}
        reply = json.loads(self.ask(json.dumps(request)))
        cpu_s = reply["cpu_s"] * probe.scale()
        digest = hashlib.sha256()
        out_bytes = 0
        for path in (stdout_path, *(directory / name for name in command.outputs)):
            if path.exists():
                data = path.read_bytes()
                out_bytes += len(data)
                digest.update(path.name.encode() + b"\0" + data)
        return Sample(command.label, reply["seconds"], cpu_s, reply["max_rss_kb"] / 1024, out_bytes,
                      reply["exit_code"], digest.hexdigest())


class Verifier:
    """Checks each command's output; identical bytes are checked once.

    The first output of a command is checked in full. A later output with
    the same seed must be byte-identical to it (the determinism check);
    one that differs is a failure and is checked in full as well.
    """

    def __init__(self):
        self.first: dict[str, tuple[str, list[str]]] = {}  # label -> (digest, problems)
        self.problems: list[str] = []

    @property
    def digests(self) -> dict[str, str]:
        return {label: digest for label, (digest, _) in self.first.items()}

    def verify(self, command: suite.Command, sample: Sample, directory: Path, stdout: bytes, stderr: bytes) -> bool:
        first = self.first.get(command.label)
        if sample.exit_code != 0:
            problems = [f"exit status {sample.exit_code}: {stderr.decode(errors='replace').strip()[-300:]}"]
        elif first and first[0] == sample.digest:
            problems = list(first[1])
        else:
            problems = suite.check_output(command, stdout, directory)
            if first:
                problems.insert(0, "output differs from an earlier run with the same seed")
            else:
                self.first[command.label] = (sample.digest, problems)
        self.problems += [f"{command.label}: {p}" for p in problems]
        return not problems


def run_sequence(plan: suite.Plan, directory: Path, runner: Runner, probe: Probe, verifier: Verifier) -> dict:
    """Set up, time the command sequence, then check its outputs."""
    shutil.rmtree(directory, ignore_errors=True)
    probe.scale()
    start, start_cpu = time.perf_counter(), time.process_time()
    directory.mkdir(parents=True)
    plan.prepare(directory)
    setup_host_s = time.perf_counter() - start
    setup_s = (time.process_time() - start_cpu) * probe.scale()

    start = time.perf_counter()
    samples = [runner.run(command, directory, i, probe) for i, command in enumerate(plan.commands)]
    wall_host_s = time.perf_counter() - start

    failed = 0
    for i, (command, sample) in enumerate(zip(plan.commands, samples)):
        stdout = (directory / f"stdout.{i}").read_bytes()
        stderr = (directory / f"stderr.{i}").read_bytes()
        failed += not verifier.verify(command, sample, directory, stdout, stderr)
    return {"setup_s": setup_s, "cpu_s": sum(x.cpu_s for x in samples), "setup_host_s": setup_host_s,
            "wall_host_s": wall_host_s, "samples": samples, "failed": failed}


def percentile_with_tail(values: list[float], q: int) -> float | None:
    """The q-th percentile, or None when fewer than 10 samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(name: str, seed: int, seconds: int, tiny: bool) -> dict:
    """Untraced measurement of one workload; returns the full result record."""
    plan = suite.WORKLOADS[name](seed, tiny, CATALOG)
    directory = WORK / f"{name}-{os.getpid()}"
    run_start = time.perf_counter()
    # The measured commands, set-up and the probe share one CPU, so the probe
    # measures the speed they ran at.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        with Runner(faasim_env()) as runner, Probe() as probe:
            # Untimed warm-up at tiny size: bytecode caches and page cache exist before timing.
            warm = run_sequence(suite.WORKLOADS[name](seed, True, CATALOG), directory, runner, probe, Verifier())
            verifier = Verifier()
            sequences = []
            durations = []
            properties = None
            timed_start = time.perf_counter()
            # Another sequence only while it is expected to end within --seconds.
            while len(sequences) < 2 or (
                    time.perf_counter() - timed_start + statistics.median(durations) <= seconds
                    and time.perf_counter() - run_start < RUN_BUDGET_S):
                start = time.perf_counter()
                sequences.append(run_sequence(plan, directory, runner, probe, verifier))
                durations.append(time.perf_counter() - start)
                if properties is None and plan.trace_file:
                    properties = checks.trace_properties(checks.read_decimal_json(directory / plan.trace_file))
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(directory, ignore_errors=True)

    samples = [s for seq in sequences for s in seq["samples"]]
    metrics = {
        "cpu_s": statistics.median(s["cpu_s"] for s in sequences),
        "setup_s": statistics.median(s["setup_s"] for s in sequences),
        "peak_rss_mb": statistics.median(max(x.rss_mb for x in s["samples"]) for s in sequences),
        "output_bytes": statistics.median_low(sum(x.out_bytes for x in s["samples"]) for s in sequences),
    }
    attempted = len(samples)
    failed = sum(s["failed"] for s in sequences)
    # Printed and recorded, but not in BENCHMARK.json: (value, unit, samples).
    extra = {
        "wall_host_s": (statistics.median(s["wall_host_s"] for s in sequences), "s", len(sequences)),
        "setup_host_s": (statistics.median(s["setup_host_s"] for s in sequences), "s", len(sequences)),
        "failed_frac": (failed / attempted, "fraction", attempted),
    }
    sim_times = [x.cpu_s for x in samples if x.label == "simulate"]
    if sim_times:
        rates = [properties["entries"] / t for t in sim_times]
        extra["sim_invocations_per_s"] = (statistics.median(rates), "1/s", len(rates))
    if name == "desk-queries":
        times = [x.cpu_s for x in samples]
        extra["cmd_p50_s"] = (percentile_with_tail(times, 50), "s", len(times))
        extra["cmd_p90_s"] = (percentile_with_tail(times, 90), "s", len(times))
    return {
        "workload": name,
        "trace": 0,
        "provenance": provenance(seed, tiny),
        "parameters": plan.parameters,
        "input_properties": properties,
        "warmup": {"wall_host_s": warm["wall_host_s"], "failed": warm["failed"]},
        "sequences": len(sequences),
        "sequence_times": [{k: s[k] for k in ("setup_s", "cpu_s", "setup_host_s", "wall_host_s")}
                           for s in sequences],
        "attempted": attempted,
        "failed": failed,
        "problems": verifier.problems,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": len(sequences)}
                    for k, v in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": unit, "samples": n} for k, (v, unit, n) in extra.items()},
        "output_sha256": verifier.digests,
        "samples": [s.__dict__ for s in samples],
    }


def write_result(record: dict, stem: str) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    return path


def print_metrics(workload: str, record: dict) -> None:
    for name, metric in {**record["metrics"], **record.get("workload_metrics", {})}.items():
        value = metric["value"]
        shown = "n/a (fewer than 10 samples beyond)" if value is None else f"{value:.6g} {metric['unit']}"
        print(f"{workload:<13} {name:<22} {shown}  (n={metric['samples']})")


def contract_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*suite.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "faasim" / "cli.py").is_file():
        print(f"error: faasim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # Every command, in or out of process, prices with the bundled catalog.
    os.environ.pop("FAASIM_CATALOG", None)

    names = list(suite.WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    if args.trace == 0 or args.workload == "all":
        for name in names:
            records[name] = measure(name, args.seed, args.seconds, args.tiny)
            write_result(records[name], f"{name}-seed{args.seed}-trace0")
            print_metrics(name, records[name])
            for problem in dict.fromkeys(records[name]["problems"]):
                print(f"{name}: FAILED {problem}")
    if args.trace == 1:
        record = traced.traced_run(args.seed, args.tiny, SRC, CATALOG, faasim_env(), WORK)
        record["provenance"] = provenance(args.seed, args.tiny)
        write_result(record, f"traced-seed{args.seed}")
        for problem in dict.fromkeys(record["problems"]):
            print(f"traced: FAILED {problem}")
        for name in names:
            untraced = records[name]["workload_metrics"]["wall_host_s"]["value"] if name in records else None
            beside = "" if untraced is None else f", untraced wall_host_s {untraced:.4f} s"
            print(f"{name:<13} traced wall {record['workload_wall_s'][name]:.4f} s{beside}")
        print(f"spans cover {record['coverage']:.1%} of the traced run's {record['wall_s']:.3f} s")
        metrics = record["metrics"]
        records["traced"] = record
    elif args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in records.items() for k, v in r["metrics"].items()}
    else:
        metrics = records[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    print(contract_line(failed == 0, attempted, failed, metrics))
    return 0

if __name__ == "__main__":
    sys.exit(main())
