"""The four benchmark workloads: fixed sequences of `faasim` commands.

A workload prepares its inputs from the seed (set-up, timed apart from the
commands), then names the commands to time, each with the independent
check its output must pass. Commands run with the iteration directory as
their working directory and name their files relatively, so that two runs
with the same seed write byte-identical output.

Full sizes are those the benchmark measures; tiny sizes serve the warm-up
pass and the smoke test and exercise the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from gen_diverse import SplitMix64, write_diverse_trace

# check(stdout, iteration_dir) -> problems
Check = Callable[[bytes, Path], list]


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # files the command writes with -o
    check: Check | None = None


@dataclass
class Plan:
    """One workload instantiated for a seed and size."""

    commands: list[Command]
    prepare: Callable[[Path], None] = lambda directory: None
    # Trace file whose properties are recorded with the results.
    trace_file: str | None = None
    parameters: dict = field(default_factory=dict)


def check_output(command: Command, stdout: bytes, directory: Path) -> list[str]:
    """Problems found in one command's output; unreadable output is one."""
    if command.check is None:
        return []
    try:
        return command.check(stdout, directory)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return [f"output unreadable: {exc!r}"]


def _simulate_check(catalog_path: Path, trace_file: str) -> Check:
    def check(stdout: bytes, directory: Path) -> list:
        entries = checks.read_decimal_json(directory / trace_file)
        return checks.check_simulation(checks.report(stdout), entries, checks.function_prices(catalog_path))
    return check


def sim_uniform(seed: int, tiny: bool, catalog_path: Path) -> Plan:
    count = 500 if tiny else 100_000
    reference: dict = {}

    def prepare(directory: Path) -> None:
        reference["arrivals"] = checks.poisson_arrivals(seed, count, 50.0)

    poisson = ("workload", "trace", "--arrivals", "poisson", "--count", str(count), "--rate", "50",
               "--duration", "0.25", "--seed", str(seed), "-o", "trace.json")
    return Plan(
        commands=[
            Command("workload trace", poisson, ("trace.json",),
                    lambda out, d: checks.check_poisson_trace(d / "trace.json", reference["arrivals"],
                                                              "0.25", "0.125")),
            Command("simulate", ("simulate", "--trace", "trace.json", "--keep-alive", "600", "--t-env", "2"),
                    check=_simulate_check(catalog_path, "trace.json")),
        ],
        prepare=prepare,
        trace_file="trace.json",
        parameters={"count": count, "rate_per_s": 50, "duration_s": 0.25, "keep_alive_s": 600, "t_env_s": 2},
    )


def sim_diverse(seed: int, tiny: bool, catalog_path: Path) -> Plan:
    count = 1_000 if tiny else 100_000
    simulate = ("simulate", "--trace", "trace.json", "--keep-alive", "10", "--t-env", "2",
                "--t-app", "0.3", "--prestarted", "200")
    return Plan(
        commands=[Command("simulate", simulate, check=_simulate_check(catalog_path, "trace.json"))],
        prepare=lambda directory: write_diverse_trace(directory / "trace.json", seed, count),
        trace_file="trace.json",
        parameters={"count": count, "keep_alive_s": 10, "t_env_s": 2, "t_app_s": 0.3, "prestarted": 200},
    )


def graph_place(seed: int, tiny: bool, catalog_path: Path) -> Plan:
    # The seed picks the bytes each edge carries; graph shapes are fixed.
    rng = SplitMix64(seed)
    block_dim = 192 + rng.next_u64() % 129
    shuffle_bytes = 10**6 * (1 + rng.next_u64() % 8)
    blocks, chol_instances = (6, 10) if tiny else (48, 3000)
    side, shuf_instances = (8, 4) if tiny else (400, 100)
    slots = 8
    reference: dict = {}

    def prepare(directory: Path) -> None:
        reference["cholesky"] = checks.cholesky_reference(blocks)
        reference["shuffle"] = checks.shuffle_reference(side, side)

    def shape(name, gen_args, graph, edge_bytes, instances):
        def check_gen(out, d):
            return checks.check_graph_file(d / graph, *reference[name], edge_bytes)

        def check_profile(out, d):
            return checks.check_profile(checks.report(out), len(reference[name][0]))

        return [
            Command(f"workload gen {name}", ("workload", "gen", *gen_args, "-o", graph), (graph,), check_gen),
            Command(f"workload profile {name}", ("workload", "profile", "--graph", graph), check=check_profile),
            Command(f"place {name}", ("place", "--graph", graph, "--instances", str(instances),
                                      "--slots", str(slots)),
                    check=lambda out, d: checks.check_placement(checks.report(out), d / graph, instances, slots)),
        ]

    commands = shape("cholesky", ("--kind", "cholesky", "--blocks", str(blocks), "--block-dim", str(block_dim)),
                     "chol.json", block_dim * block_dim * 8, chol_instances)
    commands += shape("shuffle", ("--kind", "shuffle", "--mappers", str(side), "--reducers", str(side),
                                  "--bytes", str(shuffle_bytes)),
                      "shuf.json", shuffle_bytes, shuf_instances)
    return Plan(commands, prepare=prepare, parameters={
        "cholesky": {"blocks": blocks, "block_dim": block_dim, "instances": chol_instances, "slots": slots},
        "shuffle": {"mappers": side, "reducers": side, "bytes": shuffle_bytes, "instances": shuf_instances,
                    "slots": slots},
    })


def _field(path: tuple, expected) -> Check:
    def check(stdout: bytes, directory: Path) -> list:
        value = checks.report(stdout)
        for key in path:
            value = value[key]
        return [] if value == expected else [f"{'.'.join(map(str, path))} is {value!r}, expected {expected!r}"]
    return check


def _repro_table(stdout: bytes, directory: Path) -> list:
    last = stdout.decode().strip().splitlines()[-1]
    expected = "22 passed, 0 failed, 5 external (not checked)"
    return [] if last == expected else [f"repro table ends {last!r}"]


def _catalog_services(stdout: bytes, directory: Path) -> list:
    result = checks.report(stdout)
    names = {entry["name"] for entry in result["compute"] + result["storage"]}
    return [] if {"object", "serverless", "serverful"} <= names else ["catalog lacks a bundled service"]


def _repro_json(stdout: bytes, directory: Path) -> list:
    result = checks.report(stdout)
    counts = (result["passed"], result["failed"], result["external"])
    return [] if counts == (22, 0, 5) else [f"repro pass/fail/external is {counts}"]


def desk_queries(seed: int, tiny: bool, catalog_path: Path) -> Plan:
    """The README's quick commands; fixed inputs, so the seed changes nothing."""
    return Plan([
        Command("catalog show", ("catalog", "show"), check=_catalog_services),
        Command("catalog cost capacity", ("catalog", "cost", "--service", "object", "--capacity-gb", "1"),
                check=_field(("capacity_usd",), 0.023)),
        Command("catalog cost iops", ("catalog", "cost", "--service", "object", "--iops", "100000",
                                      "--per", "minute", "--mix", "1.0"),
                check=_field(("iops_usd_per_minute",), 30.0)),
        Command("comm", ("comm", "--pattern", "shuffle", "--n", "2", "--k", "2", "--granularity", "function"),
                check=_field(("messages",), 16)),
        Command("shuffle plan", ("shuffle", "plan", "--data", "100TB", "--block", "3GB", "--stages", "50"),
                check=_field(("fast_storage_human",), "2 TB")),
        Command("shuffle price", ("shuffle", "price", "--preset", "cloudsort100tb"),
                check=_field(("cost", "total_usd"), 163.0)),
        Command("breakeven", ("breakeven", "--ratio", "7.5"), check=_field(("breakeven_percent",), "13.33%")),
        Command("repro json", ("repro",), check=_repro_json),
        Command("repro table", ("repro", "--format", "table"), check=_repro_table),
        Command("workload gen paramserver", ("workload", "gen", "--kind", "paramserver"),
                check=lambda out, d: [] if len(checks.report(out)) == 2 else ["paramserver round is not 2 scenarios"]),
    ])


WORKLOADS = {
    "sim-uniform": sim_uniform,
    "sim-diverse": sim_diverse,
    "graph-place": graph_place,
    "desk-queries": desk_queries,
}
