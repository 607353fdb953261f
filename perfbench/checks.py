"""Independent checks of faasim's command outputs.

Nothing here imports faasim: prices come straight from the catalog JSON,
billing is recomputed from each duration's decimal literal with exact
fractions, and placements are re-scored from the graph file. Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

from gen_diverse import SplitMix64


def report(stdout: bytes) -> dict:
    """The `result` payload of a JSON report."""
    return json.loads(stdout)["result"]


def read_decimal_json(path: Path):
    """JSON with every non-integer number read as the Decimal literal written."""
    return json.loads(path.read_text(encoding="utf-8"), parse_float=Decimal)


def expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# Invocation traces and the simulator


def function_prices(catalog_path: Path, service: str = "serverless") -> dict:
    """Billing terms of one compute service, read from the catalog JSON."""
    doc = read_decimal_json(catalog_path)
    entry = next(e for e in doc["compute"] if e["name"] == service)
    return {
        "unit_s": Fraction(entry["accounting_unit_s"]),
        "price_per_unit": Fraction(entry["price_usd_per_unit_at_base_memory"]),
        "base_memory_gib": Fraction(entry["base_memory_gib"]),
        "request_fee": Fraction(entry.get("request_fee_usd_per_invocation", 0)),
        "max_run_time_s": Fraction(entry["max_run_time_s"]),
    }


def trace_properties(entries: list[dict]) -> dict:
    """The input properties the simulator's cost depends on.

    The over-limit share counts entries above the bundled catalog's 900 s
    function run-time limit.
    """
    over = sum(1 for e in entries if e["duration_s"] > 900)
    return {
        "entries": len(entries),
        "billing_keys": len({(e["duration_s"], e["memory_gb"]) for e in entries}),
        "memory_classes": sorted(str(m) for m in {e["memory_gb"] for e in entries}),
        "over_limit_share": over / len(entries) if entries else 0.0,
        "span_s": float(entries[-1]["arrival_s"] - entries[0]["arrival_s"]) if entries else 0.0,
    }


def poisson_arrivals(seed: int, count: int, rate_per_s: float) -> list[float]:
    """Arrival times of faasim's documented Poisson generator.

    gap_i = -ln(1 - u_i) / rate, u_i the i-th splitmix64 uniform draw.
    """
    rng = SplitMix64(seed)
    now = 0.0
    arrivals = []
    for _ in range(count):
        now += -math.log(1.0 - rng.uniform()) / rate_per_s
        arrivals.append(now)
    return arrivals


def check_poisson_trace(trace_path: Path, arrivals: list[float], duration: str, memory: str) -> list[str]:
    problems: list[str] = []
    entries = read_decimal_json(trace_path)
    expect(problems, [float(e["arrival_s"]) for e in entries] == arrivals,
           "trace arrivals differ from the documented splitmix64 inverse-CDF generator")
    expect(problems, all(e["duration_s"] == Decimal(duration) and e["memory_gb"] == Decimal(memory)
                         for e in entries), "trace durations or memory differ from the command line")
    return problems


def check_simulation(result: dict, entries: list[dict], prices: dict) -> list[str]:
    """Totals of a `simulate` report against an exact recomputation."""
    problems: list[str] = []
    limit = prices["max_run_time_s"]
    over = [i for i, e in enumerate(entries) if Fraction(e["duration_s"]) > limit]
    expect(problems, len(result["invocations"]) + len(result["rejected"]) == len(entries),
           "invocations + rejected differs from the number of trace entries")
    expect(problems, [r["index"] for r in result["rejected"]] == over,
           "rejected entries are not exactly those over the run-time limit")

    over_set = set(over)
    keys = Counter((e["duration_s"], e["memory_gb"]) for i, e in enumerate(entries) if i not in over_set)
    units = 0
    cost = Fraction(0)
    for (duration, memory), n in keys.items():
        per_call = math.ceil(Fraction(duration) / prices["unit_s"])
        units += n * per_call
        cost += n * (per_call * prices["price_per_unit"] * Fraction(memory) / prices["base_memory_gib"]
                     + prices["request_fee"])
    expect(problems, result["billed_units"] == units,
           f"billed_units {result['billed_units']} != recomputed {units}")
    rounded = (Decimal(cost.numerator) / Decimal(cost.denominator)).quantize(
        Decimal("0.000001"), rounding=ROUND_HALF_UP)
    expect(problems, result["cost_usd"] == float(rounded),
           f"cost_usd {result['cost_usd']} != recomputed {rounded}")
    expect(problems, result["cold_starts"] == result["instances_created"],
           "cold_starts differs from instances_created")
    return problems


# ---------------------------------------------------------------------------
# Task graphs and placement


def cholesky_reference(blocks: int) -> tuple[set, set]:
    """(task ids, edges) of the right-looking blocked Cholesky graph.

    Built as dataflow over tiles rather than by faasim's generator: step k
    factorizes tile (k, k), solves tiles (k, j) for j > k, and updates
    tiles (i, j) for k < i <= j from solves i and j. Every task reads the
    last update of the tile it works on.
    """
    last_update: dict[tuple[int, int], str] = {}
    tasks: set[str] = set()
    edges: set[tuple[str, str]] = set()

    def add(task: str, tile: tuple[int, int], *sources: str) -> None:
        tasks.add(task)
        edges.update((source, task) for source in sources)
        if tile in last_update:
            edges.add((last_update[tile], task))

    for k in range(blocks):
        add(f"f{k}", (k, k))
        for j in range(k + 1, blocks):
            add(f"s{k}.{j}", (k, j), f"f{k}")
        for i in range(k + 1, blocks):
            for j in range(i, blocks):
                update = f"u{k}.{i}.{j}"
                add(update, (i, j), f"s{k}.{i}", f"s{k}.{j}")
                last_update[(i, j)] = update
    return tasks, edges


def shuffle_reference(mappers: int, reducers: int) -> tuple[set, set]:
    """(task ids, edges) of a bipartite shuffle: every mapper feeds every reducer."""
    width = max(len(str(mappers - 1)), len(str(reducers - 1)))
    maps = [f"m{i:0{width}d}" for i in range(mappers)]
    reduces = [f"r{j:0{width}d}" for j in range(reducers)]
    return set(maps + reduces), {(m, r) for m in maps for r in reduces}


def check_graph_file(path: Path, tasks: set, edges: set, edge_bytes: int) -> list[str]:
    problems: list[str] = []
    doc = json.loads(path.read_text(encoding="utf-8"))
    expect(problems, len(doc["tasks"]) == len(tasks) and {t["id"] for t in doc["tasks"]} == tasks,
           "graph tasks differ from the reference graph")
    expect(problems, len(doc["edges"]) == len(edges) and {(e["src"], e["dst"]) for e in doc["edges"]} == edges,
           "graph edges differ from the reference graph")
    expect(problems, all(e["bytes"] == edge_bytes for e in doc["edges"]), f"edge bytes differ from {edge_bytes}")
    return problems


def check_profile(result: dict, tasks: int) -> list[str]:
    widths = [level["ready_task_count"] for level in result["levels"]]
    return [] if sum(widths) == tasks else [f"profile widths sum to {sum(widths)}, expected {tasks}"]


def check_placement(result: dict, graph_path: Path, instances: int, slots: int) -> list[str]:
    problems: list[str] = []
    graph = json.loads(graph_path.read_text(encoding="utf-8"))
    placement = result["placement"]
    assignment = placement["assignment"]
    expect(problems, set(assignment) == {t["id"] for t in graph["tasks"]},
           "assignment does not seat every task exactly once")
    seats = [tuple(seat) for seat in assignment.values()]
    expect(problems, len(set(seats)) == len(seats), "a slot is double-booked")
    expect(problems, all(0 <= i < instances and 0 <= s < slots for i, s in seats),
           "a seat lies outside the instance or slot range")
    per_instance = Counter(i for i, _ in seats)
    expect(problems, max(per_instance.values(), default=0) <= slots, "an instance holds more tasks than slots")
    cross = sum(e["bytes"] for e in graph["edges"] if assignment[e["src"]][0] != assignment[e["dst"]][0])
    expect(problems, placement["cross_instance_bytes"] == cross,
           f"cross_instance_bytes {placement['cross_instance_bytes']} != recomputed {cross}")
    comparison = result["comparison"]
    expect(problems, comparison["greedy"]["cross_instance_bytes"] == cross,
           "comparison.greedy disagrees with the placement")
    expect(problems, cross <= comparison["singleton_baseline"]["cross_instance_bytes"],
           "greedy placement is worse than the singleton baseline")
    return problems
