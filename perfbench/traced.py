"""Traced in-process pass over all four workloads: the per-layer metrics.

The public functions of each faasim layer module are wrapped in spans by
this file (faasim itself is not modified), then every workload's command
sequence runs through `faasim.cli.main` in this process, so the spans sit
around exactly the calls the CLI makes. Each command is preceded by a
fresh interpreter importing `faasim.cli`, the start-up cost a CLI user
pays, so the traced command time stands beside the untraced host wall
time (`wall_host_s`).

A span records name, start, end, parent, workload, group (the graph shape
in graph-place) and run id. Spans stay in memory and are written when the
pass ends, each with its self time: duration minus the time its child
spans cover. Layer times below are inclusive totals per workload: a call
nested in another layer (asap_levels inside load_task_graph, say) counts
for both. Exact counts are read from the same calls' return values.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import suite

# (module, class or None, attribute, span name): the layer calls to trace.
LAYER_CALLS = (
    ("faasim.catalog", None, "loads_catalog", "catalog.load"),
    ("faasim.workloads", None, "poisson_trace", "workloads.poisson_trace"),
    ("faasim.workloads", None, "load_trace", "workloads.trace_load"),
    ("faasim.workloads", None, "gen_cholesky_dag", "workloads.gen_cholesky"),
    ("faasim.workloads", None, "gen_shuffle_dag", "workloads.gen_shuffle"),
    ("faasim.workloads", None, "load_task_graph", "workloads.graph_load"),
    ("faasim.workloads", None, "asap_levels", "workloads.asap_levels"),
    ("faasim.placement", None, "asap_levels", "workloads.asap_levels"),
    ("faasim.workloads", None, "parallelism_profile", "workloads.profile"),
    ("faasim.simcore", None, "simulate", "simcore.simulate"),
    ("faasim.simcore", "SimResult", "to_json_dict", "simcore.to_json"),
    ("faasim.placement", None, "place_greedy", "placement.greedy"),
    ("faasim.placement", None, "evaluate", "placement.evaluate"),
    ("faasim.placement", None, "singleton_placement", "placement.singleton"),
    ("faasim.shuffleplan", None, "load_preset", "shuffleplan.preset"),
    ("faasim.shuffleplan", None, "run_preset", "shuffleplan.preset"),
    ("faasim.commpatterns", None, "scenario_report", "commpatterns.report"),
    ("faasim.repro", None, "run_all", "repro.run_all"),
    ("faasim.cli", "Report", "emit", "cli.render"),
)

SIM_TIMES = ("cli.import", "catalog.load", "workloads.trace_load", "simcore.simulate", "simcore.billing",
             "simcore.event_loop", "simcore.to_json", "cli.render")
SIM_COUNTS = ("simcore.invocations", "simcore.rejected", "simcore.cold_starts", "simcore.instances_created",
              "simcore.peak_concurrency", "workloads.billing_keys")
GRAPH_TIMES = ("workloads.graph_load", "workloads.asap_levels", "workloads.profile", "placement.greedy",
               "placement.evaluate", "placement.singleton", "cli.render")
GRAPH_COUNTS = ("workloads.tasks", "workloads.edges", "workloads.levels", "placement.remote_messages")
DESK_TIMES = ("cli.import", "catalog.load", "repro.run_all", "shuffleplan.preset", "commpatterns.report",
              "cli.render")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for workload, times in (("sim-uniform", ("workloads.poisson_trace",) + SIM_TIMES),
                            ("sim-diverse", SIM_TIMES)):
        units |= {f"{workload}.{name}_s": "s" for name in times}
        units[f"{workload}.simcore.us_per_invocation"] = "us"
        units |= {f"{workload}.{name}": "count" for name in SIM_COUNTS}
    units["graph-place.cli.import_s"] = "s"
    for shape in ("cholesky", "shuffle"):
        prefix = f"graph-place.{shape}"
        units |= {f"{prefix}.{name}_s": "s" for name in (f"workloads.gen_{shape}",) + GRAPH_TIMES}
        units |= {f"{prefix}.{name}": "count" for name in GRAPH_COUNTS}
        units[f"{prefix}.placement.cross_instance_bytes"] = "bytes"
    units |= {f"desk-queries.{name}_s": "s" for name in DESK_TIMES}
    for workload in suite.WORKLOADS:
        units[f"{workload}.trace.wall_s"] = "s"
        units[f"{workload}.trace.layer_share"] = "fraction"
    units["trace.coverage"] = "fraction"
    return units


class Tracer:
    """In-memory spans around wrapped layer calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.workload: str | None = None
        self.group: str | None = None
        self.returns: dict = {}  # span name -> last return value
        self._open: list[dict] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **fields):
        record = {"id": len(self.spans), "name": name, "parent": self._open[-1]["id"] if self._open else None,
                  "workload": self.workload, "group": self.group, "run_id": self.run_id, **fields,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def instrument(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self.returns[name] = result
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def finished(self, origin: float) -> list[dict]:
        """Spans with start/end relative to `origin`, duration and self time."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [{**s, "start": s["start"] - origin, "end": s["end"] - origin,
                 "duration_s": s["end"] - s["start"], "self_s": s["end"] - s["start"] - covered[s["id"]]}
                for s in self.spans]


def layer_totals(spans: list[dict]) -> dict[tuple, float]:
    """(workload, group, name) -> total duration, not counting a span inside one of the same name."""
    by_id = {s["id"]: s for s in spans}
    totals: dict[tuple, float] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            key = (s["workload"], s["group"], s["name"])
            totals[key] = totals.get(key, 0.0) + s["duration_s"]
    return totals


def _billing_probe(tracer: Tracer, simcore, workloads, trace_path: Path, spec) -> None:
    """bill_invocation plus billed_units over the accepted entries, as simulate calls them."""
    trace = workloads.InvocationTrace.from_json(json.loads(trace_path.read_text(encoding="utf-8")))
    accepted = [inv for inv in trace.entries if Fraction(Decimal(repr(inv.duration_s))) <= spec.max_run_time_s]
    with tracer.span("simcore.billing"):
        for inv in accepted:
            simcore.bill_invocation(inv.duration_s, inv.memory_gb, spec)
            simcore.billed_units(inv.duration_s, spec)


def _sim_counts(result, trace_path: Path) -> dict:
    entries = json.loads(trace_path.read_text(encoding="utf-8"))
    return {
        "simcore.invocations": len(result.invocations),
        "simcore.rejected": len(result.rejected),
        "simcore.cold_starts": result.cold_starts,
        "simcore.instances_created": result.instances_created,
        "simcore.peak_concurrency": result.peak_concurrency,
        "workloads.billing_keys": len({(e["duration_s"], e["memory_gb"]) for e in entries}),
    }


def traced_run(seed: int, tiny: bool, src: Path, catalog_path: Path, env: dict, work: Path) -> dict:
    """Trace every workload once; `env` is the environment of the fresh-import subprocesses."""
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(name) for name in {call[0] for call in LAYER_CALLS}}
    cli, simcore, workloads = modules["faasim.cli"], modules["faasim.simcore"], modules["faasim.workloads"]
    spec = modules["faasim.catalog"].load_catalog(catalog_path).compute_service("serverless")

    tracer = Tracer(f"seed{seed}-pid{os.getpid()}")
    counts: dict[str, int] = {}
    problems: list[str] = []
    attempted = failed = 0
    directory = work / f"traced-{os.getpid()}"
    home = Path.cwd()
    origin = time.perf_counter()
    for module, owner, attribute, name in LAYER_CALLS:
        target = modules[module] if owner is None else getattr(modules[module], owner)
        tracer.instrument(target, attribute, name)
    try:
        for workload, make_plan in suite.WORKLOADS.items():
            plan = make_plan(seed, tiny, catalog_path)
            tracer.workload, tracer.group = workload, None
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
            outputs = []
            os.chdir(directory)
            try:
                with tracer.span("workload"):
                    with tracer.span("perfbench.setup"):
                        plan.prepare(directory)
                    for command in plan.commands:
                        # graph-place labels end with the graph shape: "place cholesky".
                        tracer.group = command.label.split()[-1] if workload == "graph-place" else None
                        out, err = io.StringIO(), io.StringIO()
                        with tracer.span("command", label=command.label):
                            with tracer.span("cli.import"):
                                subprocess.run([sys.executable, "-c", "import faasim.cli"], env=env, check=True)
                            with tracer.span("cli.main"):
                                code = cli.main(list(command.args), out=out, err=err)
                        outputs.append((command, code, out.getvalue().encode(), err.getvalue()))
                        # A failed command is reported below and has nothing to count.
                        if code == 0 and command.label == "simulate":
                            counts |= {f"{workload}.{k}": v for k, v in
                                       _sim_counts(tracer.returns["simcore.simulate"], directory / "trace.json").items()}
                        elif code == 0 and command.label.startswith("place"):
                            graph = tracer.returns["workloads.graph_load"]
                            greedy = tracer.returns["placement.greedy"]
                            prefix = f"{workload}.{tracer.group}"
                            counts |= {f"{prefix}.workloads.tasks": graph.task_count,
                                       f"{prefix}.workloads.edges": graph.edge_count,
                                       f"{prefix}.workloads.levels": len(tracer.returns["workloads.profile"].levels),
                                       f"{prefix}.placement.cross_instance_bytes": greedy.cross_instance_bytes,
                                       f"{prefix}.placement.remote_messages": greedy.remote_message_count}
                    tracer.returns.clear()
                    tracer.group = None
                    if plan.trace_file:
                        _billing_probe(tracer, simcore, workloads, directory / plan.trace_file, spec)
                for command, code, stdout, stderr in outputs:
                    found = [f"exit status {code}: {stderr.strip()[-300:]}"] if code else \
                        suite.check_output(command, stdout, directory)
                    attempted += 1
                    failed += bool(found)
                    problems += [f"{workload}: {command.label}: {p}" for p in found]
            finally:
                os.chdir(home)
                shutil.rmtree(directory, ignore_errors=True)
    finally:
        tracer.restore()
    wall_s = time.perf_counter() - origin
    spans = tracer.finished(origin)
    record = summarize(spans, counts, wall_s)
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"spans-seed{seed}.json").write_text(json.dumps(spans, indent=1) + "\n", encoding="utf-8")
    return record | {"attempted": attempted, "failed": failed, "problems": problems}


def summarize(spans: list[dict], counts: dict, wall_s: float) -> dict:
    """Per-layer metrics from finished spans and exact counts."""
    totals = layer_totals(spans)
    values: dict[str, float] = dict(counts)
    for (workload, group, name), total in totals.items():
        prefix = workload if group is None else f"{workload}.{group}"
        values[f"{prefix}.{name}_s"] = total
    workload_wall = {}
    for workload in suite.WORKLOADS:
        mine = [s for s in spans if s["workload"] == workload]
        values[f"{workload}.cli.import_s"] = statistics.median(
            s["duration_s"] for s in mine if s["name"] == "cli.import")
        commands = sum(s["duration_s"] for s in mine if s["name"] == "command")
        glue = sum(s["self_s"] for s in mine if s["name"] in ("command", "cli.main"))
        workload_wall[workload] = values[f"{workload}.trace.wall_s"] = commands
        values[f"{workload}.trace.layer_share"] = 1 - glue / commands
        if f"{workload}.simcore.invocations" in values:  # a sim workload whose simulate succeeded
            simulate = values[f"{workload}.simcore.simulate_s"]
            values[f"{workload}.simcore.event_loop_s"] = simulate - values[f"{workload}.simcore.billing_s"]
            entries = values[f"{workload}.simcore.invocations"] + values[f"{workload}.simcore.rejected"]
            values[f"{workload}.simcore.us_per_invocation"] = simulate / entries * 1e6
    values["trace.coverage"] = sum(s["duration_s"] for s in spans if s["parent"] is None) / wall_s

    units = metric_units()
    return {
        "trace": 1,
        "wall_s": wall_s,
        "coverage": values["trace.coverage"],
        "workload_wall_s": workload_wall,
        "derived": ["simcore.event_loop_s = simcore.simulate_s - simcore.billing_s",
                    "simcore.us_per_invocation = simcore.simulate_s / trace entries"],
        # A layer that a failed command never reached has no value (null).
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
        "other_layer_totals": {k: v for k, v in values.items() if k not in units},
    }
