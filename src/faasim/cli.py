"""Command-line interface.

Every handler returns a `Report`, and `Report.emit` alone renders it, in
one of three formats: `json` (an envelope with a run manifest and the
result), `table` (aligned key/value or grid output), or `csv`. `main`
alone picks the exit status: 0, or 1 for a bug or a failed `repro` check,
or 2 for bad input (an invalid value, a malformed or unreadable file, an
unwritable output path), which prints a single `error: ...` line. The
program ends by SIGPIPE, as `cat` does, when its stdout is closed.

The catalog is resolved from --catalog, then the FAASIM_CATALOG
environment variable, then the bundled default, which the manifest
records as `bundled:default_catalog.json`.

Each handler imports the modules it runs, so a command compiles only those.

`main` pauses cyclic garbage collection while a handler runs and its report
renders, then restores the caller's setting, so that no collection rescans
the many tuples and lists the graph commands keep alive. This relies on command data holding no
reference cycles, which only a collection would free.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, jsontext
from .money import report_float, usd, usd_json, usd_str

EXIT_OK, EXIT_INTERNAL, EXIT_USAGE = 0, 1, 2

# Manifest name of the bundled catalog; its sha256 identifies the bytes.
BUNDLED_CATALOG = "bundled:default_catalog.json"


# ---------------------------------------------------------------------------
# Rendering


def _render_table(rows: list[tuple[str, str]], out) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        out.write(f"{key.ljust(width)}  {value}\n")


def _render_grid(headers: list[str], rows: list[list[str]], out, fmt: str) -> None:
    if fmt == "csv":
        import csv
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return
    table = [headers] + rows
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    for row in table:
        out.write("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n")


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, (list, jsontext.Table)):
        rows.append((prefix, json.dumps(value, default=list)))
    else:
        rows.append((prefix, str(value)))


class Report:
    """A run manifest plus a result payload, rendered once, in any format. In table and csv format, `grids` (an
    iterable of (headers, rows), read only there) stand in for the result's key/value rows, and in table format
    `footer` follows them. `failed` marks a result that reports a failure, a repro check's."""

    def __init__(self, subcommand: str, parameters: dict, result, inputs=(), catalog_sha256=None, seed=None,
                 grids=None, footer="", failed=False):
        self.manifest = {
            "subcommand": subcommand,
            "version": __version__,
            "parameters": parameters,
            "inputs": list(inputs),
            "catalog_sha256": catalog_sha256,
            "seed": seed,
        }
        self.result = result
        self.grids, self.footer, self.failed = grids, footer, failed

    def emit(self, fmt: str, out) -> None:
        if fmt == "json":
            jsontext.write(out, {"manifest": self.manifest, "result": self.result}, sort_keys=True)
        elif self.grids is not None:
            for at, (headers, rows) in enumerate(self.grids):
                out.write("\n" if at else "")
                _render_grid(headers, rows, out, fmt)
            if fmt == "table":
                out.write(self.footer)
        else:
            rows: list[tuple[str, str]] = []
            _flatten("", self.result, rows)
            if fmt == "table":
                _render_table(rows, out)
            else:
                _render_grid(["key", "value"], rows, out, "csv")


def _money_out(amount: Fraction, args) -> float | str:
    """Currency for a report: 6-dp JSON number, or full precision on request."""
    if args.full_precision:
        return usd_str(amount, None)
    return usd_json(amount)


# ---------------------------------------------------------------------------
# Catalog resolution


def _load_catalog(args):
    """The catalog, the name the manifest records for it, and its sha256."""
    import hashlib
    from . import catalog as cat
    source = args.catalog or os.environ.get("FAASIM_CATALOG")
    if source:
        name, data = str(Path(source)), Path(source).read_bytes()
    else:
        name, data = BUNDLED_CATALOG, cat.default_catalog_path().read_bytes()
    return cat.loads_catalog(data.decode("utf-8")), name, hashlib.sha256(data).hexdigest()


def _parse_bytes(text: str, args) -> int:
    from .units import parse_bytes
    return parse_bytes(text, binary=args.binary_units)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _catalog_grids(catalog):
    """The storage grid, then the compute grid if there is compute; a generator, so a json report makes neither."""
    from . import catalog as cat
    headers = ["service", "class", "fn access", "provisioning", "persistence",
               "latency ms", "$/GB-mo", "$/MBps-mo", "$/IOPS-mo"]
    rows = []
    for spec in catalog.storage.values():
        rows.append([
            spec.name, spec.storage_class, "yes" if spec.function_accessible else "no",
            spec.provisioning, spec.persistence,
            f"{float(spec.latency_ms.low):g}-{float(spec.latency_ms.high):g}",
            usd_str(spec.capacity_usd_per_gb_month.mid, 4),
            usd_str(spec.throughput_usd_per_mbps_month.mid, 4),
            usd_str(cat.iops_month_cost(spec, 1), 4),
        ])
    yield headers, rows
    if catalog.compute:
        headers = ["service", "kind", "memory GiB", "unit s", "$/unit", "max run s"]
        rows = []
        for spec in catalog.compute.values():
            rows.append([
                spec.name, spec.kind,
                f"{float(spec.memory_min_gib):g}-{float(spec.memory_max_gib):g}",
                f"{float(spec.accounting_unit_s):g}",
                usd_str(spec.price_usd_per_unit, None).rstrip("0").rstrip("."),
                "none" if spec.max_run_time_s is None else f"{float(spec.max_run_time_s):g}",
            ])
        yield headers, rows


def _cmd_catalog_show(args) -> Report:
    from . import catalog as cat
    catalog, source, digest = _load_catalog(args)
    return Report("catalog show", {}, cat.catalog_json_dict(catalog), [source], digest, grids=_catalog_grids(catalog))


def _cmd_catalog_cost(args) -> Report:
    from . import catalog as cat
    catalog, source, digest = _load_catalog(args)
    service = catalog.storage_service(args.service)
    params: dict = {"service": args.service}
    costs: dict[str, Fraction] = {}
    if args.capacity_gb is not None:
        costs["capacity_usd"] = cat.capacity_cost(service, args.capacity_gb, args.months)
        params |= {"capacity_gb": args.capacity_gb, "months": args.months}
    if args.reads or args.writes:
        costs["request_usd"] = cat.request_cost(service, args.reads, args.writes)
        params |= {"reads": args.reads, "writes": args.writes}
    if args.iops is not None:
        params |= {"iops": args.iops, "per": args.per, "mix": args.mix}
        if args.per == "minute":
            costs["iops_usd_per_minute"] = cat.sustained_iops_rate_cost(service, args.iops, args.mix)
        else:
            costs["iops_usd_per_month"] = cat.iops_month_cost(service, args.iops)
    if not costs:
        raise ValueError("nothing to price: give --capacity-gb, --iops, or --reads/--writes")
    costs["total_usd"] = sum(costs.values(), Fraction(0))
    result = {"service": args.service} | {key: _money_out(value, args) for key, value in costs.items()}
    return Report("catalog cost", params, result, [source], digest)


def _cmd_comm(args) -> Report:
    from . import commpatterns as comm
    granularity = {"vm": "vm-grouped", "function": "function-grained"}.get(args.granularity, args.granularity)
    payload = _parse_bytes(args.payload, args)
    scenario = comm.CommScenario(
        pattern=args.pattern,
        deployment=comm.Deployment(args.n, args.k, granularity),
        payload_bytes=payload,
    )
    result = comm.scenario_report(scenario)
    result["overhead_ratio_vs_grouped"] = comm.traffic_overhead_ratio(args.pattern, args.k)
    params = {"pattern": args.pattern, "n": args.n, "k": args.k,
              "granularity": granularity, "payload_bytes": payload}
    return Report("comm", params, result)


def _plan_result(plan) -> dict:
    from .units import format_bytes
    return {
        "mappers": plan.mappers,
        "reducers": plan.reducers,
        "transfers": plan.transfers,
        "io_ops": plan.io_ops,
        "stages": plan.stages,
        "per_stage_transfers": plan.per_stage_transfers,
        "fast_storage_bytes": plan.fast_storage_bytes,
        "fast_storage_human": format_bytes(plan.fast_storage_bytes),
    }


def _cmd_shuffle_plan(args) -> Report:
    from . import shuffleplan as shp
    data = _parse_bytes(args.data, args)
    block = _parse_bytes(args.block, args)
    plan = shp.plan(shp.ShuffleProblem(data, block, args.stages))
    params = {"data_bytes": data, "block_bytes": block, "stages": args.stages}
    return Report("shuffle plan", params, _plan_result(plan))


def _breakdown_result(breakdown, args) -> dict:
    return {
        "compute_usd": _money_out(breakdown.compute_usd, args),
        "slow_store_request_usd": _money_out(breakdown.slow_store_request_usd, args),
        "fast_store_usd": _money_out(breakdown.fast_store_usd, args),
        "total_usd": _money_out(breakdown.total_usd, args),
        "duration_s": breakdown.duration_s,
    }


def _cmd_shuffle_price(args) -> Report:
    from . import shuffleplan as shp
    catalog, source, digest = _load_catalog(args)
    if args.preset:
        preset = shp.load_preset(args.preset)
        plan, breakdown = shp.run_preset(preset, catalog)
        params = {"preset": args.preset}
        result = {
            "preset": preset.name,
            "plan": _plan_result(plan),
            "cost": _breakdown_result(breakdown, args),
            "expected_usd": {k: usd_json(v) for k, v in preset.expected_usd.items()},
        }
    else:
        if args.data is None:
            raise ValueError("give --preset or --data/--block/--stages")
        data = _parse_bytes(args.data, args)
        block = _parse_bytes(args.block, args)
        plan = shp.plan(shp.ShuffleProblem(data, block, args.stages))
        exec_inputs = shp.ShuffleExec(
            function_gb_seconds=usd(args.gb_seconds),
            fast_store_gb_hours=usd(args.gb_hours),
            slow_store_write_fraction=usd(args.write_fraction),
            slow_store_ops=args.slow_ops,
        )
        breakdown = shp.price_plan(plan, catalog, exec_inputs)
        params = {"data_bytes": data, "block_bytes": block, "stages": args.stages,
                  "gb_seconds": args.gb_seconds, "gb_hours": args.gb_hours,
                  "write_fraction": args.write_fraction, "slow_ops": args.slow_ops}
        result = {"plan": _plan_result(plan), "cost": _breakdown_result(breakdown, args)}
    return Report("shuffle price", params, result, [source], digest)


def _write_or_print(doc, args, subcommand, params, seed=None) -> Report:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as file:
            jsontext.write(file, doc)
        doc = {"written": args.output}
    return Report(subcommand, params, doc, seed=seed)


def _cmd_workload_gen(args) -> Report:
    from . import commpatterns as comm, workloads as wl
    if args.kind == "shuffle":
        graph = wl.gen_shuffle_dag(args.mappers, args.reducers, _parse_bytes(args.bytes, args))
        params = {"kind": "shuffle", "mappers": args.mappers, "reducers": args.reducers}
        if isinstance(graph, wl.ShuffleDagSpec):
            if args.output:  # only a graph within the limit can be written
                wl.check_budget(graph.edge_count, "shuffle edges")
            result = {"implicit": True, "task_count": graph.task_count, "edge_count": graph.edge_count,
                      "total_edge_bytes": graph.total_edge_bytes}
            return Report("workload gen", params, result)
        doc = graph.to_json_dict()
    elif args.kind == "cholesky":
        graph = wl.gen_cholesky_dag(args.blocks, block_dim=args.block_dim)
        params = {"kind": "cholesky", "blocks": args.blocks, "block_dim": args.block_dim}
        doc = graph.to_json_dict()
    else:
        scenarios = wl.gen_paramserver(args.workers, args.rounds, _parse_bytes(args.gradient, args))
        params = {"kind": "paramserver", "workers": args.workers, "rounds": args.rounds}
        doc = [comm.scenario_report(s) for s in scenarios]
    return _write_or_print(doc, args, "workload gen", params)


def _cmd_workload_profile(args) -> Report:
    from . import workloads as wl
    graph = wl.load_task_graph(args.graph)
    profile = wl.parallelism_profile(graph)
    params = {"graph": args.graph}
    return Report("workload profile", params, profile.to_json_dict(), [args.graph])


def _cmd_workload_trace(args) -> Report:
    from . import workloads as wl
    if args.arrivals == "poisson":
        trace = wl.poisson_trace(args.count, args.rate, args.duration, args.memory, args.seed)
    else:
        trace = wl.fixed_interval_trace(args.count, args.interval, args.duration, args.memory)
    params = dict(trace.metadata)
    return _write_or_print(trace.to_json_list(), args, "workload trace", params, seed=args.seed)


def _cmd_simulate(args) -> Report:
    from . import simcore as sim, workloads as wl
    catalog, source, digest = _load_catalog(args)
    trace = wl.load_trace(args.trace)
    platform = sim.PlatformConfig(
        compute=catalog.compute_service(args.service),
        cold_start=sim.ColdStartModel(args.t_schedule, args.t_env, args.t_app),
        keep_alive_s=args.keep_alive,
        warm_pool_prestarted=args.prestarted,
    )
    result = sim.simulate(trace, platform)
    params = {"service": args.service, "t_schedule": args.t_schedule, "t_env": args.t_env,
              "t_app": args.t_app, "keep_alive": args.keep_alive, "prestarted": args.prestarted}
    return Report("simulate", params, result.to_json_dict(), [args.trace, source], digest)


def _comm_counts(placed) -> dict:
    return {"cross_instance_bytes": placed.cross_instance_bytes, "remote_message_count": placed.remote_message_count}


def _cmd_place(args) -> Report:
    from . import placement as plc, workloads as wl
    graph = wl.load_task_graph(args.graph)
    problem = plc.PlacementProblem(graph, args.instances, args.slots)
    greedy = plc.place_greedy(problem)
    comparison = {"greedy": _comm_counts(greedy), "singleton_baseline": _comm_counts(plc.singleton_placement(graph))}
    if graph.task_count <= plc.EXHAUSTIVE_TASK_LIMIT:
        comparison["exhaustive_optimum"] = _comm_counts(plc.place_exhaustive(problem))
    result = {"placement": greedy.to_json_dict(), "comparison": comparison}
    params = {"graph": args.graph, "instances": args.instances, "slots": args.slots}
    return Report("place", params, result, [args.graph])


def _cmd_breakeven(args) -> Report:
    from . import simcore as sim
    ratio = sim.FALLACY_COST_RATIO if args.ratio is None else args.ratio
    duty = report_float(sim.breakeven_duty_cycle(ratio), "breakeven_duty_cycle")
    result = {
        "per_minute_cost_ratio": ratio,
        "breakeven_duty_cycle": round(duty, 6),
        "breakeven_percent": f"{report_float(duty * 100, 'breakeven_percent'):.2f}%",
    }
    return Report("breakeven", {"ratio": ratio}, result)


def _cmd_repro(args) -> Report:
    from . import repro as rp
    catalog, source, digest = _load_catalog(args)
    checks = rp.run_all(catalog)
    passed, failed, external = (sum(c.status == status for c in checks) for status in (rp.PASS, rp.FAIL, rp.EXTERNAL))
    result = {"checks": [c.to_json_dict() for c in checks], "passed": passed, "failed": failed, "external": external}
    rows = [[c.status.upper(), c.location, c.check_id, c.claim] for c in checks]
    return Report("repro", {}, result, [source], digest, grids=[(["status", "location", "check", "claim"], rows)],
                  footer=f"\n{passed} passed, {failed} failed, {external} external (not checked)\n",
                  failed=failed > 0)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faasim",
        description="Cost and performance modeling for serverless versus serverful deployments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    # Shared options, each on only the subcommands that read it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "table", "csv"], default="json")
    catalog = argparse.ArgumentParser(add_help=False)
    catalog.add_argument("--catalog", help="catalog JSON path (overrides FAASIM_CATALOG)")
    units = argparse.ArgumentParser(add_help=False)
    units.add_argument("--binary-units", action="store_true",
                       help="interpret KB/MB/GB/TB suffixes as powers of 1024")
    money = argparse.ArgumentParser(add_help=False)
    money.add_argument("--full-precision", action="store_true",
                       help="print currency at full precision instead of report rounding")

    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="inspect the service catalog and price primitives")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    p_show = catalog_sub.add_parser("show", parents=[common, catalog], help="render the catalog tables")
    p_show.set_defaults(handler=_cmd_catalog_show)
    p_cost = catalog_sub.add_parser("cost", parents=[common, catalog, money], help="price storage usage")
    p_cost.add_argument("--service", required=True)
    p_cost.add_argument("--capacity-gb", type=float)
    p_cost.add_argument("--months", type=float, default=1.0)
    p_cost.add_argument("--iops", type=float)
    p_cost.add_argument("--per", choices=["month", "minute"], default="month")
    p_cost.add_argument("--mix", type=float, default=0.5, help="write fraction for --per minute")
    p_cost.add_argument("--reads", type=int, default=0)
    p_cost.add_argument("--writes", type=int, default=0)
    p_cost.set_defaults(handler=_cmd_catalog_cost)

    p_comm = sub.add_parser("comm", parents=[common, units], help="count messages for a communication pattern")
    # commpatterns.PATTERNS, spelled out so that building the parser loads no model.
    p_comm.add_argument("--pattern", choices=["aggregation", "broadcast", "shuffle"], required=True)
    p_comm.add_argument("--n", type=int, required=True, help="instance count")
    p_comm.add_argument("--k", type=int, default=1, help="functions per instance")
    p_comm.add_argument("--granularity", choices=["vm", "function", "vm-grouped", "function-grained"],
                        default="vm")
    p_comm.add_argument("--payload", default="0", help="bytes per logical message, e.g. 4MB")
    p_comm.set_defaults(handler=_cmd_comm)

    p_shuffle = sub.add_parser("shuffle", help="plan and price staged shuffles")
    shuffle_sub = p_shuffle.add_subparsers(dest="shuffle_command", required=True)
    p_plan = shuffle_sub.add_parser("plan", parents=[common, units], help="derive block/transfer/storage counts")
    p_plan.add_argument("--data", required=True, help="total bytes to shuffle, e.g. 100TB")
    p_plan.add_argument("--block", default="3GB", help="per-function memory cap")
    p_plan.add_argument("--stages", type=int, default=1)
    p_plan.set_defaults(handler=_cmd_shuffle_plan)
    p_price = shuffle_sub.add_parser("price", parents=[common, catalog, units, money],
                                     help="price a plan or bundled preset")
    p_price.add_argument("--preset", help="bundled preset name or JSON path")
    p_price.add_argument("--data")
    p_price.add_argument("--block", default="3GB")
    p_price.add_argument("--stages", type=int, default=1)
    p_price.add_argument("--gb-seconds", default="0", help="aggregate function GiB-seconds")
    p_price.add_argument("--gb-hours", default="0", help="fast-store GB-hours rented")
    p_price.add_argument("--write-fraction", default="1/2")
    p_price.add_argument("--slow-ops", type=int, help="override request count billed to the slow store")
    p_price.set_defaults(handler=_cmd_shuffle_price)

    p_workload = sub.add_parser("workload", help="generate and inspect workloads")
    workload_sub = p_workload.add_subparsers(dest="workload_command", required=True)
    p_gen = workload_sub.add_parser("gen", parents=[common, units], help="emit a task graph or scenario list")
    p_gen.add_argument("--kind", choices=["shuffle", "cholesky", "paramserver"], required=True)
    p_gen.add_argument("--mappers", type=int, default=2)
    p_gen.add_argument("--reducers", type=int, default=2)
    p_gen.add_argument("--bytes", default="1MB", help="bytes per shuffle transfer")
    p_gen.add_argument("--blocks", type=int, default=4, help="tiles per dimension for cholesky")
    p_gen.add_argument("--block-dim", type=int, default=256)
    p_gen.add_argument("--workers", type=int, default=10)
    p_gen.add_argument("--rounds", type=int, default=1)
    p_gen.add_argument("--gradient", default="4MB")
    p_gen.add_argument("-o", "--output", help="write the artifact to a file instead of the report")
    p_gen.set_defaults(handler=_cmd_workload_gen)
    p_profile = workload_sub.add_parser("profile", parents=[common], help="parallelism profile of a graph")
    p_profile.add_argument("--graph", required=True, help="task graph JSON path")
    p_profile.set_defaults(handler=_cmd_workload_profile)
    p_trace = workload_sub.add_parser("trace", parents=[common], help="generate an invocation trace")
    p_trace.add_argument("--arrivals", choices=["poisson", "fixed"], default="poisson")
    p_trace.add_argument("--count", type=int, default=100)
    p_trace.add_argument("--rate", type=float, default=1.0, help="arrivals per second (poisson)")
    p_trace.add_argument("--interval", type=float, default=1.0, help="seconds between arrivals (fixed)")
    p_trace.add_argument("--duration", type=float, default=0.5)
    p_trace.add_argument("--memory", type=float, default=0.125)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("-o", "--output")
    p_trace.set_defaults(handler=_cmd_workload_trace)

    p_simulate = sub.add_parser("simulate", parents=[common, catalog], help="run a trace on the platform model")
    p_simulate.add_argument("--trace", required=True, help="trace JSON path")
    p_simulate.add_argument("--service", default="serverless")
    p_simulate.add_argument("--t-schedule", type=float, default=0.5)
    p_simulate.add_argument("--t-env", type=float, default=0.0)
    p_simulate.add_argument("--t-app", type=float, default=0.0)
    p_simulate.add_argument("--keep-alive", type=float, default=600.0)
    p_simulate.add_argument("--prestarted", type=int, default=0)
    p_simulate.set_defaults(handler=_cmd_simulate)

    p_place = sub.add_parser("place", parents=[common], help="assign a task graph to instances")
    p_place.add_argument("--graph", required=True)
    p_place.add_argument("--instances", type=int, required=True)
    p_place.add_argument("--slots", type=int, required=True)
    p_place.set_defaults(handler=_cmd_place)

    p_breakeven = sub.add_parser("breakeven", parents=[common],
                                 help="duty cycle at which functions and VMs cost the same")
    p_breakeven.add_argument("--ratio", type=float,
                             help="per-minute function/VM cost ratio")
    p_breakeven.set_defaults(handler=_cmd_breakeven)

    p_repro = sub.add_parser("repro", parents=[common, catalog],
                             help="re-run every bundled published-figure check")
    p_repro.set_defaults(handler=_cmd_repro)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        report = args.handler(args)
        report.emit(args.format, out)
        return EXIT_INTERNAL if report.failed else EXIT_OK
    # Every domain error subclasses ValueError, as do JSON and UTF-8 decode
    # errors; OSError messages name the file.
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        err.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    # A closed stdout ends the program as it ends `cat`, by SIGPIPE's default action, not as bad input. Set here
    # only: `main` also runs inside other programs, whose signal handling is theirs.
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
