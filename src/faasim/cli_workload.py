"""`faasim workload gen`, `profile` and `trace`: each handler imports the modules it runs."""

from __future__ import annotations

from . import jsontext
from .cli import Report, _parse_bytes


def _write_or_print(doc, args, subcommand, params, seed=None) -> Report:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as file:
            jsontext.write(file, doc)
        doc = {"written": args.output}
    return Report(subcommand, params, doc, seed=seed)


def workload_gen(args) -> Report:
    if args.kind == "paramserver":  # communication scenarios: no graph code
        from . import commpatterns as comm
        scenarios = comm.gen_paramserver(args.workers, args.rounds, _parse_bytes(args.gradient, args))
        params = {"kind": "paramserver", "workers": args.workers, "rounds": args.rounds}
        return _write_or_print([comm.scenario_report(s) for s in scenarios], args, "workload gen", params)
    from . import workloads as wl
    if args.kind == "shuffle":
        m, r, nbytes = args.mappers, args.reducers, _parse_bytes(args.bytes, args)
        params = {"kind": "shuffle", "mappers": m, "reducers": r}
        if not args.output and min(m, r) >= 1 and nbytes >= 0 and m * r > wl.MATERIALIZE_EDGE_LIMIT:
            # Too large to build, as the generator says; its counts are closed forms (the 100 TB case's 1.1e9 edges).
            result = {"implicit": True, "task_count": m + r, "edge_count": m * r, "total_edge_bytes": m * r * nbytes}
            return Report("workload gen", params, result)
        graph = wl.gen_shuffle_dag(m, r, nbytes)
    else:
        graph = wl.gen_cholesky_dag(args.blocks, block_dim=args.block_dim)
        params = {"kind": "cholesky", "blocks": args.blocks, "block_dim": args.block_dim}
    return _write_or_print(graph.to_json_dict(), args, "workload gen", params)


def workload_profile(args) -> Report:
    from . import workloads as wl
    graph = wl.load_task_graph(args.graph)
    profile = wl.parallelism_profile(graph)
    params = {"graph": args.graph}
    return Report("workload profile", params, profile.to_json_dict(), [args.graph])


def workload_trace(args) -> Report:
    from . import workloads as wl
    if args.arrivals == "poisson":
        table, params = wl.poisson_trace(args.count, args.rate, args.duration, args.memory, args.seed)
    else:
        table, params = wl.fixed_interval_trace(args.count, args.interval, args.duration, args.memory)
    return _write_or_print(table, args, "workload trace", params, seed=args.seed)
