"""`faasim place`."""

from __future__ import annotations

from . import placement as plc, workloads as wl
from .cli import Report


def _comm_counts(placed) -> dict:
    return {"cross_instance_bytes": placed.cross_instance_bytes, "remote_message_count": placed.remote_message_count}


def place(args) -> Report:
    graph = wl.load_task_graph(args.graph)
    problem = plc.PlacementProblem(graph, args.instances, args.slots)
    greedy = plc.place_greedy(problem)
    comparison = {"greedy": _comm_counts(greedy), "singleton_baseline": _comm_counts(plc.singleton_placement(graph))}
    if graph.task_count <= plc.EXHAUSTIVE_TASK_LIMIT:
        comparison["exhaustive_optimum"] = _comm_counts(plc.place_exhaustive(problem))
    result = {"placement": greedy.to_json_dict(), "comparison": comparison}
    params = {"graph": args.graph, "instances": args.instances, "slots": args.slots}
    return Report("place", params, result, [args.graph])
