"""`faasim comm`."""

from __future__ import annotations

from . import commpatterns
from .cli import Report, _parse_bytes


def comm(args) -> Report:
    granularity = {"vm": "vm-grouped", "function": "function-grained"}.get(args.granularity, args.granularity)
    payload = _parse_bytes(args.payload, args)
    scenario = commpatterns.CommScenario(
        pattern=args.pattern,
        deployment=commpatterns.Deployment(args.n, args.k, granularity),
        payload_bytes=payload,
    )
    result = commpatterns.scenario_report(scenario)
    result["overhead_ratio_vs_grouped"] = commpatterns.traffic_overhead_ratio(args.pattern, args.k)
    params = {"pattern": args.pattern, "n": args.n, "k": args.k,
              "granularity": granularity, "payload_bytes": payload}
    return Report("comm", params, result)
