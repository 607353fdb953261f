"""`faasim simulate`."""

from __future__ import annotations

from . import simcore as sim, workloads as wl
from .cli import Report, _load_catalog


def simulate(args) -> Report:
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
