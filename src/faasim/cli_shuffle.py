"""`faasim shuffle plan` and `faasim shuffle price`."""

from __future__ import annotations

from . import shuffleplan as shp
from .cli import Report, _load_catalog, _money_out, _parse_bytes
from .money import usd, usd_json
from .units import format_bytes


def _plan_result(plan) -> dict:
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


def shuffle_plan(args) -> Report:
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


def shuffle_price(args) -> Report:
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
