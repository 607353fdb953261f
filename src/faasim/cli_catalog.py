"""`faasim catalog show` and `faasim catalog cost`."""

from __future__ import annotations

from fractions import Fraction

from . import catalog as cat
from .cli import Report, _load_catalog, _money_out
from .money import usd_str


def _catalog_grids(catalog):
    """The storage grid, then the compute grid if there is compute; a generator, so a json report makes neither."""
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


def catalog_show(args) -> Report:
    catalog, source, digest = _load_catalog(args)
    return Report("catalog show", {}, cat.catalog_json_dict(catalog), [source], digest, grids=_catalog_grids(catalog))


def catalog_cost(args) -> Report:
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
