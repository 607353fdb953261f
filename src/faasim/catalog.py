"""Priced service models for cloud compute and storage.

A catalog holds validated compute offerings (function platforms, VMs) and
storage offerings (block, object, file, elastic database, in-memory,
plus an idealized target profile), and performs all unit-cost arithmetic:
capacity-months, per-request fees, sustained IOPS rates.

Pricing conventions:

* Prices are exact rationals (see `faasim.money`). Catalog JSON numbers
  are parsed as decimals, never binary floats.
* An "IOPS-month" is one request per second sustained for 30 days, i.e.
  2,592,000 requests, split 50/50 between reads and writes.
* Storage entries either declare explicit per-request read/write prices
  or a blended IOPS-month price from which a single per-request price is
  backed out (read = write = blended / 2,592,000).
* Cells published as a range (e.g. capacity $0.18-$0.25) keep both ends;
  computations use the midpoint.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .money import usd
from .record import Record

SECONDS_PER_MONTH = 2_592_000  # 30 days
HOURS_PER_MONTH = 720

COMPUTE_KINDS = frozenset({"serverless-function", "serverful-vm"})
STORAGE_CLASSES = frozenset({"block", "object", "file", "elastic-db", "memory", "ideal"})
PROVISIONING_MODES = frozenset({"transparent", "manual", "capacity-only"})
PERSISTENCE_MODES = frozenset({"local-persistent", "distributed-persistent", "local-ephemeral"})
MEMORY_SCALING_MODES = frozenset({"linear"})


class CatalogError(ValueError):
    """Malformed or inconsistent catalog content."""


class Band(Record):
    """A published low/high range; single-valued cells have low == high."""

    low: Fraction
    high: Fraction

    def __post_init__(self):
        if self.low > self.high:
            raise CatalogError(f"range low {self.low} exceeds high {self.high}")

    @property
    def mid(self) -> Fraction:
        return (self.low + self.high) / 2


class ComputeServiceSpec(Record):
    """A priced compute offering (function platform or VM family)."""

    name: str
    kind: str
    memory_min_gib: Fraction
    memory_max_gib: Fraction
    max_local_storage_gib: Fraction
    accounting_unit_s: Fraction
    price_usd_per_unit: Fraction  # at base_memory_gib
    base_memory_gib: Fraction
    memory_price_scaling: str = "linear"
    max_run_time_s: Fraction | None = None
    request_fee_usd: Fraction = Fraction(0)

    def __post_init__(self):
        where = f"compute entry {self.name!r}"
        if self.kind not in COMPUTE_KINDS:
            raise CatalogError(f"{where}: unknown kind {self.kind!r}")
        if self.memory_price_scaling not in MEMORY_SCALING_MODES:
            raise CatalogError(f"{where}: unknown scaling {self.memory_price_scaling!r}")
        if self.memory_min_gib > self.memory_max_gib:
            raise CatalogError(f"{where}: memory_min exceeds memory_max")
        if self.accounting_unit_s <= 0:
            raise CatalogError(f"{where}: accounting unit must be positive")
        if self.price_usd_per_unit < 0 or self.request_fee_usd < 0:
            raise CatalogError(f"{where}: negative price")
        if self.base_memory_gib <= 0:
            raise CatalogError(f"{where}: base memory must be positive")
        if self.kind == "serverless-function" and self.max_run_time_s is None:
            raise CatalogError(f"{where}: serverless kind requires max_run_time_s")
        if self.max_run_time_s is not None and self.max_run_time_s <= 0:
            raise CatalogError(f"{where}: max run time must be positive")


class StorageServiceSpec(Record):
    """A priced storage offering with access/provisioning characteristics."""

    name: str
    storage_class: str
    function_accessible: bool
    provisioning: str
    persistence: str
    latency_ms: Band
    capacity_usd_per_gb_month: Band
    throughput_usd_per_mbps_month: Band
    read_usd_per_request: Fraction
    write_usd_per_request: Fraction
    # Original blended Table-style cell, kept when per-request prices were
    # derived from it so serialization round-trips.
    iops_month_usd: Band | None = None
    min_transfer_kb: Fraction = Fraction(4)

    def __post_init__(self):
        where = f"storage entry {self.name!r}"
        if self.storage_class not in STORAGE_CLASSES:
            raise CatalogError(f"{where}: unknown class {self.storage_class!r}")
        if self.provisioning not in PROVISIONING_MODES:
            raise CatalogError(f"{where}: unknown provisioning {self.provisioning!r}")
        if self.persistence not in PERSISTENCE_MODES:
            raise CatalogError(f"{where}: unknown persistence {self.persistence!r}")
        for label, price in (
            ("capacity", self.capacity_usd_per_gb_month.low),
            ("throughput", self.throughput_usd_per_mbps_month.low),
            ("read request", self.read_usd_per_request),
            ("write request", self.write_usd_per_request),
        ):
            if price < 0:
                raise CatalogError(f"{where}: negative {label} price")
        if self.latency_ms.low < 0:
            raise CatalogError(f"{where}: negative latency")
        if self.min_transfer_kb < 0:
            raise CatalogError(f"{where}: negative min transfer")


class ServiceCatalog(Record):
    """Immutable named map of compute and storage services."""

    compute: dict[str, ComputeServiceSpec]
    storage: dict[str, StorageServiceSpec]

    def compute_service(self, name: str) -> ComputeServiceSpec:
        try:
            return self.compute[name]
        except KeyError:
            raise CatalogError(f"unknown compute service {name!r}") from None

    def storage_service(self, name: str) -> StorageServiceSpec:
        try:
            return self.storage[name]
        except KeyError:
            raise CatalogError(f"unknown storage service {name!r}") from None


# ---------------------------------------------------------------------------
# JSON schema: {"compute": [...], "storage": [...]}, units in field names.

_COMPUTE_FIELDS = {
    "name",
    "kind",
    "memory_min_gib",
    "memory_max_gib",
    "max_local_storage_gib",
    "max_run_time_s",
    "accounting_unit_s",
    "price_usd_per_unit_at_base_memory",
    "base_memory_gib",
    "memory_price_scaling",
    "request_fee_usd_per_invocation",
}

_STORAGE_FIELDS = {
    "name",
    "class",
    "function_accessible",
    "provisioning",
    "persistence",
    "latency_ms",
    "capacity_usd_per_gb_month",
    "throughput_usd_per_mbps_month",
    "read_usd_per_request",
    "write_usd_per_request",
    "iops_month_usd",
    "min_transfer_kb",
}


def _band(value, where: str) -> Band:
    if isinstance(value, list):
        if len(value) != 2:
            raise CatalogError(f"{where}: a range must be [low, high]")
        return Band(usd(value[0]), usd(value[1]))
    return Band(usd(value), usd(value))


def _check_fields(entry: dict, allowed: set, where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise CatalogError(f"{where}: unknown field(s) {sorted(unknown)}")
    if "name" not in entry:
        raise CatalogError(f"{where}: missing required field 'name'")
    if not isinstance(entry["name"], str):
        raise CatalogError(f"{where}: name must be a string")


def _parse_compute(entry: dict, where: str) -> ComputeServiceSpec:
    _check_fields(entry, _COMPUTE_FIELDS, where)
    run_time = entry.get("max_run_time_s")
    return ComputeServiceSpec(
        name=entry["name"],
        kind=entry["kind"],
        memory_min_gib=usd(entry["memory_min_gib"]),
        memory_max_gib=usd(entry["memory_max_gib"]),
        max_local_storage_gib=usd(entry.get("max_local_storage_gib", 0)),
        accounting_unit_s=usd(entry["accounting_unit_s"]),
        price_usd_per_unit=usd(entry["price_usd_per_unit_at_base_memory"]),
        base_memory_gib=usd(entry["base_memory_gib"]),
        memory_price_scaling=entry.get("memory_price_scaling", "linear"),
        max_run_time_s=None if run_time is None else usd(run_time),
        request_fee_usd=usd(entry.get("request_fee_usd_per_invocation", 0)),
    )


def _parse_storage(entry: dict, where: str) -> StorageServiceSpec:
    _check_fields(entry, _STORAGE_FIELDS, where)
    has_explicit = "read_usd_per_request" in entry or "write_usd_per_request" in entry
    has_blended = "iops_month_usd" in entry
    if has_explicit and has_blended:
        raise CatalogError(f"{where}: give per-request prices or iops_month_usd, not both")
    if not has_explicit and not has_blended:
        raise CatalogError(f"{where}: request pricing missing")
    if has_explicit:
        if "read_usd_per_request" not in entry or "write_usd_per_request" not in entry:
            raise CatalogError(f"{where}: both read and write request prices are required")
        read_price = usd(entry["read_usd_per_request"])
        write_price = usd(entry["write_usd_per_request"])
        blended = None
    else:
        blended = _band(entry["iops_month_usd"], where)
        read_price = write_price = blended.mid / SECONDS_PER_MONTH
    return StorageServiceSpec(
        name=entry["name"],
        storage_class=entry["class"],
        function_accessible=bool(entry["function_accessible"]),
        provisioning=entry["provisioning"],
        persistence=entry["persistence"],
        latency_ms=_band(entry["latency_ms"], where),
        capacity_usd_per_gb_month=_band(entry["capacity_usd_per_gb_month"], where),
        throughput_usd_per_mbps_month=_band(entry["throughput_usd_per_mbps_month"], where),
        read_usd_per_request=read_price,
        write_usd_per_request=write_price,
        iops_month_usd=blended,
        min_transfer_kb=usd(entry.get("min_transfer_kb", 4)),
    )


def loads_catalog(text: str) -> ServiceCatalog:
    """Parse catalog JSON; rejects unknown fields and invariant violations."""
    try:
        doc = json.loads(text, parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CatalogError("catalog top level must be an object")
    unknown = set(doc) - {"compute", "storage"}
    if unknown:
        raise CatalogError(f"unknown top-level field(s) {sorted(unknown)}")
    sections = {"compute": {}, "storage": {}}
    for section, parse in (("compute", _parse_compute), ("storage", _parse_storage)):
        entries = doc.get(section, [])
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise CatalogError(f"{section!r} must be a list of objects")
        for entry in entries:
            where = f"{section} entry {entry.get('name', '<unnamed>')!r}"
            try:
                spec = parse(entry, where)
            except KeyError as exc:
                raise CatalogError(f"{where}: missing required field {exc.args[0]!r}") from None
            except CatalogError:
                raise
            except (TypeError, ValueError) as exc:
                raise CatalogError(f"{where}: {exc}") from None
            if spec.name in sections["compute"] or spec.name in sections["storage"]:
                raise CatalogError(f"duplicate service name {spec.name!r}")
            sections[section][spec.name] = spec
    return ServiceCatalog(**sections)


def load_catalog(path: str | Path) -> ServiceCatalog:
    return loads_catalog(Path(path).read_text(encoding="utf-8"))


def _number(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return float(value)


def _band_json(band: Band):
    if band.low == band.high:
        return _number(band.low)
    return [_number(band.low), _number(band.high)]


def catalog_json_dict(catalog: ServiceCatalog) -> dict:
    """The catalog as a document of its JSON schema."""
    compute = []
    for spec in catalog.compute.values():
        entry = {
            "name": spec.name,
            "kind": spec.kind,
            "memory_min_gib": _number(spec.memory_min_gib),
            "memory_max_gib": _number(spec.memory_max_gib),
            "max_local_storage_gib": _number(spec.max_local_storage_gib),
            "accounting_unit_s": _number(spec.accounting_unit_s),
            "price_usd_per_unit_at_base_memory": _number(spec.price_usd_per_unit),
            "base_memory_gib": _number(spec.base_memory_gib),
            "memory_price_scaling": spec.memory_price_scaling,
            "request_fee_usd_per_invocation": _number(spec.request_fee_usd),
        }
        if spec.max_run_time_s is not None:
            entry["max_run_time_s"] = _number(spec.max_run_time_s)
        compute.append(entry)
    storage = []
    for spec in catalog.storage.values():
        entry = {
            "name": spec.name,
            "class": spec.storage_class,
            "function_accessible": spec.function_accessible,
            "provisioning": spec.provisioning,
            "persistence": spec.persistence,
            "latency_ms": _band_json(spec.latency_ms),
            "capacity_usd_per_gb_month": _band_json(spec.capacity_usd_per_gb_month),
            "throughput_usd_per_mbps_month": _band_json(spec.throughput_usd_per_mbps_month),
            "min_transfer_kb": _number(spec.min_transfer_kb),
        }
        if spec.iops_month_usd is not None:
            entry["iops_month_usd"] = _band_json(spec.iops_month_usd)
        else:
            entry["read_usd_per_request"] = _number(spec.read_usd_per_request)
            entry["write_usd_per_request"] = _number(spec.write_usd_per_request)
        storage.append(entry)
    return {"compute": compute, "storage": storage}


def default_catalog_path() -> Path:
    return Path(resources.files("faasim") / "data" / "default_catalog.json")


# ---------------------------------------------------------------------------
# Unit-cost arithmetic. All operations are linear in their quantity
# arguments and return exact dollars.


def _quantity(value, label: str) -> Fraction:
    amount = usd(value)
    if amount < 0:
        raise ValueError(f"{label} must be non-negative, got {value}")
    return amount


def capacity_cost(service: StorageServiceSpec, gb, months) -> Fraction:
    """Dollar cost of holding `gb` gigabytes for `months` months."""
    return _quantity(gb, "gb") * _quantity(months, "months") * service.capacity_usd_per_gb_month.mid


def request_cost(service: StorageServiceSpec, reads, writes) -> Fraction:
    """Dollar cost of a read/write request mix."""
    return (
        _quantity(reads, "reads") * service.read_usd_per_request
        + _quantity(writes, "writes") * service.write_usd_per_request
    )


def iops_month_cost(service: StorageServiceSpec, iops) -> Fraction:
    """Cost of sustaining `iops` requests/s for 30 days at a 50/50 mix."""
    half = _quantity(iops, "iops") * SECONDS_PER_MONTH / 2
    return request_cost(service, half, half)


def sustained_iops_rate_cost(service: StorageServiceSpec, iops, write_mix) -> Fraction:
    """Dollars per minute of sustaining `iops` at the given write fraction."""
    mix = usd(write_mix)
    if not 0 <= mix <= 1:
        raise ValueError(f"write mix must be in [0, 1], got {write_mix}")
    per_request = mix * service.write_usd_per_request + (1 - mix) * service.read_usd_per_request
    return _quantity(iops, "iops") * 60 * per_request
