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
from pathlib import Path

from .money import report_float, usd
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
        if self.memory_min_gib <= 0:
            raise CatalogError(f"{where}: memory_min must be positive")
        if self.max_local_storage_gib < 0:
            raise CatalogError(f"{where}: negative max local storage")


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
        if not isinstance(self.function_accessible, bool):
            raise CatalogError(f"{where}: function_accessible must be true or false")


class ServiceCatalog(Record):
    """Immutable named map of compute and storage services."""

    compute: dict[str, ComputeServiceSpec]
    storage: dict[str, StorageServiceSpec]

    def compute_service(self, name: str) -> ComputeServiceSpec:
        if name not in self.compute:
            raise CatalogError(f"unknown compute service {name!r}")
        return self.compute[name]

    def storage_service(self, name: str) -> StorageServiceSpec:
        if name not in self.storage:
            raise CatalogError(f"unknown storage service {name!r}")
        return self.storage[name]


# ---------------------------------------------------------------------------
# JSON schema: {"compute": [...], "storage": [...]}, units in field names. One
# table per entry kind, read and written row by row: a JSON key, the record
# field it fills, the reader of its value (None: as given), and what an entry
# without the key gets: _REQUIRED (an error), _OPTIONAL (the record's default)
# or a JSON value. A field that holds None is not written.

_REQUIRED, _OPTIONAL = object(), object()


def _name(value) -> str:
    if not isinstance(value, str):
        raise TypeError("name must be a string")
    return value


def _number(value) -> Fraction:
    """A catalog number, exact: a JSON number, not a boolean or a string, within a double's range (reports print it)."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a JSON number, not {value!r}")
    report_float(number := usd(value), str(value))
    return number


def _band(value) -> Band:
    if isinstance(value, list) and len(value) != 2:
        raise ValueError("a range must be [low, high]")
    low, high = value if isinstance(value, list) else (value, value)
    return Band(_number(low), _number(high))


_COMPUTE = (
    ("name", "name", _name, _REQUIRED),
    ("kind", "kind", None, _REQUIRED),
    ("memory_min_gib", "memory_min_gib", _number, _REQUIRED),
    ("memory_max_gib", "memory_max_gib", _number, _REQUIRED),
    ("max_local_storage_gib", "max_local_storage_gib", _number, 0),
    ("accounting_unit_s", "accounting_unit_s", _number, _REQUIRED),
    ("price_usd_per_unit_at_base_memory", "price_usd_per_unit", _number, _REQUIRED),
    ("base_memory_gib", "base_memory_gib", _number, _REQUIRED),
    ("memory_price_scaling", "memory_price_scaling", None, _OPTIONAL),
    # null, like no key, is no run-time limit
    ("max_run_time_s", "max_run_time_s", lambda value: None if value is None else _number(value), _OPTIONAL),
    ("request_fee_usd_per_invocation", "request_fee_usd", _number, _OPTIONAL),
)

# The request prices are read next after the name, once `_request_pricing` holds.
_STORAGE = (
    ("name", "name", _name, _REQUIRED),
    ("read_usd_per_request", "read_usd_per_request", _number, _OPTIONAL),
    ("write_usd_per_request", "write_usd_per_request", _number, _OPTIONAL),
    ("iops_month_usd", "iops_month_usd", _band, _OPTIONAL),
    ("class", "storage_class", None, _REQUIRED),
    ("function_accessible", "function_accessible", None, _REQUIRED),
    ("provisioning", "provisioning", None, _REQUIRED),
    ("persistence", "persistence", None, _REQUIRED),
    ("latency_ms", "latency_ms", _band, _REQUIRED),
    ("capacity_usd_per_gb_month", "capacity_usd_per_gb_month", _band, _REQUIRED),
    ("throughput_usd_per_mbps_month", "throughput_usd_per_mbps_month", _band, _REQUIRED),
    ("min_transfer_kb", "min_transfer_kb", _number, _OPTIONAL),
)


def _request_pricing(entry: dict) -> None:
    """Requests are priced by a read/write pair or by a blended iops_month_usd, not both."""
    explicit = entry.keys() & {"read_usd_per_request", "write_usd_per_request"}
    if explicit and "iops_month_usd" in entry:
        raise ValueError("give per-request prices or iops_month_usd, not both")
    if not explicit and "iops_month_usd" not in entry:
        raise ValueError("request pricing missing")
    if len(explicit) == 1:
        raise ValueError("both read and write request prices are required")


def _entry_fields(entry: dict, table: tuple, rule) -> dict:
    """The record fields of `entry`; `rule` checks it once its name, every table's first row, is read."""
    unknown = entry.keys() - {key for key, *_ in table}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)}")
    fields = {}
    for key, field, read, default in table:
        if key not in entry and default is _REQUIRED:
            raise ValueError(f"missing required field {key!r}")
        if key in entry or default is not _OPTIONAL:
            value = entry.get(key, default)
            fields[field] = value if read is None else read(value)
        if rule is not None and key == "name":
            rule(entry)
    return fields


def _storage_spec(**fields) -> StorageServiceSpec:
    blended = fields.get("iops_month_usd")
    if blended is not None:  # one per-request price, backed out of the blended cell
        fields["read_usd_per_request"] = fields["write_usd_per_request"] = blended.mid / SECONDS_PER_MONTH
    return StorageServiceSpec(**fields)


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
    for section, table, build, rule in (("compute", _COMPUTE, ComputeServiceSpec, None),
                                        ("storage", _STORAGE, _storage_spec, _request_pricing)):
        entries = doc.get(section, [])
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise CatalogError(f"{section!r} must be a list of objects")
        for entry in entries:
            try:
                spec = build(**_entry_fields(entry, table, rule))
            except CatalogError:  # a record's own check
                raise
            except (TypeError, ValueError) as exc:
                raise CatalogError(f"{section} entry {entry.get('name', '<unnamed>')!r}: {exc}") from None
            if spec.name in sections["compute"] or spec.name in sections["storage"]:
                raise CatalogError(f"duplicate service name {spec.name!r}")
            sections[section][spec.name] = spec
    return ServiceCatalog(**sections)


def load_catalog(path: str | Path) -> ServiceCatalog:
    return loads_catalog(Path(path).read_text(encoding="utf-8"))


def _json_value(value):
    if isinstance(value, Band):
        return _json_value(value.low) if value.low == value.high else [_json_value(value.low), _json_value(value.high)]
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else float(value)
    return value


def _entry_json(spec, table: tuple) -> dict:
    return {key: _json_value(value) for key, field, *_ in table if (value := getattr(spec, field)) is not None}


def catalog_json_dict(catalog: ServiceCatalog) -> dict:
    """The catalog as a document of its JSON schema."""
    storage = [_entry_json(spec, _STORAGE) for spec in catalog.storage.values()]
    for entry in storage:
        if "iops_month_usd" in entry:  # the per-request prices are derived from it
            del entry["read_usd_per_request"], entry["write_usd_per_request"]
    return {"compute": [_entry_json(spec, _COMPUTE) for spec in catalog.compute.values()], "storage": storage}


def default_catalog_path() -> Path:
    return Path(__file__).parent / "data" / "default_catalog.json"


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
