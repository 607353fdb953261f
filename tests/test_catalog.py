"""Catalog loading, validation, and unit-cost arithmetic."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faasim import catalog as cat
from faasim import jsontext
from faasim.money import usd

# Strategy for non-negative quantities with exact arithmetic.
quantities = st.fractions(min_value=0, max_value=10**9)


def test_default_catalog_shape(default_catalog):
    assert len(default_catalog.storage) == 6
    assert len(default_catalog.compute) == 2
    assert set(default_catalog.storage) == {"block", "object", "file", "elastic-db", "memory", "ideal"}
    kinds = {spec.kind for spec in default_catalog.compute.values()}
    assert kinds == {"serverless-function", "serverful-vm"}


def test_serverless_spec_fields(default_catalog):
    fn = default_catalog.compute_service("serverless")
    assert fn.memory_min_gib == Fraction("0.125")
    assert fn.memory_max_gib == 3
    assert fn.max_run_time_s == 900
    assert fn.accounting_unit_s == Fraction(1, 10)
    assert fn.price_usd_per_unit == usd("2e-7")


def test_empty_catalog_is_valid():
    catalog = cat.loads_catalog('{"compute": [], "storage": []}')
    assert catalog.compute == {} and catalog.storage == {}


def test_negative_price_rejected():
    entry = {
        "name": "bad", "class": "object", "function_accessible": True,
        "provisioning": "transparent", "persistence": "distributed-persistent",
        "latency_ms": 1, "capacity_usd_per_gb_month": -0.01,
        "throughput_usd_per_mbps_month": 0.01, "iops_month_usd": 1,
    }
    with pytest.raises(cat.CatalogError, match="bad"):
        cat.loads_catalog(json.dumps({"storage": [entry]}))


def test_unknown_field_rejected():
    entry = {
        "name": "odd", "class": "object", "function_accessible": True,
        "provisioning": "transparent", "persistence": "distributed-persistent",
        "latency_ms": 1, "capacity_usd_per_gb_month": 0.01,
        "throughput_usd_per_mbps_month": 0.01, "iops_month_usd": 1,
        "surprise": 1,
    }
    with pytest.raises(cat.CatalogError, match="surprise"):
        cat.loads_catalog(json.dumps({"storage": [entry]}))


def test_malformed_json_rejected():
    with pytest.raises(cat.CatalogError, match="JSON"):
        cat.loads_catalog("{nope")


def test_duplicate_names_rejected(default_catalog):
    doc = cat.catalog_json_dict(default_catalog)
    doc["storage"].append(doc["storage"][0])
    with pytest.raises(cat.CatalogError, match="duplicate"):
        cat.loads_catalog(json.dumps(doc))


def test_serverless_requires_run_time():
    entry = {
        "name": "fn", "kind": "serverless-function",
        "memory_min_gib": 0.125, "memory_max_gib": 3,
        "accounting_unit_s": 0.1, "price_usd_per_unit_at_base_memory": 2e-07,
        "base_memory_gib": 0.125,
    }
    with pytest.raises(cat.CatalogError, match="max_run_time"):
        cat.loads_catalog(json.dumps({"compute": [entry]}))


def test_memory_range_order_enforced():
    entry = {
        "name": "fn", "kind": "serverless-function",
        "memory_min_gib": 4, "memory_max_gib": 3, "max_run_time_s": 900,
        "accounting_unit_s": 0.1, "price_usd_per_unit_at_base_memory": 2e-07,
        "base_memory_gib": 0.125,
    }
    with pytest.raises(cat.CatalogError, match="memory_min"):
        cat.loads_catalog(json.dumps({"compute": [entry]}))


def test_unknown_service_lookup(default_catalog):
    with pytest.raises(cat.CatalogError, match="nonesuch"):
        default_catalog.storage_service("nonesuch")


# --- cost operations ---------------------------------------------------------


def test_capacity_cost_examples(default_catalog):
    obj = default_catalog.storage_service("object")
    mem = default_catalog.storage_service("memory")
    assert cat.capacity_cost(obj, 1, 1) == usd("0.023")
    assert cat.capacity_cost(obj, 0, 1) == 0
    assert cat.capacity_cost(mem, 10, 1) == usd("18.70")


def test_request_cost_examples(default_catalog):
    obj = default_catalog.storage_service("object")
    assert cat.request_cost(obj, 1000, 1000) == usd("0.0054")
    assert cat.request_cost(obj, 0, 0) == 0
    near_seven = cat.request_cost(obj, 1_296_000, 1_296_000)
    assert near_seven == usd("6.9984")


def test_iops_month_cost_examples(default_catalog):
    obj = default_catalog.storage_service("object")
    blk = default_catalog.storage_service("block")
    seven = cat.iops_month_cost(obj, 1)
    assert abs(seven - usd("7.1")) <= usd("7.1") * Fraction(5, 100)
    assert cat.iops_month_cost(blk, 1) == usd("0.03")
    assert cat.iops_month_cost(obj, 0) == 0


def test_sustained_rate_examples(default_catalog):
    obj = default_catalog.storage_service("object")
    assert cat.sustained_iops_rate_cost(obj, 100_000, 1.0) == usd(30)
    assert cat.sustained_iops_rate_cost(obj, 100_000, 0.5) == usd("16.20")
    assert cat.sustained_iops_rate_cost(obj, 0, 0.3) == 0
    with pytest.raises(ValueError):
        cat.sustained_iops_rate_cost(obj, 1, 1.5)


def test_elastic_db_uses_midpoints(default_catalog):
    edb = default_catalog.storage_service("elastic-db")
    assert cat.capacity_cost(edb, 1, 1) == (usd("0.18") + usd("0.25")) / 2
    assert cat.iops_month_cost(edb, 1) == (usd(1) + usd("3.15")) / 2
    assert edb.throughput_usd_per_mbps_month.mid == (usd("3.15") + usd("255.1")) / 2


@given(scale=quantities, amount=quantities)
def test_costs_are_linear(default_catalog, scale, amount):
    obj = default_catalog.storage_service("object")
    assert cat.capacity_cost(obj, scale * amount, 1) == scale * cat.capacity_cost(obj, amount, 1)
    assert cat.iops_month_cost(obj, scale * amount) == scale * cat.iops_month_cost(obj, amount)
    assert cat.request_cost(obj, scale * amount, 0) == scale * cat.request_cost(obj, amount, 0)


@given(reads=quantities, writes=quantities)
def test_costs_non_negative(default_catalog, reads, writes):
    for service in default_catalog.storage.values():
        assert cat.request_cost(service, reads, writes) >= 0


def test_iops_month_equals_request_cost_identity(default_catalog):
    for service in default_catalog.storage.values():
        assert cat.iops_month_cost(service, 1) == cat.request_cost(service, 1_296_000, 1_296_000)


def test_negative_quantities_rejected(default_catalog):
    obj = default_catalog.storage_service("object")
    with pytest.raises(ValueError):
        cat.capacity_cost(obj, -1, 1)
    with pytest.raises(ValueError):
        cat.request_cost(obj, -5, 0)


def test_round_trip(default_catalog):
    text = jsontext.dumps(cat.catalog_json_dict(default_catalog))
    assert cat.loads_catalog(text) == default_catalog


def test_round_trip_file(tmp_path, default_catalog):
    path = tmp_path / "catalog.json"
    path.write_text(jsontext.dumps(cat.catalog_json_dict(default_catalog)), encoding="utf-8")
    assert cat.load_catalog(path) == default_catalog


def _catalog_schema():
    from importlib import resources

    return json.loads((resources.files("faasim") / "data" / "schemas" / "catalog.schema.json").read_text())


def test_default_catalog_matches_schema(default_catalog):
    import jsonschema

    doc = json.loads(cat.default_catalog_path().read_text())
    jsonschema.validate(doc, _catalog_schema())


# --- the catalog format: field tables, bounds, messages, round trip -----------


@pytest.mark.parametrize("section,table", [("compute", cat._COMPUTE), ("storage", cat._STORAGE)])
def test_field_table_matches_schema(section, table):
    items = _catalog_schema()["properties"][section]["items"]
    assert {key for key, *_ in table} == set(items["properties"])
    assert {key for key, _, _, default in table if default is cat._REQUIRED} == set(items["required"])


def _entry(section, **edits):
    """The bundled serverless or object-store entry with `edits` applied; None removes a key."""
    doc = json.loads(cat.default_catalog_path().read_text(encoding="utf-8"))
    entry = doc[section][0 if section == "compute" else 1]  # serverless; object (per-request prices)
    for key, value in edits.items():
        if value is None:
            entry.pop(key, None)
        else:
            entry[key] = value
    return json.dumps({section: [entry]})


# Most entries have two faults; the message names the one checked first.
FAULT_ORDER = [
    ("unknown-before-missing-name", _entry("storage", name=None, surprise=1),
     "storage entry '<unnamed>': unknown field(s) ['surprise']"),
    ("missing-name-before-pricing", _entry("storage", name=None, iops_month_usd=1),
     "storage entry '<unnamed>': missing required field 'name'"),
    ("name-type-before-pricing", _entry("storage", name=5, iops_month_usd=1),
     "storage entry 5: name must be a string"),
    ("both-pricing-forms-without-class", _entry("storage", iops_month_usd=1, **{"class": None}),
     "storage entry 'object': give per-request prices or iops_month_usd, not both"),
    ("no-pricing", _entry("storage", read_usd_per_request=None, write_usd_per_request=None),
     "storage entry 'object': request pricing missing"),
    ("one-request-price", _entry("storage", write_usd_per_request=None, latency_ms=[5, 1]),
     "storage entry 'object': both read and write request prices are required"),
    ("bad-read-price-before-missing-class", _entry("storage", read_usd_per_request="x", **{"class": None}),
     "storage entry 'object': expected a JSON number, not 'x'"),
    ("latency-three-items", _entry("storage", latency_ms=[1, 2, 3], capacity_usd_per_gb_month=[2, 1]),
     "storage entry 'object': a range must be [low, high]"),
    ("latency-low-above-high", _entry("storage", latency_ms=[5, 1]), "range low 5 exceeds high 1"),
    ("missing-class-before-bad-latency", _entry("storage", latency_ms=[1, 2, 3], **{"class": None}),
     "storage entry 'object': missing required field 'class'"),
    ("unknown-class-before-accessible", _entry("storage", function_accessible="no", **{"class": "tape"}),
     "storage entry 'object': unknown class 'tape'"),
    ("run-time-before-fee", _entry("compute", max_run_time_s="x", request_fee_usd_per_invocation="y"),
     "compute entry 'serverless': expected a JSON number, not 'x'"),
    ("missing-kind-before-bad-memory", _entry("compute", kind=None, memory_min_gib=[1]),
     "compute entry 'serverless': missing required field 'kind'"),
    ("kind-list", _entry("compute", kind=["x"]), "compute entry 'serverless': unhashable type: 'list'"),
    ("memory-order-before-memory-min", _entry("compute", memory_min_gib=-1, memory_max_gib=-2),
     "compute entry 'serverless': memory_min exceeds memory_max"),
    ("unit-before-memory-min", _entry("compute", memory_min_gib=-1, accounting_unit_s=0),
     "compute entry 'serverless': accounting unit must be positive"),
    ("null-run-time-is-no-limit", _entry("compute", kind="serverful-vm", request_fee_usd_per_invocation="y")
     .replace('"max_run_time_s": 900', '"max_run_time_s": null'),
     "compute entry 'serverless': expected a JSON number, not 'y'"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in FAULT_ORDER], ids=[case[0] for case in FAULT_ORDER])
def test_catalog_error_message_and_precedence(text, message):
    with pytest.raises(cat.CatalogError) as caught:
        cat.loads_catalog(text)
    assert str(caught.value) == message


# Bounds catalog.schema.json states: each such entry is refused, naming the entry.
SCHEMA_BOUNDS = [
    ("memory-min-negative", _entry("compute", memory_min_gib=-1), "compute entry 'serverless': memory_min must be positive"),
    ("memory-min-zero", _entry("compute", memory_min_gib=0), "compute entry 'serverless': memory_min must be positive"),
    ("max-local-storage-negative", _entry("compute", max_local_storage_gib=-0.5),
     "compute entry 'serverless': negative max local storage"),
    ("function-accessible-string", _entry("storage", function_accessible="no"),
     "storage entry 'object': function_accessible must be true or false"),
    ("function-accessible-number", _entry("storage", function_accessible=1),
     "storage entry 'object': function_accessible must be true or false"),
    ("price-bool", _entry("compute", price_usd_per_unit_at_base_memory=True),
     "compute entry 'serverless': expected a JSON number, not True"),
    ("memory-string", _entry("compute", memory_max_gib="4"),
     "compute entry 'serverless': expected a JSON number, not '4'"),
    ("range-end-string", _entry("storage", latency_ms=[1, "2"]),
     "storage entry 'object': expected a JSON number, not '2'"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in SCHEMA_BOUNDS], ids=[case[0] for case in SCHEMA_BOUNDS])
def test_schema_bounds_enforced(text, message):
    with pytest.raises(cat.CatalogError) as caught:
        cat.loads_catalog(text)
    assert str(caught.value) == message


def test_schema_bounds_guard_specs_built_in_code(default_catalog):
    fn = default_catalog.compute_service("serverless")
    with pytest.raises(cat.CatalogError, match="memory_min must be positive"):
        cat.ComputeServiceSpec(**{name: getattr(fn, name) for name in fn._FIELDS} | {"memory_min_gib": Fraction(0)})
    obj = default_catalog.storage_service("object")
    with pytest.raises(cat.CatalogError, match="function_accessible"):
        cat.StorageServiceSpec(**{name: getattr(obj, name) for name in obj._FIELDS} | {"function_accessible": "no"})


def test_max_local_storage_defaults_to_zero():
    catalog = cat.loads_catalog(_entry("compute", max_local_storage_gib=None))
    assert catalog.compute_service("serverless").max_local_storage_gib == 0
    assert cat.catalog_json_dict(catalog)["compute"][0]["max_local_storage_gib"] == 0


# JSON numbers that read back as the value written: integers, and decimals of
# a few places, which a float's shortest repr spells exactly.
def _numbers(positive=False):
    low = 1 if positive else 0
    return st.integers(low, 10**6) | st.decimals("0.0001" if positive else 0, 10**6, places=4).map(float)


def _bands():
    return _numbers() | st.lists(_numbers(), min_size=2, max_size=2).map(sorted)


def _optional(draw, entry, key, values):
    if draw(st.booleans()):
        entry[key] = draw(values)


@st.composite
def _compute_entries(draw, name):
    kind = draw(st.sampled_from(sorted(cat.COMPUTE_KINDS)))
    low, high = sorted(draw(st.lists(_numbers(positive=True), min_size=2, max_size=2)))
    entry = {"name": name, "kind": kind, "memory_min_gib": low, "memory_max_gib": high,
             "accounting_unit_s": draw(_numbers(positive=True)),
             "price_usd_per_unit_at_base_memory": draw(_numbers()), "base_memory_gib": draw(_numbers(positive=True))}
    _optional(draw, entry, "max_local_storage_gib", _numbers())
    _optional(draw, entry, "memory_price_scaling", st.just("linear"))
    _optional(draw, entry, "request_fee_usd_per_invocation", _numbers())
    if kind == "serverless-function" or draw(st.booleans()):
        entry["max_run_time_s"] = draw(_numbers(positive=True))
    return entry


@st.composite
def _storage_entries(draw, name):
    entry = {"name": name, "class": draw(st.sampled_from(sorted(cat.STORAGE_CLASSES))),
             "function_accessible": draw(st.booleans()),
             "provisioning": draw(st.sampled_from(sorted(cat.PROVISIONING_MODES))),
             "persistence": draw(st.sampled_from(sorted(cat.PERSISTENCE_MODES))),
             "latency_ms": draw(_bands()), "capacity_usd_per_gb_month": draw(_bands()),
             "throughput_usd_per_mbps_month": draw(_bands())}
    if draw(st.booleans()):
        entry["iops_month_usd"] = draw(_bands())
    else:
        entry["read_usd_per_request"], entry["write_usd_per_request"] = draw(_numbers()), draw(_numbers())
    _optional(draw, entry, "min_transfer_kb", _numbers())
    return entry


@st.composite
def catalog_documents(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=6))
    split = draw(st.integers(0, len(names)))
    return {"compute": [draw(_compute_entries(name)) for name in names[:split]],
            "storage": [draw(_storage_entries(name)) for name in names[split:]]}


@given(doc=catalog_documents())
def test_generated_catalogs_round_trip(doc):
    catalog = cat.loads_catalog(json.dumps(doc))
    assert cat.loads_catalog(jsontext.dumps(cat.catalog_json_dict(catalog))) == catalog
