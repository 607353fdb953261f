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


def test_default_catalog_matches_schema(default_catalog):
    import jsonschema
    from importlib import resources

    schema = json.loads(
        (resources.files("faasim") / "data" / "schemas" / "catalog.schema.json").read_text()
    )
    doc = json.loads(cat.default_catalog_path().read_text())
    jsonschema.validate(doc, schema)
