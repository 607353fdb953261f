"""The immutable-record contract every faasim value type keeps.

Each record takes its fields by position or keyword, fills defaults,
runs its validation, refuses assignment and deletion, and compares and
hashes by its fields in order.
"""

import importlib
import math
import pkgutil
from fractions import Fraction as F

import pytest

import faasim
from faasim import catalog as cat
from faasim import commpatterns as comm
from faasim import jsontext
from faasim import placement as plc
from faasim import repro as rp
from faasim import shuffleplan as shp
from faasim import simcore as sim
from faasim import workloads as wl
from faasim.record import Record

BAND = cat.Band(F(1), F(2))
FUNCTION = cat.load_catalog(cat.default_catalog_path()).compute_service("serverless")
GRAPH = wl.gen_shuffle_dag(1, 1, 10)
ROWS = jsontext.Table(("index",), ((),))
EXEC_DEFAULTS = {"function_gb_seconds": F(0), "fast_store_gb_hours": F(0), "slow_store_write_fraction": F(1, 2),
                 "slow_store_ops": None, "duration_s": None, "compute_service": "serverless",
                 "slow_store_service": "object", "fast_store_service": "memory"}

# (record, field names in order, a value for each field, the trailing fields'
# defaults, one field change its validation refuses or None).
CASES = [
    (wl.ParallelismProfile, "widths working_set_bytes", ((1, 2), (0, 8)), {}, None),
    (cat.Band, "low high", (F(1), F(2)), {}, {"low": F(3)}),
    (cat.ComputeServiceSpec,
     "name kind memory_min_gib memory_max_gib max_local_storage_gib accounting_unit_s price_usd_per_unit "
     "base_memory_gib memory_price_scaling max_run_time_s request_fee_usd",
     ("vm", "serverful-vm", F(1), F(2), F(0), F(60), F(1, 100), F(1), "linear", F(900), F(1, 10)),
     {"memory_price_scaling": "linear", "max_run_time_s": None, "request_fee_usd": F(0)},
     {"accounting_unit_s": F(0)}),
    (cat.StorageServiceSpec,
     "name storage_class function_accessible provisioning persistence latency_ms capacity_usd_per_gb_month "
     "throughput_usd_per_mbps_month read_usd_per_request write_usd_per_request iops_month_usd min_transfer_kb",
     ("obj", "object", True, "transparent", "distributed-persistent", BAND, BAND, BAND, F(0), F(0), BAND, F(8)),
     {"iops_month_usd": None, "min_transfer_kb": F(4)}, {"provisioning": "by hand"}),
    (cat.ServiceCatalog, "compute storage", ({"fn": FUNCTION}, {}), {}, None),
    (comm.Deployment, "n_instances functions_per_instance granularity", (2, 1, "vm-grouped"), {},
     {"n_instances": 0}),
    (comm.CommScenario, "pattern deployment payload_bytes", ("shuffle", comm.Deployment(2, 1, "vm-grouped"), 10),
     {}, {"payload_bytes": -1}),
    (plc.PlacementProblem, "graph n_instances slots_per_instance", (GRAPH, 1, 2), {}, {"slots_per_instance": 1}),
    (plc.Placement, "assignment cross_instance_bytes remote_message_count", ({"m0": (0, 0), "r0": (0, 1)}, 0, 1),
     {}, {"assignment": {"m0": (0, 0), "r0": (0, 0)}}),
    (rp.CheckResult, "check_id location claim expected actual status", ("id", "T1", "claim", "1", "1", rp.PASS),
     {}, None),
    (shp.ShuffleProblem, "data_bytes function_memory_cap stages", (10**9, 10**8, 2),
     {"function_memory_cap": 3 * 10**9, "stages": 1}, {"stages": 0}),
    (shp.ShufflePlan, "mappers reducers transfers io_ops per_stage_transfers fast_storage_bytes stages",
     (4, 4, 16, 32, 8, 5 * 10**8, 2), {}, None),
    (shp.ShuffleExec, " ".join(EXEC_DEFAULTS), (F(1), F(2), F(1), 5, 1.5, "fn", "slow", "fast"), EXEC_DEFAULTS,
     {"slow_store_write_fraction": F(2)}),
    (shp.ShuffleCostBreakdown, "compute_usd slow_store_request_usd fast_store_usd total_usd duration_s",
     (F(1), F(2), F(3), F(6), None), {}, None),
    (shp.ShufflePreset, "name problem exec_inputs expected_usd notes",
     ("p", shp.ShuffleProblem(10**9), shp.ShuffleExec(), {"total": F(1)}, ("note",)), {"notes": ()}, None),
    (sim.ColdStartModel, "t_schedule_s t_env_s t_app_s", (1.0, 2.0, 3.0),
     {"t_schedule_s": 0.5, "t_env_s": 0.0, "t_app_s": 0.0}, {"t_env_s": -1.0}),
    (sim.PlatformConfig, "compute cold_start keep_alive_s warm_pool_prestarted",
     (FUNCTION, sim.ColdStartModel(0, 0, 0), 60.0, 2),
     {"cold_start": sim.ColdStartModel(), "keep_alive_s": 600.0, "warm_pool_prestarted": 0},
     {"keep_alive_s": math.inf}),
    (sim.SimResult,
     "invocations rejected billed_units cost_usd cold_starts peak_concurrency instances_created "
     "instance_seconds_running busy_seconds",
     (ROWS, ROWS, 0, F(0), 0, 0, 0, 0.0, 0.0), {}, None),
]
IDS = [case[0].__name__ for case in CASES]


def test_cases_cover_every_record():
    """Every Record subclass any faasim module defines has a case, but the column types."""
    for module in pkgutil.iter_modules(faasim.__path__):
        if module.name != "__main__":  # which would run the CLI
            importlib.import_module(f"faasim.{module.name}")
    records, unseen = set(), [Record]
    while unseen:
        subclasses = [sub for sub in unseen.pop().__subclasses__() if sub.__module__.startswith("faasim.")]
        records.update(subclasses)
        unseen += subclasses
    columns = {wl.TaskGraph, wl.InvocationTrace, wl._Columns}  # own constructors, tested with workloads
    assert records - columns == {case[0] for case in CASES}
    assert len(CASES) == len(records - columns)


@pytest.mark.parametrize("record,names,values,defaults,refused", CASES, ids=IDS)
def test_construction_by_position_and_keyword(record, names, values, defaults, refused):
    names = names.split()
    by_position, by_keyword = record(*values), record(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in names] == list(values)
    required = len(names) - len(defaults)
    assert list(defaults) == names[required:]
    defaulted = record(*values[:required])
    assert {name: getattr(defaulted, name) for name in defaults} == defaults
    assert record(*values[:required], **dict(zip(names[required:], values[required:]))) == by_position
    with pytest.raises(TypeError):
        record(*values, values[0])
    with pytest.raises(TypeError):
        record(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        record(*values, no_such_field=1)
    if required:
        with pytest.raises(TypeError):
            record(*values[:required - 1])


@pytest.mark.parametrize("record,names,values,defaults,refused", [c for c in CASES if c[4]],
                         ids=[i for i, c in zip(IDS, CASES) if c[4]])
def test_validation_runs(record, names, values, defaults, refused):
    fields = dict(zip(names.split(), values))
    with pytest.raises(ValueError):
        record(**(fields | refused))


@pytest.mark.parametrize("record,names,values,defaults,refused", CASES, ids=IDS)
def test_immutable_equal_and_hashed_by_fields(record, names, values, defaults, refused):
    first, second = record(*values), record(*values)
    for name in names.split():
        with pytest.raises(AttributeError):
            setattr(first, name, getattr(first, name))
        with pytest.raises(AttributeError):
            delattr(first, name)
    with pytest.raises(AttributeError):
        first.not_a_field = 1
    assert first == second and not first != second
    assert first != values and first != object()
    try:
        hash(values)
    except TypeError:  # an unhashable field (a dict, a TaskGraph) makes the record unhashable
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == hash(record(**dict(zip(names.split(), values))))
        assert len({first, second}) == 1
    assert repr(first).startswith(f"{record.__name__}({names.split()[0]}=")
