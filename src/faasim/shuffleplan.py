"""Planning and pricing of shuffles routed through external storage.

A shuffle of D bytes with a per-function memory cap of m bytes needs
ceil(D/m) blocks; with one map task and one reduce task per block, every
mapper sends to every reducer, so transfers = M*R and every transfer
costs one write plus one read against the storage layer.

Multi-stage shuffles run S sequential rounds over disjoint mapper groups
of ceil(M/S), so only ceil(D/S) bytes need fast storage at any moment.
Total transfer and IO counts are unchanged; staging only changes where
they are routed and how much fast capacity is rented.

All byte arithmetic is decimal (1 GB = 10^9 B): 100 TB over 3 GB blocks
gives 33,334 blocks and 1.111e9 transfers.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .money import json_integer, report_float, usd
from .record import Record

if TYPE_CHECKING:
    from .catalog import ServiceCatalog

DEFAULT_FUNCTION_MEMORY_CAP = 3 * 10**9  # largest function memory today


class PlanError(ValueError):
    pass


class ShuffleProblem(Record):
    data_bytes: int
    function_memory_cap: int = DEFAULT_FUNCTION_MEMORY_CAP
    stages: int = 1

    def __post_init__(self):
        if self.data_bytes <= 0:
            raise PlanError("data size must be positive")
        if self.function_memory_cap <= 0:
            raise PlanError("memory cap must be positive")
        if self.stages < 1:
            raise PlanError("stage count must be at least 1")


class ShufflePlan(Record):
    mappers: int
    reducers: int
    transfers: int
    io_ops: int
    per_stage_transfers: int
    fast_storage_bytes: int
    stages: int


class ShuffleExec(Record):
    """Execution-side inputs the planner does not predict.

    Durations and aggregate resource-time come from measurement or a
    simulator; they are carried here so pricing stays a pure function.
    `slow_store_ops` overrides the request count billed to the slow
    store (default: all of the plan's IO operations); staged runs route
    transfer IO through the fast store and typically bill the slow store
    only for ingest/egress, which is what the override expresses.
    """

    function_gb_seconds: Fraction = Fraction(0)
    fast_store_gb_hours: Fraction = Fraction(0)
    slow_store_write_fraction: Fraction = Fraction(1, 2)
    slow_store_ops: int | None = None
    duration_s: float | None = None
    compute_service: str = "serverless"
    slow_store_service: str = "object"
    fast_store_service: str = "memory"

    def __post_init__(self):
        if self.function_gb_seconds < 0 or self.fast_store_gb_hours < 0:
            raise PlanError("resource-time inputs must be non-negative")
        if not 0 <= self.slow_store_write_fraction <= 1:
            raise PlanError("write fraction must be in [0, 1]")
        if self.slow_store_ops is not None and self.slow_store_ops < 0:
            raise PlanError("slow store op count must be non-negative")


class ShuffleCostBreakdown(Record):
    compute_usd: Fraction
    slow_store_request_usd: Fraction
    fast_store_usd: Fraction
    total_usd: Fraction
    duration_s: float | None


def block_count(data_bytes: int, memory_cap_bytes: int) -> int:
    """Number of blocks a function-memory cap forces: ceil(D/m)."""
    if data_bytes <= 0 or memory_cap_bytes <= 0:
        raise PlanError("sizes must be positive")
    return -(-data_bytes // memory_cap_bytes)


def plan(problem: ShuffleProblem) -> ShufflePlan:
    blocks = block_count(problem.data_bytes, problem.function_memory_cap)
    transfers = blocks * blocks
    stages = problem.stages
    per_stage = -(-blocks // stages) * blocks
    fast_bytes = 0 if stages == 1 else -(-problem.data_bytes // stages)
    return ShufflePlan(
        mappers=blocks,
        reducers=blocks,
        transfers=transfers,
        io_ops=2 * transfers,
        per_stage_transfers=per_stage,
        fast_storage_bytes=fast_bytes,
        stages=stages,
    )


def per_gib_second_rate(compute_spec) -> Fraction:
    """Serverless $/GiB-second from the accounting unit and base price."""
    return compute_spec.price_usd_per_unit / compute_spec.accounting_unit_s / compute_spec.base_memory_gib


def price_plan(shuffle_plan: ShufflePlan, catalog: ServiceCatalog, exec_inputs: ShuffleExec) -> ShuffleCostBreakdown:
    """Price a shuffle plan: function time + slow-store requests + fast capacity."""
    from .catalog import HOURS_PER_MONTH, request_cost  # here, so that `shuffle plan` loads no catalog code
    compute = catalog.compute_service(exec_inputs.compute_service)
    slow = catalog.storage_service(exec_inputs.slow_store_service)
    fast = catalog.storage_service(exec_inputs.fast_store_service)

    compute_usd = exec_inputs.function_gb_seconds * per_gib_second_rate(compute)

    ops = exec_inputs.slow_store_ops
    if ops is None:
        ops = shuffle_plan.io_ops
    writes = Fraction(ops) * exec_inputs.slow_store_write_fraction
    reads = Fraction(ops) - writes
    slow_usd = request_cost(slow, reads, writes)

    fast_usd = exec_inputs.fast_store_gb_hours * fast.capacity_usd_per_gb_month.mid / HOURS_PER_MONTH

    return ShuffleCostBreakdown(
        compute_usd=compute_usd,
        slow_store_request_usd=slow_usd,
        fast_store_usd=fast_usd,
        total_usd=compute_usd + slow_usd + fast_usd,
        duration_s=exec_inputs.duration_s,
    )


# ---------------------------------------------------------------------------
# Presets: a problem plus calibrated execution inputs plus the published
# cost breakdown they must reproduce, for regression.


class ShufflePreset(Record):
    name: str
    problem: ShuffleProblem
    exec_inputs: ShuffleExec
    expected_usd: dict[str, Fraction]
    notes: tuple[str, ...] = ()


def _preset_dir() -> Path:
    return Path(__file__).parent / "data" / "presets"


def load_preset(name_or_path: str | Path) -> ShufflePreset:
    """Load a preset by bundled name ('cloudsort100tb') or file path."""
    path = Path(name_or_path)
    if not path.suffix:
        path = _preset_dir() / f"{name_or_path}.json"
    if not path.exists():
        raise PlanError(f"no such preset {name_or_path!r}")
    doc = json.loads(path.read_text(encoding="utf-8"), parse_float=Decimal)
    try:
        prob = doc["problem"]
        ex = doc["exec"]
        duration, ops = ex.get("duration_s"), ex.get("slow_store_ops")
        return ShufflePreset(
            name=doc.get("name", path.stem),
            problem=ShuffleProblem(
                data_bytes=json_integer(prob["data_bytes"], "data_bytes must be an integer"),
                function_memory_cap=json_integer(prob.get("function_memory_cap_bytes", DEFAULT_FUNCTION_MEMORY_CAP),
                                                 "function_memory_cap_bytes must be an integer"),
                stages=json_integer(prob.get("stages", 1), "stages must be an integer"),
            ),
            exec_inputs=ShuffleExec(
                function_gb_seconds=usd(ex.get("function_gb_seconds", 0)),
                fast_store_gb_hours=usd(ex.get("fast_store_gb_hours", 0)),
                slow_store_write_fraction=usd(ex.get("slow_store_write_fraction", "1/2")),
                slow_store_ops=None if ops is None else json_integer(ops, "slow_store_ops must be an integer"),
                duration_s=None if duration is None else report_float(usd(duration), "duration_s"),
                compute_service=ex.get("compute_service", "serverless"),
                slow_store_service=ex.get("slow_store_service", "object"),
                fast_store_service=ex.get("fast_store_service", "memory"),
            ),
            expected_usd={key: usd(value) for key, value in doc.get("expected_usd", {}).items()},
            notes=tuple(doc.get("notes", [])),
        )
    except KeyError as exc:
        raise PlanError(f"preset {str(path)!r} is missing field {exc.args[0]!r}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise PlanError(f"malformed preset {str(path)!r}: {exc}") from None


def run_preset(preset: ShufflePreset, catalog: ServiceCatalog) -> tuple[ShufflePlan, ShuffleCostBreakdown]:
    shuffle_plan = plan(preset.problem)
    return shuffle_plan, price_plan(shuffle_plan, catalog, preset.exec_inputs)
