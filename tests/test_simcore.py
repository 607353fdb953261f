"""Platform simulator: billing, cold starts, autoscaling, breakeven."""

import json
import math
import re
import tempfile
import tracemalloc
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import chain, repeat
from operator import mul
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from faasim import catalog as cat
from faasim import jsontext
from faasim import simcore as sim
from faasim import workloads as wl
from faasim.money import FALLACY_COST_RATIO, decimal_literal, usd, usd_json
from test_cli import run as run_cli
from documents import dumps
from trace_reference import SplitMix64, fixed_interval_trace, poisson_trace, trace_of


@pytest.fixture(scope="module")
def fn_spec():
    return cat.load_catalog(cat.default_catalog_path()).compute_service("serverless")


@pytest.fixture(scope="module")
def vm_spec():
    return cat.load_catalog(cat.default_catalog_path()).compute_service("serverful")


def platform(fn_spec, cold=(0.0, 0.0, 0.0), keep_alive=600.0, prestarted=0):
    return sim.PlatformConfig(
        compute=fn_spec,
        cold_start=sim.ColdStartModel(*cold),
        keep_alive_s=keep_alive,
        warm_pool_prestarted=prestarted,
    )


def trace(*pairs, memory=0.125):
    return trace_of([(a, d, memory) for a, d in pairs])


def column(table, key):
    return list(table.columns[table.keys.index(key)])


def max_overlap(entries):
    """Sweep-line oracle: most intervals [arrival, arrival+duration) alive."""
    events = []
    for inv in entries:
        events.append((inv.arrival_s, 1))
        events.append((inv.arrival_s + inv.duration_s, -1))
    events.sort(key=lambda e: (e[0], e[1]))  # departures before arrivals at ties
    alive = peak = 0
    for _, delta in events:
        alive += delta
        peak = max(peak, alive)
    return peak


# --- billing -----------------------------------------------------------------


def test_billing_table_values(fn_spec):
    assert sim.bill_invocation(0.1, 0.125, fn_spec) == usd("2e-7")
    assert sim.bill_invocation(0.25, 0.125, fn_spec) == usd("6e-7")  # 3 units
    assert sim.billed_units(0.25, fn_spec) == 3


def test_billing_rejects_over_limit(fn_spec):
    with pytest.raises(sim.BillingError, match="limit"):
        sim.bill_invocation(901, 0.125, fn_spec)
    assert sim.bill_invocation(900, 0.125, fn_spec) == 9000 * usd("2e-7")


@pytest.mark.parametrize("duration", [0, 0.0, -0.0])
@pytest.mark.parametrize("bill", [
    lambda duration, spec: sim.billed_units(duration, spec),
    lambda duration, spec: sim.bill_invocation(duration, 0.125, spec),
], ids=["billed-units", "bill-invocation"])
def test_billing_refuses_a_zero_duration(fn_spec, bill, duration):
    with pytest.raises(sim.BillingError, match="duration must be positive"):
        bill(duration, fn_spec)


def test_billing_rejects_memory_out_of_range(fn_spec):
    with pytest.raises(sim.BillingError, match="memory"):
        sim.bill_invocation(1, 0.05, fn_spec)
    with pytest.raises(sim.BillingError, match="memory"):
        sim.bill_invocation(1, 4.0, fn_spec)


@pytest.mark.parametrize("call", [
    lambda spec: sim.bill_invocation(float("inf"), 0.125, spec),
    lambda spec: sim.serverful_cost(float("nan"), spec),
    lambda spec: sim.serverful_cost(float("inf"), spec),
    lambda spec: sim.billed_units("1e2000", spec),
], ids=["bill-inf", "serverful-nan", "serverful-inf", "units-huge-exponent"])
def test_billing_reads_numbers_through_usd(fn_spec, call):
    with pytest.raises(ValueError, match="not a finite|decimal exponent"):
        call(fn_spec)


def test_billing_memory_scaling(fn_spec):
    assert sim.bill_invocation(0.1, 0.25, fn_spec) == 2 * usd("2e-7")
    assert sim.bill_invocation(0.1, 3.0, fn_spec) == 24 * usd("2e-7")


def test_billing_ceil_against_integer_oracle(fn_spec):
    """1,000 pseudo-random durations vs pure integer-ms arithmetic."""
    rng = SplitMix64(2024)
    unit_ms = 100
    for _ in range(1000):
        duration_ms = 1 + rng.next_u64() % 900_000
        expected_units = (duration_ms + unit_ms - 1) // unit_ms
        duration_s = duration_ms / 1000.0
        assert sim.billed_units(duration_s, fn_spec) == expected_units


@given(st.integers(min_value=1, max_value=900_000), st.integers(min_value=0, max_value=9_000))
def test_billing_monotone(fn_spec, duration_ms, bump_ms):
    shorter = sim.billed_units(duration_ms / 1000.0, fn_spec)
    longer = sim.billed_units((duration_ms + bump_ms) / 1000.0, fn_spec)
    assert longer >= shorter


# --- simulation --------------------------------------------------------------


def test_empty_trace_scales_to_zero(fn_spec):
    result = sim.simulate(trace(), platform(fn_spec))
    assert result.cost_usd == 0
    assert result.instances_created == 0
    assert result.peak_concurrency == 0
    assert result.instance_seconds_running == 0


def test_cold_then_warm_reuse(fn_spec):
    # Cold start 0.5 + 10 + 2 = 12.5 s; the instance frees at t = 14.5,
    # a second call one second later reuses it warm at zero latency.
    result = sim.simulate(
        trace((0.0, 2.0), (15.5, 2.0)),
        platform(fn_spec, cold=(0.5, 10.0, 2.0)),
    )
    first, second = result.invocations
    assert first["start_latency_s"] == 12.5 and first["cold"]
    assert second["start_latency_s"] == 0.0 and not second["cold"]
    assert result.instances_created == 1
    assert result.cold_starts == 1


def test_simultaneous_arrivals_need_two_instances(fn_spec):
    result = sim.simulate(trace((0.0, 1.0), (0.0, 1.0)), platform(fn_spec, cold=(0.5, 0, 0)))
    assert result.cold_starts == 2
    assert result.peak_concurrency == 2
    assert result.instances_created == 2


def test_prestarted_environment_skips_to_app_init(fn_spec):
    result = sim.simulate(
        trace((0.0, 1.0), (0.0, 1.0)),
        platform(fn_spec, cold=(0.5, 10.0, 2.0), prestarted=1),
    )
    latencies = sorted(column(result.invocations, "start_latency_s"))
    assert latencies == [2.0, 12.5]


def test_rejected_invocations_reported(fn_spec):
    result = sim.simulate(trace((0.0, 901.0), (1.0, 1.0)), platform(fn_spec))
    assert [*result.rejected] == [{"index": 0, "arrival_s": 0.0, "duration_s": 901.0,
                                   "reason": "duration exceeds max run time"}]
    assert len(result.invocations) == 1


def test_retirement_at_arrival_instant_wins(fn_spec):
    # keep-alive 5: instance idles at t=1, retires at t=6; an arrival at
    # exactly t=6 must provision a fresh instance.
    result = sim.simulate(trace((0.0, 1.0), (6.0, 1.0)), platform(fn_spec, keep_alive=5.0))
    assert result.cold_starts == 2
    # one tick earlier the warm instance is still there
    result = sim.simulate(trace((0.0, 1.0), (5.9, 1.0)), platform(fn_spec, keep_alive=5.0))
    assert result.cold_starts == 1


def test_completion_at_arrival_instant_allows_reuse(fn_spec):
    result = sim.simulate(trace((0.0, 1.0), (1.0, 1.0)), platform(fn_spec))
    assert result.cold_starts == 1
    assert column(result.invocations, "start_latency_s")[1] == 0.0


def test_determinism_byte_identical(fn_spec):
    poisson = poisson_trace(60, 2.0, 0.4, seed=11)
    config = platform(fn_spec, cold=(0.5, 1.0, 0.25), keep_alive=2.0)
    first = sim.simulate(poisson, config)
    second = sim.simulate(poisson, config)
    assert dumps(first.to_json_dict(), sort_keys=True) == dumps(second.to_json_dict(), sort_keys=True)


def test_conservation_and_utilization(fn_spec):
    poisson = poisson_trace(40, 1.5, 0.7, seed=5)
    result = sim.simulate(poisson, platform(fn_spec, cold=(0.3, 0.2, 0.1), keep_alive=3.0))
    assert sum(column(result.invocations, "billed_units")) == result.billed_units
    assert sum(column(result.invocations, "cost_usd"), Fraction(0)) == result.cost_usd
    assert result.busy_seconds <= result.instance_seconds_running + 1e-9
    assert 0.0 <= result.utilization <= 1.0


def test_cost_identity_uniform_memory(fn_spec):
    entries = trace((0.0, 0.35), (1.0, 0.2), (2.5, 1.0), memory=0.25)
    result = sim.simulate(entries, platform(fn_spec))
    scaling = Fraction(1, 4) / fn_spec.base_memory_gib
    expected = result.billed_units * fn_spec.price_usd_per_unit * scaling
    expected += len(result.invocations) * fn_spec.request_fee_usd
    assert result.cost_usd == expected


@pytest.mark.parametrize("seed", range(100))
def test_peak_concurrency_matches_overlap_oracle(fn_spec, seed):
    poisson = poisson_trace(30, 4.0, 0.5, seed=seed)
    result = sim.simulate(poisson, platform(fn_spec, cold=(0, 0, 0), keep_alive=1.0))
    assert result.peak_concurrency == max_overlap(poisson.entries)


def test_keep_alive_monotone_cold_starts(fn_spec):
    for seed in range(20):
        poisson = poisson_trace(40, 1.0, 0.3, seed=seed)
        cold_counts = [
            sim.simulate(poisson, platform(fn_spec, cold=(0.5, 0.5, 0), keep_alive=ka)).cold_starts
            for ka in (0.0, 0.5, 1.0, 5.0, 50.0)
        ]
        assert cold_counts == sorted(cold_counts, reverse=True)


def test_warm_reuse_requires_matching_memory(fn_spec):
    entries = trace_of([(0.0, 1.0, 0.125), (2.0, 1.0, 0.25)])
    result = sim.simulate(entries, platform(fn_spec, cold=(0.5, 0, 0)))
    assert result.cold_starts == 2


def test_tie_rule_holds_on_decimal_literals(fn_spec):
    # 0.1 + 0.2 is 0.30000000000000004 in binary floating point; on the
    # decimal clock the first call ends exactly when the second arrives.
    shifted = sim.simulate(trace((0.1, 0.2), (0.3, 1.0)), platform(fn_spec))
    aligned = sim.simulate(trace((0.0, 0.3), (0.3, 1.0)), platform(fn_spec))
    assert shifted.cold_starts == aligned.cold_starts == 1
    assert not column(shifted.invocations, "cold")[1]


def test_busy_and_lifetime_are_exact(fn_spec):
    # Ten back-to-back 0.1 s calls: a float sum would give 0.9999999999999999.
    result = sim.simulate(trace(*((i / 10, 0.1) for i in range(10))), platform(fn_spec, keep_alive=0.1))
    assert result.busy_seconds == 1.0
    assert result.instance_seconds_running == 1.1
    assert result.cold_starts == 1


def reference_ticks(*groups):
    """The all-Decimal clock: every time read by `decimal_literal`, the scale from their exact sum."""
    literals = [list(map(decimal_literal, group)) for group in groups]
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        # An exact sum carries the least exponent of its terms.
        exponent = sum(chain.from_iterable(literals)).as_tuple().exponent
        scale = 10 ** max(0, -exponent)
        return scale, [list(map(int, map(mul, group, repeat(scale)))) for group in literals]


# Every finite double, with the zeros, subnormals and repr's exponent forms (below 1e-4, from 1e16) drawn often.
finite_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e-300, 5e-05, 1e-4, 0.1,
                                    9999999999999998.0, 1e16, -1.5e16, 1e300])
                 | st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                             st.floats(-10, 10, allow_nan=False), st.integers(-300, 300)))
other_numbers = st.integers(-10**20, 10**20) | st.builds(
    lambda digits, exponent: Decimal(f"{digits}E{exponent}"), st.integers(-10**12, 10**12), st.integers(-40, 40))
# Decimals of at most 9 fraction digits, as traces rounded to the ms or µs hold. Two examples in three draw every
# number from these and small integers, so their float groups take `_ticks`' kernel; the rest draw from anything.
short_decimals = st.builds(lambda n, k: n / 10**k, st.integers(-10**14, 10**14), st.integers(0, 9))
short_clock = st.shared(st.sampled_from((True, True, False)), key="short clock")


@settings(max_examples=300, deadline=None)
@given(short_clock.flatmap(lambda short: st.lists(st.lists(
           short_decimals if short else finite_floats | short_decimals, max_size=8), max_size=3)),
       short_clock.flatmap(lambda short: st.lists(
           short_decimals | st.integers(-10**6, 10**6) if short else finite_floats | other_numbers,
           min_size=1, max_size=5)),
       st.integers(min_value=1, max_value=3))
@example([[-0.0, 5e-05, 1e16]], [0, Decimal("0.10")], 3)
@example([[0.1, 0.2, 5e-05, 0.25], [5e-324]], [600], 2)
@example([[1e16, 2e16]], [0], 1)
@example([[1125899906842.623, -1.5, 0.0]], [0.5, 600], 2)  # 10**3 x the largest is just under 2**50: the kernel
@example([[1125899906842.625, 7.0]], [0.5], 1)  # and just over: the texts
@example([[1e-22, -0.0, 7e-22]], [0], 3)  # 10**22, the largest power of ten a double holds exactly: the kernel
@example([[1e-23, -0.0, 7e-22]], [0], 3)  # 10**23: the texts
@example([[-0.0, -2.5, 4.0, -7.0, 12345678.0]], [0, 1], 2)  # negative and integer-valued floats
@example([[5e-05, 0.25], [1e16]], [0.3], 1)  # an exponent text on the kernel; 1e16 x 10**5 puts its group on the texts
def test_ticks_match_the_decimal_reference(float_groups, numbers, run_length):
    # `simulate` hands the clock its arrivals and durations as runs of repr texts, each the text json.dumps
    # writes of a list of floats, with the floats and their largest magnitude, and the platform's four numbers as
    # one run alone.
    groups = [([json.dumps(group[at:at + run_length])[1:-1] for at in range(0, len(group), run_length)],
               group, max(map(abs, group), default=0.0)) for group in float_groups]
    scale, ticks = sim._ticks(*groups, ([numbers], None, None))
    for group in ticks[:-1]:
        event("float group: " + ("kernel" if type(group) is map else "texts"))
    assert (scale, [*map(list, ticks)]) == reference_ticks(*float_groups, numbers)


def test_bad_memory_rejected_without_aborting(fn_spec):
    entries = trace_of([(0.0, 1.0, 0.125), (1.0, 1.0, 4.0), (2.0, 1.0, -1.0), (3.0, 901.0, 64.0), (4.0, 1.0, 0.125)])
    result = sim.simulate(entries, platform(fn_spec))
    assert [(r["index"], r["reason"]) for r in result.rejected] == [
        (1, "memory outside the configurable range"),
        (2, "memory outside the configurable range"),
        (3, "duration exceeds max run time"),
    ]
    assert len(result.invocations) == 2
    assert result.cost_usd == 2 * sim.bill_invocation(1.0, 0.125, fn_spec)


_MEMORIES = (0.125, 0.25, 0.5, 1.0, 3.0, 0.2, 0.05, 4.0, 0.0, -1.0)


# Durations to the ms beside full-precision ones such as 0.1 + 0.2, and keys just under, at and just over the 900 s
# limit. The explicit example has 244 distinct keys: 1-240 ms and four more, over every memory class in turn.
billing_durations = (st.integers(min_value=1, max_value=3_000).map(lambda ms: ms / 1000)
                     | st.sampled_from([899.999, 900.0, 900.001, 1000.0, 0.1 + 0.2, 0.7 + 0.1, 1 / 3])
                     | st.floats(min_value=1e-3, max_value=1000))
MANY_KEYS = [(at, duration, _MEMORIES[at % len(_MEMORIES)]) for at, duration in enumerate(
    [*(ms / 1000 for ms in range(1, 241)), 0.1 + 0.2, 899.999, 900.0, 900.001])]


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5_000), billing_durations, st.sampled_from(_MEMORIES)),
                max_size=40))
@example(MANY_KEYS)
def test_grouped_billing_matches_per_invocation(fn_spec, rows):
    """Per-key totals equal the per-invocation sum of bill_invocation."""
    rows = sorted(rows, key=lambda row: row[0])
    entries = tuple(wl.Invocation(a / 1000, d, m) for a, d, m in rows)
    result = sim.simulate(trace_of(entries), platform(fn_spec, cold=(0.25, 0.0, 0.1), keep_alive=0.5))
    expected_rejected = [
        (i, "duration exceeds max run time" if inv.duration_s > 900 else "memory outside the configurable range")
        for i, inv in enumerate(entries)
        if inv.duration_s > 900 or not 0.125 <= inv.memory_gb <= 3
    ]
    assert [(r["index"], r["reason"]) for r in result.rejected] == expected_rejected
    rejected = {i for i, _ in expected_rejected}
    kept = [inv for i, inv in enumerate(entries) if i not in rejected]
    assert len(result.invocations) == len(kept)
    costs = [sim.bill_invocation(inv.duration_s, inv.memory_gb, fn_spec) for inv in kept]
    assert result.cost_usd == sum(costs, Fraction(0))
    units = [sim.billed_units(inv.duration_s, fn_spec) for inv in kept]
    assert result.billed_units == sum(units)
    assert list(column(result.invocations, "billed_units")) == units
    assert list(column(result.invocations, "cost_usd")) == costs
    assert [r["cost_usd"] for r in result.to_json_dict()["invocations"]] == [usd_json(c) for c in costs]


# --- differential oracle -------------------------------------------------------


def literal(value) -> Fraction:
    return Fraction(Decimal(repr(float(value))))


class RefInstance:
    def __init__(self, memory, created):
        self.memory, self.created = memory, created
        self.idle_since = self.idle_order = self.retired = None


def reference_simulate(entries, config):
    """Deliberately naive simulator: a Fraction clock, one explicit event list
    sorted by (time, kind, seq) before every step, instance objects, and a
    retire event per idle period that fires only if the instance is still
    idle since then. Returns the SimResult fields, each record list as its
    row dicts, plus the instances."""
    spec, cold, keep_alive = config.compute, config.cold_start, literal(config.keep_alive_s)
    full = literal(cold.t_schedule_s) + literal(cold.t_env_s) + literal(cold.t_app_s)
    complete, retire, arrive = 0, 1, 2
    events = [(literal(e.arrival_s), arrive, i, None) for i, e in enumerate(entries)]
    instances, invocations, rejected = [], [], []
    running = peak = idled = 0
    busy = Fraction(0)
    prestarted_left = config.warm_pool_prestarted
    while events:
        events.sort(key=lambda event: event[:3])
        now, kind, seq, payload = events.pop(0)
        if kind == complete:
            running -= 1
            payload.idle_since, payload.idle_order, idled = now, idled, idled + 1
            events.append((now + keep_alive, retire, seq, (payload, now)))
            continue
        if kind == retire:
            inst, since = payload
            if inst.idle_since == since:
                inst.idle_since, inst.retired = None, now
            continue
        entry = entries[seq]
        duration, memory = literal(entry.duration_s), literal(entry.memory_gb)
        if duration > spec.max_run_time_s:
            rejected.append({"index": seq, "arrival_s": entry.arrival_s, "duration_s": entry.duration_s,
                             "reason": "duration exceeds max run time"})
            continue
        if not spec.memory_min_gib <= memory <= spec.memory_max_gib:
            rejected.append({"index": seq, "arrival_s": entry.arrival_s, "duration_s": entry.duration_s,
                             "reason": "memory outside the configurable range"})
            continue
        idle = [i for i in instances if i.memory == memory and i.idle_since is not None]
        if idle:
            inst = max(idle, key=lambda i: i.idle_order)
            inst.idle_since, latency = None, Fraction(0)
        else:
            inst = RefInstance(memory, now)
            instances.append(inst)
            if prestarted_left:
                prestarted_left -= 1
                latency = literal(cold.t_app_s)
            else:
                latency = full
        running += 1
        peak = max(peak, running)
        units = math.ceil(duration / spec.accounting_unit_s)
        cost = units * spec.price_usd_per_unit * memory / spec.base_memory_gib + spec.request_fee_usd
        invocations.append({"arrival_s": entry.arrival_s, "start_latency_s": float(latency),
                            "duration_s": entry.duration_s, "cold": not idle, "billed_units": units, "cost_usd": cost})
        busy += latency + duration
        events.append((now + latency + duration, complete, seq, inst))
    fields = dict(
        invocations=invocations,
        rejected=rejected,
        billed_units=sum(inv["billed_units"] for inv in invocations),
        cost_usd=sum((inv["cost_usd"] for inv in invocations), Fraction(0)),
        cold_starts=len(instances),
        peak_concurrency=peak,
        instances_created=len(instances),
        instance_seconds_running=float(sum((i.retired - i.created for i in instances), Fraction(0))),
        busy_seconds=float(busy),
    )
    return fields, instances


# Few distinct times in tenths of a second, so completions and retirements
# land on arrival instants; durations off the 0.1 s unit, and two over the
# 900 s limit; three memory classes and two out of range.
tenths = st.integers(min_value=0, max_value=30).map(lambda n: n / 10)
small_traces = st.lists(
    st.tuples(
        tenths,
        st.sampled_from((0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0, 1.35, 900.1, 1000.0)),
        st.sampled_from((0.125, 0.25, 1.0, 4.0, 0.05)),
    ),
    max_size=30,
).map(lambda rows: trace_of(sorted(rows, key=lambda row: row[0])))
platforms = st.tuples(
    st.tuples(*[st.sampled_from((0.0, 0.1, 0.2, 0.5))] * 3),
    st.sampled_from((0.0, 0.1, 0.2, 0.5, 1.0, 600.0)),
    st.integers(min_value=0, max_value=3),
)
ORACLE_SETTINGS = settings(max_examples=300, deadline=None)


# Rejected entries before, between and after pre-started and full cold
# starts: each served row's cold flag and latency sit at its served position.
MIXED_COLD = [(0.0, 1000.0, 0.125), (0.0, 0.25, 0.125), (0.1, 0.3, 0.05), (0.2, 0.5, 0.125),
              (0.2, 900.1, 0.25), (0.3, 0.2, 0.25), (0.3, 1000.0, 4.0), (2.0, 0.1, 0.125),
              (2.1, 0.1, 1.0), (2.1, 0.05, 4.0), (2.2, 0.3, 0.125), (2.2, 0.2, 0.125),
              (2.3, 0.1, 0.25), (3.0, 1000.0, 1.0)]


# `simulate` reads and writes the arrivals a run of `jsontext._CHUNK_ROWS` at a time. Runs of 1-3 cut a
# small trace into many, so runs end beside rejected entries and an exponent text lands in any run.
run_lengths = st.sampled_from((jsontext._CHUNK_ROWS, 1, 2, 3))
# 0.123456 sets the clock's digits in the first run, 1e16 and 2.5e16 are exponent texts in later ones.
LATE_EXPONENTS = [(0.123456, 0.25, 0.125), (0.5, 1000.0, 0.125), (1e16, 0.25, 0.125), (1e16, 0.1, 4.0),
                  (2.5e16, 0.3, 0.25)]
# Runs of three: the second one's first and last entries are rejected. Runs of two: the second is all rejected.
REJECTED_AT_EDGES = [(0.0, 0.25, 0.125), (0.1, 0.5, 0.25), (0.2, 0.3, 0.125), (0.3, 1000.0, 0.125),
                     (0.4, 0.25, 0.125), (0.5, 0.25, 4.0), (0.6, 0.1, 0.125)]
RUN_OF_REJECTED = [(0.0, 0.25, 0.125), (0.1, 0.5, 0.125), (0.2, 1000.0, 0.125), (0.3, 0.25, 4.0),
                   (0.35, 0.25, 0.125)]
# Arrivals to the µs, the last one's ticks just under 2**50: the clock's float kernel makes every tick. One arrival
# of 0.30000000000000004 moves the clock to 17 digits and both groups to the texts. At 13 digits, 450.3599624370523 s
# alone puts the durations past the bound, where a product would make it one tick short; the arrivals stay on the
# kernel.
NEAR_BOUND = [(1e-06, 0.25, 0.125), (1.5, 0.001, 0.125), (1.75, 0.25, 0.125), (1125899906.842623, 0.1, 0.25)]
ONE_LONG_TEXT = [NEAR_BOUND[0], (0.30000000000000004, 0.25, 0.125), *NEAR_BOUND[1:]]
LONG_DURATION = [(0.0, 0.25, 0.125), (0.1234567890123, 450.3599624370523, 0.25), (0.2, 0.5, 0.125), (2.5, 0.1, 0.125)]
# One end of the arrivals past the bound, the other not: a product would round -4503599624.370497 s to one tick
# late and 4503599624.370497 s to one tick early, and the entry arriving as another ends would miss its warm instance.
FAR_FIRST = [(-4503599624.370497, 0.250001, 0.125), (-4503599624.120496, 0.25, 0.125), (0.5, 0.25, 0.125)]
FAR_LAST = [(0.5, 0.25, 0.125), (4503599624.120496, 0.250001, 0.125), (4503599624.370497, 0.25, 0.125)]


@ORACLE_SETTINGS
@given(small_traces, platforms, run_lengths)
@example(trace_of(MIXED_COLD), ((0.5, 0.2, 0.1), 5.0, 2), jsontext._CHUNK_ROWS)
@example(trace_of(MIXED_COLD), ((0.2, 0.0, 0.5), 0.1, 1), 3)
@example(trace_of(MIXED_COLD[1:]), ((0.1, 0.1, 0.1), 600.0, 3), 1)
@example(trace_of(LATE_EXPONENTS), ((0.1, 0.2, 0.3), 600.0, 1), 1)
@example(trace_of(LATE_EXPONENTS), ((0.5, 0.0, 0.0), 0.5, 0), 2)
@example(trace_of(REJECTED_AT_EDGES), ((0.1, 0.0, 0.2), 0.2, 1), 3)
@example(trace_of(RUN_OF_REJECTED), ((0.1, 0.0, 0.2), 600.0, 0), 2)
@example(trace_of(NEAR_BOUND), ((0.5, 0.0, 0.3), 10.0, 1), 2)
@example(trace_of(ONE_LONG_TEXT), ((0.5, 0.0, 0.3), 10.0, 1), 2)
@example(trace_of(LONG_DURATION), ((0.5, 0.2, 0.1), 600.0, 0), jsontext._CHUNK_ROWS)
@example(trace_of(FAR_FIRST), ((0.0, 0.0, 0.0), 600.0, 0), 2)
@example(trace_of(FAR_LAST), ((0.0, 0.0, 0.0), 600.0, 0), 1)
def test_simulate_matches_naive_reference(fn_spec, trace, params, rows):
    cold, keep_alive, prestarted = params
    config = platform(fn_spec, cold=cold, keep_alive=keep_alive, prestarted=prestarted)
    expected, instances = reference_simulate(trace.entries, config)
    assert all(inst.retired is not None for inst in instances)  # the reference scales to zero too
    with patch.object(jsontext, "_CHUNK_ROWS", rows):
        result = sim.simulate(trace, config)
        texts = dumps(result.to_json_dict()["invocations"])
    assert {name: getattr(result, name) for name in expected} | {
        "invocations": [*result.invocations], "rejected": [*result.rejected]} == expected
    assert texts == json.dumps(expected["invocations"], indent=2, default=usd_json)


@ORACLE_SETTINGS
@given(small_traces, platforms)
def test_units_conserved_and_scale_to_zero(fn_spec, trace, params):
    cold, keep_alive, prestarted = params
    result = sim.simulate(trace, platform(fn_spec, cold=cold, keep_alive=keep_alive, prestarted=prestarted))
    assert sum(column(result.invocations, "billed_units")) == result.billed_units
    assert sum(column(result.invocations, "cost_usd"), Fraction(0)) == result.cost_usd
    assert result.instance_seconds_running >= result.busy_seconds
    # Every created instance retires one keep-alive after it last went idle,
    # so it lives at least its busy time plus one keep-alive.
    busy = Fraction(0)
    for r in result.invocations:
        busy += literal(r["duration_s"])
        if r["cold"]:  # application start alone when prestarted, else all three parts
            busy += literal(cold[2]) if r["start_latency_s"] == cold[2] else sum(map(literal, cold))
    assert result.instance_seconds_running >= float(busy + result.instances_created * literal(keep_alive))


# Byte oracle: 2-4 memory classes, one outside the catalog's range; durations of
# every repr length and over the 900 s limit; arrivals on shared tenths or anywhere.
memory_classes = st.tuples(
    st.lists(st.sampled_from((0.125, 0.25, 0.5, 1.0, 1.5, 3.0)), min_size=1, max_size=3, unique=True),
    st.sampled_from((0.0625, 4.0, 10.0)),
).map(lambda classes: classes[0] + [classes[1]])
report_traces = memory_classes.flatmap(lambda classes: st.lists(
    st.tuples(
        tenths | st.floats(min_value=0, max_value=60),
        st.sampled_from((0.1, 0.25, 1.35, 900.1, 1000.0)) | st.floats(min_value=1e-3, max_value=20),
        st.sampled_from(classes),
    ),
    min_size=1, max_size=25,
).map(lambda rows: sorted(rows, key=lambda row: row[0])))


@settings(max_examples=150, deadline=None)
@given(report_traces, st.integers(min_value=0, max_value=3), st.sampled_from((0.0, 0.3, 600.0)),
       st.sampled_from(((0.5, 0.0, 0.0), (0.1, 0.2, 0.3))), run_lengths)
@example([(0.0, 0.25, 0.125), (0.0, 1000.0, 0.125), (0.1, 0.25, 4.0), (0.1, 0.5, 0.25), (0.2, 0.25, 0.125),
          (0.4, 900.1, 0.25), (0.5, 0.25, 0.125)], 2, 0.0, (0.1, 0.2, 0.3), jsontext._CHUNK_ROWS)
@example([(0.0, 0.25, 0.125), (0.0, 1000.0, 0.125), (0.1, 0.25, 4.0), (0.1, 0.5, 0.25), (0.2, 0.25, 0.125),
          (0.4, 900.1, 0.25), (0.5, 0.25, 0.125)], 1, 0.3, (0.5, 0.0, 0.0), 2)
@example(LATE_EXPONENTS, 1, 600.0, (0.1, 0.2, 0.3), 1)
@example([(0.0, 0.25, 0.125), (5e-05, 0.5, 0.125), (0.00012, 1000.0, 0.125), (1.5, 0.001, 0.25)], 0, 0.3,
         (0.5, 0.0, 0.0), 1)
@example(REJECTED_AT_EDGES, 0, 0.3, (0.1, 0.2, 0.3), 3)
@example(RUN_OF_REJECTED, 2, 0.0, (0.5, 0.0, 0.0), 2)
def test_report_rows_are_the_stdlib_text_of_the_reference_rows(fn_spec, rows, prestarted, keep_alive, cold,
                                                                run_length):
    """The JSON report of `faasim simulate` is the stdlib's text of `to_json_dict()` with each
    record list as its rows, and those rows are the naive reference simulator's."""
    with patch.object(jsontext, "_CHUNK_ROWS", run_length):
        check_report_rows(fn_spec, rows, prestarted, keep_alive, cold)


def check_report_rows(fn_spec, rows, prestarted, keep_alive, cold):
    trace = trace_of(rows)
    config = platform(fn_spec, cold=cold, keep_alive=keep_alive, prestarted=prestarted)
    doc = sim.simulate(trace, config).to_json_dict()
    doc = doc | {"invocations": [*doc["invocations"]], "rejected": [*doc["rejected"]]}
    expected, _ = reference_simulate(trace.entries, config)
    assert doc["invocations"] == [row | {"cost_usd": usd_json(row["cost_usd"])} for row in expected["invocations"]]
    assert doc["rejected"] == expected["rejected"]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.json"
        path.write_text(json.dumps([{"arrival_s": a, "duration_s": d, "memory_gb": m} for a, d, m in rows]))
        code, out, err = run_cli("simulate", "--trace", str(path), "--prestarted", str(prestarted),
                                 "--keep-alive", str(keep_alive), "--t-schedule", str(cold[0]),
                                 "--t-env", str(cold[1]), "--t-app", str(cold[2]))
    assert (code, err) == (0, "")
    report = {"manifest": json.loads(out)["manifest"], "result": doc}
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


# Bytes `simulate` may allocate per entry above its input trace. On Python 3.11.7 the trace below peaked at 45
# per entry: its served code (8 bytes), its arrival in the packed served column (8), about 20 bytes of arrival
# text in a run, a byte each for the served mask and its start kind, and one run's tick texts. One repr text and
# one tick int per arrival held for the run came to 138.
SIMULATE_BYTES_PER_ENTRY = 64


def test_simulate_peak_above_its_trace_follows_the_entries(fn_spec):
    count = 50_000
    entries = [*wl.poisson_trace(count, 50.0, 0.25, seed=3)[0]]
    entries[count // 3]["duration_s"] = entries[2 * count // 3]["duration_s"] = 1000.0  # over the run-time limit
    trace = wl.InvocationTrace.from_json(entries)
    config = platform(fn_spec, cold=(0.5, 2.0, 0.3), keep_alive=10.0, prestarted=20)
    sim.simulate(trace_of([(0.0, 1000.0, 0.125), (0.5, 1.0, 0.125)]), config)  # first use allocates nothing counted
    tracemalloc.start()
    try:
        result = sim.simulate(trace, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(result.invocations), len(result.rejected)) == (count - 2, 2)
    assert peak < SIMULATE_BYTES_PER_ENTRY * count


# With nothing rejected, `simulate` takes the trace's packed arrivals and billing codes as they are: on Python
# 3.11.7 the trace below peaked at 36.5 bytes per entry above it, about 20 of them the arrival texts it keeps and
# 16 one run's tick texts. Coding each entry's key again, a list of 8 bytes per entry, came to 45.0.
def test_simulate_adds_no_per_entry_column_to_a_loaded_trace(fn_spec, tmp_path):
    count = 20_000
    path = tmp_path / "trace.json"
    with path.open("w", encoding="utf-8") as out:
        jsontext.write(out, wl.poisson_trace(count, 50.0, 0.25, seed=3)[0])
    trace = wl.load_trace(path)
    config = platform(fn_spec, cold=(0.5, 2.0, 0.3), keep_alive=10.0, prestarted=20)
    sim.simulate(trace_of([(0.0, 1000.0, 0.125), (0.5, 1.0, 0.125)]), config)  # first use allocates nothing counted
    tracemalloc.start()
    try:
        result = sim.simulate(trace, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(result.invocations), len(result.rejected)) == (count, 0)
    assert peak < 40 * count


# Trace documents for the coded reader: entries repeat a (duration, memory) pair or not, and each number is written
# as a JSON float (repr: -0.0, and 5e-05 and 1e+16 in exponent form), an int where it is whole, or a numeric
# string. Durations of 900.1 and 1000 s are over the run-time limit; memory of 4, 0.05, 0.0 and -0.0 GiB is outside
# the range, and a missing memory reads as 0.125.
coded_arrivals = st.sampled_from((-0.0, 0.0, 5e-05, 0.1, 0.25, 1.0, 2.0, 3.5, 1e16)) | st.floats(0, 60)
coded_durations = st.sampled_from((0.25, 0.5, 1.0, 1.35, 900.1, 1000.0))
coded_memory = st.sampled_from((0.125, 0.25, 1.0, 4.0, 0.05, 0.0, -0.0))


def spelled(value, how):
    """`value` as a trace file may write it: a float, its repr text, or an int where it is whole."""
    if how == "text":
        return repr(value)
    return int(value) if how == "int" and value.is_integer() and abs(value) < 2**53 else value


@st.composite
def trace_documents(draw):
    count = draw(st.integers(min_value=0, max_value=34))
    arrivals = sorted(draw(st.lists(coded_arrivals, min_size=count, max_size=count)))
    spellings = st.sampled_from(("float", "text", "int"))
    doc = []
    for arrival in arrivals:
        entry = {"arrival_s": spelled(arrival, draw(spellings)),
                 "duration_s": spelled(draw(coded_durations), draw(spellings))}
        memory = draw(st.none() | coded_memory)
        if memory is not None:
            entry["memory_gb"] = spelled(memory, draw(spellings))
        doc.append(entry)
    return doc


@settings(max_examples=150, deadline=None)
@given(trace_documents(), platforms, st.sampled_from((16, 64, 1 << 16)), run_lengths)
@example([{"arrival_s": -0.0, "duration_s": 1, "memory_gb": 0.0}, {"arrival_s": "5e-05", "duration_s": 1.0,
          "memory_gb": -0.0}, {"arrival_s": 1e16, "duration_s": "1000.0"}, {"arrival_s": 1e16, "duration_s": 1.0}],
         ((0.5, 0.0, 0.0), 600.0, 1), 16, 1)
def test_coded_trace_reads_the_rows_of_its_document(fn_spec, doc, params, chunk, run_length):
    """Every reader of a trace file or document gives its rows read field by field with `float` (zero signs
    count), and `simulate` of the coded trace writes what the naive reference gives for those rows."""
    rows = [(float(entry["arrival_s"]), float(entry["duration_s"]), float(entry.get("memory_gb", 0.125)))
            for entry in doc]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with patch.object(wl, "CHUNK", chunk):
            chunked = wl.load_trace(path)
        traces = [wl.load_trace(path), chunked, wl.InvocationTrace.from_json(doc)]
    for trace in traces:
        assert [[*map(repr, entry)] for entry in trace.entries] == [[*map(repr, row)] for row in rows]
        assert trace == trace_of(rows)
    if len(rows) > 30:  # beyond what the reference simulates in good time
        return
    cold, keep_alive, prestarted = params
    config = platform(fn_spec, cold=cold, keep_alive=keep_alive, prestarted=prestarted)
    expected, _ = reference_simulate([*map(wl.Invocation._make, rows)], config)
    with patch.object(jsontext, "_CHUNK_ROWS", run_length):
        result = sim.simulate(traces[0], config)
        report = result.to_json_dict()
        texts = [dumps(report[name]) for name in ("invocations", "rejected")]
    assert texts == [json.dumps(expected["invocations"], indent=2, default=usd_json),
                     json.dumps(expected["rejected"], indent=2)]
    assert {name: getattr(result, name) for name in expected if name not in ("invocations", "rejected")} == {
        name: value for name, value in expected.items() if name not in ("invocations", "rejected")}


# --- command line: non-finite input --------------------------------------------


def _assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.fixture
def good_trace(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps([{"arrival_s": 0.0, "duration_s": 1.0}]))
    return str(path)


@pytest.mark.parametrize("flag", ["--keep-alive", "--t-schedule", "--t-env", "--t-app"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_platform_exits_2(good_trace, flag, value):
    _assert_one_error_line(*run_cli("simulate", "--trace", good_trace, flag, value))


@pytest.mark.parametrize("entry", [
    '{"arrival_s": NaN, "duration_s": 1}',
    '{"arrival_s": 0, "duration_s": 1e400}',
    '{"arrival_s": 0, "duration_s": 1, "memory_gb": NaN}',
])
def test_cli_non_finite_trace_exits_2(tmp_path, entry):
    path = tmp_path / "trace.json"
    path.write_text(f"[{entry}]")
    _assert_one_error_line(*run_cli("simulate", "--trace", str(path)))


@pytest.mark.parametrize("t_app,prestarted,latencies", [
    ("0", "0", [0.3, 0.3]),
    ("0.3", "1", [0.3, 0.6]),  # pre-started: t_app alone; then the full cold start
])
def test_cli_cold_start_latency_is_exact_sum(tmp_path, t_app, prestarted, latencies):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps([{"arrival_s": 0.0, "duration_s": 0.25}] * 2))
    code, out, err = run_cli("simulate", "--trace", str(path), "--t-schedule", "0.1", "--t-env", "0.2",
                             "--t-app", t_app, "--prestarted", prestarted)
    assert code == 0, err
    assert [r["start_latency_s"] for r in json.loads(out)["result"]["invocations"]] == latencies


EDGE_TRACE = ('[{"arrival_s": -0.0, "duration_s": 1}, {"arrival_s": 5e-05, "duration_s": 0.5}, '
              '{"arrival_s": 1e16, "duration_s": 0.25}]')
EDGE_ROWS = ('{"arrival_s": -0.0, "start_latency_s": 0.5, "duration_s": 1.0, "cold": true, "billed_units": 10, '
             '"cost_usd": 2e-06}, {"arrival_s": 5e-05, "start_latency_s": 0.5, "duration_s": 0.5, "cold": true, '
             '"billed_units": 5, "cost_usd": 1e-06}, {"arrival_s": 1e+16, "start_latency_s": 0.5, "duration_s": 0.25, '
             '"cold": true, "billed_units": 3, "cost_usd": 1e-06}')
EDGE_TOTALS = [("billed_units", "18"), ("cost_usd", "4e-06"), ("cold_starts", "3"), ("peak_concurrency", "2"),
               ("instances_created", "3"), ("instance_seconds_running", "1803.25"), ("busy_seconds", "3.25"),
               ("utilization", "0.0018023014002495495")]


@pytest.mark.parametrize("fmt,expected", [
    ("csv", "key,value\ninvocations,\"[%s]\"\nrejected,[]\n" % EDGE_ROWS.replace('"', '""')
     + "".join(f"{key},{value}\n" for key, value in EDGE_TOTALS)),
    ("table", f"invocations               [{EDGE_ROWS}]\nrejected                  []\n"
     + "".join(f"{key.ljust(24)}  {value}\n" for key, value in EDGE_TOTALS)),
])
def test_cli_rows_print_arrivals_in_every_notation(tmp_path, fmt, expected):
    # repr writes -0.0 with its sign, 5e-05 and 1e+16 in exponent form; the clock reads the
    # exponent texts as Decimals and the plain ones by string passes.
    path = tmp_path / "trace.json"
    path.write_text(EDGE_TRACE)
    code, out, err = run_cli("simulate", "--trace", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    assert out == expected


def test_cli_json_writes_each_arrival_as_its_repr(tmp_path):
    """The JSON report writes the arrival texts the clock read, not texts of the floats."""
    path = tmp_path / "trace.json"
    path.write_text(EDGE_TRACE)
    code, out, err = run_cli("simulate", "--trace", str(path))
    assert (code, err) == (0, "")
    assert re.findall(r'"arrival_s": (.*),', out) == ["-0.0", "5e-05", "1e+16"]


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_cli_non_finite_breakeven_ratio_exits_2(ratio):
    _assert_one_error_line(*run_cli("breakeven", "--ratio", ratio))


def test_cli_non_finite_generated_trace_exits_2(tmp_path):
    out = tmp_path / "trace.json"
    _assert_one_error_line(*run_cli("workload", "trace", "--arrivals", "fixed", "--count", "3",
                                     "--interval", "nan", "--duration", "1", "-o", str(out)))
    assert not out.exists()


# --- serverful + breakeven ----------------------------------------------------


def test_serverful_cost_examples(vm_spec):
    hour = sim.serverful_cost(3600, vm_spec)
    assert hour == 60 * usd("0.0000867")
    assert float(hour) == pytest.approx(0.0052, abs=5e-5)
    assert sim.serverful_cost(0, vm_spec) == 0
    assert sim.serverful_cost(90, vm_spec) == 2 * usd("0.0000867")


def test_breakeven_simulation_cross_check(vm_spec):
    ratio = usd(FALLACY_COST_RATIO)
    fn_price = ratio * vm_spec.price_usd_per_unit / 600
    fn = cat.ComputeServiceSpec(
        name="scaled", kind="serverless-function",
        memory_min_gib=vm_spec.base_memory_gib, memory_max_gib=vm_spec.base_memory_gib,
        max_local_storage_gib=Fraction(1, 2), accounting_unit_s=Fraction(1, 10),
        price_usd_per_unit=fn_price, base_memory_gib=vm_spec.base_memory_gib,
        max_run_time_s=Fraction(900),
    )
    low_fn, low_vm = sim.duty_cycle_costs(0.10, 3600, fn, vm_spec)
    high_fn, high_vm = sim.duty_cycle_costs(0.20, 3600, fn, vm_spec)
    assert low_fn < low_vm
    assert high_fn > high_vm


@pytest.mark.parametrize("busy", [0, 0.01, 0.1, 0.2, 0.5, 0.99, 1])
@pytest.mark.parametrize("span", [60, 61, 3600, 86400])
def test_duty_cycle_costs_match_simulating_the_busy_calls(fn_spec, vm_spec, busy, span):
    """Oracle: the busy time as evenly spaced 60 s calls through `simulate`, no cold start or keep-alive."""
    slots = round(busy * span / 60.0)
    trace = fixed_interval_trace(slots, span / max(slots, 1), 60.0, memory_gb=float(fn_spec.base_memory_gib))
    simulated = sim.simulate(trace, platform(fn_spec, keep_alive=0.0)).cost_usd
    assert sim.duty_cycle_costs(busy, span, fn_spec, vm_spec) == (simulated, sim.serverful_cost(span, vm_spec))


@pytest.mark.parametrize("busy,span,slots",
                         [(0.275, 3600, 16), (0.55, 1800, 16), (0.10, 3600, 6), (0.20, 3600, 12)])
def test_duty_cycle_costs_count_slots_exactly(fn_spec, vm_spec, busy, span, slots):
    """Slots are busy * span / 60 of the decimal values, rounded half to even: 16.5 is 16 slots, where the float
    product 16.500000000000004 would bill 17."""
    one_call = sim.bill_invocation(60, fn_spec.base_memory_gib, fn_spec)
    assert sim.duty_cycle_costs(busy, span, fn_spec, vm_spec)[0] == slots * one_call


def test_duty_cycle_costs_refuse_a_spec_that_cannot_run_a_60s_call(fn_spec, vm_spec):
    short = cat.ComputeServiceSpec(**{name: getattr(fn_spec, name) for name in fn_spec._FIELDS} | {"max_run_time_s": 30})
    with pytest.raises(sim.BillingError, match="run-time limit"):
        sim.duty_cycle_costs(0.5, 3600, short, vm_spec)


def test_platform_validation(fn_spec, vm_spec):
    with pytest.raises(sim.SimulationError):
        sim.PlatformConfig(compute=vm_spec)
    with pytest.raises(sim.SimulationError):
        platform(fn_spec, keep_alive=-1)
    with pytest.raises(sim.SimulationError):
        sim.ColdStartModel(-0.1, 0, 0)
    with pytest.raises(sim.SimulationError):
        platform(fn_spec, keep_alive=float("nan"))
    with pytest.raises(sim.SimulationError):
        sim.ColdStartModel(0, float("inf"), 0)
