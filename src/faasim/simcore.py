"""Discrete-event simulation of a function-as-a-service platform.

The platform model: every arrival is served by its own function instance
(no request queuing and no sharing of a busy instance). An idle warm
instance with matching memory is reused at zero extra latency; otherwise
a new instance is provisioned, paying the three-part cold-start latency
(resource scheduling + environment initialization + application
initialization), or application initialization alone when a pre-started
environment is available. Idle instances retire after a keep-alive
window, so the platform scales to zero instances and zero cost in the
absence of demand.

Billing charges execution time only, rounded up to the accounting unit,
scaled linearly with configured memory, plus an optional per-invocation
request fee. Units are an integer ceiling on the run's tick clock; the
memory range check and the per-unit rate are worked out once per memory
class and the cost once per (units, memory), and totals are count x
price, exactly. `bill_invocation` and `billed_units` use the same
helpers. An entry over the run-time limit or outside the memory range
goes to `rejected` with its reason, and the rest of the trace runs; both
are properties of its billing key, so rejected entries are set aside
before the clock starts and take no part in the pass.

Time is an exact integer clock: arrivals, durations, the cold-start
components and the keep-alive are read as their decimal literals and
scaled by one power of ten per simulation, 10**d for the longest fraction
of d digits, so 0.1 + 0.2 s ends exactly at 0.3 s and cold-start
latencies, busy and instance seconds are exact sums rounded once. A
float's literal is its shortest repr, made once per served arrival by
`jsontext.column_runs`, a run of rows at a time, and held in one ", "-joined
run (about 20 bytes an entry) that the report writes as the `arrival_s`
texts. A first pass over the runs finds d. The ticks are then made as the
event loop reads them, one of two ways (see `_ticks`). Where d <= 22 and
the group's largest magnitude times 10**d is below 2**50, as in traces
rounded to the ms or µs (the benchmark's bursty trace has d = 6), each
tick is one multiply-and-round of the float, which is exact. Otherwise, as
for a Poisson trace whose arrivals print 17 significant digits (d = 18),
the ticks are read from the texts, one run split at a time. So `simulate`
peaks at 3.0 MiB above a loaded 100k-entry Poisson trace and at 100.5 MB
RSS on a 1M-entry one (12.8 MiB and 227.0 MB with a text and a tick held
per arrival; Python 3.11.7).
Every other number (durations and memory to bill, spans, cost ratios) is
read by `money.usd`.

A simulation is one pass over the served entries in arrival order. A heap
holds the running invocations only; each memory class keeps the ticks at
which its idle instances went idle, oldest first, and reuses the newest.
An idle instance retires keep-alive after it went idle: retirements are
applied lazily, oldest first, when its pool is next used, and the rest
when the simulation ends. Events at equal timestamps thus take effect in a fixed
order (completions, then retirements, then arrivals in trace order), so
results are deterministic and serialize byte-identically. The pass records
only each served entry's start kind. The invocation columns are
`jsontext.Coded`: duration, units and cost by billing key and latency and
the cold flag by start kind, so beside its arrival text an entry holds two
codes and no row object is built.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, compress, count, repeat
from operator import add, floordiv, gt, mul, neg, not_
from typing import TYPE_CHECKING

from .jsontext import Coded, Table, column_runs
from .money import decimal_literal, report_float, usd, usd_json
from .record import Record

if TYPE_CHECKING:
    from .catalog import ComputeServiceSpec
    from .workloads import InvocationTrace

class SimulationError(ValueError):
    pass


class BillingError(ValueError):
    pass


class ColdStartModel(Record):
    """Three additive cold-start components, all in seconds."""

    t_schedule_s: float = 0.5
    t_env_s: float = 0.0
    t_app_s: float = 0.0

    def __post_init__(self):
        if not all(0 <= part < math.inf for part in (self.t_schedule_s, self.t_env_s, self.t_app_s)):
            raise SimulationError("cold start components must be finite and non-negative")


class PlatformConfig(Record):
    compute: ComputeServiceSpec
    cold_start: ColdStartModel = ColdStartModel()
    keep_alive_s: float = 600.0
    warm_pool_prestarted: int = 0

    def __post_init__(self):
        if self.compute.kind != "serverless-function":
            raise SimulationError("platform requires a serverless-function compute spec")
        if not 0 <= self.keep_alive_s < math.inf:
            raise SimulationError("keep-alive must be finite and non-negative")
        if self.warm_pool_prestarted < 0:
            raise SimulationError("prestarted count must be non-negative")


class SimResult(Record):
    """Totals of a run, with its invocations and rejected entries as `Table`s.

    An invocation row is (arrival_s, start_latency_s, duration_s, cold,
    billed_units, cost_usd), the cost an exact Fraction; a rejected row is
    (index, arrival_s, duration_s, reason), in trace order.
    """

    invocations: Table
    rejected: Table
    billed_units: int
    cost_usd: Fraction
    cold_starts: int
    peak_concurrency: int
    instances_created: int
    instance_seconds_running: float
    busy_seconds: float

    @property
    def utilization(self) -> float:
        if self.instance_seconds_running == 0:
            return 0.0
        return self.busy_seconds / self.instance_seconds_running

    def to_json_dict(self) -> dict:
        *columns, costs = self.invocations.columns
        # Billing keys with equal (units, memory) share one cost object: render each once.
        rendered = {key: None if cost is None else usd_json(cost)  # a rejected key's cost is None
                    for key, cost in {id(cost): cost for cost in costs.values}.items()}
        return {
            "invocations": Table(self.invocations.keys,
                                 [*columns, Coded([*map(rendered.__getitem__, map(id, costs.values))], costs.codes)]),
            "rejected": self.rejected,
            "billed_units": self.billed_units,
            "cost_usd": usd_json(self.cost_usd),
            "cold_starts": self.cold_starts,
            "peak_concurrency": self.peak_concurrency,
            "instances_created": self.instances_created,
            "instance_seconds_running": self.instance_seconds_running,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization,
        }


def _units(ticks, scale: int, spec: ComputeServiceSpec) -> map:
    """Whole accounting units covering each of `ticks` / scale seconds, exactly."""
    unit = spec.accounting_unit_s
    return map(neg, map(floordiv, map(mul, ticks, repeat(-unit.denominator)), repeat(scale * unit.numerator)))


def _over_limit(ticks, scale: int, spec: ComputeServiceSpec) -> map:
    """Whether each of `ticks` / scale seconds exceeds the run-time limit, exactly; with no limit none does."""
    limit = spec.max_run_time_s
    if limit is None:
        return map(gt, ticks, repeat(math.inf))
    return map(gt, map(mul, ticks, repeat(limit.denominator)), repeat(limit.numerator * scale))


def _rate(memory_gb, spec: ComputeServiceSpec) -> Fraction | None:
    """Dollars per accounting unit at this memory; None outside the configurable range."""
    memory = usd(memory_gb)
    if spec.memory_min_gib <= memory <= spec.memory_max_gib:
        return spec.price_usd_per_unit * memory / spec.base_memory_gib
    return None


def billed_units(duration_s, spec: ComputeServiceSpec) -> int:
    """Accounting units for one execution: ceil(duration / unit), exactly.

    Durations are interpreted by their decimal literal, so 0.1 s on a
    0.1 s unit bills exactly one unit despite binary float rounding.
    """
    duration = usd(duration_s)
    if duration <= 0:
        raise BillingError("duration must be positive")
    return next(_units((duration.numerator,), duration.denominator, spec))


def bill_invocation(duration_s, memory_gb, spec: ComputeServiceSpec) -> Fraction:
    """Dollar cost of one invocation at the given memory configuration."""
    duration = usd(duration_s)
    if any(_over_limit((duration.numerator,), duration.denominator, spec)):
        raise BillingError(f"duration {duration_s}s exceeds the {spec.max_run_time_s}s run-time limit")
    rate = _rate(memory_gb, spec)
    if rate is None:
        raise BillingError(f"memory {memory_gb} GiB outside [{spec.memory_min_gib}, {spec.memory_max_gib}]")
    return billed_units(duration, spec) * rate + spec.request_fee_usd


# Reasons an invocation is rejected, checked in this order.
_OVER_LIMIT = "duration exceeds max run time"
_BAD_MEMORY = "memory outside the configurable range"


def _plain(run) -> str:
    """A run of times in plain notation, each with one point. A run is float repr texts joined by ", " (the
    text `json.dumps` writes of a list of floats, inside its brackets) or a list of numbers. Exponent texts
    (repr's form below 1e-4 and from 1e16) and numbers are read by `decimal_literal` and written exactly."""
    if type(run) is str:
        if "e" not in run:  # one C-level scan: repr writes every other float in plain notation
            return run
        run = run.split(", ")
    texts = (text if type(text) is str and "e" not in text else format(decimal_literal(text), "f") for text in run)
    return ", ".join(text if "." in text else text + "." for text in texts)


def _scaled(digits: int, run):
    """A run's times as ticks of 10**-digits s: integer and fraction digits alternate once each point is a
    separator too, and each fraction is padded with zeros to the digits, appended and read by `int`."""
    parts = _plain(run).replace(".", ", ").split(", ")
    return map(int, map(add, parts[::2], map(str.ljust, parts[1::2], repeat(digits), repeat("0"))))


def _ticks(*groups) -> tuple[int, list]:
    """(scale, each group's times as integer ticks, lazily) on one exact decimal clock: a time is its decimal
    literal V times `scale`, the least power of ten 10**d that makes all of them whole, so 0.1 + 0.2 ticks equal
    0.3. A group is (runs, floats, largest): its times as a list of runs (see `_plain`), then the same times as
    floats and the largest of their magnitudes, or None twice. A first pass finds d from the runs, reading only
    fractions longer than the longest so far; the ticks are made as they are read.

    A group with floats takes each tick from one multiply-and-round, round(x * float(10**d)), when d <= 22 and
    largest * float(10**d) < 2**50. That is V * 10**d exactly: |x - V| <= ulp(x)/2 <= 2**-53 |x|, because V
    rounds to x; 10**d is exact as a double for d <= 22; and p = fl(x * 10**d) < 2**50, so ulp(p) <= 2**-3.
    So |p - V * 10**d| < 2**-3 + 2**-4 = 3/16, and the rounding meets no tie. Every other group's ticks are
    read from its texts, a run at a time."""
    digits = 0
    for run in chain.from_iterable(runs for runs, _, _ in groups):
        digits = max(map(len, re.findall(r"\.(\d{%d,})" % (digits + 1), _plain(run))), default=digits)
    scale = 10**digits
    return scale, [map(round, map(mul, floats, repeat(float(scale))))
                   if floats is not None and digits <= 22 and largest * float(scale) < 2.0**50
                   else chain.from_iterable(map(_scaled, repeat(digits), runs)) for runs, floats, largest in groups]


class _Codes(dict):
    """A key -> its code: 0, 1, 2, ... in order of first lookup."""

    __slots__ = ()

    def __missing__(self, key):
        code = self[key] = len(self)
        return code


def simulate(trace: InvocationTrace, platform: PlatformConfig) -> SimResult:
    """Run an invocation trace against the platform model.

    Deterministic: a given (trace, platform) pair always produces the
    identical SimResult. Entries over the run-time limit or outside the
    memory range are reported in `rejected` rather than silently dropped.
    """
    spec, cold = platform.compute, platform.cold_start
    keys = _Codes()  # billing keys in order of first use
    codes = [*map(keys.__getitem__, zip(trace.durations, trace.memory))]  # each entry's key
    counts = dict(zip(keys, Counter(codes).values()))  # entries per billing key
    durations_s, memories = [duration for duration, _ in counts], [memory for _, memory in counts]  # by key
    duration_texts = [*map(repr, durations_s)]  # each read by the clock and written by the report
    duration_runs = [", ".join(duration_texts)] if counts else []
    longest = max(durations_s, default=0.0)  # durations are positive

    # An entry is rejected by its key: the limit is checked on the durations' own clock.
    rates = {memory: _rate(memory, spec) for memory in set(memories)}
    limit_scale, (limit_ticks,) = _ticks((duration_runs, durations_s, longest))
    reasons = [_OVER_LIMIT if over else _BAD_MEMORY if rates[memory] is None else None
               for over, memory in zip(_over_limit(limit_ticks, limit_scale, spec), memories)]
    rejected = [*compress(count(), map(reasons.__getitem__, codes))] if any(reasons) else []  # trace positions
    arrivals_s, served_codes = trace.arrivals, codes
    if rejected:
        served = bytearray(b"\1") * len(codes)
        for seq in rejected:
            served[seq] = 0
        arrivals_s, served_codes = [*compress(arrivals_s, served)], [*compress(codes, served)]
    rejected_reasons = [reasons[codes[seq]] for seq in rejected]
    del codes
    runs = column_runs(arrivals_s)  # the served arrivals' texts, made once: read by the clock and the report
    scale, (arrivals, durations, fixed) = _ticks(
        (runs, arrivals_s, max(abs(arrivals_s[0]), abs(arrivals_s[-1])) if arrivals_s else 0.0),  # sorted
        (duration_runs, durations_s, longest),
        ([[cold.t_schedule_s, cold.t_env_s, cold.t_app_s, platform.keep_alive_s]], None, None))
    t_schedule, t_env, t_app, keep_alive = fixed

    # Bill every key at once; a rejected key has no units or cost, as no served entry has its code. Each
    # (units, memory) is priced once, its cost shared by every key with the same (units, memory).
    durations, billed = [*durations], [*map(not_, reasons)]  # by key: ticks; served
    key_units = [*_units(durations, scale, spec)]
    for key in compress(count(), reasons):
        key_units[key] = None
    tally: Counter = Counter()  # invocations per (units, memory)
    for key, n in compress(zip(zip(key_units, memories), counts.values()), billed):
        tally[key] += n
    costs = {(units, memory): units * rates[memory] + spec.request_fee_usd for units, memory in tally}
    key_costs = [*map(costs.get, zip(key_units, memories))]
    busy_total = sum(map(mul, compress(durations, billed), compress(counts.values(), billed)))  # ticks
    pools = {memory: deque() for memory in rates}  # idle-since ticks per memory class, oldest first
    bills = [*zip(durations, map(pools.__getitem__, memories))]  # by key: (duration ticks, idle pool)

    events: list[tuple[int, int, deque]] = []  # running invocations: (end tick, seq, idle pool)
    kinds = bytearray(len(served_codes))  # by served entry: 0 warm, 1 pre-started, 2 full cold start
    prestarted_left = platform.warm_pool_prestarted
    full_ticks = t_schedule + t_env + t_app  # a pre-started environment takes t_app only
    peak = lifetime = 0  # lifetime: ticks, the sum of retire minus creation times

    # Rejected entries take no part: the completions due by one are applied at the next served arrival.
    for seq, now, bill in zip(count(), arrivals, map(bills.__getitem__, served_codes)):
        while events and events[0][0] <= now:
            end, _, pool = heappop(events)
            pool.append(end)
        occupied, pool = bill  # duration ticks, plus the start latency if cold
        while pool and pool[0] + keep_alive <= now:
            lifetime += pool.popleft() + keep_alive
        if pool:
            pool.pop()  # most recently idled first
        else:
            if prestarted_left > 0:
                prestarted_left -= 1
                kinds[seq] = 1
                occupied += t_app
            else:
                kinds[seq] = 2
                occupied += full_ticks
            lifetime -= now
        heappush(events, (now + occupied, seq, pool))
        if len(events) > peak:
            peak = len(events)

    # Scale-to-zero: every running instance completes, then every idle one retires.
    idle = [end for end, _, _ in events] + list(chain.from_iterable(pools.values()))
    lifetime += sum(idle) + len(idle) * keep_alive
    prestarted, full = kinds.count(1), kinds.count(2)
    cold_starts = prestarted + full
    busy_total += prestarted * t_app + full * full_ticks

    # The invocation columns: the served entries' arrivals, and codes into tables
    # by billing key (duration, units, cost) and by start kind (latency, cold).
    # Cold-start latencies are the exact tick sums, rounded once.
    return SimResult(
        invocations=Table(("arrival_s", "start_latency_s", "duration_s", "cold", "billed_units", "cost_usd"), (
            Coded(arrivals_s, texts=runs),
            Coded((0.0, t_app / scale, report_float(Fraction(full_ticks, scale), "start_latency_s")), kinds),
            Coded(durations_s, served_codes, duration_texts),
            Coded((False, True, True), kinds), Coded(key_units, served_codes), Coded(key_costs, served_codes))),
        rejected=Table(("index", "arrival_s", "duration_s", "reason"), [rejected, *(
            [*map(column.__getitem__, rejected)] for column in (trace.arrivals, trace.durations)),
            rejected_reasons]),
        billed_units=sum(n * units for (units, _), n in tally.items()),
        cost_usd=sum((n * costs[key] for key, n in tally.items()), Fraction(0)),
        cold_starts=cold_starts,
        peak_concurrency=peak,
        instances_created=cold_starts,
        instance_seconds_running=report_float(Fraction(lifetime, scale), "instance_seconds_running"),
        busy_seconds=busy_total / scale,  # at most the instance seconds
    )


def serverful_cost(span_s, spec: ComputeServiceSpec) -> Fraction:
    """Always-on instance cost for a wall-clock span (60 s minimum units)."""
    span = usd(span_s)
    if span < 0:
        raise BillingError("span must be non-negative")
    return next(_units((span.numerator,), span.denominator, spec)) * spec.price_usd_per_unit


def duty_cycle_costs(
    busy_fraction: float,
    span_s: float,
    serverless_spec: ComputeServiceSpec,
    serverful_spec: ComputeServiceSpec,
) -> tuple[Fraction, Fraction]:
    """(serverless, serverful) cost of a span busy for the given fraction.

    Busy time is billed as whole 60 s invocations at the function's base
    memory, as many as fill the fraction: busy_fraction * span_s / 60 of
    the decimal values, exactly, rounded half to even (16.5 bills 16). The
    VM is billed for the span.
    """
    if not 0 <= busy_fraction <= 1:
        raise ValueError("busy fraction must be in [0, 1]")
    slots = round(usd(busy_fraction) * usd(span_s) / 60)
    serverless = slots * bill_invocation(60, serverless_spec.base_memory_gib, serverless_spec)
    return serverless, serverful_cost(span_s, serverful_spec)
