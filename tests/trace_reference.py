"""Trace oracles: splitmix64 a draw at a time, and whole traces held as lists.

`SplitMix64` steps the published recurrence one output at a time, as an
independent check of `workloads.uniform_chunks` and as the tests' own PRNG.
`reference_poisson_trace` and `reference_fixed_interval_trace` build a
trace from those draws with the same float operations as the generators,
as the generators return it, a table and its metadata, but with every
column held as a list: the text `jsontext.write` writes of the table is
the text the generators must write. `generated` reads a generator's table
into an `InvocationTrace` through `InvocationTrace.from_json`, and
`trace_of` a list of rows, for tests that need the trace as values.
"""

import math

from faasim import jsontext
from faasim import workloads as wl


class SplitMix64:
    """splitmix64: the 64-bit mixing PRNG, reproducible in any language.

    state += 0x9E3779B97F4A7C15
    z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
    z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def trace_of(rows) -> wl.InvocationTrace:
    """The trace of (arrival_s, duration_s, memory_gb) rows, read as a trace document's entries."""
    return wl.InvocationTrace.from_json([wl.Invocation._make(row)._asdict() for row in rows])


def generated(table_and_metadata) -> wl.InvocationTrace:
    """The trace a generator returns (its table, read here once, and its metadata) as an `InvocationTrace`."""
    table, _ = table_and_metadata
    return wl.InvocationTrace.from_json([*table])


def poisson_trace(*args, **kwargs) -> wl.InvocationTrace:
    return generated(wl.poisson_trace(*args, **kwargs))


def fixed_interval_trace(*args, **kwargs) -> wl.InvocationTrace:
    return generated(wl.fixed_interval_trace(*args, **kwargs))


def _reference(arrivals: list, duration_s, memory_gb, metadata: dict):
    """The table of these arrivals and the one duration and memory, and its metadata; raises GraphError where an
    arrival is not finite, as the generator refuses."""
    if not all(map(math.isfinite, arrivals)):
        raise wl.GraphError("trace arrivals, durations and memory must be finite numbers")
    count = len(arrivals)
    return jsontext.Table(wl.Invocation._fields, (arrivals, [duration_s] * count, [memory_gb] * count)), metadata


def reference_poisson_trace(count, rate_per_s, duration_s, memory_gb=0.125, seed=0):
    """Arrival i is the running sum of -ln(1 - u) / rate over the first i draws."""
    rng, now, arrivals = SplitMix64(seed), 0.0, []
    for _ in range(count):
        now += -math.log(1.0 - rng.uniform()) / rate_per_s
        arrivals.append(now)
    return _reference(arrivals, duration_s, memory_gb, {
        "generator": "poisson", "count": count, "rate_per_s": rate_per_s, "duration_s": duration_s,
        "memory_gb": memory_gb, "seed": seed})


def reference_fixed_interval_trace(count, interval_s, duration_s, memory_gb=0.125):
    return _reference([0.0 + i * interval_s for i in range(count)], duration_s, memory_gb, {
        "generator": "fixed-interval", "count": count, "interval_s": interval_s, "duration_s": duration_s,
        "memory_gb": memory_gb})
