"""Trace oracles: splitmix64 a draw at a time, and whole traces held as `InvocationTrace`s.

`SplitMix64` steps the published recurrence one output at a time, as an
independent check of `workloads.uniform_chunks` and as the tests' own PRNG.
`reference_poisson_trace` and `reference_fixed_interval_trace` build a
trace from those draws with the same float operations as the generators,
holding every column: `jsontext.dumps` of their `to_json_list()` is the
text the generators must write. `generated` reads a generator's table
into an `InvocationTrace`, for tests that need the trace as values.
"""

import math

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


def generated(table_and_metadata) -> wl.InvocationTrace:
    """The trace a generator returns (its table, read here once, and its metadata) as an `InvocationTrace`."""
    table, metadata = table_and_metadata
    return wl.InvocationTrace(*table.columns, metadata=metadata)


def poisson_trace(*args, **kwargs) -> wl.InvocationTrace:
    return generated(wl.poisson_trace(*args, **kwargs))


def fixed_interval_trace(*args, **kwargs) -> wl.InvocationTrace:
    return generated(wl.fixed_interval_trace(*args, **kwargs))


def reference_poisson_trace(count, rate_per_s, duration_s, memory_gb=0.125, seed=0) -> wl.InvocationTrace:
    """Arrival i is the running sum of -ln(1 - u) / rate over the first i draws; raises GraphError where an
    arrival is not finite, as the generator refuses."""
    rng, now, arrivals = SplitMix64(seed), 0.0, []
    for _ in range(count):
        now += -math.log(1.0 - rng.uniform()) / rate_per_s
        arrivals.append(now)
    return wl.InvocationTrace(arrivals, [duration_s] * count, [memory_gb] * count, metadata={
        "generator": "poisson", "count": count, "rate_per_s": rate_per_s, "duration_s": duration_s,
        "memory_gb": memory_gb, "seed": seed})


def reference_fixed_interval_trace(count, interval_s, duration_s, memory_gb=0.125) -> wl.InvocationTrace:
    return wl.InvocationTrace([0.0 + i * interval_s for i in range(count)], [duration_s] * count,
                              [memory_gb] * count, metadata={
                                  "generator": "fixed-interval", "count": count, "interval_s": interval_s,
                                  "duration_s": duration_s, "memory_gb": memory_gb})
