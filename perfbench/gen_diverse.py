"""Seeded generator for the `sim-diverse` invocation trace.

The trace takes its shape from the Azure Functions characterization in
Shahrad et al., "Serverless in the Wild" (USENIX ATC 2020): bursty
arrivals, heavy-tailed execution times and mixed memory sizes.

* On/off bursts of 50-2000 arrivals at about 40 per second, separated by
  idle gaps that always exceed the 10 s keep-alive the workload simulates
  with (10 s plus an exponential gap of mean 20 s, so 30 s on average).
  Every burst after the first therefore finds its warm pool retired.
* Lognormal durations, median 0.2 s and sigma 1.2, rounded to whole
  milliseconds (at least 1 ms). About 0.1% of entries are 1000 s long,
  beyond the 900 s run-time limit, so the rejected path is exercised.
* Four memory classes, 0.125/0.25/0.5/1 GiB, weighted 50/25/15/10.

Randomness comes from splitmix64, implemented here rather than imported
from faasim so that the benchmark's inputs do not depend on the code
under test. The same seed gives the same bytes on any platform.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

KEEP_ALIVE_S = 10.0
BURST_MIN, BURST_MAX = 50, 2000
BURST_RATE_PER_S = 40.0
EXTRA_GAP_MEAN_S = 20.0
DURATION_MEDIAN_S = 0.2
DURATION_SIGMA = 1.2
OVER_LIMIT_SHARE = 0.001
OVER_LIMIT_DURATION_S = 1000.0
MEMORY_CLASSES = ((0.125, 50), (0.25, 25), (0.5, 15), (1.0, 10))

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def exponential(self, mean: float) -> float:
        return -math.log(1.0 - self.uniform()) * mean

    def normal(self) -> float:
        """Standard normal by Box-Muller (one draw per pair of uniforms)."""
        u1 = 1.0 - self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * self.uniform())


def diverse_trace(seed: int, count: int) -> list[dict]:
    """`count` trace entries, sorted by arrival, as faasim's trace JSON list."""
    rng = SplitMix64(seed)
    total_weight = sum(weight for _, weight in MEMORY_CLASSES)
    entries: list[dict] = []
    now = 0.0
    while len(entries) < count:
        burst = BURST_MIN + rng.next_u64() % (BURST_MAX - BURST_MIN + 1)
        for _ in range(min(burst, count - len(entries))):
            now += rng.exponential(1.0 / BURST_RATE_PER_S)
            if rng.uniform() < OVER_LIMIT_SHARE:
                duration = OVER_LIMIT_DURATION_S
            else:
                duration = DURATION_MEDIAN_S * math.exp(DURATION_SIGMA * rng.normal())
                duration = max(1, round(duration * 1000)) / 1000
            pick = rng.next_u64() % total_weight
            for memory, weight in MEMORY_CLASSES:
                if pick < weight:
                    break
                pick -= weight
            entries.append({"arrival_s": round(now, 6), "duration_s": duration, "memory_gb": memory})
        now += KEEP_ALIVE_S + rng.exponential(EXTRA_GAP_MEAN_S)
    return entries


def write_diverse_trace(path: Path, seed: int, count: int) -> None:
    path.write_text(json.dumps(diverse_trace(seed, count), separators=(",", ":")) + "\n", encoding="utf-8")
