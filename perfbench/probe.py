"""Speed probe: how fast the benchmark's CPU runs Python while faasim runs.

A shared virtual machine's CPU speed changes under the benchmark. On the
machine this was tuned on, a fixed piece of Python took 25 ms and then,
a second later, 16 ms, and a `faasim simulate` of the same input took
anywhere from 1.8 s to 3.0 s of CPU time; the host's other tenants decide
which. Neither wall time nor CPU time of a command is steady across runs.

run.py starts this process on the one CPU it keeps itself and the
measured commands on, where it runs beside them at niceness 10: the
scheduler gives it about a tenth of that CPU, in slices of a few
milliseconds spread over each command. It repeats a fixed
unit of interpreter work that does not use faasim (exact `Fraction` sums
from decimal literals, a heap of events, dict pools, JSON) and counts the
units it completes and the CPU time it spends. Work done per CPU second
over a command's lifetime is the speed the command ran at, sampled in the
same milliseconds; run.py scales the command's CPU time by it.

    python3 perfbench/probe.py

Each line on stdin is answered with one line: the units completed and the
probe's CPU seconds so far. The probe stops when its stdin closes.
"""

import heapq
import json
import os
import select
import sys
import time
from decimal import Decimal
from fractions import Fraction

# CPU seconds one unit took on the machine the benchmark was tuned on, a
# 2-vCPU Intel Xeon virtual machine under Python 3.11. Only a fixed scale.
REFERENCE_UNIT_S = 0.0002
NICENESS = 10
UNITS_PER_POLL = 20


def unit(i: int) -> Fraction:
    """One fixed unit of interpreter work, about 0.2 ms."""
    events: list = []
    pools: dict = {}
    total = Fraction(0)
    for j in range(16):
        heapq.heappush(events, ((j * 7919 + i) % 1000 / 7.0, j))
        key = (j % 7, i % 13)
        pools[key] = pools.get(key, 0) + 1
        total += Fraction(Decimal(f"0.{(i + j) % 1000:03d}")) / 8
    while events:
        heapq.heappop(events)
    json.loads(json.dumps([{"id": j, "t": j / 3.0} for j in range(16)]))
    return total


def main() -> None:
    os.nice(NICENESS)
    count = 0
    start = time.thread_time()
    while True:
        for _ in range(UNITS_PER_POLL):
            unit(count)
            count += 1
        if select.select([sys.stdin], [], [], 0)[0]:
            if not sys.stdin.readline():
                return
            print(count, time.thread_time() - start, flush=True)


if __name__ == "__main__":
    main()
