"""Workload generators: task DAGs, parallelism profiles, invocation traces.

Two graph generator families cover the application studies this library
models: bipartite map/reduce shuffle graphs and blocked right-looking
Cholesky factorization graphs (the canonical "parallelism varies wildly"
workload). Parameter-server training rounds are communication scenarios,
generated in `commpatterns`.

Trace generators use an explicitly specified 64-bit PRNG (splitmix64)
and inverse-CDF sampling so that identical seeds reproduce identical
traces on any platform or language, a chunk of entries at a time.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections import Counter, deque
from functools import cache, partial
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import gt, itemgetter, le
from pathlib import Path
from typing import NamedTuple

from .commpatterns import MATERIALIZE_EDGE_LIMIT, check_budget
from .jsonchunks import CHUNK, Chunks
from .jsontext import _CHUNK_ROWS, Coded, Lazy, Table, chunk_rows, column_texts
from .money import json_integer
from .record import Record

BYTES_PER_ELEMENT = 8  # dense double precision

# Every generated graph task runs this long with this much memory.
TASK_DURATION_S, TASK_MEMORY_GB = 1.0, 0.125


class GraphError(ValueError):
    pass


class _Columns(Record):
    """Column tuples set by the subclass's constructor; compared by column, not hashable."""

    __slots__ = ()
    __hash__ = None
    __repr__ = object.__repr__


class TaskGraph(_Columns):
    """A validated DAG of tasks with byte-weighted edges.

    The graph is held as columns indexed by position: task i is `ids[i]`,
    with `durations[i]`, `memory[i]` and `kinds[i]`; edge j runs from task
    `src[j]` to task `dst[j]` and carries `edge_bytes[j]`. `levels[i]` is
    the ASAP level of task i, computed once when the graph is built. The
    columns are tuples (a tuple is kept, not copied) and cannot be reassigned,
    so the levels always match them. `load_task_graph` reads a graph file
    through `_graph_builder`.
    """

    _FIELDS = ("ids", "durations", "memory", "kinds", "src", "dst", "edge_bytes")
    __slots__ = _FIELDS + ("levels", "metadata")

    def __init__(self, ids, durations, memory, kinds, src, dst, edge_bytes, metadata: dict | None = None):
        for name, column in zip(self._FIELDS, (ids, durations, memory, kinds, src, dst, edge_bytes)):
            object.__setattr__(self, name, tuple(column))
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)
        if len(set(self.ids)) != len(self.ids):
            raise GraphError("duplicate task ids")
        for ends in (self.src, self.dst):
            if ends and not 0 <= min(ends) <= max(ends) < len(self.ids):
                raise GraphError("edge endpoints must be task positions")
        isfinite = math.isfinite
        if not (all(map(isfinite, chain(self.durations, self.memory))) and min(self.durations, default=1) > 0
                and min(self.memory, default=0) >= 0):
            for tid, duration, memory_gb in zip(self.ids, self.durations, self.memory):  # name the first bad task
                if not (isfinite(duration) and isfinite(memory_gb)):
                    raise GraphError(f"task {tid!r} has a non-finite duration or memory")
                if duration <= 0:
                    raise GraphError(f"task {tid!r} has non-positive duration")
                if memory_gb < 0:
                    raise GraphError(f"task {tid!r} has negative memory")
        if not set(map(type, self.edge_bytes)) <= {int}:
            raise GraphError("edge bytes must be integers")
        if self.edge_bytes and min(self.edge_bytes) < 0:
            j = next(j for j, nbytes in enumerate(self.edge_bytes) if nbytes < 0)
            raise GraphError(f"edge {self.ids[self.src[j]]!r}->{self.ids[self.dst[j]]!r} has negative bytes")
        object.__setattr__(self, "levels", tuple(asap_levels(self)))  # raises on cycles

    def __repr__(self) -> str:
        return f"TaskGraph({self.task_count} tasks, {self.edge_count} edges, metadata={self.metadata!r})"

    @property
    def task_count(self) -> int:
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    @property
    def total_edge_bytes(self) -> int:
        return sum(self.edge_bytes)

    def to_json_dict(self) -> dict:
        ids = self.ids
        texts = column_texts(ids)  # each id is encoded once, for its task and every edge end
        return {
            "tasks": Table(("id", "duration_s", "memory_gb", "kind"),
                           (Coded(ids, range(len(ids)), texts), self.durations, self.memory, self.kinds)),
            # Edge ends are coded by task position.
            "edges": Table(("src", "dst", "bytes"),
                           (Coded(ids, self.src, texts), Coded(ids, self.dst, texts), self.edge_bytes)),
            "metadata": self.metadata,
        }


def _graph_builder():
    """The task graph format's column builder: `add_tasks` takes each run of parsed tasks, then `add_edges` each run
    of edges, and `graph(doc)` is the graph of a document whose arrays that read as [] went to them. A task is an
    object with `id`, `duration_s` and, by default 0.0 and "task", `memory_gb` and `kind`, its numbers read as
    `_as_floats` reads them; an edge has `src`, `dst` and integer `bytes`; other keys are ignored. Ids and ends read
    as strings. A fault raises GraphError."""
    ids, durations, memory, kinds, src, dst, edge_bytes = columns = [], [], [], [], [], [], []
    share, position, counts = _Floats().__getitem__, {}, {}  # counts: one int object per distinct byte count

    def add_tasks(tasks):
        run = [*map(itemgetter("id"), tasks)]
        run = run if set(map(type, run)) <= {str} else [*map(str, run)]
        # Made with the tasks: made beside a run of edges, these ints would pin pools that the run frees.
        position.update(zip(run, range(len(ids), len(ids) + len(run))))
        ids.extend(run)
        durations.extend(map(share, _as_floats([*map(itemgetter("duration_s"), tasks)], "duration_s")))
        memory.extend(map(share, _as_floats([*map(dict.get, tasks, repeat("memory_gb"), repeat(0.0))], "memory_gb")))
        kinds.extend(map(share, map(str, map(dict.get, tasks, repeat("kind"), repeat("task")))))

    def add_edges(edges):
        ends = [*map(itemgetter("src"), edges)], [*map(itemgetter("dst"), edges)]
        nbytes = [*map(itemgetter("bytes"), edges)]
        # Read before they are shared: 1.0 and True are dict keys equal to 1.
        if not set(map(type, nbytes)) <= {int}:
            nbytes = [json_integer(n, "edge bytes must be integers") for n in nbytes]
        try:  # ends that are all task ids as they stand: no pass through str
            at = [[*map(position.__getitem__, run)] for run in ends]
        except (KeyError, TypeError):  # ends that are not all strings, or an unknown end
            ends = [[*map(str, run)] for run in ends]
            for a, b in zip(*ends):
                if a not in position or b not in position:
                    raise GraphError(f"edge {a!r}->{b!r} references unknown task") from None
            at = [[*map(position.__getitem__, run)] for run in ends]
        src.extend(at[0])
        dst.extend(at[1])
        edge_bytes.extend(map(counts.setdefault, nbytes, nbytes))

    def graph(doc) -> TaskGraph:
        try:
            add_tasks(doc["tasks"])
            add_edges(doc.get("edges", []))
            if type(metadata := doc.get("metadata", {})) is not dict:
                raise TypeError("metadata must be an object")
        except GraphError:
            raise
        except _ENTRY_FAULTS as exc:
            raise GraphError(f"malformed task graph document: {exc}") from exc
        position.clear()
        return TaskGraph(*map(_handed_over, columns), dict(metadata))

    add_tasks, add_edges = _numbered(add_tasks, "task graph", "task"), _numbered(add_edges, "task graph", "edge")
    return add_tasks, add_edges, graph


def _handed_over(column: list) -> tuple:
    """The column as a tuple, its list emptied: mapped over a builder's columns, each is held once, never twice."""
    return (tuple(column), column.clear())[0]


def load_task_graph(path: str | Path) -> TaskGraph:
    """The graph in a JSON task graph file, read once: its `tasks`, then its `edges`, a run at a time (edges before
    the tasks are read whole and added after them). A `tasks` or `edges` member named twice is refused."""
    add_tasks, add_edges, graph = _graph_builder()
    with open(path, "rb") as file:
        return graph(Chunks(file, CHUNK).document({"tasks": add_tasks, "edges": add_edges}))


def out_edges(graph: TaskGraph) -> tuple[list[int], list[int]]:
    """(start, succs): each edge's `dst` grouped by source task, by a stable sort keyed by the edge's source (a sort
    calls its key once per value, in order). Task i's successors are succs[start[i]:start[i + 1]]."""
    start = [0] * (graph.task_count + 1)
    for i in graph.src:
        start[i + 1] += 1
    return list(accumulate(start)), sorted(graph.dst, key=partial(next, iter(graph.src)))


def asap_levels(graph: TaskGraph) -> list[int]:
    """Earliest level of each task, by position (Kahn order, a level at a time); raises GraphError on cycles."""
    indegree = [0] * graph.task_count
    for j in graph.dst:
        indegree[j] += 1
    start, succs = out_edges(graph)
    level, ready, depth = [0] * graph.task_count, [i for i, count in enumerate(indegree) if not count], 0
    while ready:
        later = []
        for i in ready:
            level[i] = depth
            for j in succs[start[i]:start[i + 1]]:
                indegree[j] -= 1
                if not indegree[j]:
                    later.append(j)
        ready, depth = later, depth + 1
    if any(indegree):  # a task on a cycle is never ready
        raise GraphError("cycle detected in task graph")
    return level


class ParallelismProfile(Record):
    """Ready-task width and working-set bytes per level, as two columns."""

    widths: tuple[int, ...]
    working_set_bytes: tuple[int, ...]

    @property
    def levels(self) -> Table:
        return Table(("level", "ready_task_count", "working_set_bytes"),
                     ([*range(len(self.widths))], self.widths, self.working_set_bytes))

    @property
    def peak_width(self) -> int:
        return max(self.widths, default=0)

    @property
    def peak_working_set_bytes(self) -> int:
        return max(self.working_set_bytes, default=0)

    def to_json_dict(self) -> dict:
        return {
            "levels": self.levels,
            "peak_width": self.peak_width,
            "peak_working_set_bytes": self.peak_working_set_bytes,
        }


def gen_shuffle_dag(mappers: int, reducers: int, bytes_per_transfer: int) -> TaskGraph:
    """Bipartite M-mapper, R-reducer shuffle graph with M*R edges, refused past MATERIALIZE_EDGE_LIMIT of them."""
    if mappers < 1 or reducers < 1:
        raise GraphError("need at least one mapper and one reducer")
    if bytes_per_transfer < 0:
        raise GraphError("bytes per transfer must be non-negative")
    m, r, nbytes = mappers, reducers, bytes_per_transfer
    check_budget(m * r, "shuffle edges")
    width = max(len(str(m - 1)), len(str(r - 1)))
    ids = (*(f"m{i:0{width}d}" for i in range(m)), *(f"r{j:0{width}d}" for j in range(r)))
    return TaskGraph(
        ids, (TASK_DURATION_S,) * (m + r), (TASK_MEMORY_GB,) * (m + r), ("map",) * m + ("reduce",) * r,
        tuple(chain.from_iterable(map(repeat, range(m), repeat(r)))), tuple(range(m, m + r)) * m, (nbytes,) * (m * r),
        {"generator": "shuffle", "mappers": m, "reducers": r, "bytes_per_transfer": nbytes},
    )


def gen_cholesky_dag(blocks: int, block_dim: int = 256) -> TaskGraph:
    """Blocked right-looking Cholesky DAG on a blocks x blocks tile grid.

    Step k factorizes diagonal tile k (task f<k>), solves the m = blocks-k-1
    tiles below it (s<k>.<i>), then applies m(m+1)/2 trailing updates
    (u<k>.<i>.<j>, k < i <= j); each update feeds whichever step-k+1 task
    next touches its tile. Every edge carries one tile: block_dim^2 doubles.

    Edges are generated by task position: step k's tasks are consecutive (f<k>,
    its solves, its updates in (i, j) order), and step k's t-th update feeds
    the t-th task of step k+1.
    """
    if blocks < 1:
        raise GraphError("need at least one block")
    if block_dim < 0:
        raise GraphError("block dimension must be non-negative")
    check_budget(cholesky_task_count(blocks), "Cholesky tasks")
    check_budget(cholesky_edge_count(blocks), "Cholesky edges")
    tile_bytes = block_dim * block_dim * BYTES_PER_ELEMENT
    ids, kinds, src, dst = [], [], [], []
    at = list(range(cholesky_task_count(blocks)))  # slices of one list share their int objects
    first = 0  # position of f<k>
    for k in range(blocks):
        m = blocks - k - 1
        updates = m * (m + 1) // 2
        ids += [f"f{k}", *(f"s{k}.{i}" for i in range(k + 1, blocks)),
                *(f"u{k}.{i}.{j}" for i in range(k + 1, blocks) for j in range(i, blocks))]
        kinds += ["factorize"] + ["triangular-solve"] * m + ["trailing-update"] * updates
        solves, update = first + 1, first + 1 + m
        src += [at[first]] * m
        dst += at[solves:update]
        for solve in at[solves:update]:
            # The row of updates u<k>.<i>.<j>, j = i..blocks-1, for the tile s<k>.<i> solved: each takes
            # s<k>.<i>, then s<k>.<j> if j != i, and feeds the task `updates` positions further on.
            row = m - (solve - solves)  # blocks - i updates
            row_src, row_dst = [solve] * (3 * row - 1), [0] * (3 * row - 1)
            row_src[0::3], row_src[1::3] = at[solve:solve + row], at[update:update + row]
            here, fed = at[update:update + row], at[update + updates:update + updates + row]
            row_dst[0::3], row_dst[1::3], row_dst[2::3] = here, fed, here[1:]
            src += row_src
            dst += row_dst
            update += row
        first += 1 + m + updates
    ids, kinds, src, dst = map(_handed_over, (ids, kinds, src, dst))
    return TaskGraph(
        ids, (TASK_DURATION_S,) * len(ids), (TASK_MEMORY_GB,) * len(ids), kinds, src, dst, (tile_bytes,) * len(src),
        {"generator": "cholesky", "blocks": blocks, "block_dim": block_dim},
    )


def parallelism_profile(graph: TaskGraph) -> ParallelismProfile:
    """Ready-task width and working set per earliest-start level.

    The working set of level L is the total bytes on edges that cross
    it, i.e. produced at a level before L and consumed at or after L.
    """
    levels = graph.levels
    n_levels = max(levels, default=-1) + 1
    widths = tuple(map(Counter(levels).__getitem__, range(n_levels)))
    # An edge crosses levels level[src]+1 through level[dst]: add its bytes
    # where that run starts and take them off just after it ends.
    change = [0] * (n_levels + 1)
    for start, end, nbytes in zip(map(levels.__getitem__, graph.src), map(levels.__getitem__, graph.dst),
                                  graph.edge_bytes):
        change[start + 1] += nbytes
        change[end + 1] -= nbytes
    return ParallelismProfile(widths, tuple(accumulate(change[:n_levels])))


def cholesky_task_count(blocks: int) -> int:
    """Closed form: n factorizations, n(n-1)/2 solves, (n-1)n(n+1)/6 updates."""
    n = max(blocks, 0)
    return n + n * (n - 1) // 2 + (n - 1) * n * (n + 1) // 6


def cholesky_edge_count(blocks: int) -> int:
    """Closed form: a step with m tiles below its diagonal has m edges into solves,
    m^2 into updates and m(m+1)/2 out of updates; summed over m < n, (n-1)n(n+1)/2."""
    n = max(blocks, 0)
    return (n - 1) * n * (n + 1) // 2


def flops_comm_ratio(n: int) -> float:
    """Compute-to-communication ratio of dense factorization: (n^3/3)/n^2."""
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    return n / 3


# ---------------------------------------------------------------------------
# Invocation traces.


class Invocation(NamedTuple):
    arrival_s: float
    duration_s: float
    memory_gb: float


class InvocationTrace(_Columns):
    """A validated invocation trace held as packed columns.

    Entry i arrives at `arrivals[i]`, an `array('d')` of 8 bytes an entry, and
    has the billing key `keys[codes[i]]`: its (duration, memory) pair, run time
    in seconds and configured memory in GB. `keys` holds each distinct pair
    once, in order of first use, and `codes` one int per entry, so equal keys
    share one code object. Arrivals are finite and non-decreasing, durations
    finite and positive, memory finite; arrivals are checked once and the rest
    once per key. `entries` is a read-only view of the rows, made when read.

    A zero memory is keyed with its sign, as 0.0 == -0.0: (d, 0.0) and
    (d, -0.0) are two keys, so each entry keeps its own zero. They are equal
    as pairs, and `simulate` rejects both alike.

    A trace is built only by the trace format's column builder, `_trace_builder`:
    `from_json` reads a parsed trace document and `load_trace` a trace file.
    """

    _FIELDS = ("arrivals", "keys", "codes")
    __slots__ = _FIELDS

    def __init__(self, arrivals: array, keys: _Keys, codes: list):
        """Take the builder's columns as they are, then validate them; a faulty value names its first entry."""
        for name, column in zip(self._FIELDS, (arrivals, tuple(key[:2] for key in keys), codes)):
            object.__setattr__(self, name, column)
        durations, memory = self.key_columns
        isfinite = math.isfinite
        ordered = all(map(le, arrivals, islice(arrivals, 1, None)))  # False past a NaN
        # Ordered arrivals lie between the first and the last, so those two are all the finite check needs.
        if not (all(map(isfinite, chain(durations, memory))) and all(map(isfinite, (
                arrivals[:1] + arrivals[-1:]) if ordered else arrivals))):
            i, field, value = next((i, field, value) for i, entry in enumerate(self.entries)
                                   for field, value in zip(Invocation._fields, entry) if not isfinite(value))
            raise GraphError(f"malformed trace document: entry {i}: {field} must be a finite number, not {value!r}")
        if not ordered:  # the first entry out of order, found only here
            i = next(compress(count(1), map(gt, arrivals, islice(arrivals, 1, None))))
            raise GraphError(f"trace arrivals must be sorted non-decreasing: entry {i} arrives at {arrivals[i]!r}, "
                             f"before entry {i - 1} at {arrivals[i - 1]!r}")
        if durations and min(durations) <= 0:
            i, entry = next((i, entry) for i, entry in enumerate(self.entries) if entry.duration_s <= 0)
            raise GraphError(f"malformed trace document: entry {i}: duration_s must be positive, "
                             f"not {entry.duration_s!r}")

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def key_columns(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The keys' durations and their memory sizes, two columns by code."""
        return (*zip(*self.keys),) or ((), ())

    @property
    def entries(self) -> tuple[Invocation, ...]:
        return tuple(Invocation(arrival, *self.keys[code]) for arrival, code in zip(self.arrivals, self.codes))

    @classmethod
    def from_json(cls, doc: list) -> "InvocationTrace":
        """The trace in a parsed trace document: its entries as one run for `_trace_builder`."""
        return _trace_builder()[1](doc)


_ENTRY_FAULTS = (KeyError, TypeError, ValueError, OverflowError)


def _numbered(add, document: str, item: str):
    """`add` over runs of items numbered from 0 across runs: a run that faults is added again an item at a time, to
    name the first faulty one, `malformed <document> document: <item> <i>: <fault>` (a GraphError as it is)."""
    added = [0]

    def add_run(run):
        try:
            add(run)
        except _ENTRY_FAULTS:
            for i, one in enumerate(run if isinstance(run, list) else (), added[0]):
                try:
                    add([one])
                except GraphError:
                    raise
                except _ENTRY_FAULTS as exc:
                    raise GraphError(f"malformed {document} document: {item} {i}: {exc}") from exc
            raise
        added[0] += len(run)

    return add_run


class _Floats(dict):
    """A float (or a task kind) -> one object per distinct value; no zero is stored, so each keeps its sign."""

    __slots__ = ()

    def __missing__(self, number):
        if number:
            self[number] = number
        return number


class _Keys(dict):
    """Billing keys, (duration, memory) -> code, 0, 1, 2, ... in order of first use. A zero memory is looked up
    with its sign as a third item, as 0.0 == -0.0."""

    __slots__ = ()

    def __missing__(self, key):
        code = self[key] = len(self)
        return code

    def code(self, durations: list, memory: list):
        """The codes of a run of entries' float durations and memory sizes."""
        keys = zip(durations, memory)
        if 0.0 in memory:
            keys = ((duration, gb) if gb else (duration, gb, math.copysign(1.0, gb)) for duration, gb in keys)
        return map(self.__getitem__, keys)


def _as_floats(run: list, name: str) -> list:
    """A run of one field's values as floats: each a number or a numeric string, which `float` reads (and whose
    refusal it words), but not a boolean, which JSON does not count as a number."""
    kinds = set(map(type, run))
    if kinds <= {float}:
        return run
    if bool in kinds:
        raise TypeError(f"{name} must be a number, not a boolean")
    return [*map(float, run)]


def _trace_builder():
    """The trace format's column builder: `add` takes each run of parsed entries, and `trace(doc)` is the trace of a
    document whose entries, if it reads as [], went to `add`. An entry is an object with `arrival_s`, `duration_s`
    and, by default 0.125, `memory_gb`, each a number or a numeric string; other keys are ignored."""
    arrivals, keys, codes = array("d"), _Keys(), []

    def add(entries):
        arrivals.fromlist(_as_floats([*map(itemgetter("arrival_s"), entries)], "arrival_s"))
        codes.extend(keys.code(_as_floats([*map(itemgetter("duration_s"), entries)], "duration_s"),
                               _as_floats([*map(dict.get, entries, repeat("memory_gb"), repeat(0.125))], "memory_gb")))

    def trace(doc) -> InvocationTrace:
        if not isinstance(doc, list):
            raise GraphError("malformed trace document: the top level must be a list of entries")
        add(doc)
        return InvocationTrace(arrivals, keys, codes)

    add = _numbered(add, "trace", "entry")
    return add, trace


def load_trace(path: str | Path) -> InvocationTrace:
    """The trace in a JSON trace file: `InvocationTrace.from_json` of the parsed document, with the same result or
    error, the file read once, a run of entries at a time."""
    add, trace = _trace_builder()
    with open(path, "rb") as file:
        return trace(Chunks(file, CHUNK).document({None: add}))


@cache
def _lanes() -> tuple[int, int, int]:
    """For a chunk's 128-bit lanes, lane i being bits 128i up: 1, (i + 1) * 0x9E3779B97F4A7C15 and 2**64 - 1 in each."""
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * _CHUNK_ROWS, "little")
    steps = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(1, _CHUNK_ROWS + 1)), "little")
    return ones, steps * 0x9E3779B97F4A7C15, ones * ((1 << 64) - 1)


def _low_words(lanes: int, n: int) -> tuple[int, ...]:
    """The low 64 bits of each of the first n 128-bit lanes of `lanes`, lane 0 first, the same on any host."""
    return struct.unpack("<" + "Q8x" * n, (lanes & ((1 << 128 * n) - 1)).to_bytes(16 * n, "little"))


def uniform_chunks(seed: int, count: int):
    """The first `count` uniform doubles in [0, 1) of splitmix64 from `seed`, a list per `jsontext` chunk: each the
    top 53 bits of one output of `state += 0x9E3779B97F4A7C15; z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31` in 64 bits, reproducible in any language.
    A chunk's draws are mixed together, its i-th state (`seed + (start + i + 1) * 0x9E3779B97F4A7C15` mod 2**64,
    from the chunk's first row `start`) in lane i of `_lanes`, each shift and product masked to 64 bits a lane. No
    lane reaches the next: a state lane is below 2049 * 2**64 < 2**76 before its mask, and a masked lane times a
    64-bit constant is below 2**128. Reading each lane's low 64 bits masks the last `>> 11`."""
    ones, steps, mask = _lanes()
    for rows in chunk_rows(count):
        z = ((seed + rows.start * 0x9E3779B97F4A7C15) % 2**64 * ones + steps) & mask
        z = ((z ^ (z >> 30) & mask) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27) & mask) * 0x94D049BB133111EB) & mask
        yield [u * 2.0**-53 for u in _low_words((z ^ (z >> 31) & mask) >> 11, len(rows))]


def _check_trace(count: int, *params: tuple[float, str, bool]) -> None:
    """A trace generator's checks, before it allocates: the count, then each (value, name, zero allowed) in turn
    must be finite and positive, or non-negative where zero is allowed. A trace file may hold an entry that
    simulate rejects, such as memory 0; a generator writes none."""
    if count < 0:
        raise GraphError("count must be non-negative")
    check_budget(count, "trace entries")
    for value, what, zero_ok in params:
        if value < 0 or value == 0 and not zero_ok:
            raise GraphError(f"{what} must be {'non-negative' if zero_ok else 'positive'}")
        if not math.isfinite(value):
            raise GraphError(f"{what} must be finite")


def _generated(count: int, arrivals, last: float, duration_s: float, memory_gb: float, metadata: dict):
    """The table of `arrivals`, made a chunk at a time as it is written, and its metadata, if `last` is finite."""
    if not math.isfinite(last):
        raise GraphError("trace arrivals, durations and memory must be finite numbers")

    def coded(value):  # its codes made a chunk at a time
        return Coded((float(value),), Lazy(count, (bytes(len(rows)) for rows in chunk_rows(count))))

    columns = Lazy(count, arrivals), coded(duration_s), coded(memory_gb)
    return Table(("arrival_s", "duration_s", "memory_gb"), columns), metadata


def fixed_interval_trace(count: int, interval_s: float, duration_s: float, memory_gb: float = 0.125):
    """Evenly spaced arrivals from time 0, as the trace table and its metadata."""
    _check_trace(count, (memory_gb, "memory", False), (interval_s, "interval", True), (duration_s, "duration", False))
    # Adding to 0.0 writes a zero arrival as 0.0, never -0.0.
    arrivals = ([0.0 + i * interval_s for i in rows] for rows in chunk_rows(count))
    return _generated(count, arrivals, 0.0 + (count - 1) * interval_s, duration_s, memory_gb, {
        "generator": "fixed-interval", "count": count, "interval_s": interval_s, "duration_s": duration_s,
        "memory_gb": memory_gb})


def poisson_trace(count: int, rate_per_s: float, duration_s: float, memory_gb: float = 0.125, seed: int = 0):
    """Poisson arrivals: exponential gaps by inverse CDF over splitmix64, as the trace table and its metadata.

    gap_i = -ln(1 - u_i) / rate with u_i the i-th uniform draw, and arrival_i the sum of the first i gaps, so a
    given seed yields the identical trace everywhere. A gap is at most 53 ln 2 / rate (1 - u is at least 2**-53),
    and 37 / rate covers rounding too: only where `count` such gaps pass a double's range are the arrivals run
    once first, unwritten, to find the last.
    """
    _check_trace(count, (rate_per_s, "arrival rate", False), (memory_gb, "memory", False),
                 (duration_s, "duration", False))

    def arrivals():
        now, log = 0.0, math.log
        for draws in uniform_chunks(seed, count):
            yield [now := now + -log(1.0 - u) / rate_per_s for u in draws]

    last = count * 37.0 / rate_per_s
    if not math.isfinite(last):
        last = deque(arrivals(), 1)[0][-1]
    return _generated(count, arrivals(), last, duration_s, memory_gb, {
        "generator": "poisson", "count": count, "rate_per_s": rate_per_s, "duration_s": duration_s,
        "memory_gb": memory_gb, "seed": seed})
