"""Workload generators: task DAGs, parallelism profiles, invocation traces.

Three generator families cover the application studies this library
models: bipartite map/reduce shuffle graphs, blocked right-looking
Cholesky factorization graphs (the canonical "parallelism varies wildly"
workload), and parameter-server training rounds expressed as alternating
aggregation/broadcast communication scenarios.

Trace generators use an explicitly specified 64-bit PRNG (splitmix64)
and inverse-CDF sampling so that identical seeds reproduce identical
traces on any platform or language.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .commpatterns import CommScenario, Deployment

# Above this many edges a shuffle graph is returned in implicit form.
MATERIALIZE_EDGE_LIMIT = 10**7

BYTES_PER_ELEMENT = 8  # dense double precision


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Task:
    id: str
    duration_s: float
    memory_gb: float
    kind: str = "task"


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    bytes: int


@dataclass(frozen=True)
class TaskGraph:
    """A validated DAG of tasks with byte-weighted edges."""

    tasks: tuple[Task, ...]
    edges: tuple[Edge, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate task ids")
        known = set(ids)
        for task in self.tasks:
            if task.duration_s <= 0:
                raise GraphError(f"task {task.id!r} has non-positive duration")
            if task.memory_gb < 0:
                raise GraphError(f"task {task.id!r} has negative memory")
        for edge in self.edges:
            if edge.src not in known or edge.dst not in known:
                raise GraphError(f"edge {edge.src!r}->{edge.dst!r} references unknown task")
            if edge.bytes < 0:
                raise GraphError(f"edge {edge.src!r}->{edge.dst!r} has negative bytes")
        asap_levels(self)  # raises on cycles

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_edge_bytes(self) -> int:
        return sum(e.bytes for e in self.edges)

    def to_json_dict(self) -> dict:
        return {
            "tasks": [
                {"id": t.id, "duration_s": t.duration_s, "memory_gb": t.memory_gb, "kind": t.kind}
                for t in self.tasks
            ],
            "edges": [{"src": e.src, "dst": e.dst, "bytes": e.bytes} for e in self.edges],
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TaskGraph":
        try:
            tasks = tuple(
                Task(
                    id=str(t["id"]),
                    duration_s=float(t["duration_s"]),
                    memory_gb=float(t.get("memory_gb", 0.0)),
                    kind=str(t.get("kind", "task")),
                )
                for t in doc["tasks"]
            )
            edges = tuple(Edge(str(e["src"]), str(e["dst"]), int(e["bytes"])) for e in doc.get("edges", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed task graph document: {exc}") from exc
        return cls(tasks=tasks, edges=edges, metadata=dict(doc.get("metadata", {})))


def load_task_graph(path: str | Path) -> TaskGraph:
    return TaskGraph.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def asap_levels(graph: TaskGraph) -> dict[str, int]:
    """Earliest level per task (Kahn order); raises GraphError on cycles."""
    level = {t.id: 0 for t in graph.tasks}
    indegree = {t.id: 0 for t in graph.tasks}
    succs: dict[str, list[str]] = {t.id: [] for t in graph.tasks}
    for edge in graph.edges:
        indegree[edge.dst] += 1
        succs[edge.src].append(edge.dst)
    ready = [tid for tid, deg in indegree.items() if deg == 0]
    seen = 0
    while ready:
        tid = ready.pop()
        seen += 1
        for nxt in succs[tid]:
            level[nxt] = max(level[nxt], level[tid] + 1)
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if seen != len(graph.tasks):
        raise GraphError("cycle detected in task graph")
    return level


@dataclass(frozen=True)
class LevelStat:
    ready_task_count: int
    working_set_bytes: int


@dataclass(frozen=True)
class ParallelismProfile:
    levels: tuple[LevelStat, ...]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(stat.ready_task_count for stat in self.levels)

    @property
    def peak_width(self) -> int:
        return max(self.widths)

    @property
    def peak_working_set_bytes(self) -> int:
        return max(stat.working_set_bytes for stat in self.levels)

    def to_json_dict(self) -> dict:
        return {
            "levels": [
                {"level": i, "ready_task_count": s.ready_task_count, "working_set_bytes": s.working_set_bytes}
                for i, s in enumerate(self.levels)
            ],
            "peak_width": self.peak_width,
            "peak_working_set_bytes": self.peak_working_set_bytes,
        }


@dataclass(frozen=True)
class ShuffleDagSpec:
    """Implicit form of a bipartite shuffle graph too large to materialize."""

    mappers: int
    reducers: int
    bytes_per_transfer: int

    @property
    def task_count(self) -> int:
        return self.mappers + self.reducers

    @property
    def edge_count(self) -> int:
        return self.mappers * self.reducers

    @property
    def total_edge_bytes(self) -> int:
        return self.edge_count * self.bytes_per_transfer

    def materialize(self, duration_s: float = 1.0, memory_gb: float = 0.125) -> TaskGraph:
        if self.edge_count > MATERIALIZE_EDGE_LIMIT:
            raise GraphError(f"refusing to materialize {self.edge_count} edges")
        return _build_shuffle_graph(self.mappers, self.reducers, self.bytes_per_transfer, duration_s, memory_gb)


def _build_shuffle_graph(m: int, r: int, nbytes: int, duration_s: float, memory_gb: float) -> TaskGraph:
    width = max(len(str(m - 1)), len(str(r - 1)))
    maps = [Task(f"m{i:0{width}d}", duration_s, memory_gb, "map") for i in range(m)]
    reds = [Task(f"r{j:0{width}d}", duration_s, memory_gb, "reduce") for j in range(r)]
    edges = tuple(Edge(mt.id, rt.id, nbytes) for mt in maps for rt in reds)
    return TaskGraph(
        tasks=tuple(maps + reds),
        edges=edges,
        metadata={"generator": "shuffle", "mappers": m, "reducers": r, "bytes_per_transfer": nbytes},
    )


def gen_shuffle_dag(
    mappers: int,
    reducers: int,
    bytes_per_transfer: int,
    duration_s: float = 1.0,
    memory_gb: float = 0.125,
    edge_limit: int = MATERIALIZE_EDGE_LIMIT,
) -> TaskGraph | ShuffleDagSpec:
    """Bipartite M-mapper, R-reducer shuffle graph with M*R edges.

    Graphs beyond `edge_limit` edges come back in implicit counting form
    (the 100 TB case has 1.1e9 edges); both forms expose the same count
    accessors and `parallelism_profile` accepts either.
    """
    if mappers < 1 or reducers < 1:
        raise GraphError("need at least one mapper and one reducer")
    if bytes_per_transfer < 0:
        raise GraphError("bytes per transfer must be non-negative")
    if mappers * reducers > edge_limit:
        return ShuffleDagSpec(mappers, reducers, bytes_per_transfer)
    return _build_shuffle_graph(mappers, reducers, bytes_per_transfer, duration_s, memory_gb)


def gen_cholesky_dag(
    blocks: int,
    block_dim: int = 256,
    factorize_s: float = 1.0,
    solve_s: float = 1.0,
    update_s: float = 1.0,
    memory_gb: float = 0.125,
) -> TaskGraph:
    """Blocked right-looking Cholesky DAG on a blocks x blocks tile grid.

    Step k factorizes diagonal tile k, solves the blocks-k-1 tiles below
    it, then applies (blocks-k-1)(blocks-k)/2 trailing updates; each
    update feeds whichever step-k+1 task next touches its tile. Every
    edge carries one tile: block_dim^2 doubles.
    """
    if blocks < 1:
        raise GraphError("need at least one block")
    tile_bytes = block_dim * block_dim * BYTES_PER_ELEMENT
    tasks: list[Task] = []
    edges: list[Edge] = []

    def fid(k: int) -> str:
        return f"f{k}"

    def sid(k: int, i: int) -> str:
        return f"s{k}.{i}"

    def uid(k: int, i: int, j: int) -> str:
        return f"u{k}.{i}.{j}"

    for k in range(blocks):
        tasks.append(Task(fid(k), factorize_s, memory_gb, "factorize"))
        for i in range(k + 1, blocks):
            tasks.append(Task(sid(k, i), solve_s, memory_gb, "triangular-solve"))
            edges.append(Edge(fid(k), sid(k, i), tile_bytes))
        for i in range(k + 1, blocks):
            for j in range(i, blocks):
                tasks.append(Task(uid(k, i, j), update_s, memory_gb, "trailing-update"))
                edges.append(Edge(sid(k, i), uid(k, i, j), tile_bytes))
                if j != i:
                    edges.append(Edge(sid(k, j), uid(k, i, j), tile_bytes))
                # Hand the updated tile to the step-(k+1) task that uses it.
                if i == k + 1 and j == k + 1:
                    edges.append(Edge(uid(k, i, j), fid(k + 1), tile_bytes))
                elif i == k + 1:
                    edges.append(Edge(uid(k, i, j), sid(k + 1, j), tile_bytes))
                else:
                    edges.append(Edge(uid(k, i, j), uid(k + 1, i, j), tile_bytes))
    return TaskGraph(
        tasks=tuple(tasks),
        edges=tuple(edges),
        metadata={"generator": "cholesky", "blocks": blocks, "block_dim": block_dim},
    )


def parallelism_profile(graph: TaskGraph | ShuffleDagSpec) -> ParallelismProfile:
    """Ready-task width and working set per earliest-start level.

    The working set of level L is the total bytes on edges that cross
    it, i.e. produced at a level before L and consumed at or after L.
    """
    if isinstance(graph, ShuffleDagSpec):
        crossing = graph.edge_count * graph.bytes_per_transfer
        return ParallelismProfile(
            levels=(LevelStat(graph.mappers, 0), LevelStat(graph.reducers, crossing))
        )
    level = asap_levels(graph)
    n_levels = max(level.values(), default=-1) + 1
    if n_levels == 0:
        return ParallelismProfile(levels=())
    widths = [0] * n_levels
    for tid, lvl in level.items():
        widths[lvl] += 1
    working = [0] * n_levels
    for edge in graph.edges:
        for lvl in range(level[edge.src] + 1, level[edge.dst] + 1):
            working[lvl] += edge.bytes
    return ParallelismProfile(
        levels=tuple(LevelStat(w, ws) for w, ws in zip(widths, working))
    )


def cholesky_task_count(blocks: int) -> int:
    """Closed form: sum over steps of 1 + solves + updates."""
    total = 0
    for k in range(blocks):
        below = blocks - k - 1
        total += 1 + below + below * (below + 1) // 2
    return total


def gen_paramserver(
    workers: int,
    rounds: int,
    gradient_bytes: int,
    deployment: Deployment | None = None,
) -> list[CommScenario]:
    """Training rounds as alternating aggregation/broadcast scenarios.

    Each round aggregates gradients from all workers into the parameter
    server, then broadcasts the updated model back out. By default every
    worker is its own single-core function; pass a grouped `deployment`
    (with n_instances * functions_per_instance == workers) to model
    co-located workers that combine traffic.
    """
    if workers < 1 or rounds < 1:
        raise GraphError("need at least one worker and one round")
    if gradient_bytes < 0:
        raise GraphError("gradient size must be non-negative")
    if deployment is None:
        deployment = Deployment(n_instances=workers, functions_per_instance=1, granularity="function-grained")
    elif deployment.n_instances * deployment.functions_per_instance != workers:
        raise GraphError("deployment capacity must equal the worker count")
    scenarios = []
    for _ in range(rounds):
        scenarios.append(CommScenario("aggregation", deployment, gradient_bytes))
        scenarios.append(CommScenario("broadcast", deployment, gradient_bytes))
    return scenarios


def flops_comm_ratio(n: int) -> float:
    """Compute-to-communication ratio of dense factorization: (n^3/3)/n^2."""
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    return n / 3


# ---------------------------------------------------------------------------
# Invocation traces.


@dataclass(frozen=True)
class Invocation:
    arrival_s: float
    duration_s: float
    memory_gb: float


@dataclass(frozen=True)
class InvocationTrace:
    entries: tuple[Invocation, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        isfinite = math.isfinite
        last = -math.inf
        for inv in self.entries:
            if not (isfinite(inv.arrival_s) and isfinite(inv.duration_s) and isfinite(inv.memory_gb)):
                raise GraphError("trace arrivals, durations and memory must be finite numbers")
            if inv.arrival_s < last:
                raise GraphError("trace arrivals must be sorted non-decreasing")
            if inv.duration_s <= 0:
                raise GraphError("trace durations must be positive")
            last = inv.arrival_s

    def __len__(self) -> int:
        return len(self.entries)

    def to_json_list(self) -> list[dict]:
        return [
            {"arrival_s": e.arrival_s, "duration_s": e.duration_s, "memory_gb": e.memory_gb}
            for e in self.entries
        ]

    @classmethod
    def from_json(cls, doc) -> "InvocationTrace":
        metadata = {}
        if isinstance(doc, dict):
            metadata = dict(doc.get("metadata", {}))
            doc = doc["entries"]
        try:
            entries = tuple(
                Invocation(float(e["arrival_s"]), float(e["duration_s"]), float(e.get("memory_gb", 0.125)))
                for e in doc
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed trace document: {exc}") from exc
        return cls(entries=entries, metadata=metadata)


def load_trace(path: str | Path) -> InvocationTrace:
    return InvocationTrace.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


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


def fixed_interval_trace(
    count: int,
    interval_s: float,
    duration_s: float,
    memory_gb: float = 0.125,
    start_s: float = 0.0,
) -> InvocationTrace:
    """Evenly spaced arrivals."""
    if count < 0:
        raise GraphError("count must be non-negative")
    entries = tuple(
        Invocation(start_s + i * interval_s, duration_s, memory_gb) for i in range(count)
    )
    return InvocationTrace(
        entries=entries,
        metadata={"generator": "fixed-interval", "count": count, "interval_s": interval_s,
                  "duration_s": duration_s, "memory_gb": memory_gb},
    )


def poisson_trace(
    count: int,
    rate_per_s: float,
    duration_s: float,
    memory_gb: float = 0.125,
    seed: int = 0,
) -> InvocationTrace:
    """Poisson arrivals: exponential gaps by inverse CDF over splitmix64.

    gap_i = -ln(1 - u_i) / rate with u_i the i-th uniform draw, so a
    given seed yields the identical trace everywhere.
    """
    if count < 0:
        raise GraphError("count must be non-negative")
    if rate_per_s <= 0:
        raise GraphError("arrival rate must be positive")
    rng = SplitMix64(seed)
    entries = []
    now = 0.0
    for _ in range(count):
        now += -math.log(1.0 - rng.uniform()) / rate_per_s
        entries.append(Invocation(now, duration_s, memory_gb))
    return InvocationTrace(
        entries=tuple(entries),
        metadata={"generator": "poisson", "count": count, "rate_per_s": rate_per_s,
                  "duration_s": duration_s, "memory_gb": memory_gb, "seed": seed},
    )
