"""Assignment of task-graph tasks to instances with limited slots.

The objective is the communication a placement leaves on the network:
bytes on edges whose endpoints sit on different instances, and the
number of logical messages after co-located tasks combine their traffic.
Message counting collapses all edges between an ordered instance pair
within one transfer round (the source task's level) to a single message,
and, matching the N^2 shuffle convention, a pair of an instance with
itself still counts as one combined message; only its bytes are free.

Two planners are provided: a deterministic greedy merge of the heaviest
edges, and an exhaustive optimum over set partitions for small graphs
that serves as the oracle the greedy is validated against. Both work on
task positions and name tasks by id only in the `Placement` they return.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import compress, islice
from operator import ne
from typing import NamedTuple

from .record import Record
from .workloads import TaskGraph, asap_levels, out_edges  # noqa: F401  (asap_levels is re-exported)

EXHAUSTIVE_TASK_LIMIT = 10


class PlacementError(ValueError):
    pass


class PlacementProblem(Record):
    graph: TaskGraph
    n_instances: int
    slots_per_instance: int

    def __post_init__(self):
        if self.n_instances < 1 or self.slots_per_instance < 1:
            raise PlacementError("need at least one instance and one slot")
        capacity = self.n_instances * self.slots_per_instance
        if capacity < self.graph.task_count:
            raise PlacementError(
                f"{self.graph.task_count} tasks exceed capacity {capacity} "
                f"({self.n_instances} instances x {self.slots_per_instance} slots)"
            )


class CommCost(NamedTuple):
    cross_instance_bytes: int
    remote_message_count: int


class Placement(Record):
    """Task id -> (instance, slot), with its communication metrics."""

    assignment: dict[str, tuple[int, int]]
    cross_instance_bytes: int
    remote_message_count: int

    def __post_init__(self):
        if len(set(self.assignment.values())) != len(self.assignment):
            raise PlacementError("slot double-booked")

    def to_json_dict(self) -> dict:
        return {
            "assignment": {tid: list(self.assignment[tid]) for tid in sorted(self.assignment)},
            "cross_instance_bytes": self.cross_instance_bytes,
            "remote_message_count": self.remote_message_count,
        }


def evaluate(assignment: dict[str, tuple[int, int]], graph: TaskGraph) -> CommCost:
    """Communication cost of an assignment over a graph.

    Raises PlacementError if a task is not assigned.
    """
    seats = list(map(assignment.get, graph.ids))
    if None in seats:
        raise PlacementError(f"task {graph.ids[seats.index(None)]!r} is not assigned")
    return _score([seat[0] for seat in seats], graph)


def _score(instance: list[int], graph: TaskGraph) -> CommCost:
    """Communication cost when task i (by position) runs on `instance[i]`. A message (src instance, src level, dst
    instance) is the int (src * depth + level) * span + dst, one per message as instances differ by less than `span`;
    made an edge at a time, the set holds one int per message, not per edge."""
    levels, at = graph.levels, instance.__getitem__
    cross_bytes = sum(compress(graph.edge_bytes, map(ne, [*map(at, graph.src)], [*map(at, graph.dst)])))
    depth, span = max(levels, default=0) + 1, max(instance, default=0) - min(instance, default=0) + 1
    messages = {(instance[a] * depth + levels[a]) * span + instance[b] for a, b in zip(graph.src, graph.dst)}
    return CommCost(cross_bytes, len(messages))


def _seat(groups: list[list[int]], n_instances: int, slots: int) -> list[tuple[int, int]]:
    """First-fit groups of task positions into instances; split any group that fits nowhere.

    Returns each task's (instance, slot) by position. Free slots only shrink,
    so the first instance with room for a given group size never moves left:
    one cursor per size keeps the whole scan linear in groups plus instances
    times slots. First fit leaves no instance empty before a used one and
    puts no more than the task count on one, so both counts are capped at
    the task count before anything is allocated.
    """
    task_count = sum(map(len, groups))
    n_instances, slots = min(n_instances, task_count), min(slots, task_count)
    free = [slots] * n_instances
    cursor = [0] * (slots + 1)
    seats: list = [None] * task_count
    leftovers: list[int] = []

    def first_fit(size: int) -> int | None:
        if size > slots:
            return None
        i = cursor[size]
        while i < n_instances and free[i] < size:
            i += 1
        cursor[size] = i
        return i if i < n_instances else None

    def put(instance: int, members: list[int]):
        for member in members:
            seats[member] = (instance, slots - free[instance])
            free[instance] -= 1

    for group in groups:
        target = first_fit(len(group))
        if target is None:
            leftovers.extend(group)
        else:
            put(target, group)
    for task in leftovers:
        put(first_fit(1), [task])
    return seats


def place_greedy(problem: PlacementProblem) -> Placement:
    """Deterministic heavy-edge merging followed by first-fit packing.

    Edges are visited by descending bytes (ties by endpoint ids); the
    endpoint groups are merged whenever the union still fits in one
    instance. Merged groups are packed largest-first; anything that no
    longer fits falls back to task-at-a-time first fit.
    """
    graph, slots = problem.graph, problem.slots_per_instance
    assignment = dict(zip(graph.ids, _seat(_merged(graph, slots), problem.n_instances, slots)))
    cost = evaluate(assignment, graph)
    return Placement(assignment, cost.cross_instance_bytes, cost.remote_message_count)


def _merged(graph: TaskGraph, slots: int) -> list[list[int]]:
    """`place_greedy`'s merged groups of task positions, largest first (ties by least id), each in id order. Ranks are
    the shared `positions` ints; an edge's source key, its source's rank plus n times the bytes it carries below the
    heaviest edge, sorts by bytes, then source, and each key's bucket of destination ranks is sorted in its turn."""
    n = graph.task_count
    positions = list(range(n))
    by_id = sorted(positions, key=graph.ids.__getitem__)
    rank = [0] * n
    for position, i in zip(positions, by_id):
        rank[i] = position
    top = max(graph.edge_bytes, default=0)
    sources = [r if nbytes == top else (top - nbytes) * n + r
               for nbytes, r in zip(graph.edge_bytes, map(rank.__getitem__, graph.src))]
    heads = sorted(map(rank.__getitem__, graph.dst), key=partial(next, iter(sources)))  # grouped as `out_edges` does
    sources.sort()
    parent, size = positions[:], [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    lo = 0
    for key, count in Counter(sources).items():  # the sorted keys, in order
        root_a = find(key % n)  # stays a root while its bucket merges into it
        for b in sorted(heads[lo:lo + count]):
            root_b = find(b)
            if root_a != root_b and size[root_a] + size[root_b] <= slots:
                parent[root_b] = root_a
                size[root_a] += size[root_b]
        lo += count

    # Members are collected in id order, so each group is sorted and starts with its least id.
    members: dict[int, list[int]] = {}
    for r in positions:
        members.setdefault(find(r), []).append(by_id[r])
    return sorted(members.values(), key=lambda g: (-len(g), rank[g[0]]))


def place_exhaustive(problem: PlacementProblem) -> Placement:
    """Optimal placement by enumerating set partitions (guard: <= 10 tasks).

    Partitions are generated as restricted-growth strings, so the first
    optimum found is the lexicographically smallest assignment vector;
    cost compares (cross_instance_bytes, remote_message_count). A task adds
    its edges to earlier-labelled tasks to the cost, which never shrinks, so
    a branch whose partial cost is no better than the best so far is cut.
    """
    graph = problem.graph
    if graph.task_count > EXHAUSTIVE_TASK_LIMIT:
        raise PlacementError(
            f"exhaustive search is limited to {EXHAUSTIVE_TASK_LIMIT} tasks, got {graph.task_count}"
        )
    # Labels are given in task-id order; `instance` holds them by task position.
    by_id = sorted(range(graph.task_count), key=graph.ids.__getitem__)
    n, slots = problem.n_instances, problem.slots_per_instance
    labelled_at = {task: index for index, task in enumerate(by_id)}
    # Each edge is scored when its later-labelled end is: (src, dst, bytes, message level).
    closes: list[list[tuple[int, int, int, int]]] = [[] for _ in by_id]
    for src, dst, nbytes in zip(graph.src, graph.dst, graph.edge_bytes):
        closes[max(labelled_at[src], labelled_at[dst])].append((src, dst, nbytes, graph.levels[src]))

    best_cost = CommCost(float("inf"), float("inf"))
    best_instance: list[int] | None = None
    instance = [0] * graph.task_count
    counts = [0] * (graph.task_count + 1)
    messages: Counter = Counter()  # edges per (src instance, dst instance, level)

    def recurse(index: int, used: int, cross_bytes: int, message_count: int):
        nonlocal best_cost, best_instance
        if index == len(by_id):
            best_cost, best_instance = CommCost(cross_bytes, message_count), instance.copy()
            return
        for label in range(min(used + 1, n)):
            if counts[label] >= slots:
                continue
            instance[by_id[index]] = label
            cross, count = cross_bytes, message_count
            for src, dst, nbytes, level in closes[index]:
                key = (instance[src], instance[dst], level)
                if key[0] != key[1]:
                    cross += nbytes
                if not messages[key]:
                    count += 1
                messages[key] += 1
            if (cross, count) < best_cost:
                counts[label] += 1
                recurse(index + 1, max(used, label + 1), cross, count)
                counts[label] -= 1
            for src, dst, _, level in closes[index]:
                messages[instance[src], instance[dst], level] -= 1

    recurse(0, 0, 0, 0)  # capacity covers every task, so some labelling completes
    del recurse  # a recursive closure is a reference cycle; `cli.main` runs with collection paused
    slot_counter = [0] * min(n, graph.task_count)  # labels stay below the task count
    assignment: dict[str, tuple[int, int]] = {}
    for i in by_id:
        label = best_instance[i]
        assignment[graph.ids[i]] = (label, slot_counter[label])
        slot_counter[label] += 1
    return Placement(assignment, best_cost.cross_instance_bytes, best_cost.remote_message_count)


def singleton_placement(graph: TaskGraph) -> CommCost:
    """The cost of every task on its own instance: the no-co-location baseline. Every edge crosses (a
    DAG has no self-loop), and each distinct (src, dst) pair is one message (a task fixes its level):
    the distinct destinations in each source's bucket of `dst` ints (`out_edges`)."""
    start, heads = out_edges(graph)
    pairs = sum(map(len, map(set, map(heads.__getitem__, map(slice, start, islice(start, 1, None))))))
    return CommCost(graph.total_edge_bytes, pairs)
