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
from itertools import compress, islice, repeat
from operator import add, eq, mul, ne
from typing import NamedTuple

from .record import Record
from .workloads import TaskGraph, asap_levels  # noqa: F401  (asap_levels is re-exported)

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
        seats = list(self.assignment.values())
        if len(set(seats)) != len(seats):
            raise PlacementError("slot double-booked")

    def to_json_dict(self) -> dict:
        return {
            "assignment": {tid: list(seat) for tid, seat in sorted(self.assignment.items())},
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
    """Communication cost when task i (by position) runs on `instance[i]`."""
    levels = graph.levels
    src_inst = [instance[i] for i in graph.src]
    dst_inst = [instance[i] for i in graph.dst]
    cross_bytes = sum(compress(graph.edge_bytes, map(ne, src_inst, dst_inst)))
    # A message (src instance, dst instance, src level) as one int, in mixed radix:
    # instances offset from the least one, then the level.
    low, depth = min(instance, default=0), max(levels, default=0) + 1
    width = (max(instance, default=0) - low + 1) * depth
    head = [(seat - low) * width + level for seat, level in zip(instance, levels)]
    tail = [(seat - low) * depth for seat in instance]
    return CommCost(cross_bytes, len({head[a] + tail[b] for a, b in zip(graph.src, graph.dst)}))


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
    ids, src, dst = graph.ids, graph.src, graph.dst
    by_id = sorted(range(graph.task_count), key=ids.__getitem__)
    rank = [0] * graph.task_count
    for position, i in enumerate(by_id):
        rank[i] = position
    # Stable sorts, least significant key first: (-bytes, rank[src], rank[dst]).
    order = sorted(range(graph.edge_count), key=list(map(rank.__getitem__, dst)).__getitem__)
    order.sort(key=list(map(rank.__getitem__, src)).__getitem__)
    order.sort(key=graph.edge_bytes.__getitem__, reverse=True)

    parent = list(range(graph.task_count))
    size = [1] * graph.task_count

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(map(src.__getitem__, order), map(dst.__getitem__, order)):
        root_a, root_b = find(a), find(b)
        if root_a != root_b and size[root_a] + size[root_b] <= slots:
            parent[root_b] = root_a
            size[root_a] += size[root_b]

    # Members are collected in id order, so each group is sorted and starts with its least id.
    members: dict[int, list[int]] = {}
    for i in by_id:
        members.setdefault(find(i), []).append(i)
    groups = sorted(members.values(), key=lambda g: (-len(g), rank[g[0]]))

    assignment = dict(zip(ids, _seat(groups, problem.n_instances, slots)))
    cost = evaluate(assignment, graph)
    return Placement(assignment, cost.cross_instance_bytes, cost.remote_message_count)


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
    DAG has no self-loop), and each distinct (src, dst) pair is one message (a task fixes its level).
    Pairs are counted in one sorted list of ints, where each repeat follows its pair: a list slot per
    edge instead of a set's table."""
    pairs = sorted(map(add, map(mul, graph.src, repeat(graph.task_count)), graph.dst))  # (src, dst) as one int
    return CommCost(graph.total_edge_bytes, len(pairs) - sum(map(eq, pairs, islice(pairs, 1, None))))
