"""Reference versions of the graph core, the oracle that `faasim.workloads` and `faasim.placement` are checked against.

`asap_levels` walks one successor list per task, `greedy_assignment` orders edges by three stable sorts of a
permutation of edge positions, and `score` and `singleton_placement` make one int per edge. They hold more memory
than the library and return exactly what it must return.
"""

from itertools import compress, islice, repeat
from operator import add, eq, mul, ne

from faasim import placement as plc
from faasim.placement import CommCost


def asap_levels(graph) -> list[int]:
    n = graph.task_count
    indegree = [0] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    for src, dst in zip(graph.src, graph.dst):
        indegree[dst] += 1
        succs[src].append(dst)
    level = [0] * n
    ready = [i for i in range(n) if not indegree[i]]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        after = level[i] + 1
        for j in succs[i]:
            if level[j] < after:
                level[j] = after
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    assert seen == n, "cycle"
    return level


def score(instance: list[int], graph) -> CommCost:
    levels = graph.levels
    src_inst = [instance[i] for i in graph.src]
    dst_inst = [instance[i] for i in graph.dst]
    cross_bytes = sum(compress(graph.edge_bytes, map(ne, src_inst, dst_inst)))
    low, depth = min(instance, default=0), max(levels, default=0) + 1
    width = (max(instance, default=0) - low + 1) * depth
    head = [(seat - low) * width + level for seat, level in zip(instance, levels)]
    tail = [(seat - low) * depth for seat in instance]
    return CommCost(cross_bytes, len({head[a] + tail[b] for a, b in zip(graph.src, graph.dst)}))


def singleton_placement(graph) -> CommCost:
    pairs = sorted(map(add, map(mul, graph.src, repeat(graph.task_count)), graph.dst))
    return CommCost(graph.total_edge_bytes, len(pairs) - sum(map(eq, pairs, islice(pairs, 1, None))))


def greedy_assignment(problem) -> dict[str, tuple[int, int]]:
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

    members: dict[int, list[int]] = {}
    for i in by_id:
        members.setdefault(find(i), []).append(i)
    groups = sorted(members.values(), key=lambda g: (-len(g), rank[g[0]]))
    return dict(zip(ids, plc._seat(groups, problem.n_instances, slots)))
