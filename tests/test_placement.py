"""Placement: evaluation semantics, greedy vs exhaustive oracle, grouping."""

import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faasim import jsontext
from faasim import placement as plc
from faasim import workloads as wl
from faasim.workloads import TaskGraph
import graph_core_reference as reference
from test_workloads import graph_of, named_edges
from trace_reference import SplitMix64


def tasks_named(*ids):
    return [(tid, 1, 0) for tid in ids]


def line_graph(nbytes=100):
    return graph_of(tasks_named("a", "b"), [("a", "b", nbytes)])


def star_graph(targets=4, nbytes=10):
    targets = [f"t{i}" for i in range(targets)]
    return graph_of(tasks_named("src", *targets), [("src", target, nbytes) for target in targets])


def random_graph(seed: int, n_tasks: int = 6) -> TaskGraph:
    """Random DAG via the library PRNG: edges only from lower to higher ids."""
    rng = SplitMix64(seed)
    edges = []
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if rng.next_u64() % 2:
                edges.append((f"t{i}", f"t{j}", 1 + rng.next_u64() % 1000))
    return graph_of(tasks_named(*(f"t{i}" for i in range(n_tasks))), edges)


def chain_graph(length=5):
    return graph_of(tasks_named(*(f"c{i}" for i in range(length))),
                    [(f"c{i}", f"c{i + 1}", 10 * (i + 1)) for i in range(length - 1)])


def two_triangles():
    return graph_of(tasks_named(*(f"d{i}" for i in range(6))), [
        ("d0", "d1", 100), ("d0", "d2", 100), ("d1", "d2", 50),
        ("d3", "d4", 100), ("d3", "d5", 100), ("d4", "d5", 50),
    ])


def bundled_fixtures():
    """Small structured (graph, instances, slots) cases; greedy is optimal here."""
    return [
        (line_graph(10), 2, 2),
        (star_graph(3), 2, 2),
        (star_graph(4), 5, 1),
        (wl.gen_shuffle_dag(2, 2, 5), 2, 2),
        (wl.gen_shuffle_dag(2, 3, 7), 5, 1),
        (wl.gen_shuffle_dag(3, 3, 11), 3, 2),
        (wl.gen_cholesky_dag(2), 2, 2),
        (chain_graph(5), 3, 2),
        (chain_graph(5), 2, 3),
        (two_triangles(), 2, 3),
    ]


def random_assignment(graph: TaskGraph, n: int, k: int, seed: int) -> dict:
    rng = SplitMix64(seed)
    free = {i: k for i in range(n)}
    assignment = {}
    for tid in sorted(graph.ids):
        open_instances = sorted(i for i, left in free.items() if left > 0)
        pick = open_instances[rng.next_u64() % len(open_instances)]
        assignment[tid] = (pick, k - free[pick])
        free[pick] -= 1
    return assignment


# --- evaluate ----------------------------------------------------------------


def test_all_on_one_instance_is_local():
    graph = star_graph(4)
    assignment = {tid: (0, i) for i, tid in enumerate(graph.ids)}
    cost = plc.evaluate(assignment, graph)
    assert cost.cross_instance_bytes == 0


def test_forced_split_pays_the_edge():
    graph = line_graph(123)
    cost = plc.evaluate({"a": (0, 0), "b": (1, 0)}, graph)
    assert cost.cross_instance_bytes == 123
    cost = plc.evaluate({"a": (0, 0), "b": (0, 1)}, graph)
    assert cost.cross_instance_bytes == 0


def test_evaluate_unassigned_task_rejected():
    graph = line_graph()
    with pytest.raises(plc.PlacementError, match="not assigned"):
        plc.evaluate({"a": (0, 0)}, graph)


def test_message_combining_matches_grouped_formula():
    # 4x4 shuffle, two mappers + two reducers per instance: the combined
    # message count collapses to N^2 = 4 (self-pairs included by the
    # counting convention); all-singleton yields (N*K)^2 = 16.
    graph = wl.gen_shuffle_dag(4, 4, 10**6)
    assignment = {}
    seats = [0, 0]
    for tid in sorted(graph.ids):
        instance = int(tid[1:]) // 2
        assignment[tid] = (instance, seats[instance])
        seats[instance] += 1
    cost = plc.evaluate(assignment, graph)
    assert cost.remote_message_count == 4
    assert plc.singleton_placement(graph).remote_message_count == 16


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_grouping_theorem_shuffle(n, k):
    side = n * k
    graph = wl.gen_shuffle_dag(side, side, 1000)
    assignment = {}
    seats = [0] * n
    for tid in sorted(graph.ids):
        instance = int(tid[1:]) // k
        assignment[tid] = (instance, seats[instance])
        seats[instance] += 1
    grouped = plc.evaluate(assignment, graph)
    assert grouped.remote_message_count == n * n
    assert plc.singleton_placement(graph).remote_message_count == side * side


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_grouping_theorem_broadcast_and_aggregation(n, k):
    # Broadcast: source on instance 0, K targets per instance -> N
    # combined messages; all-singleton -> N*K.
    targets = n * k
    graph = star_graph(targets)
    assignment = {"src": (0, k)}
    for i in range(targets):
        assignment[f"t{i}"] = (i // k, i % k)
    assert plc.evaluate(assignment, graph).remote_message_count == n
    assert plc.singleton_placement(graph).remote_message_count == targets
    # Aggregation is the same star reversed.
    agg = graph_of(tasks_named(*graph.ids), [(dst, src, nbytes) for src, dst, nbytes in named_edges(graph)])
    assert plc.evaluate(assignment, agg).remote_message_count == n
    assert plc.singleton_placement(agg).remote_message_count == targets


def test_cross_bytes_bounded_by_total():
    for seed in range(10):
        graph = random_graph(seed)
        assignment = random_assignment(graph, 3, 2, seed + 1000)
        cost = plc.evaluate(assignment, graph)
        assert cost.cross_instance_bytes <= graph.total_edge_bytes
        co_located = any(assignment[src][0] == assignment[dst][0] for src, dst, _ in named_edges(graph))
        if cost.cross_instance_bytes == graph.total_edge_bytes:
            assert not co_located
        else:
            assert co_located


# --- planners ----------------------------------------------------------------


def test_single_slot_forces_singletons():
    graph = line_graph(50)
    problem = plc.PlacementProblem(graph, 2, 1)
    best = plc.place_exhaustive(problem)
    assert best.cross_instance_bytes == 50  # capacity forces the split
    roomy = plc.place_exhaustive(plc.PlacementProblem(graph, 2, 2))
    assert roomy.cross_instance_bytes == 0


def test_capacity_validation():
    with pytest.raises(plc.PlacementError, match="exceed capacity"):
        plc.PlacementProblem(star_graph(4), 2, 2)


def test_exhaustive_guard():
    graph = wl.gen_shuffle_dag(6, 6, 1)
    with pytest.raises(plc.PlacementError, match="limited"):
        plc.place_exhaustive(plc.PlacementProblem(graph, 12, 1))


def test_only_placement_when_capacity_is_exact():
    graph = graph_of(tasks_named("solo"))
    placement = plc.place_greedy(plc.PlacementProblem(graph, 1, 1))
    assert placement.assignment == {"solo": (0, 0)}


def test_greedy_shuffle_beats_random_average():
    graph = wl.gen_shuffle_dag(2, 2, 10**6)
    problem = plc.PlacementProblem(graph, 2, 2)
    greedy = plc.place_greedy(problem)
    random_costs = [
        plc.evaluate(random_assignment(graph, 2, 2, seed), graph).cross_instance_bytes
        for seed in range(100)
    ]
    assert greedy.cross_instance_bytes <= sum(random_costs) / len(random_costs)


def test_greedy_matches_optimum_on_cholesky():
    # 10 tasks; 2 instances x 5 slots is the smallest feasible split.
    graph = wl.gen_cholesky_dag(3)
    problem = plc.PlacementProblem(graph, 2, 5)
    greedy = plc.place_greedy(problem)
    best = plc.place_exhaustive(problem)
    assert greedy.cross_instance_bytes == best.cross_instance_bytes


@pytest.mark.parametrize("seed", range(50))
def test_greedy_never_beats_exhaustive(seed):
    graph = random_graph(seed)
    problem = plc.PlacementProblem(graph, 3, 2)
    greedy = plc.place_greedy(problem)
    best = plc.place_exhaustive(problem)
    assert best.cross_instance_bytes <= greedy.cross_instance_bytes


def naive_exhaustive(problem):
    """Every restricted-growth labelling in lexicographic order, each scored in full by
    `evaluate`; the first with the least (cross bytes, messages) wins."""
    ids = sorted(problem.graph.ids)
    best = None
    for labels in product(range(problem.n_instances), repeat=len(ids)):
        if any(label > max(labels[:i], default=-1) + 1 for i, label in enumerate(labels)):
            continue
        if max(Counter(labels).values(), default=0) > problem.slots_per_instance:
            continue
        seats = Counter()
        assignment = {}
        for tid, label in zip(ids, labels):
            assignment[tid] = (label, seats[label])
            seats[label] += 1
        cost = plc.evaluate(assignment, problem.graph)
        if best is None or cost < best[0]:
            best = (cost, assignment)
    return plc.Placement(best[1], *best[0])


@pytest.mark.parametrize("seed", range(60))
def test_exhaustive_matches_naive_enumeration(seed):
    """The pruned incremental search returns the naive search's placement, ties included."""
    graph = random_graph(seed, n_tasks=1 + seed % 7)
    if seed % 4 == 0:  # free edges: only message counts tell placements apart
        graph = graph_of(tasks_named(*graph.ids), [(src, dst, 0) for src, dst, _ in named_edges(graph)])
    n_instances = 1 + seed % 3
    slots = -(-graph.task_count // n_instances) + seed % 2
    problem = plc.PlacementProblem(graph, n_instances, slots)
    assert plc.place_exhaustive(problem) == naive_exhaustive(problem)


def test_greedy_matches_optimum_on_bundled_fixtures():
    for graph, n, k in bundled_fixtures():
        problem = plc.PlacementProblem(graph, n, k)
        assert (
            plc.place_greedy(problem).cross_instance_bytes
            == plc.place_exhaustive(problem).cross_instance_bytes
        )


def test_planners_are_deterministic():
    graph = random_graph(7)
    problem = plc.PlacementProblem(graph, 3, 2)
    assert plc.place_greedy(problem) == plc.place_greedy(problem)
    assert plc.place_exhaustive(problem) == plc.place_exhaustive(problem)


def test_placement_metrics_recomputable():
    graph = random_graph(3)
    placement = plc.place_greedy(plc.PlacementProblem(graph, 3, 2))
    cost = plc.evaluate(placement.assignment, graph)
    assert cost.cross_instance_bytes == placement.cross_instance_bytes
    assert cost.remote_message_count == placement.remote_message_count


def test_double_booked_slot_rejected():
    with pytest.raises(plc.PlacementError, match="double-booked"):
        plc.Placement({"a": (0, 0), "b": (0, 0)}, 0, 0)


# --- integer graph core ------------------------------------------------------


def naive_seat(groups, n_instances, slots):
    """First fit by scanning every instance from the left for every group."""
    free = [slots] * n_instances
    assignment, leftovers = {}, []

    def put(instance, members):
        for member in members:
            assignment[member] = (instance, slots - free[instance])
            free[instance] -= 1

    for group in groups:
        target = next((i for i in range(n_instances) if free[i] >= len(group)), None)
        if target is None:
            leftovers.extend(group)
        else:
            put(target, group)
    for member in leftovers:
        put(next(i for i in range(n_instances) if free[i] >= 1), [member])
    return assignment


@given(st.integers(1, 6), st.integers(1, 5), st.lists(st.integers(0, 8), max_size=25), st.randoms())
def test_seat_matches_naive_first_fit(n_instances, slots, sizes, random):
    # Groups larger than `slots`, or arriving once no instance has room,
    # fit nowhere and are split task by task. Groups hold task positions in any order.
    capacity = n_instances * slots
    used = min(sum(sizes), capacity)
    positions = random.sample(range(used), used)
    groups = []
    for size in sizes:
        size = min(size, len(positions))
        groups.append(positions[:size])
        del positions[:size]
    seats = naive_seat(groups, n_instances, slots)
    assert plc._seat(groups, n_instances, slots) == [seats[i] for i in range(used)]


def random_multigraph(seed: int, n_tasks: int = 8):
    """Random DAG with parallel edges: up to three edges per ordered pair, from lower to higher ids."""
    rng = SplitMix64(seed)
    edges = [(f"t{i}", f"t{j}", rng.next_u64() % 1000) for i in range(n_tasks) for j in range(i + 1, n_tasks)
             for _ in range(rng.next_u64() % 4)]
    return graph_of(tasks_named(*(f"t{i}" for i in range(n_tasks))), edges)


def test_singleton_cost_closed_form_matches_evaluate():
    cases = [random_multigraph(seed, n) for seed in range(40) for n in (1, 3, 8)]
    cases += [wl.gen_cholesky_dag(5), wl.gen_shuffle_dag(4, 3, 7), two_triangles()]
    assert any(len(set(zip(g.src, g.dst))) < g.edge_count for g in cases)  # parallel edges occur
    for graph in cases:
        singleton = plc.singleton_placement(graph)
        cost = plc.evaluate({tid: (i, 0) for i, tid in enumerate(graph.ids)}, graph)
        assert (singleton.cross_instance_bytes, singleton.remote_message_count) == cost


@given(st.integers(0, 2**32), st.integers(1, 9), st.lists(st.integers(-3, 3) | st.integers(-2**40, 2**40),
                                                           min_size=9, max_size=9))
def test_score_counts_messages_as_the_tuple_set(seed, n_tasks, instances):
    graph, instance = random_multigraph(seed, n_tasks), instances[:n_tasks]
    pairs = [(instance[a], instance[b], graph.levels[a], nbytes)
             for a, b, nbytes in zip(graph.src, graph.dst, graph.edge_bytes)]
    messages = {(a, b, level) for a, b, level, _ in pairs}
    assert plc._score(instance, graph) == (sum(nbytes for a, b, _, nbytes in pairs if a != b), len(messages))


def test_score_ignores_the_seat_of_an_edgeless_task():
    graph = graph_of(tasks_named("a", "b", "c", "lone"), [("a", "b", 5), ("b", "c", 7), ("a", "c", 1)])
    for seats in ([0, 1, 1], [2, 0, 1], [0, 0, 0]):
        for lone in (-1, 0, max(seats) + 5):
            instance = [*seats, lone]
            assignment = {tid: (seat, i) for i, (tid, seat) in enumerate(zip(graph.ids, instance))}
            messages = {(instance[a], instance[b], graph.levels[a]) for a, b in zip(graph.src, graph.dst)}
            assert plc.evaluate(assignment, graph).remote_message_count == len(messages)
            assert plc._score(instance, graph) == plc._score([*seats, 0], graph)


def test_evaluate_rejects_an_unassigned_edgeless_task():
    graph = graph_of(tasks_named("a", "b", "lone"), [("a", "b", 5)])
    with pytest.raises(plc.PlacementError, match="'lone' is not assigned"):
        plc.evaluate({"a": (0, 0), "b": (1, 0)}, graph)


def reference_greedy(problem):
    """The greedy planner on string ids and dicts: the oracle for the integer-indexed one."""
    graph, slots = problem.graph, problem.slots_per_instance
    parent = {tid: tid for tid in graph.ids}
    size = {tid: 1 for tid in graph.ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst, _ in sorted(named_edges(graph), key=lambda e: (-e[2], e[0], e[1])):
        root_a, root_b = find(src), find(dst)
        if root_a != root_b and size[root_a] + size[root_b] <= slots:
            parent[root_b] = root_a
            size[root_a] += size[root_b]
    members = {}
    for tid in graph.ids:
        members.setdefault(find(tid), []).append(tid)
    groups = sorted(members.values(), key=lambda g: (-len(g), min(g)))
    for group in groups:
        group.sort()
    return naive_seat(groups, problem.n_instances, slots)


def test_greedy_assignments_match_string_id_reference():
    cases = bundled_fixtures() + [(random_graph(seed), 3, 2) for seed in range(50)]
    cases += [(wl.gen_cholesky_dag(6), 10, 8), (wl.gen_shuffle_dag(8, 8, 3), 4, 8), (two_triangles(), 6, 1)]
    for graph, n, k in cases:
        problem = plc.PlacementProblem(graph, n, k)
        assert plc.place_greedy(problem).assignment == reference_greedy(problem)


def test_levels_computed_once_per_graph(tmp_path, monkeypatch):
    path = tmp_path / "graph.json"
    path.write_text(jsontext.dumps(wl.gen_cholesky_dag(4).to_json_dict()), encoding="utf-8")
    calls = []
    original = wl.asap_levels
    monkeypatch.setattr(wl, "asap_levels", lambda graph: calls.append(graph) or original(graph))
    monkeypatch.setattr(plc, "asap_levels", wl.asap_levels)
    graph = wl.load_task_graph(path)
    plc.place_greedy(plc.PlacementProblem(graph, 4, 8))
    plc.singleton_placement(graph)
    wl.parallelism_profile(graph)
    assert len(calls) == 1


@st.composite
def multigraphs(draw):
    """DAGs with parallel edges, tied and mixed edge bytes, and ids in no relation to positions or to the
    topological order."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.text("abxy019.", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    topological = draw(st.permutations(range(n)))  # task positions, first to last
    # Two distinct indexes into `topological`: the second skips the first.
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, max(n - 2, 0))).map(lambda p: (p[0], p[1] + (p[1] >= p[0])))
    pairs = draw(st.lists(ends, max_size=4 * n if n > 1 else 0))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []  # parallel edges
    nbytes = st.sampled_from([0, 7, 7, 1000]) | st.integers(0, 2**40)
    edge_bytes = draw(st.lists(nbytes, min_size=len(pairs), max_size=len(pairs)))
    src = [topological[min(pair)] for pair in pairs]
    dst = [topological[max(pair)] for pair in pairs]
    return wl.TaskGraph(ids, [1.0] * n, [0.0] * n, ["task"] * n, src, dst, edge_bytes)


@given(multigraphs(), st.integers(1, 8), st.integers(0, 3), st.data())
def test_graph_core_returns_what_the_reference_returns(graph, slots, spare, data):
    assert list(graph.levels) == wl.asap_levels(graph) == reference.asap_levels(graph)
    problem = plc.PlacementProblem(graph, -(-graph.task_count // slots) + spare, slots)
    greedy = plc.place_greedy(problem)
    assignment = reference.greedy_assignment(problem)
    assert greedy.assignment == assignment
    cost = reference.score([assignment[tid][0] for tid in graph.ids], graph)
    assert (greedy.cross_instance_bytes, greedy.remote_message_count) == cost
    assert plc.singleton_placement(graph) == reference.singleton_placement(graph)
    instance = data.draw(st.lists(st.integers(-3, 3) | st.integers(-2**40, 2**40), min_size=graph.task_count,
                                  max_size=graph.task_count))
    assert plc._score(instance, graph) == reference.score(instance, graph)
    if graph.task_count <= 7:
        best = plc.place_exhaustive(problem)
        assert (best.cross_instance_bytes, best.remote_message_count) <= cost


# Bytes `place_greedy` may allocate beside the graph, per task and per edge. On Python 3.11.7 Cholesky 24 (2,600
# tasks, 6,900 edges) came to 0.46 MiB and the 200x200 shuffle (400 tasks, 40,000 edges) to 0.99 MiB, against
# 1.32 and 2.48 MiB when the merge ordered a permutation of edge positions and scoring made an int per edge.
GREEDY_BYTES_PER_TASK, GREEDY_BYTES_PER_EDGE = 160, 32


@pytest.mark.parametrize("make", [lambda: wl.gen_cholesky_dag(24), lambda: wl.gen_shuffle_dag(200, 200, 1 << 20)],
                         ids=["cholesky-24", "shuffle-200x200"])
def test_place_greedy_peak_beside_the_graph(make):
    graph = make()
    problem = plc.PlacementProblem(graph, graph.task_count, 8)
    plc.place_greedy(problem)  # first use allocates nothing that is counted below
    tracemalloc.start()
    try:
        placed = plc.place_greedy(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert placed.assignment
    assert peak < GREEDY_BYTES_PER_TASK * graph.task_count + GREEDY_BYTES_PER_EDGE * graph.edge_count
