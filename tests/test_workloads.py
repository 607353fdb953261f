"""Workload generators: DAG structure, profiles, traces."""

import json
import math
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faasim import jsontext
from faasim import workloads as wl
from faasim.commpatterns import CommScenario, Deployment, remote_traffic_bytes

# Task totals for small tile counts, worked out by hand: step k of a
# T-tile factorization runs 1 diagonal task, T-k-1 solves and
# (T-k-1)(T-k)/2 updates, which telescopes to binomial(T+2, 3).
HAND_COUNTED_TASKS = {1: 1, 2: 4, 3: 10, 4: 20, 5: 35, 6: 56}


def oracle_levels(graph: wl.TaskGraph) -> dict[str, int]:
    """Longest-path levelization by memoized recursion over predecessors."""
    preds: dict[str, list[str]] = {t.id: [] for t in graph.tasks}
    for edge in graph.edges:
        preds[edge.dst].append(edge.src)

    @lru_cache(maxsize=None)
    def depth(tid: str) -> int:
        if not preds[tid]:
            return 0
        return 1 + max(depth(p) for p in preds[tid])

    return {t.id: depth(t.id) for t in graph.tasks}


# --- shuffle DAGs ------------------------------------------------------------


def test_shuffle_dag_small():
    graph = wl.gen_shuffle_dag(2, 3, 10**6)
    assert graph.task_count == 5
    assert graph.edge_count == 6
    kinds = {t.kind for t in graph.tasks}
    assert kinds == {"map", "reduce"}


def test_shuffle_dag_trivial():
    graph = wl.gen_shuffle_dag(1, 1, 42)
    assert graph.task_count == 2
    assert graph.edge_count == 1


def test_shuffle_dag_large_is_implicit():
    graph = wl.gen_shuffle_dag(33_334, 33_334, 89_964)
    assert isinstance(graph, wl.ShuffleDagSpec)
    assert graph.edge_count == 33_334**2
    assert 1_100_000_000 <= graph.edge_count <= 1_120_000_000


def test_shuffle_dag_edges_match_planner_transfers():
    from faasim import shuffleplan as shp

    for m in (1, 4, 33_334):
        graph = wl.gen_shuffle_dag(m, m, 1)
        plan = shp.plan(shp.ShuffleProblem(m * 10**9, 10**9))
        assert graph.edge_count == plan.transfers


def test_implicit_profile_matches_materialized():
    implicit = wl.ShuffleDagSpec(3, 4, 100)
    explicit = wl.gen_shuffle_dag(3, 4, 100)
    assert wl.parallelism_profile(implicit) == wl.parallelism_profile(explicit)


# --- Cholesky DAGs -----------------------------------------------------------


@pytest.mark.parametrize("tiles,expected", sorted(HAND_COUNTED_TASKS.items()))
def test_cholesky_task_counts(tiles, expected):
    graph = wl.gen_cholesky_dag(tiles)
    assert graph.task_count == expected
    assert wl.cholesky_task_count(tiles) == expected


def test_cholesky_trivial():
    graph = wl.gen_cholesky_dag(1)
    assert graph.task_count == 1
    assert graph.edge_count == 0


def test_cholesky_two_tiles_by_hand():
    graph = wl.gen_cholesky_dag(2)
    ids = sorted(t.id for t in graph.tasks)
    assert ids == ["f0", "f1", "s0.1", "u0.1.1"]
    edges = sorted((e.src, e.dst) for e in graph.edges)
    assert edges == [("f0", "s0.1"), ("s0.1", "u0.1.1"), ("u0.1.1", "f1")]


def test_cholesky_kind_split():
    tiles = 5
    graph = wl.gen_cholesky_dag(tiles)
    by_kind = {}
    for task in graph.tasks:
        by_kind[task.kind] = by_kind.get(task.kind, 0) + 1
    assert by_kind["factorize"] == tiles
    assert by_kind["triangular-solve"] == tiles * (tiles - 1) // 2
    assert by_kind["trailing-update"] == sum(m * (m + 1) // 2 for m in range(1, tiles))


@pytest.mark.parametrize("tiles", [2, 3, 4, 6, 8])
def test_cholesky_peak_width(tiles):
    profile = wl.parallelism_profile(wl.gen_cholesky_dag(tiles))
    assert profile.peak_width == tiles * (tiles - 1) // 2
    assert profile.widths[2] == profile.peak_width  # first update wave
    assert profile.widths[-1] == 1


def test_cholesky_profile_shape_rises_then_decays():
    profile = wl.parallelism_profile(wl.gen_cholesky_dag(8))
    widths = profile.widths
    peak_at = widths.index(max(widths))
    assert peak_at > 0 and peak_at < len(widths) - 1
    assert widths != tuple(sorted(widths))  # non-monotone envelope
    assert widths[-1] == 1


def test_cholesky_working_set_units():
    block_dim = 64
    graph = wl.gen_cholesky_dag(3, block_dim=block_dim)
    tile = block_dim * block_dim * 8
    profile = wl.parallelism_profile(graph)
    assert all(stat.working_set_bytes % tile == 0 for stat in profile.levels)
    assert profile.levels[0].working_set_bytes == 0
    assert profile.peak_working_set_bytes > 0


# --- profiles ----------------------------------------------------------------


def test_profile_shuffle_by_hand():
    profile = wl.parallelism_profile(wl.gen_shuffle_dag(2, 3, 7))
    assert profile.widths == (2, 3)
    assert profile.levels[0].working_set_bytes == 0
    assert profile.levels[1].working_set_bytes == 6 * 7


def test_profile_single_task():
    graph = wl.TaskGraph(tasks=(wl.Task("only", 1.0, 0.1),), edges=())
    assert wl.parallelism_profile(graph).widths == (1,)


def test_cholesky_task_count_closed_form():
    graphs = list(map(wl.gen_cholesky_dag, range(1, 41)))
    assert [wl.cholesky_task_count(b) for b in range(1, 41)] == [graph.task_count for graph in graphs]
    assert [wl.cholesky_edge_count(b) for b in range(1, 41)] == [graph.edge_count for graph in graphs]


def test_profile_widths_sum_to_task_count():
    for tiles in (2, 5, 7):
        graph = wl.gen_cholesky_dag(tiles)
        assert sum(wl.parallelism_profile(graph).widths) == graph.task_count


@pytest.mark.parametrize("tiles", [2, 4, 6])
def test_profile_levels_match_longest_path_oracle(tiles):
    graph = wl.gen_cholesky_dag(tiles)
    expected = oracle_levels(graph)
    assert dict(zip(graph.ids, wl.asap_levels(graph))) == expected


def test_cycle_detected():
    with pytest.raises(wl.GraphError, match="cycle"):
        wl.TaskGraph(
            tasks=(wl.Task("a", 1, 0), wl.Task("b", 1, 0)),
            edges=(wl.Edge("a", "b", 0), wl.Edge("b", "a", 0)),
        )


def test_graph_validation():
    with pytest.raises(wl.GraphError, match="unknown task"):
        wl.TaskGraph(tasks=(wl.Task("a", 1, 0),), edges=(wl.Edge("a", "zzz", 1),))
    with pytest.raises(wl.GraphError, match="duration"):
        wl.TaskGraph(tasks=(wl.Task("a", 0, 0),), edges=())
    with pytest.raises(wl.GraphError, match="negative bytes"):
        wl.TaskGraph(
            tasks=(wl.Task("a", 1, 0), wl.Task("b", 1, 0)), edges=(wl.Edge("a", "b", -1),)
        )
    with pytest.raises(wl.GraphError, match="duplicate"):
        wl.TaskGraph(tasks=(wl.Task("a", 1, 0), wl.Task("a", 1, 0)), edges=())


@pytest.mark.parametrize("field,value", [
    ("duration_s", float("nan")), ("duration_s", float("inf")),
    ("memory_gb", float("nan")), ("memory_gb", float("-inf")),
])
def test_non_finite_task_rejected(field, value):
    doc = json.loads(jsontext.dumps(wl.gen_cholesky_dag(2).to_json_dict()))
    doc["tasks"][1][field] = value
    with pytest.raises(wl.GraphError, match="non-finite"):
        wl.TaskGraph.from_json_dict(doc)


@pytest.mark.parametrize("nbytes", [1e400, float("nan"), "many"])
def test_non_finite_or_non_integer_edge_bytes_rejected(nbytes):
    doc = json.loads(jsontext.dumps(wl.gen_cholesky_dag(2).to_json_dict()))
    doc["edges"][0]["bytes"] = nbytes
    with pytest.raises(wl.GraphError, match="malformed"):
        wl.TaskGraph.from_json_dict(doc)
    with pytest.raises(wl.GraphError):
        wl.TaskGraph(tasks=(wl.Task("a", 1, 0), wl.Task("b", 1, 0)), edges=(wl.Edge("a", "b", nbytes),))


def test_malformed_metadata_rejected():
    doc = wl.gen_cholesky_dag(2).to_json_dict()
    doc["metadata"] = 5
    with pytest.raises(wl.GraphError, match="malformed"):
        wl.TaskGraph.from_json_dict(doc)


def test_object_form_round_trips_through_columns():
    graph = wl.gen_cholesky_dag(4)
    again = wl.TaskGraph(tasks=graph.tasks, edges=graph.edges, metadata=graph.metadata)
    assert again == graph
    assert again.levels == graph.levels
    assert [graph.ids[i] for i in graph.src] == [e.src for e in graph.edges]
    assert wl.asap_levels(graph) == list(graph.levels)


@pytest.mark.parametrize("name", ["ids", "src", "edge_bytes", "levels", "metadata"])
def test_graph_columns_cannot_be_replaced(name):
    graph = wl.gen_cholesky_dag(3)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(graph, name, ())
    with pytest.raises(AttributeError, match="immutable"):
        delattr(graph, name)
    assert graph == wl.gen_cholesky_dag(3)


def naive_profile(graph: wl.TaskGraph) -> list[tuple[int, int]]:
    """Width and working set per level, one edge and one level at a time."""
    level = oracle_levels(graph)
    depth = max(level.values()) + 1
    widths = [sum(1 for t in graph.tasks if level[t.id] == lvl) for lvl in range(depth)]
    working = [0] * depth
    for edge in graph.edges:
        for lvl in range(level[edge.src] + 1, level[edge.dst] + 1):
            working[lvl] += edge.bytes
    return list(zip(widths, working))


@st.composite
def random_dags(draw):
    """Random DAG: edges only from a lower to a higher task number, ids shuffled."""
    n = draw(st.integers(1, 12))
    names = draw(st.permutations([f"t{i}" for i in range(n)]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    nbytes = draw(st.lists(st.integers(0, 10**6), min_size=len(chosen), max_size=len(chosen)))
    return wl.TaskGraph(
        tasks=tuple(wl.Task(name, 1.0, 0.0) for name in names),
        edges=tuple(wl.Edge(names[i], names[j], b) for (i, j), b in zip(chosen, nbytes)),
    )


@given(random_dags())
def test_profile_matches_per_level_loop(graph):
    profile = wl.parallelism_profile(graph)
    assert [(s.ready_task_count, s.working_set_bytes) for s in profile.levels] == naive_profile(graph)


@pytest.mark.parametrize("length", [2, 50, 300])
def test_profile_of_chain_with_skip_edges(length):
    tasks = tuple(wl.Task(f"c{i}", 1.0, 0.0) for i in range(length))
    edges = [wl.Edge(f"c{i}", f"c{i + 1}", i + 1) for i in range(length - 1)]
    edges.append(wl.Edge("c0", f"c{length - 1}", 7))  # crosses every level
    graph = wl.TaskGraph(tasks=tasks, edges=tuple(edges))
    profile = wl.parallelism_profile(graph)
    assert profile.widths == (1,) * length
    assert [(s.ready_task_count, s.working_set_bytes) for s in profile.levels] == naive_profile(graph)


def test_graph_json_round_trip():
    graph = wl.gen_cholesky_dag(3)
    doc = graph.to_json_dict()
    again = wl.TaskGraph.from_json_dict(doc)
    assert again == graph


def test_generators_deterministic():
    assert wl.gen_cholesky_dag(5) == wl.gen_cholesky_dag(5)
    assert wl.gen_shuffle_dag(3, 4, 9) == wl.gen_shuffle_dag(3, 4, 9)
    assert wl.gen_paramserver(4, 2, 100) == wl.gen_paramserver(4, 2, 100)


# --- parameter server --------------------------------------------------------


def test_paramserver_structure():
    scenarios = wl.gen_paramserver(10, 2, 4_000_000)
    assert len(scenarios) == 4
    assert [s.pattern for s in scenarios] == ["aggregation", "broadcast", "aggregation", "broadcast"]
    assert all(s.payload_bytes == 4_000_000 for s in scenarios)
    assert all(s.deployment.parties == 10 for s in scenarios)


def test_paramserver_degenerate():
    scenarios = wl.gen_paramserver(1, 1, 8)
    assert len(scenarios) == 2
    assert all(s.deployment.n_instances * s.deployment.functions_per_instance == 1 for s in scenarios)


def test_paramserver_grouped_traffic_ratio():
    fine = wl.gen_paramserver(10, 1, 4_000_000)
    grouped = wl.gen_paramserver(
        10, 1, 4_000_000, deployment=Deployment(1, 10, "vm-grouped")
    )
    ratio = remote_traffic_bytes(fine[1]) / remote_traffic_bytes(grouped[1])
    assert ratio == 10


def test_paramserver_deployment_capacity_checked():
    with pytest.raises(wl.GraphError):
        wl.gen_paramserver(10, 1, 8, deployment=Deployment(3, 2, "vm-grouped"))


def test_flops_comm_ratio():
    assert wl.flops_comm_ratio(3) == 1.0
    assert abs(wl.flops_comm_ratio(256_000) - 85333.333333) < 1e-5
    for n in (1, 10, 4096):
        assert wl.flops_comm_ratio(2 * n) == 2 * wl.flops_comm_ratio(n)


# --- traces ------------------------------------------------------------------

# First outputs of the mixing PRNG, frozen from an independent
# step-by-step evaluation of the published constants.
SPLITMIX_SEED0 = [16294208416658607535, 7960286522194355700, 487617019471545679]


def test_splitmix_reference_vectors():
    rng = wl.SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX_SEED0


def test_poisson_trace_matches_inline_reimplementation():
    seed, rate = 42, 2.0
    trace = wl.poisson_trace(5, rate, 0.5, seed=seed)

    state, mask = seed, (1 << 64) - 1
    arrivals, now = [], 0.0
    for _ in range(5):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        u = ((z ^ (z >> 31)) >> 11) * 2.0**-53
        now += -math.log(1.0 - u) / rate
        arrivals.append(now)
    assert [e.arrival_s for e in trace.entries] == arrivals


def test_poisson_trace_is_deterministic_and_sorted():
    a = wl.poisson_trace(50, 3.0, 0.2, seed=9)
    b = wl.poisson_trace(50, 3.0, 0.2, seed=9)
    assert a == b
    arrivals = [e.arrival_s for e in a.entries]
    assert arrivals == sorted(arrivals)
    assert wl.poisson_trace(50, 3.0, 0.2, seed=10) != a


def test_fixed_interval_trace():
    trace = wl.fixed_interval_trace(4, 10.0, 1.0)
    assert [e.arrival_s for e in trace.entries] == [0.0, 10.0, 20.0, 30.0]


def test_trace_validation():
    with pytest.raises(wl.GraphError, match="sorted"):
        wl.InvocationTrace(entries=(wl.Invocation(5, 1, 0.1), wl.Invocation(1, 1, 0.1)))
    with pytest.raises(wl.GraphError, match="positive"):
        wl.InvocationTrace(entries=(wl.Invocation(0, 0, 0.1),))


@pytest.mark.parametrize("name", ["arrivals", "durations", "memory", "metadata", "entries"])
def test_trace_columns_cannot_be_replaced(name):
    trace = wl.poisson_trace(5, 1.0, 0.5, seed=1)
    with pytest.raises(AttributeError):
        setattr(trace, name, ())
    assert trace == wl.InvocationTrace(trace.entries)
    assert trace.entries == tuple(map(wl.Invocation, trace.arrivals, trace.durations, trace.memory))


def test_trace_json_round_trip(tmp_path):
    trace = wl.poisson_trace(10, 1.0, 0.5, seed=3)
    path = tmp_path / "trace.json"
    path.write_text(jsontext.dumps(trace.to_json_list()), encoding="utf-8")
    again = wl.load_trace(path)
    assert again.entries == trace.entries


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uniform_in_unit_interval(seed):
    value = wl.SplitMix64(seed).uniform()
    assert 0.0 <= value < 1.0
