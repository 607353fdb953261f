"""Workload generators: DAG structure, profiles, traces."""

import io
import json
import math
import tracemalloc
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faasim import jsonchunks, jsontext
from faasim import workloads as wl
from faasim.commpatterns import CommScenario, Deployment, gen_paramserver, remote_traffic_bytes
from faasim.placement import singleton_placement
from documents import dumps, graph_from_doc
from trace_reference import SplitMix64, fixed_interval_trace, poisson_trace, trace_of

# Task totals for small tile counts, worked out by hand: step k of a
# T-tile factorization runs 1 diagonal task, T-k-1 solves and
# (T-k-1)(T-k)/2 updates, which telescopes to binomial(T+2, 3).
HAND_COUNTED_TASKS = {1: 1, 2: 4, 3: 10, 4: 20, 5: 35, 6: 56}


def graph_of(tasks, edges=(), metadata=None) -> wl.TaskGraph:
    """A graph from (id, duration_s, memory_gb) tasks and (src, dst, bytes) edges naming tasks by id."""
    ids = [task[0] for task in tasks]
    position = {tid: i for i, tid in enumerate(ids)}
    return wl.TaskGraph(ids, [task[1] for task in tasks], [task[2] for task in tasks], ["task"] * len(ids),
                        [position[src] for src, _, _ in edges], [position[dst] for _, dst, _ in edges],
                        [nbytes for _, _, nbytes in edges], metadata)


def named_edges(graph: wl.TaskGraph) -> list[tuple[str, str, int]]:
    """(src id, dst id, bytes) per edge, in edge order."""
    ids = graph.ids
    return [(ids[src], ids[dst], nbytes) for src, dst, nbytes in zip(graph.src, graph.dst, graph.edge_bytes)]


def oracle_levels(graph: wl.TaskGraph) -> dict[str, int]:
    """Longest-path levelization by memoized recursion over predecessors."""
    preds: dict[str, list[str]] = {tid: [] for tid in graph.ids}
    for src, dst, _ in named_edges(graph):
        preds[dst].append(src)

    @lru_cache(maxsize=None)
    def depth(tid: str) -> int:
        if not preds[tid]:
            return 0
        return 1 + max(depth(p) for p in preds[tid])

    return {tid: depth(tid) for tid in graph.ids}


# --- shuffle DAGs ------------------------------------------------------------


def test_shuffle_dag_small():
    graph = wl.gen_shuffle_dag(2, 3, 10**6)
    assert graph.task_count == 5
    assert graph.edge_count == 6
    assert set(graph.kinds) == {"map", "reduce"}


def test_shuffle_dag_trivial():
    graph = wl.gen_shuffle_dag(1, 1, 42)
    assert graph.task_count == 2
    assert graph.edge_count == 1


def test_shuffle_dag_large_is_refused():
    """The 100 TB case's 1.1e9 edges are past the generator limit, as every oversized generator output is."""
    with pytest.raises(ValueError, match=f"^{33_334**2} shuffle edges exceed the generator limit"):
        wl.gen_shuffle_dag(33_334, 33_334, 89_964)


def shuffle_edge_count(m: int) -> int:
    """An m x m shuffle's edges: the built graph's within the generator limit, the CLI's closed form past it."""
    if m * m <= wl.MATERIALIZE_EDGE_LIMIT:
        return wl.gen_shuffle_dag(m, m, 1).edge_count
    from faasim import cli

    out = io.StringIO()
    argv = ["workload", "gen", "--kind", "shuffle", "--mappers", str(m), "--reducers", str(m)]
    assert cli.main(argv, out=out, err=io.StringIO()) == 0
    return json.loads(out.getvalue())["result"]["edge_count"]


def test_shuffle_dag_edges_match_planner_transfers():
    from faasim import shuffleplan as shp

    for m in (1, 4, 33_334):
        assert shuffle_edge_count(m) == shp.plan(shp.ShuffleProblem(m * 10**9, 10**9)).transfers


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
    assert sorted(graph.ids) == ["f0", "f1", "s0.1", "u0.1.1"]
    edges = sorted((src, dst) for src, dst, _ in named_edges(graph))
    assert edges == [("f0", "s0.1"), ("s0.1", "u0.1.1"), ("u0.1.1", "f1")]


def test_cholesky_kind_split():
    tiles = 5
    graph = wl.gen_cholesky_dag(tiles)
    by_kind = {}
    for kind in graph.kinds:
        by_kind[kind] = by_kind.get(kind, 0) + 1
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
    assert all(nbytes % tile == 0 for nbytes in profile.working_set_bytes)
    assert profile.working_set_bytes[0] == 0
    assert profile.peak_working_set_bytes > 0


# --- profiles ----------------------------------------------------------------


def test_profile_shuffle_by_hand():
    profile = wl.parallelism_profile(wl.gen_shuffle_dag(2, 3, 7))
    assert profile.widths == (2, 3)
    assert profile.working_set_bytes == (0, 6 * 7)
    assert [*profile.levels] == [{"level": 0, "ready_task_count": 2, "working_set_bytes": 0},
                                 {"level": 1, "ready_task_count": 3, "working_set_bytes": 42}]


def test_profile_single_task():
    graph = graph_of([("only", 1.0, 0.1)])
    assert wl.parallelism_profile(graph).widths == (1,)


def test_cholesky_task_count_closed_form():
    graphs = list(map(wl.gen_cholesky_dag, range(1, 41)))
    assert [wl.cholesky_task_count(b) for b in range(1, 41)] == [graph.task_count for graph in graphs]
    assert [wl.cholesky_edge_count(b) for b in range(1, 41)] == [graph.edge_count for graph in graphs]


def reference_cholesky(blocks, block_dim):
    """The Cholesky generator on string ids, mapped to positions at the end: the oracle for the positional one."""
    tasks, edges = [], []
    for k in range(blocks):
        tasks.append((f"f{k}", 1.0, "factorize"))
        for i in range(k + 1, blocks):
            tasks.append((f"s{k}.{i}", 1.0, "triangular-solve"))
            edges.append((f"f{k}", f"s{k}.{i}"))
        for i in range(k + 1, blocks):
            for j in range(i, blocks):
                update = f"u{k}.{i}.{j}"
                tasks.append((update, 1.0, "trailing-update"))
                edges.append((f"s{k}.{i}", update))
                if j != i:
                    edges.append((f"s{k}.{j}", update))
                if i == k + 1 and j == k + 1:
                    edges.append((update, f"f{k + 1}"))
                elif i == k + 1:
                    edges.append((update, f"s{k + 1}.{j}"))
                else:
                    edges.append((update, f"u{k + 1}.{i}.{j}"))
    ids = [tid for tid, _, _ in tasks]
    position = {tid: i for i, tid in enumerate(ids)}
    return wl.TaskGraph(ids, [d for _, d, _ in tasks], [0.125] * len(ids), [kind for _, _, kind in tasks],
                        [position[a] for a, _ in edges], [position[b] for _, b in edges],
                        [block_dim * block_dim * 8] * len(edges),
                        {"generator": "cholesky", "blocks": blocks, "block_dim": block_dim})


@pytest.mark.parametrize("block_dim", [1, 256])
def test_cholesky_positions_match_string_id_reference(block_dim):
    for blocks in range(1, 13):
        graph, expected = wl.gen_cholesky_dag(blocks, block_dim), reference_cholesky(blocks, block_dim)
        for name in wl.TaskGraph._FIELDS + ("levels", "metadata"):
            assert getattr(graph, name) == getattr(expected, name), (blocks, name)


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
        graph_of([("a", 1, 0), ("b", 1, 0)], [("a", "b", 0), ("b", "a", 0)])


def test_graph_validation():
    doc = {"tasks": [{"id": "a", "duration_s": 1}], "edges": [{"src": "a", "dst": "zzz", "bytes": 1}]}
    with pytest.raises(wl.GraphError, match="unknown task"):
        graph_from_doc(doc)
    with pytest.raises(wl.GraphError, match="duration"):
        graph_of([("a", 0, 0)])
    with pytest.raises(wl.GraphError, match="negative bytes"):
        graph_of([("a", 1, 0), ("b", 1, 0)], [("a", "b", -1)])
    with pytest.raises(wl.GraphError, match="duplicate"):
        graph_of([("a", 1, 0), ("a", 1, 0)])
    with pytest.raises(wl.GraphError, match="'a' has negative memory"):
        graph_of([("a", 1, -0.5)])
    with pytest.raises(wl.GraphError, match="'b' has negative memory"):  # the first bad task, by its first fault
        graph_of([("a", 1, 0), ("b", 1, -1), ("c", float("nan"), 0), ("d", 0, 0)])
    for src, dst in ((0, 2), (-1, 0)):
        with pytest.raises(wl.GraphError, match="positions"):
            wl.TaskGraph(["a", "b"], [1, 1], [0, 0], ["task"] * 2, [src], [dst], [1])


@pytest.mark.parametrize("field,value", [
    ("duration_s", float("nan")), ("duration_s", float("inf")),
    ("memory_gb", float("nan")), ("memory_gb", float("-inf")),
])
def test_non_finite_task_rejected(field, value):
    doc = json.loads(dumps(wl.gen_cholesky_dag(2).to_json_dict()))
    doc["tasks"][1][field] = value
    with pytest.raises(wl.GraphError, match="non-finite"):
        graph_from_doc(doc)


@pytest.mark.parametrize("nbytes", [1e400, float("nan"), "many", 1.9, True, "12"])
def test_non_finite_or_non_integer_edge_bytes_rejected(nbytes):
    doc = json.loads(dumps(wl.gen_cholesky_dag(2).to_json_dict()))
    doc["edges"][0]["bytes"] = nbytes
    with pytest.raises(wl.GraphError,
                       match="^malformed task graph document: edge 0: edge bytes must be integers, not "):
        graph_from_doc(doc)
    with pytest.raises(wl.GraphError):
        graph_of([("a", 1, 0), ("b", 1, 0)], [("a", "b", nbytes)])


def test_integral_float_edge_bytes_read_as_integers():
    # JSON Schema's `integer` admits 5.0.
    doc = json.loads(dumps(wl.gen_cholesky_dag(2).to_json_dict()))
    doc["edges"][0]["bytes"] = 5.0
    graph = graph_from_doc(doc)
    assert graph.edge_bytes[0] == 5 and type(graph.edge_bytes[0]) is int


def test_malformed_metadata_rejected(tmp_path):
    # The schema's metadata is an object; a list of pairs is not read as one.
    doc = json.loads(dumps(wl.gen_cholesky_dag(2).to_json_dict()))
    path = tmp_path / "graph.json"
    for doc["metadata"] in (5, [["k", 1]], "k", None):
        path.write_text(json.dumps(doc), encoding="utf-8")
        for read in (lambda: graph_from_doc(doc), lambda: wl.load_task_graph(path)):
            with pytest.raises(wl.GraphError, match="^malformed task graph document: metadata must be an object$"):
                read()


def test_columns_round_trip_through_the_constructor():
    graph = wl.gen_cholesky_dag(4)
    again = wl.TaskGraph(*(getattr(graph, name) for name in wl.TaskGraph._FIELDS), graph.metadata)
    assert again == graph
    assert again.levels == graph.levels
    assert graph_from_doc(json.loads(dumps(graph.to_json_dict()))) == graph
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
    widths = [sum(1 for tid in graph.ids if level[tid] == lvl) for lvl in range(depth)]
    working = [0] * depth
    for src, dst, nbytes in named_edges(graph):
        for lvl in range(level[src] + 1, level[dst] + 1):
            working[lvl] += nbytes
    return list(zip(widths, working))


@st.composite
def random_dags(draw):
    """Random DAG: edges only from a lower to a higher task number, ids shuffled."""
    n = draw(st.integers(1, 12))
    names = draw(st.permutations([f"t{i}" for i in range(n)]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    nbytes = draw(st.lists(st.integers(0, 10**6), min_size=len(chosen), max_size=len(chosen)))
    return graph_of([(name, 1.0, 0.0) for name in names],
                    [(names[i], names[j], b) for (i, j), b in zip(chosen, nbytes)])


@given(random_dags())
def test_profile_matches_per_level_loop(graph):
    profile = wl.parallelism_profile(graph)
    assert [*zip(profile.widths, profile.working_set_bytes)] == naive_profile(graph)


@pytest.mark.parametrize("length", [2, 50, 300])
def test_profile_of_chain_with_skip_edges(length):
    tasks = [(f"c{i}", 1.0, 0.0) for i in range(length)]
    edges = [(f"c{i}", f"c{i + 1}", i + 1) for i in range(length - 1)]
    edges.append(("c0", f"c{length - 1}", 7))  # crosses every level
    graph = graph_of(tasks, edges)
    profile = wl.parallelism_profile(graph)
    assert profile.widths == (1,) * length
    assert [*zip(profile.widths, profile.working_set_bytes)] == naive_profile(graph)


def test_graph_json_round_trip(tmp_path):
    graph = wl.gen_cholesky_dag(3)
    path = tmp_path / "graph.json"
    path.write_text(dumps(graph.to_json_dict()), encoding="utf-8")
    assert wl.load_task_graph(path) == graph


def test_generators_deterministic():
    assert wl.gen_cholesky_dag(5) == wl.gen_cholesky_dag(5)
    assert wl.gen_shuffle_dag(3, 4, 9) == wl.gen_shuffle_dag(3, 4, 9)
    assert gen_paramserver(4, 2, 100) == gen_paramserver(4, 2, 100)


# --- parameter server --------------------------------------------------------


def test_paramserver_structure():
    scenarios = gen_paramserver(10, 2, 4_000_000)
    assert len(scenarios) == 4
    assert [s.pattern for s in scenarios] == ["aggregation", "broadcast", "aggregation", "broadcast"]
    assert all(s.payload_bytes == 4_000_000 for s in scenarios)
    assert all(s.deployment.parties == 10 for s in scenarios)


def test_paramserver_degenerate():
    scenarios = gen_paramserver(1, 1, 8)
    assert len(scenarios) == 2
    assert all(s.deployment.n_instances * s.deployment.functions_per_instance == 1 for s in scenarios)


def test_paramserver_grouped_traffic_ratio():
    # The generator's rounds run one worker per function: K times the traffic of grouping all K on one VM.
    fine = gen_paramserver(10, 1, 4_000_000)
    grouped = CommScenario("broadcast", Deployment(1, 10, "vm-grouped"), 4_000_000)
    ratio = remote_traffic_bytes(fine[1]) / remote_traffic_bytes(grouped)
    assert ratio == 10


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
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX_SEED0
    assert [*wl.uniform_chunks(0, 3)] == [[(value >> 11) * 2.0**-53 for value in SPLITMIX_SEED0]]


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2047, 2048, 2049, 4097])
def test_uniform_chunks_are_the_oracle_draws_a_chunk_at_a_time(seed, count):
    rng = SplitMix64(seed)
    chunks = [*wl.uniform_chunks(seed, count)]
    size = jsontext._CHUNK_ROWS
    assert [*map(len, chunks)] == [min(size, count - at) for at in range(0, count, size)]
    assert [*chain.from_iterable(chunks)] == [rng.uniform() for _ in range(count)]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(-2**70, 2**70), count=st.integers(0, 5000))
@example(seed=-2**70, count=2049)  # states below zero before they are taken mod 2**64
@example(seed=2**70, count=5000)
def test_uniform_chunks_equal_the_oracle_for_any_seed_and_count(seed, count):
    rng = SplitMix64(seed)
    chunks = [*wl.uniform_chunks(seed, count)]
    assert [*map(len, chunks)] == [*map(len, jsontext.chunk_rows(count))]
    assert [*chain.from_iterable(chunks)] == [rng.uniform() for _ in range(count)]


def test_lanes_are_128_bit_little_endian_and_read_by_their_low_64_bits():
    """Lane i is bits 128i to 128i + 127 of one int, on any host: `_low_words` reads lane values that have junk above
    bit 64 in lane order, and `_lanes` puts 1, (i + 1) * gamma and the 64-bit mask in each lane i of a chunk."""
    values, junk = [0, 1, 2**53 - 1, 2**64 - 1], [2**64 - 1, 1, 2**63, 0x0123456789ABCDEF]
    lanes = sum((value | above << 64) << 128 * i for i, (value, above) in enumerate(zip(values, junk)))
    assert wl._low_words(lanes, 4) == tuple(values)
    assert wl._low_words(lanes, 2) == tuple(values[:2])
    rows = range(jsontext._CHUNK_ROWS)
    assert wl._lanes() == (sum(1 << 128 * i for i in rows),
                           sum((i + 1) * 0x9E3779B97F4A7C15 << 128 * i for i in rows),
                           sum((2**64 - 1) << 128 * i for i in rows))


def test_poisson_trace_matches_inline_reimplementation():
    seed, rate = 42, 2.0
    trace = poisson_trace(5, rate, 0.5, seed=seed)

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
    assert list(trace.arrivals) == arrivals


def test_poisson_trace_is_deterministic_and_sorted():
    a = poisson_trace(50, 3.0, 0.2, seed=9)
    b = poisson_trace(50, 3.0, 0.2, seed=9)
    assert a == b
    assert list(a.arrivals) == sorted(a.arrivals)
    assert poisson_trace(50, 3.0, 0.2, seed=10) != a


def test_fixed_interval_trace():
    trace = fixed_interval_trace(4, 10.0, 1.0)
    assert tuple(trace.arrivals) == (0.0, 10.0, 20.0, 30.0)


class Discard:
    """A text stream that keeps nothing of what is written to it."""

    def write(self, text):
        pass

    def writelines(self, texts):
        for _ in texts:
            pass


# A generated trace is made a chunk at a time as it is written, so writing it peaks at a chunk's worth, whatever
# the count. On Python 3.11.7 the two counts below peaked within 12 KiB of each other (the larger count's arrivals
# print longer); a list of the arrivals alone holds about 3 MiB per 10**5 entries.
@pytest.mark.parametrize("generate", [lambda count: wl.poisson_trace(count, 50.0, 0.25, seed=5),
                                      lambda count: wl.fixed_interval_trace(count, 0.02, 0.25)],
                         ids=["poisson", "fixed"])
def test_writing_a_generated_trace_peaks_at_a_chunk_whatever_the_count(generate):
    jsontext.write(Discard(), generate(10)[0])  # first use allocates nothing that is counted below
    peaks = []
    for count in (20_000, 200_000):
        tracemalloc.start()
        try:
            jsontext.write(Discard(), generate(count)[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks


def test_trace_validation():
    with pytest.raises(wl.GraphError, match="sorted"):
        trace_of([(5, 1, 0.1), (1, 1, 0.1)])
    with pytest.raises(wl.GraphError, match="positive"):
        trace_of([(0, 0, 0.1)])


@pytest.mark.parametrize("doc,message", [
    ([{"arrival_s": 5, "duration_s": 1}, {"arrival_s": 1, "duration_s": 1}],
     r"^trace arrivals must be sorted non-decreasing: entry 1 arrives at 1\.0, before entry 0 at 5\.0$"),
    ([{"arrival_s": 0, "duration_s": 0}],
     r"^malformed trace document: entry 0: duration_s must be positive, not 0\.0$"),
    ([{"arrival_s": 0, "duration_s": 1, "memory_gb": float("nan")}],
     "^malformed trace document: entry 0: memory_gb must be a finite number, not nan$"),
    ([{"arrival_s": 0, "duration_s": 1}, {"arrival_s": 0, "duration_s": "x"}],
     "^malformed trace document: entry 1: could not convert string to float: 'x'$"),
    ([{"arrival_s": 0, "duration_s": 1, "memory_gb": None}],
     r"^malformed trace document: entry 0: float\(\) argument must be a string or a real number, not 'NoneType'$"),
    ([{"arrival_s": 10**400, "duration_s": 1}],
     r"^malformed trace document: entry 0: int too large to convert to float$"),
    ([{"duration_s": 1}], "^malformed trace document: entry 0: 'arrival_s'$"),
    ([[0, 1]], "^malformed trace document: entry 0: list indices must be integers or slices, not str$"),
    ([{"arrival_s": i, "duration_s": 1} for i in (0, 1, 1, 2.5, 2, 3, 0)],
     r"^trace arrivals must be sorted non-decreasing: entry 4 arrives at 2\.0, before entry 3 at 2\.5$"),
])
def test_trace_document_errors_keep_their_messages(tmp_path, doc, message):
    # Every error but an unsorted trace's is a malformed document naming its entry; an unsorted trace names
    # the two entries out of order. The file reader gives the same errors.
    with pytest.raises(wl.GraphError, match=message):
        wl.InvocationTrace.from_json(doc)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(wl.GraphError, match=message):
        wl.load_trace(path)


def test_trace_document_columns_are_floats():
    trace = wl.InvocationTrace.from_json([{"arrival_s": 0, "duration_s": "1.5"}, {"arrival_s": 1, "duration_s": 2,
                                                                                  "memory_gb": 1}])
    assert trace.entries == ((0.0, 1.5, 0.125), (1.0, 2.0, 1.0))
    assert {type(value) for value in chain.from_iterable(trace.entries)} == {float}
    # JSON's true and false are not numbers: `float` would read them as 1.0 and 0.0.
    for field in ("arrival_s", "duration_s", "memory_gb"):
        with pytest.raises(wl.GraphError,
                           match=f"^malformed trace document: entry 0: {field} must be a number, not a boolean$"):
            wl.InvocationTrace.from_json([{"arrival_s": 0, "duration_s": 1, field: True}])


@pytest.mark.parametrize("name", ["arrivals", "keys", "codes", "durations", "memory", "metadata", "entries"])
def test_trace_columns_cannot_be_replaced(name):
    """No column or view can be replaced, and no attribute added: a trace has no row views or metadata to set."""
    trace = poisson_trace(5, 1.0, 0.5, seed=1)
    with pytest.raises(AttributeError):
        setattr(trace, name, ())
    assert trace == trace_of(trace.entries)
    assert trace.entries == tuple(wl.Invocation(arrival, *trace.keys[code])
                                  for arrival, code in zip(trace.arrivals, trace.codes))


ENTRIES = '{"arrival_s": 0, "duration_s": 1}, {"arrival_s": 1, "duration_s": 2, "memory_gb": 0.5}'


@pytest.mark.parametrize("text,fault", [
    pytest.param('[%s, {"arrival_s": NaN, "duration_s": 1}]' % ENTRIES,
                 "entry 2: arrival_s must be a finite number, not nan", id="nan-arrival"),
    pytest.param('[%s, {"arrival_s": 2, "duration_s": Infinity}]' % ENTRIES,
                 "entry 2: duration_s must be a finite number, not inf", id="infinite-duration"),
    pytest.param('[%s, {"arrival_s": 2, "duration_s": 1, "memory_gb": -1e999}]' % ENTRIES,
                 "entry 2: memory_gb must be a finite number, not -inf", id="memory-past-a-double"),
    pytest.param('[%s, {"arrival_s": 2, "duration_s": 1e999, "memory_gb": NaN}]' % ENTRIES,
                 "entry 2: duration_s must be a finite number, not inf", id="the-first-field-of-an-entry"),
    # Finite, then sorted, then positive: an entry that fails an earlier check is named first.
    pytest.param('[{"arrival_s": 1, "duration_s": 0}, {"arrival_s": 0, "duration_s": 1, "memory_gb": NaN}]',
                 "entry 1: memory_gb must be a finite number, not nan", id="finite-before-sorted-and-positive"),
    pytest.param('[%s, {"arrival_s": 2, "duration_s": 2, "memory_gb": 0.5}, {"arrival_s": 3, "duration_s": 0}, '
                 '{"arrival_s": 4, "duration_s": -0.5}]' % ENTRIES, "entry 3: duration_s must be positive, not 0.0",
                 id="zero-duration"),
    pytest.param('[{"arrival_s": 0, "duration_s": 2}, {"arrival_s": 1, "duration_s": -0.5}, '
                 '{"arrival_s": 2, "duration_s": 0}]', "entry 1: duration_s must be positive, not -0.5",
                 id="negative-duration"),
])
def test_a_faulty_value_names_its_first_entry(tmp_path, text, fault):
    """The checks run once per key on the good path; only a refusal looks for the first entry at fault."""
    path = tmp_path / "trace.json"
    path.write_text(text, encoding="utf-8")
    for read in (lambda: wl.load_trace(path), lambda: wl.InvocationTrace.from_json(json.loads(text))):
        with pytest.raises(wl.GraphError) as refusal:
            read()
        assert str(refusal.value) == "malformed trace document: " + fault


def test_trace_json_round_trip(tmp_path):
    trace = poisson_trace(10, 1.0, 0.5, seed=3)
    path = tmp_path / "trace.json"
    path.write_text(dumps([entry._asdict() for entry in trace.entries]), encoding="utf-8")
    again = wl.load_trace(path)
    assert again.entries == trace.entries


def peak_of(load, path):
    """What `load(path)` returns, or the GraphError it raises, and the peak of memory it traced."""
    tracemalloc.start()
    try:
        try:
            found = load(path)
        except wl.GraphError as exc:
            found = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return found, peak


def bad_twin(path, last, fault):
    """A copy of the file at `path` with the last `last` in its text replaced by `fault`."""
    text = path.read_text(encoding="utf-8")
    at = text.rindex(last)
    twin = path.with_name("bad-" + path.name)
    twin.write_text(text[:at] + fault + text[at + len(last):], encoding="utf-8")
    return twin


# The loaders read a file once, a chunk at a time, so a load holds the columns it builds and one run of parsed
# items, never the file's text: each load peaks below the file's size, and so does refusing a file whose last
# item is bad. A trace is packed, 8 bytes an arrival and a code per entry: on Python 3.11.7 the trace below
# peaked at 48% of its file, about 320 KB of it the run of parsed entries. With an arrival float, three column
# lists and the three tuples the constructor made, it came to 95% on Python 3.10-3.13. The graph peaks at 78%;
# reading the whole text first came to twice the file, as did parsing a bad file again whole to name its fault.
def test_load_trace_peak_is_below_the_file_size(tmp_path):
    count = 20_000
    path = tmp_path / "trace.json"
    with path.open("w", encoding="utf-8") as out:
        jsontext.write(out, wl.fixed_interval_trace(count, 0.5, 0.25)[0])
    wl.load_trace(path)  # first use allocates nothing that is counted below
    trace, peak = peak_of(wl.load_trace, path)
    assert peak < 0.6 * path.stat().st_size
    assert len(trace) == count
    assert trace.keys == ((0.25, 0.125),) and len({*map(id, trace.codes)}) == 1
    assert len({(id(entry.duration_s), id(entry.memory_gb)) for entry in trace.entries}) == 1
    bad = bad_twin(path, '"duration_s": 0.25', '"duration_s": [1]')
    refusal, peak = peak_of(wl.load_trace, bad)
    assert str(refusal) == (f"malformed trace document: entry {count - 1}: "
                            "float() argument must be a string or a real number, not 'list'")
    assert peak < 0.6 * bad.stat().st_size


# Bytes `singleton_placement` may allocate per edge: each source's bucket of `dst` ints (`out_edges`) came to 17
# on Python 3.11.7, a sorted list of one pair int per edge to 41, and a set of the pairs to 84 for this graph
# (110 for 160,000 edges).
SINGLETON_BYTES_PER_EDGE = 30


def test_load_task_graph_peak_is_below_the_file_size_and_singleton_counting_a_list(tmp_path):
    path = tmp_path / "graph.json"
    with path.open("w", encoding="utf-8") as out:
        jsontext.write(out, wl.gen_shuffle_dag(200, 200, 1 << 20).to_json_dict())
    wl.load_task_graph(path)  # first use allocates nothing that is counted below
    tracemalloc.start()
    try:
        graph = wl.load_task_graph(path)
        held, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cost = singleton_placement(graph)
        _, singleton_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (graph.task_count, graph.edge_count, cost.remote_message_count) == (400, 40_000, 40_000)
    assert load_peak < path.stat().st_size
    assert len({*map(id, graph.edge_bytes)}) == 1  # one int object for every edge's bytes, as generated
    assert singleton_peak - held < SINGLETON_BYTES_PER_EDGE * graph.edge_count
    bad = bad_twin(path, f'"bytes": {1 << 20}', '"bytes": 1.5')
    refusal, bad_peak = peak_of(wl.load_task_graph, bad)
    assert str(refusal) == "malformed task graph document: edge 39999: edge bytes must be integers, not 1.5"
    assert bad_peak < bad.stat().st_size


class CountingFile:
    """A file that counts the bytes it hands out (`read_chars`) and the characters its reader, a `Chunks`, copies
    as it joins each read to the text it holds (`copied`)."""

    def __init__(self, file):
        self.file, self.read_chars, self.copied, self.reader = file, 0, 0, None

    def read(self, size=-1):
        data = self.file.read(size)
        if data:  # joining an empty read copies nothing
            self.read_chars += len(data)
            self.copied += len(self.reader.text) + len(data)
        return data


def read_counted(monkeypatch, load, path):
    """What `load(path)` returns, or the error it raises, and the `CountingFile` its reader read."""
    counted = []

    def counting_reader(file, chunk):
        counted.append(CountingFile(file))
        counted[0].reader = jsonchunks.Chunks(counted[0], chunk)
        return counted[0].reader

    monkeypatch.setattr(wl, "Chunks", counting_reader)
    try:
        found = load(path)
    except ValueError as exc:
        found = exc
    return found, counted[0]


LONG = 4 * 10**6  # characters with no item to cut


@pytest.mark.parametrize("text,load,fault", [
    pytest.param(json.dumps([{"arrival_s": 0, "duration_s": 1, "note": "x" * LONG}]), wl.load_trace, None,
                 id="long-string"),
    pytest.param('{"tasks": [%s], "edges": [], "metadata": {}}' % ", ".join(["0"] * (LONG // 3)),
                 wl.load_task_graph, wl.GraphError, id="tasks-not-objects"),
])
def test_a_long_stretch_with_no_cut_is_read_in_linear_time(tmp_path, monkeypatch, text, load, fault):
    """Fixed-size reads would copy what is held once per read: about 30 times this document, growing with its
    square. Each read asks for as much again as is held, so the copies stay within a few times the document."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    found, counted = read_counted(monkeypatch, load, path)
    assert counted.read_chars == len(text)
    assert counted.copied < 4 * len(text)
    if fault is None:
        assert len(found) == 1
    else:
        assert isinstance(found, fault)


GOOD_TRACE = json.dumps([{"arrival_s": i, "duration_s": 1} for i in range(20_000)])
EDGES_FIRST = json.dumps({"edges": [{"src": "m0", "dst": f"r{j}", "bytes": 8} for j in range(5_000)],
                          "tasks": [{"id": "m0", "duration_s": 1}, *({"id": f"r{j}", "duration_s": 1}
                                                                     for j in range(5_000))], "metadata": {}})


@pytest.mark.parametrize("text,load,outcome", [
    pytest.param(GOOD_TRACE, wl.load_trace, 20_000, id="good-trace"),
    pytest.param(GOOD_TRACE[:-3] + "true}]", wl.load_trace,
                 "malformed trace document: entry 19999: duration_s must be a number, not a boolean",
                 id="bad-last-entry"),
    pytest.param(GOOD_TRACE[:-3] + "1 x}]", wl.load_trace,
                 f"Expecting ',' delimiter: line 1 column {len(GOOD_TRACE)} (char {len(GOOD_TRACE) - 1})",
                 id="decode-error-near-the-end"),
    pytest.param(EDGES_FIRST, wl.load_task_graph, 5_001, id="edges-before-tasks"),
])
def test_each_file_is_read_once_and_refusing_it_is_linear(tmp_path, monkeypatch, text, load, outcome):
    """Read once, with no parse of the whole file again, whether the file is taken or refused: the copies stay
    within a few times the file, each run being dropped once it is added."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")

    def whole(*args, **kwargs):
        raise AssertionError("the whole file was parsed")

    monkeypatch.setattr(json, "loads", whole)
    monkeypatch.setattr(json, "load", whole)
    found, counted = read_counted(monkeypatch, load, path)
    assert counted.read_chars == len(text)
    assert counted.copied < 3 * len(text)
    if isinstance(found, ValueError):
        assert str(found) == outcome
    else:
        assert (len(found) if load is wl.load_trace else found.task_count) == outcome


def test_bytes_that_are_not_utf8_are_placed_in_the_file(tmp_path):
    """The offset and the message are those of decoding the whole file, past the first chunk and in it."""
    data = GOOD_TRACE.encode("utf-8")
    for at in (3, jsonchunks.CHUNK + 1000, len(data) - 3):
        path = tmp_path / "trace.json"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text(encoding="utf-8")
        with pytest.raises(UnicodeDecodeError) as read:
            wl.load_trace(path)
        assert (read.value.start, read.value.end, str(read.value)) == (at, at + 1, str(whole.value))
    path.write_bytes(data[:-2] + "\u20ac".encode("utf-8")[:2])  # a character cut short by the end of the file
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    with pytest.raises(UnicodeDecodeError) as read:
        wl.load_trace(path)
    assert str(read.value) == str(whole.value)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uniform_in_unit_interval(seed):
    [[value]] = wl.uniform_chunks(seed, 1)
    assert 0.0 <= value < 1.0


# Generating or loading a graph holds its column lists and the one tuple being made from them, then the levels
# pass's flat successor list. On Python 3.11.7 the peak came to 1.57 times the graph it returns for Cholesky 32,
# generated or loaded, and to 1.65 times for the 200x200 shuffle (1.85-2.34 times when the constructor copied
# every list at once and the levels pass kept one successor list per task).
GRAPH_PEAK_FACTOR = 1.8


@pytest.mark.parametrize("make", [lambda: wl.gen_cholesky_dag(32), lambda: wl.gen_shuffle_dag(200, 200, 1 << 20)],
                         ids=["cholesky-32", "shuffle-200x200"])
def test_graph_build_peaks_within_a_factor_of_the_graph(tmp_path, make):
    path = tmp_path / "graph.json"
    with path.open("w", encoding="utf-8") as out:
        jsontext.write(out, make().to_json_dict())
    wl.load_task_graph(path)  # first use allocates nothing that is counted below
    for build in (make, lambda: wl.load_task_graph(path)):
        tracemalloc.start()
        try:
            graph = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.task_count and peak < GRAPH_PEAK_FACTOR * held

