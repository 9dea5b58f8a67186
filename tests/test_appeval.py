import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph
from linkmirage import (Graph, PerturbParams, SybilScenario, TemporalGraphSequence,
                        attack_probability, er_graph, k_hop_graph, linkmirage_run,
                        ring_of_blocks, sampling_report, sybil_eval, union_graph)
from linkmirage.appeval import (_k_hop_edges, _random_routes, _reverse_positions, _slot_order,
                               count_attack_edges)
from test_perturb import time_limit


# -- attack probability ---------------------------------------------------------


def test_attack_probability_formula():
    g1 = Graph([(0, 1)], vertices=[0, 1, 2])
    g2 = Graph([(0, 2)], vertices=[0, 1, 2])
    series = attack_probability([g1, g2], 0, 0.1)
    assert series[0] == pytest.approx(0.1)          # union {1}
    assert series[1] == pytest.approx(0.19)         # union {1, 2}: 1 - 0.9^2


def test_attack_probability_nondecreasing(rng):
    graphs = [random_graph(10, 0.3, rng, ensure_edge=True) for _ in range(5)]
    series = attack_probability(graphs, 0, 0.2)
    assert all(b >= a - 1e-15 for a, b in zip(series, series[1:]))


def test_attack_probability_exact_union_exponent(rng):
    graphs = [random_graph(8, 0.4, rng, ensure_edge=True) for _ in range(4)]
    f = 0.15
    series = attack_probability(graphs, 3, f)
    union = set()
    for t, g in enumerate(graphs):
        union.update(int(w) for w in g.neighbors(3))
        assert series[t] == pytest.approx(1 - (1 - f) ** len(union))


def test_attack_probability_absent_vertex():
    with pytest.raises(KeyError):
        attack_probability([Graph([(0, 1)])], 9, 0.1)


# -- k-hop graph and sampling probability ------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=14),
       st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40))
@example(1, 3, [])
@example(3, 0, [])
@example(2, 5, [(0, 1)])
def test_k_hop_edges_is_the_strict_upper_triangle(k, isolated, pairs):
    # the CSR row filter keeps what sp.triu(..., k=1) keeps of the k-hop reach,
    # rows in place, for k = 1 to 3, with isolated ids and edgeless graphs
    g = Graph([(u, v) for u, v in pairs if u != v], vertices=range(20, 20 + isolated))
    n = g.num_vertices
    adj = g.adjacency(np.ones(2 * g.num_edges, dtype=bool))
    reach = adj
    for _ in range(k - 1):
        reach = reach @ (adj + sp.identity(n, dtype=bool, format="csr"))
    got, want = _k_hop_edges(g, k), sp.triu(reach, k=1, format="csr")
    assert got.format == "csr" and got.shape == (n, n) and got.dtype == want.dtype
    assert got.nnz == want.nnz and (got != want).nnz == 0
    assert np.array_equal(got.toarray(), want.toarray())


def bfs_distances(g, src):
    from collections import deque
    dist = {int(src): 0}
    queue = deque([int(src)])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            w = int(w)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def bfs_k_hop_pairs(g, k):
    """Oracle: the (lo, hi) id pairs at distance 1..k, from one BFS per vertex."""
    pairs = set()
    for v in g.vertices:
        for w, d in bfs_distances(g, v).items():
            if 0 < d <= k and int(v) < w:
                pairs.add((int(v), w))
    return pairs


def test_k_hop_graph_matches_bfs_oracle(rng):
    g = random_graph(12, 0.25, rng, ensure_edge=True)
    for k in (1, 2, 3):
        gk = k_hop_graph(g, k)
        assert gk.edges.tolist() == [list(e) for e in sorted(bfs_k_hop_pairs(g, k))]


@pytest.mark.parametrize("graph", [
    Graph(vertices=[3, 8, 9]),                                  # edgeless
    Graph([(2, 5), (5, 6), (10, 12)], vertices=[0, 7, 20]),     # isolated vertices
    Graph([(0, 1), (1, 2), (2, 3), (3, 4)]),                    # a path of diameter 4
], ids=["edgeless", "isolated-vertices", "path"])
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_k_hop_graph_edge_cases_match_bfs_oracle(graph, k):
    # k = 5 and 9 exceed every diameter here: the k-hop graph is the
    # transitive closure, and further products add nothing
    gk = k_hop_graph(graph, k)
    assert gk.edges.tolist() == [list(e) for e in sorted(bfs_k_hop_pairs(graph, k))]
    assert np.array_equal(gk.vertices, graph.vertices)


def test_k_hop_graph_refuses_k_zero():
    with pytest.raises(ValueError):
        k_hop_graph(Graph([(0, 1)]), 0)


def test_sampling_probability_identity_case(rng):
    g = random_graph(10, 0.4, rng, ensure_edge=True)
    seq = TemporalGraphSequence([g, g])
    assert sampling_report([g, g], seq, 1).probability == pytest.approx(1.0)


def test_sampling_report_envelope_accounting(rng):
    g = random_graph(10, 0.4, rng, ensure_edge=True)
    seq = TemporalGraphSequence([g])
    report = sampling_report([g], seq, 2)
    assert report.outside_envelope == 0
    assert 0 < report.probability <= 1.0


def tuple_set_sampling_report(perturbed, seq, k):
    """Oracle: the report from Python tuple sets of the two unions, the
    k-hop one read off BFS distances."""
    pert = set(map(tuple, union_graph(perturbed).edges.tolist()))
    khop = set().union(*(bfs_k_hop_pairs(g, k) for g in seq.snapshots))
    return (len(pert) / len(khop), len(pert), len(khop), len(pert - khop))


def report_fields(report):
    return (report.probability, report.perturbed_union_edges,
            report.k_hop_union_edges, report.outside_envelope)


# the snapshots' vertex sets grow, shrink and differ from the releases';
# release 1 holds id 40, in no snapshot; snapshot 2 is edgeless
ID_SPACE_CASE = ([Graph([(0, 2)]), Graph([(1, 9), (5, 40)]), Graph([(2, 3)])],
                 TemporalGraphSequence([Graph([(0, 1), (1, 2)]),
                                        Graph([(1, 2), (2, 5), (5, 9)], vertices=[7]),
                                        Graph(vertices=[2, 3])]))


def test_sampling_report_counts_edges_outside_the_envelope():
    # two paths far apart; the release links their ends and drops a path edge
    g0 = Graph([(0, 1), (1, 2), (2, 3), (10, 11), (11, 12)])
    g1 = Graph([(0, 1), (1, 2), (10, 11), (11, 12), (12, 13)])
    seq = TemporalGraphSequence([g0, g1])
    released = [Graph([(0, 1), (0, 12), (3, 10)], vertices=g0.vertices),
                Graph([(0, 2), (1, 13), (10, 12)], vertices=g1.vertices)]
    report = sampling_report(released, seq, 2)
    assert report_fields(report) == tuple_set_sampling_report(released, seq, 2)
    assert report.outside_envelope == 3       # (0, 12), (3, 10), (1, 13)
    assert report.perturbed_union_edges == 6
    # no released edge of ID_SPACE_CASE joins two ids that a snapshot joins
    assert sampling_report(*ID_SPACE_CASE, 1).outside_envelope == 4


def test_sampling_report_matches_tuple_sets_on_a_release():
    rng = np.random.default_rng(17)
    seq = TemporalGraphSequence([random_graph(25, 0.15, rng, ensure_edge=True)
                                 for _ in range(3)])
    released = [linkmirage_run(TemporalGraphSequence([g]), PerturbParams(k=3, seed=t))[0][0]
                for t, g in enumerate(seq.snapshots)]
    for k in (1, 2):
        report = sampling_report(released, seq, k)
        assert report_fields(report) == tuple_set_sampling_report(released, seq, k)
        assert report.outside_envelope > 0


@st.composite
def sampling_sequences(draw):
    """A sequence over ids 0..11 whose vertex sets change from one snapshot
    to the next, one release per snapshot, and k; a snapshot may be
    edgeless and a release may hold id 40, found in no snapshot."""

    def graph(ids):
        ends = st.sampled_from(sorted(ids))
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=14))
        return Graph([(u, v) for u, v in pairs if u != v], vertices=ids)

    length = draw(st.integers(min_value=1, max_value=4))
    vertex_sets = [draw(st.sets(st.integers(0, 11), min_size=1)) for _ in range(length)]
    edgeless = draw(st.integers(min_value=-1, max_value=length - 1))
    stranger = draw(st.integers(min_value=-1, max_value=length - 1))
    snapshots = [Graph(vertices=ids) if t == edgeless else graph(ids)
                 for t, ids in enumerate(vertex_sets)]
    released = [graph(ids | {40} if t == stranger else ids)
                for t, ids in enumerate(vertex_sets)]
    return released, TemporalGraphSequence(snapshots), draw(st.sampled_from([1, 2, 3]))


@settings(max_examples=150, deadline=None)
@given(sampling_sequences())
@example((*ID_SPACE_CASE, 1))
@example((*ID_SPACE_CASE, 2))
@example((*ID_SPACE_CASE, 3))
def test_sampling_report_matches_tuple_sets_property(case):
    released, seq, k = case
    if not any(g.num_edges for g in seq.snapshots):
        with pytest.raises(ValueError):
            sampling_report(released, seq, k)
        return
    assert report_fields(sampling_report(released, seq, k)) == \
        tuple_set_sampling_report(released, seq, k)


def test_sampling_probability_edgeless_errors():
    g = Graph(vertices=[0, 1])
    seq = TemporalGraphSequence([g])
    with pytest.raises(ValueError):
        sampling_report([g], seq, 2)


# -- sybil harness -------------------------------------------------------------------


def make_scenario(rng, walk_length, routes_per_node, honest_n=100):
    honest = er_graph(honest_n, 6.0 / (honest_n - 1), rng)
    return SybilScenario(honest_graph=honest, sybil_size=20, attack_edges=5,
                         walk_length=walk_length, routes_per_node=routes_per_node)


def reference_random_routes(graph, rng, routes_per_node, walk_length):
    """Oracle: route tails as vertex-pair sets, one hop of one route at a time."""
    indptr, indices = graph.csr_adjacency
    n = graph.num_vertices
    ids = graph.vertices
    tails = {int(v): set() for v in ids}

    def slot(y, x):
        row = indices[indptr[y]:indptr[y + 1]]
        return int(np.searchsorted(row, x))

    degrees = np.diff(indptr)
    for _instance in range(routes_per_node):
        # one key per CSR slot; a row's table lists its slots by key
        keys = rng.random(indices.size)
        tables = [np.argsort(keys[indptr[v]:indptr[v + 1]], kind="stable")
                  for v in range(n)]
        firsts = iter(rng.integers(0, degrees[degrees > 0]).tolist())
        for v in range(n):
            if not degrees[v]:
                continue
            prev, cur = v, int(indices[indptr[v] + next(firsts)])
            for _ in range(walk_length - 1):
                out_slot = int(tables[cur][slot(cur, prev)])
                nxt = int(indices[indptr[cur] + out_slot])
                prev, cur = cur, nxt
            a, b = int(ids[prev]), int(ids[cur])
            tails[int(ids[v])].add((min(a, b), max(a, b)))
    return tails


def reference_sybil_fp(scenario, g_prime, rng):
    """Oracle: the false-positive rate from a pairwise loop over tail sets."""
    honest = [int(v) for v in scenario.honest_ids if g_prime.has_vertex(v)]
    tails = reference_random_routes(g_prime, rng, scenario.routes_per_node,
                                    scenario.walk_length)
    rejected = 0
    total = 0
    for verifier in honest:
        for suspect in honest:
            total += 1
            if suspect != verifier and not (tails[verifier] & tails[suspect]):
                rejected += 1
    return rejected / total if total else 0.0


def assert_matches_reference(scenario, g_prime, seed):
    fp = sybil_eval(scenario, g_prime, np.random.default_rng(seed))["false_positive_rate"]
    assert fp == reference_sybil_fp(scenario, g_prime, np.random.default_rng(seed))
    return fp


def test_reverse_positions_swap_the_endpoints():
    g = Graph([(0, 1), (0, 4), (1, 4), (4, 9), (9, 2)], vertices=[7])
    indptr, indices = g.csr_adjacency
    rev = _reverse_positions(indptr, indices)
    rows = np.repeat(np.arange(g.num_vertices), g.degrees)
    assert np.array_equal(rows[rev], indices) and np.array_equal(indices[rev], rows)
    assert np.array_equal(rev[rev], np.arange(indices.size))


def test_sybil_fp_matches_reference_on_ring_of_blocks():
    # the benchmark's analytics scenario: 10 blocks of 50, walk 10, 25 routes
    rng = np.random.default_rng(1)
    honest = ring_of_blocks(10, 50, 0.16, 20, rng)
    scenario = SybilScenario(honest_graph=honest, sybil_size=100, attack_edges=10,
                             walk_length=10, routes_per_node=25)
    combined = scenario.build_combined(rng)
    fp = assert_matches_reference(scenario, combined, [1, 4])
    assert fp == 0.78932


def test_sybil_fp_matches_reference_with_an_isolated_honest_vertex():
    rng = np.random.default_rng(5)
    base = er_graph(40, 0.12, rng)
    honest = Graph(base.edges, vertices=np.append(base.vertices, 40))
    scenario = SybilScenario(honest_graph=honest, sybil_size=10, attack_edges=4,
                             walk_length=5, routes_per_node=6)
    combined = scenario.build_combined(rng)
    assert combined.degrees[combined.index_of(40)] == 0
    assert_matches_reference(scenario, combined, 6)


def test_sybil_fp_matches_reference_when_honest_ids_are_absent():
    rng = np.random.default_rng(8)
    scenario = make_scenario(rng, walk_length=4, routes_per_node=5, honest_n=50)
    combined = scenario.build_combined(rng)
    g_prime = combined.subgraph(np.setdiff1d(combined.vertices, [0, 17, 33]))
    assert not g_prime.has_vertex(17)
    assert_matches_reference(scenario, g_prime, 9)


@pytest.mark.parametrize("walk_length,routes_per_node", [(1, 5), (6, 1), (1, 1)])
def test_sybil_fp_matches_reference_at_the_extremes(walk_length, routes_per_node):
    rng = np.random.default_rng(walk_length * 10 + routes_per_node)
    scenario = make_scenario(rng, walk_length=walk_length,
                             routes_per_node=routes_per_node, honest_n=60)
    combined = scenario.build_combined(rng)
    assert_matches_reference(scenario, combined, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=14),
       st.floats(min_value=0.0, max_value=0.6),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10**6))
def test_sybil_fp_matches_reference_property(n, p, walk_length, routes, seed):
    rng = np.random.default_rng(seed)
    honest = random_graph(n, p, rng)
    scenario = SybilScenario(honest_graph=honest, sybil_size=4, attack_edges=2,
                             walk_length=walk_length, routes_per_node=routes)
    combined = scenario.build_combined(rng)
    assert_matches_reference(scenario, combined, seed + 1)


def test_route_tables_and_start_slots_are_uniform():
    # a star with centre 0 and leaves 1..3: at walk length 2 the route of
    # leaf v enters 0 through slot v - 1 and ends on the edge that 0's table
    # sends that slot to, so the leaves' tails spell out the table; the
    # centre's route ends on its start edge. Edge ids 0..2 are 0's slots.
    star = Graph([(0, 1), (0, 2), (0, 3)])
    instances = 3000
    tails = _random_routes(star, np.random.default_rng(11), instances, 2)
    tables = [tuple(row) for row in tails[:, 1:].tolist()]
    counts = {perm: tables.count(perm) for perm in itertools.permutations(range(3))}
    assert sum(counts.values()) == instances
    starts = np.bincount(tails[:, 0], minlength=3)
    for observed, p in [(c, 1 / 6) for c in counts.values()] + \
                       [(c, 1 / 3) for c in starts.tolist()]:
        mean, sd = instances * p, np.sqrt(instances * p * (1 - p))
        assert abs(observed - mean) <= 5 * sd, (observed, mean)


def test_slot_order_is_the_lexsort_of_rows_and_keys():
    rng = np.random.default_rng(4)
    rows = np.repeat(np.arange(300), rng.integers(0, 6, 300))
    keys = rng.random(rows.size)
    assert np.array_equal(_slot_order(rows, keys), np.lexsort((keys, rows)))
    # equal keys in a row, and keys one ulp apart in a row too large to
    # tell them apart in rows + keys / 2: ties that the argsort cannot order
    for rows, keys in [(np.array([0, 0, 0, 1, 1]), np.array([0.5, 0.25, 0.5, 0.1, 0.1])),
                       (np.array([2**40, 2**40, 2**40]),
                        np.array([0.3, np.nextafter(0.3, 0), 0.1]))]:
        assert np.array_equal(_slot_order(rows, keys), np.lexsort((keys, rows)))


def test_sybil_eval_is_fixed_by_its_seed():
    rng = np.random.default_rng(6)
    scenario = make_scenario(rng, walk_length=5, routes_per_node=8, honest_n=60)
    combined = scenario.build_combined(rng)
    first, second = (sybil_eval(scenario, combined, np.random.default_rng(21))
                     for _ in range(2))
    assert first == second


def test_sybil_eval_memory_stays_linear_in_the_graph():
    # 20k honest vertices: a dense honest x honest bool matrix would be 400 MB
    honest = ring_of_blocks(400, 50, 0.1, 5, np.random.default_rng(2))
    assert honest.num_vertices == 20000
    scenario = SybilScenario(honest_graph=honest, sybil_size=50, attack_edges=5,
                             walk_length=2, routes_per_node=1)
    combined = scenario.build_combined(np.random.default_rng(3))
    tracemalloc.start()
    try:
        result = sybil_eval(scenario, combined, np.random.default_rng(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < result["false_positive_rate"] <= 1.0
    assert peak < 40 * 2**20


def reference_attack_edges(graph, honest_ids):
    honest = set(int(v) for v in honest_ids)
    return sum(1 for u, v in graph.edges.tolist() if (u in honest) != (v in honest))


@pytest.mark.parametrize("sybil_size, attack_edges", [(2, 7), (0, 1)])
def test_sybil_scenario_that_cannot_be_built_is_rejected(sybil_size, attack_edges):
    # 3 honest x 2 Sybil vertices give 6 distinct attack-edge pairs; building 7
    # would never finish
    honest = Graph([(0, 1), (1, 2)])
    with time_limit(10), pytest.raises(ValueError):
        SybilScenario(honest_graph=honest, sybil_size=sybil_size, attack_edges=attack_edges,
                      walk_length=2, routes_per_node=2).build_combined(np.random.default_rng(0))


def test_sybil_scenario_with_every_attack_pair_builds():
    honest = Graph([(0, 1), (1, 2)])
    scenario = SybilScenario(honest_graph=honest, sybil_size=2, attack_edges=6,
                             walk_length=2, routes_per_node=2)
    with time_limit(10):
        combined = scenario.build_combined(np.random.default_rng(0))
    assert count_attack_edges(combined, honest.vertices) == 6


def test_attack_edge_count_matches_per_edge_loop():
    rng = np.random.default_rng(12)
    scenario = make_scenario(rng, walk_length=2, routes_per_node=1, honest_n=40)
    combined = scenario.build_combined(rng)
    (released,), _ = linkmirage_run(TemporalGraphSequence([combined]),
                                    PerturbParams(k=2, seed=1))
    for graph in (combined, released, Graph(vertices=[0, 1])):
        assert count_attack_edges(graph, scenario.honest_ids) == \
            reference_attack_edges(graph, scenario.honest_ids)


def test_attack_edge_count_on_combined(rng):
    scenario = make_scenario(rng, walk_length=4, routes_per_node=4)
    combined = scenario.build_combined(rng)
    assert count_attack_edges(combined, scenario.honest_ids) == 5


def test_self_verification_never_false_positive(rng):
    scenario = make_scenario(rng, walk_length=3, routes_per_node=2, honest_n=12)
    combined = scenario.build_combined(rng)
    result = sybil_eval(scenario, combined, rng)
    assert sorted(result) == ["attack_edges_after", "false_positive_rate"]
    # with a single honest node there are no cross pairs to reject
    single = SybilScenario(honest_graph=Graph([], vertices=[0]), sybil_size=3,
                           attack_edges=1, walk_length=2, routes_per_node=2)
    g = single.build_combined(rng)
    assert sybil_eval(single, g, rng)["false_positive_rate"] == 0.0
    assert 0.0 <= result["false_positive_rate"] <= 1.0


def test_false_positive_rate_drops_with_walk_length(rng):
    # long routes mix and tails collide (birthday effect); short routes stay local
    m_est = 300
    routes = int(4 * np.sqrt(m_est))
    short = make_scenario(np.random.default_rng(3), walk_length=2, routes_per_node=routes)
    combined = short.build_combined(np.random.default_rng(4))
    fp_short = sybil_eval(short, combined, np.random.default_rng(5))["false_positive_rate"]

    long_sc = SybilScenario(honest_graph=short.honest_graph, sybil_size=20,
                            attack_edges=5, walk_length=40, routes_per_node=routes)
    fp_long = sybil_eval(long_sc, combined, np.random.default_rng(5))["false_positive_rate"]
    assert fp_long <= fp_short
    assert fp_long <= 0.1


def test_attack_edges_roughly_preserved_by_perturbation():
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        scenario = make_scenario(rng, walk_length=4, routes_per_node=4, honest_n=60)
        combined = scenario.build_combined(rng)
        before = count_attack_edges(combined, scenario.honest_ids)
        (g_prime,), _ = linkmirage_run(TemporalGraphSequence([combined]),
                                       PerturbParams(k=2, seed=seed))
        after = count_attack_edges(g_prime, scenario.honest_ids)
        ratios.append((after + 1) / (before + 1))
    mean_ratio = float(np.mean(ratios))
    assert 0.5 <= mean_ratio <= 2.0
