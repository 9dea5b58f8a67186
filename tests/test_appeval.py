import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from linkmirage import (Graph, PerturbParams, SybilScenario, TemporalGraphSequence,
                        attack_probability, er_graph, k_hop_graph, linkmirage_run,
                        ring_of_blocks, sampling_report, sybil_eval, union_graph)
from linkmirage.appeval import _reverse_positions, count_attack_edges
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


def test_k_hop_graph_matches_bfs_oracle(rng):
    g = random_graph(12, 0.25, rng, ensure_edge=True)
    for k in (1, 2, 3):
        gk = k_hop_graph(g, k)
        expected = set()
        for v in g.vertices:
            dist = bfs_distances(g, v)
            for w, d in dist.items():
                if 0 < d <= k and int(v) < w:
                    expected.add((int(v), w))
        assert gk.edges.tolist() == [list(e) for e in sorted(expected)]


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
    """Oracle: the report from Python tuple sets of the two unions."""
    pert = set(map(tuple, union_graph(perturbed).edges.tolist()))
    khop = set(map(tuple, union_graph([k_hop_graph(g, k) for g in seq.snapshots])
                   .edges.tolist()))
    return (len(pert) / len(khop), len(pert), len(khop), len(pert - khop))


def report_fields(report):
    return (report.probability, report.perturbed_union_edges,
            report.k_hop_union_edges, report.outside_envelope)


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

    for _instance in range(routes_per_node):
        tables = [rng.permutation(int(indptr[v + 1] - indptr[v])) for v in range(n)]
        for v in range(n):
            deg = int(indptr[v + 1] - indptr[v])
            if not deg:
                continue
            first = int(rng.integers(0, deg))
            prev, cur = v, int(indices[indptr[v] + first])
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
    assert fp == 0.787984


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
