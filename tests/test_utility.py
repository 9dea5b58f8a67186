import hashlib
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, sample_step, small_overlap_sequence, step_edges
from linkmirage import (Clustering, Graph, PerturbParams, TemporalGraphSequence,
                        expected_degree_report, linkmirage_run, pagerank,
                        planted_partition_graph, ratio_cut, spectral_metrics, structural_metrics,
                        transition_matrix, tv_distance, ud_upper_bound,
                        utility_distance)
from linkmirage import perturb
from linkmirage.perturb import build_step_plan
from linkmirage.utility import (_walker_rows, community_tv, is_bipartite, is_connected,
                               mixing_time, slem)


def complete_graph(n):
    return Graph([(i, j) for i in range(n) for j in range(i + 1, n)])


# -- utility distance -------------------------------------------------------------


def test_ud_zero_for_identical_sequences(rng):
    g = random_graph(10, 0.4, rng, ensure_edge=True)
    seq = TemporalGraphSequence([g, g])
    for l in (1, 2, 5):
        report = utility_distance(seq, [g, g], l)
        assert report.aggregate == 0.0
        assert report.per_timestamp == [0.0, 0.0]


def test_ud_l1_matches_hand_composed_oracle(rng):
    g = random_graph(6, 0.5, rng, ensure_edge=True)
    gp = random_graph(6, 0.5, rng, ensure_edge=True)
    seq = TemporalGraphSequence([g])
    report = utility_distance(seq, [gp], 1)
    expected = tv_distance(transition_matrix(g), transition_matrix(gp))
    assert report.per_timestamp[0] == pytest.approx(expected, abs=1e-12)
    assert report.aggregate == pytest.approx(expected, abs=1e-12)


def test_ud_misaligned_sequences_error(rng):
    g = random_graph(5, 0.5, rng, ensure_edge=True)
    seq = TemporalGraphSequence([g, g])
    with pytest.raises(ValueError):
        utility_distance(seq, [g], 1)


def test_ud_power_contraction_corollary(rng):
    g = random_graph(12, 0.3, rng, ensure_edge=True)
    gp = random_graph(12, 0.3, rng, ensure_edge=True)
    seq = TemporalGraphSequence([g])
    base = utility_distance(seq, [gp], 1).aggregate
    for l in (2, 3, 5):
        assert utility_distance(seq, [gp], l).aggregate <= l * base + 1e-9


def ring_community_graph(n_blocks=3, block_size=60, width=2, seed=7):
    # planted partition whose blocks are ring lattices: dense short-range
    # structure inside communities, so k-hop walks travel farther as k grows
    rng = np.random.default_rng(seed)
    edges = []
    for b in range(n_blocks):
        base = b * block_size
        for i in range(block_size):
            for d in range(1, width + 1):
                edges.append((base + i, base + (i + d) % block_size))
    for b in range(n_blocks):
        for _ in range(3):
            u = b * block_size + int(rng.integers(0, block_size))
            v = ((b + 1) % n_blocks) * block_size + int(rng.integers(0, block_size))
            edges.append((min(u, v), max(u, v)))
    return Graph(edges)


def test_ud_trends_with_k_and_l():
    # mean over seeds: UD grows with k (walks stray farther) and shrinks
    # with l once k >= 2 (longer application walks forgive local noise)
    g = ring_community_graph()
    seq = TemporalGraphSequence([g])
    agg = {}
    for k in (1, 2, 4, 8):
        runs = {1: [], 3: []}
        for seed in range(6):
            gp, _ = linkmirage_run(seq, PerturbParams(k=k, seed=seed))
            for l in (1, 3):
                runs[l].append(utility_distance(seq, gp, l).aggregate)
        agg[k] = {l: float(np.mean(v)) for l, v in runs.items()}
    assert agg[1][1] <= agg[2][1] <= agg[4][1] <= agg[8][1]
    for k in (2, 8):
        assert agg[k][3] <= agg[k][1]


# -- ratio cut and the structural bound ---------------------------------------------


def test_ratio_cut_single_community(triangle):
    c = Clustering.from_groups([[0, 1, 2]])
    assert ratio_cut(triangle, c) == 0.0


def test_ratio_cut_two_triangles_bridge():
    g = Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    c = Clustering.from_groups([[0, 1, 2], [3, 4, 5]])
    assert ratio_cut(g, c) == pytest.approx(1.0 / 6.0)


def test_ratio_cut_matches_per_edge_oracle(rng):
    g = random_graph(12, 0.35, rng, ensure_edge=True)
    labels = rng.integers(0, 3, size=12)
    groups = [[v for v in range(12) if labels[v] == c] for c in range(3)]
    c = Clustering.from_groups([grp for grp in groups if grp])
    inter = sum(1 for u, v in g.edges if labels[int(u)] != labels[int(v)])
    assert ratio_cut(g, c) == pytest.approx(inter / 12)


def test_community_tv_is_the_worst_community():
    # two triangles; the release keeps the first and turns the second into a path
    g = Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    released = Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    c = Clustering.from_groups([[0, 1, 2], [3, 4, 5]])
    second = tv_distance(transition_matrix(g.subgraph([3, 4, 5])),
                         transition_matrix(released.subgraph([3, 4, 5])))
    assert second > 0.0
    assert community_tv(g, released, c) == second
    assert community_tv(g, g, c) == 0.0


def test_ud_upper_bound_values():
    assert ud_upper_bound(0.0, [0.0, 0.0], 3) == 0.0
    assert ud_upper_bound(0.1, [0.2], 2) == pytest.approx(1.2)


# -- degree expectation --------------------------------------------------------------


def test_degree_report_single_edge_exact():
    g = Graph([(0, 1)])
    report = expected_degree_report(g, PerturbParams(k=1, seed=3), 1000,
                                    np.random.default_rng(5))
    assert np.array_equal(report.mean, [1.0, 1.0])
    assert np.array_equal(report.z_score, [0.0, 0.0])


def test_degree_report_k3_within_3_sigma():
    g = Graph([(0, 1), (1, 2), (0, 2)])
    report = expected_degree_report(g, PerturbParams(k=1, seed=3), 5000,
                                    np.random.default_rng(6))
    assert np.abs(report.z_score).max() <= 3.0


def test_degree_report_means_pinned():
    # exact Monte Carlo means; a refactor of the sampling path must keep every draw
    g = small_overlap_sequence()[2]
    report = expected_degree_report(g, PerturbParams(k=2, seed=5), 1000,
                                    np.random.default_rng(10))
    assert report.mean.sum() == 418.102
    assert hashlib.sha256(report.mean.tobytes()).hexdigest() == \
        "3b9d8d4b37c115019bb147d6cec34110c4662ebfe7d9d81e95f59eb75ff2f5ed"


def test_degree_report_matches_the_plan_on_the_graph_ids():
    # sparse, shuffled ids: the report equals the one laid out and drawn on
    # the ids themselves, with each trial's ends looked up by position
    g = small_overlap_sequence()[2]
    ids = np.random.default_rng(4).permutation(1000)[:g.num_vertices] * 7 + 3
    g = Graph(ids[np.searchsorted(g.vertices, g.edges)], vertices=ids)
    params = PerturbParams(k=2, seed=5)
    report = expected_degree_report(g, params, 1000, np.random.default_rng(10))
    plan, rng = build_step_plan(g, None, params), np.random.default_rng(10)
    acc = np.zeros(g.num_vertices)
    for _ in range(1000):
        ends = step_edges(*sample_step(plan, None, params, rng, draw=_walker_rows))
        acc += np.bincount(np.searchsorted(g.vertices, ends.ravel()), minlength=g.num_vertices)
    assert np.array_equal(report.mean, acc / 1000)


def test_degree_report_blocks_change_no_draw(monkeypatch):
    # blocks of 7 trials, the last one shorter, give the report bit for bit
    g = small_overlap_sequence()[2]
    params = PerturbParams(k=2, seed=5)
    default = expected_degree_report(g, params, 1000, np.random.default_rng(10))
    per_trial = perturb._entries([build_step_plan(g, None, params)], params.k) + g.num_vertices
    monkeypatch.setattr(perturb, "_BLOCK_ENTRIES", 7 * per_trial)
    assert perturb._block_sizes(1000, per_trial) == [7] * 142 + [6]
    blocked = expected_degree_report(g, params, 1000, np.random.default_rng(10))
    assert blocked.mean.tobytes() == default.mean.tobytes()
    assert blocked.z_score.tobytes() == default.z_score.tobytes()


def test_degree_report_requires_trials():
    with pytest.raises(ValueError):
        expected_degree_report(Graph([(0, 1)]), PerturbParams(k=1), 10,
                               np.random.default_rng(0))


# -- pagerank -------------------------------------------------------------------------


def test_pagerank_regular_graph_uniform():
    g = complete_graph(6)
    scores = pagerank(g)
    assert np.allclose(scores, 1.0 / 6.0, atol=1e-9)


def test_pagerank_two_vertices():
    scores = pagerank(Graph([(0, 1)]))
    assert np.allclose(scores, [0.5, 0.5], atol=1e-9)


def test_pagerank_sums_to_one_nonnegative(rng):
    for _ in range(10):
        g = random_graph(int(rng.integers(2, 25)), 0.3, rng)
        scores = pagerank(g)
        assert abs(scores.sum() - 1.0) <= 1e-9
        assert (scores >= 0).all()


# -- structural metrics ----------------------------------------------------------------


def brute_structural(g: Graph):
    verts = [int(v) for v in g.vertices]
    edges = set(map(tuple, g.edges.tolist()))
    degree = dict(zip(verts, g.degrees.tolist()))
    triangles = 0
    for a, b, c in itertools.combinations(verts, 3):
        if (a, b) in edges and (b, c) in edges and (a, c) in edges:
            triangles += 1
    triples = sum(d * (d - 1) // 2 for d in degree.values())
    cc = 3 * triangles / triples if triples else 0.0
    xs, ys = [], []
    for u, v in g.edges.tolist():
        xs += [degree[u], degree[v]]
        ys += [degree[v], degree[u]]
    xs, ys = np.array(xs, float), np.array(ys, float)
    if len(xs) < 2 or xs.std() == 0 or ys.std() == 0:
        assort = 0.0
    else:
        assort = float(np.corrcoef(xs, ys)[0, 1])
    return cc, assort


def test_k3_clustering_coefficient_one(triangle):
    assert structural_metrics(triangle)["clustering_coefficient"] == pytest.approx(1.0)


def test_star_clustering_coefficient_zero():
    g = Graph([(0, 1), (0, 2), (0, 3), (0, 4)])
    assert structural_metrics(g)["clustering_coefficient"] == 0.0


def test_structural_matches_bruteforce(rng):
    for _ in range(8):
        g = random_graph(20, 0.25, rng, ensure_edge=True)
        got = structural_metrics(g)
        cc, assort = brute_structural(g)
        assert got["clustering_coefficient"] == pytest.approx(cc, abs=1e-12)
        if not got["assortativity_degenerate"]:
            assert got["assortativity"] == pytest.approx(assort, abs=1e-12)


def test_regular_graph_assortativity_degenerate():
    got = structural_metrics(complete_graph(5))
    assert got["assortativity"] == 0.0
    assert got["assortativity_degenerate"]


# -- spectral metrics --------------------------------------------------------------------


def dense_slem(g: Graph, lazy=False):
    p = transition_matrix(g).matrix.toarray()
    if lazy:
        p = 0.5 * (p + np.eye(p.shape[0]))
    eigs = np.sort(np.real(np.linalg.eigvals(p)))[::-1]
    return max(abs(eigs[1]), abs(eigs[-1])) if eigs.size > 1 else 0.0


def test_slem_complete_graphs_analytic():
    for n in (3, 4, 6, 9):
        assert slem(complete_graph(n)) == pytest.approx(1.0 / (n - 1), abs=1e-9)


def deque_is_connected(graph):
    """Oracle: breadth-first search from position 0, one vertex at a time."""
    n = graph.num_vertices
    if n <= 1:
        return True
    indptr, indices = graph.csr_adjacency
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in indices[indptr[v]:indptr[v + 1]]:
            if not seen[w]:
                seen[w] = True
                queue.append(int(w))
    return bool(seen.all())


def test_is_connected_small_cases(triangle, path3, two_k4_bridge):
    assert is_connected(Graph()) and is_connected(Graph(vertices=[4]))
    assert is_connected(triangle) and is_connected(path3) and is_connected(two_k4_bridge)
    assert not is_connected(Graph([(0, 1)], vertices=[0, 1, 2]))
    assert not is_connected(Graph([(0, 1), (2, 3)]))
    assert is_connected(Graph([(i, i + 1) for i in range(300)]))
    assert not is_connected(Graph([(i, i + 1) for i in range(300)], vertices=[1000]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=30),
       st.floats(min_value=0.0, max_value=0.4),
       st.integers(min_value=0, max_value=10**6))
def test_is_connected_matches_deque_bfs(n, p, seed):
    g = random_graph(n, p, np.random.default_rng(seed))
    sparse_ids = Graph(g.edges * 5 + 2, vertices=np.arange(n) * 5 + 2)
    assert is_connected(g) == deque_is_connected(g)
    assert is_connected(sparse_ids) == deque_is_connected(g)


def deque_is_bipartite(graph):
    """Oracle: two-colouring by breadth-first search from every uncoloured
    vertex, one vertex at a time."""
    n = graph.num_vertices
    indptr, indices = graph.csr_adjacency
    color = np.full(n, -1, dtype=np.int8)
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in indices[indptr[v]:indptr[v + 1]]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    queue.append(int(w))
                elif color[w] == color[v]:
                    return False
    return True


def cycle_edges(vertices):
    return [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]


def test_is_bipartite_small_cases(triangle, path3, two_k4_bridge):
    assert is_bipartite(Graph()) and is_bipartite(Graph(vertices=[4, 8]))
    assert is_bipartite(path3) and not is_bipartite(triangle)
    assert not is_bipartite(two_k4_bridge)
    for length in range(3, 10):
        assert is_bipartite(Graph(cycle_edges(list(range(length))))) == (length % 2 == 0)
    # an odd cycle in a later component, past isolated vertices
    assert not is_bipartite(Graph(cycle_edges([0, 1, 2, 3]) + cycle_edges([20, 30, 40]),
                                  vertices=[10, 50]))
    assert is_bipartite(Graph(cycle_edges([0, 1, 2, 3]) + cycle_edges([20, 30, 40, 35]),
                              vertices=[10, 50]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=5),
       st.floats(min_value=0.0, max_value=0.3),
       st.integers(min_value=0, max_value=10**6))
def test_is_bipartite_matches_deque_bfs(components, p, seed):
    # components of random graphs and odd and even cycles, on shuffled sparse
    # ids with isolated vertices between them
    rng = np.random.default_rng(seed)
    edges, first = [], 0
    for _ in range(components):
        n = int(rng.integers(1, 12))
        if rng.random() < 0.5:
            edges.extend((u + first, v + first) for u, v in
                         random_graph(n, p, rng).edges.tolist())
        elif n >= 3:
            edges.extend(cycle_edges(list(range(first, first + n))))
        first += n + int(rng.integers(0, 3))
    ids = rng.permutation(np.arange(first) * 4 + 1)
    g = Graph(ids[np.array(edges, dtype=np.int64).reshape(-1, 2)], vertices=ids)
    assert is_bipartite(g) == deque_is_bipartite(g)


def test_slem_matches_dense_eigensolve(rng):
    graphs = [planted_partition_graph([50] * 4, 0.2, 0.02, np.random.default_rng(0))[0]]
    while len(graphs) < 11:
        g = random_graph(int(rng.integers(4, 15)), 0.45, rng, ensure_edge=True)
        if is_connected(g):
            graphs.append(g)
    for g in graphs:
        assert is_connected(g)
        for lazy in (False, True):
            assert slem(g, lazy=lazy) == pytest.approx(dense_slem(g, lazy=lazy), abs=1e-12)


def test_mixing_time_k3_matches_row_power_scan(triangle):
    eps = 0.01
    tau = mixing_time(triangle, eps)
    p = transition_matrix(triangle).matrix.toarray()
    pi = np.array([2, 2, 2]) / 6
    m = p.copy()
    r = 1
    while 0.5 * np.abs(m - pi).sum(axis=1).max() >= eps:
        m = m @ p
        r += 1
    assert tau == r


def test_bipartite_reports_not_converged():
    g = Graph([(0, 1), (1, 2), (2, 3), (0, 3)])   # 4-cycle
    assert is_bipartite(g)
    metrics = spectral_metrics(g, epsilon=0.05)
    assert set(metrics) == {"slem", "mixing_time"}
    assert metrics["mixing_time"] is None


def test_lazy_chain_mixes_bipartite():
    g = Graph([(0, 1), (1, 2), (2, 3), (0, 3)])
    metrics = spectral_metrics(g, epsilon=0.05, lazy=True)
    assert metrics["mixing_time"] is not None
    assert metrics["slem"] < 1.0


def test_slem_bounds(rng):
    count = 0
    while count < 10:
        g = random_graph(int(rng.integers(3, 12)), 0.5, rng, ensure_edge=True)
        if not is_connected(g):
            continue
        count += 1
        mu = slem(g)
        assert 0.0 <= mu <= 1.0 + 1e-12
        if not is_bipartite(g):
            assert mu < 1.0


def test_spectral_requires_connected():
    g = Graph([(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        spectral_metrics(g)
