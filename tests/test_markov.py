import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from linkmirage import (Graph, matrix_power, transition_matrix, tv_distance,
                        tv_distance_common, walk_terminals)


def dense_tv(p, q):
    """Elementwise oracle: half the mean row L1 difference."""
    a = p.matrix.toarray()
    b = q.matrix.toarray()
    return 0.5 * np.abs(a - b).sum(axis=1).mean()


def assert_stochastic(p):
    """Every row sums to 1 and no entry is negative, within 1e-9."""
    sums = np.asarray(p.matrix.sum(axis=1)).ravel()
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert p.matrix.data.min(initial=0.0) >= -1e-9


def walk_ends(graph, start, length, n_walkers, rng):
    """Raw terminal ids of ``n_walkers`` walks from raw id ``start``, drawn
    with one ``walk_terminals`` call, one row of uniforms per step."""
    starts = np.full(n_walkers, graph.index_of(start), dtype=np.int64)
    return graph.vertices[walk_terminals(graph, starts, rng.random((length, n_walkers)))]


def test_triangle_rows_are_half(triangle):
    p = transition_matrix(triangle)
    for v in (0, 1, 2):
        row = p.matrix.toarray()[v]
        assert row[v] == 0.0
        assert sorted(row[row > 0].tolist()) == [0.5, 0.5]


def test_path_middle_row(path3):
    p = transition_matrix(path3)
    assert p.matrix.toarray()[1].tolist() == [0.5, 0.0, 0.5]


def test_isolated_vertex_gets_lazy_self_loop():
    g = Graph([(0, 1)], vertices=[0, 1, 2])
    p = transition_matrix(g)
    assert p.matrix.toarray()[2].tolist() == [0.0, 0.0, 1.0]
    assert_stochastic(p)


def test_matrix_power_one_is_identity_case(triangle):
    p = transition_matrix(triangle)
    assert np.allclose(matrix_power(p, 1).matrix.toarray(), p.matrix.toarray())


def test_matrix_power_path_two_steps(path3):
    p2 = matrix_power(transition_matrix(path3), 2)
    assert np.allclose(p2.matrix.toarray()[0], [0.5, 0.0, 0.5])


def test_matrix_power_matches_dense_oracle(rng):
    g = random_graph(6, 0.5, rng, ensure_edge=True)
    p = transition_matrix(g)
    dense = np.linalg.matrix_power(p.matrix.toarray(), 3)
    assert np.allclose(matrix_power(p, 3).matrix.toarray(), dense, atol=1e-12)


def test_rows_remain_stochastic_under_powers(rng):
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 15)), rng.uniform(0.1, 0.8), rng)
        p = matrix_power(transition_matrix(g), int(rng.integers(1, 5)))
        assert_stochastic(p)


def test_power_composition(rng):
    for _ in range(10):
        g = random_graph(int(rng.integers(3, 20)), 0.4, rng, ensure_edge=True)
        p = transition_matrix(g)
        for a in (1, 2, 3, 4):
            for b in (1, 2, 3, 4):
                lhs = matrix_power(p, a + b).matrix.toarray()
                rhs = (matrix_power(p, a).matrix @ matrix_power(p, b).matrix).toarray()
                assert np.abs(lhs - rhs).max() < 1e-9


def test_walk_length_zero_returns_start(triangle, rng):
    assert walk_ends(triangle, 2, 0, 1, rng).tolist() == [2]


def test_walk_single_neighbor_is_forced(rng):
    g = Graph([(0, 1)])
    assert walk_ends(g, 0, 1, 1, rng).tolist() == [1]


def test_walk_from_isolated_vertex_stays(rng):
    g = Graph([(0, 1)], vertices=[0, 1, 5])
    assert walk_ends(g, 5, 3, 1, rng).tolist() == [5]


def test_walk_terminal_frequency_matches_row(triangle, rng):
    # K3 from 0, one step: each neighbor with probability 1/2
    hits = walk_ends(triangle, 0, 1, 10_000, rng)
    freq1 = (hits == 1).mean()
    assert abs(freq1 - 0.5) < 0.02


def test_walk_terminal_distribution_matches_power(rng):
    g = random_graph(8, 0.4, rng, ensure_edge=True)
    l, n_samples = 3, 10_000
    start = int(g.vertices[0])
    p_l = matrix_power(transition_matrix(g), l)
    expected = p_l.matrix.toarray()[g.index_of(start)]
    hits = walk_ends(g, start, l, n_samples, rng)
    for pos, v in enumerate(g.vertices):
        freq = (hits == v).mean()
        sigma = np.sqrt(max(expected[pos] * (1 - expected[pos]), 1e-12) / n_samples)
        assert abs(freq - expected[pos]) <= 3 * sigma + 1e-9


def test_tv_identity(triangle):
    p = transition_matrix(triangle)
    assert tv_distance(p, p) == 0.0


def test_tv_disjoint_support_is_one():
    a = transition_matrix(Graph([(0, 1)], vertices=[0, 1, 2]))
    b = transition_matrix(Graph([(0, 2)], vertices=[0, 1, 2]))
    # row 0 moves all mass from vertex 1 to vertex 2
    assert abs(tv_distance(a, b) - (1.0 + 1.0 + 1.0) / 3.0) < 1e-12


def test_tv_matches_elementwise_oracle(rng):
    for _ in range(10):
        a = transition_matrix(random_graph(5, 0.5, rng, ensure_edge=True))
        b = transition_matrix(random_graph(5, 0.5, rng, ensure_edge=True))
        assert abs(tv_distance(a, b) - dense_tv(a, b)) < 1e-12


def test_tv_dimension_mismatch():
    a = transition_matrix(Graph([(0, 1)]))
    b = transition_matrix(Graph([(0, 1), (1, 2)]))
    with pytest.raises(ValueError):
        tv_distance(a, b)


def test_tv_is_a_metric(rng):
    for _ in range(15):
        n = int(rng.integers(3, 8))
        mats = [transition_matrix(random_graph(n, 0.5, rng, ensure_edge=True))
                for _ in range(3)]
        a, b, c = mats
        assert abs(tv_distance(a, b) - tv_distance(b, a)) < 1e-15
        assert tv_distance(a, a) < 1e-15
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_transition_rows_sum_to_one(n, seed):
    g = random_graph(n, 0.4, np.random.default_rng(seed))
    p = transition_matrix(g)
    sums = np.asarray(p.matrix.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() <= 1e-9


def test_power_contraction_bound(rng):
    # contraction lemma: ||P^l - Q^l||_TV <= l ||P - Q||_TV
    for _ in range(30):
        n = int(rng.integers(3, 15))
        p = transition_matrix(random_graph(n, rng.uniform(0.2, 0.7), rng, ensure_edge=True))
        q = transition_matrix(random_graph(n, rng.uniform(0.2, 0.7), rng, ensure_edge=True))
        base = tv_distance(p, q)
        for l in (2, 3, 5):
            assert tv_distance(matrix_power(p, l), matrix_power(q, l)) <= l * base + 1e-9


def test_tv_common_restricts_to_shared_vertices():
    a = transition_matrix(Graph([(0, 1), (1, 2)]))
    b = transition_matrix(Graph([(0, 1), (1, 2), (2, 3)]))
    value, n_common = tv_distance_common(a, b)
    assert n_common == 3
    # rows 0 and 1 differ only through row 2's extra neighbor
    assert 0.0 < value < 1.0


def loop_transition_matrix(graph):
    """Oracle: the transition matrix with its rows filled one vertex at a time."""
    n = graph.num_vertices
    indptr, indices = graph.csr_adjacency
    deg = graph.degrees
    data = np.empty(indices.size, dtype=np.float64)
    for i in range(n):
        if deg[i]:
            data[indptr[i]:indptr[i + 1]] = 1.0 / deg[i]
    mat = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
    isolated = np.flatnonzero(deg == 0)
    if isolated.size:
        eye = sp.csr_matrix((np.ones(isolated.size), (isolated, isolated)), shape=(n, n))
        mat = (mat + eye).tocsr()
    return mat


def test_transition_matrix_matches_per_vertex_loop(rng):
    graphs = [Graph([], vertices=[0, 1, 2]), Graph([(0, 1)], vertices=[0, 1, 5, 9]),
              random_graph(30, 0.05, rng), random_graph(40, 0.3, rng)]
    assert any((g.degrees == 0).any() for g in graphs[2:])
    for g in graphs:
        got, want = transition_matrix(g).matrix, loop_transition_matrix(g)
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
