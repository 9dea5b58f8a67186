import numpy as np
import pytest

from linkmirage import Graph


@pytest.fixture
def triangle():
    return Graph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return Graph([(0, 1), (1, 2)])


@pytest.fixture
def two_k4_bridge():
    """Two K4 cliques 0-3 and 4-7 joined by the bridge (3, 4)."""
    k4a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    k4b = [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)]
    return Graph(k4a + k4b + [(3, 4)])


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_graph(n, p, rng, ensure_edge=False):
    """Small G(n, p) helper for randomized suites."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    if ensure_edge and not edges:
        edges = [(0, 1)]
    return Graph(edges, vertices=range(n))


def small_overlap_sequence():
    """Three 20-vertex blocks over 3 steps; block 0 churns and grows.

    Every step re-perturbs some communities and pairs and reuses others.
    """
    from linkmirage import evolving_sequence
    return evolving_sequence([20, 20, 20], 0.3, 0.02, 3, 0.7,
                             np.random.default_rng(42), keep_edge=(1, 2),
                             churn_blocks=[0], new_vertices_per_step=4)
