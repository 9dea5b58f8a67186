import numpy as np
import pytest

from linkmirage import Graph
from linkmirage.perturb import _draws, _sample_step, _spawn


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


# -- one sample of a step draw ----------------------------------------------
# ``perturb._sample_step`` draws a block of samples with rows [sample, a, b];
# these helpers draw a block of one from a stream, as a release step does,
# and hold its entries as (m, 2) edge arrays, as ``group_edges`` gives them.


def edge_draw(draw):
    """A one-sample step draw with the sample column dropped."""
    return tuple({key: rows[:, 1:] for key, rows in part.items()} for part in draw)


def step_edges(intra, inter):
    """Every edge of a one-sample step draw in one (m, 2) array."""
    pieces = [*intra.values(), *inter.values()]
    return np.concatenate(pieces) if pieces else np.empty((0, 2), np.int64)


def sample_step(plan, carried, params, rng, **kwargs):
    """One sample of ``_sample_step`` from ``rng``, carrying (m, 2) entries."""
    if carried is not None:
        carried = tuple({key: np.column_stack([np.zeros(len(edges), np.int64), edges])
                         for key, edges in part.items()} for part in carried)
    (children,) = _spawn(rng, 1, [plan])
    return edge_draw(_sample_step(plan, carried, params, children, **kwargs))


def sample_draws(plans, params, rng, reads=None):
    """One sample of the ``_draws`` fold over ``plans`` from ``rng``."""
    return [edge_draw(draw) for draw in _draws(plans, params, _spawn(rng, 1, plans), reads)]
