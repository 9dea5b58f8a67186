import numpy as np
import pytest

from linkmirage import Graph
from linkmirage.perturb import _draws, _hash, _layout, _sample_step


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
# ``perturb._sample_step`` draws a block of samples as one array of rows
# [sample, a, b]; these helpers split it into (intra by label, inter by pair)
# dicts by its ends' labels, draw a block of one under one key, as a release
# step does, and hold its entries as (m, 2) edge arrays, as ``group_edges``
# gives them.


def keys_from(rng, n=1):
    """n sample keys, raw 64-bit draws from ``rng``."""
    return rng.integers(1 << 64, size=n, dtype=np.uint64)


def split_draw(draw, clustering):
    """A step draw's rows grouped into entries by their ends' labels under
    ``clustering``: (intra by label, inter by sorted label pair) dicts, keys
    ascending, each entry's rows in the draw's order. An entry without rows
    has no key."""
    ends = np.sort(clustering.label_of(draw[:, 1:]), axis=1)
    intra, inter = {}, {}
    for a, b in sorted(set(map(tuple, ends.tolist()))):
        rows = draw[(ends[:, 0] == a) & (ends[:, 1] == b)]
        if a == b:
            intra[a] = rows
        else:
            inter[(a, b)] = rows
    return intra, inter


def joined_draw(intra, inter):
    """The step draw that holds the rows of (intra, inter), entry by entry."""
    return np.concatenate([np.empty((0, 3), np.int64), *intra.values(), *inter.values()])


def edge_draw(draw, clustering):
    """A one-sample step draw's entries with the sample column dropped."""
    return tuple({key: rows[:, 1:] for key, rows in part.items()}
                 for part in split_draw(draw, clustering))


def step_edges(intra, inter):
    """Every edge of a one-sample step draw in one (m, 2) array."""
    pieces = [*intra.values(), *inter.values()]
    return np.concatenate(pieces) if pieces else np.empty((0, 2), np.int64)


def sample_step(plan, carried, params, sample_key, layout=None):
    """One sample of ``_sample_step`` under ``sample_key`` (an int, or a uint64
    array of one), carrying (m, 2) entries."""
    if carried is not None:
        carried = joined_draw(*({key: np.column_stack([np.zeros(len(edges), np.int64), edges])
                                 for key, edges in part.items()} for part in carried))
    layout = _layout(plan) if layout is None else layout
    return edge_draw(_sample_step(layout, carried, params.k, _hash(sample_key)), plan.clustering)


def sample_draws(plans, params, root, sample=0, layouts=None):
    """Sample ``sample`` of the ``_draws`` fold over ``plans`` under the root
    key ``root``, keyed as the posterior keys it: step t under
    ``_hash(root, t, sample)``."""
    keys = [_hash(root, t, sample) for t in range(len(plans))]
    layouts = map(_layout, plans) if layouts is None else layouts
    return [edge_draw(draw, plan.clustering)
            for draw, plan in zip(_draws(layouts, params.k, keys), plans)]
