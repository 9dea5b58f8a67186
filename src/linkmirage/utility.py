"""Utility metrics: walk-distribution distance, its structural bound, degree
expectation, and the graph analytics used to audit perturbed topologies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import _edge_labels
from .graphs import Graph, TemporalGraphSequence
from .markov import matrix_power, transition_matrix, tv_distance
from .perturb import (PerturbParams, _block_sizes, _entries, _sample_step, _spawn,
                      build_step_plan, draw_walker_edges)


@dataclass(frozen=True)
class UtilityReport:
    """Per-timestamp utility distance and its mean over timestamps."""

    l: int
    per_timestamp: list
    aggregate: float


def utility_distance(seq: TemporalGraphSequence, perturbed, l: int) -> UtilityReport:
    """Average row-TV between l-step walk distributions, per timestamp.

    The aggregate is the mean over timestamps. Original and perturbed
    snapshots must share vertex sets at every t.
    """
    if l < 1:
        raise ValueError("application parameter l must be >= 1")
    perturbed = list(perturbed)
    if len(perturbed) != len(seq):
        raise ValueError("original and perturbed sequences are misaligned")
    per_t = []
    for g, gp in zip(seq.snapshots, perturbed):
        if not np.array_equal(g.vertices, gp.vertices):
            raise ValueError("original and perturbed snapshots differ in vertices")
        p_l = matrix_power(transition_matrix(g), l)
        q_l = matrix_power(transition_matrix(gp), l)
        per_t.append(tv_distance(p_l, q_l))
    return UtilityReport(l=l, per_timestamp=per_t,
                         aggregate=float(np.mean(per_t)))


def ratio_cut(graph: Graph, clustering) -> float:
    """Inter-community edge count divided by vertex count."""
    if graph.num_vertices == 0:
        return 0.0
    ends = _edge_labels(graph, clustering)
    return int(np.count_nonzero(ends[:, 0] != ends[:, 1])) / graph.num_vertices


def community_tv(graph: Graph, released: Graph, clustering) -> float:
    """Worst per-community TV between original and released induced-subgraph
    walks: the epsilon of ``ud_upper_bound`` at one timestamp."""
    return max((tv_distance(transition_matrix(graph.subgraph(members)),
                            transition_matrix(released.subgraph(members)))
                for members in clustering.communities.values()), default=0.0)


def ud_upper_bound(epsilon: float, deltas, l: int) -> float:
    """Mean over timestamps of 2l(epsilon + delta_t)."""
    if epsilon < 0 or any(d < 0 for d in deltas):
        raise ValueError("epsilon and ratio cuts must be nonnegative")
    deltas = list(deltas)
    if not deltas:
        raise ValueError("need at least one ratio cut")
    return float(np.mean([2.0 * l * (epsilon + d) for d in deltas]))


@dataclass(frozen=True)
class DegreeReport:
    vertices: np.ndarray
    original: np.ndarray
    mean: np.ndarray
    z_score: np.ndarray
    trials: int


def _walker_rows(graph: Graph, k: int, gens) -> np.ndarray:
    """One raw walk per edge in each of S samples as rows [sample, start id,
    terminal id], sample-major; self-terminal walks are kept."""
    starts, terms = draw_walker_edges(graph, k, gens)
    sample = np.repeat(np.arange(len(gens)), starts.shape[1])
    return np.column_stack([sample, graph.vertices[starts.ravel()],
                            graph.vertices[terms.ravel()]])


def expected_degree_report(graph: Graph, params: PerturbParams, trials: int,
                           rng: np.random.Generator) -> DegreeReport:
    """Monte Carlo check that perturbation preserves expected degrees.

    Runs the full pipeline (cluster once, then re-draw intra walks and inter
    rewiring per trial) and accumulates walker-incidence degrees, whose
    expectation equals the original degree exactly: each community draws one
    raw walk per edge, before self-loop redraws and deduplication, so a
    self-terminal walk counts 2 at its vertex. z is the standardized
    deviation of the Monte Carlo mean from the original degree.

    Trials are drawn in blocks (``perturb._block_sizes``), each one
    ``_sample_step`` call whose degree counts one ``bincount`` per entry
    reads. A block spawns its children as the trials drawn one at a time
    would, so every trial, and the report, is the same whatever the block
    size.
    The plan is laid out on the graph relabelled by position, so walker ends
    are positions already. Relabelling keeps the id order, so clustering,
    labels and every draw are those of the original ids.
    """
    if trials < 1000:
        raise ValueError("degree expectation needs >= 1000 trials")
    n = graph.num_vertices
    plan = build_step_plan(Graph(graph.edge_positions, vertices=np.arange(n)), None, params)
    acc = np.zeros(n, dtype=np.float64)
    acc2 = np.zeros(n, dtype=np.float64)
    # a trial holds its draw's entries and one row of degree counts
    for size in _block_sizes(trials, _entries([plan], params.k) + n):
        children, = _spawn(rng, size, [plan])
        intra, inter = _sample_step(plan, None, params, children, draw=_walker_rows)
        d = np.zeros(size * n, dtype=np.int64)
        # one bincount per entry: the block's rows are never copied into one array
        for rows in (*intra.values(), *inter.values()):
            d += np.bincount((rows[:, :1] * n + rows[:, 1:]).ravel(), minlength=size * n)
        d = d.reshape(size, n)
        # integer sums: exact, so the block size changes no bit of the report
        acc += d.sum(axis=0)
        acc2 += (d * d).sum(axis=0)
    mean = acc / trials
    var = np.maximum(acc2 / trials - mean ** 2, 0.0)
    se = np.sqrt(var / trials)
    deg = graph.degrees.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, (mean - deg) / se,
                     np.where(mean == deg, 0.0, np.inf))
    return DegreeReport(vertices=graph.vertices, original=deg, mean=mean,
                        z_score=z, trials=trials)


# -- graph analytics -----------------------------------------------------------


def pagerank(graph: Graph, damping: float = 0.85) -> np.ndarray:
    """Pagerank scores by power iteration, aligned with graph.vertices.

    Iteration stops at an L1 step below 1e-10, after at most 10,000 steps.
    Scores sum to 1; isolated vertices hold their own teleport mass via the
    lazy self-loop row of the transition matrix.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    n = graph.num_vertices
    if n == 0:
        return np.empty(0)
    p = transition_matrix(graph).matrix
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(10_000):
        nxt = damping * (x @ p) + teleport
        if np.abs(nxt - x).sum() < 1e-10:
            return nxt
        x = nxt
    raise RuntimeError("pagerank failed to converge within 10000 iterations")


def structural_metrics(graph: Graph) -> dict:
    """Global clustering coefficient and degree assortativity.

    Degree-regular graphs have undefined assortativity (zero variance); it is
    reported as 0.0 with the degenerate flag set.
    """
    adj = graph.adjacency()
    deg = graph.degrees.astype(np.float64)
    triangles = float((adj @ adj).multiply(adj).sum()) / 6.0
    triples = float((deg * (deg - 1) / 2.0).sum())
    cc = 3.0 * triangles / triples if triples > 0 else 0.0

    degenerate = False
    if graph.num_edges < 2:
        assort = 0.0
        degenerate = True
    else:
        iu, iv = graph.edge_positions.T
        xs = np.concatenate([deg[iu], deg[iv]])
        ys = np.concatenate([deg[iv], deg[iu]])
        sx, sy = xs.std(), ys.std()
        if sx == 0 or sy == 0:
            assort = 0.0
            degenerate = True
        else:
            assort = float(np.corrcoef(xs, ys)[0, 1])
    return {"clustering_coefficient": cc, "assortativity": assort,
            "assortativity_degenerate": degenerate}


def is_connected(graph: Graph) -> bool:
    """Whether a breadth-first search from position 0 reaches every vertex."""
    if graph.num_vertices <= 1:
        return True
    return bool((graph.hops([0]) >= 0).all())


def is_bipartite(graph: Graph) -> bool:
    """Whether no edge joins two BFS levels of the same parity.

    The search restarts once per component with an edge; levels of
    different components never meet on an edge.
    """
    level = np.full(graph.num_vertices, -1, dtype=np.int64)
    unreached = graph.degrees > 0
    while unreached.any():
        reach = graph.hops([np.argmax(unreached)])
        level = np.maximum(level, reach)
        unreached &= reach < 0
    ends = level[graph.edge_positions]
    return not ((ends[:, 0] - ends[:, 1]) % 2 == 0).any()


def slem(graph: Graph, lazy: bool = False) -> float:
    """Second largest eigenvalue modulus of the walk matrix, from one dense
    symmetric eigensolve of D^-1/2 A D^-1/2, which has the walk's spectrum;
    with ``lazy`` the chain is (P+I)/2. Holds an n x n matrix."""
    if not is_connected(graph):
        raise ValueError("SLEM is defined here for connected graphs only")
    n = graph.num_vertices
    if n <= 1:
        return 0.0
    inv_sqrt = 1.0 / np.sqrt(graph.degrees.astype(np.float64))
    s = graph.adjacency().toarray()
    s *= inv_sqrt
    s *= inv_sqrt[:, None]
    if lazy:
        s *= 0.5
        s[np.diag_indices(n)] += 0.5
    eigs = np.linalg.eigvalsh(s)
    return float(max(abs(eigs[0]), abs(eigs[-2])))


def mixing_time(graph: Graph, epsilon: float, lazy: bool = False) -> int | None:
    """Smallest r <= 10,000 with max_v TV(P^r(v), pi) < epsilon, by direct
    row powers of the dense n x n walk matrix; None when no such r exists.

    Bipartite chains never converge unless ``lazy`` applies (P+I)/2, and
    return None at once.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    if not is_connected(graph):
        raise ValueError("mixing time is defined here for connected graphs only")
    if is_bipartite(graph) and not lazy and graph.num_vertices > 1:
        return None
    p = transition_matrix(graph).matrix.toarray()
    if lazy:
        p = 0.5 * (p + np.eye(graph.num_vertices))
    deg = graph.degrees.astype(np.float64)
    pi = deg / deg.sum() if deg.sum() else np.full(graph.num_vertices, 1.0)
    m = p.copy()
    for r in range(1, 10_001):
        worst = 0.5 * np.abs(m - pi).sum(axis=1).max()
        if worst < epsilon:
            return r
        m = m @ p
    return None


def spectral_metrics(graph: Graph, epsilon: float = 0.05, lazy: bool = False) -> dict:
    """SLEM and mixing time of a connected graph's walk."""
    tau = mixing_time(graph, epsilon, lazy=lazy)
    return {"slem": slem(graph, lazy=lazy), "mixing_time": tau}
