"""Random-walk transition matrices, matrix powers, walks, and TV distance.

The transition probability matrix P of a graph has P(i,j) = 1/deg(i) on
edges and 0 elsewhere. Isolated vertices get a self-loop row (probability 1
on themselves) so every matrix stays row-stochastic and walks are total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Graph


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic sparse matrix together with its vertex id ordering."""

    ids: np.ndarray          # raw vertex ids; row/column order
    matrix: sp.csr_matrix    # shape (n, n)


def transition_matrix(graph: Graph) -> TransitionMatrix:
    """Uniform random-walk TPM of a graph (lazy self-loop on isolated rows)."""
    n = graph.num_vertices
    deg = graph.degrees
    mat = graph.adjacency(np.repeat(1.0 / np.maximum(deg, 1), deg))
    isolated = np.flatnonzero(deg == 0)
    if isolated.size:
        eye = sp.csr_matrix((np.ones(isolated.size),
                             (isolated, isolated)), shape=(n, n))
        mat = (mat + eye).tocsr()
    return TransitionMatrix(ids=graph.vertices, matrix=mat)


def matrix_power(p: TransitionMatrix, l: int) -> TransitionMatrix:
    """Exact sparse l-th power of a transition matrix, l >= 1."""
    if l < 1:
        raise ValueError("power must be >= 1")
    acc = p.matrix
    for _ in range(l - 1):
        acc = acc @ p.matrix
    return TransitionMatrix(ids=p.ids, matrix=acc.tocsr())


def walk_terminals(graph: Graph, starts: np.ndarray, length: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Terminals of simultaneous random walks from internal positions.

    One uniform draw per walker per step; walkers on isolated vertices stay
    put. Vectorized over walkers so a perturbation pass costs O(k|E|).
    """
    indptr, indices = graph.csr_adjacency
    cur = np.asarray(starts, dtype=np.int64).copy()
    for _ in range(length):
        d = indptr[cur + 1] - indptr[cur]
        u = rng.random(cur.size)
        step = np.minimum((u * d).astype(np.int64), np.maximum(d - 1, 0))
        if indices.size:
            flat = np.minimum(indptr[cur] + step, indices.size - 1)
            cur = np.where(d > 0, indices[flat], cur)
    return cur


def tv_distance(p: TransitionMatrix, q: TransitionMatrix) -> float:
    """Average over rows of the total-variation distance between row pairs.

    Requires identical vertex orderings; the result lies in [0, 1].
    """
    if not np.array_equal(p.ids, q.ids):
        raise ValueError("transition matrices are over different vertex sets")
    n = p.ids.size
    if n == 0:
        return 0.0
    diff = (p.matrix - q.matrix).tocsr()
    return float(0.5 * np.abs(diff.data).sum() / n)


def tv_distance_common(p: TransitionMatrix, q: TransitionMatrix) -> tuple[float, int]:
    """Row-averaged TV over the common vertex set of two matrices.

    Rows are compared in the union column space without renormalization;
    returns (value, number of common vertices averaged over).
    """
    common = np.intersect1d(p.ids, q.ids)
    if common.size == 0:
        raise ValueError("transition matrices share no vertices")
    if np.array_equal(p.ids, q.ids):
        return tv_distance(p, q), int(common.size)
    union = np.union1d(p.ids, q.ids)

    def embed(m: TransitionMatrix) -> sp.csr_matrix:
        rows = np.searchsorted(union, m.ids)
        proj = sp.csr_matrix((np.ones(m.ids.size), (rows, np.arange(m.ids.size))),
                             shape=(union.size, m.ids.size))
        return (proj @ m.matrix @ proj.T).tocsr()

    diff = (embed(p) - embed(q)).tocsr()
    rows = np.searchsorted(union, common)
    total = sum(np.abs(diff.getrow(r).data).sum() for r in rows)
    return float(0.5 * total / common.size), int(common.size)
