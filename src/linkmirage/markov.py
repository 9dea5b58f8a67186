"""Random-walk transition matrices, matrix powers, walks, and TV distance.

The transition probability matrix P of a graph has P(i,j) = 1/deg(i) on
edges and 0 elsewhere. Isolated vertices get a self-loop row (probability 1
on themselves) so every matrix stays row-stochastic and walks are total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, _in_id_space, _sorted_unique


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


def walk_terminals(graph: Graph, starts: np.ndarray,
                   uniforms: np.ndarray) -> np.ndarray:
    """Terminals of simultaneous random walks from internal positions.

    ``uniforms`` holds one row of U(0, 1) draws per step, each over the
    walkers of ``starts``, behind the same leading axes as ``starts`` (a
    sample axis, say): shape (..., length, walkers) for starts of shape
    (..., walkers). A walker steps to the neighbor its uniform picks among
    its sorted neighbors; walkers on isolated vertices stay put. Vectorized
    over every walker, so a perturbation pass costs O(k|E|) array work.
    """
    indptr, indices = graph.csr_adjacency
    cur = np.asarray(starts, dtype=np.int64).copy()
    uniforms = np.asarray(uniforms)
    for i in range(uniforms.shape[-2]):
        u = uniforms[..., i, :]
        d = indptr[cur + 1] - indptr[cur]
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

    Both matrices are moved into the union id space (``graphs._in_id_space``)
    and their rows compared there without renormalization; returns (value,
    number of common vertices averaged over).
    """
    common = np.intersect1d(p.ids, q.ids)
    if common.size == 0:
        raise ValueError("transition matrices share no vertices")
    if np.array_equal(p.ids, q.ids):
        return tv_distance(p, q), int(common.size)
    union = _sorted_unique(np.concatenate([p.ids, q.ids]))
    diff = (_in_id_space(p.matrix, p.ids, union) - _in_id_space(q.matrix, q.ids, union)).tocsr()
    total = np.abs(diff[np.searchsorted(union, common)].data).sum()
    return float(0.5 * total / common.size), int(common.size)
