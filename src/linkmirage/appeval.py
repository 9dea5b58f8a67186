"""Application-level evaluators: anonymity degradation over time,
de-anonymization sampling probability, and a small Sybil-defense harness."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, TemporalGraphSequence, _id_array, _in_id_space, _sorted_unique
from .synth import er_graph


def attack_probability(perturbed, v: int, f: float) -> np.ndarray:
    """P_t = 1 - (1-f)^(size of the cumulative perturbed neighbor union of v)."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("malicious probability f must lie in [0, 1]")
    union = set()
    out = []
    for g in perturbed:
        if not g.has_vertex(v):
            raise KeyError(f"vertex {v} absent from a perturbed snapshot")
        union.update(int(w) for w in g.neighbors(v))
        out.append(1.0 - (1.0 - f) ** len(union))
    return np.asarray(out)


def _k_hop_edges(graph: Graph, k: int) -> sp.csr_matrix:
    """Pairs of vertices at distance <= k, as an n x n bool CSR pattern over
    the graph's positions that holds only the strict upper triangle.

    The pattern is that of A (A + I)^(k-1), whose strict upper triangle is
    the one of (A + I)^k; at k = 1 it is the graph's own upper adjacency.
    Products of bool matrices stay bool (a sum is an or), so no k overflows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.num_vertices
    adj = graph.adjacency(np.ones(2 * graph.num_edges, dtype=bool))
    reach = adj
    if k > 1:
        step = adj + sp.identity(n, dtype=bool, format="csr")
        for _ in range(k - 1):
            reach = reach @ step
    # the strict upper triangle by one filter of the CSR entries, each row
    # kept in place (sp.triu goes through COO)
    row = np.repeat(np.arange(n, dtype=reach.indices.dtype), np.diff(reach.indptr))
    upper = reach.indices > row
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row[upper], minlength=n))])
    return sp.csr_matrix((reach.data[upper], reach.indices[upper], indptr), shape=(n, n))


def k_hop_graph(graph: Graph, k: int) -> Graph:
    """Graph connecting every pair of vertices at distance <= k."""
    pairs = _k_hop_edges(graph, k).tocoo()
    ids = graph.vertices
    return Graph(np.column_stack([ids[pairs.row], ids[pairs.col]]), vertices=ids)


@dataclass(frozen=True)
class SamplingReport:
    probability: float
    perturbed_union_edges: int
    k_hop_union_edges: int
    outside_envelope: int      # perturbed edges not inside the k-hop union


def sampling_report(perturbed, seq: TemporalGraphSequence, k: int) -> SamplingReport:
    """De-anonymization sampling probability with envelope accounting.

    p = |union of perturbed edges| / |union of k-hop edges|. Inter-community
    rewiring can place edges outside the k-hop envelope; those stay in the
    numerator and are counted separately.

    Every snapshot's k-hop pattern and every release's upper adjacency (its
    1-hop pattern) is placed over the positions of one id space, the union
    of all their vertex ids, so each union is a sum of bool sparse matrices
    and the edges outside the envelope are nnz(pert) minus the nnz of the
    elementwise product of pert and khop.
    """
    perturbed = list(perturbed)
    if len(perturbed) != len(seq):
        raise ValueError("perturbed and original sequences are misaligned")
    ids = _sorted_unique(np.concatenate([g.vertices for g in perturbed + list(seq.snapshots)]))

    def union(graphs, hops):
        return reduce(operator.add, (_in_id_space(_k_hop_edges(g, hops), g.vertices, ids)
                                     for g in graphs))

    pert = union(perturbed, 1)
    khop = union(seq.snapshots, k)
    if not khop.nnz:
        raise ValueError("k-hop union is empty (edgeless input)")
    return SamplingReport(probability=pert.nnz / khop.nnz,
                          perturbed_union_edges=pert.nnz,
                          k_hop_union_edges=khop.nnz,
                          outside_envelope=pert.nnz - pert.multiply(khop).nnz)


# -- Sybil defense harness -----------------------------------------------------


@dataclass(frozen=True)
class SybilScenario:
    """A Sybil attack layout: honest region, forged region, attack edges.

    The Sybil region is Erdos-Renyi with the honest region's average degree;
    ``attack_edges`` distinct honest-Sybil pairs connect the two.
    """

    honest_graph: Graph
    sybil_size: int
    attack_edges: int
    walk_length: int
    routes_per_node: int

    def __post_init__(self):
        if min(self.sybil_size, self.attack_edges, self.walk_length, self.routes_per_node) < 1:
            raise ValueError("sybil_size, attack_edges, walk_length and routes_per_node "
                             "must be >= 1")
        pairs = self.honest_graph.num_vertices * self.sybil_size
        if self.attack_edges > pairs:
            raise ValueError(f"attack_edges {self.attack_edges} exceeds the {pairs} "
                             f"honest-Sybil vertex pairs")

    @property
    def honest_ids(self) -> np.ndarray:
        return self.honest_graph.vertices

    def build_combined(self, rng: np.random.Generator) -> Graph:
        honest = self.honest_graph
        n_h = honest.num_vertices
        avg_deg = 2.0 * honest.num_edges / n_h if n_h else 0.0
        first = int(honest.vertices.max()) + 1
        p = min(avg_deg / max(self.sybil_size - 1, 1), 1.0)
        sybil = er_graph(self.sybil_size, p, rng, first_id=first)
        sybil_ids = sybil.vertices
        attack = set()
        while len(attack) < self.attack_edges:
            u = int(honest.vertices[rng.integers(0, n_h)])
            v = int(sybil_ids[rng.integers(0, sybil_ids.size)])
            attack.add((u, v))
        edges = np.vstack([honest.edges, sybil.edges, np.array(list(attack), dtype=np.int64)])
        return Graph(edges, vertices=np.concatenate([honest.vertices, sybil_ids]))


def count_attack_edges(graph: Graph, honest_ids) -> int:
    """Edges of ``graph`` with exactly one endpoint among ``honest_ids``."""
    honest = _id_array(honest_ids)
    edges = graph.edges
    return int(np.count_nonzero(np.isin(edges[:, 0], honest)
                                != np.isin(edges[:, 1], honest)))


def _reverse_positions(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """CSR position of y -> x for every directed position x -> y."""
    n = indptr.size - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # keys row * n + column are sorted: rows in order, each row's columns sorted
    return np.searchsorted(rows * n + indices, indices * n + rows)


def _slot_order(rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.lexsort((keys, rows))`` for nonnegative int ``rows`` below 2**52
    and float ``keys`` in [0, 1), from one float argsort when it can.

    rows + keys / 2 lies in [row, row + 1/2] after rounding, and rounding
    keeps order, so the rows stay apart and each row's keys stay in order.
    Unless rounding made two of these sums equal, their argsort, whatever
    its algorithm, is the one order that lexsort gives. On a few thousand
    slots it takes about a ninth of lexsort's time.
    """
    packed = rows + 0.5 * keys
    order = np.argsort(packed)
    packed = packed[order]
    if (packed[1:] == packed[:-1]).any():
        return np.lexsort((keys, rows))
    return order


def _random_routes(graph: Graph, rng: np.random.Generator,
                   routes_per_node: int, walk_length: int) -> np.ndarray:
    """Tails of random routes, one per vertex per instance.

    Returns a (routes_per_node, n) array of undirected edge ids, the smaller
    of the edge's two directed CSR positions, or -1 for an isolated vertex.
    Each instance draws fresh permutation routing tables: a route entering
    node y through incoming slot s leaves through slot pi_y[s], so routes
    that meet on an edge stay merged; that convergence is what makes honest
    tails intersect.

    An instance makes two draws. First ``rng.random(2m)``, one key per CSR
    slot; sorting the slots by (row, key) (``_slot_order``) lists each
    row's slots in the order of a uniform permutation, so
    ``order[indptr[y] + s]`` is the position of y's slot pi_y[s]. Then one
    ``rng.integers(0, degrees)`` over the vertices with an edge, in vertex
    order, draws every start slot. A route is its current directed position
    e = x -> y, and x sits in y's row at slot rev[e] - indptr[y], so one hop
    is e <- order[rev[e]], taken by all routes at once.
    """
    indptr, indices = graph.csr_adjacency
    degrees = graph.degrees
    rows = np.repeat(np.arange(degrees.size), degrees)
    starts = np.flatnonzero(degrees)
    rev = _reverse_positions(indptr, indices)
    tails = np.full((routes_per_node, degrees.size), -1, dtype=np.int64)
    for instance in range(routes_per_node):
        order = _slot_order(rows, rng.random(indices.size))
        e = indptr[starts] + rng.integers(0, degrees[starts])
        for _ in range(walk_length - 1):
            e = order[rev[e]]
        tails[instance, starts] = np.minimum(e, rev[e])
    return tails


# entries of the honest x honest tail-overlap product formed at once
_OVERLAP_ENTRIES = 1 << 20


def _rejected_pairs(tails: np.ndarray) -> int:
    """Ordered pairs (verifier, suspect), verifier != suspect, whose tails
    in the (routes, honest) array ``tails`` share no edge.

    With H the honest x edge incidence matrix, a pair is accepted when its
    entry of H @ H.T is nonzero. The product is formed a block of rows at a
    time so no dense honest x honest array is ever built.
    """
    n_honest = tails.shape[1]
    has_tail = tails >= 0
    rows = np.broadcast_to(np.arange(n_honest), tails.shape)[has_tail]
    cols = tails[has_tail]
    width = int(cols.max()) + 1 if cols.size else 0
    incidence = sp.csr_matrix((np.ones(cols.size, dtype=np.int32), (rows, cols)),
                              shape=(n_honest, width))
    transpose = incidence.T.tocsr()
    block = max(1, _OVERLAP_ENTRIES // n_honest)
    accepted = sum((incidence[lo:lo + block] @ transpose).nnz
                   for lo in range(0, n_honest, block))
    # a vertex with a route always meets itself; self-pairs are never rejected
    accepted -= int(np.count_nonzero(has_tail.any(axis=0)))
    return n_honest * (n_honest - 1) - accepted


def sybil_eval(scenario: SybilScenario, g_prime: Graph,
               rng: np.random.Generator) -> dict:
    """Simplified SybilLimit run on a (possibly perturbed) combined graph.

    A verifier accepts a suspect when their route tails intersect; the false
    positive rate is the fraction of honest suspects rejected, averaged over
    honest verifiers (self-pairs count as accepted). Also reports the number
    of edges crossing the honest/Sybil cut in ``g_prime``. Cost: two draws
    and one O(m log m) sort of the CSR slots per route instance, the walks
    O(routes * walk_length * n) array work, and the tail overlap a sparse
    product over honest rows; memory is O(m + routes * n) plus one block of
    the product.
    """
    ids = g_prime.vertices
    honest_ids = scenario.honest_ids
    honest = np.searchsorted(ids, honest_ids[np.isin(honest_ids, ids)])
    tails = _random_routes(g_prime, rng, scenario.routes_per_node,
                           scenario.walk_length)
    total = honest.size * honest.size
    fp = _rejected_pairs(tails[:, honest]) / total if total else 0.0
    return {
        "false_positive_rate": fp,
        "attack_edges_after": count_attack_edges(g_prime, honest_ids),
    }
