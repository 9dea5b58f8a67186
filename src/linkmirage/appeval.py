"""Application-level evaluators: anonymity degradation over time,
de-anonymization sampling probability, and a small Sybil-defense harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, TemporalGraphSequence, _canonical_edges, _edge_keys, _id_array
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


def _k_hop_edges(graph: Graph, k: int) -> np.ndarray:
    """(lo, hi) id rows of every pair of vertices at distance <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = graph.adjacency(np.ones(2 * graph.num_edges, dtype=bool))
    reach = adj.copy()
    frontier = adj
    for _ in range(k - 1):
        frontier = (frontier @ adj).astype(bool)
        reach = (reach + frontier).astype(bool)
    reach = sp.triu(reach, k=1).tocoo()
    ids = graph.vertices
    return np.column_stack([ids[reach.row], ids[reach.col]])


def k_hop_graph(graph: Graph, k: int) -> Graph:
    """Graph connecting every pair of vertices at distance <= k."""
    return Graph(_k_hop_edges(graph, k), vertices=graph.vertices)


@dataclass(frozen=True)
class SamplingReport:
    probability: float
    perturbed_union_edges: int
    k_hop_union_edges: int
    outside_envelope: int      # perturbed edges not inside the k-hop union


def _union_edges(edge_arrays) -> np.ndarray:
    """Canonical (m, 2) edge array of the union of the given edge arrays."""
    return _canonical_edges(np.concatenate(edge_arrays))


def sampling_report(perturbed, seq: TemporalGraphSequence, k: int) -> SamplingReport:
    """De-anonymization sampling probability with envelope accounting.

    p = |union of perturbed edges| / |union of k-hop edges|. Inter-community
    rewiring can place edges outside the k-hop envelope; those stay in the
    numerator and are counted separately.
    """
    perturbed = list(perturbed)
    if len(perturbed) != len(seq):
        raise ValueError("perturbed and original sequences are misaligned")
    pert_union = _union_edges([g.edges for g in perturbed])
    khop_union = _union_edges([_k_hop_edges(g, k) for g in seq.snapshots])
    if not khop_union.size:
        raise ValueError("k-hop union is empty (edgeless input)")
    pert_keys, khop_keys = _edge_keys(pert_union, khop_union)
    inside = np.isin(pert_keys, khop_keys, assume_unique=True)
    return SamplingReport(probability=len(pert_union) / len(khop_union),
                          perturbed_union_edges=len(pert_union),
                          k_hop_union_edges=len(khop_union),
                          outside_envelope=int(inside.size - np.count_nonzero(inside)))


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
        edges = np.vstack([honest.edges.reshape(-1, 2),
                           sybil.edges.reshape(-1, 2),
                           np.asarray(sorted(attack), dtype=np.int64)])
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


def _random_routes(graph: Graph, rng: np.random.Generator,
                   routes_per_node: int, walk_length: int) -> np.ndarray:
    """Tails of random routes, one per vertex per instance.

    Returns a (routes_per_node, n) array of undirected edge ids, the smaller
    of the edge's two directed CSR positions, or -1 for an isolated vertex.
    Each instance draws fresh permutation routing tables: a route entering
    node y through incoming slot s leaves through slot pi_y[s], so routes
    that meet on an edge stay merged; that convergence is what makes honest
    tails intersect. A route is its current directed position e = x -> y;
    the slot of x in y's row is rev[e] - indptr[y], so with every vertex's
    table laid out along the CSR rows one hop is
    e <- indptr[y] + table[rev[e]], taken by all routes at once.
    """
    indptr, indices = graph.csr_adjacency
    degrees = graph.degrees.tolist()
    starts = np.flatnonzero(graph.degrees)
    start_degrees = graph.degrees[starts].tolist()
    rev = _reverse_positions(indptr, indices)
    tails = np.full((routes_per_node, len(degrees)), -1, dtype=np.int64)
    for instance in range(routes_per_node):
        # the stream order is fixed: every vertex's table (isolated ones
        # included), then one first slot per vertex with an edge, vertex by
        # vertex; a vectorised integers(0, degrees) would draw other numbers
        table = np.concatenate([np.empty(0, dtype=np.int64)]
                               + [rng.permutation(d) for d in degrees])
        first = np.array([rng.integers(0, d) for d in start_degrees], dtype=np.int64)
        e = indptr[starts] + first
        for _ in range(walk_length - 1):
            e = indptr[indices[e]] + table[rev[e]]
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
    of edges crossing the honest/Sybil cut in ``g_prime``. Cost: the route
    draws are O(routes * n) scalar draws, the walks O(routes * walk_length *
    n) array work, and the tail overlap a sparse product over honest rows;
    memory is O(m + routes * n) plus one block of the product.
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
