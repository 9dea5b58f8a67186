"""Application-level evaluators: anonymity degradation over time,
de-anonymization sampling probability, and a small Sybil-defense harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, TemporalGraphSequence, union_graph
from .synth import er_graph
from .utility import is_connected


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


def k_hop_graph(graph: Graph, k: int) -> Graph:
    """Graph connecting every pair of vertices at distance <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.num_vertices
    indptr, indices = graph.csr_adjacency
    adj = sp.csr_matrix((np.ones(indices.size, dtype=bool),
                         indices.copy(), indptr.copy()), shape=(n, n), dtype=bool)
    reach = adj.copy()
    frontier = adj
    for _ in range(k - 1):
        frontier = (frontier @ adj).astype(bool)
        reach = (reach + frontier).astype(bool)
    reach = sp.triu(reach, k=1).tocoo()
    ids = graph.vertices
    edges = np.column_stack([ids[reach.row], ids[reach.col]])
    return Graph(edges, vertices=ids)


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
    """
    perturbed = list(perturbed)
    if len(perturbed) != len(seq):
        raise ValueError("perturbed and original sequences are misaligned")
    pert_union = union_graph(perturbed).edge_set()
    khop_union = union_graph([k_hop_graph(g, k) for g in seq.snapshots]).edge_set()
    if not khop_union:
        raise ValueError("k-hop union is empty (edgeless input)")
    outside = len(pert_union - khop_union)
    return SamplingReport(probability=len(pert_union) / len(khop_union),
                          perturbed_union_edges=len(pert_union),
                          k_hop_union_edges=len(khop_union),
                          outside_envelope=outside)


def sampling_probability(perturbed, seq: TemporalGraphSequence, k: int) -> float:
    return sampling_report(perturbed, seq, k).probability


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
        if self.attack_edges < 1 or self.walk_length < 1 or self.routes_per_node < 1:
            raise ValueError("attack_edges, walk_length and routes_per_node must be >= 1")

    @property
    def honest_ids(self) -> np.ndarray:
        return self.honest_graph.vertices

    def sybil_ids(self) -> np.ndarray:
        first = int(self.honest_graph.vertices.max()) + 1
        return np.arange(first, first + self.sybil_size, dtype=np.int64)

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
    honest = set(int(v) for v in honest_ids)
    return sum(1 for u, v in graph.edges
               if (int(u) in honest) != (int(v) in honest))


def _random_routes(graph: Graph, rng: np.random.Generator,
                   routes_per_node: int, walk_length: int) -> dict:
    """Tails (last undirected edge) of random routes, one per node per instance.

    Each instance draws fresh permutation routing tables: a route entering
    node y through incoming slot s leaves through slot pi_y[s], so routes
    that meet on an edge stay merged; that convergence is what makes honest
    tails intersect.
    """
    indptr, indices = graph.csr_adjacency
    n = graph.num_vertices
    ids = graph.vertices
    tails = {int(v): set() for v in ids}

    # slot of edge (x -> y) inside y's sorted adjacency, for table lookups
    def slot(y: int, x: int) -> int:
        row = indices[indptr[y]:indptr[y + 1]]
        return int(np.searchsorted(row, x))

    for _instance in range(routes_per_node):
        tables = [rng.permutation(int(indptr[v + 1] - indptr[v])) for v in range(n)]
        for v in range(n):
            deg = int(indptr[v + 1] - indptr[v])
            if not deg:
                continue
            first = int(rng.integers(0, deg))
            prev, cur = v, int(indices[indptr[v] + first])
            for _ in range(walk_length - 1):
                out_slot = int(tables[cur][slot(cur, prev)])
                nxt = int(indices[indptr[cur] + out_slot])
                prev, cur = cur, nxt
            a, b = int(ids[prev]), int(ids[cur])
            tails[int(ids[v])].add((min(a, b), max(a, b)))
    return tails


def sybil_eval(scenario: SybilScenario, g_prime: Graph,
               rng: np.random.Generator) -> dict:
    """Simplified SybilLimit run on a (possibly perturbed) combined graph.

    A verifier accepts a suspect when their route tails intersect; the false
    positive rate is the fraction of honest suspects rejected, averaged over
    honest verifiers. Also reports the number of edges crossing the
    honest/Sybil cut in ``g_prime``.
    """
    honest = [int(v) for v in scenario.honest_ids if g_prime.has_vertex(v)]
    tails = _random_routes(g_prime, rng, scenario.routes_per_node,
                           scenario.walk_length)
    rejected = 0
    total = 0
    for verifier in honest:
        vt = tails[verifier]
        for suspect in honest:
            total += 1
            if suspect == verifier:
                continue
            if not (vt & tails[suspect]):
                rejected += 1
    fp = rejected / total if total else 0.0
    honest_sub = g_prime.subgraph(scenario.honest_ids)
    return {
        "false_positive_rate": fp,
        "attack_edges_after": count_attack_edges(g_prime, scenario.honest_ids),
        "honest_connected": is_connected(honest_sub),
    }
