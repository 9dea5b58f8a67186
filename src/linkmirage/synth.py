"""Synthetic graph generators: Erdos-Renyi, planted partitions, evolving sequences."""

from __future__ import annotations

import numpy as np

from .clustering import Clustering
from .graphs import Graph, TemporalGraphSequence


def _sample_pairs(edges: set, n_left, n_right, count, rng, offset_left=0, offset_right=0):
    """Add ``count`` distinct vertex pairs (u, v), u < v, to the set ``edges``
    by rejection, in place; O(count) expected.

    u is drawn from offset_left + [0, n_left) and v from offset_right +
    [0, n_right). A pair already in ``edges`` and a pair with u == v are
    rejected, so every generator grows one edge set and never copies it.
    """
    target = len(edges) + count
    while len(edges) < target:
        need = target - len(edges)
        a = rng.integers(0, n_left, size=2 * need + 4) + offset_left
        b = rng.integers(0, n_right, size=2 * need + 4) + offset_right
        for u, v in zip(a.tolist(), b.tolist()):
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in edges:
                continue
            edges.add(key)
            if len(edges) == target:
                break


def er_graph(n: int, p: float, rng: np.random.Generator, first_id: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) with vertex ids first_id..first_id+n-1."""
    total = n * (n - 1) // 2
    m = int(rng.binomial(total, p)) if total else 0
    edges = set()
    _sample_pairs(edges, n, n, min(m, total), rng, offset_left=first_id, offset_right=first_id)
    return Graph(edges, vertices=range(first_id, first_id + n))


def planted_partition_graph(sizes, p_in: float, p_out: float,
                            rng: np.random.Generator) -> tuple[Graph, Clustering]:
    """Planted-partition graph on ids 0..n-1; returns the graph and its true
    block partition."""
    starts = np.concatenate([[0], np.cumsum(sizes)])
    edges = set()
    blocks = []
    for bi, size in enumerate(sizes):
        lo = int(starts[bi])
        blocks.append(range(lo, lo + size))
        total = size * (size - 1) // 2
        m = int(rng.binomial(total, p_in)) if total else 0
        _sample_pairs(edges, size, size, min(m, total), rng, offset_left=lo, offset_right=lo)
    for bi in range(len(sizes)):
        for bj in range(bi + 1, len(sizes)):
            total = sizes[bi] * sizes[bj]
            m = int(rng.binomial(total, p_out)) if total else 0
            _sample_pairs(edges, sizes[bi], sizes[bj], min(m, total), rng,
                          offset_left=int(starts[bi]), offset_right=int(starts[bj]))
    n = int(sum(sizes))
    graph = Graph(edges, vertices=range(n))
    return graph, Clustering.from_groups(blocks)


RING_WIDTH = 3      # clockwise neighbours each ring_of_blocks block is wired to


def ring_of_blocks(n_blocks: int, block_size: int, p_in: float,
                   inter_per_pair: int, rng: np.random.Generator) -> Graph:
    """Blocks on a ring, each wired to its ``RING_WIDTH`` clockwise neighbors.

    The community quotient has bounded degree, so the per-community local
    structure stays constant as the graph grows; the family is used for
    edge-count scaling experiments. With fewer than RING_WIDTH + 1 blocks a
    block pair is wired more than once, each time with ``inter_per_pair``
    new edges.
    """
    edges = set()
    for b in range(n_blocks):
        base = b * block_size
        total = block_size * (block_size - 1) // 2
        m = int(rng.binomial(total, p_in)) if total else 0
        _sample_pairs(edges, block_size, block_size, min(m, total), rng,
                      offset_left=base, offset_right=base)
    for b in range(n_blocks):
        for d in range(1, RING_WIDTH + 1):
            c = (b + d) % n_blocks
            if c == b:
                continue
            _sample_pairs(edges, block_size, block_size, inter_per_pair, rng,
                          offset_left=b * block_size, offset_right=c * block_size)
    return Graph(edges, vertices=range(n_blocks * block_size))


def evolving_sequence(sizes, p_in: float, p_out: float, length: int,
                      overlap: float, rng: np.random.Generator,
                      keep_edge=None,
                      new_vertices_per_step: int = 0,
                      churn_blocks=None) -> TemporalGraphSequence:
    """Temporal planted-partition sequence with a target edge overlap.

    Each step keeps ~``overlap`` of the previous edges, replaces the rest by
    fresh block-model edges, and optionally attaches new vertices to random
    blocks. ``keep_edge`` (u, v) is protected from churn so query links can
    persist across the whole sequence. ``churn_blocks`` restricts churn to
    the given block indices (localized evolution, the regime where selective
    perturbation has communities to reuse); None churns everywhere.
    """
    if not 0.0 < overlap <= 1.0:
        raise ValueError("overlap must lie in (0, 1]")
    sizes = list(sizes)
    g0, blocks = planted_partition_graph(sizes, p_in, p_out, rng)
    protected = None
    if keep_edge is not None:
        u, v = int(keep_edge[0]), int(keep_edge[1])
        protected = (min(u, v), max(u, v))
        g0 = Graph(np.vstack([g0.edges, [protected]]), vertices=g0.vertices)
    block_members = {lab: sorted(mem) for lab, mem in blocks.communities.items()}
    next_id = int(g0.vertices.max()) + 1
    all_labels = sorted(block_members)
    churn_labels = all_labels if churn_blocks is None \
        else [all_labels[i] for i in churn_blocks]
    churn_vertices = set()
    for lab in churn_labels:
        churn_vertices.update(block_members[lab])

    snaps = [g0]
    for _ in range(1, length):
        prev = snaps[-1]
        edge_list = [tuple(e) for e in prev.edges.tolist()]
        removable = [e for e in edge_list
                     if e != protected
                     and (e[0] in churn_vertices or e[1] in churn_vertices)]
        removable_set = set(removable)
        stable = [e for e in edge_list if e not in removable_set]
        n_churn = int(round((1.0 - overlap) * len(edge_list)))
        n_churn = min(n_churn, len(removable))
        drop_idx = set(rng.choice(len(removable), size=n_churn, replace=False).tolist()) \
            if n_churn else set()
        kept = [e for i, e in enumerate(removable) if i not in drop_idx] + stable

        existing = set(kept)
        added = []
        while len(added) < n_churn:
            bi = churn_labels[int(rng.integers(0, len(churn_labels)))]
            intra = rng.random() < (p_in / (p_in + p_out * max(len(all_labels) - 1, 1)))
            mem_a = block_members[bi]
            if intra and len(mem_a) >= 2:
                u, v = rng.choice(len(mem_a), size=2, replace=False)
                cand = (mem_a[int(u)], mem_a[int(v)])
            else:
                bj = all_labels[int(rng.integers(0, len(all_labels)))]
                if bj == bi:
                    continue
                mem_b = block_members[bj]
                cand = (mem_a[int(rng.integers(0, len(mem_a)))],
                        mem_b[int(rng.integers(0, len(mem_b)))])
            cand = (min(cand), max(cand))
            if cand[0] != cand[1] and cand not in existing:
                existing.add(cand)
                added.append(cand)

        vertices = set(int(x) for x in prev.vertices)
        for _ in range(new_vertices_per_step):
            bi = churn_labels[int(rng.integers(0, len(churn_labels)))]
            mem = block_members[bi]
            v_new = next_id
            next_id += 1
            vertices.add(v_new)
            n_attach = int(rng.integers(1, 4))
            picks = rng.choice(len(mem), size=min(n_attach, len(mem)), replace=False)
            for pi in picks:
                e = (min(v_new, mem[int(pi)]), max(v_new, mem[int(pi)]))
                existing.add(e)
            block_members[bi] = mem + [v_new]

        snaps.append(Graph(existing, vertices=vertices))
    return TemporalGraphSequence(snaps)
