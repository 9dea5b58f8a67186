"""Per-step counters computed from a release's inputs and outputs.

These are worked out here, outside linkmirage, from the snapshots, the
released edge lists and the records, so they stay valid whatever the library
does internally and can be checked against hand-computed fixtures.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique int64 keys min*n+max of an undirected edge array."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(lo * n + hi)


def m_hop_ball(vertices: np.ndarray, edges: np.ndarray, seeds, m: int) -> set:
    """Vertices within m hops of any seed, by sparse frontier expansion."""
    vertices = np.asarray(vertices, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n = vertices.size
    iu = np.searchsorted(vertices, edges[:, 0])
    iv = np.searchsorted(vertices, edges[:, 1])
    adj = sp.csr_matrix((np.ones(2 * iu.size, dtype=np.int32),
                         (np.concatenate([iu, iv]), np.concatenate([iv, iu]))),
                        shape=(n, n))
    reached = np.zeros(n, dtype=bool)
    seed_ids = np.asarray(sorted(int(s) for s in seeds), dtype=np.int64)
    pos = np.searchsorted(vertices, seed_ids)
    ok = (pos < n) & (vertices[np.minimum(pos, n - 1)] == seed_ids)
    reached[pos[ok]] = True
    frontier = reached.copy()
    for _ in range(m):
        nxt = (adj @ frontier.astype(np.int32)) > 0
        frontier = nxt & ~reached
        if not frontier.any():
            break
        reached |= frontier
    return set(vertices[reached].tolist())


def freed_fraction(prev_vertices, prev_edges, vertices, edges, m: int) -> float:
    """Share of current vertices the m-hop rule frees: the m-hop ball around
    every endpoint of a changed link, plus vertices new at this step."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return 0.0
    n = int(max(vertices.max(initial=0), np.max(prev_vertices, initial=0))) + 1
    changed = np.setxor1d(_edge_keys(prev_edges, n), _edge_keys(edges, n))
    seeds = set((changed // n).tolist()) | set((changed % n).tolist())
    freed = m_hop_ball(vertices, edges, seeds, m)
    freed |= set(np.setdiff1d(vertices, prev_vertices).tolist())
    return len(freed) / vertices.size


def unmatched_communities(prev: dict, cur: dict, theta: float) -> int:
    """Current communities left unmatched by greedy one-to-one matching on
    vertex Jaccard overlap >= theta (largest overlap first)."""
    owner = {v: label for label, members in prev.items() for v in members}
    candidates = []
    for c_label, c_members in cur.items():
        for p_label in {owner[v] for v in c_members if v in owner}:
            p_members = prev[p_label]
            jaccard = len(c_members & p_members) / len(c_members | p_members)
            if jaccard >= theta:
                candidates.append((-jaccard, p_label, c_label))
    candidates.sort()
    used_prev, used_cur = set(), set()
    for _, p_label, c_label in candidates:
        if p_label not in used_prev and c_label not in used_cur:
            used_prev.add(p_label)
            used_cur.add(c_label)
    return len(cur) - len(used_cur)


def release_counters(snapshots, released, communities, theta: float,
                     m: int) -> dict:
    """Counters of one temporal release.

    ``snapshots`` and ``released`` are per-timestamp (vertices, edges) pairs
    of the input and the output; ``communities`` holds one
    {label: frozenset(members)} dict per timestamp, as recorded.
    """
    freed, changed, total, reused, released_edges = [], 0, 0, 0, 0
    for t in range(1, len(snapshots)):
        freed.append(freed_fraction(*snapshots[t - 1], *snapshots[t], m))
        changed += unmatched_communities(communities[t - 1], communities[t], theta)
        total += len(communities[t])
        n = int(max(np.max(released[t - 1][0], initial=0),
                    np.max(released[t][0], initial=0))) + 1
        now = _edge_keys(released[t][1], n)
        reused += int(np.intersect1d(now, _edge_keys(released[t - 1][1], n)).size)
        released_edges += int(now.size)
    return {
        "clustering.freed_frac": float(np.mean(freed)) if freed else 0.0,
        "clustering.communities_t0": len(communities[0]),
        "clustering.communities": len(communities[-1]),
        "perturb.changed_frac": changed / total if total else 0.0,
        "perturb.reused_edge_frac": reused / released_edges if released_edges else 0.0,
    }


def posterior_match_fraction(estimate) -> float:
    """Matching re-perturbations / drawn ones, recovered from the add-one
    smoothed likelihoods (c + 1) / (n + 2) of both hypothesis worlds."""
    n = estimate.samples
    matches = sum(round(like * (n + 2) - 1)
                  for like in (estimate.likelihood_with, estimate.likelihood_without))
    return matches / (2.0 * n)
