"""Greedy maximum-modularity clustering and dynamic re-clustering.

The static clusterer is the agglomerative scheme: start from singletons and
repeatedly merge the connected pair of communities with the largest positive
modularity gain. The dynamic step works from the previous partition: on
graph evolution, vertices near changed links are freed from their previous
communities, the untouched remainder of each community is frozen into one
virtual node, and the agglomeration is re-run over virtual nodes plus freed
singletons. Both return only the resulting partition.

Community labels are the minimum member vertex id, which makes merges and
tie-breaking deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _edge_keys


@dataclass(frozen=True)
class Clustering:
    """A partition of a vertex set: assignment and its inverse."""

    assignment: dict            # vertex id -> community label
    communities: dict           # community label -> frozenset of vertex ids

    @staticmethod
    def from_groups(groups) -> "Clustering":
        communities = {}
        assignment = {}
        for g in groups:
            members = frozenset(int(v) for v in g)
            if not members:
                raise ValueError("empty community")
            label = min(members)
            communities[label] = members
            for v in members:
                if v in assignment:
                    raise ValueError(f"vertex {v} assigned twice")
                assignment[v] = label
        return Clustering(assignment=assignment, communities=communities)

    def __len__(self) -> int:
        return len(self.communities)

    def covers(self, vertices) -> bool:
        return set(self.assignment) == {int(v) for v in vertices}


@dataclass(frozen=True)
class CommunityDiff:
    """Changed/unchanged split of current communities against the previous ones."""

    unchanged: list             # (previous label, current label) matched pairs
    changed: list               # current labels with no match above threshold

    @property
    def prev_for(self) -> dict:
        return {cur: prev for prev, cur in self.unchanged}


def _edge_labels(graph: Graph, clustering: Clustering) -> np.ndarray:
    """Community labels of both endpoints of every edge, shape (m, 2).

    ``clustering`` must assign every vertex of ``graph``.
    """
    labels = np.array([clustering.assignment[v] for v in graph.vertices.tolist()],
                      dtype=np.int64)
    return labels[graph.edge_positions]


def modularity(graph: Graph, clustering: Clustering) -> float:
    """Newman modularity Q = sum_c [e_c/m - (d_c/2m)^2]; 0 for edgeless graphs."""
    m = graph.num_edges
    if m == 0:
        return 0.0
    if not clustering.covers(graph.vertices):
        raise ValueError("clustering does not partition the graph's vertices")
    # community index of every vertex position, in the order of
    # ``clustering.communities``; the sum below runs in that order too
    index = {label: i for i, label in enumerate(clustering.communities)}
    comm = np.empty(graph.num_vertices, dtype=np.int64)
    comm[np.searchsorted(graph.vertices, list(clustering.assignment))] = \
        [index[label] for label in clustering.assignment.values()]
    ends = comm[graph.edge_positions]
    intra = np.bincount(ends[ends[:, 0] == ends[:, 1], 0], minlength=len(index))
    d = np.bincount(comm, weights=graph.degrees, minlength=len(index))
    q = 0.0
    for e_c, d_c in zip(intra.tolist(), d.tolist()):
        q += e_c / m - (d_c / (2.0 * m)) ** 2
    return q


class _GreedyMerger:
    """Exact lazy-greedy agglomeration over basis elements.

    Elements are vertex sets; edge weights between elements count underlying
    graph edges, so quotient modularity equals modularity of the expanded
    partition. Gain of merging i,j is w_ij/m - 2*a_i*a_j.

    The heap is lazy (Minoux's accelerated greedy). Invariant: every live
    pair with a positive gain has an entry whose key is at least its current
    gain. When ``other`` merges into ``parent``, only the pairs (parent, x)
    with x adjacent to ``other`` can gain, and only those are pushed. Every
    other pair (parent, y) keeps its old key as an upper bound: w_py is
    fixed, a_parent only grows, and float multiply and subtract round
    monotonically. A popped entry whose key differs from the recomputed gain
    is pushed again with that gain, or dropped when it is not positive. So
    the first popped entry whose key equals its gain is the maximum-gain
    pair, ties broken on the smallest (min label, max label), and the merge
    sequence is the one an eagerly re-keyed heap would produce.
    """

    def __init__(self, graph: Graph, basis):
        self.m = graph.num_edges
        self.members = {}
        self.strength = {}      # a_c = d_c / 2m
        self.neighbors = {}     # label -> {other label: cross-edge weight}
        self.events = []        # (child_a, child_b, parent, delta) per merge
        self.heap = []

        verts, owners = [], []
        for elem in basis:
            elem = {int(v) for v in elem}
            label = min(elem)
            self.members[label] = elem
            verts.extend(elem)
            owners.extend([label] * len(elem))
        if self.m == 0:
            return
        ids = graph.vertices
        owner = np.empty(ids.size, dtype=np.int64)
        owner[np.searchsorted(ids, verts)] = owners
        labels, owner_idx = np.unique(owner, return_inverse=True)
        strength = np.bincount(owner_idx, weights=graph.degrees,
                               minlength=labels.size) / (2.0 * self.m)
        self.strength = dict(zip(labels.tolist(), strength.tolist()))
        self.neighbors = {label: {} for label in self.strength}

        # canonical (lower, upper) owner-index pairs of the cross edges
        ends = owner_idx[graph.edge_positions]
        ends = ends[ends[:, 0] != ends[:, 1]]
        keys, weights = np.unique(ends.min(axis=1) * labels.size + ends.max(axis=1),
                                  return_counts=True)
        lo, hi = np.divmod(keys, labels.size)
        for a, b, w in zip(labels[lo].tolist(), labels[hi].tolist(), weights.tolist()):
            self.neighbors[a][b] = self.neighbors[b][a] = w
            self._push(a, b)

    def _gain(self, a: int, b: int) -> float:
        w = self.neighbors[a].get(b, 0)
        return w / self.m - 2.0 * self.strength[a] * self.strength[b]

    def _push(self, a: int, b: int) -> None:
        a, b = (a, b) if a < b else (b, a)
        gain = self._gain(a, b)
        # a pair's gain can only rise when a merge brings it new cross weight,
        # and _merge pushes exactly those pairs, so non-positive candidates
        # can safely be dropped here
        if gain > 0.0:
            heapq.heappush(self.heap, (-gain, a, b))

    def run(self) -> None:
        heap = self.heap
        while heap:
            neg_gain, a, b = heapq.heappop(heap)
            if a not in self.members or b not in self.members:
                continue
            gain = self._gain(a, b)
            if gain == -neg_gain:
                self._merge(a, b, gain)
            elif gain > 0.0:
                heapq.heappush(heap, (-gain, a, b))

    def _merge(self, a: int, b: int, gain: float) -> None:
        parent = min(a, b)
        other = max(a, b)
        self.events.append((a, b, parent, gain))
        small, large = self.members[parent], self.members.pop(other)
        if len(small) > len(large):
            small, large = large, small
        large |= small
        self.members[parent] = large
        self.strength[parent] += self.strength.pop(other)
        nbr_p = self.neighbors[parent]
        nbr_o = self.neighbors.pop(other)
        nbr_p.pop(other, None)
        nbr_o.pop(parent, None)
        for x, w in nbr_o.items():
            nbr_x = self.neighbors[x]
            del nbr_x[other]
            nbr_x[parent] = nbr_p[x] = nbr_p.get(x, 0) + w
            self._push(parent, x)

    def clustering(self) -> Clustering:
        return Clustering.from_groups(self.members.values())


def cluster_static(graph: Graph) -> Clustering:
    """Greedy maximum-modularity clustering from singletons.

    Merges stop when no connected pair has a positive modularity gain. Ties
    break on the lexicographically smallest (min label, max label) pair, so
    the result is deterministic.
    """
    if graph.num_vertices == 0:
        raise ValueError("cannot cluster an empty graph")
    merger = _GreedyMerger(graph, [{int(v)} for v in graph.vertices])
    merger.run()
    return merger.clustering()


def freed_vertices(graph: Graph, changed_links, m_hops: int) -> set:
    """Vertices of ``graph`` within m hops of any endpoint of the changed links."""
    ids = graph.vertices
    ends = np.asarray(list(changed_links), dtype=np.int64).reshape(-1)
    seeds = np.flatnonzero(np.isin(ids, ends))
    return set(ids[graph.hops(seeds, m_hops) >= 0].tolist())


def recluster_dynamic(graph: Graph, prev: Clustering, changed_links,
                      m_hops: int) -> Clustering:
    """Re-cluster a snapshot starting from the previous partition ``prev``.

    Frees every vertex within ``m_hops`` of a changed link plus all new
    vertices from its previous community; each previous community minus its
    freed (or departed) members is frozen into one virtual node; the greedy
    agglomeration then runs over virtual nodes and freed singletons. The
    frozen previous partition itself is kept as a candidate, so the result is
    never worse than not re-clustering.
    """
    present = set(int(v) for v in graph.vertices)
    new_vertices = present - set(prev.assignment)
    freed = freed_vertices(graph, changed_links, m_hops) | new_vertices

    basis = []
    for members in prev.communities.values():
        kept = (set(members) & present) - freed
        if kept:
            basis.append(kept)
    basis.extend({v} for v in sorted(freed))

    merger = _GreedyMerger(graph, basis)
    merger.run()
    greedy_clustering = merger.clustering()

    frozen_groups = [g for g in ((set(members) & present)
                                 for members in prev.communities.values()) if g]
    frozen_groups.extend({v} for v in sorted(new_vertices))
    frozen_clustering = Clustering.from_groups(frozen_groups)

    if modularity(graph, frozen_clustering) > modularity(graph, greedy_clustering) + 1e-15:
        return frozen_clustering
    return greedy_clustering


def changed_link_set(prev_graph: Graph, cur_graph: Graph) -> set:
    """Symmetric difference of edge sets; covers edges of added/removed vertices."""
    # set operations on row keys find the changed rows; only those become
    # Python tuples
    prev, cur = prev_graph.edges, cur_graph.edges
    prev_keys, cur_keys = _edge_keys(prev, cur)
    changed = np.concatenate([prev[~np.isin(prev_keys, cur_keys, assume_unique=True)],
                              cur[~np.isin(cur_keys, prev_keys, assume_unique=True)]])
    return set(map(tuple, changed.tolist()))


def classify_communities(prev: Clustering | None, cur: Clustering,
                         theta: float) -> CommunityDiff:
    """Greedy maximum-overlap matching of current to previous communities.

    Pairs with vertex Jaccard overlap >= theta are unchanged; everything
    else, including all communities when there is no previous clustering,
    is changed.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("overlap threshold must lie in (0, 1]")
    if prev is None or not prev.communities:
        return CommunityDiff(unchanged=[], changed=sorted(cur.communities))
    candidates = []
    for cur_label, cur_members in cur.communities.items():
        seen = set()
        for v in cur_members:
            p = prev.assignment.get(v)
            if p is None or p in seen:
                continue
            seen.add(p)
            prev_members = prev.communities[p]
            inter = len(cur_members & prev_members)
            jac = inter / len(cur_members | prev_members)
            if jac >= theta:
                candidates.append((-jac, p, cur_label))
    candidates.sort()
    matched_prev, matched_cur, unchanged = set(), set(), []
    for neg_jac, p, c in candidates:
        if p in matched_prev or c in matched_cur:
            continue
        matched_prev.add(p)
        matched_cur.add(c)
        unchanged.append((p, c))
    changed = sorted(set(cur.communities) - matched_cur)
    unchanged.sort(key=lambda pc: pc[1])
    return CommunityDiff(unchanged=unchanged, changed=changed)
