"""Greedy maximum-modularity clustering and dynamic re-clustering.

The static clusterer is the agglomerative scheme: start from singletons and
repeatedly merge the connected pair of communities with the largest positive
modularity gain. The dynamic step works from the previous partition: on
graph evolution, vertices near changed links are freed from their previous
communities, the untouched remainder of each community is frozen into one
virtual node, and the agglomeration is re-run over virtual nodes plus freed
singletons. Both are one call of ``_agglomerate(graph, basis)``, whose basis
is the singletons or the frozen remainders plus freed singletons, and both
return only the resulting partition.

Community labels are the minimum member vertex id, which makes merges and
tie-breaking deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graphs import _MAX_ID, Graph, _edge_keys, _sorted_unique


@dataclass(frozen=True, eq=False)
class Clustering:
    """A partition of a vertex set: each vertex's community label (the
    smallest id of its community), looked up through ``label_of``."""

    vertices: np.ndarray        # sorted int64 ids
    labels: np.ndarray          # community label of each vertex

    @staticmethod
    def from_groups(groups) -> "Clustering":
        groups = [_sorted_unique(np.fromiter(map(int, g), dtype=np.int64)) for g in groups]
        if any(g.size == 0 for g in groups):
            raise ValueError("empty community")
        ids = np.concatenate([np.empty(0, np.int64), *groups])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        twice = np.flatnonzero(ids[1:] == ids[:-1])
        if twice.size:
            raise ValueError(f"vertex {ids[twice[0]]} assigned twice")
        keys = np.repeat(np.arange(len(groups)), [g.size for g in groups])
        return _grouped(ids, keys[order])

    def label_of(self, ids) -> np.ndarray:
        """Label of every id in ``ids`` (any shape); -1 where the id is absent."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.vertices.size == 0:
            return np.full(ids.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.vertices, ids), self.vertices.size - 1)
        return np.where(self.vertices[pos] == ids, self.labels[pos], -1)

    @property
    def communities(self) -> dict:
        """Label -> frozenset of member ids, labels ascending; built on each
        read, so bind it once (``len`` counts communities without it)."""
        order = np.argsort(self.labels, kind="stable")
        labels, starts = np.unique(self.labels[order], return_index=True)
        members = np.split(self.vertices[order], starts[1:])
        return {label: frozenset(m.tolist()) for label, m in zip(labels.tolist(), members)}

    def __len__(self) -> int:
        # each community holds exactly one vertex that is its own label
        return int(np.count_nonzero(self.labels == self.vertices))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Clustering) and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.labels, other.labels))


def _grouped(ids: np.ndarray, keys: np.ndarray) -> Clustering:
    """The partition of sorted ``ids`` that puts equal ``keys`` together."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return Clustering(vertices=ids, labels=ids[first][inverse])


@dataclass(frozen=True)
class CommunityDiff:
    """Changed/unchanged split of current communities against the previous ones."""

    unchanged: list             # (previous label, current label) matched pairs
    changed: list               # current labels with no match above threshold

    @property
    def prev_for(self) -> dict:
        return {cur: prev for prev, cur in self.unchanged}


def _edge_communities(graph: Graph, clustering: Clustering) -> tuple[np.ndarray, np.ndarray]:
    """(labels, ends): the community labels of the graph's vertices,
    ascending and distinct, and the index in ``labels`` of both endpoints of
    every edge, shape (m, 2). Indices order as their labels do.

    Raises ValueError when ``clustering`` leaves a vertex of ``graph`` out.
    """
    labels = clustering.label_of(graph.vertices)
    if (labels < 0).any():
        raise ValueError("clustering does not cover every vertex of the graph")
    labels, comm = np.unique(labels, return_inverse=True)
    return labels, comm[graph.edge_positions]


def modularity(graph: Graph, clustering: Clustering) -> float:
    """Newman modularity Q = sum_c [e_c/m - (d_c/2m)^2]; 0 for edgeless graphs."""
    m = graph.num_edges
    if m == 0:
        return 0.0
    if not np.array_equal(clustering.vertices, graph.vertices):
        raise ValueError("clustering does not partition the graph's vertices")
    # community indices in ascending label order, which is the order of
    # ``clustering.communities``; the sum below runs in that order too
    labels, ends = _edge_communities(graph, clustering)
    intra = np.bincount(ends[ends[:, 0] == ends[:, 1], 0], minlength=labels.size)
    d = np.bincount(ends.ravel(), minlength=labels.size)
    q = 0.0
    for e_c, d_c in zip(intra.tolist(), d.tolist()):
        q += e_c / m - (d_c / (2.0 * m)) ** 2
    return q


def _agglomerate(graph: Graph, basis: Clustering) -> tuple[Clustering, list]:
    """Exact lazy-greedy agglomeration over the communities of a basis.

    The basis is a ``Clustering`` of the graph's vertices; edge weights
    between its communities count underlying graph edges, so quotient
    modularity equals modularity of the expanded partition. Gain of merging
    a,b is w_ab/m - 2*s_a*s_b, with s_c = d_c/2m.

    The heap is lazy (Minoux's accelerated greedy). Invariant: every live
    pair with a positive gain has an entry whose key is at least its current
    gain. When b merges into a, only the pairs (a, x) with x adjacent to b
    can gain, and only those are pushed. Every other pair (a, y) keeps its
    old key as an upper bound: w_ay is fixed, s_a only grows, and float
    multiply and subtract round monotonically. A popped entry whose key
    differs from the recomputed gain is pushed again with that gain, or
    dropped when it is not positive. So the first popped entry whose key
    equals its gain is the maximum-gain pair, ties broken on the smallest
    (a, b) with a < b, and the merge sequence is the one an eagerly re-keyed
    heap would produce.

    Every community is held as its owner index 0..L-1, its rank among the
    basis labels: strengths, liveness and neighbor weights are lists over
    owners, and heap entries name owners. Owners ascend with labels, so
    every comparison of pairs, ties included, is the comparison of their
    labels; labels are read back only for the events and the partition. The
    initial gains are one array expression with the float operations of the
    loop, and the initial heap is their positive entries sorted on
    ``(-gain, a, b)``, which is already a heap.

    An entry that names a merged-away owner is dead: it is skipped whenever
    it is popped. A merge of b kills the entries of b's other pairs and any
    further entry of (a, b), about ``len(nbr_b) + 1``; a running count of
    these, less the dead pops, estimates how many the heap holds. When a
    merge leaves that count above half the heap, the heap is rebuilt from
    the entries whose two owners are both live. This is exact:
    keys ``(-gain, a, b)`` are totally ordered and a dead entry is never
    acted on, so dropping dead entries cannot change the pop sequence of the
    live ones; the count only decides when the rebuild happens. Returns the
    partition and the merge events ``(a, b, gain)`` in labels, b merged into
    a, in merge order.
    """
    m = graph.num_edges
    if m == 0:
        return basis, []
    labels, owner = np.unique(basis.labels, return_inverse=True)
    size = labels.size
    strength = np.bincount(owner, weights=graph.degrees, minlength=size) / (2.0 * m)

    # the canonical (a, b) owner pairs, a < b, of the cross edges, weighted
    # by their edge counts
    ends = owner[graph.edge_positions]
    ends = ends[ends[:, 0] != ends[:, 1]]
    keys, weights = np.unique(np.minimum(ends[:, 0], ends[:, 1]) * size
                              + np.maximum(ends[:, 0], ends[:, 1]), return_counts=True)
    lower, upper = np.divmod(keys, size)
    # every reference to owner i is to the one int owners[i], in the dicts
    # and in the heap alike, not to one int per array element read
    owners = list(range(size))
    neighbors = [{} for _ in owners]        # owner -> {owner: weight}
    for a, b, w in zip(map(owners.__getitem__, lower.tolist()),
                       map(owners.__getitem__, upper.tolist()), weights.tolist()):
        neighbors[a][b] = neighbors[b][a] = w
    # the loop's gain, with the same float operations in the same order; a
    # pair's gain can only rise when a merge brings it new cross weight, and
    # those pairs are pushed then, so non-positive candidates are dropped
    # here and below
    gain = weights / m - 2.0 * strength[lower] * strength[upper]
    up = np.flatnonzero(gain > 0.0)
    up = up[np.lexsort((upper[up], lower[up], -gain[up]))]
    heap = list(zip((-gain[up]).tolist(), map(owners.__getitem__, lower[up].tolist()),
                    map(owners.__getitem__, upper[up].tolist())))
    strength = strength.tolist()

    events = []
    into = list(range(size))    # the owner each owner merged into; itself while live
    dead = 0                    # estimated dead entries in the heap
    while heap:
        neg_gain, a, b = heapq.heappop(heap)
        if into[a] != a or into[b] != b:
            dead -= 1
            continue
        gain = neighbors[a].get(b, 0) / m - 2.0 * strength[a] * strength[b]
        if gain != -neg_gain:
            if gain > 0.0:
                heapq.heappush(heap, (-gain, a, b))
            continue
        # b merges into a, the smaller owner
        events.append((a, b, gain))
        into[b] = a
        strength[a] += strength[b]
        nbr_a, nbr_b = neighbors[a], neighbors[b]
        neighbors[b] = None
        nbr_a.pop(b, None)
        nbr_b.pop(a, None)
        for x, w in nbr_b.items():
            nbr_x = neighbors[x]
            del nbr_x[b]
            nbr_x[a] = nbr_a[x] = w_ax = nbr_a.get(x, 0) + w
            lo, hi = (a, x) if a < x else (x, a)
            gain = w_ax / m - 2.0 * strength[lo] * strength[hi]
            if gain > 0.0:
                heapq.heappush(heap, (-gain, lo, hi))
        dead += len(nbr_b) + 1
        if 2 * dead > len(heap):
            heap = [e for e in heap if into[e[1]] == e[1] and into[e[2]] == e[2]]
            heapq.heapify(heap)
            dead = 0

    # an owner merges only into a smaller one, so in ascending order each
    # target's final owner is known before it is read
    for b in range(size):
        into[b] = into[into[b]]
    names = labels.tolist()
    events = [(names[a], names[b], gain) for a, b, gain in events]
    return Clustering(vertices=basis.vertices, labels=labels[into][owner]), events


def cluster_static(graph: Graph) -> Clustering:
    """Greedy maximum-modularity clustering from singletons.

    Merges stop when no connected pair has a positive modularity gain. Ties
    break on the lexicographically smallest (min label, max label) pair, so
    the result is deterministic.
    """
    if graph.num_vertices == 0:
        raise ValueError("cannot cluster an empty graph")
    clustering, _ = _agglomerate(graph, Clustering(vertices=graph.vertices,
                                                   labels=graph.vertices))
    return clustering


def _freed_mask(graph: Graph, changed_links, m_hops: int) -> np.ndarray:
    """Per vertex position: within m hops of any endpoint of the changed links."""
    if m_hops < 0:
        raise ValueError("freeing radius m must be >= 0")
    return graph._near(np.asarray(list(changed_links), dtype=np.int64).reshape(-1), m_hops)


def freed_vertices(graph: Graph, changed_links, m_hops: int) -> set:
    """Vertices of ``graph`` within m hops of any endpoint of the changed links."""
    return set(graph.vertices[_freed_mask(graph, changed_links, m_hops)].tolist())


def recluster_dynamic(graph: Graph, prev: Clustering, changed_links,
                      m_hops: int) -> Clustering:
    """Re-cluster a snapshot starting from the previous partition ``prev``.

    Frees every vertex within ``m_hops`` of a changed link plus all new
    vertices from its previous community; each previous community minus its
    freed (or departed) members is frozen into one virtual node; the greedy
    agglomeration then runs over virtual nodes and freed singletons. The
    frozen previous partition itself is kept as a candidate, so the result is
    never worse than not re-clustering. A freed or new vertex is grouped
    alone under the key -1 - id, which no label (a nonnegative id) equals.
    """
    ids = graph.vertices
    prev_labels = prev.label_of(ids)
    new = prev_labels < 0
    freed = new | _freed_mask(graph, changed_links, m_hops)
    greedy_clustering, _ = _agglomerate(graph, _grouped(ids, np.where(freed, -1 - ids,
                                                                      prev_labels)))
    frozen_clustering = _grouped(ids, np.where(new, -1 - ids, prev_labels))
    if modularity(graph, frozen_clustering) > modularity(graph, greedy_clustering) + 1e-15:
        return frozen_clustering
    return greedy_clustering


def changed_link_set(prev_graph: Graph, cur_graph: Graph) -> set:
    """Symmetric difference of edge sets; covers edges of added/removed vertices."""
    # edge keys over the union of the two vertex sets ascend, so each graph's
    # rows missing from the other are found by binary search; only the
    # changed rows become Python tuples
    ids = _sorted_unique(np.concatenate([prev_graph.vertices, cur_graph.vertices]))
    prev_keys, cur_keys = _edge_keys(prev_graph, ids), _edge_keys(cur_graph, ids)
    changed = np.concatenate([prev_graph.edges[_missing(prev_keys, cur_keys)],
                              cur_graph.edges[_missing(cur_keys, prev_keys)]])
    return set(map(tuple, changed.tolist()))


def _missing(keys: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` absent from ``others``, both ascending edge keys.
    Edge keys stay below the int64 maximum, which is appended to ``others``
    so that every lookup lands on an entry."""
    others = np.append(others, _MAX_ID)
    return others[np.searchsorted(others, keys)] != keys


def classify_communities(prev: Clustering | None, cur: Clustering,
                         theta: float) -> CommunityDiff:
    """Greedy maximum-overlap matching of current to previous communities.

    Pairs with vertex Jaccard overlap >= theta are unchanged; everything
    else, including all communities when there is no previous clustering,
    is changed.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("overlap threshold must lie in (0, 1]")
    cur_labels, cur_index, cur_size = np.unique(cur.labels, return_inverse=True,
                                                return_counts=True)
    if prev is None or not len(prev):
        return CommunityDiff(unchanged=[], changed=cur_labels.tolist())
    prev_labels, prev_size = np.unique(prev.labels, return_counts=True)
    # overlap of every (previous, current) pair sharing a vertex, counted
    # over integer pair keys
    in_prev = prev.label_of(cur.vertices)
    shared = in_prev >= 0
    prev_index = np.searchsorted(prev_labels, in_prev[shared])
    keys, inter = np.unique(prev_index * cur_labels.size + cur_index[shared],
                            return_counts=True)
    pi, ci = np.divmod(keys, cur_labels.size)
    jac = inter / (prev_size[pi] + cur_size[ci] - inter)
    ok = jac >= theta
    candidates = sorted(zip((-jac[ok]).tolist(), prev_labels[pi[ok]].tolist(),
                            cur_labels[ci[ok]].tolist()))
    matched_prev, matched_cur, unchanged = set(), set(), []
    for neg_jac, p, c in candidates:
        if p in matched_prev or c in matched_cur:
            continue
        matched_prev.add(p)
        matched_cur.add(c)
        unchanged.append((p, c))
    changed = [c for c in cur_labels.tolist() if c not in matched_cur]
    unchanged.sort(key=lambda pc: pc[1])
    return CommunityDiff(unchanged=unchanged, changed=changed)
