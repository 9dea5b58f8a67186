import hashlib
import heapq
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from linkmirage import (Clustering, Graph, PerturbParams,
                        changed_link_set, classify_communities, cluster_static,
                        evolving_sequence, freed_vertices, linkmirage_run, modularity,
                        recluster_dynamic, ring_of_blocks)
from linkmirage import clustering as clustering_module
from linkmirage.clustering import _agglomerate
from linkmirage.graphs import _edge_keys
from linkmirage.reporting import json_text


def all_partitions(items):
    """Every partition of ``items`` via restricted growth strings."""
    items = list(items)
    if not items:
        yield []
        return

    def rec(idx, groups):
        if idx == len(items):
            yield [list(g) for g in groups]
            return
        for g in groups:
            g.append(items[idx])
            yield from rec(idx + 1, groups)
            g.pop()
        groups.append([items[idx]])
        yield from rec(idx + 1, groups)
        groups.pop()

    yield from rec(0, [])


def brute_force_modularity(graph, groups):
    """Direct-formula oracle: Q = sum_c [e_c/m - (d_c/2m)^2]."""
    m = graph.num_edges
    if m == 0:
        return 0.0
    q = 0.0
    degree = dict(zip(graph.vertices.tolist(), graph.degrees.tolist()))
    for group in groups:
        members = set(group)
        e_c = sum(1 for u, v in graph.edges if int(u) in members and int(v) in members)
        d_c = sum(degree[v] for v in members)
        q += e_c / m - (d_c / (2 * m)) ** 2
    return q


class EagerMerger:
    """Reference agglomeration that re-keys every pair of a merged community.

    After each merge every (parent, x) pair is pushed again with its fresh
    gain, so the heap always holds the exact gain of every live pair. The
    library's lazy agglomeration must reproduce its merge events exactly.
    """

    def __init__(self, graph, basis):
        self.m = graph.num_edges
        self.members = {}
        self.strength = {}
        self.neighbors = {}
        self.events = []
        self.heap = []
        owner = {}
        for elem in basis:
            elem = frozenset(int(v) for v in elem)
            label = min(elem)
            self.members[label] = set(elem)
            for v in elem:
                owner[v] = label
        if self.m == 0:
            return
        degree = dict(zip(graph.vertices.tolist(), graph.degrees.tolist()))
        for label, mem in self.members.items():
            self.strength[label] = sum(degree[v] for v in mem) / (2.0 * self.m)
            self.neighbors[label] = {}
        for u, v in graph.edges:
            cu, cv = owner[int(u)], owner[int(v)]
            if cu == cv:
                continue
            a, b = (cu, cv) if cu < cv else (cv, cu)
            self.neighbors[a][b] = self.neighbors[a].get(b, 0) + 1
            self.neighbors[b][a] = self.neighbors[b].get(a, 0) + 1
        for a in sorted(self.neighbors):
            for b in sorted(self.neighbors[a]):
                if a < b:
                    self._push(a, b)

    def _gain(self, a, b):
        w = self.neighbors[a].get(b, 0)
        return w / self.m - 2.0 * self.strength[a] * self.strength[b]

    def _push(self, a, b):
        a, b = (a, b) if a < b else (b, a)
        gain = self._gain(a, b)
        if gain > 0.0:
            heapq.heappush(self.heap, (-gain, a, b))

    def run(self):
        while self.heap:
            neg_gain, a, b = heapq.heappop(self.heap)
            if (a not in self.members or b not in self.members
                    or b not in self.neighbors[a]
                    or self._gain(a, b) != -neg_gain):
                continue
            self._merge(a, b, -neg_gain)

    def _merge(self, a, b, gain):
        parent, other = min(a, b), max(a, b)
        self.events.append((a, b, parent, gain))
        self.members[parent] |= self.members.pop(other)
        self.strength[parent] += self.strength.pop(other)
        nbr_p = self.neighbors[parent]
        nbr_o = self.neighbors.pop(other)
        nbr_p.pop(other, None)
        nbr_o.pop(parent, None)
        for x, w in nbr_o.items():
            nbr_p[x] = nbr_p.get(x, 0) + w
            self.neighbors[x].pop(other, None)
        for x in sorted(nbr_p):
            self.neighbors[x][parent] = nbr_p[x]
            self._push(parent, x)


def assert_same_merges(graph, basis):
    """Lazy agglomeration and the eager merger agree event for event.

    Gains are positive and finite, so float equality of ``delta`` is
    equality bit for bit.
    """
    basis = [set(b) for b in basis]
    eager = EagerMerger(graph, basis)
    eager.run()
    clustering, events = _agglomerate(graph, Clustering.from_groups(basis))
    assert all(parent == a for a, _, parent, _ in eager.events)
    assert events == [(a, b, delta) for a, b, _, delta in eager.events]
    assert sorted(map(sorted, clustering.communities.values())) == \
        sorted(map(sorted, eager.members.values()))


# -- modularity ----------------------------------------------------------------


def test_whole_graph_modularity_zero(triangle):
    c = Clustering.from_groups([[0, 1, 2]])
    assert modularity(triangle, c) == pytest.approx(0.0, abs=1e-15)


def test_modularity_two_triangles_bridge_matches_oracle():
    g = Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    groups = [[0, 1, 2], [3, 4, 5]]
    c = Clustering.from_groups(groups)
    assert modularity(g, c) == pytest.approx(brute_force_modularity(g, groups), abs=1e-14)


def test_modularity_edgeless_graph_is_zero():
    g = Graph(vertices=[0, 1, 2])
    assert modularity(g, Clustering.from_groups([[0], [1], [2]])) == 0.0


def test_modularity_random_partitions_match_oracle(rng):
    for _ in range(10):
        g = random_graph(7, 0.45, rng, ensure_edge=True)
        labels = rng.integers(0, 3, size=7)
        groups = [[v for v in range(7) if labels[v] == c] for c in range(3)]
        groups = [grp for grp in groups if grp]
        c = Clustering.from_groups(groups)
        assert modularity(g, c) == pytest.approx(brute_force_modularity(g, groups),
                                                 abs=1e-13)


def test_modularity_sums_in_community_order_bit_for_bit(rng):
    # recluster_dynamic compares two Q values with a 1e-15 margin, so Q must
    # equal the per-community loop exactly, summed in the clustering's order
    for _ in range(20):
        n = int(rng.integers(2, 60))
        g = random_graph(n, rng.uniform(0.05, 0.5), rng, ensure_edge=True)
        labels = rng.integers(0, int(rng.integers(1, 12)), size=n)
        groups = [[v for v in range(n) if labels[v] == c] for c in set(labels)]
        rng.shuffle(groups)
        c = Clustering.from_groups(groups)
        assert modularity(g, c) == brute_force_modularity(g, c.communities.values())


# -- static clustering -----------------------------------------------------------


def test_two_k4_cliques_found_exactly(two_k4_bridge):
    clustering = cluster_static(two_k4_bridge)
    assert set(map(frozenset, clustering.communities.values())) == {
        frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})}

    # exhaustive oracle: the clique split maximizes modularity over all partitions
    best_q, best = -1.0, None
    for parts in all_partitions(range(8)):
        q = brute_force_modularity(two_k4_bridge, parts)
        if q > best_q:
            best_q, best = q, parts
    assert set(map(frozenset, best)) == {frozenset({0, 1, 2, 3}),
                                         frozenset({4, 5, 6, 7})}
    assert modularity(two_k4_bridge, clustering) == pytest.approx(best_q, abs=1e-14)


def greedy_events(graph):
    """(a, b, delta) of every merge from singletons, b merged into a."""
    return _agglomerate(graph, Clustering.from_groups([[v] for v in graph.vertices]))[1]


def test_cluster_static_agglomerates_singletons_once(two_k4_bridge):
    bases = []

    def spy_agglomerate(graph, basis):
        bases.append(basis)
        return _agglomerate(graph, basis)

    with mock.patch.object(clustering_module, "_agglomerate", spy_agglomerate):
        got = cluster_static(two_k4_bridge)
    assert bases == [Clustering.from_groups([[v] for v in two_k4_bridge.vertices])]
    assert got == _agglomerate(two_k4_bridge, bases[0])[0]


def test_single_edge_merges():
    g = Graph([(0, 1)])
    clustering = cluster_static(g)
    assert clustering.communities == {0: frozenset({0, 1})}
    # direct formula: merged Q=0 beats singletons Q=-1/2
    assert brute_force_modularity(g, [[0, 1]]) > brute_force_modularity(g, [[0], [1]])
    events = greedy_events(g)
    assert events == [(0, 1, events[0][2])] and events[0][2] > 0


def test_edgeless_graph_stays_singletons():
    g = Graph(vertices=[0, 1, 2, 3])
    clustering = cluster_static(g)
    assert len(clustering) == 4
    assert greedy_events(g) == []


def test_greedy_deltas_positive_and_sum_to_modularity(rng):
    for _ in range(10):
        g = random_graph(12, 0.3, rng, ensure_edge=True)
        clustering = cluster_static(g)
        deltas = [delta for _, _, delta in greedy_events(g)]
        assert all(delta > 0 for delta in deltas)
        m = g.num_edges
        q_singletons = -sum((d / (2 * m)) ** 2 for d in g.degrees.tolist())
        q = q_singletons + sum(deltas)
        assert q == pytest.approx(modularity(g, clustering), abs=1e-12)


def test_lazy_merger_matches_eager_on_fixtures(triangle, path3, two_k4_bridge, rng):
    chain = Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8),
                   (6, 8), (2, 3), (5, 6)])
    graphs = [triangle, path3, two_k4_bridge, chain, Graph([(0, 1)]),
              Graph(vertices=[0, 1, 2])]
    graphs += [random_graph(int(rng.integers(2, 16)), rng.uniform(0.1, 0.7), rng)
               for _ in range(15)]
    for g in graphs:
        assert_same_merges(g, [{int(v)} for v in g.vertices])


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


@pytest.mark.parametrize("edges", [
    [(i, (i + 1) % 12) for i in range(12)],             # 12-cycle
    [(i, j) for i in range(3) for j in range(3, 6)],    # K3,3
    petersen_edges(),                                   # 3-regular
], ids=["cycle12", "k33", "petersen"])
@pytest.mark.parametrize("relabel", [False, True])
def test_lazy_merger_matches_eager_when_every_initial_gain_ties(edges, relabel):
    # regular graphs give every singleton pair the same first gain, so the
    # initial heap order is decided by (a, b) alone; sparse shuffled ids put
    # the labels in another order than the construction's
    edges = np.array(edges)
    if relabel:
        ids = np.random.default_rng(5).permutation(edges.max() + 1) * 1000 + 7
        edges = ids[edges]
    g = Graph(edges)
    assert len(set(g.degrees.tolist())) == 1
    assert_same_merges(g, [{int(v)} for v in g.vertices])


def test_lazy_merger_matches_eager_on_ring_of_blocks():
    g = ring_of_blocks(80, 50, 0.16, 20, np.random.default_rng(3))
    assert 19000 < g.num_edges < 21000
    assert_same_merges(g, [{int(v)} for v in g.vertices])


def test_lazy_merger_matches_eager_when_the_heap_is_compacted(monkeypatch):
    # the recluster_dynamic shape at release scale: each block minus its
    # freed vertices is one frozen node, and about 30% of vertices are freed
    # singletons, enough merges for the heap to be rebuilt without its dead
    # entries; the initial heap is built sorted, so every heapify is such a
    # rebuild
    g = ring_of_blocks(80, 50, 0.16, 20, np.random.default_rng(3))
    freed = np.random.default_rng(4).random(g.num_vertices) < 0.3
    ids = g.vertices.tolist()
    basis = [{v for v in ids[b * 50:(b + 1) * 50] if not freed[v]} for b in range(80)]
    basis = [b for b in basis if b] + [{v} for v in ids if freed[v]]
    heapify_calls = []
    heapify = clustering_module.heapq.heapify

    def counting_heapify(heap):
        heapify_calls.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(clustering_module.heapq, "heapify", counting_heapify)
    assert_same_merges(g, basis)
    assert len(heapify_calls) == 7


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=30),
       st.floats(min_value=0.05, max_value=0.6),
       st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=10**6))
def test_lazy_merger_matches_eager_on_frozen_bases(n, p, n_groups, free_frac, seed):
    # the recluster_dynamic shape: frozen virtual nodes plus freed singletons
    rng = np.random.default_rng(seed)
    g = random_graph(n, p, rng)
    group = rng.integers(0, n_groups, size=n)
    freed = rng.random(n) < free_frac
    basis = [{v for v in range(n) if group[v] == c and not freed[v]}
             for c in range(n_groups)]
    basis = [b for b in basis if b] + [{v} for v in range(n) if freed[v]]
    assert_same_merges(g, basis)


def test_linkmirage_run_outputs_pinned():
    # any change to clustering or to what reuse carries shows here
    seq = evolving_sequence([30] * 6, 0.3, 0.02, 4, 0.97, np.random.default_rng(2024),
                            new_vertices_per_step=3, churn_blocks=[0, 1])
    graphs, records = linkmirage_run(seq, PerturbParams(k=2, m=0, theta=0.8, seed=7))
    record_text = json_text([r.to_json_obj() for r in records])
    edge_bytes = b"".join(g.edges.tobytes() for g in graphs)
    assert hashlib.sha256(record_text.encode()).hexdigest() == \
        "0749307ce3f226773fc21be033080c732ad29f3d4b526d6cee572a874a230f13"
    assert hashlib.sha256(edge_bytes).hexdigest() == \
        "647689fe64d0bae43c40558fe996705261ad9f754ed458f65450089349531e27"


# -- dynamic re-clustering --------------------------------------------------------


def test_freed_vertices_zero_hops_only_endpoints(path3):
    assert freed_vertices(path3, [(0, 1)], 0) == {0, 1}


def test_freed_vertices_ball():
    g = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
    assert freed_vertices(g, [(0, 1)], 2) == {0, 1, 2, 3}


def test_negative_freeing_radius_is_refused():
    # Graph.hops never reaches a negative limit, so m = -1 would free 88 of
    # these 90 vertices, against 2 at m = 0
    g = ring_of_blocks(6, 15, 0.2, 2, np.random.default_rng(0))
    link = [tuple(g.edges[0].tolist())]
    assert len(freed_vertices(g, link, 0)) == 2
    with pytest.raises(ValueError, match="freeing radius m must be >= 0"):
        freed_vertices(g, link, -1)
    with pytest.raises(ValueError, match="freeing radius m must be >= 0"):
        recluster_dynamic(g, cluster_static(g), link, -1)


def bfs_freed_vertices(graph, changed_links, m_hops):
    """Oracle: breadth-first search from the present endpoints, one vertex at a time."""
    seeds = {int(x) for link in changed_links for x in link if graph.has_vertex(x)}
    freed = set(seeds)
    frontier = deque((s, 0) for s in sorted(seeds))
    while frontier:
        v, dist = frontier.popleft()
        if dist == m_hops:
            continue
        for w in graph.neighbors(v).tolist():
            if w not in freed:
                freed.add(w)
                frontier.append((w, dist + 1))
    return freed


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=0.0, max_value=0.4),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=10**6))
def test_freed_vertices_match_bfs_oracle(n, p, m_hops, n_links, seed):
    # sparse ids, and changed links may name vertices absent from the graph
    rng = np.random.default_rng(seed)
    base = random_graph(n, p, rng)
    g = Graph(base.edges * 3 + 1, vertices=np.arange(n) * 3 + 1)
    links = {(int(u), int(v)) for u, v in rng.integers(0, 3 * n + 3, size=(n_links, 2))
             if u != v}
    assert freed_vertices(g, links, m_hops) == bfs_freed_vertices(g, links, m_hops)


def test_recluster_empty_change_is_identity(two_k4_bridge):
    prev = cluster_static(two_k4_bridge)
    clustering = recluster_dynamic(two_k4_bridge, prev, set(), 2)
    assert clustering == prev


def test_recluster_two_hop_freeing_scenario():
    # three communities; a new link arrives between the green and blue ones
    red = [(0, 1), (1, 2), (0, 2)]
    green = [(3, 4), (4, 5), (3, 5)]
    blue = [(6, 7), (7, 8), (6, 8)]
    spine = [(2, 3)]
    g_prev = Graph(red + green + blue + spine)
    prev = cluster_static(g_prev)
    assert len(prev) == 3

    new_link = (5, 6)
    g_cur = Graph(red + green + blue + spine + [new_link])
    changed = changed_link_set(g_prev, g_cur)
    assert changed == {(5, 6)}

    freed = freed_vertices(g_cur, changed, 2)
    # 2-hop ball of {5, 6} inside the current graph
    assert freed == {2, 3, 4, 5, 6, 7, 8}

    clustering = recluster_dynamic(g_cur, prev, changed, 2)
    # the untouched red remainder {0,1} stays together (frozen virtual node)
    assert clustering.label_of(0) == clustering.label_of(1)


def test_changed_link_set_is_the_tuple_symmetric_difference(rng):
    for _ in range(30):
        n = int(rng.integers(1, 25))
        ids = rng.choice(2**62, size=n + 5, replace=False)
        prev, cur = (random_graph(n + int(rng.integers(0, 6)), rng.uniform(0, 0.4), rng)
                     for _ in range(2))
        g_prev = Graph(ids[prev.edges], vertices=ids[prev.vertices])
        g_cur = Graph(ids[cur.edges], vertices=ids[cur.vertices])
        want = set(map(tuple, g_prev.edges.tolist())) ^ set(map(tuple, g_cur.edges.tolist()))
        assert changed_link_set(g_prev, g_cur) == want
        # the keys over the shared id space ascend and spell out their edges,
        # so they are equal exactly for equal rows
        union = np.union1d(g_prev.vertices, g_cur.vertices)
        for g in (g_prev, g_cur):
            keys = _edge_keys(g, union)
            assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
            assert np.array_equal(union[np.column_stack(np.divmod(keys, union.size))], g.edges)


def test_recluster_never_worse_than_frozen(rng):
    for _ in range(20):
        n = int(rng.integers(4, 9))
        g_prev = random_graph(n, 0.45, rng, ensure_edge=True)
        prev = cluster_static(g_prev)
        g_cur = random_graph(n, 0.45, rng, ensure_edge=True)
        changed = changed_link_set(g_prev, g_cur)
        clustering = recluster_dynamic(g_cur, prev, changed, 1)
        frozen = Clustering.from_groups(
            [set(mem) for mem in prev.communities.values()])
        assert modularity(g_cur, clustering) >= modularity(g_cur, frozen) - 1e-12


def test_recluster_handles_new_and_removed_vertices():
    g_prev = Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    prev = cluster_static(g_prev)
    # vertex 5 leaves, vertex 9 arrives attached to the red triangle
    g_cur = Graph([(0, 1), (1, 2), (0, 2), (3, 4), (2, 3), (9, 0), (9, 1)])
    changed = changed_link_set(g_prev, g_cur)
    clustering = recluster_dynamic(g_cur, prev, changed, 1)
    assert np.array_equal(clustering.vertices, g_cur.vertices)
    assert clustering.label_of(5) == -1


def reference_recluster_partitions(graph, prev, changed_links, m_hops):
    """Oracle: the (basis, frozen) partitions built with vertex sets."""
    present = set(int(v) for v in graph.vertices)
    new_vertices = present - {v for mem in prev.communities.values() for v in mem}
    freed = freed_vertices(graph, changed_links, m_hops) | new_vertices
    basis = []
    for members in prev.communities.values():
        kept = (set(members) & present) - freed
        if kept:
            basis.append(kept)
    basis.extend({v} for v in sorted(freed))
    frozen_groups = [g for g in ((set(members) & present)
                                 for members in prev.communities.values()) if g]
    frozen_groups.extend({v} for v in sorted(new_vertices))
    return Clustering.from_groups(basis), Clustering.from_groups(frozen_groups)


def test_recluster_partitions_match_set_oracle(rng):
    # sparse ids; each side has vertices the other lacks
    checked_new = checked_departed = 0
    for _ in range(40):
        n = int(rng.integers(3, 30))
        ids = rng.choice(10**6, size=n + 8, replace=False)
        g_prev, g_cur = (random_graph(n + int(rng.integers(0, 8)), rng.uniform(0.05, 0.4), rng)
                         for _ in range(2))
        drop = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
        g_prev = Graph(ids[g_prev.edges], vertices=ids[g_prev.vertices])
        keep = ~np.isin(g_cur.vertices, drop)
        edges = g_cur.edges[keep[g_cur.edges].all(axis=1)]
        g_cur = Graph(ids[edges], vertices=ids[g_cur.vertices[keep]])
        prev = cluster_static(g_prev)
        changed = changed_link_set(g_prev, g_cur)
        checked_new += int(not np.isin(g_cur.vertices, g_prev.vertices).all())
        checked_departed += int(not np.isin(g_prev.vertices, g_cur.vertices).all())
        for m_hops in (0, 1, 2):
            basis, frozen = reference_recluster_partitions(g_cur, prev, changed, m_hops)
            bases, scored = [], []
            real_agglomerate, real_modularity = _agglomerate, modularity

            def spy_agglomerate(graph, b):
                bases.append(b)
                return real_agglomerate(graph, b)

            def spy_modularity(graph, c):
                scored.append(c)
                return real_modularity(graph, c)

            with mock.patch.object(clustering_module, "_agglomerate", spy_agglomerate), \
                    mock.patch.object(clustering_module, "modularity", spy_modularity):
                got = recluster_dynamic(g_cur, prev, changed, m_hops)
            assert bases == [basis]
            assert any(c == frozen for c in scored)
            greedy, _ = _agglomerate(g_cur, basis)
            want = frozen if modularity(g_cur, frozen) > modularity(g_cur, greedy) + 1e-15 \
                else greedy
            assert got == want
    assert checked_new and checked_departed


# -- changed/unchanged classification ----------------------------------------------


def test_classify_identical_all_unchanged(two_k4_bridge):
    c = cluster_static(two_k4_bridge)
    diff = classify_communities(c, c, 0.8)
    assert diff.changed == []
    assert len(diff.unchanged) == len(c)
    assert all(p == q for p, q in diff.unchanged)


def test_classify_partial_overlap_below_threshold():
    prev = Clustering.from_groups([list(range(10))])
    cur = Clustering.from_groups([list(range(7)) + [10, 11, 12]])
    # overlap 7 of 13 united vertices: jaccard ~ 0.538 < 0.8
    diff = classify_communities(prev, cur, 0.8)
    assert diff.unchanged == []
    assert diff.changed == [0]


def test_classify_no_previous_all_changed(triangle):
    c = cluster_static(triangle)
    diff = classify_communities(None, c, 0.8)
    assert diff.unchanged == [] and diff.changed == sorted(c.communities)


def test_classification_partitions_current(rng):
    for _ in range(10):
        a = random_graph(12, 0.3, rng, ensure_edge=True)
        b = random_graph(12, 0.3, rng, ensure_edge=True)
        ca = cluster_static(a)
        cb = cluster_static(b)
        diff = classify_communities(ca, cb, 0.6)
        assert len(diff.unchanged) + len(diff.changed) == len(cb)
        matched = {c for _, c in diff.unchanged}
        assert matched.isdisjoint(diff.changed)


def reference_classify(prev, cur, theta):
    """Oracle: the per-member lookup loop over vertex sets."""
    if prev is None or not prev.communities:
        return sorted(cur.communities), []
    assignment = {v: label for label, mem in prev.communities.items() for v in mem}
    candidates = []
    for cur_label, cur_members in cur.communities.items():
        seen = set()
        for v in cur_members:
            p = assignment.get(v)
            if p is None or p in seen:
                continue
            seen.add(p)
            prev_members = prev.communities[p]
            jac = len(cur_members & prev_members) / len(cur_members | prev_members)
            if jac >= theta:
                candidates.append((-jac, p, cur_label))
    candidates.sort()
    matched_prev, matched_cur, unchanged = set(), set(), []
    for _, p, c in candidates:
        if p in matched_prev or c in matched_cur:
            continue
        matched_prev.add(p)
        matched_cur.add(c)
        unchanged.append((p, c))
    unchanged.sort(key=lambda pc: pc[1])
    return sorted(set(cur.communities) - matched_cur), unchanged


def random_partition(ids, rng):
    labels = rng.integers(0, int(rng.integers(1, 8)), size=len(ids))
    return Clustering.from_groups([ids[labels == k] for k in np.unique(labels)])


def test_classify_matches_set_oracle(rng):
    matched = 0
    for _ in range(60):
        ids = rng.choice(2**40, size=int(rng.integers(2, 40)), replace=False)
        # vertices on one side only, and a current partition that often
        # moves only a few vertices of the previous one
        prev = random_partition(ids[rng.random(ids.size) < 0.85], rng)
        cur_ids = ids[rng.random(ids.size) < 0.85]
        if rng.random() < 0.5:
            cur = Clustering.from_groups(
                [g for g in ([v for v in mem if v in set(cur_ids.tolist())]
                             for mem in prev.communities.values()) if g]
                + [[v] for v in cur_ids.tolist() if prev.label_of(v) < 0])
        else:
            cur = random_partition(cur_ids, rng)
        for theta in (0.5, 0.8, 1.0):
            diff = classify_communities(prev, cur, theta)
            changed, unchanged = reference_classify(prev, cur, theta)
            assert diff.changed == changed and diff.unchanged == unchanged
            assert all(type(x) is int for pair in diff.unchanged for x in pair)
            matched += len(unchanged)
    assert matched > 0


# -- the label array ---------------------------------------------------------------


def test_label_of_matches_dict_lookup(rng):
    for _ in range(30):
        ids = rng.choice(10**9, size=int(rng.integers(1, 30)), replace=False)
        c = random_partition(ids, rng)
        owner = {v: label for label, mem in c.communities.items() for v in mem}
        assert all(label == min(c.communities[label]) for label in owner.values())
        query = rng.choice(np.concatenate([ids, rng.integers(0, 10**9, size=10),
                                           [0, 10**9 + 1]]), size=(3, 5))
        got = c.label_of(query)
        assert got.shape == (3, 5) and got.dtype == np.int64
        assert got.tolist() == [[owner.get(int(x), -1) for x in row] for row in query]
        for x in query[0].tolist():
            assert c.label_of(x).shape == () and int(c.label_of(x)) == owner.get(x, -1)
        assert list(c.communities) == sorted(c.communities)
        assert len(c) == len(c.communities)
        assert c == Clustering.from_groups(list(c.communities.values())[::-1])


def test_empty_clustering():
    c = Clustering.from_groups([])
    assert c.label_of([3, 7]).tolist() == [-1, -1] and int(c.label_of(0)) == -1
    assert c.label_of(np.empty((0, 2))).shape == (0, 2)
    assert len(c) == 0 and c.communities == {}


def test_from_groups_rejects_bad_partitions():
    with pytest.raises(ValueError, match="^empty community$"):
        Clustering.from_groups([[1, 2], []])
    with pytest.raises(ValueError, match="^vertex 3 assigned twice$"):
        Clustering.from_groups([[5, 3], [4], {3, 9}])
    # a repeat inside one group is one member
    assert Clustering.from_groups([[2, 2, 1]]).communities == {1: frozenset({1, 2})}
