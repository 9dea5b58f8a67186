import os
import tempfile
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph
from linkmirage import (Graph, GraphFormatError, load_edge_list, load_sequence,
                        union_graph, write_edge_list)
from linkmirage import graphs
from linkmirage.graphs import (_absent_pairs, _edge_keys, _plain_edges, _sorted_unique,
                               _unique_rows)


def test_edges_canonicalized_and_deduped():
    g = Graph([(2, 1), (1, 2), (0, 1)])
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.num_edges == 2
    assert g.num_vertices == 3


def test_canonical_edges_match_row_unique():
    rng = np.random.default_rng(7)
    for n, m in ((2, 1), (5, 40), (50, 300), (10**9, 200)):
        arr = rng.integers(0, n, size=(m, 2))
        arr = arr[arr[:, 0] != arr[:, 1]]
        arr = np.vstack([arr, arr[::3, ::-1]])   # reversed duplicates
        want = np.unique(np.sort(arr, axis=1), axis=0)
        got = Graph(arr).edges
        assert got.dtype == np.int64 and np.array_equal(got, want)
        # (sample, lo, hi) rows, as the samples of a perturbation draw them
        rows = np.column_stack([rng.integers(0, 3, size=len(arr)), np.sort(arr, axis=1)])
        rows = np.vstack([rows, rows[::2]])
        got = np.column_stack(_unique_rows(*rows.T))
        assert np.array_equal(got, np.unique(rows, axis=0))
    # rows that differ only in their sample
    sample, lo, hi = _unique_rows(np.array([2, 0, 2, 1]), np.array([4, 4, 4, 4]),
                                  np.array([9, 9, 9, 9]))
    assert sample.tolist() == [0, 1, 2] and lo.tolist() == [4] * 3 and hi.tolist() == [9] * 3
    empty = np.empty(0, dtype=np.int64)
    assert all(np.array_equal(c, empty) for c in _unique_rows(empty, empty, empty))
    assert Graph(np.empty((0, 2), dtype=np.int64)).edges.shape == (0, 2)


def reference_graph_arrays(edges, vertices=None):
    """Oracle: the six arrays of ``Graph`` built by row sorts (rows
    lexsorted and deduplicated, positions by binary search, the CSR a
    lexsort of both orientations), named as the accessors name them."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    edge_arr = np.column_stack([lo[first], hi[first]])
    ids = edge_arr.ravel()
    if vertices is not None:
        ids = np.concatenate([ids, np.asarray(vertices, dtype=np.int64)])
    ids = np.unique(ids)
    pos = np.searchsorted(ids, edge_arr)
    both = np.concatenate([pos, pos[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    counts = np.bincount(both[:, 0], minlength=ids.size)
    return {"vertices": ids, "edges": edge_arr, "edge_positions": pos,
            "indptr": np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
            "indices": np.ascontiguousarray(both[:, 1]), "degrees": counts.astype(np.int64)}


def graph_arrays(g):
    indptr, indices = g.csr_adjacency
    return {"vertices": g.vertices, "edges": g.edges, "edge_positions": g.edge_positions,
            "indptr": indptr, "indices": indices, "degrees": g.degrees}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=12,
                unique=True),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
       st.none() | st.lists(st.integers(0, 11), max_size=6))
@example([0, 2**63 - 1, 2**62], [(1, 0), (0, 1), (1, 0), (2, 1)], [0])
@example([5, 3], [], [1, 0])
@example([7], [], None)
def test_graph_matches_the_row_sort_construction(pool, pairs, isolated):
    # ids from a pool, so rows repeat and come reversed; ``isolated`` adds
    # pool ids as extra vertices, which may or may not end an edge
    pairs = [(pool[i % len(pool)], pool[j % len(pool)]) for i, j in pairs]
    pairs = [(u, v) for u, v in pairs if u != v]
    vertices = None if isolated is None else [pool[i % len(pool)] for i in isolated]
    g = Graph(pairs, vertices=vertices)
    want = reference_graph_arrays(pairs, vertices)
    for name, got in graph_arrays(g).items():
        assert (got.dtype, got.shape) == (want[name].dtype, want[name].shape), name
        assert got.tobytes() == want[name].tobytes(), name
        assert not got.flags.writeable, name


def test_graph_errors_keep_their_messages():
    with pytest.raises(ValueError, match="^self-loop on vertex 4 is not allowed$"):
        Graph([(1, 2), (4, 4), (3, 3)])
    with pytest.raises(ValueError, match="^vertex ids must be nonnegative$"):
        Graph([(1, -2)])
    with pytest.raises(ValueError, match="^vertex ids must be nonnegative$"):
        Graph([(1, 2)], vertices=[-5])


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph([(3, 3)])


def test_isolated_vertices_kept():
    g = Graph([(0, 1)], vertices=[0, 1, 7])
    assert g.num_vertices == 3
    assert g.degrees[g.index_of(7)] == 0
    assert g.neighbors(7).size == 0


def test_adjacency_consistent_with_edges():
    g = Graph([(0, 1), (1, 2), (0, 2), (2, 3)])
    assert g.neighbors(2).tolist() == [0, 1, 3]
    edges = set(map(tuple, g.edges.tolist()))
    assert (0, 2) in edges and (0, 3) not in edges
    assert g.degrees[g.index_of(2)] == 3


@pytest.mark.parametrize("g", [Graph([(2, 5), (5, 9)], vertices=[20]), Graph()])
@pytest.mark.parametrize("absent", [0, 3, 6, 10, 21, -1, np.int64(4)])
def test_absent_vertex_lookups(g, absent):
    # ids below, between and above the present ones, on a graph and on the empty graph
    for lookup in (g.index_of, g.neighbors):
        with pytest.raises(KeyError):
            lookup(absent)
    assert not g.has_vertex(absent)
    assert not (g.edges == absent).any()


def test_vertices_from_any_iterable():
    for make in (lambda: [4, 7], lambda: np.array([7, 4]), lambda: {4, 7},
                 lambda: range(4, 8, 3), lambda: (v for v in (7, 4))):
        assert Graph([(0, 1)], vertices=make()).vertices.tolist() == [0, 1, 4, 7]
        assert Graph([(0, 1), (4, 7)]).subgraph(make()).vertices.tolist() == [4, 7]


def sparse_id_graphs(rng, count=25):
    """Random graphs on shuffled sparse ids, with isolated vertices and
    several components; the empty and the edgeless graph come first."""
    yield Graph()
    yield Graph(vertices=[3, 9])
    for _ in range(count):
        n = int(rng.integers(1, 40))
        base = random_graph(n, rng.uniform(0.0, 0.3), rng)
        ids = rng.permutation(np.arange(n) * 7 + 3)
        yield Graph(ids[base.edges], vertices=ids)


def test_edge_positions_match_searchsorted_and_are_read_only(rng):
    for g in sparse_id_graphs(rng):
        pos = g.edge_positions
        want = np.searchsorted(g.vertices, g.edges).reshape(-1, 2)
        assert pos.shape == want.shape and np.array_equal(pos, want)
        assert pos is g.edge_positions
        with pytest.raises(ValueError):
            pos[...] = 0


def test_adjacency_matches_dense_oracle(rng):
    for g in sparse_id_graphs(rng):
        n = g.num_vertices
        ends = np.searchsorted(g.vertices, g.edges).reshape(-1, 2)
        ones = np.zeros((n, n))
        ones[ends[:, 0], ends[:, 1]] = ones[ends[:, 1], ends[:, 0]] = 1.0
        default = g.adjacency()
        assert default.shape == (n, n) and default.dtype == np.float64
        assert np.array_equal(default.toarray(), ones)
        # entry (a, b) carries a value of its own, so a misaligned layout shows
        value = lambda a, b: a * (n + 1) + b + 0.5
        dense = np.zeros((n, n))
        dense[ends[:, 0], ends[:, 1]] = value(ends[:, 0], ends[:, 1])
        dense[ends[:, 1], ends[:, 0]] = value(ends[:, 1], ends[:, 0])
        indptr, indices = g.csr_adjacency
        rows = np.repeat(np.arange(n), np.diff(indptr))
        assert np.array_equal(g.adjacency(value(rows, indices)).toarray(), dense)
        flags = g.adjacency(np.ones(indices.size, dtype=bool))
        assert flags.dtype == bool and np.array_equal(flags.toarray(), ones > 0)


def deque_hops(graph, seeds, limit=None):
    """Oracle: breadth-first distances, one vertex at a time."""
    indptr, indices = graph.csr_adjacency
    dist = np.full(graph.num_vertices, -1, dtype=np.int64)
    queue = deque()
    for s in seeds:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(int(s))
    while queue:
        v = queue.popleft()
        if dist[v] == limit:
            continue
        for w in indices[indptr[v]:indptr[v + 1]].tolist():
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def test_hops_match_deque_bfs(rng):
    for g in sparse_id_graphs(rng, count=40):
        n = g.num_vertices
        seeds = rng.integers(0, n, size=int(rng.integers(0, 4))) if n else []
        for limit in (None, 0, 1, 2, 5):
            got = g.hops(seeds, limit)
            assert got.dtype == np.int64
            assert np.array_equal(got, deque_hops(g, seeds, limit))


def test_hops_on_a_path():
    g = Graph([(i, i + 1) for i in range(6)])
    assert g.hops([0]).tolist() == [0, 1, 2, 3, 4, 5, 6]
    assert g.hops([3], limit=2).tolist() == [-1, 2, 1, 0, 1, 2, -1]
    assert g.hops([0, 6], limit=1).tolist() == [0, 1, -1, -1, -1, 1, 0]


def test_edge_keys_are_equal_exactly_for_equal_rows(rng):
    for _ in range(20):
        # ids far beyond the square root of the int64 range, and two graphs
        # whose vertex sets differ
        ids = rng.choice(2**62, size=int(rng.integers(2, 30)), replace=False)
        a, b = (Graph(rows[rows[:, 0] != rows[:, 1]], vertices=ids[rng.random(ids.size) < 0.5])
                for rows in (ids[rng.integers(0, ids.size, size=(int(rng.integers(0, 40)), 2))]
                             for _ in range(2)))
        union = np.union1d(a.vertices, b.vertices)
        keys_a, keys_b = _edge_keys(a, union), _edge_keys(b, union)
        assert keys_a.shape == (a.num_edges,) and keys_b.shape == (b.num_edges,)
        rows = [tuple(r) for r in np.concatenate([a.edges, b.edges]).tolist()]
        keys = np.concatenate([keys_a, keys_b]).tolist()
        for i in range(len(rows)):
            for j in range(len(rows)):
                assert (keys[i] == keys[j]) == (rows[i] == rows[j])


def test_subgraph_induced():
    g = Graph([(0, 1), (1, 2), (0, 2), (2, 3)])
    sub = g.subgraph([0, 1, 3])
    assert sub.edges.tolist() == [[0, 1]]
    assert sub.num_vertices == 3   # 3 stays even though isolated


def test_load_edge_list_basics(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n0 1\n1 2\n")
    g = load_edge_list(p)
    assert set(g.vertices.tolist()) == {0, 1, 2}
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_load_edge_list_collapses_reverse_duplicates(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 0\n")
    g = load_edge_list(p)
    assert g.num_edges == 1


def test_load_edge_list_rejects_self_loop_with_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n3 3\n")
    with pytest.raises(GraphFormatError, match=r":2: self-loop"):
        load_edge_list(p)


def test_load_edge_list_reports_parse_error_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\nnot an edge here\n")
    with pytest.raises(GraphFormatError, match=r":2:"):
        load_edge_list(p)


@pytest.mark.parametrize("data, edges, plain", [
    (b"007 010\n0 1\n", [(7, 10), (0, 1)], True),
    (b"0\t1\n\t2 \t3\t\n", [(0, 1), (2, 3)], True),
    (b"0 1\r\n\r\n1 2\r\n", [(0, 1), (1, 2)], True),
    (b"\n0 1\n   \n\n1 2\n\n", [(0, 1), (1, 2)], True),
    (b"0 1\n1 2", [(0, 1), (1, 2)], True),
    (b"# provenance: abc\n# t=0\n0 1 # trailing\n1 2#x\n  # indented\n",
     [(0, 1), (1, 2)], True),
    (f"{2**63 - 1} 0\n".encode(), [(0, 2**63 - 1)], True),
    (b"", [], True),
    (b"# nothing\n", [], True),
    (b"+5 6\n", [(5, 6)], False),
    (b"1_000 2\n", [(1000, 2)], False),
    (b"0 1\r1 2\r", [(0, 1), (1, 2)], False),
    (b"0\x0c1\n", [(0, 1)], False),
    (b"# a\r1 2\n", [(1, 2)], False),
])
def test_load_edge_list_reads_as_the_line_loop(tmp_path, monkeypatch, data, edges, plain):
    p = tmp_path / "g.txt"
    p.write_bytes(data)
    assert (_plain_edges(data) is not None) == plain
    g = load_edge_list(p)
    assert g == Graph(edges)
    monkeypatch.setattr(graphs, "_plain_edges", lambda data: None)
    assert load_edge_list(p) == g


def _read(path):
    try:
        return load_edge_list(path)
    except GraphFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["0", "1", "7", "00", "+", "_", "-", "x", " ", "\t",
                                 "\r", "\n", "\r\n", "\x0c", "#", "\xe9",
                                 str(2**63), str(2**64)]), max_size=12))
def test_load_edge_list_fuzz_matches_the_line_loop(pieces):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "wb") as fh:
            fh.write("".join(pieces).encode("latin-1"))
        result = _read(path)
        with mock.patch.object(graphs, "_plain_edges", return_value=None):
            assert _read(path) == result


@pytest.mark.parametrize("data, message", [
    (f"0 1\n{2**63} 1\n".encode(), "2: vertex ids must be at most 2**63 - 1"),
    (f"0 1\n\n1 {2**64 + 5}\n".encode(), "3: vertex ids must be at most 2**63 - 1"),
    (b"0 1\n1 2 3\n", "2: expected 'u v', got '1 2 3'"),
    (b"0 1\n# c\n7 # seven\n", "3: expected 'u v', got '7 # seven'"),
    (b"0 1\n0 x\n", "2: vertex ids must be integers, got '0 x'"),
    (b"0 1\n-1 2\n", "2: vertex ids must be nonnegative"),
    (b"0 1\n1 2\n3 3\n", "3: self-loop 3-3 rejected"),
    (b"0 1\n1 2 # caf\xc3\xa9\n", "2: not ASCII"),
])
def test_load_edge_list_names_the_bad_line(tmp_path, data, message):
    p = tmp_path / "g.txt"
    p.write_bytes(data)
    assert _plain_edges(data) is None
    with pytest.raises(GraphFormatError) as excinfo:
        load_edge_list(p)
    assert str(excinfo.value) == f"{p}:{message}"


def test_edge_list_roundtrip(tmp_path):
    g = Graph([(0, 5), (5, 9), (0, 9)])
    path = tmp_path / "g.txt"
    write_edge_list(g, path, header_lines=["meta"])
    assert path.read_text() == "# meta\n0 5\n0 9\n5 9\n"
    assert load_edge_list(path) == g


def test_load_sequence(tmp_path):
    for t in range(3):
        (tmp_path / f"g{t}.txt").write_text(f"0 {t + 1}\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("g0.txt\ng1.txt\ng2.txt\n")
    seq = load_sequence(manifest)
    assert len(seq) == 3
    assert seq[2].edges.tolist() == [[0, 3]]


def test_load_sequence_single_file_is_static_case(tmp_path):
    (tmp_path / "g0.txt").write_text("0 1\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("g0.txt\n")
    assert len(load_sequence(manifest)) == 1


def test_load_sequence_nine_snapshots(tmp_path):
    # shape of a typical social snapshot series: nine quarterly files
    names = []
    for t in range(9):
        name = f"snap_{t}.txt"
        (tmp_path / name).write_text(f"0 {t + 1}\n{t + 1} {t + 2}\n")
        names.append(name)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(names) + "\n")
    seq = load_sequence(manifest)
    assert len(seq) == 9
    assert all(g.num_edges == 2 for g in seq.snapshots)


def test_load_sequence_missing_file(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("absent.txt\n")
    with pytest.raises(FileNotFoundError):
        load_sequence(manifest)


def test_load_sequence_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# nothing\n")
    with pytest.raises(GraphFormatError):
        load_sequence(manifest)


def test_union_graph_single_is_identity(triangle):
    assert union_graph([triangle]) == triangle


def test_union_graph_merges_edges():
    a = Graph([(0, 1)])
    b = Graph([(1, 2)])
    assert union_graph([a, b]).edges.tolist() == [[0, 1], [1, 2]]


def test_union_graph_disjoint_counts_add():
    a = Graph([(0, 1), (1, 2)])
    b = Graph([(10, 11), (11, 12), (10, 12)])
    assert union_graph([a, b]).num_edges == a.num_edges + b.num_edges


def tuple_sets(g):
    """(vertex set, edge set) of a graph, as Python sets."""
    return set(g.vertices.tolist()), set(map(tuple, g.edges.tolist()))


def set_oracle(edges, vertices):
    """(vertex set, canonical edge set) that an edge list and extra ids make."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    return {x for e in edge_set for x in e} | set(vertices), edge_set


# ids 0..15 in any order and with repeats; edges end in 0..11 only, so the
# ids 12..15 are absent from a graph unless added as isolated vertices
id_lists = st.lists(st.integers(0, 15), max_size=10)
edge_lists = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11))
                      .filter(lambda e: e[0] != e[1]), max_size=20)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(edge_lists, id_lists), min_size=1, max_size=4), id_lists)
@example([([(1, 0), (1, 2)], [14, 3, 3]), ([(2, 0)], [])], [2, 0, 1, 2, 13])
@example([([], [5]), ([], [])], [])
def test_derived_graphs_match_tuple_set_oracles(parts, ids):
    graphs = [Graph(edges, vertices=vertices) for edges, vertices in parts]
    sets = [set_oracle(edges, vertices) for edges, vertices in parts]
    g, (g_vertices, g_edges) = graphs[0], sets[0]
    derived = {
        "union_graph": (union_graph(graphs), (set().union(*(v for v, _ in sets)),
                                              set().union(*(e for _, e in sets)))),
        "with_vertices": (g.with_vertices(ids), (g_vertices | set(ids), g_edges)),
        "subgraph": (g.subgraph(ids), (set(ids), {e for e in g_edges if set(e) <= set(ids)})),
    }
    for name, (got, want) in derived.items():
        assert tuple_sets(got) == want, name
        # equal graphs are those with equal vertex and edge sets
        assert (got == g) == (want == (g_vertices, g_edges)), name
        assert got == Graph(sorted(want[1]), vertices=sorted(want[0])), name


# -- absent-pair sampler -------------------------------------------------------------


def complete(n):
    return Graph([(i, j) for i in range(n) for j in range(i + 1, n)])


def test_absent_pairs_are_distinct_non_edges(rng):
    for _ in range(20):
        n = int(rng.integers(3, 30))
        base = random_graph(n, rng.uniform(0.1, 0.6), rng)
        ids = rng.permutation(np.arange(n) * 5 + 2)
        g = Graph(ids[base.edges], vertices=ids)
        exclude = [(int(rng.integers(0, n - 1)), n - 1)]
        pairs = _absent_pairs(g, int(rng.integers(0, 2 * n)), rng, exclude=exclude)
        assert pairs.dtype == np.int64 and pairs.shape[1] == 2
        assert (pairs[:, 0] < pairs[:, 1]).all()
        rows = set(map(tuple, pairs.tolist()))
        assert len(rows) == len(pairs)
        assert not rows & set(exclude)
        assert not rows & set(map(tuple, g.edge_positions.tolist()))


@pytest.mark.parametrize("count", [4, 50])
def test_absent_pairs_of_a_dense_graph_stop_at_the_last_one(count):
    # K_12 minus 3 edges: once the third absent pair is drawn no pair is
    # left, so the loop ends there instead of drawing on to its cap
    missing = {(7, 9), (0, 11), (2, 3)}
    g = Graph([(i, j) for i in range(12) for j in range(i + 1, 12) if (i, j) not in missing])
    rng = np.random.default_rng(0)
    pairs = _absent_pairs(g, count, rng)
    replay, found = np.random.default_rng(0), []
    while len(found) < len(missing):
        pair = tuple(sorted((int(replay.integers(0, 12)), int(replay.integers(0, 12)))))
        if pair in missing and pair not in found:
            found.append(pair)
    assert list(map(tuple, pairs.tolist())) == found
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("n", [4, 5])
def test_absent_pairs_of_a_complete_graph_draw_nothing(n):
    # no absent pair is left before the first attempt, so the generator is untouched
    rng = np.random.default_rng(0)
    pairs = _absent_pairs(complete(n), 3, rng)
    assert pairs.shape == (0, 2)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_absent_pairs_stop_at_the_attempt_cap():
    # K_100 minus one edge: the stream never draws the one absent pair, so the
    # loop ends after 50 * count + 1000 attempts of two scalar draws each
    n, count, missing = 100, 1, (3, 7)
    g = Graph([(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != missing])
    rng = np.random.default_rng(0)
    pairs = _absent_pairs(g, count, rng)
    replay = np.random.default_rng(0)
    drawn = [tuple(sorted((int(replay.integers(0, n)), int(replay.integers(0, n)))))
             for _ in range(50 * count + 1000)]
    assert missing not in drawn
    assert pairs.shape == (0, 2)
    assert rng.bit_generator.state == replay.bit_generator.state


ids_near_the_top = st.lists(st.one_of(st.integers(min_value=0, max_value=40),
                                      st.integers(min_value=2**63 - 40, max_value=2**63 - 1)),
                            max_size=30)


@settings(max_examples=300, deadline=None)
@given(ids_near_the_top, ids_near_the_top)
@example([], [])
@example([3, 3, 3], [])
@example([2**63 - 1, 0, 2**63 - 1], [2**63 - 2, 0])
def test_sorted_unique_is_np_unique_and_union1d(first, second):
    # the one sort-based distinct-values helper: np.unique of one array and
    # np.union1d of two, dtype included, with repeats, empty input and ids
    # near 2**63
    a, b = np.array(first, dtype=np.int64), np.array(second, dtype=np.int64)
    for got, want in ((_sorted_unique(a), np.unique(a)),
                      (_sorted_unique(np.concatenate([a, b])), np.union1d(a, b))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
