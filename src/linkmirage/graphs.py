"""Undirected labeled graphs, temporal sequences, and edge-list I/O.

Vertex ids are arbitrary nonnegative integers that are stable across time
(the same id denotes the same user in every snapshot). Internally every
graph remaps its ids to dense positions 0..n-1 for sparse indexing; the
position of a raw id is its index in the sorted ``vertices`` array. The
constructor is the one place ids and edges are sorted and deduplicated, and
derived graphs hand it raw arrays: it finds every position in one argsort
(``_unique_inverse``), then orders, deduplicates and lays out the edges by
one int64 key per edge over those positions. ``Graph`` owns that arithmetic:
its edges, stored once as positions (``edge_positions``), edge keys in the
id space of a vertex superset (``_edge_keys``), its adjacency and hop
distances (``hops``); ``index_of`` finds one position by binary search.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


# the largest vertex id: ids are stored as int64
_MAX_ID = np.iinfo(np.int64).max


class GraphFormatError(ValueError):
    """Raised for malformed input text files (reports file:line)."""


def _id_array(values) -> np.ndarray:
    """int64 array of vertex ids from an ndarray or any iterable of ints."""
    if isinstance(values, np.ndarray):
        return values.astype(np.int64, copy=False).ravel()
    return np.fromiter(values, dtype=np.int64)


def _unique_rows(*columns) -> tuple:
    """The distinct rows of equal-length columns, sorted on the first column,
    then the next: the columns of np.unique(axis=0) without its slow
    row-view sort. The rows are lexsorted and the first of each run of equal
    rows is kept. ``perturb._walk_rows`` deduplicates each sample's fake
    edges with it, as (sample, lo, hi)."""
    order = np.lexsort(columns[::-1])
    columns = [c[order] for c in columns]
    # column compares: a row-wise any() over the columns is slower
    first = np.zeros(order.size, dtype=bool)
    first[:1] = True
    for c in columns:
        first[1:] |= c[1:] != c[:-1]
    return tuple(c[first] for c in columns)


def _sorted_unique(values) -> np.ndarray:
    """The distinct values of an integer array, ascending, as ``np.unique``
    gives them, from one sort and a first-of-run mask: NumPy 2.4's
    ``np.unique`` (and ``np.union1d``) hashes instead, which is many times
    slower on mostly distinct ints."""
    values = np.sort(np.asarray(values).ravel())
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _edge_ends(edges) -> np.ndarray:
    """The ids of an edge list as one int64 array, two per edge in row
    order. Raises ValueError on a self-loop."""
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64).reshape(-1, 2)
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        raise ValueError(f"self-loop on vertex {arr[loops][0, 0]} is not allowed")
    return arr.ravel()


def _unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for a 1-D int array, from
    one argsort and fewer full-size temporaries: the sorted distinct values
    and the index of each value among them."""
    order = np.argsort(values)
    ordered = values[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    index = np.cumsum(first)
    index -= 1
    inverse = np.empty_like(order)
    inverse[order] = index
    return ordered[first], inverse


def _in_id_space(matrix: sp.csr_matrix, vertices: np.ndarray,
                 ids: np.ndarray) -> sp.csr_matrix:
    """``matrix``, over the positions of ``vertices``, as a matrix over the
    positions of ``ids``, a sorted superset of ``vertices``; rows and
    columns of ids outside ``vertices`` are empty.

    The map from positions to positions keeps their order, so each row moves
    whole, with its entries in the order they had, and an upper-triangular
    matrix stays upper triangular.
    """
    if vertices.size == ids.size:
        return matrix
    pos = np.searchsorted(ids, vertices)
    counts = np.zeros(ids.size, dtype=np.int64)
    counts[pos] = np.diff(matrix.indptr)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((matrix.data, pos[matrix.indices], indptr),
                         shape=(ids.size, ids.size))


def _edge_keys(graph: Graph, ids: np.ndarray) -> np.ndarray:
    """One int64 key a * n + b per edge of ``graph``, with a < b the
    positions of its ends among the n ids of ``ids``, a sorted superset of
    the graph's vertices. The keys ascend, as the edges do, and two graphs
    keyed over the same ``ids`` give equal keys exactly to equal edges."""
    pos = graph.edge_positions
    if graph.num_vertices != ids.size:
        pos = np.searchsorted(ids, graph.vertices)[pos]
    return pos[:, 0] * ids.size + pos[:, 1]


class Graph:
    """Immutable simple undirected graph.

    Parameters
    ----------
    edges : iterable of (u, v)
        Unordered vertex id pairs; duplicates and reversed copies collapse.
    vertices : iterable of int, optional
        Extra vertex ids to keep (isolated vertices); endpoints of ``edges``
        are always included.
    """

    __slots__ = ("_ids", "_indptr", "_indices", "_degrees", "_edge_positions")

    def __init__(self, edges=(), vertices=None):
        # the edge ends, two per edge in row order, then the extra vertices
        ids = _edge_ends(edges)
        count = ids.size
        if vertices is not None:
            ids = np.concatenate([ids, _id_array(vertices)])
        ids, inverse = _unique_inverse(ids)
        if ids.size and ids[0] < 0:
            raise ValueError("vertex ids must be nonnegative")
        self._ids = ids

        # each edge as the key lo * n + hi of its end positions (n**2 < 2**63
        # for any n below 3e9): the distinct keys ascending are the distinct
        # edges in (lo, hi) order, and the keys of both orientations sorted
        # are the CSR entries row by row, neighbor lists sorted
        n = ids.size
        u, v = inverse[:count:2], inverse[1:count:2]
        keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        lo, hi = np.divmod(keys, n)
        self._edge_positions = np.column_stack([lo, hi])
        self._indices = np.concatenate([keys, hi * n + lo])
        self._indices.sort()
        self._indices %= n
        self._degrees = np.bincount(self._edge_positions.ravel(), minlength=n)
        self._indptr = np.concatenate([[0], np.cumsum(self._degrees)])
        for a in (self._ids, self._edge_positions, self._indptr, self._indices, self._degrees):
            a.flags.writeable = False

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> np.ndarray:
        """Sorted raw vertex ids; position in this array is the internal index."""
        return self._ids

    @property
    def edges(self) -> np.ndarray:
        """Canonical (min,max) edge array, shape (m, 2), sorted, read-only;
        gathered from ``edge_positions`` on each read, so bind it once."""
        edges = self._ids[self._edge_positions]
        edges.flags.writeable = False
        return edges

    @property
    def num_vertices(self) -> int:
        return int(self._ids.size)

    @property
    def num_edges(self) -> int:
        return int(self._edge_positions.shape[0])

    def _position(self, v: int) -> int:
        """Internal position of raw id v, or -1 when v is absent."""
        v = int(v)
        i = int(np.searchsorted(self._ids, v))
        return i if i < self._ids.size and self._ids[i] == v else -1

    def index_of(self, v: int) -> int:
        i = self._position(v)
        if i < 0:
            raise KeyError(v)
        return i

    def has_vertex(self, v: int) -> bool:
        return self._position(v) >= 0

    @property
    def degrees(self) -> np.ndarray:
        """Degrees indexed by internal position."""
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted raw ids of v's neighbors."""
        i = self.index_of(v)
        return self._ids[self._indices[self._indptr[i]:self._indptr[i + 1]]]

    @property
    def csr_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) over internal positions, for vectorized walks."""
        return self._indptr, self._indices

    @property
    def edge_positions(self) -> np.ndarray:
        """Internal positions of ``edges``, shape (m, 2), read-only: the graph's
        one stored edge array, the deduplicated position keys the constructor
        builds its CSR from, split back into (lo, hi) rows."""
        return self._edge_positions

    def adjacency(self, data=None) -> sp.csr_matrix:
        """n x n sparse matrix on the ``csr_adjacency`` layout; ``data`` holds
        one value per CSR entry and defaults to ones."""
        n = self._ids.size
        if data is None:
            data = np.ones(self._indices.size)
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(n, n), copy=True)

    def hops(self, positions, limit=None) -> np.ndarray:
        """Breadth-first hop distance of every position from the seed
        ``positions``, one array step per level; -1 when unreachable or
        farther than ``limit``."""
        dist = np.full(self._ids.size, -1, dtype=np.int64)
        frontier = _sorted_unique(np.asarray(positions, dtype=np.int64))
        level = 0
        while frontier.size:
            dist[frontier] = level
            if level == limit:
                break
            level += 1
            # concatenated CSR rows of the frontier: row r spans indptr[r]..+deg[r]
            lo, deg = self._indptr[frontier], self._degrees[frontier]
            offsets = np.repeat(lo - np.cumsum(deg) + deg, deg)
            reached = self._indices[offsets + np.arange(offsets.size)]
            frontier = _sorted_unique(reached[dist[reached] < 0])
        return dist

    def _near(self, ids, limit) -> np.ndarray:
        """Per position: within ``limit`` hops of the raw ``ids`` present."""
        # "sort" skips the lookup-table set-up that dominates for a few ids
        return self.hops(np.flatnonzero(np.isin(self._ids, ids, kind="sort")), limit) >= 0

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, vertices) -> "Graph":
        """Induced subgraph on the given raw ids, in any order and with repeats;
        each is kept, even if isolated or absent from this graph."""
        vertices = _id_array(vertices)
        keep = np.isin(self._ids, vertices)
        pos = self._edge_positions
        return Graph(self._ids[pos[keep[pos[:, 0]] & keep[pos[:, 1]]]], vertices=vertices)

    def with_vertices(self, vertices) -> "Graph":
        """Same edges with the vertex set extended by ``vertices``."""
        return Graph(self.edges, vertices=np.concatenate([self._ids, _id_array(vertices)]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self._ids, other._ids)
                and np.array_equal(self._edge_positions, other._edge_positions))

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


def _absent_pairs(graph: Graph, count: int, rng: np.random.Generator,
                  exclude=()) -> np.ndarray:
    """Up to ``count`` distinct non-edges as (lo, hi) position rows, in draw order.

    Each attempt draws u, then v, with a scalar ``rng.integers(0, n)``; equal
    positions, edges, ``exclude`` pairs and repeats are rejected. After
    ``50 * count + 1000`` attempts it returns what it has, so a graph too
    dense to hold ``count`` absent pairs ends the loop. No attempt is made
    once no absent pair is left: a dense graph returns every absent pair
    without drawing on to the cap, and a complete graph draws nothing.
    """
    n = graph.num_vertices
    ends = graph.edge_positions
    taken = set((ends[:, 0] * n + ends[:, 1]).tolist())    # pair a < b has key a*n + b
    taken.update(min(a, b) * n + max(a, b) for a, b in exclude)
    pairs, attempts = [], 0
    while (len(pairs) < count and len(taken) < n * (n - 1) // 2
           and attempts < 50 * count + 1000):
        attempts += 1
        u, v = sorted((int(rng.integers(0, n)), int(rng.integers(0, n))))
        if u != v and u * n + v not in taken:
            taken.add(u * n + v)
            pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class TemporalGraphSequence:
    """Ordered snapshots G_0..G_T sharing a global vertex id namespace."""

    snapshots: list

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("a temporal sequence needs at least one snapshot")

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, t: int) -> Graph:
        return self.snapshots[t]


# -- file formats ----------------------------------------------------------


def _content_lines(path):
    """(line number, body, line as read) of each line of an ascii text file
    whose body, the line without its '#' comment and outer whitespace, is set.

    Every text input is read here: edge lists, manifests, config files and
    scenario files. A line with a byte outside ASCII, even in a comment,
    raises GraphFormatError naming the file and the line.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise GraphFormatError(f"{path}:{lineno}: not ASCII")
            body = line.split("#", 1)[0].strip()
            if body:
                yield lineno, body, line


# the start of a line that is not blank or 'u v' in ASCII digits, with or
# without a '#' comment and a CR before its LF; the match is anchored to one
# line, so the search backtracks over a line and not over the whole file
_PLAIN_LINE_MISS = re.compile(
    rb"^(?![ \t]*(?:[0-9]+[ \t]+[0-9]+[ \t]*)?(?:#[^\r\n]*)?\r?$)", re.M)
_COMMENT = re.compile(rb"#[^\n]*")


def _plain_edges(data: bytes):
    """The (m, 2) int64 id rows of an edge list's bytes, read in one array
    step; None unless every line is blank or plain 'u v' with u != v and
    both ids at most 2**63 - 1."""
    if not data.isascii() or _PLAIN_LINE_MISS.search(data):
        return None
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    try:
        ids = np.array(data.split(), dtype=np.uint64)
    except OverflowError:           # an id of 2**64 or more
        return None
    if (ids > _MAX_ID).any():
        return None
    rows = ids.astype(np.int64).reshape(-1, 2)
    if (rows[:, 0] == rows[:, 1]).any():
        return None
    return rows


def load_edge_list(path) -> Graph:
    """Read a whitespace-separated edge list ('u v' per line, '#' comments).

    A file of plain lines is parsed as one array (``_plain_edges``); any
    other file is read line by line, which accepts whatever ``int`` does
    (``+5``, ``1_000``, other whitespace) and names the first bad line.

    Raises
    ------
    GraphFormatError
        On unparseable lines, ids outside [0, 2**63 - 1] or self-loops,
        reporting path and line number.
    """
    with open(path, "rb") as fh:
        rows = _plain_edges(fh.read())
    if rows is not None:
        return Graph(rows)
    edges = []
    for lineno, body, line in _content_lines(path):
        parts = body.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 'u v', got {line.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"{path}:{lineno}: vertex ids must be integers, got {line.strip()!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"{path}:{lineno}: vertex ids must be nonnegative")
        if u > _MAX_ID or v > _MAX_ID:
            raise GraphFormatError(f"{path}:{lineno}: vertex ids must be at most 2**63 - 1")
        if u == v:
            raise GraphFormatError(f"{path}:{lineno}: self-loop {u}-{v} rejected")
        edges.append((u, v))
    return Graph(edges)


def write_edge_list(graph: Graph, path, header_lines=()) -> None:
    """Write the canonical sorted edge list, with optional '#' header lines."""
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(("%d %d\n" * graph.num_edges) % tuple(graph.edges.ravel().tolist()))


def load_sequence(manifest_path) -> TemporalGraphSequence:
    """Load a temporal sequence from a manifest of edge-list paths.

    The manifest lists one path per line (relative to the manifest's
    directory), in timestamp order.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = [os.path.join(base, body) for _, body, _ in _content_lines(manifest_path)]
    if not paths:
        raise GraphFormatError(f"{manifest_path}: manifest lists no edge-list files")
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(f"{manifest_path}: listed file not found: {p}")
    return TemporalGraphSequence([load_edge_list(p) for p in paths])


def union_graph(graphs) -> Graph:
    """Union of the graphs' vertex and edge sets, deduplicated by ``Graph``."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("union of zero graphs is undefined")
    return Graph(np.concatenate([g.edges for g in graphs]),
                 vertices=np.concatenate([g.vertices for g in graphs]))
