"""Link obfuscation: static random-walk perturbation, inter-community
rewiring, and the selective dynamic pipeline over temporal sequences.

The static scheme replaces every original edge with one fake edge: a k-hop
random walk starts at a uniformly chosen endpoint of the edge and the walk's
terminal becomes the fake neighbor. Starting each walk at a uniformly chosen
endpoint makes the start distribution stationary, which is what preserves
every vertex's expected degree exactly, for any k.

The dynamic pipeline re-clusters each snapshot against the previous one,
copies the previous step's draw for unchanged communities and for
inter-community pairs whose both sides are unchanged, and re-perturbs only
what changed. So a record holds only the partition; its edges are the
release's. A copied edge is kept only while both endpoints stay in the
matched communities. Below theta = 1 a match may gain members; a joiner gets
no copied edge there and is perturbed fresh when its community next changes.
A step is laid out once as a deterministic plan (``_plan_chain``), from one
grouping of the snapshot's edges by community (``group_edges``): one graph
of its changed communities' intra edges and its inter-community pair tasks.
It is drawn by one function, ``_sample_step``, for a block of S samples at
once, in two fused passes over a layout of the entries it builds
(``_layout``): every walker of every changed community takes one uniform
pass and one walk, and every cell of every fresh pair grid one uniform pass.
A draw is one array of rows [sample, a, b] in no order any reader depends
on. A walk never leaves its community and a grid cell joins its pair's two,
so each row's entry is named by its ends' labels, and the step after copies
a carried row when both ends stayed in their matched communities
(``_StepPlan.kept``) and their labels are one such community or a reused
pair. ``_draws`` folds it over one layout per plan, carrying each draw into
the next; a layout holds all a draw reads of its plan, and k all it reads
of the parameters. The release is the block S = 1 under one key per
timestamp; the posterior and the degree check draw keyed samples of the
fold in blocks through one generator, ``_sample_blocks``. The posterior
lays out each step for its query alone (``_layout(plan, ids, k)``): only
the queried ids' own entries, their communities and the pairs those are an
end of, and of those only the part that can touch the ids, their k-hop
ball: a community's walkers whose edge has an end within k hops of them,
and a pair grid's rows and columns of them. No other entry holds a row at
the ids, so the carried ball holds every row at them that the step copies.
The static mechanism's posterior runs the same fold over
``_static_plans``, which hold each snapshot as one changed community. The
degree check walks its one plan's raw layout: every walker's first walk,
counted by one ``bincount`` per block.

Randomness is keyed, not streamed. Every uniform is a pure function of its
key and counter, computed with SplitMix64's finalizer on uint64 arrays
(``_hash``, ``_uniforms``): sample s's key at step t is
``_hash(roots[t], s)``, an entry's key hashes that with its community label
or pair (a, b), and a walker's uniforms sit at its own counters, one per
step and redraw round, placed by its rank among its community's edges
(``_walker_counters``); a pair grid's cell at its index. So an entry drawn
alone or fused with others, a block of samples, any block size, and a
ball's walkers and cells drawn alone all draw the same edges (keyed counter
streams can be grouped any way without changing a value), and no seed or
generator is made per entry or sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import (Clustering, CommunityDiff, _edge_communities, changed_link_set,
                         classify_communities, cluster_static, recluster_dynamic)
from .graphs import (Graph, TemporalGraphSequence, _absent_pairs, _sorted_unique,
                     _unique_rows)
from .markov import walk_terminals

# spawn_key namespaces so mechanisms never share streams for the same (seed, t)
_NS_DYNAMIC = 0
_NS_STATIC = 1
_NS_HAY = 2

# -- keyed uniforms ----------------------------------------------------------

# SplitMix64 (Steele, Lea & Flood 2014): the golden-ratio increment and the
# finalizer's multipliers
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_64 = np.uint64(_GAMMA)
_ONE_64 = np.uint64(1)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = tuple(np.uint64(shift) for shift in (30, 27, 31))
# a float64 in [1, 2): 52 random mantissa bits under the exponent of 1
_SHIFT_MANTISSA = np.uint64(12)
_ONE_EXPONENT = np.uint64(0x3FF0000000000000)
_MASK = (1 << 64) - 1
# uniforms finished at a time: a chunk and its temporary stay in cache, which
# made 1M-element hashes 3x faster than whole-array passes (2-vCPU VM)
_CHUNK = 1 << 15


def _finalize(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64's finalizer, in place on a uint64 array ``z`` (wraparound
    arithmetic), with ``tmp`` scratch of its shape: a bijection that
    scatters neighbouring inputs."""
    np.right_shift(z, _SHIFTS[0], out=tmp)
    z ^= tmp
    z *= _MIX_1
    np.right_shift(z, _SHIFTS[1], out=tmp)
    z ^= tmp
    z *= _MIX_2
    np.right_shift(z, _SHIFTS[2], out=tmp)
    z ^= tmp


def _increment(part) -> np.ndarray | np.uint64:
    """gamma * (part + 1) mod 2**64, for an int or an integer array."""
    if isinstance(part, np.ndarray):
        inc = np.add(part, _ONE_64, dtype=np.uint64, casting="unsafe")
        inc *= _GAMMA_64
        return inc
    return np.uint64((int(part) + 1) * _GAMMA & _MASK)


def _hash(key, *parts) -> np.ndarray:
    """Keys derived from ``key`` (an int or uint64 array) by hashing in each
    part in turn: key <- mix(key + gamma * (part + 1)), a SplitMix64 output of
    state ``key``. Parts are ints or integer arrays; the result broadcasts
    over them, as a uint64 array of at least one dimension.

    A child key is a hash, never a sum: with sums, the stream of sample s + 1
    would be that of sample s shifted by one counter. A key is hashed into
    children or read through ``_uniforms``, never both."""
    key = np.array(key, dtype=np.uint64, ndmin=1)
    for part in parts:
        key = key + _increment(part)
        _finalize(key, np.empty_like(key))
    return key


def _uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """U[0, 1) floats of 52 bits, mix(key + gamma * (counter + 1)) for every
    key and counter broadcast together: SplitMix64 at those counters of
    those keys' streams. Each float is made in place of its hash, so the
    result is the one array the sum made."""
    return _uniforms_of(keys + _increment(counters))


def _uniforms_of(z: np.ndarray) -> np.ndarray:
    """The U[0, 1) floats of the SplitMix64 states ``z``, a C-contiguous
    uint64 array, each made in place of its state: ``_uniforms`` after its
    sum."""
    flat = z.reshape(-1)
    tmp = np.empty(min(flat.size, _CHUNK), dtype=np.uint64)
    for start in range(0, flat.size, _CHUNK):
        x = flat[start:start + _CHUNK]
        _finalize(x, tmp[:x.size])
        x >>= _SHIFT_MANTISSA
        x |= _ONE_EXPONENT
        u = x.view(np.float64)
        u -= 1.0
    return flat.view(np.float64).reshape(z.shape)


def _root_key(rng: np.random.Generator) -> int:
    """One raw 64-bit draw from ``rng``: the root key of a keyed draw."""
    return int(rng.integers(1 << 64, dtype=np.uint64))


def _step_key(seed: int, t: int) -> np.ndarray:
    """The sample key of timestamp t of a LinkMirage release, as an array of
    one: sample 0 under the timestamp's root key, one raw draw of its
    ``SeedSequence``."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_NS_DYNAMIC, t))
    return _hash(seq.generate_state(1, np.uint64), 0)


def _step_rng(seed: int, t: int, namespace: int) -> np.random.Generator:
    """The stream of timestamp t under one mechanism's spawn-key namespace."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(namespace, t)))


@dataclass(frozen=True)
class PerturbParams:
    """Knobs of the obfuscation pipeline.

    k is the random-walk length (larger k = more noise), m the freeing
    radius for dynamic re-clustering, theta the unchanged-community overlap
    threshold, and seed the root of every derived random stream. Every
    community is perturbed with the same walk length k, and every community
    pair is rewired by one rule, p_ij = deg_a(i)*deg_b(j)/|E_ab| (``_PairTask``).
    """

    k: int = 2
    m: int = 2
    theta: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("walk length k must be >= 1")
        if self.m < 0:
            raise ValueError("freeing radius m must be >= 0")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")


@dataclass
class PerturbationRecord:
    """The partition of one timestamp.

    The release's edges are the step's draw, keyed by these labels
    (``group_edges`` regroups them), so the record holds only the partition.
    """

    timestamp: int
    clustering: Clustering

    def validate(self) -> None:
        """No-op: a record holds no edges to check. Kept while the benchmark
        harness (``perfbench``) still calls it."""

    def to_json_obj(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "communities": {str(lab): sorted(mem)
                            for lab, mem in self.clustering.communities.items()},
        }

    @staticmethod
    def from_json_obj(obj) -> "PerturbationRecord":
        return PerturbationRecord(
            timestamp=int(obj["timestamp"]),
            clustering=Clustering.from_groups(obj["communities"].values()),
        )


# -- static perturbation ----------------------------------------------------


_REDRAWS = 10    # rounds a self-looping walk is redrawn in before it is dropped


def _walker_counters(ranks: np.ndarray, k: int, first: int, count: int) -> np.ndarray:
    """Counters ``first .. first + count - 1`` of each walker's own block, as
    a (count, walkers) array. The walker of rank w owns 1 + (1 + _REDRAWS)k
    counters from w(1 + (1 + _REDRAWS)k): its endpoint pick, then k steps per
    round, the first walk being round 0."""
    return ranks * (1 + (1 + _REDRAWS) * k) + np.arange(first, first + count)[:, None]


def _ball(graph: Graph, k: int, ends) -> np.ndarray:
    """Positions of the edges of ``graph`` with an end within k hops of the
    ids ``ends``, ascending (ids absent from the graph reach nothing): the
    walkers whose fake edges can touch ``ends``. A fake edge starts at an end
    of its walker's edge and ends at most k hops from there, redraws
    included, so no other walker draws one."""
    near = graph._near(ends, k)
    pos = graph.edge_positions
    return np.flatnonzero(near[pos[:, 0]] | near[pos[:, 1]])


def _walk_rows(k: int, keys: np.ndarray, layout: "_DrawLayout") -> np.ndarray:
    """The fused walk of one step draw for S samples, as rows [sample, a,
    b]. ``keys`` holds the entry keys, shape (entries, S); the graph walked,
    the walkers, their entries and their ranks are ``layout``'s.

    Each walker starts a k-hop walk at a uniformly chosen end of its edge,
    reading its endpoint pick and its k steps at its own counters, those of
    its rank (``_walker_counters``), under its entry's key. So a walker draws
    the same walk among a few walkers as among all, and in one graph of
    several communities as in its community's own. All walkers of all
    entries take one uniform pass and one ``walk_terminals`` call, laid out
    walker-major: row w * S + s is walker w of sample s.

    A walk that returns to its start is redrawn up to ``_REDRAWS`` times:
    round r reads each such walker's round-r counters, and walks them all at
    once. Rows name ids a < b, loops dropped, each sample's deduplicated and
    sorted as ``_unique_rows`` sorts (sample, a, b): no walk leaves its
    community, so no two entries draw the same row. With ``layout.at``, only
    the fake edges with an end at those positions are kept. A raw layout
    keeps the first walk of every walker, loops included, as rows [sample,
    start, terminal] of positions, walker-major.
    """
    samples, graph = keys.shape[1], layout.graph
    walker_keys = keys[layout.entry]
    uniforms = _uniforms(walker_keys, _walker_counters(layout.ranks, k, 0, k + 1)[:, :, None])
    ends = graph.edge_positions[layout.walkers]
    starts = np.where(uniforms[0] < 0.5, ends[:, :1], ends[:, 1:]).reshape(-1)
    terms = walk_terminals(graph, starts, uniforms[1:].reshape(k, -1))
    if layout.raw:
        return np.column_stack([np.tile(np.arange(samples), layout.walkers.size), starts, terms])
    flat_keys = walker_keys.reshape(-1)
    for round_ in range(1, _REDRAWS + 1):
        loop = np.flatnonzero(starts == terms)
        if not loop.size:
            break
        uniforms = _uniforms(flat_keys[loop], _walker_counters(
            layout.ranks[loop // samples], k, 1 + round_ * k, k))
        terms[loop] = walk_terminals(graph, starts[loop], uniforms)
    keep = starts != terms
    if layout.at is not None:
        keep &= layout.at[starts] | layout.at[terms]
    keep = np.flatnonzero(keep)
    a, b = starts[keep], terms[keep]
    # positions follow the id order, so a canonical position pair is one of ids
    sample, lo, hi = _unique_rows(keep % samples, np.minimum(a, b), np.maximum(a, b))
    ids = graph.vertices
    return np.column_stack([sample, ids[lo], ids[hi]])


def perturb_static(graph: Graph, k: int, rng: np.random.Generator) -> Graph:
    """Static random-walk perturbation of a whole graph (or community subgraph).

    Deletes all original edges; each original edge is replaced by the fake
    edge (start, terminal) of its k-hop walk. Walks that return to their
    start are redrawn up to 10 times and dropped if still self-looping;
    duplicate fake edges collapse. The vertex set is preserved. The draw is
    keyed by one raw draw from ``rng`` (``_root_key``): the walk of the
    graph's static plan (``_static_plan``) with that key as its entry key.
    """
    if k < 1:
        raise ValueError("walk length k must be >= 1")
    keys = np.array([[_root_key(rng)]], dtype=np.uint64)
    rows = _walk_rows(k, keys, _layout(_static_plan(graph)))
    return Graph(rows[:, 1:], vertices=graph.vertices)


# -- inter-community rewiring ------------------------------------------------


@dataclass(frozen=True)
class _PairTask:
    """Inter-community rewiring of one community pair (a, b), a < b.

    Every pair of marginal nodes (i in a, j in b) gets an edge independently
    with probability min(1, p_ij), p_ij = deg_a(i)*deg_b(j)/|E_ab|, which
    preserves every marginal node's expected inter-degree. Degrees and |E_ab|
    count only edges between a and b.
    """

    a: int
    b: int
    nodes_a: np.ndarray     # marginal raw ids in a
    nodes_b: np.ndarray
    deg_a: np.ndarray       # inter-degrees, aligned with nodes_a
    deg_b: np.ndarray
    n_edges: int            # |E_ab|

    @staticmethod
    def of(a: int, b: int, edges: np.ndarray) -> "_PairTask":
        """The marginal-node structure of the pair (a, b) from its edges, each
        oriented (vertex in a, vertex in b) as ``group_edges`` gives them."""
        nodes_a, deg_a = np.unique(edges[:, 0], return_counts=True)
        nodes_b, deg_b = np.unique(edges[:, 1], return_counts=True)
        return _PairTask(a=a, b=b, nodes_a=nodes_a, nodes_b=nodes_b,
                         deg_a=deg_a, deg_b=deg_b, n_edges=len(edges))

    def grid(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """(min(1, p_ij), the ids (vertex in a, vertex in b) it joins, one row
        per cell) at the flat cells i*|nodes_b| + j of ``cells``."""
        i, j = np.divmod(cells, self.nodes_b.size)
        return (np.minimum(self.deg_a[i] * self.deg_b[j] / float(self.n_edges), 1.0),
                np.column_stack([self.nodes_a[i], self.nodes_b[j]]))

    def cells_at(self, ends) -> np.ndarray:
        """The flat cells, ascending, of the grid rows and columns of the ids
        ``ends``: every cell whose rewired edge can touch them."""
        # "sort" skips the lookup-table set-up that dominates for a few ids
        rows = np.flatnonzero(np.isin(self.nodes_a, ends, kind="sort"))
        cols = np.flatnonzero(np.isin(self.nodes_b, ends, kind="sort"))
        width = self.nodes_b.size
        return _sorted_unique(np.concatenate([(rows[:, None] * width + np.arange(width)).ravel(),
                                              (np.arange(self.nodes_a.size)[:, None] * width
                                               + cols).ravel()]))


def _grid_rows(layout: "_DrawLayout", keys: np.ndarray) -> np.ndarray:
    """The fused rewiring of one step draw for S samples, as rows [sample, a,
    b]. ``keys`` holds the grid keys, shape (grids, S); the cells, the cell
    count of each grid and their probabilities are ``layout``'s. Every cell
    of every grid takes one uniform pass, laid out cell-major: cell (i, j) of
    a grid reads counter i*|nodes_b| + j under its grid's key, so a cell
    draws the same among a few cells as in its whole grid. Rows are (vertex
    in a, vertex in b) in the order the pass finds them: grid by grid, then
    cell, then sample."""
    samples = keys.shape[1]
    # each cell's state is made in place of its gathered grid key, so the
    # pass holds one cells x S array
    states = np.repeat(keys, layout.sizes, axis=0)
    states += _increment(layout.cells)[:, None]
    hit = _uniforms_of(states) < layout.probabilities[:, None]
    cell, sample = np.divmod(np.flatnonzero(hit), samples)
    return np.column_stack([sample, layout.cell_ends[cell]])


def group_edges(graph: Graph, clustering: Clustering) -> tuple[dict, dict]:
    """The edges of ``graph`` grouped by the labels of both endpoints, in the
    layout of one step draw: (intra by label, inter by (a, b) with a < b),
    keys ascending. Each edge is oriented (vertex in a, vertex in b), as
    ``_PairTask`` rewires it. An entry that holds no edge has no key.
    """
    # community indices ascend with the labels, so one stable sort of the
    # key a * c + b of each oriented edge's indices orders the edges as the
    # (a, b) label pairs do, each group keeping its edges in edge order
    labels, ends = _edge_communities(graph, clustering)
    flip = ends[:, 0] > ends[:, 1]
    edges = graph.edges.copy()
    edges[flip], ends[flip] = edges[flip, ::-1], ends[flip, ::-1]
    keys = ends[:, 0] * labels.size + ends[:, 1]
    order = np.argsort(keys, kind="stable")
    edges, keys = edges[order], keys[order]
    # keys are >= 0, so prepending -1 makes row 0 start a group too
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    intra, inter = {}, {}
    for (a, b), part in zip(labels[ends[order[starts]]].tolist(), np.split(edges, starts[1:])):
        if a == b:
            intra[a] = part
        else:
            inter[(a, b)] = part
    return intra, inter


# -- selective dynamic pipeline ----------------------------------------------


@dataclass(frozen=True)
class _StepPlan:
    """Deterministic layout of one timestamp's perturbation.

    The plan holds no perturbed edges: ``_sample_step`` takes its layout
    (``_layout``) and the previous step's draw. So the release, the
    posterior's hypothesis re-perturbations and the degree check draw through
    the same function, in blocks of samples, thousands of samples per plan,
    without re-clustering.
    """

    clustering: Clustering
    diff: CommunityDiff
    graph: Graph             # changed communities' intra edges over the clustering's ids
    pair_tasks: list         # one _PairTask per connected community pair, ascending
    reused_pairs: dict       # (a, b) -> previous pair key whose edges are copied
    kept: Clustering         # previous ids still in their match -> its position in diff.unchanged


@dataclass(frozen=True)
class _DrawLayout:
    """What one step draw builds, laid out as arrays for its two fused
    passes (``_layout``): its walk entries, changed labels ascending, and
    its grid entries, fresh pairs ascending. It holds the plan's graph and
    its kept ids by reference, and what the carry reads of its reused pairs
    as one key array."""

    graph: Graph             # plan.graph, which the walks step on
    labels: np.ndarray       # walk entry e is the community labels[e]
    walkers: np.ndarray      # positions in graph of the edges that walk, ascending
    entry: np.ndarray        # each walker's walk entry
    ranks: np.ndarray        # each walker's rank among its community's edges, in edge order
    pairs: list              # grid entry g is the pair task pairs[g]'s (a, b)
    cells: np.ndarray        # each cell's flat index i*|nodes_b| + j in its grid, grid by grid
    sizes: np.ndarray        # each grid entry's cell count
    probabilities: np.ndarray  # each cell's min(1, p_ij)
    cell_ends: np.ndarray    # (cells, 2): the ends each cell joins
    kept: Clustering         # plan.kept, which labels each carried row's ends
    reused_keys: np.ndarray  # _pair_keys of the kept positions of each reused pair
    copies: bool             # whether an entry built is copied, not drawn
    at: np.ndarray | None    # per position of graph: keep fake edges there; None keeps all
    raw: bool                # first walks only, loops kept, rows naming positions


def _pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 key per unordered pair (a[i], b[i]) of positions below
    2**31; a pair with a negative position keys below 0."""
    return np.minimum(a, b) << 32 | np.maximum(a, b)


def _layout(plan: _StepPlan, ids=None, k=None, raw=False) -> _DrawLayout:
    """The layout of a draw of ``plan``: every entry whole when ``ids`` is
    None, else only the ids' own entries, each as far as it can touch them,
    their k-hop ball for walks of length k (k is required with ``ids``).

    A changed label is walked and an unchanged one copied; a pair that is
    not reused is rewired and a reused one copied. With ``ids``, the labels
    built are those of the ids' communities and the pairs those with one of
    them as an end. An entry holds only edges between members of its
    communities, so no other entry has an edge at ``ids``. A changed
    community walks only its walkers whose edge has an end within k hops of
    ``ids`` (``_ball`` of ``plan.graph``, where no walk leaves its
    community), a fresh pair draws only its grid rows and columns of ``ids``
    (``_PairTask.cells_at``), and only the fake edges with an end among them
    are kept. A ``raw`` layout, the degree check's, keeps every walker's
    first walk, loops included, and its rows name positions in
    ``plan.graph`` instead of ids.

    A walker reads the counters of its rank among its community's edges, its
    position in the community's own subgraph. No edge of ``plan.graph``
    joins two communities, so each CSR row holds the neighbours that row of
    that subgraph does, in the same order.
    """
    graph = plan.graph
    own = None if ids is None else set(plan.clustering.label_of(ids).tolist())

    def built(*labels):
        return own is None or not own.isdisjoint(labels)

    drawn = np.array([label for label in plan.diff.changed if built(label)], dtype=np.int64)
    # each edge's rank among its label's edges in edge order: its index in a
    # stable sort by label minus its label's first index there
    edge_label = plan.clustering.labels[graph.edge_positions[:, 0]]
    order = np.argsort(edge_label, kind="stable")
    by_label = edge_label[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.searchsorted(by_label, by_label)
    walkers = np.arange(graph.num_edges) if ids is None else _ball(graph, k, ids)
    tasks = [task for task in plan.pair_tasks
             if (task.a, task.b) not in plan.reused_pairs and built(task.a, task.b)]
    grids = [np.arange(task.nodes_a.size * task.nodes_b.size) if ids is None
             else task.cells_at(ids) for task in tasks]
    probabilities, cell_ends = zip(*map(_PairTask.grid, tasks, grids)) if tasks else ((), ())
    cell_ends = np.concatenate([np.empty((0, 2), np.int64), *cell_ends])
    if raw:
        cell_ends = np.searchsorted(graph.vertices, cell_ends)
    position = {label: j for j, (_, label) in enumerate(plan.diff.unchanged)}
    reused = np.array([(position[a], position[b]) for a, b in plan.reused_pairs],
                      dtype=np.int64).reshape(-1, 2)
    return _DrawLayout(
        graph=graph, labels=drawn, walkers=walkers,
        entry=np.searchsorted(drawn, edge_label[walkers]), ranks=rank[walkers],
        pairs=[(task.a, task.b) for task in tasks],
        cells=np.concatenate([np.empty(0, np.int64), *grids]),
        sizes=np.array([part.size for part in grids], dtype=np.int64),
        probabilities=np.concatenate([np.empty(0), *probabilities]), cell_ends=cell_ends,
        kept=plan.kept, reused_keys=_pair_keys(*reused.T),
        copies=any(built(label) for _, label in plan.diff.unchanged)
        or any(built(*pair) for pair in plan.reused_pairs),
        at=None if ids is None else np.isin(graph.vertices, ids, kind="sort"), raw=raw)


def build_step_plan(g_t: Graph, prev, params: PerturbParams) -> "_StepPlan":
    """Cluster, classify, and lay out reuse for one timestamp (no randomness).

    ``prev`` is None at t=0, otherwise (previous graph, previous plan). The
    step is laid out from one ``group_edges`` of ``g_t``: the changed
    communities' intra groups, over every id of the step, are the graph the
    step walks (so a community's part of it is its induced subgraph, isolated
    members kept), and each inter group is a pair task. A pair is reused
    when its two communities match previous ones that were connected in the
    previous graph: a pair task of the previous plan. The previous ids that
    stayed in their matched community are kept, each labelled by that
    community's position in ``diff.unchanged``.
    """
    kept = Clustering.from_groups([])
    if prev is None:
        clustering = cluster_static(g_t)
        diff = classify_communities(None, clustering, params.theta)
        prev_pairs = ()
    else:
        prev_graph, prev_plan = prev
        prev_clustering = prev_plan.clustering
        prev_pairs = {(task.a, task.b) for task in prev_plan.pair_tasks}
        changed = changed_link_set(prev_graph, g_t)
        clustering = recluster_dynamic(g_t, prev_clustering, changed, params.m)
        diff = classify_communities(prev_clustering, clustering, params.theta)
        now = clustering.label_of(prev_clustering.vertices)
        position = np.full(now.size, -1)
        for j, (p, c) in enumerate(diff.unchanged):
            position[(prev_clustering.labels == p) & (now == c)] = j
        stay = position >= 0
        kept = Clustering(vertices=prev_clustering.vertices[stay], labels=position[stay])

    intra, inter = group_edges(g_t, clustering)
    graph = Graph(np.concatenate([np.empty((0, 2), np.int64),
                                  *(intra[label] for label in diff.changed if label in intra)]),
                  vertices=clustering.vertices)
    pair_tasks = [_PairTask.of(a, b, edges) for (a, b), edges in inter.items()]
    prev_for = diff.prev_for
    reused_pairs = {}
    for task in pair_tasks:
        pa, pb = prev_for.get(task.a), prev_for.get(task.b)
        if pa is None or pb is None:
            continue
        key = (pa, pb) if pa < pb else (pb, pa)
        if key in prev_pairs:
            reused_pairs[(task.a, task.b)] = key
    return _StepPlan(clustering=clustering, diff=diff, graph=graph, pair_tasks=pair_tasks,
                     reused_pairs=reused_pairs, kept=kept)


def _plan_chain(seq: TemporalGraphSequence, params: PerturbParams) -> list:
    """The step plan of every snapshot, each laid out against the one before."""
    plans, prev = [], None
    for g_t in seq.snapshots:
        plan = build_step_plan(g_t, prev, params)
        plans.append(plan)
        prev = (g_t, plan)
    return plans


def _static_plan(g_t: Graph) -> _StepPlan:
    """The static mechanism's plan of one snapshot: one changed community
    that is the whole snapshot, labelled by its smallest id, whose graph is
    the snapshot itself. Nothing is clustered, matched, carried or rewired.
    A snapshot without ids has no community."""
    ids = g_t.vertices
    label = ids[:1]
    return _StepPlan(clustering=Clustering(vertices=ids, labels=label.repeat(ids.size)),
                     diff=CommunityDiff(unchanged=[], changed=label.tolist()),
                     graph=g_t, pair_tasks=[], reused_pairs={}, kept=Clustering.from_groups([]))


def _static_plans(seq: TemporalGraphSequence) -> list:
    """The static mechanism as a plan chain of ``_static_plan``s, so
    ``_draws`` walks each snapshot's layout afresh under the entry key
    ``_hash(sample key, 0, label)``."""
    return [_static_plan(g_t) for g_t in seq.snapshots]


# array entries (walk uniforms, grid cells) a block of samples holds at most
# in one step. A block's walks hold about 12 words per walker at their peak
# (its gathered entry key included), so this budget is about 2 MB. On the
# benchmark's audit workload (2-vCPU VM) the task took 0.26, 0.29-0.30 and
# 0.35-0.37 s at 1 << 16, 15 and 14, and peak RSS was 72.5-72.6, 71.4-71.5
# and 71.1 MB
_BLOCK_ENTRIES = 1 << 16


def _entries(layouts, k: int) -> int:
    """Array entries one sample of a fold over ``layouts``, one per plan,
    holds at its largest step: (k + 1) walk uniforms per walker and one per
    grid cell. A fold draws one step at a time and carries only rows into
    the next, so its largest step, not the sum of its steps, sizes a
    block."""
    return max(((k + 1) * layout.walkers.size + layout.cells.size for layout in layouts),
               default=0)


def _blocks(n: int, per_sample: int) -> list:
    """The sample indices 0 .. n - 1 split into the blocks that samples of
    ``per_sample`` array entries each are drawn in, in order: as many
    samples as ``_BLOCK_ENTRIES`` holds, and at least one."""
    size = max(1, _BLOCK_ENTRIES // max(1, per_sample))
    return np.split(np.arange(n), range(size, n, size))


def _sample_step(layout: _DrawLayout, carried, k: int, keys: np.ndarray) -> np.ndarray:
    """Draw S samples of one step perturbation with reuse, walks of length
    k, in two fused passes over the entries of ``layout``: one walk of every
    walker of every changed community (``_walk_rows``) and one uniform pass
    over every cell of every fresh pair grid (``_grid_rows``).

    ``carried`` is None at t=0, otherwise the previous step's draw of the
    same samples. Its rows are copied by the label rule: a row is kept when
    both its ends are in ``layout.kept``, ids still in their matched
    community, and their kept labels are one matched community (an
    unchanged community) or a reused pair. A walk never leaves its
    community and a grid cell joins its pair's two, so each carried row
    names its entry by its ends' previous labels, and matching is one to
    one: the rule copies exactly the rows of the copied entries whose ends
    both stay. ``keys`` holds the S samples' keys at this step. Sample s
    walks the community of changed label L under ``_hash(keys[s], 0, L)``
    and rewires the pair (a, b) that is not reused under ``_hash(keys[s],
    1, a, b)``. Each walker and cell reads its own counters under its
    entry's key, so a layout that builds only some entries, walkers or cells
    (a ball) draws the full draw's rows of those, whatever else is built.

    A draw is one (rows, 3) array of rows [sample, a, b]: the copied rows,
    then the walks' and the grids'. No reader depends on their order.
    """
    pieces = []
    if carried is not None:
        # one column at a time: a 2-D lookup and a row-wise min took longer
        a, b = (layout.kept.label_of(carried[:, end]) for end in (1, 2))
        # "sort" skips the lookup-table set-up that dominates for a few keys
        keep = ((a == b) & (a >= 0)) | np.isin(_pair_keys(a, b), layout.reused_keys, kind="sort")
        # compress: a boolean row index took 3x as long on 18k carried rows
        pieces.append(np.compress(keep, carried, axis=0))
    if layout.labels.size:
        pieces.append(_walk_rows(k, _hash(keys, 0, layout.labels[:, None]), layout))
    if layout.pairs:
        pairs = np.array(layout.pairs)
        pieces.append(_grid_rows(layout, _hash(keys, 1, pairs[:, :1], pairs[:, 1:])))
    return np.concatenate([np.empty((0, 3), np.int64), *pieces])


def _draws(layouts, k: int, keys):
    """Yield the step draw of each layout in turn, one per plan of a chain,
    for one block of samples: an array of rows [sample, a, b], drawn under
    its array of the samples' keys in ``keys`` and carrying the rows of the
    draw before it. A layout is
    ``_layout(plan)`` to build every entry whole, or ``_layout(plan, ids,
    k)`` to build only the entries of the ids' communities, and of those only
    their k-balls of ``ids``: each step's own entries, laid out alone.
    """
    carried = None
    for layout, step_keys in zip(layouts, keys, strict=True):
        carried = _sample_step(layout, carried, k, step_keys)
        yield carried


def _sample_blocks(layouts, k: int, roots, n: int, held: int):
    """Yield n keyed samples of the ``_draws`` fold over ``layouts`` in
    blocks, each as (its sample count, its fold), whose rows number the
    block's samples from 0. Sample s draws step t under
    ``_hash(roots[t], s)``. A sample holds ``_entries(layouts, k)`` array
    entries and the ``held`` ones its caller keeps; a block, as many samples
    as ``_BLOCK_ENTRIES`` holds."""
    for samples in _blocks(n, _entries(layouts, k) + held):
        yield samples.size, _draws(layouts, k, [_hash(root, samples) for root in roots])


def linkmirage_run(seq: TemporalGraphSequence, params: PerturbParams) -> tuple[list, list]:
    """The selective pipeline over a sequence: (perturbed graphs, records).

    At t=0 every community is perturbed; at t>0 unchanged communities and
    pairs copy the previous draw's edges of the members that stayed, and the
    rest is re-sampled under timestamp t's key of ``params.seed``
    (``_step_key``). So the release depends only on (inputs, params). Draws
    run in one thread, one step's layout at a time.
    """
    plans = _plan_chain(seq, params)
    draws = _draws(map(_layout, plans), params.k,
                   [_step_key(params.seed, t) for t in range(len(plans))])
    graphs = [Graph(draw[:, 1:], vertices=g_t.vertices)
              for draw, g_t in zip(draws, seq.snapshots)]
    return graphs, [PerturbationRecord(t, plan.clustering) for t, plan in enumerate(plans)]


def perturb_static_baseline_sequence(seq: TemporalGraphSequence, k: int,
                                     seed: int) -> list:
    """Whole-snapshot static perturbation, independently at each timestamp."""
    return [perturb_static(g_t, k, _step_rng(seed, t, _NS_STATIC))
            for t, g_t in enumerate(seq.snapshots)]


# -- r-delete / r-insert comparator -------------------------------------------


def hay_baseline(graph: Graph, r: int, rng: np.random.Generator) -> Graph:
    """Delete r uniformly chosen real edges and insert r uniform fake ones.

    The output has exactly |E| edges. Raises ValueError when
    ``_absent_pairs`` finds fewer than r fake edges.
    """
    m = graph.num_edges
    if not 0 <= r <= m:
        raise ValueError("r must lie in [0, |E|]")
    kept = np.delete(graph.edges, rng.choice(m, size=r, replace=False) if r else [], axis=0)
    inserted = _absent_pairs(graph, r, rng)
    if len(inserted) < r:
        raise ValueError(f"hay baseline found {len(inserted)} of the {r} absent "
                         f"vertex pairs it must insert; the graph is too dense")
    ids = graph.vertices
    return Graph(np.vstack([kept, ids[inserted]]), vertices=ids)


def hay_baseline_sequence(seq: TemporalGraphSequence, seed: int, r_fraction: float) -> list:
    return [hay_baseline(g_t, int(round(r_fraction * g_t.num_edges)),
                         _step_rng(seed, t, _NS_HAY))
            for t, g_t in enumerate(seq.snapshots)]
