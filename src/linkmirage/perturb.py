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
grouping of the snapshot's edges by community (``group_edges``): its changed
community subgraphs and its inter-community pair tasks. It is drawn by one
function, ``_sample_step``, for a block of S samples at once: each entry is
an array of rows [sample, a, b]. ``_draws`` folds it over the plans,
carrying each draw into the next. The release is the block S = 1 under one
key per timestamp; the posterior runs the same fold over blocks of
re-perturbations, building only the entries its query reads and of those
only the part that can touch the queried ids, their k-hop ball
(``_balls``): a community's walkers whose edge has an end within k hops of
them, and a pair grid's rows and columns of them. The static
mechanism's posterior runs the same fold over ``_static_plans``, which hold
each snapshot as one changed community. The degree check draws its trials in
blocks through ``_sample_step`` too, whole.

Randomness is keyed, not streamed. Every uniform is a pure function of its
key and counter, computed with SplitMix64's finalizer on uint64 arrays
(``_hash``, ``_uniforms``): a sample's key hashes a root key with the
sample index, an entry's key hashes that with the entry's community label
or pair (a, b), and a walker's uniforms sit at its own counters, one per
step and redraw round (``_walker_counters``); a pair grid's cell at its
index. So an entry drawn alone, a block of samples, any block size, and a
ball's walkers and cells drawn alone all draw the same edges, and no seed or
generator is made per entry or sample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .clustering import (Clustering, CommunityDiff, _edge_communities, changed_link_set,
                         classify_communities, cluster_static, recluster_dynamic)
from .graphs import Graph, TemporalGraphSequence, _absent_pairs, _unique_rows
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
    z = keys + _increment(counters)
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


def _walker_counters(walkers: np.ndarray, k: int, first: int, count: int) -> np.ndarray:
    """Counters ``first .. first + count - 1`` of each walker's own block, as
    a (count, walkers) array. Walker w owns 1 + (1 + _REDRAWS)k counters from
    w(1 + (1 + _REDRAWS)k): its endpoint pick, then k steps per round, the
    first walk being round 0."""
    return walkers * (1 + (1 + _REDRAWS) * k) + np.arange(first, first + count)[:, None]


def draw_walker_edges(graph: Graph, k: int, keys: np.ndarray,
                      walkers=None) -> tuple[np.ndarray, np.ndarray]:
    """One raw fake edge per walker in each of S samples, as (starts,
    terminals) positions of shape (S, walkers), sample s keyed by
    ``keys[s]``. The walkers are the edge positions ``walkers``, ascending,
    or every edge when None.

    Each walker starts a k-hop walk at a uniformly chosen endpoint of its
    edge. Walker w (the edge's position) reads its endpoint pick and its k
    steps at its own counters (``_walker_counters``), so each walk depends
    only on its key and its edge, and a walker drawn among a few walks as it
    does among all. Terminals may equal their start (self-loop); callers
    decide how to handle that.
    """
    if walkers is None:
        ends, walkers = graph.edge_positions, np.arange(graph.num_edges)
    else:
        ends = graph.edge_positions[walkers]
    counters = _walker_counters(walkers, k, 0, k + 1)
    uniforms = _uniforms(keys[:, None, None], counters)
    starts = np.where(uniforms[:, 0] < 0.5, ends[:, 0], ends[:, 1])
    return starts, walk_terminals(graph, starts, uniforms[:, 1:])


def _walks(graph: Graph, k: int, keys: np.ndarray,
           walkers=None) -> tuple[np.ndarray, np.ndarray]:
    """``draw_walker_edges`` with the static scheme's redraws: a walk that
    returns to its start is redrawn up to ``_REDRAWS`` times. Round r reads
    each such walker's round-r counters, and walks them all at once. Only
    ``walkers`` walk, as there."""
    starts, terms = draw_walker_edges(graph, k, keys, walkers)
    # flat views: the walkers of sample s are s*W .. (s+1)*W - 1, W walkers a sample
    flat_starts, flat_terms = starts.reshape(-1), terms.reshape(-1)
    for round_ in range(1, _REDRAWS + 1):
        loop = np.flatnonzero(flat_starts == flat_terms)
        if not loop.size:
            break
        sample, walker = np.divmod(loop, starts.shape[1])
        if walkers is not None:
            walker = walkers[walker]
        uniforms = _uniforms(keys[sample], _walker_counters(walker, k, 1 + round_ * k, k))
        flat_terms[loop] = walk_terminals(graph, flat_starts[loop], uniforms)
    return starts, terms


def _ball(graph: Graph, k: int, ends) -> np.ndarray:
    """Positions of the edges of ``graph`` with an end within k hops of the
    ids ``ends``, ascending (ids absent from the graph reach nothing): the
    walkers whose fake edges can touch ``ends``. A fake edge starts at an end
    of its walker's edge and ends at most k hops from there, redraws
    included, so no other walker draws one."""
    near = graph._near(ends, k)
    pos = graph.edge_positions
    return np.flatnonzero(near[pos[:, 0]] | near[pos[:, 1]])


def _perturb_rows(graph: Graph, k: int, keys: np.ndarray, ends=None,
                  walkers=None) -> np.ndarray:
    """Array core of ``perturb_static`` for S samples keyed by ``keys``: rows
    [sample, a, b], a < b, each sample's fake edges deduplicated and sorted.

    With ``ends`` (ids), only the fake edges with an end among them are
    kept. Only the edge positions ``walkers`` walk, or every edge when None.
    Each walker reads its own counters, so with ``walkers`` the k-ball of
    ``ends`` (``_ball``) the rows kept are the full draw's rows at ``ends``."""
    starts, terms = _walks(graph, k, keys, walkers)
    keep = starts != terms
    if ends is not None:
        at = np.isin(graph.vertices, ends)
        keep &= at[starts] | at[terms]
    keep = np.flatnonzero(keep)
    a, b = starts.reshape(-1)[keep], terms.reshape(-1)[keep]
    # positions follow the id order, so a canonical position pair is one of ids
    sample, lo, hi = _unique_rows(keep // starts.shape[1], np.minimum(a, b), np.maximum(a, b))
    return np.column_stack([sample, graph.vertices[lo], graph.vertices[hi]])


def perturb_static(graph: Graph, k: int, rng: np.random.Generator) -> Graph:
    """Static random-walk perturbation of a whole graph (or community subgraph).

    Deletes all original edges; each original edge is replaced by the fake
    edge (start, terminal) of its k-hop walk. Walks that return to their
    start are redrawn up to 10 times and dropped if still self-looping;
    duplicate fake edges collapse. The vertex set is preserved. The draw is
    keyed by one raw draw from ``rng`` (``_root_key``).
    """
    if k < 1:
        raise ValueError("walk length k must be >= 1")
    keys = np.array([_root_key(rng)], dtype=np.uint64)
    return Graph(_perturb_rows(graph, k, keys)[:, 1:], vertices=graph.vertices)


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

    def probabilities(self, cells) -> np.ndarray:
        """min(1, p_ij) at the flat cells i*|nodes_b| + j of ``cells``."""
        i, j = np.divmod(cells, self.nodes_b.size)
        return np.minimum(self.deg_a[i] * self.deg_b[j] / float(self.n_edges), 1.0)

    def cells_at(self, ends) -> np.ndarray:
        """The flat cells, ascending, of the grid rows and columns of the ids
        ``ends``: every cell whose rewired edge can touch them."""
        rows = np.flatnonzero(np.isin(self.nodes_a, ends))
        cols = np.flatnonzero(np.isin(self.nodes_b, ends))
        width = self.nodes_b.size
        return np.union1d((rows[:, None] * width + np.arange(width)).ravel(),
                          (np.arange(self.nodes_a.size)[:, None] * width + cols).ravel())

    def sample(self, keys: np.ndarray, cells=None) -> np.ndarray:
        """Rows [sample, a, b] of S rewirings, sample s keyed by ``keys[s]``:
        cell (i, j) reads counter i*|nodes_b| + j, and the samples' cells are
        read by one ``nonzero``. ``cells`` (from ``cells_at``) draws only
        those cells, the rows of the whole grid's draw that they hold; None
        draws the whole grid."""
        if cells is None:
            cells = np.arange(self.nodes_a.size * self.nodes_b.size)
        sample, at = np.nonzero(_uniforms(keys[:, None], cells) < self.probabilities(cells))
        ai, bj = np.divmod(cells[at], self.nodes_b.size)
        return np.column_stack([sample, self.nodes_a[ai], self.nodes_b[bj]])


def group_edges(graph: Graph, clustering: Clustering) -> tuple[dict, dict]:
    """The edges of ``graph`` grouped by the labels of both endpoints, in the
    layout of one step draw: (intra by label, inter by (a, b) with a < b),
    keys ascending. Each edge is oriented (vertex in a, vertex in b), as
    ``_PairTask.sample`` draws it. An entry that holds no edge has no key.
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

    The plan holds no perturbed edges: ``_sample_step`` takes the previous
    step's edges as an argument. So the release, the posterior's hypothesis
    re-perturbations and the degree check draw through the same function,
    in blocks of samples, thousands of samples per plan, without
    re-clustering.
    """

    clustering: Clustering
    diff: CommunityDiff
    subgraphs: dict          # label -> community subgraph (changed labels only)
    pair_tasks: list         # one _PairTask per connected community pair, ascending
    reused_pairs: dict       # (a, b) -> previous pair key whose edges are copied
    left: dict               # matched previous label -> its ids outside the match now

    def carries(self, ids) -> bool:
        """Whether this step copies edges that can touch ``ids``: it does when
        the community of one of the ids is matched to a previous one. A
        changed community, and every pair it is in, is drawn fresh."""
        return bool(set(self.clustering.label_of(ids).tolist())
                    & {label for _, label in self.diff.unchanged})

    def drawn(self, reads=None):
        """The entries a draw builds: (label, None, walkers) per changed
        label, then ((a, b), task, cells) per pair task that is not reused.
        ``reads`` is None for every such entry, drawn whole, or one step of
        ``_balls``: only its keys are built, each drawing the walkers or
        cells it maps to, or the whole entry where that is None."""
        walkers, cells = reads or ({}, {})
        for label in self.diff.changed:
            if reads is None or label in walkers:
                yield label, None, walkers.get(label)
        for task in self.pair_tasks:
            pair = (task.a, task.b)
            if pair not in self.reused_pairs and (reads is None or pair in cells):
                yield pair, task, cells.get(pair)


def _balls(plans, ids, k: int) -> list:
    """Per plan, the step-draw entries that edges touching ``ids`` come from,
    each with the part of it that can touch them, its k-hop ball: (label ->
    walkers, pair -> cells).

    At each step these are the entries of the ids' communities and every pair
    task with one of them as an end, plus what the next step's entries copy:
    the previous label of an unchanged community and the previous key of a
    reused pair, back to t = 0. An entry holds only edges between members of
    its communities, so no other entry has an edge touching ``ids``. A
    changed community maps to its walkers that can touch ``ids`` (``_ball``),
    a pair that is not reused to its grid cells in the rows and columns of
    ``ids`` (``_PairTask.cells_at``), and an entry the step copies to None.
    Each is found once, for every block drawn after.
    """
    balls = []
    labels, pairs = set(), set()    # what the step after copies from this one
    for plan in reversed(plans):
        own = set(plan.clustering.label_of(ids).tolist()) - {-1}
        walkers = {label: _ball(plan.subgraphs[label], k, ids) if label in plan.subgraphs
                   else None for label in labels | own}
        cells = {}
        for task in plan.pair_tasks:
            pair = (task.a, task.b)
            if pair in pairs or {task.a, task.b} & own:
                cells[pair] = None if pair in plan.reused_pairs else task.cells_at(ids)
        balls.append((walkers, cells))
        prev_for = plan.diff.prev_for
        labels = {prev_for[label] for label in walkers if label in prev_for}
        pairs = {plan.reused_pairs[pair] for pair in cells if pair in plan.reused_pairs}
    return balls[::-1]


def build_step_plan(g_t: Graph, prev, params: PerturbParams) -> "_StepPlan":
    """Cluster, classify, and lay out reuse for one timestamp (no randomness).

    ``prev`` is None at t=0, otherwise (previous graph, previous plan). The
    step is laid out from one ``group_edges`` of ``g_t``: each changed
    community's subgraph is its intra group over all its members (so isolated
    members are kept, as in ``g_t.subgraph``), and each inter group is a pair
    task. A pair is reused when its two communities match previous ones that
    were connected in the previous graph: a pair task of the previous plan.
    """
    left = {}
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
        ids, now = prev_clustering.vertices, clustering.label_of(prev_clustering.vertices)
        left = {p: gone for p, c in diff.unchanged
                if (gone := ids[(prev_clustering.labels == p) & (now != c)]).size}

    intra, inter = group_edges(g_t, clustering)
    communities = clustering.communities
    subgraphs = {label: Graph(intra.get(label, ()), vertices=communities[label])
                 for label in diff.changed}
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
    return _StepPlan(clustering=clustering, diff=diff,
                     subgraphs=subgraphs, pair_tasks=pair_tasks,
                     reused_pairs=reused_pairs, left=left)


def _plan_chain(seq: TemporalGraphSequence, params: PerturbParams) -> list:
    """The step plan of every snapshot, each laid out against the one before."""
    plans, prev = [], None
    for g_t in seq.snapshots:
        plan = build_step_plan(g_t, prev, params)
        plans.append(plan)
        prev = (g_t, plan)
    return plans


def _static_plans(seq: TemporalGraphSequence) -> list:
    """The static mechanism as a plan chain: per snapshot, one changed
    community that is the whole snapshot, labelled by its smallest id, whose
    subgraph is the snapshot itself. Nothing is clustered, matched, carried
    or rewired, so ``_draws`` walks each snapshot afresh under the entry key
    ``_hash(sample key, 0, label)``. A snapshot without ids has no community."""
    plans = []
    for g_t in seq.snapshots:
        ids = g_t.vertices
        label = ids[:1]
        plans.append(_StepPlan(clustering=Clustering(vertices=ids, labels=label.repeat(ids.size)),
                               diff=CommunityDiff(unchanged=[], changed=label.tolist()),
                               subgraphs=dict.fromkeys(label.tolist(), g_t), pair_tasks=[],
                               reused_pairs={}, left={}))
    return plans


# array entries (walk uniforms, grid cells) a block of samples holds at most
# in one step. A block's walks hold about 11 words per walker at their peak,
# so this budget is about 2 MB. On the benchmark's audit workload (2-vCPU VM)
# the task took 0.39-0.41, 0.48-0.49 and 0.65-0.69 s at 1 << 16, 15 and 14,
# and peak RSS was 72.7, 71.9 and 71.4 MB
_BLOCK_ENTRIES = 1 << 16


def _entries(plans, k: int, reads=None) -> int:
    """Array entries one sample of a fold over ``plans`` holds at its largest
    step: for each entry ``_StepPlan.drawn`` builds, (k + 1) walk uniforms per
    walker and one per grid cell. ``reads`` is None or ``_balls(plans, ids,
    k)``, as in ``_draws``: a community walks every edge and a pair draws its
    whole grid, or only its ball's walkers and cells. A fold draws one step
    at a time and carries only rows into the next, so its largest step, not
    the sum of its steps, sizes a block."""
    def step(plan, read):
        total = 0
        for key, task, ball in plan.drawn(read):
            if task is None:
                total += (k + 1) * (plan.subgraphs[key].num_edges if ball is None
                                    else ball.size)
            else:
                total += task.nodes_a.size * task.nodes_b.size if ball is None else ball.size
        return total

    return max(itertools.starmap(step, zip(plans, reads or itertools.repeat(None))),
               default=0)


def _blocks(n: int, per_sample: int) -> list:
    """The sample indices 0 .. n - 1 split into the blocks that samples of
    ``per_sample`` array entries each are drawn in, in order: as many
    samples as ``_BLOCK_ENTRIES`` holds, and at least one."""
    size = max(1, _BLOCK_ENTRIES // max(1, per_sample))
    return np.split(np.arange(n), range(size, n, size))


def _sample_step(plan: _StepPlan, carried, params: PerturbParams, keys: np.ndarray,
                 draw=_perturb_rows, reads=None) -> tuple[dict, dict]:
    """Draw S samples of one step perturbation with reuse: (intra by label,
    inter by pair), each entry an array of rows [sample, a, b].

    ``carried`` is None at t=0, otherwise the previous step's draw of the
    same samples, which holds every entry this step copies. Unchanged
    communities and reused pairs copy their carried entries, minus the rows
    touching ``plan.left``: ids that moved out of the matched previous
    community or left the snapshot.
    ``keys`` holds the S samples' keys at this step. Sample s draws the
    entry of changed label L under ``_hash(keys[s], 0, L)``, with ``draw(
    subgraph, k, entry keys)``, and rewires the pair (a, b) that is not
    reused under ``_hash(keys[s], 1, a, b)``. ``reads`` is None to build
    every entry whole, as the release does, or one step of ``_balls`` of the
    ids a posterior queries: only its keys are built (``_StepPlan.drawn``),
    each community drawing only its ball's walkers, with ``draw(...,
    walkers=...)``, a ``_perturb_rows`` that keeps the rows at those ids,
    and each pair only the grid rows and columns of the ids. An entry's draw
    depends only on its key, and walkers and cells read their own counters,
    so these are the full draw's rows at the ids, whatever else is built.
    """
    def carry(rows, *prev_labels):
        gone = [plan.left[p] for p in prev_labels if p in plan.left]
        if not gone:
            return rows
        # "sort" skips the lookup-table set-up that dominates for a few ids
        return rows[~np.isin(rows[:, 1:], np.concatenate(gone), kind="sort").any(axis=1)]

    intra = {label: carry(carried[0][prev_label], prev_label)
             for prev_label, label in plan.diff.unchanged if reads is None or label in reads[0]}
    inter = {pair: carry(carried[1][key], *key)
             for pair, key in plan.reused_pairs.items() if reads is None or pair in reads[1]}
    for key, task, ball in plan.drawn(reads):
        if task is None:
            graph, entry_keys = plan.subgraphs[key], _hash(keys, 0, key)
            intra[key] = (draw(graph, params.k, entry_keys) if ball is None
                          else draw(graph, params.k, entry_keys, walkers=ball))
        else:
            inter[key] = task.sample(_hash(keys, 1, *key), ball)
    return intra, inter


def _step_rows(intra: dict, inter: dict) -> np.ndarray:
    """Every row [sample, a, b] of one step draw in one array; duplicates are
    kept."""
    pieces = [*intra.values(), *inter.values()]
    return np.concatenate(pieces) if pieces else np.empty((0, 3), np.int64)


def _draws(plans, params: PerturbParams, keys, reads=None, draw=_perturb_rows):
    """Yield the step draw of each plan in turn for one block of samples,
    each drawn under its array of the samples' keys in ``keys`` and carrying
    the draw before it.

    ``reads`` is None to build every entry whole, or ``_balls(plans, ids,
    k)`` to build only the entries that edges touching ``ids`` come from,
    and of those only their k-balls of ``ids``. ``draw`` draws the changed
    communities, as in ``_sample_step``.
    """
    carried = None
    for plan, step_keys, read in zip(plans, keys, reads or itertools.repeat(None)):
        carried = _sample_step(plan, carried, params, step_keys, draw, read)
        yield carried


def linkmirage_run(seq: TemporalGraphSequence, params: PerturbParams) -> tuple[list, list]:
    """The selective pipeline over a sequence: (perturbed graphs, records).

    At t=0 every community is perturbed; at t>0 unchanged communities and
    pairs copy the previous draw's edges of the members that stayed, and the
    rest is re-sampled under timestamp t's key of ``params.seed``
    (``_step_key``). So the release depends only on (inputs, params). Draws
    run in one thread.
    """
    plans = _plan_chain(seq, params)
    draws = _draws(plans, params, [_step_key(params.seed, t) for t in range(len(plans))])
    graphs = [Graph(_step_rows(*draw)[:, 1:], vertices=g_t.vertices)
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


def hay_baseline_sequence(seq: TemporalGraphSequence, seed: int,
                          r_fraction: float = 0.5) -> list:
    return [hay_baseline(g_t, int(round(r_fraction * g_t.num_edges)),
                         _step_rng(seed, t, _NS_HAY))
            for t, g_t in enumerate(seq.snapshots)]
