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
function, ``_sample_step``; ``_draws`` folds it over the plans, carrying each
draw into the next. The release and the posterior run that one fold, the
posterior building only the entries its query reads (``_reads``), and the
degree check draws through ``_sample_step`` too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .clustering import (Clustering, CommunityDiff, _edge_labels, changed_link_set,
                         classify_communities, cluster_static, recluster_dynamic)
from .graphs import Graph, TemporalGraphSequence, _absent_pairs, _canonical_edges
from .markov import walk_terminals

# spawn_key namespaces so mechanisms never share streams for the same (seed, t)
_NS_DYNAMIC = 0
_NS_STATIC = 1
_NS_HAY = 2


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


def draw_walker_edges(graph: Graph, k: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One raw fake edge per original edge, as (starts, terminals) positions.

    Each edge starts a k-hop walk at a uniformly chosen endpoint. Terminals
    may equal their start (self-loop); callers decide how to handle that.
    """
    ends = graph.edge_positions
    if ends.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pick = rng.random(ends.shape[0]) < 0.5
    starts = np.where(pick, ends[:, 0], ends[:, 1])
    terms = walk_terminals(graph, starts, k, rng)
    return starts, terms


def _perturb_edges(graph: Graph, k: int, rng: np.random.Generator) -> np.ndarray:
    """Array core of ``perturb_static``: the canonical fake edge array."""
    starts, terms = draw_walker_edges(graph, k, rng)
    for _ in range(10):
        loop = starts == terms
        if not loop.any():
            break
        terms[loop] = walk_terminals(graph, starts[loop], k, rng)
    keep = starts != terms
    ids = graph.vertices
    return _canonical_edges(np.column_stack([ids[starts[keep]], ids[terms[keep]]]))


def perturb_static(graph: Graph, k: int, rng: np.random.Generator) -> Graph:
    """Static random-walk perturbation of a whole graph (or community subgraph).

    Deletes all original edges; each original edge is replaced by the fake
    edge (start, terminal) of its k-hop walk. Walks that return to their
    start are redrawn up to 10 times and dropped if still self-looping;
    duplicate fake edges collapse. The vertex set is preserved.
    """
    if k < 1:
        raise ValueError("walk length k must be >= 1")
    return Graph(_perturb_edges(graph, k, rng), vertices=graph.vertices)


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

    def probabilities(self) -> np.ndarray:
        return np.minimum(np.outer(self.deg_a, self.deg_b) / float(self.n_edges), 1.0)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        mask = rng.random((self.nodes_a.size, self.nodes_b.size)) < self.probabilities()
        ai, bj = np.nonzero(mask)
        return np.column_stack([self.nodes_a[ai], self.nodes_b[bj]])


def group_edges(graph: Graph, clustering: Clustering) -> tuple[dict, dict]:
    """The edges of ``graph`` grouped by the labels of both endpoints, in the
    layout of one step draw: (intra by label, inter by (a, b) with a < b),
    keys ascending. Each edge is oriented (vertex in a, vertex in b), as
    ``_PairTask.sample`` draws it. An entry that holds no edge has no key.
    """
    ends = _edge_labels(graph, clustering)
    flip = ends[:, 0] > ends[:, 1]
    edges = graph.edges.copy()
    edges[flip], ends[flip] = edges[flip, ::-1], ends[flip, ::-1]
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    edges, ends = edges[order], ends[order]
    # labels are >= 0, so prepending -1 makes row 0 start a group too
    starts = np.flatnonzero(np.diff(ends[:, 0], prepend=-1) | np.diff(ends[:, 1], prepend=-1))
    intra, inter = {}, {}
    for (a, b), part in zip(ends[starts].tolist(), np.split(edges, starts[1:])):
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
    thousands of times per plan, without re-clustering.
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


def _reads(plans, ids) -> list:
    """Per plan, the step-draw entries that edges touching ``ids`` come from:
    (labels, pairs) of the intra and inter entries a draw must build.

    At each step these are the entries of the ids' communities and every pair
    task with one of them as an end, plus what the next step's entries copy:
    the previous label of an unchanged community and the previous key of a
    reused pair, back to t = 0. An entry holds only edges between members of
    its communities, so no other entry has an edge touching ``ids``.
    """
    reads = []
    labels, pairs = set(), set()    # what the step after needs from this one
    for plan in reversed(plans):
        own = set(plan.clustering.label_of(ids).tolist()) - {-1}
        labels |= own
        pairs |= {(task.a, task.b) for task in plan.pair_tasks if {task.a, task.b} & own}
        reads.append((labels, pairs))
        prev_for = plan.diff.prev_for
        labels = {prev_for[label] for label in labels if label in prev_for}
        pairs = {plan.reused_pairs[pair] for pair in pairs if pair in plan.reused_pairs}
    return reads[::-1]


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
    subgraphs = {label: Graph(intra.get(label, ()), vertices=clustering.communities[label])
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


def _sample_step(plan: _StepPlan, carried, params: PerturbParams,
                 rng: np.random.Generator, draw=_perturb_edges,
                 reads=None) -> tuple[dict, dict]:
    """Draw one step perturbation with reuse: (intra by label, inter by pair).

    ``carried`` is None at t=0, otherwise the previous step's draw, which
    holds every entry this step copies. Unchanged communities and reused
    pairs copy their carried entries, minus the edges touching
    ``plan.left``: ids that moved out of the matched previous community or
    left the snapshot.
    Changed communities are drawn by ``draw(subgraph, k, stream)`` and the
    other pairs are rewired, from child streams spawned in canonical order:
    changed labels ascending, then pair tasks ascending.
    ``reads`` is None to build every entry, as the release does, or one step
    of ``_reads``: the (labels, pairs) to build, the rest left out. Every
    child is spawned either way, but a generator is made only for an entry
    that is built. Each child feeds one entry alone, so an entry that is
    built is the same as in the full draw.
    """
    labels = plan.diff.changed
    # what ``rng.spawn`` advances, without a generator per child
    children = rng.bit_generator.seed_seq.spawn(len(labels) + len(plan.pair_tasks))
    if reads is None:
        reads = ({label for _, label in plan.diff.unchanged} | set(labels),
                 {(task.a, task.b) for task in plan.pair_tasks})
    read_labels, read_pairs = reads

    def stream(i):
        return np.random.Generator(type(rng.bit_generator)(children[i]))

    def carry(edges, *prev_labels):
        gone = [plan.left[p] for p in prev_labels if p in plan.left]
        if not gone:
            return edges
        # "sort" skips the lookup-table set-up that dominates for a few ids
        return edges[~np.isin(edges, np.concatenate(gone), kind="sort").any(axis=1)]

    intra = {label: carry(carried[0][prev_label], prev_label)
             for prev_label, label in plan.diff.unchanged if label in read_labels}
    intra.update((label, draw(plan.subgraphs[label], params.k, stream(i)))
                 for i, label in enumerate(labels) if label in read_labels)

    inter = {pair: carry(carried[1][key], *key)
             for pair, key in plan.reused_pairs.items() if pair in read_pairs}
    for i, task in enumerate(plan.pair_tasks, len(labels)):
        pair = (task.a, task.b)
        if pair in read_pairs and pair not in plan.reused_pairs:
            inter[pair] = task.sample(stream(i))
    return intra, inter


def _step_edges(intra: dict, inter: dict) -> np.ndarray:
    """Every edge of one step draw in one array; duplicates are kept."""
    pieces = [*intra.values(), *inter.values()]
    return np.concatenate(pieces) if pieces else np.empty((0, 2), np.int64)


def _step_rng(seed: int, t: int, namespace: int = _NS_DYNAMIC) -> np.random.Generator:
    """The stream of timestamp t under one mechanism's spawn-key namespace."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(namespace, t)))


def _draws(plans, params: PerturbParams, streams, reads=None):
    """Yield the step draw of each plan in turn, each drawn from its stream of
    ``streams`` and carrying the draw before it.

    ``reads`` is None to build every entry, or ``_reads(plans, ids)`` to
    build only the entries that edges touching ``ids`` come from. The
    streams are left in the same state either way.
    """
    carried = None
    for plan, rng, read in zip(plans, streams, reads or itertools.repeat(None)):
        carried = _sample_step(plan, carried, params, rng, reads=read)
        yield carried


def linkmirage_run(seq: TemporalGraphSequence, params: PerturbParams) -> tuple[list, list]:
    """The selective pipeline over a sequence: (perturbed graphs, records).

    At t=0 every community is perturbed; at t>0 unchanged communities and
    pairs copy the previous draw's edges of the members that stayed, and the
    rest is re-sampled from timestamp t's stream of ``params.seed``. So the
    release depends only on (inputs, params). Draws run in one thread.
    """
    plans = _plan_chain(seq, params)
    streams = (_step_rng(params.seed, t) for t in range(len(plans)))
    graphs = [Graph(_step_edges(*draw), vertices=g_t.vertices)
              for draw, g_t in zip(_draws(plans, params, streams), seq.snapshots)]
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
