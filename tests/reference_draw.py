"""The per-entry step draw: the reference the fused ``perturb._sample_step`` is
checked against.

Here each entry of a step draw is drawn on its own: a changed community
walks its own induced subgraph, every walker at the counters of its edge's
position there, under the entry key ``_hash(sample key, 0, label)``, and a
fresh pair task draws its grid under ``_hash(sample key, 1, a, b)``. Each
draw is an (intra by label, inter by pair) pair of dicts of rows [sample, a,
b]. The keyed primitives (``_hash``, ``_uniforms``, ``_walker_counters``,
``walk_terminals``) are the library's.
"""

import itertools

import numpy as np

from linkmirage.graphs import _unique_rows
from linkmirage.markov import walk_terminals
from linkmirage.perturb import _REDRAWS, _ball, _hash, _uniforms, _walker_counters


def subgraphs(plan):
    """Label -> the induced subgraph of each changed community."""
    communities = plan.clustering.communities
    return {label: plan.graph.subgraph(communities[label]) for label in plan.diff.changed}


def draw_walker_edges(graph, k, keys, walkers=None):
    """One raw fake edge per walker in each of S samples, as (starts,
    terminals) positions of shape (S, walkers): walker w (the edge position,
    ascending; every edge when None) picks an end and walks k steps at its
    own counters under ``keys[s]``."""
    if walkers is None:
        ends, walkers = graph.edge_positions, np.arange(graph.num_edges)
    else:
        ends = graph.edge_positions[walkers]
    uniforms = _uniforms(keys[:, None, None], _walker_counters(walkers, k, 0, k + 1))
    starts = np.where(uniforms[:, 0] < 0.5, ends[:, 0], ends[:, 1])
    return starts, walk_terminals(graph, starts, uniforms[:, 1:])


def walks(graph, k, keys, walkers=None):
    """``draw_walker_edges`` with up to ``_REDRAWS`` rounds of redraws of the
    walks that return to their start."""
    starts, terms = draw_walker_edges(graph, k, keys, walkers)
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


def perturb_rows(graph, k, keys, ends=None, walkers=None):
    """Rows [sample, a, b], a < b, of S static perturbations of ``graph``:
    loops dropped, each sample's fake edges deduplicated and sorted; with
    ``ends``, only those with an end among them."""
    starts, terms = walks(graph, k, keys, walkers)
    keep = starts != terms
    if ends is not None:
        at = np.isin(graph.vertices, ends)
        keep &= at[starts] | at[terms]
    keep = np.flatnonzero(keep)
    a, b = starts.reshape(-1)[keep], terms.reshape(-1)[keep]
    sample, lo, hi = _unique_rows(keep // starts.shape[1], np.minimum(a, b), np.maximum(a, b))
    return np.column_stack([sample, graph.vertices[lo], graph.vertices[hi]])


def walker_rows(graph, k, keys, ids):
    """The degree check's raw walks: one first walk per edge in each sample,
    loops kept, as rows [sample, start, terminal], sample-major, naming
    positions in ``ids``, sorted ids that hold every vertex of ``graph``."""
    starts, terms = draw_walker_edges(graph, k, keys)
    names = np.searchsorted(ids, graph.vertices)
    sample = np.repeat(np.arange(keys.size), starts.shape[1])
    return np.column_stack([sample, names[starts.ravel()], names[terms.ravel()]])


def pair_sample(task, keys, cells=None):
    """Rows [sample, a, b] of S rewirings of one pair task, cell (i, j) at
    counter i*|nodes_b| + j; ``cells`` draws only those cells (every cell
    when None). Rows run cell by cell, then by sample, as the fused grid
    pass finds them."""
    if cells is None:
        cells = np.arange(task.nodes_a.size * task.nodes_b.size)
    at, sample = np.nonzero((_uniforms(keys[:, None], cells) < task.grid(cells)[0]).T)
    ai, bj = np.divmod(cells[at], task.nodes_b.size)
    return np.column_stack([sample, task.nodes_a[ai], task.nodes_b[bj]])


def balls(plans, ids, k):
    """Per plan, (label -> walkers in its subgraph or None, pair -> cells or
    None) of the entries of the communities of ``ids`` and of the pairs with
    one of those as an end: a changed community's walkers within k hops of
    ``ids``, a fresh pair's grid rows and columns of ``ids``, None for an
    entry the step copies."""
    out = []
    for plan in plans:
        subs = subgraphs(plan)
        own = {label for label, members in plan.clustering.communities.items()
               if members & set(ids)}
        walkers = {label: _ball(subs[label], k, ids) if label in subs else None
                   for label in own}
        cells = {(task.a, task.b): None if (task.a, task.b) in plan.reused_pairs
                 else task.cells_at(ids)
                 for task in plan.pair_tasks if {task.a, task.b} & own}
        out.append((walkers, cells))
    return out


def leavers(prev_clustering, plan):
    """Matched previous label -> its members outside the match now, read off
    the previous and the current clustering; a label none left has no key."""
    before, now = prev_clustering.communities, plan.clustering.communities
    return {prev: gone for prev, label in plan.diff.unchanged
            if (gone := before[prev] - now[label])}


def sample_step(plan, carried, params, keys, reads=None, draw=perturb_rows, prev=None):
    """S samples of one step draw, entry by entry: (intra by label, inter by
    pair). Copied entries are the carried ones minus rows touching their
    previous communities' leavers under ``prev``, the previous clustering.
    ``reads`` (from ``balls``) builds only its keys, each over its walkers
    or cells, and copies an entry the carried ball did not build as empty;
    ``draw(subgraph, k, keys[, walkers=])`` draws a community."""
    gone = {} if carried is None else leavers(prev, plan)

    def carry(part, key, *prev_labels):
        rows = part[key] if reads is None else part.get(key, np.empty((0, 3), np.int64))
        out = set().union(*(gone.get(p, ()) for p in prev_labels))
        return rows[~np.isin(rows[:, 1:], list(out)).any(axis=1)]

    walkers, cells = reads or ({}, {})
    subs = subgraphs(plan)
    intra = {label: carry(carried[0], prev_label, prev_label)
             for prev_label, label in plan.diff.unchanged
             if reads is None or label in walkers}
    inter = {pair: carry(carried[1], key, *key) for pair, key in plan.reused_pairs.items()
             if reads is None or pair in cells}
    for label in plan.diff.changed:
        if reads is None or label in walkers:
            ball = walkers.get(label)
            entry_keys = _hash(keys, 0, label)
            intra[label] = (draw(subs[label], params.k, entry_keys) if ball is None
                            else draw(subs[label], params.k, entry_keys, walkers=ball))
    for task in plan.pair_tasks:
        pair = (task.a, task.b)
        if pair not in plan.reused_pairs and (reads is None or pair in cells):
            inter[pair] = pair_sample(task, _hash(keys, 1, *pair), cells.get(pair))
    return intra, inter


def draws(plans, params, keys, reads=None, draw=perturb_rows):
    """The per-entry fold of ``sample_step`` over ``plans``, one list item
    per step."""
    out, carried, prev = [], None, None
    for plan, step_keys, read in zip(plans, keys, reads or itertools.repeat(None)):
        carried = sample_step(plan, carried, params, step_keys, read, draw, prev)
        out.append(carried)
        prev = plan.clustering
    return out


def reference_carries(plan, uv):
    """Oracle: a step carries edges the pair's features read when u or v is a
    member of a current community matched to a previous one."""
    return any(set(uv) & plan.clustering.communities[label] for _, label in plan.diff.unchanged)
