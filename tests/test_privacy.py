import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_graph, sample_step, small_overlap_sequence, step_edges
from linkmirage import (Graph, LinkQuery, PerturbParams, PriorModel,
                        TemporalGraphSequence, TransitionMatrix, anti_aggregation,
                        anti_aggregation_aggregated, estimation_error_bound_check,
                        group_edges, indistinguishability, indistinguishability_series,
                        linkmirage_run, matrix_power,
                        perturb_static_baseline_sequence, planted_partition_graph,
                        posterior_probability, prior_probability, ring_of_blocks,
                        transition_matrix, tv_distance)
from linkmirage import perturb, privacy
from linkmirage.perturb import _plan_chain, _root_key, perturb_static_baseline_sequence
from linkmirage.privacy import _edge_feature, fit_logistic_1d
from reference_draw import reference_carries


# -- prior ---------------------------------------------------------------------


def test_prior_clipped_to_band(rng):
    g = random_graph(10, 0.3, rng, ensure_edge=True)
    seq = TemporalGraphSequence([g])
    model = PriorModel(seed=1)
    us, vs = g.vertices[:2]
    q = LinkQuery(t=0, u=int(us), v=int(vs))
    p = prior_probability(q, model, seq)
    assert 0.01 <= p <= 0.99


def test_prior_zero_common_neighbors_low():
    # two far-apart vertices in a graph where every edge closes triangles
    k4a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    k4b = [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)]
    g = Graph(k4a + k4b + [(3, 4)])
    seq = TemporalGraphSequence([g])
    p_far = prior_probability(LinkQuery(t=0, u=0, v=7), PriorModel(seed=2), seq)
    p_close = prior_probability(LinkQuery(t=0, u=0, v=1), PriorModel(seed=2), seq)
    assert p_far < p_close


def test_prior_calibration_tracks_heldout_frequency(rng):
    # fit on one planted graph; mean prediction over a balanced held-out set
    # should reproduce the held-out positive frequency (0.5) within 0.1
    g, _ = planted_partition_graph([10, 10], 0.55, 0.05, rng)
    seq = TemporalGraphSequence([g])
    model = PriorModel(seed=3)
    edges = [tuple(e) for e in g.edges.tolist()]
    non_edges = []
    existing = set(map(tuple, g.edges.tolist()))
    while len(non_edges) < len(edges):
        u, v = int(rng.integers(0, 20)), int(rng.integers(0, 20))
        if u != v and (min(u, v), max(u, v)) not in existing:
            non_edges.append((min(u, v), max(u, v)))
    held = edges[::2] + non_edges[::2]
    truth = [1] * len(edges[::2]) + [0] * len(non_edges[::2])
    preds = [prior_probability(LinkQuery(t=0, u=u, v=v), model, seq)
             for u, v in held]
    assert abs(np.mean(preds) - np.mean(truth)) <= 0.1


def common_neighbors(graph, u, v):
    return int(np.intersect1d(graph.neighbors(u), graph.neighbors(v)).size)


def reference_prior(query, model, seq):
    """Oracle: the prior as first written, with a tuple-set rejection loop
    and one neighbour-list intersection per scored pair."""
    graph = seq[query.t]
    qpair = query.pair
    pos_pairs = [(u, v) for u, v in graph.edges.tolist() if (u, v) != qpair]
    rng = np.random.default_rng(np.random.SeedSequence(model.seed))
    n_neg = max(1, int(round(privacy.NEGATIVES_PER_POSITIVE * max(len(pos_pairs), 1))))
    ids = graph.vertices
    existing = set(map(tuple, graph.edges.tolist()))
    neg_pairs, seen, attempts = [], set(), 0
    while len(neg_pairs) < n_neg and attempts < 50 * n_neg + 1000:
        attempts += 1
        u = int(ids[rng.integers(0, ids.size)])
        v = int(ids[rng.integers(0, ids.size)])
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing or key in seen or key == qpair:
            continue
        seen.add(key)
        neg_pairs.append(key)
    x = np.array([common_neighbors(graph, u, v) for u, v in pos_pairs + neg_pairs],
                 dtype=np.float64)
    y = np.concatenate([np.ones(len(pos_pairs)), np.zeros(len(neg_pairs))])
    b0, b1 = fit_logistic_1d(x, y)
    score = b0 + b1 * common_neighbors(graph, query.u, query.v)
    prob = 1.0 / (1.0 + math.exp(-max(min(score, 35.0), -35.0)))
    return float(min(max(prob, 0.01), 0.99))


def test_prior_matches_the_pairwise_loop(monkeypatch, rng):
    for trial in range(25):
        n = int(rng.integers(3, 25))
        base = random_graph(n, rng.uniform(0.05, 0.9), rng, ensure_edge=True)
        ids = rng.permutation(np.arange(n) * 3 + 1)
        seq = TemporalGraphSequence([Graph(ids[base.edges], vertices=ids)])
        # the queried pair is an edge in some trials and absent in others
        u, v = (int(x) for x in rng.choice(ids, size=2, replace=False))
        query = LinkQuery(t=0, u=u, v=v)
        monkeypatch.setattr(privacy, "NEGATIVES_PER_POSITIVE", rng.choice([0.5, 1.0, 3.0]))
        model = PriorModel(seed=trial)
        assert prior_probability(query, model, seq) == reference_prior(query, model, seq)


@pytest.mark.parametrize("entries", [1, 7, 64])
def test_prior_in_small_product_blocks_matches_the_pairwise_loop(monkeypatch, rng, entries):
    # a hub joined to every vertex makes each block as small as the cap allows
    monkeypatch.setattr(privacy, "_PRODUCT_ENTRIES", entries)
    n = 30
    base = random_graph(n, 0.15, rng, ensure_edge=True)
    hub = np.column_stack([np.full(n - 1, n - 1), np.arange(n - 1)])
    seq = TemporalGraphSequence([Graph(np.concatenate([base.edges, hub]))])
    for u, v in [(0, 1), (2, n - 1), (5, 17)]:
        query = LinkQuery(t=0, u=u, v=v)
        assert prior_probability(query, PriorModel(seed=u), seq) \
            == reference_prior(query, PriorModel(seed=u), seq)


def test_prior_matches_the_pairwise_loop_on_the_overlap_sequence():
    seq = small_overlap_sequence()
    for t, (u, v) in itertools.product(range(len(seq)), [(0, 1), (20, 21), (5, 45)]):
        query = LinkQuery(t=t, u=u, v=v)
        assert prior_probability(query, PriorModel(seed=t), seq) \
            == reference_prior(query, PriorModel(seed=t), seq)


def test_prior_vertex_absent_errors():
    seq = TemporalGraphSequence([Graph([(0, 1)])])
    with pytest.raises(KeyError):
        prior_probability(LinkQuery(t=0, u=0, v=9), PriorModel(), seq)


def test_a_prior_past_the_sequence_is_refused():
    # the estimators' message, not a bare IndexError from seq[t]
    seq = small_overlap_sequence()
    message = f"t={len(seq)} is past a sequence of {len(seq)} snapshots"
    with pytest.raises(ValueError, match=message):
        prior_probability(LinkQuery(t=len(seq), u=1, v=2), PriorModel(), seq)


def test_a_query_past_the_sequence_is_refused():
    # past the sequence, the prior would index no snapshot
    seq, params, observed, query, model = _pinned_inputs()
    late = LinkQuery(t=len(seq), u=query.u, v=query.v)
    message = f"t={len(seq)} is past a sequence of {len(seq)} snapshots"
    with pytest.raises(ValueError, match=message):
        posterior_probability(late, seq, observed["linkmirage"], model, params, 100,
                              np.random.default_rng(8))
    with pytest.raises(ValueError, match=message):
        indistinguishability_series(seq, observed, late, model, params, 100,
                                    np.random.default_rng(9))


def test_a_query_past_the_perturbed_prefix_is_refused():
    # a short prefix's features would not line up with the
    # re-perturbations' steps
    seq, params, observed, query, model = _pinned_inputs()
    short = observed["linkmirage"][:query.t]
    message = f"t={query.t} is past a perturbed prefix of {len(short)} graphs"
    with pytest.raises(ValueError, match=message):
        posterior_probability(query, seq, short, model, params, 100, np.random.default_rng(8))
    # the series reads the same prefix 0..t of every mechanism
    with pytest.raises(ValueError, match=message):
        indistinguishability_series(seq, {**observed, "linkmirage": short}, query, model,
                                    params, 100, np.random.default_rng(9))


def test_link_query_refuses_a_negative_timestamp():
    # a negative t would index the sequence from its end: the prior read
    # seq[t] while the posterior's features sliced [:t + 1]
    with pytest.raises(ValueError, match="t >= 0"):
        LinkQuery(t=-2, u=0, v=1)
    assert LinkQuery(t=0, u=0, v=1).t == 0


# -- entropy --------------------------------------------------------------------


def test_entropy_values():
    assert indistinguishability(0.5) == pytest.approx(1.0)
    assert indistinguishability(0.0) == 0.0
    assert indistinguishability(1.0) == 0.0
    # direct formula: -0.1 log2 0.1 - 0.9 log2 0.9
    assert indistinguishability(0.1) == pytest.approx(0.46899559358928122, abs=1e-12)


def test_entropy_symmetric_and_concave():
    ps = np.linspace(0.01, 0.99, 33)
    for p in ps:
        assert indistinguishability(p) == pytest.approx(indistinguishability(1 - p))
    hs = [indistinguishability(p) for p in ps]
    assert max(hs) == pytest.approx(indistinguishability(0.5))
    mid = indistinguishability(0.3) + indistinguishability(0.5)
    assert indistinguishability(0.4) >= mid / 2 - 1e-12   # midpoint concavity


# -- posterior: exactness against enumeration ------------------------------------


def enumerate_static_feature_distribution(world: Graph, uv, k=1, degree_bin=3):
    """Exhaustive distribution of (presence, binned deg u, binned deg v) for
    one-walk-per-edge static perturbation at k=1, designation uniform per edge."""
    assert k == 1
    per_edge = []
    for a, b in world.edges.tolist():
        outcomes = []
        for start in (a, b):
            nbrs = world.neighbors(start)
            for w in nbrs:
                outcomes.append((0.5 * (1.0 / nbrs.size), (start, int(w))))
        per_edge.append(outcomes)
    u, v = uv
    lo, hi = (u, v) if u < v else (v, u)
    dist = {}
    for combo in itertools.product(*per_edge):
        prob = math.prod(p for p, _ in combo)
        edge_set = {(min(e), max(e)) for _, e in combo}
        present = int((lo, hi) in edge_set)
        du = sum(1 for e in edge_set if u in e)
        dv = sum(1 for e in edge_set if v in e)
        key = (present, du // degree_bin, dv // degree_bin)
        dist[key] = dist.get(key, 0.0) + prob
    return dist


def exact_posterior(world_with, world_without, uv, observed_feature, prior):
    p1 = enumerate_static_feature_distribution(world_with, uv).get(observed_feature, 0.0)
    p0 = enumerate_static_feature_distribution(world_without, uv).get(observed_feature, 0.0)
    denom = prior * p1 + (1 - prior) * p0
    return prior * p1 / denom if denom > 0 else prior


SMALL_FIXTURES = {
    "path4": Graph([(0, 1), (1, 2), (2, 3)]),
    "paw": Graph([(0, 1), (1, 2), (0, 2), (0, 3)]),
    "cycle5": Graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "star4": Graph([(0, 1), (0, 2), (0, 3)]),
}


@pytest.mark.parametrize("name", sorted(SMALL_FIXTURES))
def test_posterior_matches_enumeration(name):
    from linkmirage.perturb import perturb_static
    from linkmirage.privacy import _hypothesis_world, observed_features

    g = SMALL_FIXTURES[name]
    u, v = (int(x) for x in g.edges[0])
    seq = TemporalGraphSequence([g])
    query = LinkQuery(t=0, u=u, v=v)
    model = PriorModel(seed=5)
    params = PerturbParams(k=1, seed=7)

    observed = perturb_static(g, 1, np.random.default_rng(1234))
    prior = prior_probability(query, model, seq)
    feature = observed_features([observed], query)[0]

    w1 = _hypothesis_world(seq, query, True)[0]
    w0 = _hypothesis_world(seq, query, False)[0]
    expected = exact_posterior(w1, w0, (u, v), feature, prior)

    est = posterior_probability(query, seq, [observed], model, params,
                                n_samples=10_000,
                                rng=np.random.default_rng(99), mechanism="static")
    assert abs(est.probability - expected) <= 0.02
    assert est.prior == prior


# -- posterior at t = 1: exactness against enumeration of both steps -------------


def walk_distribution(graph, uv):
    """Exact distribution of the fake edges touching u or v that one k = 1
    static pass over ``graph`` draws, as {frozenset of canonical edges: p}.
    A k = 1 walk never returns to its start, so no redraw is enumerated."""
    touches = set(uv).intersection
    dist = {frozenset(): 1.0}
    for a, b in graph.edges.tolist():
        outcomes = {}
        for start in (a, b):
            nbrs = graph.neighbors(start).tolist()
            for w in nbrs:
                edge = (min(start, w), max(start, w)) if touches((start, w)) else None
                outcomes[edge] = outcomes.get(edge, 0.0) + 0.5 / len(nbrs)
        nxt = {}
        for edges, p in dist.items():
            for edge, q in outcomes.items():
                key = edges | {edge} if edge else edges
                nxt[key] = nxt.get(key, 0.0) + p * q
        dist = nxt
    return dist


def pair_distribution(task, uv):
    """Exact distribution of the rewired cells of one pair that touch u or v."""
    dist = {frozenset(): 1.0}
    width = task.nodes_b.size
    grid = task.grid(np.arange(task.nodes_a.size * width))[0].reshape(-1, width)
    for (i, a), (j, b) in itertools.product(enumerate(task.nodes_a.tolist()),
                                            enumerate(task.nodes_b.tolist())):
        if {a, b} & set(uv):
            p, nxt = float(grid[i, j]), {}
            for edges, q in dist.items():
                on = edges | {(min(a, b), max(a, b))}
                nxt[on] = nxt.get(on, 0.0) + q * p
                nxt[edges] = nxt.get(edges, 0.0) + q * (1.0 - p)
            dist = nxt
    return dist


def enumerated_feature(edges, uv):
    u, v = uv
    return (int((min(uv), max(uv)) in edges),
            sum(u in e for e in edges) // privacy.DEGREE_BIN,
            sum(v in e for e in edges) // privacy.DEGREE_BIN)


def exact_likelihood(world, params, uv, observed):
    """Exact probability of the observed feature sequence in a LinkMirage
    hypothesis world at k = 1. Tracks, per grouped entry of each step's draw,
    the set of edges touching u or v: a fresh entry is enumerated, a carried
    one is the previous step's entry minus the edges of members who left."""
    mass = {(): 1.0}   # entries of the draws that match so far -> probability
    for plan, obs in zip(_plan_chain(world, params), observed):
        communities = plan.clustering.communities
        fresh = [(("intra", label), walk_distribution(plan.graph.subgraph(communities[label]), uv))
                 for label in plan.diff.changed]
        fresh += [(("inter", (task.a, task.b)), pair_distribution(task, uv))
                  for task in plan.pair_tasks if (task.a, task.b) not in plan.reused_pairs]
        keys = [key for key, _ in fresh]
        nxt = {}
        for entries, p in mass.items():
            prev = dict(entries)

            def carry(key, *prev_labels):
                gone = {x for label in prev_labels for x in plan.left.get(label, [])}
                return frozenset(e for e in prev.get(key, ()) if not gone & set(e))

            carried = [(("intra", label), carry(("intra", prev_label), prev_label))
                       for prev_label, label in plan.diff.unchanged]
            carried += [(("inter", pair), carry(("inter", key), *key))
                        for pair, key in plan.reused_pairs.items()]
            for combo in itertools.product(*(d.items() for _, d in fresh)):
                drawn = carried + [(key, edges) for key, (edges, _) in zip(keys, combo)]
                if enumerated_feature(set().union(*(e for _, e in drawn)), uv) == obs:
                    state = tuple(sorted(drawn))
                    nxt[state] = nxt.get(state, 0.0) + p * math.prod(q for _, q in combo)
        mass = nxt
    return sum(mass.values())


def bridged_blocks(*extra, drop=()):
    """Triangles {0, 1, 2} and {3, 4, 5} bridged by (2, 3), edited."""
    base = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    return Graph([e for e in base + list(extra) if e not in drop and not set(e) & set(drop)])


def reuses_query_block(plan, uv):
    # u's block is matched; a pair listing u is redrawn
    return reference_carries(plan, uv) and any(
        uv[0] in np.concatenate([task.nodes_a, task.nodes_b])
        for task in plan.pair_tasks if (task.a, task.b) not in plan.reused_pairs)


def reuses_pair_at_u(plan, uv):
    return any(uv[0] in np.concatenate([task.nodes_a, task.nodes_b])
               for task in plan.pair_tasks if (task.a, task.b) in plan.reused_pairs)


def member_leaves_u(plan, uv):
    prev_of_u = plan.diff.prev_for.get(int(plan.clustering.label_of(uv[0])))
    return prev_of_u in plan.left


# (t = 0 snapshot, t = 1 snapshot, params, query (u, v), shape of step 1 in
# both hypothesis worlds); the observation is the release at seed 0
T1_CASES = {
    "query-block-reused-pair-redrawn": (
        bridged_blocks(drop=(5,)), bridged_blocks(), dict(theta=1.0), (2, 0),
        reuses_query_block),
    "reused-pair-at-u": (
        bridged_blocks(), bridged_blocks((1, 4)), {}, (2, 0), reuses_pair_at_u),
    # 1 leaves u's block and u moves into it from v's
    "member-leaves": (
        bridged_blocks(), Graph([(0, 2), (2, 3), (2, 4), (3, 5)]), dict(theta=0.5), (4, 5),
        member_leaves_u),
    "both-blocks-changed": (
        bridged_blocks(), bridged_blocks(drop=[(0, 2), (1, 2)]), {}, (4, 5),
        lambda plan, uv: not reference_carries(plan, uv)),
}


@pytest.mark.parametrize("case", sorted(T1_CASES))
def test_posterior_matches_enumeration_at_t1(monkeypatch, case):
    # bins of width 1 keep every degree the walks can change in the feature
    monkeypatch.setattr(privacy, "DEGREE_BIN", 1)
    g0, g1, settings, uv, shape = T1_CASES[case]
    seq = TemporalGraphSequence([g0, g1])
    params = PerturbParams(k=1, seed=0, **settings)
    query = LinkQuery(t=1, u=uv[0], v=uv[1])
    observed = linkmirage_run(seq, params)[0]
    features = privacy.observed_features(observed, query)
    like = {}
    for present in (True, False):
        world = privacy._hypothesis_world(seq, query, present)
        assert shape(_plan_chain(world, params)[1], uv)
        like[present] = exact_likelihood(world, params, uv, features)
    model = PriorModel(seed=5)
    prior = prior_probability(query, model, seq)
    expected = prior * like[True] / (prior * like[True] + (1 - prior) * like[False])
    est = posterior_probability(query, seq, observed, model, params, 10_000,
                                np.random.default_rng(99))
    assert abs(est.probability - expected) <= 0.02


def test_static_posterior_matches_enumeration_at_t1(monkeypatch):
    # a star that gains an edge; (1, 3) is absent at both steps, so neither
    # world is ruled out and the exact posterior lies inside (0.05, 0.95)
    monkeypatch.setattr(privacy, "DEGREE_BIN", 1)
    seq = TemporalGraphSequence([Graph([(0, 1), (0, 2), (0, 3)]),
                                 Graph([(0, 1), (0, 2), (0, 3), (2, 3)])])
    uv = (1, 3)
    query = LinkQuery(t=1, u=uv[0], v=uv[1])
    params = PerturbParams(k=1, seed=0)
    observed = perturb_static_baseline_sequence(seq, 1, 3)
    features = privacy.observed_features(observed, query)
    # static steps are drawn independently: the likelihood is a product over t
    like = {present: math.prod(
        enumerate_static_feature_distribution(g_t, uv, degree_bin=1).get(f, 0.0)
        for g_t, f in zip(privacy._hypothesis_world(seq, query, present).snapshots, features))
        for present in (True, False)}
    model = PriorModel(seed=5)
    prior = prior_probability(query, model, seq)
    expected = prior * like[True] / (prior * like[True] + (1 - prior) * like[False])
    assert 0.05 < expected < 0.95
    est = posterior_probability(query, seq, observed, model, params, 10_000,
                                np.random.default_rng(99), mechanism="static")
    assert abs(est.probability - expected) <= 0.02


def test_hypothesis_world_adds_the_link_to_a_snapshot_without_edges():
    # both ends are isolated vertices at t=0 and joined by the link at t=1
    seq = TemporalGraphSequence([Graph(vertices=[4, 1, 7]), Graph([(1, 4), (4, 7)])])
    query = LinkQuery(t=1, u=4, v=1)
    present = privacy._hypothesis_world(seq, query, True)
    assert [g.edges.tolist() for g in present.snapshots] == [[[1, 4]], [[1, 4], [4, 7]]]
    absent = privacy._hypothesis_world(seq, query, False)
    assert [g.edges.tolist() for g in absent.snapshots] == [[], [[4, 7]]]
    for world in (present, absent):
        assert all(np.array_equal(w.vertices, g.vertices)
                   for w, g in zip(world.snapshots, seq.snapshots))


def test_posterior_equal_likelihoods_returns_prior():
    g = Graph([(0, 1), (1, 2)])
    seq = TemporalGraphSequence([g])
    query = LinkQuery(t=0, u=0, v=1)
    model = PriorModel(seed=11)

    def constant_mechanism(world, rng):
        return [np.array([[0, 2]])] * len(world)

    observed = [Graph([(0, 2)], vertices=g.vertices)]
    est = posterior_probability(query, seq, observed, model,
                                PerturbParams(k=1, seed=0), 200,
                                np.random.default_rng(4),
                                mechanism=constant_mechanism)
    assert est.probability == pytest.approx(est.prior, abs=1e-12)
    assert est.standard_error == pytest.approx(0.0, abs=1e-12)


def test_posterior_degenerate_flagged():
    g = Graph([(0, 1), (1, 2)])
    seq = TemporalGraphSequence([g])
    query = LinkQuery(t=0, u=0, v=1)

    def never_matching(world, rng):
        # feature never matches an observation that has the queried edge
        return [np.empty((0, 2), dtype=np.int64)] * len(world)

    observed = [Graph([(0, 1)], vertices=g.vertices)]
    est = posterior_probability(query, seq, observed, PriorModel(seed=2),
                                PerturbParams(k=1, seed=0), 150,
                                np.random.default_rng(8),
                                mechanism=never_matching)
    assert est.degenerate
    # widened error, clamped so the 2-SE band stays inside [-0.05, 1.05]
    cap = min(0.25, (est.probability + 0.05) / 2, (1.05 - est.probability) / 2)
    assert est.standard_error == pytest.approx(cap)
    assert -0.05 <= est.probability - 2 * est.standard_error
    assert est.probability + 2 * est.standard_error <= 1.05


def test_custom_mechanism_samples_hold_only_the_rows_at_u_and_v():
    # a custom mechanism that returns whole snapshots: 100 samples of 3 x
    # 10,000 rows would hold 48 MB, but each sample keeps only its rows at u
    # or v, and the features are those of the whole snapshots
    world = small_overlap_sequence()
    uv = (3, 7)

    def whole_snapshots(world, rng):
        return [rng.integers(0, 1000, size=(10_000, 2)) for _ in world.snapshots]

    sampler = privacy._SequenceSampler(world, PerturbParams(k=2, seed=0), whole_snapshots)
    tracemalloc.start()
    try:
        features, fresh = sampler.sample_features(uv, np.random.default_rng(5), 100)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    rng = np.random.default_rng(5)
    want = [[_edge_feature(edges, *uv) for edges in whole_snapshots(world, rng)]
            for _ in range(100)]
    assert np.array_equal(features, want) and fresh.all()
    assert peak_mib < 4.0


def test_posterior_requires_samples():
    g = Graph([(0, 1)])
    seq = TemporalGraphSequence([g])
    with pytest.raises(ValueError):
        posterior_probability(LinkQuery(t=0, u=0, v=1), seq, [g], PriorModel(),
                              PerturbParams(k=1), 10, np.random.default_rng(0))


def test_single_community_mechanisms_agree():
    # a graph that clusters into one community makes the dynamic mechanism
    # distributionally identical to the static one: equal entropy within MC error
    from linkmirage import (cluster_static, indistinguishability_series,
                            linkmirage_run, perturb_static_baseline_sequence)
    g = Graph([(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert len(cluster_static(g)) == 1
    seq = TemporalGraphSequence([g])
    params = PerturbParams(k=2, seed=3)
    lm = linkmirage_run(seq, params)[0]
    st = perturb_static_baseline_sequence(seq, 2, 3)
    series = indistinguishability_series(
        seq, {"linkmirage": lm, "static": st}, LinkQuery(t=0, u=0, v=1),
        PriorModel(seed=4), params, n_samples=600, rng=np.random.default_rng(6))
    (t_l, h_l, se_l), = series["linkmirage"]
    (t_s, h_s, se_s), = series["static"]
    assert abs(h_l - h_s) <= 3 * (se_l + se_s) + 0.05


def test_sampled_features_read_inter_rows_in_either_orientation():
    # inter rows are drawn as (member of the smaller label, member of the
    # larger); permuted ids make many of them (larger id, smaller id)
    g, _ = planted_partition_graph([10, 10], 0.6, 0.15, np.random.default_rng(1))
    ids = np.random.default_rng(7).permutation(20)
    seq = TemporalGraphSequence([Graph(ids[g.edges], vertices=ids)])
    for seed in range(3):
        params = PerturbParams(k=2, seed=seed)
        graphs, records = linkmirage_run(seq, params)
        rows = np.concatenate(list(group_edges(graphs[0], records[0].clustering)[1].values()))
        u, v = (int(x) for x in rows[rows[:, 0] > rows[:, 1]][0])
        plan = _plan_chain(seq, params)[0]
        rng = np.random.default_rng(seed)
        for _ in range(20):
            edges = step_edges(*sample_step(plan, None, params, _root_key(rng)))
            assert _edge_feature(edges, u, v) == \
                _edge_feature(Graph(edges, vertices=ids).edges, u, v)
        # the released link is reproduced, so the posterior moves off its prior
        est = posterior_probability(LinkQuery(t=0, u=u, v=v), seq, graphs,
                                    PriorModel(seed=1), params, 200, rng)
        assert not est.degenerate



# -- pinned estimator outputs ---------------------------------------------------
# Exact values of the Monte Carlo estimators on a fixture that mixes changed
# and reused communities and pairs; a refactor of the sampling path must
# reproduce every draw.


def _pinned_inputs():
    seq = small_overlap_sequence()
    params = PerturbParams(k=2, m=1, theta=0.8, seed=5)
    observed = {"linkmirage": linkmirage_run(seq, params)[0],
                "static": perturb_static_baseline_sequence(seq, 2, 5)}
    return seq, params, observed, LinkQuery(t=2, u=1, v=2), PriorModel(seed=1)


@pytest.mark.parametrize("mech, fields", [
    ("linkmirage", (0.7194164971629008, 0.11243326987326091, 100, 0.5142845033165181,
                    0.0004655072332662403, 0.00019223375624759725, False)),
    ("static", (0.16966512681017953, 0.08269922592248845, 100, 0.5142845033165181,
                0.0012438654816020992, 0.006445484768301786, False)),
])
def test_posterior_outputs_pinned(monkeypatch, mech, fields):
    monkeypatch.setattr(privacy, "DEGREE_BIN", 8)
    seq, params, observed, query, model = _pinned_inputs()
    est = posterior_probability(query, seq, observed[mech], model, params, 100,
                                np.random.default_rng(8), mechanism=mech)
    assert (est.probability, est.standard_error, est.samples, est.prior,
            est.likelihood_with, est.likelihood_without, est.degenerate) == fields


def test_posterior_blocks_change_no_draw(monkeypatch):
    # blocks of 7 re-perturbations, the last one shorter, give the estimate
    # and the features bit for bit, for both mechanisms
    seq, params, observed, query, model = _pinned_inputs()
    world = privacy._hypothesis_world(seq, query, True)
    uv = (query.u, query.v)
    for mech in ("linkmirage", "static"):
        # a sample draws the k-balls of the queried pair only, one step at a time
        plans = privacy._SequenceSampler(world, params, mech).plans
        entries = perturb._entries([perturb._layout(plan, uv, params.k) for plan in plans],
                                   params.k)

        def estimate():
            return posterior_probability(query, seq, observed[mech], model, params, 100,
                                         np.random.default_rng(8), mechanism=mech)

        def features():
            return privacy._SequenceSampler(world, params, mech).sample_features(
                uv, np.random.default_rng(8), 100)[0]

        default = estimate(), features()
        sizes, split_into = [], perturb._blocks

        def blocks(n, per_sample):
            split = split_into(n, per_sample)
            sizes.append([b.size for b in split])
            return split

        with monkeypatch.context() as patch:
            patch.setattr(perturb, "_BLOCK_ENTRIES", 7 * entries)
            patch.setattr(perturb, "_blocks", blocks)
            blocked = estimate(), features()
        assert [7] * 14 + [2] in sizes, mech
        assert blocked[0] == default[0], mech
        assert blocked[1].tobytes() == default[1].tobytes(), mech


def test_unknown_mechanism_is_refused_by_name():
    seq, params, observed, query, model = _pinned_inputs()
    for mech in ("Static", "hay", None):
        with pytest.raises(ValueError, match="'linkmirage', 'static' or a callable"):
            posterior_probability(query, seq, observed["static"], model, params, 100,
                                  np.random.default_rng(8), mechanism=mech)


def test_indistinguishability_series_pinned():
    seq, params, observed, query, model = _pinned_inputs()
    series = indistinguishability_series(seq, observed, query, model, params, 100,
                                         np.random.default_rng(9))
    assert series == {
        "linkmirage": [(0, 0.9638169039177191, 0.10972428748821451),
                       (1, 0.9938272489266561, 0.10764960362753125),
                       (2, 0.9950482971160097, 0.12015278929023492)],
        "static": [(0, 0.631621376122844, 0.1368105643880887),
                   (1, 0.42397989415147186, 0.17481822589430085),
                   (2, 0.708493690583893, 0.1821126113042007)]}


def test_the_series_and_the_posterior_read_one_posterior_per_query():
    # a series run to t has rows 0..t, ends in the entropy of
    # posterior_probability at t under the same seed, and equals the series
    # of the sequence cut after t
    seq, params, observed, query, model = _pinned_inputs()
    for mech, perturbed in observed.items():
        for t in range(len(seq)):
            at_t = LinkQuery(t=t, u=query.u, v=query.v)
            series = indistinguishability_series(seq, {mech: perturbed}, at_t, model, params,
                                                 100, np.random.default_rng(9))[mech]
            assert [row[0] for row in series] == list(range(t + 1)), (mech, t)
            estimate = posterior_probability(at_t, seq, perturbed, model, params, 100,
                                             np.random.default_rng(9), mechanism=mech)
            assert series[t][1] == indistinguishability(estimate.probability), (mech, t)
            cut = TemporalGraphSequence(seq.snapshots[:t + 1])
            assert indistinguishability_series(cut, {mech: perturbed[:t + 1]}, at_t, model,
                                               params, 100, np.random.default_rng(9)) \
                == {mech: series}, (mech, t)


# -- anti-aggregation -------------------------------------------------------------


def test_anti_aggregation_identity(triangle):
    assert anti_aggregation(triangle, triangle, 1) == 0.0


def test_anti_aggregation_exact_match_of_k_power(rng):
    # a graph whose TPM happens to equal P^1 of the original: itself
    g = random_graph(8, 0.4, rng, ensure_edge=True)
    assert anti_aggregation(g, g, 1) == 0.0


def test_anti_aggregation_matches_composed_oracle(rng):
    for _ in range(5):
        g = random_graph(10, 0.35, rng, ensure_edge=True)
        gp = random_graph(10, 0.35, rng, ensure_edge=True)
        k = 3
        expected = tv_distance(matrix_power(transition_matrix(g), k),
                               transition_matrix(gp))
        assert anti_aggregation(g, gp, k) == expected


def test_anti_aggregation_vertex_mismatch():
    with pytest.raises(ValueError):
        anti_aggregation(Graph([(0, 1)]), Graph([(0, 2)]), 1)


def test_aggregated_single_element_equals_plain(rng):
    g = random_graph(9, 0.4, rng, ensure_edge=True)
    gp = random_graph(9, 0.4, rng, ensure_edge=True)
    assert anti_aggregation_aggregated([gp], g, 2) == pytest.approx(
        anti_aggregation(g, gp, 2), abs=1e-12)


def test_aggregated_after_a_vertex_leaves_matches_a_dense_row_sum():
    # the union of the releases holds an id that g_t lost: rows are compared
    # over the common ids only, laid out densely in the union's id space
    g0 = ring_of_blocks(6, 15, 0.2, 2, np.random.default_rng(0))
    gone = g0.vertices[0]
    g1 = Graph(g0.edges[(g0.edges != gone).all(axis=1)], vertices=g0.vertices[1:])
    released = linkmirage_run(TemporalGraphSequence([g0, g1]), PerturbParams(k=2, seed=4))[0]
    k = 2
    union = np.union1d(*(g.vertices for g in released))
    assert gone in union and gone not in g1.vertices
    rows = []
    for m in (matrix_power(transition_matrix(g1), k),
              transition_matrix(Graph(np.concatenate([g.edges for g in released]),
                                      vertices=union))):
        dense = np.zeros((union.size, union.size))
        at = np.searchsorted(union, m.ids)
        dense[np.ix_(at, at)] = m.matrix.toarray()
        rows.append(dense[np.searchsorted(union, g1.vertices)])
    want = 0.5 * np.abs(rows[0] - rows[1]).sum(axis=1).mean()
    assert anti_aggregation_aggregated(released, g1, k) == pytest.approx(want, rel=1e-12, abs=0)


# -- estimation error bound --------------------------------------------------------


def stochastic_perturbation(p: TransitionMatrix, rng, mix=0.1) -> TransitionMatrix:
    dense = p.matrix.toarray()
    noise = rng.random(dense.shape)
    noise /= noise.sum(axis=1, keepdims=True)
    mixed = (1 - mix) * dense + mix * noise
    return TransitionMatrix(ids=p.ids, matrix=sp.csr_matrix(mixed))


def test_bound_trivial_perfect_estimate(rng):
    g = random_graph(8, 0.4, rng, ensure_edge=True)
    p = transition_matrix(g)
    p_prime = matrix_power(p, 3)
    check = estimation_error_bound_check(p, p_prime, p, 3)
    assert check.holds
    assert check.lhs == pytest.approx(0.0, abs=1e-12)
    assert check.rhs == pytest.approx(0.0, abs=1e-12)


def test_bound_k1_reduces_to_identity(rng):
    g = random_graph(8, 0.4, rng, ensure_edge=True)
    p = transition_matrix(g)
    p_hat = stochastic_perturbation(p, rng)
    check = estimation_error_bound_check(p, p_hat, p_hat, 1)
    assert check.holds
    assert check.lhs == pytest.approx(check.rhs, abs=1e-12)


def test_bound_holds_on_random_trials(rng):
    for _ in range(100):
        g = random_graph(8, 0.45, rng, ensure_edge=True)
        p = transition_matrix(g)
        p_hat = stochastic_perturbation(p, rng, mix=float(rng.uniform(0.02, 0.3)))
        k = int(rng.integers(1, 4))
        p_prime = matrix_power(p_hat, k)
        check = estimation_error_bound_check(p, p_prime, p_hat, k)
        assert check.holds, (check.lhs, check.rhs)


def test_bound_rejects_inconsistent_estimate(rng):
    g = random_graph(8, 0.4, rng, ensure_edge=True)
    p = transition_matrix(g)
    p_hat = stochastic_perturbation(p, rng, mix=0.3)
    with pytest.raises(ValueError):
        estimation_error_bound_check(p, matrix_power(p, 2), p_hat, 2)
