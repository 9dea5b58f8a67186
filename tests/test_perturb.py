import functools
import itertools
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_draw
from reference_draw import reference_carries
from conftest import (edge_draw, keys_from, random_graph, sample_draws, sample_step,
                      small_overlap_sequence, split_draw, step_edges)
from linkmirage import (Clustering, Graph, LinkQuery, PerturbParams, PerturbationRecord,
                        TemporalGraphSequence, evolving_sequence, expected_degree_report,
                        group_edges, hay_baseline, linkmirage_run, perturb_static,
                        perturb_static_baseline_sequence, planted_partition_graph)
from linkmirage import perturb, privacy
from linkmirage.perturb import (_PairTask, _draws, _hash, _layout, _plan_chain,
                               _root_key, _sample_step, _static_plan, _step_key,
                               build_step_plan)
from linkmirage.privacy import _SequenceSampler, _edge_feature, _edge_features, _hypothesis_world
from test_acceptance import overlap_fixture

EMPTY = np.empty((0, 2), dtype=np.int64)    # a grouped entry that holds no edge


def test_single_edge_k1_is_forced(rng):
    g = Graph([(0, 1)])
    for _ in range(50):
        assert perturb_static(g, 1, rng).edges.tolist() == [[0, 1]]


def test_vertex_set_preserved(rng):
    g = random_graph(12, 0.3, rng, ensure_edge=True)
    gp = perturb_static(g, 2, rng)
    assert np.array_equal(gp.vertices, g.vertices)


def test_no_self_loops_or_duplicates(rng):
    for _ in range(20):
        g = random_graph(10, 0.4, rng, ensure_edge=True)
        gp = perturb_static(g, 3, rng)
        assert (gp.edges[:, 0] < gp.edges[:, 1]).all()


def static_rows(g, k, keys, ids=None):
    """Rows of S static draws of ``g``, one walk entry, under sample keys:
    the whole draw, or with ``ids`` the ball of them."""
    return _sample_step(_layout(_static_plan(g), ids, k), None, k, keys)


def test_perturb_rows_at_ends_are_the_full_draws_rows_at_them(rng):
    # keeping only the fake edges at the ends, and walking only the walkers
    # of their k-ball: the rows kept are those of the full draw under the
    # same keys, for k = 1 to 3
    local = {"part": 0, "all": 0}

    def check(g, k, ends):
        keys = keys_from(rng, 3)
        full = static_rows(g, k, keys)
        want = full[np.isin(full[:, 1:], ends).any(axis=1)]
        walkers = perturb._ball(g, k, ends)
        local["part" if walkers.size < g.num_edges else "all"] += 1
        assert np.array_equal(static_rows(g, k, keys, ends), want)
        return walkers

    for k in (1, 2, 3):
        for _ in range(20):
            # sparse graphs, two isolated ids (n and n + 1) among the vertices
            n = int(rng.integers(10, 60))
            base = random_graph(n, 3.0 / n, rng, ensure_edge=True)
            g = Graph(base.edges, vertices=range(n + 2))
            check(g, k, rng.choice(n, size=2, replace=False))
            check(g, k, (n, int(rng.integers(n))))
            # ends absent from the graph, or isolated: an empty ball, no row
            for ends in ((n + 5, n + 6), (n, n + 1)):
                assert not check(g, k, ends).size
                assert not static_rows(g, k, keys_from(rng, 3), ends).size
        # a ball that holds every edge
        path = Graph([(0, 1), (1, 2), (2, 3)])
        assert check(path, k, (1, 2)).size == path.num_edges
    assert local["part"] and local["all"]


def grid_rows(task, keys, ids=None):
    """Rows of S rewirings of one pair task alone, under sample keys: the
    draw of a plan of two communities, the task's nodes in a and in b, whose
    labels are the task's, and of that one task, over its whole grid or with
    ``ids`` over the grid rows and columns of them."""
    plan = perturb._StepPlan(clustering=Clustering.from_groups([task.nodes_a, task.nodes_b]),
                             diff=perturb.CommunityDiff(unchanged=[], changed=[]),
                             graph=Graph(vertices=np.concatenate([task.nodes_a, task.nodes_b])),
                             pair_tasks=[task], reused_pairs={},
                             kept=Clustering.from_groups([]))
    assert ids is None or set(plan.clustering.communities) == {task.a, task.b}
    return _sample_step(_layout(plan, ids, 1), None, 1, keys)


def test_pair_grid_cells_at_ends_are_the_full_grids_rows_at_them(rng):
    # a rewiring that draws only the grid rows and columns of the ends keeps
    # the full grid's rows at them, in the same order
    for _ in range(30):
        nodes_a = np.sort(rng.choice(50, size=int(rng.integers(1, 12)), replace=False))
        nodes_b = 100 + np.sort(rng.choice(50, size=int(rng.integers(1, 12)), replace=False))
        cells = np.array([(a, b) for a in nodes_a for b in nodes_b if rng.random() < 0.4]
                         or [(nodes_a[0], nodes_b[0])])
        # labelled as its communities are: by their smallest ids
        task = _PairTask.of(int(cells[:, 0].min()), int(cells[:, 1].min()), cells)
        keys = keys_from(rng, 4)
        full = grid_rows(task, keys)
        assert np.array_equal(full, reference_draw.pair_sample(task, _hash(keys, 1, task.a,
                                                                           task.b)))
        u, v = rng.choice(task.nodes_a), rng.choice(task.nodes_b)
        for ends in ((u, v), (u, 999), (999, v), (998, 999)):
            at = grid_rows(task, keys, ends)
            assert np.array_equal(at, full[np.isin(full[:, 1:], ends).any(axis=1)])
        assert task.cells_at((u, v)).size == task.nodes_a.size + task.nodes_b.size - 1


def test_perturb_static_deterministic():
    g = Graph([(0, 1), (1, 2), (0, 2), (2, 3)])
    a = perturb_static(g, 2, np.random.default_rng(42))
    b = perturb_static(g, 2, np.random.default_rng(42))
    assert a == b


def static_walk(g, k, keys):
    """The walk of ``g``'s static plan for S samples whose entry keys are
    ``keys``, as ``perturb_static`` draws it."""
    return perturb._walk_rows(k, keys[None, :], _layout(_static_plan(g)))


def test_perturb_static_is_a_block_of_one_under_its_key(rng):
    # perturb_static draws under one raw draw of its stream; in a block, each
    # sample draws what a block of one under its key draws
    for _ in range(10):
        g = random_graph(25, 0.2, rng, ensure_edge=True)
        seed = int(rng.integers(1 << 32))
        key = _root_key(np.random.default_rng(seed))
        static = perturb_static(g, 2, np.random.default_rng(seed))
        assert static == Graph(static_walk(g, 2, _hash(key))[:, 1:], vertices=g.vertices)
        keys = np.append(keys_from(rng, 4), key).astype(np.uint64)
        block = static_walk(g, 2, keys)
        assert np.array_equal(block, reference_draw.perturb_rows(g, 2, keys))
        for s, one in enumerate(keys):
            assert np.array_equal(block[block[:, 0] == s, 1:],
                                  static_walk(g, 2, _hash(one))[:, 1:])


def test_keyed_uniforms_are_uniform_and_streams_do_not_overlap():
    n = 200_000
    counters = np.arange(n)
    root = _hash(12345, 7)

    def stream(*parts):
        return perturb._uniforms(_hash(root, *parts), counters)

    u = stream(3)
    assert abs(u.mean() - 0.5) < 0.005 and abs(u.var() - 1 / 12) < 0.002
    assert u.min() >= 0.0 and u.max() < 1.0
    # neighbouring samples, and neighbouring labels of one sample, side by
    # side and offset by one counter: a key made by adding the index to its
    # parent would make the second stream the first shifted by one
    for a, b in ((stream(3), stream(4)), (stream(3, 0, 10), stream(3, 0, 11)),
                 (stream(3, 1, 0, 5), stream(3, 1, 0, 6))):
        for x, y in ((a, b), (a[1:], b[:-1]), (a[:-1], b[1:])):
            assert abs(np.corrcoef(x, y)[0, 1]) < 0.015
        assert not np.isin(a, b).any()


def test_keyed_draws_spawn_no_child_seed(monkeypatch):
    # keyed draws read one raw draw from the caller's stream and spawn no
    # child seed; a release makes one seed sequence per timestamp
    seq = small_overlap_sequence()
    params = PerturbParams(k=2, m=1, theta=0.8, seed=5)
    for mechanism in ("linkmirage", "static"):
        rng = np.random.default_rng(3)
        _SequenceSampler(seq, params, mechanism).sample_features((1, 2), rng, 100)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0, mechanism
    rng = np.random.default_rng(3)
    perturb_static(seq[0], 2, rng)
    expected_degree_report(seq[0], params, 1000, rng)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    made, real = [], np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda *args, **kwargs: made.append(1) or real(*args, **kwargs))
    linkmirage_run(seq, params)
    assert len(made) == len(seq)


def test_path_two_hop_edge_probability(rng):
    # P(edge (0,2)) with self-loop resampling: each path edge yields (0,2)
    # iff its outer endpoint is designated (prob 1/2) and one of the 11 walk
    # attempts escapes to the far endpoint (prob 1 - 2^-11).
    g = Graph([(0, 1), (1, 2)])
    p_edge = 0.5 * (1.0 - 0.5 ** 11)
    expected = 1.0 - (1.0 - p_edge) ** 2
    n = 20_000
    hits = sum([0, 2] in perturb_static(g, 2, rng).edges.tolist() for _ in range(n))
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert abs(hits / n - expected) <= 3 * sigma


def raw_walk_degrees(g, k, trials, rng):
    """Walker-incidence degrees of ``trials`` raw walk draws of ``g``'s static
    plan, one a trial under a key from ``rng``: the degree check's draw, one
    first walk per edge, loops kept."""
    plan = _static_plan(g)
    layout = _layout(plan, raw=True)
    for _ in range(trials):
        rows = _sample_step(layout, None, k, keys_from(rng))
        yield np.bincount(rows[:, 1:].ravel(), minlength=g.num_vertices)


def test_walker_degree_expectation_k3(rng):
    # walker-incidence degree: one walk per edge from a uniform endpoint
    g = Graph([(0, 1), (1, 2), (0, 2)])
    trials = 10_000
    acc = np.zeros(3)
    acc2 = np.zeros(3)
    for d in raw_walk_degrees(g, 1, trials, rng):
        acc += d
        acc2 += d.astype(float) ** 2
    mean = acc / trials
    se = np.sqrt(np.maximum(acc2 / trials - mean ** 2, 0) / trials)
    z = (mean - 2.0) / np.where(se > 0, se, 1.0)
    assert np.abs(z).max() <= 3.0


# -- inter-cluster rewiring -------------------------------------------------------


def two_singleton_clustering():
    return Clustering.from_groups([[0], [1]])


def rewire(graph, clustering, rng):
    """{(a, b): edges} of one inter-community rewiring: every pair task of the
    graph's one grouping, drawn alone under its own key."""
    inter = group_edges(graph, clustering)[1]
    return {pair: grid_rows(_PairTask.of(*pair, edges), keys_from(rng))[:, 1:]
            for pair, edges in inter.items()}


def test_intercluster_appendixc_forced_edge(rng):
    g = Graph([(0, 1)])
    out = rewire(g, two_singleton_clustering(), rng)
    assert [tuple(e) for e in out[(0, 1)]] == [(0, 1)]


def test_intercluster_pair_without_marginals_contributes_nothing(rng):
    g = Graph([(0, 1), (2, 3)], vertices=[0, 1, 2, 3])
    c = Clustering.from_groups([[0, 1], [2, 3]])
    assert rewire(g, c, rng) == {}


def test_intercluster_expected_degree_appendixc(rng):
    # communities {0..4} and {5..9}; inter edges with a hub so p_ij varies
    inter = [(0, 5), (0, 6), (1, 6), (2, 7), (3, 8)]
    intra = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)]
    g = Graph(intra + inter)
    c = Clustering.from_groups([range(5), range(5, 10)])
    inter_deg = {}
    for u, v in inter:
        inter_deg[u] = inter_deg.get(u, 0) + 1
        inter_deg[v] = inter_deg.get(v, 0) + 1
    trials = 8_000
    acc = {v: 0 for v in inter_deg}
    for _ in range(trials):
        edges = rewire(g, c, rng)[(0, 5)]
        for u, v in edges:
            acc[int(u)] += 1
            acc[int(v)] += 1
    for v, expect in inter_deg.items():
        mean = acc[v] / trials
        # each candidate edge is an independent bernoulli; variance <= mean
        se = np.sqrt(max(expect, 1e-9) / trials)
        assert abs(mean - expect) <= 3 * se, (v, mean, expect)


# -- the selective pipeline -------------------------------------------------------


def small_sequence():
    g0, _ = planted_partition_graph([8, 8], 0.7, 0.05, np.random.default_rng(5))
    return TemporalGraphSequence([g0, g0, g0])


def test_step_identical_snapshots_identical_outputs():
    seq = small_sequence()
    params = PerturbParams(k=2, seed=11)
    graphs = linkmirage_run(seq, params)[0]
    assert graphs[0] == graphs[1] == graphs[2]


def k2_beside_planted_blocks():
    """Two planted blocks and a separate K2 {100, 101}: a k=2 walk on K2 always
    returns to its start, so that community draws no edge."""
    g, _ = planted_partition_graph([8, 8], 0.7, 0.1, np.random.default_rng(9))
    return Graph(np.vstack([g.edges, [(100, 101)]]))


def k4s_with_two_bridges():
    """Two K4 blocks joined by (0, 4) and (1, 5): each of the four cells of
    their pair grid draws with probability 1/2, so the pair can draw nothing."""
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return Graph(k4 + [(u + 4, v + 4) for u, v in k4] + [(0, 4), (1, 5)])


@pytest.mark.parametrize("g, seed, entry", [(k2_beside_planted_blocks(), 1, 100),
                                            (k4s_with_two_bridges(), 3, (0, 4))],
                         ids=["intra", "inter"])
def test_an_entry_that_drew_no_edge_is_carried_empty(g, seed, entry):
    # the grouped release has no key for an entry that drew no edge, nor has
    # the draw a row of it: the next step copies nothing of it
    params = PerturbParams(k=2, seed=seed)
    seq = TemporalGraphSequence([g, g])
    graphs, records = linkmirage_run(seq, params)
    plan = _plan_chain(seq, params)[1]
    assert entry in [prev for prev, _ in plan.diff.unchanged] + list(plan.reused_pairs.values())
    intra, inter = group_edges(graphs[0], records[0].clustering)
    assert entry not in intra and entry not in inter
    intra, inter = release_draws(seq, params, graphs)[0]
    assert entry not in intra and entry not in inter
    assert graphs[1] == graphs[0]


def test_a_run_groups_each_snapshot_once(monkeypatch):
    # one grouping per plan, for its pair tasks; the previous release and
    # the previous snapshot are not regrouped
    calls = []

    def counted(graph, clustering):
        calls.append(graph)
        return group_edges(graph, clustering)

    monkeypatch.setattr(perturb, "group_edges", counted)
    seq = small_overlap_sequence()
    linkmirage_run(seq, PerturbParams(k=2, m=1, theta=0.8, seed=5))
    assert len(calls) == len(seq) == 3


def test_step_vertex_preservation_and_intra_closure():
    g, _ = planted_partition_graph([10, 10], 0.6, 0.08, np.random.default_rng(3))
    params = PerturbParams(k=2, seed=7)
    (g_prime,), (record,) = linkmirage_run(TemporalGraphSequence([g]), params)
    assert np.array_equal(g_prime.vertices, g.vertices)
    # intra edges inside communities, inter edges across
    draw, = release_draws(TemporalGraphSequence([g]), params, [g_prime])
    check_draw(record.clustering, draw)


def test_step_compose_oracle_t0():
    # each entry draws under its own key: the release's sample key at t = 0
    # hashed with (0, label) for a community and (1, a, b) for a pair
    g, _ = planted_partition_graph([8, 8], 0.7, 0.1, np.random.default_rng(9))
    params = PerturbParams(k=1, seed=23)
    (g_prime,), _ = linkmirage_run(TemporalGraphSequence([g]), params)

    key = _step_key(23, 0)
    plan = build_step_plan(g, None, params)
    edges = []
    for label in plan.diff.changed:
        sub = g.subgraph(plan.clustering.communities[label])
        edges.append(reference_draw.perturb_rows(sub, 1, _hash(key, 0, label))[:, 1:])
    for task in plan.pair_tasks:
        edges.append(reference_draw.pair_sample(task, _hash(key, 1, task.a, task.b))[:, 1:])
    expected = Graph(np.vstack([e.reshape(-1, 2) for e in edges]),
                     vertices=g.vertices)
    assert g_prime == expected


def test_reuse_verbatim_for_unchanged_communities():
    rng = np.random.default_rng(17)
    g0, _ = planted_partition_graph([12, 12, 12], 0.6, 0.02, rng)
    # a change local to the last block: rewire one intra edge there
    block3 = [v for v in range(24, 36)]
    extra = (block3[0], block3[-1])
    e0 = set(map(tuple, g0.edges.tolist()))
    e1 = set(e0)
    e1.add(extra) if extra not in e1 else e1.discard(extra)
    g1 = Graph(sorted(e1), vertices=g0.vertices)

    params = PerturbParams(k=2, m=1, theta=0.8, seed=29)
    seq = TemporalGraphSequence([g0, g1])
    graphs, records = linkmirage_run(seq, params)
    (prev_intra, _), (cur_intra, _) = map(group_edges, graphs, [r.clustering for r in records])
    reused = 0
    for prev_label, cur_label in _unchanged_pairs(records):
        prev_edges = {tuple(e) for e in prev_intra.get(prev_label, EMPTY).tolist()}
        cur_edges = {tuple(e) for e in cur_intra.get(cur_label, EMPTY).tolist()}
        assert prev_edges == cur_edges
        reused += 1
    assert reused >= 1


def _unchanged_pairs(records):
    from linkmirage import classify_communities
    diff = classify_communities(records[0].clustering, records[1].clustering, 0.8)
    return diff.unchanged


def test_sequence_determinism():
    seq = small_sequence()
    params = PerturbParams(k=2, seed=99)
    a = linkmirage_run(seq, params)[0]
    b = linkmirage_run(seq, params)[0]
    c = linkmirage_run(seq, params)[0]
    assert all(x == y for x, y in zip(a, b))
    assert all(x == y for x, y in zip(a, c))


def test_length_one_sequence_is_static_linkmirage():
    g, _ = planted_partition_graph([8, 8], 0.7, 0.1, np.random.default_rng(2))
    seq = TemporalGraphSequence([g])
    graphs, _ = linkmirage_run(seq, PerturbParams(k=1, seed=5))
    assert len(graphs) == 1
    assert np.array_equal(graphs[0].vertices, g.vertices)


def test_static_baseline_outputs_differ_across_t():
    g, _ = planted_partition_graph([10, 10], 0.5, 0.1, np.random.default_rng(1))
    seq = TemporalGraphSequence([g, g, g])
    outs = perturb_static_baseline_sequence(seq, k=2, seed=3)
    assert outs[0] != outs[1] or outs[1] != outs[2]


def test_static_baseline_walker_degree_preserved(rng):
    g = random_graph(20, 0.25, rng, ensure_edge=True)
    trials = 6_000
    n = g.num_vertices
    acc = np.zeros(n)
    acc2 = np.zeros(n)
    for d in raw_walk_degrees(g, 2, trials, rng):
        acc += d
        acc2 += d.astype(float) ** 2
    mean = acc / trials
    se = np.sqrt(np.maximum(acc2 / trials - mean ** 2, 0) / trials)
    deg = g.degrees.astype(float)
    z = np.where(se > 0, (mean - deg) / se, 0.0)
    assert (np.abs(z) <= 3.0).mean() >= 0.99


def test_posterior_plans_and_kernel_reproduce_the_release():
    # the posterior's plans, fed the release's stream and the previous
    # release, give every release exactly: the posterior re-runs the released
    # mechanism
    seq = small_overlap_sequence()
    params = PerturbParams(k=2, m=1, theta=0.8, seed=5)
    graphs, records = linkmirage_run(seq, params)
    plans = _plan_chain(seq, params)
    assert any(p.diff.unchanged and p.diff.changed for p in plans[1:])
    assert any(p.reused_pairs and len(p.reused_pairs) < len(p.pair_tasks)
               for p in plans[1:])
    carried = None
    for t, (plan, record) in enumerate(zip(plans, records)):
        draw = sample_step(plan, carried, params, _step_key(params.seed, t))
        assert plan.clustering == record.clustering
        assert groups_match(draw, graphs[t], record.clustering)
        carried = group_edges(graphs[t], record.clustering)


def vertex_leaves_sequence():
    """Two bridged K6 blocks; vertex 5 of the first block leaves at t=1."""
    k6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    g0 = Graph(k6 + [(u + 6, v + 6) for u, v in k6] + [(5, 6), (4, 7)])
    g1 = Graph([e for e in g0.edges.tolist() if 5 not in e])
    return TemporalGraphSequence([g0, g1])


def test_carried_edges_of_a_departed_vertex_are_dropped(monkeypatch):
    monkeypatch.setattr(privacy, "DEGREE_BIN", 1)
    seq = vertex_leaves_sequence()
    params = PerturbParams(k=2, m=0, theta=0.8, seed=3)
    graphs, records = linkmirage_run(seq, params)
    sampler = _SequenceSampler(seq, params, "linkmirage")
    plan = sampler.plans[1]
    assert plan.diff.unchanged == [(0, 0), (6, 6)] and plan.reused_pairs
    check_draw(records[1].clustering, release_draws(seq, params, graphs)[1])
    assert not graphs[1].has_vertex(5)
    assert any(5 in e for e in group_edges(graphs[0], records[0].clustering)[0][0].tolist())
    # the sampler carries its own draws through the same filter: vertex 5
    # has no perturbed edge at t=1, as in the release
    assert _edge_feature(graphs[1].edges, 5, 4)[:2] == (0, 0)
    features, _ = sampler.sample_features((5, 4), np.random.default_rng(4), 50)
    assert (features[:, 1, :2] == 0).all()


# -- localized posterior draws ---------------------------------------------------


def three_block_sequence():
    """The audit's shape, small: three blocks, block 0 churns and grows."""
    return evolving_sequence([30, 30, 30], 0.2, 0.01, 4, 0.8, np.random.default_rng(3),
                             keep_edge=(30, 31), churn_blocks=[0], new_vertices_per_step=6)


# (sequence, params, query (u, v), which steps start a run of dependent steps)
LOCALIZED_CASES = {
    "small-overlap": (small_overlap_sequence, dict(k=2, m=1, theta=0.8, seed=5), (1, 2),
                      [True, True, True]),
    "vertex-leaves": (vertex_leaves_sequence, dict(k=2, m=0, theta=0.8, seed=3), (5, 4),
                      [True, False]),
    "three-blocks": (three_block_sequence, dict(k=2, m=2, theta=0.8, seed=1), (30, 31),
                     [True, False, False, False]),
    "three-blocks-two-runs": (three_block_sequence, dict(k=2, m=2, theta=0.8, seed=1),
                              (15, 47), [True, False, False, True]),
    # both arrive at t = 2 and join a matched community, whose t = 1 entry
    # is copied empty: it holds no row at them
    "three-blocks-joiners": (three_block_sequence, dict(k=2, m=2, theta=0.8, seed=1),
                             (96, 97), [True, True, False, False]),
    # the acceptance suite's overlap fixture, which the benchmark's audit runs
    "audit": (lambda: overlap_fixture(0), dict(k=2, m=2, theta=0.8, seed=0), (100, 101),
              [True, False, False, False, False]),
}


def layout_entries(layout):
    """(labels, pairs, copies): the entries a layout draws, and whether it
    copies an entry."""
    return set(layout.labels.tolist()), set(layout.pairs), layout.copies


def own_entries(plans, ids, k):
    """Oracle: per plan, (labels, pairs) of the communities with a member
    among ``ids`` and of the pair tasks with one of those as an end, the
    keys of the reference's balls."""
    return [(set(walkers), set(cells)) for walkers, cells in reference_draw.balls(plans, ids, k)]


def drawn_entries(plans, ids, k):
    """Oracle: per plan, the (labels, pairs) of the reference's balls that
    are drawn, not copied, and whether any is copied."""
    return [({label for label, ball in walkers.items() if ball is not None},
             {pair for pair, ball in cells.items() if ball is not None},
             any(ball is None for ball in [*walkers.values(), *cells.values()]))
            for walkers, cells in reference_draw.balls(plans, ids, k)]


def balls_of(plans, ids, k):
    """Each plan's layout of the ids' own entries, laid out alone."""
    return [_layout(plan, ids, k) for plan in plans]


@pytest.mark.parametrize("case", sorted(LOCALIZED_CASES))
def test_localized_draws_equal_the_full_draw(case):
    make, settings, uv, fresh = LOCALIZED_CASES[case]
    params = PerturbParams(**settings)
    sampler = _SequenceSampler(make(), params, "linkmirage")
    plans = sampler.plans
    balls = balls_of(plans, uv, params.k)
    assert list(map(layout_entries, balls)) == drawn_entries(plans, uv, params.k)
    entries = own_entries(plans, uv, params.k)
    assert any(len(labels) + len(pairs)
               < len(plan.diff.unchanged) + len(plan.diff.changed) + len(plan.pair_tasks)
               for (labels, pairs), plan in zip(entries, plans))

    def at(edges):
        return edges[np.isin(edges, uv).any(axis=1)]

    root = _root_key(np.random.default_rng(7))
    features = []
    for sample in range(30):
        full = sample_draws(plans, params, root, sample)
        # drawing only the balls gives each entry's rows at the queried pair,
        # only the own entries hold any, and an entry without rows is absent
        ball = sample_draws(plans, params, root, sample, balls)
        for (intra, inter), (b_intra, b_inter), (labels, pairs) in zip(full, ball, entries):
            assert set(b_intra) <= labels and set(b_inter) <= pairs
            for got, want in ((b_intra, intra), (b_inter, inter)):
                want = {key: at(rows) for key, rows in want.items()}
                assert got.keys() == {key for key, rows in want.items() if len(rows)}
                assert all(np.array_equal(got[key], want[key]) for key in got)
        features.append([_edge_feature(step_edges(*draw), *uv) for draw in full])
    # one call draws the 30 samples in blocks, as 30 draws of one sample do,
    # and draws of the own entries only their k-balls: fewer walkers and
    # cells than the whole draw
    assert perturb._entries(balls, params.k) < perturb._entries(map(_layout, plans), params.k)
    local, local_fresh = sampler.sample_features(uv, np.random.default_rng(7), 30)
    assert local.tobytes() == np.array(features, dtype=local.dtype).tobytes()
    assert local_fresh.tolist() == fresh
    # the static mechanism: the same fold over its plans, each snapshot's
    # unlocalized draw under the same keys
    static = _SequenceSampler(sampler.world, params, "static")
    static_plans = perturb._static_plans(sampler.world)
    root = _root_key(np.random.default_rng(7))
    features = [[_edge_feature(step_edges(*draw), *uv)
                 for draw in sample_draws(static_plans, params, root, s)] for s in range(30)]
    local, local_fresh = static.sample_features(uv, np.random.default_rng(7), 30)
    assert local.tobytes() == np.array(features, dtype=local.dtype).tobytes()
    assert local_fresh.all()
    # whose balls hold fewer walkers than whole snapshots, but for two K6 blocks
    whole = [_layout(p) for p in static_plans]
    assert (perturb._entries(balls_of(static_plans, uv, params.k), params.k)
            < perturb._entries(whole, params.k)) == (case != "vertex-leaves")


def check_own_entries(plans, params, ids, root, samples=3):
    """At every step, the layout for ``ids`` draws exactly the ids' own
    entries that are not copied, copies when one of them is, and no other
    entry of the full draw holds a row at them."""
    keys = [_hash(root, t, np.arange(samples)) for t in range(len(plans))]
    for (labels, pairs), drawn, layout, plan, draw in zip(
            own_entries(plans, ids, params.k), drawn_entries(plans, ids, params.k),
            balls_of(plans, ids, params.k), plans,
            _draws(map(_layout, plans), params.k, keys)):
        assert layout_entries(layout) == drawn
        for part in split_draw(draw, plan.clustering):
            for key, rows in part.items():
                if key not in labels and key not in pairs:
                    assert not np.isin(rows[:, 1:], ids).any(), key


@pytest.mark.parametrize("case", sorted(LOCALIZED_CASES))
def test_a_ball_builds_exactly_the_own_entries(case):
    make, settings, uv, _ = LOCALIZED_CASES[case]
    params = PerturbParams(**settings)
    seq = make()
    for plans in (_plan_chain(seq, params), perturb._static_plans(seq)):
        check_own_entries(plans, params, uv, 12345)


def test_localized_draws_leave_the_stream_as_the_full_draw():
    # the localized draw reads one root key from the stream, whatever it
    # builds, and spawns no child
    for case, (make, settings, uv, _) in sorted(LOCALIZED_CASES.items()):
        params = PerturbParams(**settings)
        sampler = _SequenceSampler(make(), params, "linkmirage")
        full_rng, local_rng = np.random.default_rng(11), np.random.default_rng(11)
        sample_draws(sampler.plans, params, _root_key(full_rng))
        sampler.sample_features(uv, local_rng, 5)
        assert full_rng.bit_generator.state == local_rng.bit_generator.state, case
        assert local_rng.bit_generator.seed_seq.n_children_spawned == 0, case


def test_reads_of_identical_snapshots_reach_back_to_t0():
    # every step after t = 0 copies all its entries, so each step reads the
    # entries of t = 0 that the query touches
    g, _ = planted_partition_graph([8, 8, 8], 0.7, 0.1, np.random.default_rng(2))
    plans = _plan_chain(TemporalGraphSequence([g, g, g]), PerturbParams(k=2, seed=0))
    assert all(not plan.diff.changed and len(plan.reused_pairs) == len(plan.pair_tasks)
               for plan in plans[1:])
    (label,) = set(plans[0].clustering.label_of([0, 1]).tolist())
    pairs = {(task.a, task.b) for task in plans[0].pair_tasks if label in (task.a, task.b)}
    assert pairs and len(pairs) < len(plans[0].pair_tasks)
    assert own_entries(plans, (0, 1), 2) == [({label}, pairs)] * 3
    # t = 0 draws the balls of its entries, and each later step copies them
    balls = balls_of(plans, (0, 1), 2)
    assert list(map(layout_entries, balls)) == [({label}, pairs, False),
                                                 *[(set(), set(), True)] * 2]


# -- the fused step draw against the per-entry reference ----------------------


def assert_same_draw(fused, reference, clustering, walk_major=None):
    """The fused draw's entries, its rows grouped by their ends' labels under
    ``clustering``, are the reference's, key for key and row for row; an
    entry without rows compares as absent. ``walk_major`` (S) reads each
    walk entry's rows as the raw draw lays them out, walker by walker, and
    compares them sample by sample."""
    for got, want in zip(split_draw(fused, clustering), reference):
        assert list(got) == sorted(key for key, rows in want.items() if len(rows))
        for key, rows in got.items():
            if walk_major and not isinstance(key, tuple):
                rows = rows.reshape(-1, walk_major, 3).transpose(1, 0, 2).reshape(-1, 3)
            assert rows.dtype == np.int64 and np.array_equal(rows, want[key]), key


def check_fused_draws(plans, params, samples, ids, root):
    """Every draw the library makes through ``_sample_step`` equals the
    per-entry reference's, for S = ``samples`` samples under ``root``: the
    whole fold over ``plans``, the fold over the k-balls of ``ids`` keeping
    the rows at them, and the degree check's raw walks of each plan that
    copies nothing."""
    keys = [_hash(root, t, np.arange(samples)) for t in range(len(plans))]
    k = params.k
    for fused, want, plan in zip(_draws(map(_layout, plans), k, keys),
                                 reference_draw.draws(plans, params, keys), plans):
        assert_same_draw(fused, want, plan.clustering)
    at_ids = functools.partial(reference_draw.perturb_rows, ends=ids)
    for fused, want, plan in zip(_draws(balls_of(plans, ids, k), k, keys),
                                 reference_draw.draws(plans, params, keys,
                                                      reference_draw.balls(plans, ids, k), at_ids),
                                 plans):
        assert_same_draw(fused, want, plan.clustering)
    for plan, step_keys in zip(plans, keys):
        if plan.diff.unchanged or plan.reused_pairs:
            continue
        # raw rows name positions in the plan's graph: compare them as ids
        positions = plan.graph.vertices
        walks = functools.partial(reference_draw.walker_rows, ids=positions)
        intra, inter = reference_draw.sample_step(plan, None, params, step_keys, draw=walks)
        intra = {label: np.column_stack([rows[:, :1], positions[rows[:, 1:]]])
                 for label, rows in intra.items()}
        fused = _sample_step(_layout(plan, raw=True), None, k, step_keys)
        fused = np.column_stack([fused[:, :1], positions[fused[:, 1:]]])
        assert_same_draw(fused, (intra, inter), plan.clustering, walk_major=samples)


@st.composite
def churned_sequences(draw):
    """2 to 4 snapshots of a planted partition: each step rewires part of
    block 0, and may drop a vertex, attach a new one and add an isolated one,
    so plans copy, reuse pairs, gain joiners, lose leavers and hold changed
    communities without edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, size = draw(st.integers(2, 4)), draw(st.integers(3, 8))
    g, _ = planted_partition_graph([size] * blocks, 0.7, 0.1, rng)
    snaps = [g]
    for _ in range(draw(st.integers(1, 3))):
        ids, edges = g.vertices, g.edges
        churn = edges[(edges < size).all(axis=1)]
        edges = np.vstack([edges[~(edges < size).all(axis=1)],
                           churn[rng.random(len(churn)) < 0.7],
                           [rng.choice(size, 2, replace=False) for _ in range(2)]])
        if draw(st.booleans()):         # a leaver
            gone = rng.choice(ids)
            edges, ids = edges[(edges != gone).all(axis=1)], ids[ids != gone]
        new = int(g.vertices.max()) + 1
        if draw(st.booleans()):         # a joiner, attached to two members
            edges = np.vstack([edges, [[new, v] for v in rng.choice(ids, 2, replace=False)]])
        if draw(st.booleans()):         # an isolated id: a community without edges
            ids = np.append(ids, new + 1)
        g = Graph(edges, vertices=ids)
        snaps.append(g)
    return TemporalGraphSequence(snaps)


def row_set(draw):
    """The rows of a step draw, as a set."""
    return set(map(tuple, draw.tolist()))


@pytest.mark.parametrize("case", ["vertex-leaves", "three-blocks", "audit"])
def test_no_reader_depends_on_the_row_order_inside_an_entry(case):
    # a draw's rows owe no order, inside an entry or across entries:
    # permuting the whole draw changes no row the next step copies, no
    # release and no feature or degree count
    make, settings, uv, _ = LOCALIZED_CASES[case]
    params = PerturbParams(**settings)
    seq = make()
    plans = _plan_chain(seq, params)
    rng = np.random.default_rng(5)
    samples, moved, copied = 4, False, False
    keys = [_hash(root, np.arange(samples)) for root in range(11, 11 + len(plans))]
    for layouts in (list(map(_layout, plans)), balls_of(plans, uv, params.k)):
        carried = None
        for layout, plan, step_keys in zip(layouts, plans, keys):
            draw = _sample_step(layout, carried, params.k, step_keys)
            if carried is not None:
                again = _sample_step(layout, rng.permutation(carried), params.k, step_keys)
                assert row_set(again) == row_set(draw)
                copied |= layout.copies
            shuffled = rng.permutation(draw)
            moved |= not np.array_equal(shuffled, draw)
            assert np.array_equal(_edge_features(shuffled, *uv, samples),
                                  _edge_features(draw, *uv, samples))
            for sample in range(samples):
                release, reordered = (Graph(d[d[:, 0] == sample, 1:],
                                            vertices=plan.clustering.vertices)
                                      for d in (draw, shuffled))
                assert np.array_equal(release.edges, reordered.edges)
            carried = draw
    assert moved and copied
    # the degree check's raw layout, counted per sample by one bincount
    graph = seq[0]
    n = graph.num_vertices
    draw = _sample_step(_layout(build_step_plan(graph, None, params), raw=True), None,
                        params.k, keys[0])
    shuffled = rng.permutation(draw)
    assert not np.array_equal(shuffled, draw)
    counts = [np.bincount((d[:, :1] * n + d[:, 1:]).ravel(), minlength=samples * n)
              for d in (draw, shuffled)]
    assert np.array_equal(*counts)


@settings(max_examples=150, deadline=None)
@given(churned_sequences(), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from([0.5, 0.8, 1.0]), st.integers(1, 4), st.integers(0, 2**64 - 1),
       st.lists(st.integers(0, 40), min_size=2, max_size=2, unique=True))
def test_fused_step_draws_equal_the_per_entry_draw(seq, k, m, theta, samples, root, ids):
    # LinkMirage plan chains and the static mechanism's plans; a ball builds
    # exactly the own entries of ids
    params = PerturbParams(k=k, m=m, theta=theta, seed=0)
    for plans in (_plan_chain(seq, params), perturb._static_plans(seq)):
        check_fused_draws(plans, params, samples, ids, root)
        check_own_entries(plans, params, ids, root)


def check_rows_name_entries(plans, layouts, k, keys):
    """Every row of every step's draw lies in exactly one entry of its plan:
    its ends' labels name one community, or the two of one pair task."""
    for plan, draw in zip(plans, _draws(layouts, k, keys), strict=True):
        ends = np.sort(plan.clustering.label_of(draw[:, 1:]), axis=1)
        pairs = {(task.a, task.b) for task in plan.pair_tasks}
        assert (ends >= 0).all()
        assert all(a == b or (a, b) in pairs for a, b in ends.tolist())


@settings(max_examples=100, deadline=None)
@given(churned_sequences(), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from([0.5, 0.8, 1.0]), st.integers(0, 2**64 - 1),
       st.lists(st.integers(0, 40), min_size=2, max_size=2, unique=True))
def test_every_drawn_row_names_one_entry_of_its_plan(seq, k, m, theta, root, ids):
    # the carry reads each carried row's entry from its ends' labels: whole
    # and ball layouts of LinkMirage and static plans
    params = PerturbParams(k=k, m=m, theta=theta, seed=0)
    for plans in (_plan_chain(seq, params), perturb._static_plans(seq)):
        keys = [_hash(root, t, np.arange(3)) for t in range(len(plans))]
        for layouts in (map(_layout, plans), balls_of(plans, ids, k)):
            check_rows_name_entries(plans, layouts, k, keys)


def test_fused_draw_cases_cover_every_kind_of_entry():
    # the fixed cases hold every kind of entry a plan chain has: reused
    # pairs, joiners and leavers of matched communities, and changed
    # communities without edges; each draws as the reference does
    seen = set()
    cases = [(make(), PerturbParams(**settings), uv)
             for make, settings, uv, _ in LOCALIZED_CASES.values()]
    isolated = Graph(planted_partition_graph([6, 6], 0.7, 0.1, np.random.default_rng(4))[0].edges,
                     vertices=[20, 21])
    cases.append((TemporalGraphSequence([isolated, isolated]), PerturbParams(k=2), (0, 20)))
    for seq, params, uv in cases:
        plans = _plan_chain(seq, params)
        for plan in plans:
            seen.update({"reused pair"} if plan.reused_pairs else set())
            edged = set(plan.clustering.labels[plan.graph.edge_positions[:, 0]].tolist())
            seen.update({"edgeless changed"} if set(plan.diff.changed) - edged else set())
        for prev_plan, plan in zip(plans, plans[1:]):
            before = prev_plan.clustering.communities
            now = plan.clustering.communities
            if any(now[label] - before[prev] for prev, label in plan.diff.unchanged):
                seen.add("joiner")
            if reference_draw.leavers(prev_plan.clustering, plan):
                seen.add("leaver")
        check_fused_draws(plans, params, 3, uv, 12345)
        check_fused_draws(perturb._static_plans(seq), params, 3, uv, 12345)
    assert seen == {"reused pair", "leaver", "joiner", "edgeless changed"}


def test_prev_record_roundtrips_through_json():
    g, _ = planted_partition_graph([6, 6], 0.7, 0.1, np.random.default_rng(8))
    _, (record,) = linkmirage_run(TemporalGraphSequence([g]), PerturbParams(k=1, seed=13))
    obj = record.to_json_obj()
    assert set(obj) == {"timestamp", "communities"}
    clone = PerturbationRecord.from_json_obj(obj)
    assert clone.to_json_obj() == obj
    assert clone.timestamp == record.timestamp
    assert clone.clustering == record.clustering


def reference_validate(clustering, draw):
    """Oracle: the per-edge loop over frozenset communities."""
    intra, inter = draw
    for label, edges in intra.items():
        members = clustering.communities[label]
        for u, v in np.asarray(edges).reshape(-1, 2):
            if int(u) not in members or int(v) not in members:
                raise ValueError(f"intra edge ({u},{v}) leaves community {label}")
    for (a, b), edges in inter.items():
        ca = clustering.communities[a]
        cb = clustering.communities[b]
        for u, v in np.asarray(edges).reshape(-1, 2):
            u, v = int(u), int(v)
            if not ((u in ca and v in cb) or (u in cb and v in ca)):
                raise ValueError(f"inter edge ({u},{v}) does not cross ({a},{b})")


def validation_message(clustering, draw):
    try:
        reference_validate(clustering, draw)
    except ValueError as err:
        return str(err)
    return None


def groups_match(draw, graph, clustering):
    """Whether ``graph`` grouped by ``clustering`` holds exactly the draw's
    entries, as canonical edges; an entry that drew no edge may have no key."""
    return all(set(got) <= set(want) and all(
        np.array_equal(Graph(got.get(key, EMPTY)).edges, Graph(edges).edges)
        for key, edges in want.items())
        for got, want in zip(group_edges(graph, clustering), draw))


def regroups(clustering, draw):
    """Whether grouping the drawn graph gives the draw back; a draw with a
    self-loop is no graph, so it never does."""
    edges = step_edges(*draw)
    return not (edges[:, 0] == edges[:, 1]).any() and \
        groups_match(draw, Graph(edges), clustering)


def check_draw(clustering, draw):
    """The oracle accepts the draw, and grouping the drawn graph gives it back."""
    reference_validate(clustering, draw)
    assert regroups(clustering, draw)


def test_a_fold_refuses_keys_for_another_number_of_steps():
    # one key array per layout: a fold never truncates to the shorter list
    layout = _layout(_static_plan(Graph([(0, 1), (1, 2)])))
    with pytest.raises(ValueError):
        list(_draws([layout, layout], 1, [_hash(1)]))


def release_draws(seq, params, graphs):
    """Every step draw behind a ``linkmirage_run`` release: re-drawn from its
    plan and the release's stream, each carrying the draw before it as the
    posterior does. Each gives the release of its step."""
    plans = _plan_chain(seq, params)
    keys = [_step_key(params.seed, t) for t in range(len(plans))]
    draws = [edge_draw(draw, plan.clustering)
             for draw, plan in zip(_draws(map(_layout, plans), params.k, keys), plans)]
    for t, draw in enumerate(draws):
        assert graphs[t] == Graph(step_edges(*draw), vertices=seq.snapshots[t].vertices)
    return draws


def with_edge_moved(draw, clustering, rng):
    """A copy of ``draw`` with one edge of each entry bent to a random vertex
    other than its far end: a draw never holds a self-loop, which the
    membership oracle would accept and no graph can hold."""
    bent = ({}, {})
    for src, dst in zip(draw, bent):
        for key, edges in src.items():
            edges = np.array(edges).reshape(-1, 2)
            if len(edges):
                row, end = rng.integers(len(edges)), rng.integers(2)
                others = clustering.vertices[clustering.vertices != edges[row, 1 - end]]
                edges[row, end] = rng.choice(others)
            dst[key] = edges
    return bent


def reference_group_edges(graph, clustering):
    """Oracle: ``group_edges`` as a lexsort of the (a, b) label columns of
    the oriented edges, groups cut where either label changes."""
    labels = clustering.label_of(graph.vertices)[graph.edge_positions]
    flip = labels[:, 0] > labels[:, 1]
    edges = graph.edges.copy()
    edges[flip], labels[flip] = edges[flip, ::-1], labels[flip, ::-1]
    order = np.lexsort((labels[:, 1], labels[:, 0]))
    edges, labels = edges[order], labels[order]
    starts = np.flatnonzero(np.diff(labels[:, 0], prepend=-1) | np.diff(labels[:, 1], prepend=-1))
    intra, inter = {}, {}
    for (a, b), part in zip(labels[starts].tolist(), np.split(edges, starts[1:])):
        if a == b:
            intra[a] = part
        else:
            inter[(a, b)] = part
    return intra, inter


def test_group_edges_matches_the_label_lexsort(rng):
    # groups of well over 16 edges, where an unstable sort would reorder
    # rows, sparse shuffled ids, and clusterings over extra vertices
    for _ in range(40):
        n = int(rng.integers(2, 90))
        base = random_graph(n, rng.uniform(0.05, 0.6), rng)
        ids = rng.permutation(n + 5) * 11 + 3
        graph = Graph(ids[base.edges], vertices=ids[:n])
        groups = rng.integers(0, int(rng.integers(1, 6)), size=ids.size)
        clustering = Clustering.from_groups([ids[groups == c] for c in np.unique(groups)])
        for got, want in zip(group_edges(graph, clustering),
                             reference_group_edges(graph, clustering)):
            assert list(got) == list(want)
            for key, rows in want.items():
                assert got[key].dtype == rows.dtype and np.array_equal(got[key], rows)


def test_grouping_matches_frozenset_oracle():
    runs = [(small_overlap_sequence(), PerturbParams(k=2, m=m, theta=0.8, seed=5))
            for m in (0, 1, 2)]
    for seed in range(3):
        seq = evolving_sequence([30, 30], 0.25, 0.02, 4, 0.85,
                                np.random.default_rng(300 + seed))
        runs.append((seq, PerturbParams(k=2, seed=seed)))
    cases = []
    for seq, params in runs:
        graphs, records = linkmirage_run(seq, params)
        draws = release_draws(seq, params, graphs)
        cases += [(record.clustering, draw) for record, draw in zip(records, draws)]
    rng = np.random.default_rng(8)
    cases += [(c, with_edge_moved(draw, c, rng)) for c, draw in cases for _ in range(3)]
    messages = [validation_message(c, draw) for c, draw in cases]
    assert [m is None for m in messages] == [regroups(c, draw) for c, draw in cases]
    assert None in messages
    assert any(m and m.startswith("intra") for m in messages)
    assert any(m and m.startswith("inter") for m in messages)


def moved_vertex_sequence():
    """Two bridged K6 blocks; at t=1 vertex 5 drops its block-A edges and
    joins block B."""
    k6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    g0 = Graph(k6 + [(u + 6, v + 6) for u, v in k6] + [(5, 6), (4, 7)])
    g1 = Graph([e for e in g0.edges.tolist() if 5 not in e or max(e) >= 6]
               + [(5, v) for v in range(7, 12)])
    return TemporalGraphSequence([g0, g1])


def reuse_fixtures(m, theta):
    """(sequence, params) pairs the reuse rule is checked on at one (m, theta):
    the overlap fixture, criterion 3's first three sequences and the moved
    vertex."""
    yield small_overlap_sequence(), PerturbParams(k=2, m=m, theta=theta, seed=5)
    for seed in range(3):
        seq = evolving_sequence([30, 30], 0.25, 0.02, 4, 0.85,
                                np.random.default_rng(300 + seed))
        yield seq, PerturbParams(k=2, m=m, theta=theta, seed=seed)
    yield moved_vertex_sequence(), PerturbParams(k=2, m=m, theta=theta, seed=3)


reuse_grid = pytest.mark.parametrize("m, theta", [(m, theta) for m in (0, 1, 2)
                                                  for theta in (0.5, 0.8, 1.0)])


@reuse_grid
def test_every_release_record_validates(m, theta):
    for seq, params in reuse_fixtures(m, theta):
        graphs, records = linkmirage_run(seq, params)
        for record, draw in zip(records, release_draws(seq, params, graphs)):
            check_draw(record.clustering, draw)
        # the posterior's own draws, carried through the same kernel, in
        # both hypothesis worlds
        query = LinkQuery(t=len(seq) - 1, u=0, v=1)
        rng = np.random.default_rng(params.seed)
        for present in (True, False):
            plans = _plan_chain(_hypothesis_world(seq, query, present), params)
            for _ in range(3):
                for plan, draw in zip(plans, sample_draws(plans, params, _root_key(rng))):
                    check_draw(plan.clustering, draw)


def reference_carry(plan, carried):
    """Oracle: the per-row membership rule. A carried row stays when its
    endpoints' current labels are the entry's label (intra) or, sorted, its
    pair (inter)."""
    label_of = plan.clustering.label_of
    intra = {label: carried[0].get(prev, EMPTY) for prev, label in plan.diff.unchanged}
    inter = {pair: carried[1].get(key, EMPTY) for pair, key in plan.reused_pairs.items()}
    return ({label: e[(label_of(e) == label).all(axis=1)] for label, e in intra.items()},
            {pair: e[(np.sort(label_of(e), axis=1) == pair).all(axis=1)]
             for pair, e in inter.items()})


@reuse_grid
def test_carry_filter_matches_the_membership_rule(m, theta):
    moved = 0
    for seq, params in reuse_fixtures(m, theta):
        graphs, _ = linkmirage_run(seq, params)
        plans = _plan_chain(seq, params)
        draws = release_draws(seq, params, graphs)
        for t in range(1, len(plans)):
            for got_part, want_part in zip(draws[t], reference_carry(plans[t], draws[t - 1])):
                assert all(np.array_equal(got_part.get(key, EMPTY), want)
                           for key, want in want_part.items())
            moved += bool(reference_draw.leavers(plans[t - 1].clustering, plans[t]))
    # matched communities hold the same vertices at theta = 1, so none leave
    assert (moved > 0) == (theta < 1.0)


def edges_at(edges, uv):
    """The canonical edges of a draw that touch u or v."""
    edges = Graph(edges).edges
    return edges[np.isin(edges, uv).any(axis=1)]


# the moved-vertex blocks are both matched at t=1, so only t=0 is fresh there
@pytest.mark.parametrize("seq, pairs, fresh_later", [
    (small_overlap_sequence(), [(0, 1), (1, 2), (20, 21), (5, 45), (0, 25), (3, 61)], True),
    (moved_vertex_sequence(), [(5, 4), (5, 7), (4, 7), (0, 11)], False),
])
def test_carries_matches_the_matched_community_rule(seq, pairs, fresh_later):
    params = PerturbParams(k=2, m=1, theta=0.7, seed=3)
    rng = np.random.default_rng(0)
    flags, fresh_after_t0 = [], 0
    for (u, v), present in itertools.product(pairs, (True, False)):
        world = _hypothesis_world(seq, LinkQuery(t=len(seq) - 1, u=u, v=v), present)
        sampler = _SequenceSampler(world, params, "linkmirage")
        # a step is fresh when its layout for (u, v) copies no entry
        _, fresh = sampler.sample_features((u, v), np.random.default_rng(1), 1)
        carried = None
        for plan, plan_fresh in zip(sampler.plans, fresh.tolist(), strict=True):
            flags.append(not plan_fresh)
            assert flags[-1] == reference_carries(plan, (u, v))
            if carried is not None and not flags[-1]:
                # a step that carries nothing at u or v draws the same edges
                # there whatever the step before it drew, even nothing at all
                seed = int(rng.integers(1 << 32))
                emptied = tuple({key: EMPTY for key in part} for part in carried)
                drawn = [edges_at(step_edges(*sample_step(plan, prev, params, seed)), [u, v])
                         for prev in (carried, emptied)]
                assert np.array_equal(*drawn)
                fresh_after_t0 += 1
            carried = sample_step(plan, carried, params, _root_key(rng))
    assert True in flags and False in flags
    assert (fresh_after_t0 > 0) == fresh_later


@pytest.mark.parametrize("m", [0, 1])
def test_a_vertex_moving_between_matched_communities_carries_no_edge(m):
    seq = moved_vertex_sequence()
    params = PerturbParams(k=2, m=m, theta=0.7, seed=3)
    graphs, records = linkmirage_run(seq, params)
    first, plan = _plan_chain(seq, params)
    assert plan.diff.unchanged == [(0, 0), (6, 5)] and plan.reused_pairs == {(0, 5): (0, 6)}
    assert reference_draw.leavers(first.clustering, plan) == {0: {5}}
    # every previous id but the leaver is kept, labelled by its match's
    # position in diff.unchanged; t = 0 keeps none
    assert plan.kept.label_of(range(12)).tolist() == [0] * 5 + [-1] + [1] * 6
    assert _layout(plan).kept is plan.kept and not first.kept.vertices.size
    (intra_0, _), (intra_1, _) = map(group_edges, graphs, [r.clustering for r in records])
    assert (intra_0[0] == 5).any()
    check_draw(records[1].clustering, release_draws(seq, params, graphs)[1])
    # the joiner gets no copied edge in its new community and keeps none of
    # its old ones: it is perturbed fresh only when block B next changes
    assert np.array_equal(intra_1[5], intra_0[6])
    assert not (graphs[1].edges == 5).any()


def plan_on(graph, clustering, monkeypatch):
    """The t = 0 plan of ``graph`` laid out on ``clustering``, not on the one
    ``cluster_static`` finds; every community of a t = 0 plan is changed."""
    monkeypatch.setattr(perturb, "cluster_static", lambda g: clustering)
    return build_step_plan(graph, None, PerturbParams())


def test_pair_tasks_match_per_edge_oracle(rng, monkeypatch):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        base = random_graph(n, rng.uniform(0.05, 0.5), rng)
        # sparse, unordered ids exercise the id -> label lookup
        ids = rng.permutation(np.arange(n) * 7 + 3)
        g = Graph(ids[base.edges], vertices=ids)
        labels = rng.integers(0, int(rng.integers(1, 6)), size=n)
        c = Clustering.from_groups(
            [ids[labels == k] for k in np.unique(labels)])
        groups = {}
        for u, v in g.edges.tolist():
            cu, cv = c.label_of([u, v]).tolist()
            if cu != cv:
                key, pair = ((cu, cv), (u, v)) if cu < cv else ((cv, cu), (v, u))
                groups.setdefault(key, []).append(pair)
        tasks = plan_on(g, c, monkeypatch).pair_tasks
        assert [(t.a, t.b) for t in tasks] == sorted(groups)
        for task in tasks:
            pairs = np.asarray(groups[(task.a, task.b)])
            nodes_a, deg_a = np.unique(pairs[:, 0], return_counts=True)
            nodes_b, deg_b = np.unique(pairs[:, 1], return_counts=True)
            assert type(task.a) is int and type(task.b) is int
            assert task.n_edges == len(pairs)
            for got, want in ((task.nodes_a, nodes_a), (task.deg_a, deg_a),
                              (task.nodes_b, nodes_b), (task.deg_b, deg_b)):
                assert got.dtype == np.int64 and np.array_equal(got, want)


def test_plan_subgraphs_are_the_induced_subgraphs(rng, monkeypatch):
    # the plan's graph holds each changed community's intra group of the one
    # grouping over every id of the step: each changed community's part of it
    # is its induced subgraph, isolated members included, and it holds no
    # other edge
    def check(g_t, plan):
        assert np.array_equal(plan.graph.vertices, plan.clustering.vertices)
        communities = plan.clustering.communities
        for label in plan.diff.changed:
            assert plan.graph.subgraph(communities[label]) == g_t.subgraph(communities[label])
        assert plan.graph.num_edges == sum(g_t.subgraph(communities[label]).num_edges
                                           for label in plan.diff.changed)

    changed = 0
    for seq in (small_overlap_sequence(), vertex_leaves_sequence()):
        for m, theta in ((0, 0.8), (1, 1.0), (2, 0.5)):
            plans = _plan_chain(seq, PerturbParams(k=2, m=m, theta=theta, seed=5))
            for g_t, plan in zip(seq.snapshots, plans):
                check(g_t, plan)
            changed += sum(len(plan.diff.changed) for plan in plans[1:])
    assert changed

    lone = 0
    for _ in range(20):
        n = int(rng.integers(2, 40))
        base = random_graph(n, rng.uniform(0.05, 0.5), rng)
        # sparse, unordered ids, plus one id with no edge at all
        ids = rng.permutation(np.arange(n) * 7 + 3)
        g = Graph(ids[base.edges], vertices=np.append(ids, 7 * n + 5))
        labels = rng.integers(0, int(rng.integers(1, 6)), size=n + 1)
        c = Clustering.from_groups([g.vertices[labels == k] for k in np.unique(labels)])
        plan = plan_on(g, c, monkeypatch)
        assert plan.diff.changed == sorted(c.communities)
        check(g, plan)
        lone += sum(sub.num_vertices - np.unique(sub.edges).size
                    for sub in reference_draw.subgraphs(plan).values())
    assert lone


# -- hay baseline -----------------------------------------------------------------


def test_hay_baseline_exact_edge_count(rng):
    g = random_graph(15, 0.3, rng, ensure_edge=True)
    m = g.num_edges
    r = m // 2
    gp = hay_baseline(g, r, rng)
    assert gp.num_edges == m
    before = set(map(tuple, g.edges.tolist()))
    after = set(map(tuple, gp.edges.tolist()))
    assert len(before & after) == m - r
    assert len(after - before) == r


def test_hay_baseline_r_zero_is_identity(rng):
    g = random_graph(8, 0.4, rng, ensure_edge=True)
    assert hay_baseline(g, 0, rng) == g


def reference_hay(graph, r, rng):
    """Oracle: the comparator as first written, with tuple sets and a
    rejection loop that has no attempt cap."""
    m = graph.num_edges
    keep_mask = np.ones(m, dtype=bool)
    if r:
        keep_mask[rng.choice(m, size=r, replace=False)] = False
    existing = set(map(tuple, graph.edges.tolist()))
    ids = graph.vertices
    inserted, seen = [], set()
    while len(inserted) < r:
        u = int(ids[rng.integers(0, ids.size)])
        v = int(ids[rng.integers(0, ids.size)])
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing or key in seen:
            continue
        seen.add(key)
        inserted.append(key)
    edges = np.vstack([graph.edges[keep_mask],
                       np.asarray(inserted, dtype=np.int64).reshape(-1, 2)])
    return Graph(edges, vertices=ids)


def test_hay_baseline_matches_the_uncapped_loop(rng):
    for trial in range(30):
        n = int(rng.integers(3, 40))
        base = random_graph(n, rng.uniform(0.05, 0.7), rng, ensure_edge=True)
        ids = rng.permutation(np.arange(n) * 7 + 3)
        g = Graph(ids[base.edges], vertices=ids)
        absent = n * (n - 1) // 2 - g.num_edges
        r = int(rng.integers(0, min(g.num_edges, absent) + 1))
        got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
        assert hay_baseline(g, r, got_rng) == reference_hay(g, r, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_hay_baseline_on_a_complete_graph_raises(n, r):
    g = Graph([(i, j) for i in range(n) for j in range(i + 1, n)])
    with time_limit(10), pytest.raises(ValueError, match="too dense"):
        hay_baseline(g, r, np.random.default_rng(0))


def test_hay_baseline_short_of_absent_pairs_raises():
    # K5 minus one edge has a single absent pair, so r = 2 cannot be met
    g = Graph([(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)])
    assert [0, 1] in hay_baseline(g, 1, np.random.default_rng(1)).edges.tolist()
    with time_limit(10), pytest.raises(ValueError, match="found 1 of the 2"):
        hay_baseline(g, 2, np.random.default_rng(1))
