"""Self-test of the benchmark's own code on tiny fixtures.

    python3 perfbench/selftest.py

Checks the counters against hand-computed cases and an independent BFS, the
tracer's self-time arithmetic and its handling of missing names, and that
BENCHMARK.json lists exactly the metrics run.py reports. Exits 1 on the
first failure.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from collections import deque

import numpy as np

import run
from counters import (freed_fraction, posterior_match_fraction, release_counters,
                      unmatched_communities)
from tracer import Tracer


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def bfs_ball(edges, seeds, m) -> set:
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    dist = {s: 0 for s in seeds}
    queue = deque(seeds)
    while queue:
        x = queue.popleft()
        if dist[x] == m:
            continue
        for y in adj.get(x, ()):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return set(dist)


def test_identical_snapshots(lm) -> None:
    graph, _ = lm.planted_partition_graph([12, 12, 12], 0.5, 0.03,
                                          np.random.default_rng(5))
    seq = lm.TemporalGraphSequence([graph, graph, graph])
    released, records = lm.linkmirage_run(seq, lm.PerturbParams(k=2, m=2, seed=3))
    values = release_counters([(g.vertices, g.edges) for g in seq.snapshots],
                              [(g.vertices, g.edges) for g in released],
                              [r.clustering.communities for r in records], 0.8, 2)
    check(values["clustering.freed_frac"] == 0.0, "identical snapshots free nothing")
    check(values["perturb.changed_frac"] == 0.0, "identical snapshots change no community")
    check(values["perturb.reused_edge_frac"] == 1.0,
          "identical snapshots release the same edges again")


def test_one_edge_change(lm) -> None:
    rng = np.random.default_rng(11)
    graph = lm.ring_of_blocks(6, 15, 0.2, 2, rng)
    edges = [tuple(e) for e in graph.edges.tolist()]
    for m in (0, 1, 2, 3):
        removed = edges[len(edges) // 3]
        changed = lm.Graph([e for e in edges if e != removed], vertices=graph.vertices)
        ball = bfs_ball([e for e in edges if e != removed], list(removed), m)
        frac = freed_fraction(graph.vertices, graph.edges, changed.vertices,
                              changed.edges, m)
        check(round(frac * graph.num_vertices) == len(ball),
              f"one removed edge frees its {m}-hop ball ({len(ball)} vertices)")
        freed = lm.freed_vertices(changed, [removed], m)
        check(freed == ball, f"library frees the same {m}-hop ball")


def test_new_vertex_is_freed(lm) -> None:
    before = lm.Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
    after = lm.Graph([(0, 1), (1, 2), (2, 3), (3, 4)], vertices=[5])
    check(freed_fraction(before.vertices, before.edges, after.vertices,
                         after.edges, 2) == 1 / 6, "a new isolated vertex is freed")


def test_matching() -> None:
    prev = {0: frozenset(range(10)), 10: frozenset(range(10, 20))}
    cur = {0: frozenset(range(9)), 9: frozenset([9]) | frozenset(range(10, 20))}
    # 0 keeps 9/10 of its members (Jaccard 0.9); 9 has Jaccard 10/11 with 10
    check(unmatched_communities(prev, cur, 0.8) == 0, "two overlapping matches")
    check(unmatched_communities(prev, cur, 0.95) == 2, "no match above 0.95")


def test_match_fraction() -> None:
    estimate = types.SimpleNamespace(samples=100, likelihood_with=31 / 102,
                                     likelihood_without=11 / 102)
    check(posterior_match_fraction(estimate) == 40 / 200,
          "match fraction from add-one smoothed likelihoods")


def test_tracer() -> None:
    fake = types.ModuleType("perfbench_selftest_fake")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        fake.inner()
        fake.inner()

    fake.inner, fake.outer = inner, outer
    sys.modules[fake.__name__] = fake
    try:
        tracer = Tracer({"fake.outer": [f"{fake.__name__}.outer"],
                         "fake.inner": [f"{fake.__name__}.inner"],
                         "fake.gone": [f"{fake.__name__}.renamed_helper"]})
        tracer.install()
        start = time.perf_counter()
        fake.outer()
        wall = time.perf_counter() - start
        tracer.uninstall()
        tracer.fold()
    finally:
        del sys.modules[fake.__name__]
    check(fake.outer is outer and fake.inner is inner, "uninstall restores the names")
    check(tracer.missing_names() == ["fake.gone"], "a missing name is reported, not raised")
    check(tracer.calls == {"fake.outer": 1, "fake.inner": 2}, "call counts")
    check(0.009 < tracer.self_s["fake.outer"] < 0.02,
          f"outer self time excludes its children ({tracer.self_s['fake.outer']:.4f} s)")
    check(0.039 < tracer.self_s["fake.inner"] < 0.06, "inner self time")
    check(abs(tracer.top_level_s - wall) < 0.005, "top-level spans cover the call")


def test_benchmark_json() -> None:
    from tracer import SITES
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="ascii") as fh:
        spec = json.load(fh)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == run.per_layer_metrics(SITES), "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
          "BENCHMARK.json workloads match run.py")


def main() -> int:
    lm = run.import_linkmirage()
    test_identical_snapshots(lm)
    test_one_edge_change(lm)
    test_new_vertex_is_freed(lm)
    test_matching()
    test_match_fraction()
    test_tracer()
    test_benchmark_json()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
