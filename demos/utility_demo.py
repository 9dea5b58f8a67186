"""Measure what perturbation costs in graph utility.

Covers the walk-distribution utility distance (and its closed-form upper
bound), expected-degree preservation, and the analytics a data consumer
would run on the released graph: modularity, pagerank, clustering
coefficient, assortativity, spectral quantities.
"""

import numpy as np

from linkmirage import (PerturbParams, TemporalGraphSequence, cluster_static,
                        expected_degree_report, linkmirage_run, modularity, pagerank,
                        planted_partition_graph, ratio_cut, spectral_metrics,
                        structural_metrics, ud_upper_bound, utility_distance)
from linkmirage.utility import community_tv


def largest_component(graph):
    # one breadth-first search per component, as utility.is_bipartite runs them
    best = np.zeros(graph.num_vertices, dtype=bool)
    unreached = ~best
    while unreached.any():
        reached = graph.hops([np.argmax(unreached)]) >= 0
        unreached &= ~reached
        if reached.sum() > best.sum():
            best = reached
    return graph.subgraph(graph.vertices[best])


def main():
    rng = np.random.default_rng(21)
    g, _ = planted_partition_graph([50, 50, 50, 50], 0.12, 0.01, rng)
    seq = TemporalGraphSequence([g])

    print(f"fixture: {g.num_vertices} vertices, {g.num_edges} edges")
    print("\nutility distance vs perturbation strength (walk length k) and "
          "application parameter l:")
    for k in (2, 5, 10):
        params = PerturbParams(k=k, seed=5)
        perturbed, records = linkmirage_run(seq, params)
        uds = {l: utility_distance(seq, perturbed, l).aggregate for l in (1, 2, 5)}
        print(f"  k={k:2d}: " + "  ".join(f"UD(l={l})={v:.3f}" for l, v in uds.items()))

    params = PerturbParams(k=2, seed=5)
    perturbed, records = linkmirage_run(seq, params)
    clustering = records[0].clustering
    eps = community_tv(g, perturbed[0], clustering)
    delta = ratio_cut(g, clustering)
    l = 2
    measured = utility_distance(seq, perturbed, l).aggregate
    bound = ud_upper_bound(eps, [delta], l)
    print(f"\nstructural bound at k=2, l={l}: measured UD {measured:.3f} <= "
          f"2l(eps+delta) = {bound:.3f} (eps={eps:.3f}, ratio cut delta={delta:.3f})")

    report = expected_degree_report(g, params, trials=2000,
                                    rng=np.random.default_rng(9))
    print(f"\ndegree preservation over {report.trials} draws: "
          f"max |mean - original| = "
          f"{np.abs(report.mean - report.original).max():.3f}, "
          f"{(np.abs(report.z_score) <= 3).mean():.1%} of vertices within 3 sigma")

    gp = perturbed[0]
    print("\nanalytics on original vs released graph (k=2):")
    q0 = modularity(g, cluster_static(g))
    q1 = modularity(gp, cluster_static(gp))
    print(f"  modularity:             {q0:.3f} -> {q1:.3f}")
    pr_delta = np.abs(pagerank(g) - pagerank(gp)).mean()
    print(f"  mean pagerank delta:    {pr_delta:.5f}")
    for graph, tag in ((g, "original"), (gp, "released")):
        sm = structural_metrics(graph)
        print(f"  {tag:9s} clustering coefficient {sm['clustering_coefficient']:.3f}, "
              f"assortativity {sm['assortativity']:+.3f}")
    for graph, tag in ((g, "original"), (gp, "released")):
        spectral = spectral_metrics(largest_component(graph), epsilon=0.05, lazy=True)
        print(f"  {tag:9s} SLEM {spectral['slem']:.3f}, lazy mixing time "
              f"{spectral['mixing_time']} (largest component)")


if __name__ == "__main__":
    main()
