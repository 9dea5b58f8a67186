"""Walk through the obfuscation pipeline on a synthetic temporal graph.

Builds an evolving three-community graph, runs the selective dynamic
mechanism next to the whole-graph static baseline, and prints what the
dynamic pipeline reuses from one snapshot to the next.
"""

import numpy as np

from linkmirage import (PerturbParams, classify_communities, evolving_sequence,
                        group_edges, linkmirage_run, perturb_static_baseline_sequence)


def main():
    rng = np.random.default_rng(7)
    seq = evolving_sequence(sizes=[60, 60, 60], p_in=0.12, p_out=0.004,
                            length=5, overlap=0.8, rng=rng,
                            churn_blocks=[0], new_vertices_per_step=15)
    print("snapshots:")
    for t, g in enumerate(seq.snapshots):
        print(f"  t={t}: {g.num_vertices} vertices, {g.num_edges} edges")

    params = PerturbParams(k=2, m=2, theta=0.8, seed=42)
    perturbed, records = linkmirage_run(seq, params)
    baseline = perturb_static_baseline_sequence(seq, k=2, seed=42)
    # each release's intra edges by community label; a label without one is absent
    intra = [group_edges(g, r.clustering)[0] for g, r in zip(perturbed, records)]

    print("\nselective perturbation:")
    for t, record in enumerate(records):
        n_comm = len(record.clustering)
        if t == 0:
            print(f"  t=0: clustered into {n_comm} communities, all perturbed fresh")
            continue
        diff = classify_communities(records[t - 1].clustering,
                                    record.clustering, params.theta)
        copied = sum(len(intra[t].get(c, ())) for _, c in diff.unchanged)
        dropped = sum(len(intra[t - 1].get(p, ())) for p, _ in diff.unchanged) - copied
        total_edges = sum(len(e) for e in intra[t].values())
        print(f"  t={t}: {n_comm} communities, {len(diff.unchanged)} unchanged, "
              f"{len(diff.changed)} re-perturbed; "
              f"{copied}/{total_edges} intra edges copied from t={t - 1}, "
              f"{dropped} dropped with members that left")

    print("\nedge churn between consecutive perturbed outputs:")
    for label, graphs in (("dynamic", perturbed), ("static baseline", baseline)):
        overlaps = []
        for a, b in zip(graphs, graphs[1:]):
            a_edges = set(map(tuple, a.edges.tolist()))
            inter = len(a_edges & set(map(tuple, b.edges.tolist())))
            overlaps.append(inter / max(len(a_edges), 1))
        print(f"  {label}: consecutive overlap "
              + ", ".join(f"{o:.2f}" for o in overlaps))
    print("\nhigh overlap for the dynamic mechanism is the point: correlated "
          "releases leak less across time.")


if __name__ == "__main__":
    main()
