"""Quantify link privacy of the two mechanisms on one synthetic sequence.

Shows the three metrics side by side: the Bayesian posterior against its
prior (anti-inference), the posterior's entropy over time
(indistinguishability), and the distance between the k-hop walk matrix and
the aggregated released graphs (anti-aggregation).
"""

import numpy as np

from linkmirage import (LinkQuery, PerturbParams, PriorModel,
                        anti_aggregation_aggregated, evolving_sequence,
                        indistinguishability_series, linkmirage_run,
                        perturb_static_baseline_sequence, posterior_probability,
                        prior_probability)


def main():
    rng = np.random.default_rng(3)
    seq = evolving_sequence(sizes=[80, 80, 80], p_in=0.08, p_out=0.003,
                            length=5, overlap=0.8, rng=rng,
                            keep_edge=(80, 81), churn_blocks=[0],
                            new_vertices_per_step=20)
    params = PerturbParams(k=2, seed=11)
    lm = linkmirage_run(seq, params)[0]
    st = perturb_static_baseline_sequence(seq, k=2, seed=11)

    query = LinkQuery(t=4, u=80, v=81)
    model = PriorModel(seed=1)
    print(f"query: does the link ({query.u},{query.v}) exist at t={query.t}?")
    print(f"prior from common-neighbor calibration: "
          f"{prior_probability(query, model, seq):.3f}")

    for name, graphs in (("dynamic", lm), ("static", st)):
        mech = "linkmirage" if name == "dynamic" else "static"
        est = posterior_probability(query, seq, graphs, model, params,
                                    n_samples=400,
                                    rng=np.random.default_rng(5), mechanism=mech)
        # degenerate: some step matched no re-perturbation of either world,
        # so that step weighs both worlds alike
        print(f"  {name}: posterior {est.probability:.3f} "
              f"(+- {est.standard_error:.3f}), |posterior-prior| = "
              f"{abs(est.probability - est.prior):.3f}, degenerate: {est.degenerate}")

    print("\nindistinguishability (posterior entropy, bits) per timestamp:")
    series = indistinguishability_series(
        seq, {"linkmirage": lm, "static": st}, query, model, params,
        n_samples=300, rng=np.random.default_rng(17))
    for mech, rows in series.items():
        vals = " ".join(f"{h:.3f}" for _, h, _ in rows)
        print(f"  {mech:12s} {vals}")

    print("\naggregated anti-aggregation privacy (TV distance to P^k) per t:")
    for name, graphs in (("linkmirage", lm), ("static", st)):
        vals = [anti_aggregation_aggregated(graphs[:t + 1], seq[t], params.k)
                for t in range(len(seq))]
        print(f"  {name:12s} " + " ".join(f"{v:.3f}" for v in vals))
    print("\nthe static baseline's union of releases drifts toward the k-hop "
          "graph, eroding privacy; reuse keeps the dynamic mechanism's "
          "distance flat.")


if __name__ == "__main__":
    main()
