"""Application-level views of a released graph sequence.

Three consumers: an anonymity system worried about cumulative neighbor
exposure, a de-anonymization adversary modeled as k-hop edge sampling, and
a Sybil-defense protocol run on the released topology.
"""

import numpy as np

from linkmirage import (PerturbParams, SybilScenario, TemporalGraphSequence,
                        attack_probability, er_graph, evolving_sequence,
                        linkmirage_run, perturb_static_baseline_sequence,
                        sampling_report, sybil_eval)
from linkmirage.appeval import count_attack_edges


def main():
    rng = np.random.default_rng(13)
    seq = evolving_sequence(sizes=[70, 70, 70], p_in=0.09, p_out=0.003,
                            length=5, overlap=0.8, rng=rng, churn_blocks=[0])
    params = PerturbParams(k=2, seed=19)
    lm = linkmirage_run(seq, params)[0]
    st = perturb_static_baseline_sequence(seq, k=2, seed=19)

    target = int(seq[0].vertices[5])
    print(f"worst-case compromise probability for vertex {target} (f=0.1):")
    for name, graphs in (("dynamic", lm), ("static", st)):
        series = attack_probability(graphs, target, f=0.1)
        print(f"  {name:8s} " + " ".join(f"{p:.3f}" for p in series))
    print("the static baseline exposes fresh neighbors each release, so its "
          "cumulative exposure climbs faster.")

    print("\nde-anonymization sampling probability (k=2):")
    for name, graphs in (("dynamic", lm), ("static", st)):
        rep = sampling_report(graphs, seq, k=2)
        print(f"  {name:8s} p = {rep.probability:.4f} "
              f"({rep.perturbed_union_edges} released edges of "
              f"{rep.k_hop_union_edges} k-hop candidates, "
              f"{rep.outside_envelope} outside the envelope)")

    print("\nSybil defense on the released topology:")
    honest = er_graph(100, 0.06, np.random.default_rng(2))
    scenario = SybilScenario(honest_graph=honest, sybil_size=25, attack_edges=8,
                             walk_length=12, routes_per_node=70)
    combined = scenario.build_combined(np.random.default_rng(4))
    (released,), _ = linkmirage_run(TemporalGraphSequence([combined]),
                                    PerturbParams(k=2, seed=3))
    for name, graph in (("original", combined), ("released", released)):
        result = sybil_eval(scenario, graph, np.random.default_rng(8))
        print(f"  {name:9s} false positive rate {result['false_positive_rate']:.3f}, "
              f"attack edges {count_attack_edges(graph, scenario.honest_ids)}")
    print("released topologies keep the attack-edge count in the same range, "
          "so the defense's Sybil-admission bound survives obfuscation.")


if __name__ == "__main__":
    main()
