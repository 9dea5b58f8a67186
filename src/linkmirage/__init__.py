"""Link obfuscation for temporal social graphs, with privacy and utility metrics."""

from .graphs import (Graph, GraphFormatError, TemporalGraphSequence,
                     load_edge_list, load_sequence, union_graph, write_edge_list)
from .markov import (TransitionMatrix, matrix_power, transition_matrix,
                     tv_distance, tv_distance_common, walk_terminals)
from .clustering import (Clustering, CommunityDiff, changed_link_set,
                         classify_communities, cluster_static, freed_vertices,
                         modularity, recluster_dynamic)
from .perturb import (PerturbParams, PerturbationRecord, group_edges, hay_baseline,
                      hay_baseline_sequence, linkmirage_run, perturb_static,
                      perturb_static_baseline_sequence)
from .privacy import (BoundCheck, LinkQuery, PosteriorEstimate, PriorModel,
                      anti_aggregation, anti_aggregation_aggregated,
                      estimation_error_bound_check, indistinguishability,
                      indistinguishability_series, posterior_probability,
                      prior_probability)
from .utility import (DegreeReport, UtilityReport, expected_degree_report,
                      pagerank, ratio_cut, spectral_metrics, structural_metrics,
                      ud_upper_bound, utility_distance)
from .appeval import (SamplingReport, SybilScenario,
                      attack_probability, k_hop_graph, sampling_report,
                      sybil_eval)
from .synth import (er_graph, evolving_sequence, planted_partition_graph,
                    ring_of_blocks)

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphFormatError", "TemporalGraphSequence", "load_edge_list",
    "load_sequence", "union_graph", "write_edge_list",
    "TransitionMatrix", "matrix_power", "transition_matrix", "tv_distance",
    "tv_distance_common", "walk_terminals",
    "Clustering", "CommunityDiff", "changed_link_set", "classify_communities",
    "cluster_static", "freed_vertices", "modularity", "recluster_dynamic",
    "PerturbParams", "PerturbationRecord", "group_edges", "hay_baseline",
    "hay_baseline_sequence", "linkmirage_run", "perturb_static",
    "perturb_static_baseline_sequence",
    "BoundCheck", "LinkQuery", "PosteriorEstimate", "PriorModel",
    "anti_aggregation", "anti_aggregation_aggregated",
    "estimation_error_bound_check", "indistinguishability",
    "indistinguishability_series", "posterior_probability", "prior_probability",
    "DegreeReport", "UtilityReport", "expected_degree_report", "pagerank",
    "ratio_cut", "spectral_metrics", "structural_metrics", "ud_upper_bound",
    "utility_distance",
    "SamplingReport", "SybilScenario", "attack_probability",
    "k_hop_graph", "sampling_report", "sybil_eval",
    "er_graph", "evolving_sequence", "planted_partition_graph", "ring_of_blocks",
    "__version__",
]
