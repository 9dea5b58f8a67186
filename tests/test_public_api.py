import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

import linkmirage
import linkmirage.cli
from linkmirage import (Clustering, Graph, LinkQuery, PerturbationRecord,
                        PerturbParams, PriorModel, SybilScenario, TemporalGraphSequence, UtilityReport,
                        estimation_error_bound_check,
                        evolving_sequence, indistinguishability_series,
                        pagerank, posterior_probability, ring_of_blocks,
                        spectral_metrics)
from linkmirage.clustering import CommunityDiff
from linkmirage.markov import TransitionMatrix
from linkmirage.perturb import (_DrawLayout, _PairTask, _StepPlan, _draws, _entries,
                                _grid_rows, _layout, _sample_blocks, _sample_step, _walk_rows,
                                hay_baseline_sequence, linkmirage_run)
from linkmirage.privacy import (PosteriorEstimate, _SequenceSampler, _edge_feature,
                                _world_counts, fit_logistic_1d, observed_features)
from linkmirage.synth import _sample_pairs
from linkmirage.utility import mixing_time, slem

ROOT = pathlib.Path(__file__).resolve().parents[1]

# exported names that no library module or demo uses, each with its reason
UNUSED_EXPORTS = {
    "freed_vertices": "perfbench/selftest.py calls it, until ROADMAP item 1",
    "k_hop_graph": "perfbench traces it, until ROADMAP item 1",
    "estimation_error_bound_check": "criterion 4 checks the paper's bound through it",
    "ring_of_blocks": "perfbench builds its workloads with it (ROADMAP aim 1)",
}


def names_used(path):
    """Identifiers that the module at ``path`` reads, imports or looks up as
    attributes; a definition's own name is not among them."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_exported_name_resolves_once():
    assert len(linkmirage.__all__) == len(set(linkmirage.__all__))
    for name in linkmirage.__all__:
        assert getattr(linkmirage, name) is not None, name


def test_every_export_has_a_caller_outside_the_tests():
    modules = [p for p in (ROOT / "src" / "linkmirage").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(names_used, modules + sorted((ROOT / "demos").glob("*.py"))))
    # an exemption whose name gains a caller, or leaves __all__, is stale
    assert set(linkmirage.__all__) - used == set(UNUSED_EXPORTS)


def test_benchmark_reaches_the_library_through_live_names():
    # perfbench's tracer wraps library names by path and skips one that no
    # longer resolves, so a rename would blind its span without failing a run;
    # graphs.edge_set has had no site since Graph.edge_set went
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    blind = {name for name, paths in tracer.SITES.items()
             if all(tracer._resolve(path) is None for path in paths)}
    assert blind <= {"graphs.edge_set"}
    # every lm.<name> (lm is the imported linkmirage) that the workloads read
    read = set().union(*(re.findall(r"\blm\.([A-Za-z_][\w.]*)", path.read_text())
                         for path in (ROOT / "perfbench").glob("*.py")))
    assert "linkmirage_run" in read
    gone = [name for name in sorted(read)
            if functools.reduce(lambda owner, attr: getattr(owner, attr, None),
                                name.split("."), linkmirage) is None]
    assert not gone


@pytest.mark.parametrize("module, name", [
    ("linkmirage.privacy", "common_neighbors"),
    ("linkmirage.cli", "_community_tv"),
    ("linkmirage.clustering", "_GreedyMerger"),
    ("linkmirage.privacy", "_bayes"),
    ("linkmirage.privacy", "_likelihood"),
    ("linkmirage.perturb", "linkmirage_step"),
    ("linkmirage.perturb", "perturb_intercluster"),
    ("linkmirage.perturb", "_pair_tasks"),
    ("linkmirage.perturb", "INTER_FORMS"),
    ("linkmirage.reporting", "canonical_json"),
    ("linkmirage.reporting", "fmt_float"),
    ("linkmirage.reporting", "csv_cell"),
    ("linkmirage.markov", "random_walk"),
    ("linkmirage.markov", "ROW_SUM_TOL"),
    ("linkmirage.appeval", "sampling_probability"),
    ("linkmirage.perturb", "linkmirage_sequence"),
    ("linkmirage.utility", "_symmetrized_walk"),
    ("linkmirage.perturb", "_reads"),
    ("linkmirage.perturb", "_block_sizes"),
    ("linkmirage.perturb", "_canonical_pairs"),
    ("linkmirage.perturb", "_step_rows"),
    ("linkmirage.perturb", "_perturb_rows"),
    ("linkmirage.perturb", "_walks"),
    ("linkmirage.perturb", "draw_walker_edges"),
    ("linkmirage.utility", "_walker_rows"),
])
def test_removed_functions_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert name not in linkmirage.__all__


def test_graph_and_transition_matrix_hold_no_test_only_members():
    assert not hasattr(Graph, "has_edge") and not hasattr(Graph, "degree")
    for name in ("row", "check_stochastic", "dimension"):
        assert not hasattr(TransitionMatrix, name), name
    assert [f.name for f in dataclasses.fields(TransitionMatrix)] == ["ids", "matrix"]


def test_graph_has_no_tuple_edge_set():
    assert not hasattr(Graph, "edge_set")


def test_graph_and_clustering_hold_each_fact_once():
    # a graph stores its edges as positions only, and a partition keeps no
    # member sets once they are read
    assert "_edges" not in Graph.__slots__
    assert not isinstance(inspect.getattr_static(Clustering, "communities"),
                          functools.cached_property)


def test_utility_report_holds_only_what_is_set():
    assert [f.name for f in dataclasses.fields(UtilityReport)] == \
        ["l", "per_timestamp", "aggregate"]


def test_community_diff_holds_only_what_is_read():
    assert [f.name for f in dataclasses.fields(CommunityDiff)] == ["unchanged", "changed"]


def test_clustering_is_one_label_array():
    assert [f.name for f in dataclasses.fields(Clustering)] == ["vertices", "labels"]
    clustering = Clustering.from_groups([[0, 1], [2]])
    assert not hasattr(clustering, "assignment") and not hasattr(clustering, "covers")


def test_perturb_params_hold_one_rewiring_rule():
    # the inter-community rule has one form, so no field selects it
    assert [f.name for f in dataclasses.fields(PerturbParams)] == ["k", "m", "theta", "seed"]


def test_record_holds_only_its_partition():
    assert [f.name for f in dataclasses.fields(PerturbationRecord)] == ["timestamp", "clustering"]


def test_step_plan_has_one_membership_map():
    names = [f.name for f in dataclasses.fields(_StepPlan)]
    assert "left" in names and "present" not in names


def test_a_step_draw_has_one_kernel():
    # the plan holds one graph the step walks, not a subgraph per community;
    # a draw's entries come from its layout, never from a swapped-in draw
    names = [f.name for f in dataclasses.fields(_StepPlan)]
    assert "graph" in names and "subgraphs" not in names
    assert not hasattr(_StepPlan, "drawn") and not hasattr(_PairTask, "sample")
    for func in (_sample_step, _draws):
        assert "draw" not in inspect.signature(func).parameters
    # the kernel reads a layout and the walk length k, never a plan beside
    # the layout built from it, nor the whole PerturbParams
    assert {"graph", "left"} <= {f.name for f in dataclasses.fields(_DrawLayout)}
    for func in (_sample_step, _draws, _sample_blocks):
        params = inspect.signature(func).parameters
        assert not {"plan", "plans", "params"} & params.keys(), func.__name__
        assert "k" in params, func.__name__
    assert "graph" not in inspect.signature(_walk_rows).parameters
    assert "itertools" not in names_used(ROOT / "src" / "linkmirage" / "perturb.py")
    # a grid pass keeps its hits in the order it finds them, and its layout
    # holds one cell count per grid, not one grid index per cell
    layout_fields = {f.name for f in dataclasses.fields(_DrawLayout)}
    assert "sizes" in layout_fields and "grid" not in layout_fields
    calls = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
             for node in ast.walk(ast.parse(inspect.getsource(_grid_rows)))
             if isinstance(node, ast.Call)}
    assert not calls & {"sort", "argsort", "lexsort", "unique", "_sorted_unique", "_unique_rows"}


def test_keyed_monte_carlo_has_one_block_loop():
    # the posterior and the degree check draw their keyed samples through
    # perturb._sample_blocks, the one library function that sizes blocks
    sizing = {"_blocks", "_entries"}
    library = ROOT / "src" / "linkmirage"
    for name in ("privacy.py", "utility.py"):
        assert not names_used(library / name) & {*sizing, "_draws", "_sample_step"}, name
    for path in library.glob("*.py"):
        if path.name != "perturb.py":
            assert not names_used(path) & sizing, path.name
    tree = ast.parse((library / "perturb.py").read_text())
    callers = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and sizing & {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}}
    assert callers == {"_sample_blocks"}
    # a block is sized from layouts alone
    assert "plans" not in inspect.signature(_entries).parameters


def test_both_estimators_share_one_posterior_set_up():
    # one function checks the horizon, computes the prior and builds the two
    # hypothesis worlds; the series reads the caller's query, never a copy
    tree = ast.parse((ROOT / "src" / "linkmirage" / "privacy.py").read_text())
    defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    for name in ("_hypothesis_world", "prior_probability"):
        callers = [node.name for node in defs
                   if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))]
        assert len(callers) == 1, (name, callers)
    series = ast.parse(inspect.getsource(indistinguishability_series))
    assert not any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "LinkQuery"
                   for n in ast.walk(series))


def test_step_plan_has_one_dependence_rule():
    # what a query reads at a step is its layout for the queried ids: the
    # plan restates no rule, no backward closure builds more, and a step is
    # fresh when that layout copies nothing, whatever the mechanism
    assert not hasattr(_StepPlan, "carries") and not hasattr(_StepPlan, "redraws")
    assert not hasattr(linkmirage.perturb, "_balls")
    assert list(inspect.signature(_layout).parameters) == ["plan", "ids", "k", "raw"]
    counts = ast.parse(inspect.getsource(_world_counts))
    assert not any(isinstance(n, ast.Attribute) and n.attr == "plans" for n in ast.walk(counts))


def test_unread_members_and_defaults_are_gone():
    assert not hasattr(_StepPlan, "changed_labels")     # plan.diff.changed is that list
    assert not hasattr(SybilScenario, "sybil_ids")
    # the one constructor sets the flag, and the CLI key hay-r holds r's default
    degenerate, = (f for f in dataclasses.fields(PosteriorEstimate) if f.name == "degenerate")
    assert degenerate.default is dataclasses.MISSING
    r_fraction = inspect.signature(hay_baseline_sequence).parameters["r_fraction"]
    assert r_fraction.default is inspect.Parameter.empty


def test_prior_model_holds_only_what_varies():
    assert [f.name for f in dataclasses.fields(PriorModel)] == ["seed"]


def test_link_query_holds_only_what_is_set():
    assert [f.name for f in dataclasses.fields(LinkQuery)] == ["t", "u", "v"]


@pytest.mark.parametrize("func, removed", [
    (fit_logistic_1d, "max_iter"),
    (pagerank, "tol"), (pagerank, "max_iter"),
    (slem, "tol"), (slem, "max_iter"),
    (mixing_time, "max_steps"), (spectral_metrics, "max_steps"),
    (estimation_error_bound_check, "consistency_tol"),
    (_edge_feature, "degree_bin"), (observed_features, "degree_bin"),
    (_SequenceSampler.sample_features, "degree_bin"),
    (posterior_probability, "degree_bin"), (indistinguishability_series, "degree_bin"),
    (ring_of_blocks, "ring_width"),
    (_sample_pairs, "same_set"), (_sample_pairs, "forbidden"),
    (_sample_step, "threads"), (_draws, "threads"),
    (linkmirage_run, "threads"),
])
def test_single_valued_options_are_constants(func, removed):
    assert removed not in inspect.signature(func).parameters


def test_sequence_holds_only_its_snapshots():
    assert [f.name for f in dataclasses.fields(TemporalGraphSequence)] == ["snapshots"]


def test_evolving_sequence_keeps_no_block_map():
    assert "block_of" not in evolving_sequence.__code__.co_varnames


def test_graph_has_no_neighbor_positions():
    assert not hasattr(Graph, "neighbor_positions")

