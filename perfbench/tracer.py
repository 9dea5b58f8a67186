"""Outside-in span tracer for the linkmirage benchmark.

The tracer replaces module-level names (and class attributes) through which
one linkmirage layer calls another with thin wrappers that record a span:
name, start, end and parent span. Nothing in the library changes; the
wrappers are installed from the benchmark and removed afterwards.

A site that no longer exists (a renamed private helper, say) is reported as
missing instead of failing the run, so the trace survives refactors.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# metric base name -> import paths of the names that lead into that layer.
# A path is "<module>.<attr>[.<attr>]"; every site listed under one name feeds
# the same span name, so calls from different layers are counted together.
SITES = {
    "cli.main": ["linkmirage.cli.main"],
    "graphs.load_sequence": ["linkmirage.cli.load_sequence"],
    "graphs.write_edge_list": ["linkmirage.cli.write_edge_list"],
    "graphs.edge_set": ["linkmirage.graphs.Graph.edge_set"],
    # constructions made from the perturb layer only: patching Graph in its
    # own module would break isinstance checks there
    "graphs.Graph": ["linkmirage.perturb.Graph"],
    "clustering.cluster_static": ["linkmirage.perturb.cluster_static"],
    "clustering.recluster_dynamic": ["linkmirage.perturb.recluster_dynamic"],
    "clustering.modularity": ["linkmirage.clustering.modularity"],
    "clustering.changed_link_set": ["linkmirage.perturb.changed_link_set"],
    "clustering.classify_communities": ["linkmirage.perturb.classify_communities"],
    "perturb.linkmirage_run": ["linkmirage.cli.linkmirage_run",
                               "linkmirage.linkmirage_run"],
    "perturb.build_step_plan": ["linkmirage.perturb.build_step_plan",
                                "linkmirage.privacy.build_step_plan",
                                "linkmirage.utility.build_step_plan"],
    "perturb.perturb_static": ["linkmirage.perturb.perturb_static",
                               "linkmirage.privacy.perturb_static"],
    "markov.walk_terminals": ["linkmirage.perturb.walk_terminals"],
    "markov.transition_matrix": ["linkmirage.privacy.transition_matrix",
                                 "linkmirage.utility.transition_matrix"],
    "markov.matrix_power": ["linkmirage.privacy.matrix_power",
                            "linkmirage.utility.matrix_power"],
    "markov.tv_distance": ["linkmirage.privacy.tv_distance",
                           "linkmirage.utility.tv_distance"],
    "markov.tv_distance_common": ["linkmirage.privacy.tv_distance_common"],
    "privacy.indistinguishability_series": ["linkmirage.indistinguishability_series"],
    "privacy.posterior_probability": ["linkmirage.posterior_probability"],
    "privacy.prior_probability": ["linkmirage.privacy.prior_probability"],
    "privacy.edge_feature": ["linkmirage.privacy._edge_feature"],
    "privacy.sample_features": ["linkmirage.privacy._SequenceSampler.sample_features"],
    "privacy.anti_aggregation_aggregated": ["linkmirage.anti_aggregation_aggregated"],
    "utility.expected_degree_report": ["linkmirage.expected_degree_report"],
    "utility.utility_distance": ["linkmirage.utility_distance"],
    "utility.pagerank": ["linkmirage.pagerank"],
    "utility.structural_metrics": ["linkmirage.structural_metrics"],
    "appeval.sampling_report": ["linkmirage.sampling_report"],
    "appeval.k_hop_graph": ["linkmirage.appeval.k_hop_graph"],
    "appeval.attack_probability": ["linkmirage.attack_probability"],
    "appeval.sybil_eval": ["linkmirage.sybil_eval"],
    "reporting.write_json": ["linkmirage.cli.write_json"],
}

# span name -> (counter name, function of the returned value); counts read
# from what a layer hands back rather than from inside it
RESULT_COUNTERS = {
    "markov.walk_terminals": ("markov.walkers", len),
}


def _resolve(path: str):
    """(owner object, attribute name) of a dotted site path, or None."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Records spans in memory and folds them into per-name totals.

    Spans are kept in flat arrays (name code, start, end, parent index), which
    the garbage collector does not scan, so tracing adds little work to a
    run with tens of thousands of calls. ``fold`` adds the recorded spans'
    self times and call counts to the running totals and clears them.
    """

    def __init__(self, sites=None):
        self.sites = SITES if sites is None else sites
        self.names = list(self.sites)
        self._code = {name: i for i, name in enumerate(self.names)}
        self._span_name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack = []
        self._patched = []          # (owner, attr, original)
        self.missing = []           # site paths that did not resolve
        self.self_s = {}            # name -> summed self time
        self.calls = {}
        self.counters = {}
        self.top_level_s = 0.0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        code = self._code[name]
        span_name, starts, ends, parents = (self._span_name, self._start,
                                            self._end, self._parent)
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            index = len(starts)
            span_name.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] = counters.get(counter[0], 0) + counter[1](result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for name, paths in self.sites.items():
            for path in paths:
                found = _resolve(path)
                if found is None:
                    self.missing.append(path)
                    continue
                owner, attr = found
                original = owner.__dict__.get(attr, getattr(owner, attr))
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def missing_names(self) -> list:
        """Span names none of whose sites resolved."""
        gone = set(self.missing)
        return sorted(name for name, paths in self.sites.items()
                      if all(p in gone for p in paths))

    # -- aggregation -----------------------------------------------------------

    def fold(self, scale: float = 1.0) -> None:
        """Fold recorded spans into totals; self time = duration - children.

        ``scale`` multiplies every duration, to report times at a common
        host speed.
        """
        if self._stack:
            raise RuntimeError("fold() called inside an open span")
        if not self._start:
            return
        starts = np.frombuffer(self._start, dtype=np.float64)
        ends = np.frombuffer(self._end, dtype=np.float64)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        codes = np.frombuffer(self._span_name, dtype=np.int32)
        duration = (ends - starts) * scale
        nested = parents >= 0
        child_s = np.bincount(parents[nested], weights=duration[nested],
                              minlength=duration.size)
        own = duration - child_s
        n = len(self.names)
        selfs = np.bincount(codes, weights=own, minlength=n)
        calls = np.bincount(codes, minlength=n)
        for i, name in enumerate(self.names):
            if calls[i]:
                self.self_s[name] = self.self_s.get(name, 0.0) + float(selfs[i])
                self.calls[name] = self.calls.get(name, 0) + int(calls[i])
        self.top_level_s += float(duration[~nested].sum())
        del starts, ends, parents, codes
        for buf in (self._span_name, self._start, self._end, self._parent):
            del buf[:]
