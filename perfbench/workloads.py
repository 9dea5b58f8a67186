"""The benchmark's three workloads: release, audit and analytics.

Each workload builds its inputs from the seed in ``setup`` (and a tiny copy
in ``warmup``), runs one timed task per ``run`` call through linkmirage's
public entry points, and checks every task's outputs in ``check``. Values
read from the outputs (quality figures and per-step counters) collect in
``values``.

Why these three: the cost sits in a different layer for each use. A temporal
release is dominated by static plus dynamic clustering; a privacy audit by
the Monte Carlo re-perturbation samplers (many small perturb and walk
calls over plans built once); analytics by sparse walk-matrix products,
tuple edge sets and the Sybil route loop, with almost no clustering.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import numpy as np

from counters import posterior_match_fraction, release_counters

# sizes; perfbench/README.md says where and why they differ from the probes
RELEASE = dict(blocks=80, block_size=50, p_in=0.16, inter=20, snapshots=4,
               churn=0.01)
AUDIT = dict(block_size=100, p_in=0.06, p_out=0.002, snapshots=5, overlap=0.8,
             new_vertices=30, samples=100, posterior_t=2, degree_block_size=50,
             trials=1000)
ANALYTICS = dict(blocks=40, block_size=50, p_in=0.16, inter=20, snapshots=3,
                 churn=0.01, targets=40, sybil_blocks=10, sybil_size=100,
                 attack_edges=10, walk_length=10, routes=25)

TINY_RELEASE = dict(blocks=6, block_size=20, p_in=0.3, inter=3, snapshots=2,
                    churn=0.05)
TINY_AUDIT = dict(block_size=10, p_in=0.3, p_out=0.02, snapshots=2, overlap=0.8,
                  new_vertices=3, samples=100, posterior_t=1,
                  degree_block_size=5, trials=1000)
TINY_ANALYTICS = dict(blocks=6, block_size=20, p_in=0.3, inter=3, snapshots=2,
                      churn=0.05, targets=4, sybil_blocks=4, sybil_size=20,
                      attack_edges=3, walk_length=4, routes=2)

K, M, THETA = 2, 2, 0.8
FIXTURE_SEED = 0
ATTACK_F = 0.1


# -- input generation ------------------------------------------------------------


def replace_edges(lm, graph, fraction: float, rng):
    """Drop ``fraction`` of the edges uniformly and add as many new vertex
    pairs drawn uniformly from the whole graph (global churn)."""
    edges = graph.edges
    ids = graph.vertices
    count = int(round(fraction * edges.shape[0]))
    keep = np.ones(edges.shape[0], dtype=bool)
    keep[rng.choice(edges.shape[0], size=count, replace=False)] = False
    existing = set(map(tuple, edges.tolist()))
    added = []
    while len(added) < count:
        u, v = (int(x) for x in ids[rng.integers(0, ids.size, size=2)])
        pair = (min(u, v), max(u, v))
        if u != v and pair not in existing:
            existing.add(pair)
            added.append(pair)
    new_edges = np.vstack([edges[keep], np.asarray(added, dtype=np.int64).reshape(-1, 2)])
    return lm.Graph(new_edges, vertices=ids)


def ring_sequence(lm, rng, blocks, block_size, p_in, inter, snapshots, churn,
                  **_unused):
    """ring_of_blocks snapshot followed by globally churned copies."""
    snaps = [lm.ring_of_blocks(blocks, block_size, p_in, inter, rng)]
    for _ in range(1, snapshots):
        snaps.append(replace_edges(lm, snaps[-1], churn, rng))
    return lm.TemporalGraphSequence(snaps)


def overlap_sequence(lm, rng, block_size, p_in, p_out, snapshots, overlap,
                     new_vertices, **_unused):
    """Three blocks, churn and growth confined to block 0, and a persistent
    query edge (b, b+1) inside block 1 whose endpoints keep no inter-block
    edges (the acceptance suite's overlap fixture at block_size 100)."""
    u, v = block_size, block_size + 1
    seq = lm.evolving_sequence([block_size] * 3, p_in, p_out, snapshots, overlap,
                               rng, keep_edge=(u, v), churn_blocks=[0],
                               new_vertices_per_step=new_vertices)
    snaps = []
    for g in seq.snapshots:
        e = g.edges
        touches = np.isin(e[:, 0], (u, v)) | np.isin(e[:, 1], (u, v))
        other = np.where(np.isin(e[:, 0], (u, v)), e[:, 1], e[:, 0])
        outside = (other < block_size) | (other >= 2 * block_size)
        snaps.append(lm.Graph(e[~(touches & outside)], vertices=g.vertices))
    return lm.TemporalGraphSequence(snaps)


def write_edges(path, edges) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(f"{a} {b}\n" for a, b in edges.tolist()))


def invalid_records(records) -> int:
    count = 0
    for record in records:
        try:
            record.validate()
        except ValueError:
            count += 1
    return count


def release_values(seq, released, records) -> dict:
    """Counters of a linkmirage release held in memory."""
    values = release_counters([(g.vertices, g.edges) for g in seq.snapshots],
                              [(g.vertices, g.edges) for g in released],
                              [r.clustering.communities for r in records], THETA, M)
    bad = invalid_records(records)
    values["perturb.invalid_records"] = bad
    values["invalid_record_frac"] = bad / len(records)
    return values


class Workload:
    name = ""
    task_metric = ""
    sizes = {}
    tiny = {}

    def __init__(self, lm, seed: int, workdir: str):
        self.lm = lm
        self.seed = seed
        self.workdir = workdir
        self.values = {}
        self.first = None       # first task's comparable result

    def setup(self) -> None:
        self.build(self.sizes)

    def warmup(self) -> None:
        """Run the task once on a tiny instance of the same workload; its
        seed is fixed so that warm-up costs the same for every --seed."""
        tiny = type(self)(self.lm, 0, os.path.join(self.workdir, "warmup"))
        tiny.build(self.tiny)
        tiny.prepare()
        tiny.run()

    def build(self, size: dict) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before each task."""

    def run(self):
        raise NotImplementedError

    def check(self, result) -> list:
        """Problems found in one task's outputs; empty when all checks pass."""
        raise NotImplementedError

    def _same_as_first(self, comparable) -> list:
        if self.first is None:
            self.first = comparable
            return []
        return [] if comparable == self.first else ["result differs from the first task"]


class Release(Workload):
    """In-process ``linkmirage perturb`` on a churned ring_of_blocks manifest."""

    name = "release"
    task_metric = "release_s"
    sizes = RELEASE
    tiny = TINY_RELEASE

    def build(self, size):
        rng = np.random.default_rng(self.seed)
        self.seq = ring_sequence(self.lm, rng, **size)
        inputs = os.path.join(self.workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        names = []
        for t, g in enumerate(self.seq.snapshots):
            names.append(f"g_{t}.txt")
            write_edges(os.path.join(inputs, names[-1]), g.edges)
        self.manifest = os.path.join(inputs, "manifest.txt")
        with open(self.manifest, "w", encoding="ascii") as fh:
            fh.write("".join(f"{n}\n" for n in names))
        self.out = os.path.join(self.workdir, "out")

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        return self.lm.cli.main([
            "perturb", "--manifest", self.manifest, "--out", self.out,
            "--mechanism", "linkmirage", "--k", str(K), "--m", str(M),
            "--theta", str(THETA), "--seed", str(self.seed), "--threads", "1"])

    def check(self, code):
        if code != 0:
            return [f"linkmirage perturb exited with {code}"]
        problems = []
        released = []
        for t, g in enumerate(self.seq.snapshots):
            path = os.path.join(self.out, f"g_prime_{t}.txt")
            restored = self.lm.load_edge_list(path).with_vertices(g.vertices)
            if not np.array_equal(restored.vertices, g.vertices):
                problems.append(f"g_prime_{t} has vertices outside snapshot {t}")
            released.append(restored)
        record_path = os.path.join(self.out, "record.json")
        with open(record_path, "r", encoding="ascii") as fh:
            objs = json.load(fh)["records"]
        records = []
        for obj in objs:
            record = self.lm.PerturbationRecord.from_json_obj(obj)
            if record.to_json_obj() != obj:
                problems.append(f"record {obj['timestamp']} does not round-trip")
            records.append(record)
        digest = hashlib.sha256()
        for name in sorted(os.listdir(self.out)):
            digest.update(name.encode())
            with open(os.path.join(self.out, name), "rb") as fh:
                digest.update(fh.read())
        problems += self._same_as_first(digest.hexdigest())
        if not self.values:
            self.values = release_values(self.seq, released, records)
            self.values["reporting.record_json_bytes"] = os.path.getsize(record_path)
        return problems


class Audit(Workload):
    """Three Monte Carlo privacy estimators on the localized-churn fixture."""

    name = "audit"
    task_metric = "audit_s"
    sizes = AUDIT
    tiny = TINY_AUDIT

    def build(self, size):
        # one fixed graph: the audit's cost follows the fixture's community
        # structure (tasks took 4.9 to 6.7 s across fixture seeds), so --seed
        # drives the perturbation and the estimators' random streams instead
        rng = np.random.default_rng(FIXTURE_SEED)
        self.size = size
        self.seq = overlap_sequence(self.lm, rng, **size)
        self.params = self.lm.PerturbParams(k=K, m=M, theta=THETA, seed=self.seed)
        self.released, records = self.lm.linkmirage_run(self.seq, self.params)
        self.static = self.lm.perturb_static_baseline_sequence(self.seq, K, self.seed)
        self.planted, _ = self.lm.planted_partition_graph(
            [size["degree_block_size"]] * 4, 0.12, 0.01, rng)
        self.values = release_values(self.seq, self.released, records)

    def run(self):
        lm, size = self.lm, self.size
        u, v = size["block_size"], size["block_size"] + 1
        model = lm.PriorModel(seed=self.seed)
        series = lm.indistinguishability_series(
            self.seq, {"linkmirage": self.released, "static": self.static},
            lm.LinkQuery(t=len(self.seq) - 1, u=u, v=v), model, self.params,
            n_samples=size["samples"], rng=np.random.default_rng([self.seed, 1]))
        posterior = lm.posterior_probability(
            lm.LinkQuery(t=size["posterior_t"], u=u, v=v), self.seq, self.released,
            model, self.params, size["samples"], np.random.default_rng([self.seed, 2]))
        degrees = lm.expected_degree_report(self.planted, self.params, size["trials"],
                                            np.random.default_rng([self.seed, 3]))
        return series, posterior, degrees

    def check(self, result):
        series, posterior, degrees = result
        problems = []
        for mech, rows in series.items():
            for t, entropy, se in rows:
                if not (0.0 <= entropy <= 1.0 and math.isfinite(se)):
                    problems.append(f"{mech} entropy at t={t} is {entropy} +- {se}")
        if not (0.0 <= posterior.probability <= 1.0
                and math.isfinite(posterior.standard_error)):
            problems.append(f"posterior {posterior.probability} "
                            f"+- {posterior.standard_error}")
        problems += self._same_as_first(
            (series, posterior.probability, degrees.mean.tolist()))
        self.values["entropy_bits"] = series["linkmirage"][-1][1]
        self.values["privacy.match_frac"] = posterior_match_fraction(posterior)
        self.values["privacy.degenerate"] = int(posterior.degenerate)
        return problems


class Analytics(Workload):
    """Utility, privacy-distance and application evaluators on a release."""

    name = "analytics"
    task_metric = "analytics_s"
    sizes = ANALYTICS
    tiny = TINY_ANALYTICS

    def build(self, size):
        lm = self.lm
        rng = np.random.default_rng(self.seed)
        self.seq = ring_sequence(lm, rng, **size)
        self.params = lm.PerturbParams(k=K, m=M, theta=THETA, seed=self.seed)
        self.released, records = lm.linkmirage_run(self.seq, self.params)
        self.values = release_values(self.seq, self.released, records)
        self.targets = rng.choice(self.seq[0].vertices, size=size["targets"],
                                  replace=False).tolist()
        honest = lm.ring_of_blocks(size["sybil_blocks"], size["block_size"],
                                   size["p_in"], size["inter"], rng)
        self.scenario = lm.SybilScenario(
            honest_graph=honest, sybil_size=size["sybil_size"],
            attack_edges=size["attack_edges"], walk_length=size["walk_length"],
            routes_per_node=size["routes"])
        self.combined = self.scenario.build_combined(rng)

    def run(self):
        lm, released = self.lm, self.released
        last = len(self.seq) - 1
        ud = lm.utility_distance(self.seq, released, l=2).aggregate
        anti = lm.anti_aggregation_aggregated(released, self.seq[last], k=K)
        sampling = lm.sampling_report(released, self.seq, k=K)
        attack = [lm.attack_probability(released, v, ATTACK_F).tolist()
                  for v in self.targets]
        structural = lm.structural_metrics(released[last])
        rank = lm.pagerank(released[last])
        sybil_release = lm.linkmirage_run(
            lm.TemporalGraphSequence([self.combined]), self.params)[0][0]
        sybil = lm.sybil_eval(self.scenario, sybil_release,
                              np.random.default_rng([self.seed, 4]))
        return dict(ud=ud, anti=anti, sampling=sampling.probability, attack=attack,
                    structural=structural, rank=rank.tolist(), sybil=sybil)

    def check(self, result):
        problems = []
        if not 0.0 <= result["ud"] <= 1.0:
            problems.append(f"ud_l2 {result['ud']} outside [0, 1]")
        if not 0.0 <= result["anti"] <= 1.0:
            problems.append(f"anti_agg {result['anti']} outside [0, 1]")
        if not result["sampling"] > 0.0:
            problems.append(f"sampling_p {result['sampling']} is not positive")
        problems += self._same_as_first(result)
        self.values["ud_l2"] = result["ud"]
        self.values["anti_agg"] = result["anti"]
        self.values["sampling_p"] = result["sampling"]
        return problems


WORKLOADS = {w.name: w for w in (Release, Audit, Analytics)}
