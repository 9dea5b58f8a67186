"""Command-line pipeline: perturb -> metrics -> eval -> report.

Every stage writes machine-readable outputs stamped with a provenance hash
of the perturbation-relevant configuration, so downstream stages can refuse
stale artifacts. Outputs are byte-identical across reruns and thread counts
for a fixed (config, seed).

Exit codes: 0 ok, 2 invalid config, 3 I/O failure, 4 missing or stale
dependency artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .appeval import SybilScenario, attack_probability, sampling_report, sybil_eval
from .clustering import cluster_static, modularity
from .graphs import (GraphFormatError, TemporalGraphSequence, load_edge_list,
                     load_sequence, write_edge_list)
from .perturb import (INTER_FORMS, PerturbationRecord, PerturbParams, hay_baseline,
                      hay_baseline_sequence, linkmirage_run,
                      perturb_static_baseline_sequence)
from .privacy import (LinkQuery, PriorModel, anti_aggregation,
                      anti_aggregation_aggregated, indistinguishability,
                      posterior_probability)
from .reporting import canonical_json, sha256_text, write_csv, write_json
from .utility import (community_tv, pagerank, ratio_cut, spectral_metrics,
                      structural_metrics, ud_upper_bound, utility_distance)

MECHANISMS = ("linkmirage", "static-baseline", "hay-baseline")
METRICS = ("anti-inference", "indistinguishability", "anti-aggregation",
           "ud", "modularity", "pagerank", "structural", "spectral")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MISSING = 4


class ConfigError(ValueError):
    pass


class MissingArtifactError(RuntimeError):
    pass


def read_config_file(path) -> dict:
    """Plain 'key = value' lines, '#' comments; keys mirror the CLI flags."""
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = body.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _merged(args: argparse.Namespace, keys, required=()) -> dict:
    """Resolved settings: config file first, explicit flags override; every
    key in ``required`` must be set by one of them."""
    settings = {}
    if getattr(args, "config", None):
        file_conf = read_config_file(args.config)
        unknown = set(file_conf) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_conf)
    for key in keys:
        attr = key.replace("-", "_")
        val = getattr(args, attr, None)
        if val is not None:
            settings[key] = val
    for key in required:
        if key not in settings:
            raise ConfigError(f"{args.command} needs --{key}")
    return settings


# settings every stage reads to find a release; all but "out" determine it
_RELEASE_KEYS = ("manifest", "out", "mechanism", "k", "m", "theta", "seed",
                 "inter-cluster-form", "hay-r")


def _perturb_config(settings) -> dict:
    """The subset of settings that determines perturbation outputs."""
    return {k: str(settings[k]) for k in _RELEASE_KEYS if k != "out" and k in settings}


def provenance_hash(settings) -> str:
    return sha256_text(canonical_json(_perturb_config(settings)))


def _params_from(settings) -> PerturbParams:
    """The settings' pipeline knobs; unset ones keep ``PerturbParams``' defaults."""
    parsers = {"k": int, "m": int, "theta": float, "seed": int, "inter-cluster-form": str}
    try:
        return PerturbParams(**{key.replace("-", "_"): parse(settings[key])
                                for key, parse in parsers.items() if key in settings})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _release(seq, mechanism, params, settings) -> tuple[list, list | None]:
    """(released graphs, records) of ``seq`` under ``mechanism``; only a
    linkmirage release has records."""
    if mechanism == "linkmirage":
        return linkmirage_run(seq, params, threads=int(settings.get("threads", 1)))
    if mechanism == "static-baseline":
        return perturb_static_baseline_sequence(seq, params.k, params.seed), None
    if mechanism == "hay-baseline":
        r_frac = float(settings.get("hay-r", 0.5))
        return hay_baseline_sequence(seq, params.seed, r_fraction=r_frac), None
    raise ConfigError(f"mechanism must be one of {MECHANISMS}")


def cmd_perturb(args) -> int:
    settings = _merged(args, _RELEASE_KEYS + ("threads",), ("manifest", "out"))
    mechanism = str(settings.get("mechanism", "linkmirage"))
    params = _params_from(settings)
    seq = load_sequence(settings["manifest"])
    graphs, records = _release(seq, mechanism, params, settings)

    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    phash = provenance_hash(settings)
    for t, g in enumerate(graphs):
        write_edge_list(g, os.path.join(out_dir, f"g_prime_{t}.txt"),
                        header_lines=[f"provenance: {phash}"])
    if records is not None:
        write_json(os.path.join(out_dir, "record.json"),
                   {"provenance": phash,
                    "records": [r.to_json_obj() for r in records]})
    write_json(os.path.join(out_dir, "provenance.json"),
               {"provenance": phash, "seed": params.seed, "version": __version__,
                "mechanism": mechanism, "config": _perturb_config(settings)})
    return EXIT_OK


def _load_outputs(settings, seq) -> list:
    out_dir = settings["out"]
    prov_path = os.path.join(out_dir, "provenance.json")
    if not os.path.exists(prov_path):
        raise MissingArtifactError(f"no provenance.json in {out_dir}; run perturb first")
    with open(prov_path, "r", encoding="ascii") as fh:
        prov = json.load(fh)
    if prov["provenance"] != provenance_hash(settings):
        raise MissingArtifactError(
            "perturbation outputs were produced under a different configuration")
    graphs = []
    for t, g_t in enumerate(seq.snapshots):
        path = os.path.join(out_dir, f"g_prime_{t}.txt")
        if not os.path.exists(path):
            raise MissingArtifactError(f"missing perturbed snapshot {path}")
        # edge lists cannot carry isolated vertices; restore the snapshot's set
        graphs.append(load_edge_list(path).with_vertices(g_t.vertices))
    return graphs


def _posterior(settings, params, seq, perturbed, n_samples) -> tuple:
    """(t, estimate) of the --query link under the release's mechanism."""
    if "query" not in settings:
        raise ConfigError("anti-inference metrics need --query u,v,t")
    try:
        u, v, t = (int(x) for x in str(settings["query"]).split(","))
    except ValueError:
        raise ConfigError("--query expects 'u,v,t'") from None
    if not 0 <= t < len(seq):
        raise ConfigError(f"--query t={t} is outside 0..{len(seq) - 1}")
    for x in (u, v):
        if not seq[t].has_vertex(x):
            raise ConfigError(f"--query vertex {x} is not in snapshot {t}")
    mechanism = str(settings.get("mechanism", "linkmirage"))
    if mechanism == "hay-baseline":
        r_frac = float(settings.get("hay-r", 0.5))

        def mech(world, rng):
            return [hay_baseline(g, int(round(r_frac * g.num_edges)), rng).edges
                    for g in world.snapshots]
    else:
        mech = "linkmirage" if mechanism == "linkmirage" else "static"
    rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(97,)))
    return t, posterior_probability(LinkQuery(t=t, u=u, v=v), seq, perturbed,
                                    PriorModel(seed=params.seed), params,
                                    n_samples, rng, mechanism=mech)


# Row producers give (t, metric, value, stderr, n_samples) rows. Query ones take
# (t, estimate, n_samples); snapshot ones take (settings, params, seq, perturbed, t).

def _anti_inference_rows(t, est, n):
    gap = abs(est.probability - est.prior)
    return [(t, "prior", est.prior, 0.0, n),
            (t, "posterior", est.probability, est.standard_error, n),
            (t, "anti-inference-gap", gap, est.standard_error, n)]


def _indistinguishability_rows(t, est, n):
    return [(t, "indistinguishability", indistinguishability(est.probability),
             est.standard_error, n)]


def _per_graph(seq, perturbed, t, measure) -> list:
    """Rows of ``measure(g) -> [(name, value)]`` on snapshot t, then its release."""
    return [(t, f"{name}-{tag}", value, 0.0, 0)
            for g, tag in ((seq[t], "original"), (perturbed[t], "perturbed"))
            for name, value in measure(g)]


def _anti_aggregation_rows(settings, params, seq, perturbed, t):
    g, k = seq[t], params.k
    return [(t, f"anti-aggregation-k{k}", anti_aggregation(g, perturbed[t], k), 0.0, 0),
            (t, f"anti-aggregation-aggregated-k{k}",
             anti_aggregation_aggregated(perturbed[:t + 1], g, k), 0.0, 0)]


def _modularity_rows(settings, params, seq, perturbed, t):
    return _per_graph(seq, perturbed, t,
                      lambda g: [("modularity", modularity(g, cluster_static(g)))])


def _pagerank_rows(settings, params, seq, perturbed, t):
    damping = float(settings.get("damping", 0.85))
    delta = np.abs(pagerank(seq[t], damping) - pagerank(perturbed[t], damping))
    return [(t, "pagerank-mean-delta", float(delta.mean()), 0.0, 0)]


def _structural_rows(settings, params, seq, perturbed, t):
    def measure(g):
        sm = structural_metrics(g)
        return [("clustering-coefficient", sm["clustering_coefficient"]),
                ("assortativity", sm["assortativity"])]
    return _per_graph(seq, perturbed, t, measure)


def _spectral_rows(settings, params, seq, perturbed, t):
    eps = float(settings.get("epsilon", 0.05))
    lazy = str(settings.get("lazy", "false")).lower() in ("1", "true", "yes")

    def measure(g):
        try:
            sm = spectral_metrics(g, epsilon=eps, lazy=lazy)
        except ValueError:   # disconnected graphs have no single walk spectrum
            return [("slem", float("nan")), ("mixing-time", float("nan"))]
        tau = float(sm["mixing_time"]) if sm["mixing_converged"] else float("nan")
        return [("slem", sm["slem"]), ("mixing-time", tau)]
    return _per_graph(seq, perturbed, t, measure)


_QUERY_PRODUCERS = (("anti-inference", _anti_inference_rows),
                    ("indistinguishability", _indistinguishability_rows))
_SNAPSHOT_PRODUCERS = (("anti-aggregation", _anti_aggregation_rows),
                       ("modularity", _modularity_rows),
                       ("pagerank", _pagerank_rows),
                       ("structural", _structural_rows),
                       ("spectral", _spectral_rows))


def _ud_rows(settings, seq, perturbed, l_values) -> tuple[list, dict]:
    """ud-l<l> rows, and a utility_l<l>.csv table per l with each t's ratio
    cut and the bound when a linkmirage release left its record.json."""
    record_path = os.path.join(settings["out"], "record.json")
    deltas, eps = None, 0.0
    if settings.get("mechanism", "linkmirage") == "linkmirage" and os.path.exists(record_path):
        with open(record_path, "r", encoding="ascii") as fh:
            clusterings = [PerturbationRecord.from_json_obj(r).clustering
                           for r in json.load(fh)["records"]]
        if clusterings:
            deltas = [ratio_cut(g, c) for g, c in zip(seq.snapshots, clusterings)]
            eps = max(map(community_tv, seq.snapshots, perturbed, clusterings))
    rows, tables = [], {}
    for l in l_values:
        per_t = list(enumerate(utility_distance(seq, perturbed, l).per_timestamp))
        bound = ud_upper_bound(eps, deltas, l) if deltas else float("nan")
        rows += [(t, f"ud-l{l}", ud, 0.0, 0) for t, ud in per_t]
        tables[f"utility_l{l}.csv"] = [(t, ud, deltas[t] if deltas else float("nan"), bound)
                                       for t, ud in per_t]
    return rows, tables


def cmd_metrics(args) -> int:
    settings = _merged(args, _RELEASE_KEYS + ("metric", "samples", "l", "query", "epsilon",
                                              "damping", "lazy", "threads"),
                       ("manifest", "out", "metric"))
    metrics = [m.strip() for m in str(settings["metric"]).split(",") if m.strip()]
    if not metrics:
        raise ConfigError("empty metric selection")
    for m in metrics:
        if m not in METRICS:
            raise ConfigError(f"unknown metric {m!r}; choose from {METRICS}")
    params = _params_from(settings)
    seq = load_sequence(settings["manifest"])
    perturbed = _load_outputs(settings, seq)
    n_samples = int(settings.get("samples", 200))
    l_values = [int(x) for x in str(settings.get("l", "2")).split(",")]

    rows, tables = [], {}
    if any(name in metrics for name, _ in _QUERY_PRODUCERS):
        t, est = _posterior(settings, params, seq, perturbed, n_samples)
        rows += [row for name, produce in _QUERY_PRODUCERS if name in metrics
                 for row in produce(t, est, n_samples)]
    for t in range(len(seq)):
        rows += [row for name, produce in _SNAPSHOT_PRODUCERS if name in metrics
                 for row in produce(settings, params, seq, perturbed, t)]
    if "ud" in metrics:
        ud_rows, tables = _ud_rows(settings, seq, perturbed, l_values)
        rows += ud_rows

    out_dir, phash = settings["out"], provenance_hash(settings)
    mechanism = str(settings.get("mechanism", "linkmirage"))
    header = ("t", "mechanism", "metric", "value", "stderr", "n_samples")
    rows = [(t, mechanism, *rest) for t, *rest in rows]
    for name, table in tables.items():
        write_csv(os.path.join(out_dir, name), ("t", "ud", "delta", "bound"), table,
                  comment_lines=[f"provenance: {phash}"])
    write_csv(os.path.join(out_dir, "metrics.csv"), header, rows,
              comment_lines=[f"provenance: {phash}"])
    write_json(os.path.join(out_dir, "metrics.json"),
               {"provenance": phash, "rows": [dict(zip(header, r)) for r in rows]})
    return EXIT_OK


def _read_scenario(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"scenario file not found: {path}")
    return read_config_file(path)


def cmd_eval(args) -> int:
    settings = _merged(args, _RELEASE_KEYS + ("f", "target", "scenario", "threads"),
                       ("manifest", "out"))
    params = _params_from(settings)
    seq = load_sequence(settings["manifest"])
    perturbed = _load_outputs(settings, seq)
    phash = provenance_hash(settings)
    rows = []

    if "f" in settings:
        f = float(settings["f"])
        targets = [int(x) for x in str(settings.get("target", "")).split(",") if x != ""] \
            or [int(seq[0].vertices[0])]
        for v in targets:
            if not all(g.has_vertex(v) for g in perturbed):
                raise ConfigError(f"--target vertex {v} is not in every snapshot")
        series = np.mean([attack_probability(perturbed, v, f) for v in targets], axis=0)
        for t, val in enumerate(series):
            rows.append((t, "attack-probability", float(val)))

    sr = sampling_report(perturbed, seq, params.k)
    rows.append((len(seq) - 1, f"sampling-probability-k{params.k}", sr.probability))
    rows.append((len(seq) - 1, "sampling-outside-envelope", float(sr.outside_envelope)))

    if "scenario" in settings:
        sc = _read_scenario(settings["scenario"])
        try:
            scenario = SybilScenario(honest_graph=seq[0],
                                     sybil_size=int(sc["regions"]),
                                     attack_edges=int(sc["g"]),
                                     walk_length=int(sc["w"]),
                                     routes_per_node=int(sc["r"]))
            seed = int(sc.get("seeds", params.seed))
        except KeyError as exc:
            raise ConfigError(f"scenario file missing key {exc}") from exc
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
        combined = TemporalGraphSequence([scenario.build_combined(rng)])
        mechanism = str(settings.get("mechanism", "linkmirage"))
        (g_prime,), _ = _release(combined, mechanism, params, settings)
        result = sybil_eval(scenario, g_prime, rng)
        rows.append((0, "sybil-false-positive-rate", result["false_positive_rate"]))
        rows.append((0, "sybil-attack-edges-after",
                     float(result["attack_edges_after"])))

    write_csv(os.path.join(settings["out"], "eval.csv"),
              ("t", "metric", "value"), rows,
              comment_lines=[f"provenance: {phash}"])
    return EXIT_OK


def cmd_report(args) -> int:
    # accepts the release settings the other stages share; reads only "out"
    settings = _merged(args, _RELEASE_KEYS + ("threads",), ("out",))
    out_dir = settings["out"]
    rows = []
    for name in ("metrics.csv", "eval.csv"):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="ascii") as fh:
            header = None
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                cells = line.rstrip("\n").split(",")
                if header is None:
                    header = cells
                    continue
                entry = dict(zip(header, cells))
                rows.append((entry.get("t", ""), entry.get("mechanism", ""),
                             entry.get("metric", ""), entry.get("value", ""),
                             entry.get("stderr", ""), name))
    if not rows:
        raise MissingArtifactError(f"no metrics.csv or eval.csv under {out_dir}")
    comments = []
    prov_path = os.path.join(out_dir, "provenance.json")
    if os.path.exists(prov_path):
        with open(prov_path, "r", encoding="ascii") as fh:
            comments.append(f"provenance: {json.load(fh)['provenance']}")
    write_csv(os.path.join(out_dir, "report.csv"),
              ("t", "mechanism", "metric", "value", "stderr", "source"), rows,
              comment_lines=comments)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkmirage",
        description="Obfuscate temporal social graphs and measure privacy/utility.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--manifest", help="newline-separated edge-list paths")
        p.add_argument("--out", help="output directory")
        p.add_argument("--mechanism", choices=MECHANISMS)
        p.add_argument("--k", type=int, help="random-walk perturbation length")
        p.add_argument("--m", type=int, help="freeing radius for re-clustering")
        p.add_argument("--theta", type=float, help="unchanged-community overlap threshold")
        p.add_argument("--seed", type=int)
        p.add_argument("--inter-cluster-form", choices=INTER_FORMS)
        p.add_argument("--hay-r", type=float, help="r/m fraction for the hay baseline")
        p.add_argument("--threads", type=int)

    p = sub.add_parser("perturb", help="write perturbed edge lists")
    common(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("metrics", help="compute privacy/utility metrics")
    common(p)
    p.add_argument("--metric", help="comma-separated: " + ",".join(METRICS))
    p.add_argument("--samples", type=int, help="Monte Carlo samples for posteriors")
    p.add_argument("--l", help="comma-separated application parameters for ud")
    p.add_argument("--query", help="link query as u,v,t")
    p.add_argument("--epsilon", type=float, help="mixing-time threshold")
    p.add_argument("--damping", type=float, help="pagerank damping")
    p.add_argument("--lazy", help="true to use the lazy chain (P+I)/2")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("eval", help="application-level evaluators")
    common(p)
    p.add_argument("--f", type=float, help="per-node malicious probability")
    p.add_argument("--target", help="comma-separated target vertices")
    p.add_argument("--scenario", help="sybil scenario config file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="concatenate stage CSVs into report.csv")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (GraphFormatError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FileNotFoundError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
