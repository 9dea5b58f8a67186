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
from .clustering import Clustering, cluster_static, modularity
from .graphs import GraphFormatError, load_edge_list, load_sequence, write_edge_list
from .perturb import (INTER_FORMS, PerturbParams, hay_baseline,
                      hay_baseline_sequence, linkmirage_run, linkmirage_step,
                      perturb_static_baseline_sequence)
from .privacy import (LinkQuery, PriorModel, anti_aggregation,
                      anti_aggregation_aggregated, indistinguishability,
                      posterior_probability)
from .markov import transition_matrix, tv_distance
from .reporting import canonical_json, sha256_text, write_csv, write_json
from .utility import (pagerank, ratio_cut, spectral_metrics, structural_metrics,
                      ud_upper_bound, utility_distance)

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


def _merged(args: argparse.Namespace, keys) -> dict:
    """Resolved settings: config file first, explicit flags override."""
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
    return settings


def _perturb_config(settings) -> dict:
    """The subset of settings that determines perturbation outputs."""
    keys = ("manifest", "mechanism", "k", "m", "theta", "seed",
            "inter-cluster-form", "hay-r")
    return {k: str(settings[k]) for k in keys if k in settings}


def provenance_hash(settings) -> str:
    return sha256_text(canonical_json(_perturb_config(settings)))


def _params_from(settings) -> PerturbParams:
    try:
        return PerturbParams(
            k=int(settings.get("k", 2)),
            m=int(settings.get("m", 2)),
            theta=float(settings.get("theta", 0.8)),
            seed=int(settings.get("seed", 0)),
            inter_cluster_form=str(settings.get("inter-cluster-form", "appendixC")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_perturb(args) -> int:
    keys = ("manifest", "out", "mechanism", "k", "m", "theta", "seed",
            "inter-cluster-form", "hay-r", "threads")
    settings = _merged(args, keys)
    for required in ("manifest", "out"):
        if required not in settings:
            raise ConfigError(f"perturb needs --{required}")
    mechanism = str(settings.get("mechanism", "linkmirage"))
    if mechanism not in MECHANISMS:
        raise ConfigError(f"mechanism must be one of {MECHANISMS}")
    params = _params_from(settings)
    threads = int(settings.get("threads", 1))

    seq = load_sequence(settings["manifest"])
    records = None
    if mechanism == "linkmirage":
        graphs, records = linkmirage_run(seq, params, threads=threads)
    elif mechanism == "static-baseline":
        graphs = perturb_static_baseline_sequence(seq, params.k, params.seed)
    else:
        r_frac = float(settings.get("hay-r", 0.5))
        graphs = hay_baseline_sequence(seq, params.seed, r_fraction=r_frac)

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


def _parse_query(text) -> tuple[int, int, int]:
    try:
        u, v, t = (int(x) for x in str(text).split(","))
        return u, v, t
    except ValueError:
        raise ConfigError("--query expects 'u,v,t'") from None


def _community_tv(g, gp, clustering) -> float:
    """Worst per-community TV between original and released subgraph walks."""
    worst = 0.0
    for members in clustering.communities.values():
        sub = g.subgraph(members)
        sub_p = gp.subgraph(members)
        worst = max(worst, tv_distance(transition_matrix(sub),
                                       transition_matrix(sub_p)))
    return worst


def cmd_metrics(args) -> int:
    keys = ("manifest", "out", "mechanism", "k", "m", "theta", "seed",
            "inter-cluster-form", "hay-r", "metric", "samples", "l", "query",
            "epsilon", "damping", "lazy", "threads")
    settings = _merged(args, keys)
    for required in ("manifest", "out", "metric"):
        if required not in settings:
            raise ConfigError(f"metrics needs --{required}")
    metrics = [m.strip() for m in str(settings["metric"]).split(",") if m.strip()]
    if not metrics:
        raise ConfigError("empty metric selection")
    for m in metrics:
        if m not in METRICS:
            raise ConfigError(f"unknown metric {m!r}; choose from {METRICS}")
    params = _params_from(settings)
    mechanism = str(settings.get("mechanism", "linkmirage"))

    seq = load_sequence(settings["manifest"])
    perturbed = _load_outputs(settings, seq)
    phash = provenance_hash(settings)
    n_samples = int(settings.get("samples", 200))
    l_values = [int(x) for x in str(settings.get("l", "2")).split(",")]
    rows = []

    if "anti-inference" in metrics or "indistinguishability" in metrics:
        if "query" not in settings:
            raise ConfigError("anti-inference metrics need --query u,v,t")
        u, v, t = _parse_query(settings["query"])
        if not 0 <= t < len(seq):
            raise ConfigError(f"--query t={t} is outside 0..{len(seq) - 1}")
        for x in (u, v):
            if not seq[t].has_vertex(x):
                raise ConfigError(f"--query vertex {x} is not in snapshot {t}")
        query = LinkQuery(t=t, u=u, v=v)
        model = PriorModel(seed=params.seed)
        if mechanism == "hay-baseline":
            r_frac = float(settings.get("hay-r", 0.5))

            def mech(world, rng):
                return [hay_baseline(g, int(round(r_frac * g.num_edges)), rng).edges
                        for g in world.snapshots]
        else:
            mech = "linkmirage" if mechanism == "linkmirage" else "static"
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(97,)))
        est = posterior_probability(query, seq, perturbed, model, params,
                                    n_samples, rng, mechanism=mech)
        if "anti-inference" in metrics:
            rows.append((t, mechanism, "prior", est.prior, 0.0, n_samples))
            rows.append((t, mechanism, "posterior", est.probability,
                         est.standard_error, n_samples))
            rows.append((t, mechanism, "anti-inference-gap",
                         abs(est.probability - est.prior), est.standard_error,
                         n_samples))
        if "indistinguishability" in metrics:
            rows.append((t, mechanism, "indistinguishability",
                         indistinguishability(est.probability),
                         est.standard_error, n_samples))

    for t, (g, gp) in enumerate(zip(seq.snapshots, perturbed)):
        if "anti-aggregation" in metrics:
            rows.append((t, mechanism, f"anti-aggregation-k{params.k}",
                         anti_aggregation(g, gp, params.k), 0.0, 0))
            rows.append((t, mechanism, f"anti-aggregation-aggregated-k{params.k}",
                         anti_aggregation_aggregated(perturbed[:t + 1], g, params.k),
                         0.0, 0))
        if "modularity" in metrics:
            rows.append((t, mechanism, "modularity-original",
                         modularity(g, cluster_static(g)), 0.0, 0))
            rows.append((t, mechanism, "modularity-perturbed",
                         modularity(gp, cluster_static(gp)), 0.0, 0))
        if "pagerank" in metrics:
            damping = float(settings.get("damping", 0.85))
            delta = float(np.abs(pagerank(g, damping) - pagerank(gp, damping)).mean())
            rows.append((t, mechanism, "pagerank-mean-delta", delta, 0.0, 0))
        if "structural" in metrics:
            for graph, tag in ((g, "original"), (gp, "perturbed")):
                sm = structural_metrics(graph)
                rows.append((t, mechanism, f"clustering-coefficient-{tag}",
                             sm["clustering_coefficient"], 0.0, 0))
                rows.append((t, mechanism, f"assortativity-{tag}",
                             sm["assortativity"], 0.0, 0))
        if "spectral" in metrics:
            eps = float(settings.get("epsilon", 0.05))
            lazy = str(settings.get("lazy", "false")).lower() in ("1", "true", "yes")
            for graph, tag in ((g, "original"), (gp, "perturbed")):
                try:
                    sm = spectral_metrics(graph, epsilon=eps, lazy=lazy)
                except ValueError:
                    # disconnected graphs have no single walk spectrum
                    rows.append((t, mechanism, f"slem-{tag}", float("nan"), 0.0, 0))
                    rows.append((t, mechanism, f"mixing-time-{tag}",
                                 float("nan"), 0.0, 0))
                    continue
                rows.append((t, mechanism, f"slem-{tag}", sm["slem"], 0.0, 0))
                rows.append((t, mechanism, f"mixing-time-{tag}",
                             float(sm["mixing_time"]) if sm["mixing_converged"]
                             else float("nan"), 0.0, 0))

    if "ud" in metrics:
        record_path = os.path.join(settings["out"], "record.json")
        clusterings = None
        if mechanism == "linkmirage" and os.path.exists(record_path):
            with open(record_path, "r", encoding="ascii") as fh:
                recs = json.load(fh)["records"]
            clusterings = [Clustering.from_groups(r["communities"].values())
                           for r in recs]
        for l in l_values:
            report = utility_distance(seq, perturbed, l)
            deltas = [ratio_cut(g, c) for g, c in zip(seq.snapshots, clusterings)] \
                if clusterings else None
            bound = None
            if deltas is not None:
                eps = max(
                    (_community_tv(seq[t], perturbed[t], clusterings[t])
                     for t in range(len(seq))), default=0.0)
                bound = ud_upper_bound(eps, deltas, l)
            for t, ud in enumerate(report.per_timestamp):
                rows.append((t, mechanism, f"ud-l{l}", ud, 0.0, 0))
            write_csv(
                os.path.join(settings["out"], f"utility_l{l}.csv"),
                ("t", "ud", "delta", "bound"),
                [(t, ud,
                  deltas[t] if deltas else float("nan"),
                  bound if bound is not None else float("nan"))
                 for t, ud in enumerate(report.per_timestamp)],
                comment_lines=[f"provenance: {provenance_hash(settings)}"])

    out_dir = settings["out"]
    header = ("t", "mechanism", "metric", "value", "stderr", "n_samples")
    write_csv(os.path.join(out_dir, "metrics.csv"), header, rows,
              comment_lines=[f"provenance: {phash}"])
    write_json(os.path.join(out_dir, "metrics.json"),
               {"provenance": phash,
                "rows": [dict(zip(header, r)) for r in rows]})
    return EXIT_OK


def _read_scenario(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"scenario file not found: {path}")
    return read_config_file(path)


def cmd_eval(args) -> int:
    keys = ("manifest", "out", "mechanism", "k", "m", "theta", "seed",
            "inter-cluster-form", "hay-r", "f", "target", "scenario", "threads")
    settings = _merged(args, keys)
    for required in ("manifest", "out"):
        if required not in settings:
            raise ConfigError(f"eval needs --{required}")
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
        combined = scenario.build_combined(rng)
        g_prime, _, _ = linkmirage_step(combined, None, params)
        result = sybil_eval(scenario, g_prime, rng)
        rows.append((0, "sybil-false-positive-rate", result["false_positive_rate"]))
        rows.append((0, "sybil-attack-edges-after",
                     float(result["attack_edges_after"])))

    write_csv(os.path.join(settings["out"], "eval.csv"),
              ("t", "metric", "value"), rows,
              comment_lines=[f"provenance: {phash}"])
    return EXIT_OK


def cmd_report(args) -> int:
    settings = _merged(args, ("out",))
    if "out" not in settings:
        raise ConfigError("report needs --out")
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
