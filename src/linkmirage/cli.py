"""Command-line pipeline: perturb -> metrics -> eval -> report.

Every stage writes machine-readable outputs stamped with a provenance hash
of the resolved release (``provenance``), so downstream stages refuse
artifacts of another release. Each setting is declared once, in ``KEYS``.
Outputs are byte-identical across reruns for a fixed (config, seed). Draws
run in one thread; the ``threads`` key is accepted and checked, and has no
effect.

Exit codes: 0 ok, 2 invalid config, 3 I/O failure, 4 missing, stale or
malformed dependency artifact (``provenance.json``, ``record.json``,
``g_prime_<t>.txt``, or a stage CSV that ``report`` finds stamped with
another release's hash or holding a byte that is not ASCII). A
``g_prime_<t>.txt`` or ``record.json`` stamped with another release's hash
is stale, and ``ud`` on a linkmirage release needs its ``record.json``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
from collections import namedtuple
from dataclasses import fields

import numpy as np

from . import __version__
from .appeval import SybilScenario, attack_probability, sampling_report, sybil_eval
from .clustering import cluster_static, modularity
from .graphs import (TemporalGraphSequence, _content_lines, load_edge_list, load_sequence,
                     write_edge_list)
from .perturb import (PerturbationRecord, PerturbParams, hay_baseline,
                      hay_baseline_sequence, linkmirage_run,
                      perturb_static_baseline_sequence)
from .privacy import (LinkQuery, PriorModel, anti_aggregation,
                      anti_aggregation_aggregated, indistinguishability,
                      posterior_probability)
from .reporting import json_text, sha256_text, write_csv, write_json
from .utility import (community_tv, is_connected, pagerank, ratio_cut, spectral_metrics,
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


# A kind is (parse, what it must be): ``parse`` maps a flag's or a config
# line's text to the typed value and raises ValueError or KeyError on a bad one.

def _one_of(options) -> tuple:
    return (lambda text: options[options.index(text)]), f"one of {', '.join(options)}"


def _checked(parse, ok):
    def parse_checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return parse_checked


def _metric_names(text) -> tuple:
    names = tuple(m.strip() for m in text.split(",") if m.strip())
    if not names or not set(names) <= set(METRICS):
        raise ValueError(text)
    return names


def _query(text) -> tuple:
    u, v, t = (int(x) for x in text.split(","))
    return u, v, t


_TRUTH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_PATH = (str, "a path")
_INT = (int, "an integer")
_FLOAT = (float, "a number")
_AT_LEAST_1 = (_checked(int, lambda value: value >= 1), "an integer >= 1")
_SEED = (_checked(int, lambda value: value >= 0), "an integer >= 0")
_FRACTION = (_checked(float, lambda value: 0.0 <= value <= 1.0), "a number in [0, 1]")
_EPSILON = (_checked(float, lambda value: 0.0 < value < 0.5), "a number in (0, 0.5)")
_INTS = (lambda text: tuple(int(x) for x in text.split(",")), "comma-separated integers")
_BOOL = (lambda text: _TRUTH[text.lower()], f"one of {', '.join(_TRUTH)}")
_METRIC_NAMES = (_metric_names, f"comma-separated names from {', '.join(METRICS)}")

_Key = namedtuple("_Key", "kind default help stages")
_EVERY = ("perturb", "metrics", "eval", "report")

# Every setting, once: its kind, its default (None: unset unless given), its
# help and the commands that accept it. A --flag and a config-file line go
# through the same parser, and PerturbParams fields keep PerturbParams' defaults.
KEYS = {
    "manifest": _Key(_PATH, None, "newline-separated edge-list paths", _EVERY),
    "out": _Key(_PATH, None, "output directory", _EVERY),
    "mechanism": _Key(_one_of(MECHANISMS), "linkmirage", "release mechanism", _EVERY),
    "k": _Key(_INT, PerturbParams.k, "random-walk perturbation length", _EVERY),
    "m": _Key(_INT, PerturbParams.m, "freeing radius for re-clustering", _EVERY),
    "theta": _Key(_FLOAT, PerturbParams.theta, "unchanged-community overlap threshold", _EVERY),
    "seed": _Key(_SEED, PerturbParams.seed, "root of every random stream", _EVERY),
    "hay-r": _Key(_FRACTION, 0.5, "r/m fraction for the hay baseline", _EVERY),
    "threads": _Key(_AT_LEAST_1, 1, "accepted and ignored: draws run in one thread", _EVERY),
    "metric": _Key(_METRIC_NAMES, None, "metrics to compute", ("metrics",)),
    "samples": _Key(_INT, 200, "Monte Carlo samples for posteriors", ("metrics",)),
    "l": _Key(_INTS, (2,), "application parameters for ud", ("metrics",)),
    "query": _Key((_query, "'u,v,t'"), None, "link query", ("metrics",)),
    "epsilon": _Key(_EPSILON, 0.05, "mixing-time threshold", ("metrics",)),
    "damping": _Key(_FLOAT, 0.85, "pagerank damping", ("metrics",)),
    "lazy": _Key(_BOOL, False, "true to use the lazy chain (P+I)/2", ("metrics",)),
    "f": _Key(_FLOAT, None, "per-node malicious probability", ("eval",)),
    "target": _Key(_INTS, (), "target vertices", ("eval",)),
    "scenario": _Key(_PATH, None, "sybil scenario config file", ("eval",)),
}
# the keys that determine a release, besides its input snapshots
_RELEASE_KEYS = ("mechanism", "hay-r", *(f.name for f in fields(PerturbParams)))

# Every key of a Sybil scenario file and its kind; all but ``seeds`` (default:
# the release seed) are required.
SCENARIO_KEYS = {"regions": _INT, "g": _INT, "w": _INT, "r": _INT, "seeds": _SEED}


def _parse(kind, key, text, where):
    parse, must_be = kind
    try:
        return parse(text)
    except (ValueError, KeyError):
        raise ConfigError(f"{where}{key} must be {must_be}, got {text!r}") from None


def read_config_file(path, kinds) -> dict:
    """The typed values of a file of 'key = value' lines and '#' comments, each
    key one of ``kinds`` (key -> kind). A bad line, an unknown key, a bad
    value and a key set twice each raise a ConfigError that names the file,
    the line and the key."""
    given, first = {}, {}
    for lineno, body, _ in _content_lines(path):
        key, eq, text = (part.strip() for part in body.partition("="))
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in kinds:
            raise ConfigError(f"{path}:{lineno}: unknown key {key}")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key} is already set on line {first[key]}")
        first[key] = lineno
        given[key] = _parse(kinds[key], key, text, f"{path}:{lineno}: ")
    return given


def _settings(args: argparse.Namespace, required=()) -> dict:
    """Every key the command accepts, typed: a flag overrides the config file,
    which overrides the key's default; each key in ``required`` must be given."""
    kinds = {key: spec.kind for key, spec in KEYS.items() if args.command in spec.stages}
    given = read_config_file(args.config, kinds) if args.config else {}
    given.update({key: _parse(kind, key, vars(args)[key], "--") for key, kind in kinds.items()
                  if vars(args)[key] is not None})
    missing = [key for key in required if key not in given]
    if missing:
        raise ConfigError(f"{args.command} needs --{missing[0]}")
    return {key: given[key] if key in given else KEYS[key].default for key in kinds}


def provenance(settings, seq) -> tuple[str, dict]:
    """(hash, config) of what determines a release: ``_RELEASE_KEYS`` after
    defaults, and a digest of the loaded snapshots' edge arrays."""
    digest = hashlib.sha256()
    for g in seq.snapshots:
        edges = np.ascontiguousarray(g.edges, dtype="<i8")
        digest.update(len(edges).to_bytes(8, "little"))
        digest.update(edges.tobytes())
    config = {**{key: settings[key] for key in _RELEASE_KEYS}, "snapshots": digest.hexdigest()}
    return sha256_text(json_text(config)), config


def _params_from(settings) -> PerturbParams:
    return PerturbParams(**{f.name: settings[f.name] for f in fields(PerturbParams)})


def _release(seq, params, settings) -> tuple[list, list | None]:
    """(released graphs, records) of ``seq`` under the settings' mechanism;
    only a linkmirage release has records."""
    if settings["mechanism"] == "linkmirage":
        return linkmirage_run(seq, params)
    if settings["mechanism"] == "static-baseline":
        return perturb_static_baseline_sequence(seq, params.k, params.seed), None
    return hay_baseline_sequence(seq, params.seed, r_fraction=settings["hay-r"]), None


def cmd_perturb(args) -> int:
    settings = _settings(args, ("manifest", "out"))
    params = _params_from(settings)
    seq = load_sequence(settings["manifest"])
    graphs, records = _release(seq, params, settings)

    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    phash, config = provenance(settings, seq)
    for t, g in enumerate(graphs):
        write_edge_list(g, os.path.join(out_dir, f"g_prime_{t}.txt"),
                        header_lines=[f"provenance: {phash}"])
    if records is not None:
        write_json(os.path.join(out_dir, "record.json"),
                   {"provenance": phash,
                    "records": [r.to_json_obj() for r in records]})
    write_json(os.path.join(out_dir, "provenance.json"),
               {"provenance": phash, "seed": params.seed, "version": __version__,
                "mechanism": settings["mechanism"], "config": config})
    return EXIT_OK


def _read_artifact(path, key, parse=None):
    """The ``key`` entry of the JSON object in the artifact at ``path``, through
    ``parse`` if given. Content that is not such an object, or an entry that
    ``parse`` rejects, raises a MissingArtifactError naming the file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            obj = json.load(fh)
        # a list or a scalar raises TypeError here, a missing key KeyError
        return parse(obj[key]) if parse else obj[key]
    except (ValueError, KeyError, TypeError, AttributeError):
        raise MissingArtifactError(f"{path} is not a JSON object with a valid {key!r} "
                                   "entry; run perturb again") from None


def _release_stamp(out_dir) -> tuple[str, str]:
    """(path, provenance hash) of the release's ``provenance.json`` in ``out_dir``."""
    prov_path = os.path.join(out_dir, "provenance.json")
    if not os.path.exists(prov_path):
        raise MissingArtifactError(f"no provenance.json in {out_dir}; run perturb first")
    return prov_path, _read_artifact(prov_path, "provenance")


def _stale(path, prov_path, stage="perturb") -> MissingArtifactError:
    """The error for an artifact at ``path`` that another release stamped."""
    return MissingArtifactError(f"{path} is not stamped with the release in {prov_path}; "
                                f"run {stage} again")


def _load_outputs(settings, seq) -> tuple[list, str]:
    """(released graphs, provenance hash) of the release the settings determine."""
    out_dir = settings["out"]
    phash, _ = provenance(settings, seq)
    prov_path, stamped = _release_stamp(out_dir)
    if stamped != phash:
        raise MissingArtifactError(f"{prov_path} was written under a different configuration; "
                                   "run perturb again")
    graphs = []
    for t, g_t in enumerate(seq.snapshots):
        path = os.path.join(out_dir, f"g_prime_{t}.txt")
        if not os.path.exists(path):
            raise MissingArtifactError(f"missing perturbed snapshot {path}")
        with open(path, "rb") as fh:
            if fh.readline() != f"# provenance: {phash}\n".encode():
                raise _stale(path, prov_path)
        try:
            released = load_edge_list(path)
        except ValueError as exc:   # GraphFormatError names the file and line
            raise MissingArtifactError(f"{exc}; run perturb again") from None
        if not np.isin(released.vertices, g_t.vertices).all():
            raise MissingArtifactError(f"{path} has a vertex that is not in snapshot {t}; "
                                       "run perturb again")
        # edge lists cannot carry isolated vertices; restore the snapshot's set
        graphs.append(released.with_vertices(g_t.vertices))
    return graphs, phash


def _posterior(settings, params, seq, perturbed) -> tuple:
    """(t, estimate) of the --query link under the release's mechanism."""
    if settings["query"] is None:
        raise ConfigError("anti-inference metrics need --query u,v,t")
    u, v, t = settings["query"]
    if not 0 <= t < len(seq):
        raise ConfigError(f"--query t={t} is outside 0..{len(seq) - 1}")
    for x in (u, v):
        if not seq[t].has_vertex(x):
            raise ConfigError(f"--query vertex {x} is not in snapshot {t}")
    if settings["mechanism"] == "hay-baseline":
        def mech(world, rng):
            return [hay_baseline(g, int(round(settings["hay-r"] * g.num_edges)), rng).edges
                    for g in world.snapshots]
    else:
        mech = "linkmirage" if settings["mechanism"] == "linkmirage" else "static"
    rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(97,)))
    return t, posterior_probability(LinkQuery(t=t, u=u, v=v), seq, perturbed,
                                    PriorModel(seed=params.seed), params,
                                    settings["samples"], rng, mechanism=mech)


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
    damping = settings["damping"]
    delta = np.abs(pagerank(seq[t], damping) - pagerank(perturbed[t], damping))
    return [(t, "pagerank-mean-delta", float(delta.mean()), 0.0, 0)]


def _structural_rows(settings, params, seq, perturbed, t):
    def measure(g):
        sm = structural_metrics(g)
        return [("clustering-coefficient", sm["clustering_coefficient"]),
                ("assortativity", sm["assortativity"])]
    return _per_graph(seq, perturbed, t, measure)


def _spectral_rows(settings, params, seq, perturbed, t):
    def measure(g):
        if not is_connected(g):   # disconnected graphs have no single walk spectrum
            return [("slem", float("nan")), ("mixing-time", float("nan"))]
        sm = spectral_metrics(g, epsilon=settings["epsilon"], lazy=settings["lazy"])
        tau = float("nan") if sm["mixing_time"] is None else float(sm["mixing_time"])
        return [("slem", sm["slem"]), ("mixing-time", tau)]
    return _per_graph(seq, perturbed, t, measure)


_QUERY_PRODUCERS = (("anti-inference", _anti_inference_rows),
                    ("indistinguishability", _indistinguishability_rows))
_SNAPSHOT_PRODUCERS = (("anti-aggregation", _anti_aggregation_rows),
                       ("modularity", _modularity_rows),
                       ("pagerank", _pagerank_rows),
                       ("structural", _structural_rows),
                       ("spectral", _spectral_rows))


def _ud_rows(settings, seq, perturbed, phash) -> tuple[list, dict]:
    """ud-l<l> rows, and a utility_l<l>.csv table per l with each t's ratio
    cut, and the bound for a linkmirage release, read from its record.json."""
    record_path = os.path.join(settings["out"], "record.json")
    prov_path = os.path.join(settings["out"], "provenance.json")

    def bound_terms(records) -> tuple[list, float]:
        # one record per snapshot: zip(strict=True) raises ValueError otherwise,
        # and ratio_cut does on a partition that leaves a vertex out
        clusterings = [PerturbationRecord.from_json_obj(r).clustering
                       for _, r in zip(seq.snapshots, records, strict=True)]
        return ([ratio_cut(g, c) for g, c in zip(seq.snapshots, clusterings)],
                max(map(community_tv, seq.snapshots, perturbed, clusterings)))

    deltas, eps = None, 0.0
    if settings["mechanism"] == "linkmirage":
        if not os.path.exists(record_path):
            raise MissingArtifactError(f"missing perturbation record {record_path}; "
                                       "run perturb again")
        if _read_artifact(record_path, "provenance") != phash:
            raise _stale(record_path, prov_path)
        deltas, eps = _read_artifact(record_path, "records", bound_terms)
    rows, tables = [], {}
    for l in settings["l"]:
        per_t = list(enumerate(utility_distance(seq, perturbed, l).per_timestamp))
        bound = ud_upper_bound(eps, deltas, l) if deltas else float("nan")
        rows += [(t, f"ud-l{l}", ud, 0.0, 0) for t, ud in per_t]
        tables[f"utility_l{l}.csv"] = [(t, ud, deltas[t] if deltas else float("nan"), bound)
                                       for t, ud in per_t]
    return rows, tables


def cmd_metrics(args) -> int:
    settings = _settings(args, ("manifest", "out", "metric"))
    metrics = settings["metric"]
    params = _params_from(settings)
    seq = load_sequence(settings["manifest"])
    perturbed, phash = _load_outputs(settings, seq)

    rows, tables = [], {}
    if any(name in metrics for name, _ in _QUERY_PRODUCERS):
        t, est = _posterior(settings, params, seq, perturbed)
        rows += [row for name, produce in _QUERY_PRODUCERS if name in metrics
                 for row in produce(t, est, settings["samples"])]
    for t in range(len(seq)):
        rows += [row for name, produce in _SNAPSHOT_PRODUCERS if name in metrics
                 for row in produce(settings, params, seq, perturbed, t)]
    if "ud" in metrics:
        ud_rows, tables = _ud_rows(settings, seq, perturbed, phash)
        rows += ud_rows

    out_dir = settings["out"]
    header = ("t", "mechanism", "metric", "value", "stderr", "n_samples")
    rows = [(t, settings["mechanism"], *rest) for t, *rest in rows]
    for name, table in tables.items():
        write_csv(os.path.join(out_dir, name), ("t", "ud", "delta", "bound"), table,
                  comment_lines=[f"provenance: {phash}"])
    write_csv(os.path.join(out_dir, "metrics.csv"), header, rows,
              comment_lines=[f"provenance: {phash}"])
    write_json(os.path.join(out_dir, "metrics.json"),
               {"provenance": phash, "rows": [dict(zip(header, r)) for r in rows]})
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = _settings(args, ("manifest", "out"))
    params = _params_from(settings)
    seq = load_sequence(settings["manifest"])
    perturbed, phash = _load_outputs(settings, seq)
    rows = []
    for v in settings["target"]:
        if not all(g.has_vertex(v) for g in perturbed):
            raise ConfigError(f"--target vertex {v} is not in every snapshot")

    if settings["f"] is not None:
        # the default target is the smallest vertex present in every snapshot
        common = functools.reduce(np.intersect1d, [g.vertices for g in perturbed])
        targets = settings["target"] or tuple(common[:1].tolist())
        if not targets:
            raise ConfigError("no vertex is in every snapshot, so --f needs a --target")
        series = np.mean([attack_probability(perturbed, v, settings["f"]) for v in targets],
                         axis=0)
        for t, val in enumerate(series):
            rows.append((t, "attack-probability", float(val)))

    sr = sampling_report(perturbed, seq, params.k)
    rows.append((len(seq) - 1, f"sampling-probability-k{params.k}", sr.probability))
    rows.append((len(seq) - 1, "sampling-outside-envelope", float(sr.outside_envelope)))

    if settings["scenario"] is not None:
        path = settings["scenario"]
        if not os.path.exists(path):
            raise ConfigError(f"scenario file not found: {path}")
        sc = {"seeds": params.seed, **read_config_file(path, SCENARIO_KEYS)}
        missing = [key for key in SCENARIO_KEYS if key not in sc]
        if missing:
            raise ConfigError(f"{path}: missing key {missing[0]}")
        scenario = SybilScenario(honest_graph=seq[0], sybil_size=sc["regions"],
                                 attack_edges=sc["g"], walk_length=sc["w"],
                                 routes_per_node=sc["r"])
        rng = np.random.default_rng(np.random.SeedSequence(sc["seeds"], spawn_key=(101,)))
        combined = TemporalGraphSequence([scenario.build_combined(rng)])
        (g_prime,), _ = _release(combined, params, settings)
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
    out_dir = _settings(args, ("out",))["out"]
    prov_path, phash = _release_stamp(out_dir)
    stamp = f"provenance: {phash}"
    columns, rows = ("t", "mechanism", "metric", "value", "stderr"), []
    for name in ("metrics.csv", "eval.csv"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            stage = name.removesuffix(".csv")
            try:
                with open(path, "r", encoding="ascii") as fh:
                    if fh.readline() != f"# {stamp}\n":
                        raise _stale(path, prov_path, stage)
                    lines = [line for line in fh if line.strip() and not line.startswith("#")]
            except UnicodeDecodeError:
                raise MissingArtifactError(f"{path} holds a byte that is not ASCII; "
                                           f"run {stage} again") from None
            rows += [(*(entry.get(c) or "" for c in columns), name)
                     for entry in csv.DictReader(lines)]
    if not rows:
        raise MissingArtifactError(f"no metrics.csv or eval.csv under {out_dir}")
    write_csv(os.path.join(out_dir, "report.csv"),
              (*columns, "source"), rows,
              comment_lines=[stamp])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkmirage",
        description="Obfuscate temporal social graphs and measure privacy/utility.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary in (
            ("perturb", cmd_perturb, "write perturbed edge lists"),
            ("metrics", cmd_metrics, "compute privacy/utility metrics"),
            ("eval", cmd_eval, "application-level evaluators"),
            ("report", cmd_report, "concatenate stage CSVs into report.csv")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, spec in KEYS.items():
            if name in spec.stages:
                p.add_argument(f"--{key}", dest=key, help=f"{spec.help}; {spec.kind[1]}")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ValueError as exc:   # ConfigError and GraphFormatError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FileNotFoundError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
