import hashlib
import os

import numpy as np
import pytest

from linkmirage import (Graph, SybilScenario, TemporalGraphSequence, anti_aggregation,
                        load_edge_list, load_sequence, perturb_static_baseline_sequence,
                        planted_partition_graph, sybil_eval, write_edge_list)
from linkmirage.cli import MECHANISMS, METRICS, main


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(77)
    snaps = []
    g0, _ = planted_partition_graph([8, 8], 0.6, 0.08, rng)
    snaps.append(g0)
    # churn a couple of edges for t=1
    edges = [tuple(e) for e in g0.edges.tolist()]
    edges = edges[:-2] + [(0, 15)]
    snaps.append(Graph(sorted(set(edges)), vertices=g0.vertices))
    for t, g in enumerate(snaps):
        write_edge_list(g, tmp_path / f"g{t}.txt")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("g0.txt\ng1.txt\n")
    return tmp_path, manifest, snaps


def read_tree(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_perturb_writes_outputs(workspace, tmp_path):
    root, manifest, snaps = workspace
    out = tmp_path / "out"
    rc = main(["perturb", "--manifest", str(manifest), "--out", str(out),
               "--mechanism", "linkmirage", "--k", "2", "--seed", "5"])
    assert rc == 0
    assert (out / "g_prime_0.txt").exists()
    assert (out / "g_prime_1.txt").exists()
    assert (out / "record.json").exists()
    assert (out / "provenance.json").exists()


def test_perturb_deterministic_across_runs_and_threads(workspace, tmp_path):
    root, manifest, _ = workspace
    trees = []
    for i, threads in enumerate(("1", "4", "1")):
        out = tmp_path / f"out{i}"
        rc = main(["perturb", "--manifest", str(manifest), "--out", str(out),
                   "--k", "2", "--seed", "9", "--threads", threads])
        assert rc == 0
        trees.append(read_tree(out))
    assert trees[0] == trees[1] == trees[2]


def test_hay_baseline_keeps_edge_count(workspace, tmp_path):
    root, manifest, snaps = workspace
    out = tmp_path / "out"
    rc = main(["perturb", "--manifest", str(manifest), "--out", str(out),
               "--mechanism", "hay-baseline", "--seed", "3", "--hay-r", "0.5"])
    assert rc == 0
    for t, g in enumerate(snaps):
        gp = load_edge_list(out / f"g_prime_{t}.txt")
        assert gp.num_edges == g.num_edges


def test_hay_baseline_on_a_complete_graph_exits_2(tmp_path, capsys):
    k5 = Graph([(i, j) for i in range(5) for j in range(i + 1, 5)])
    write_edge_list(k5, tmp_path / "k5.txt")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("k5.txt\n")
    rc = main(["perturb", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
               "--mechanism", "hay-baseline", "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "too dense" in err


def test_metrics_anti_aggregation_matches_library(workspace, tmp_path):
    root, manifest, snaps = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--k", "2", "--seed", "5"]
    assert main(["perturb"] + args) == 0
    assert main(["metrics"] + args + ["--metric", "anti-aggregation"]) == 0
    gp0 = load_edge_list(out / "g_prime_0.txt").with_vertices(snaps[0].vertices)
    expected = anti_aggregation(snaps[0], gp0, 2)
    rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    got = [float(r[3]) for r in rows if r[0] == "0" and r[2] == "anti-aggregation-k2"]
    assert got == [pytest.approx(expected, abs=1e-15)]


def test_metrics_ud_three_l_values(workspace, tmp_path):
    root, manifest, snaps = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--k", "2", "--seed", "5"]
    assert main(["perturb"] + args) == 0
    assert main(["metrics"] + args + ["--metric", "ud", "--l", "1,2,5"]) == 0
    rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    per_t0 = [r for r in rows if r[0] == "0" and r[2].startswith("ud-l")]
    assert len(per_t0) == 3


def test_metrics_ud_writes_utility_report(workspace, tmp_path):
    root, manifest, snaps = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--k", "2", "--seed", "5"]
    assert main(["perturb"] + args) == 0
    assert main(["metrics"] + args + ["--metric", "ud", "--l", "2"]) == 0
    lines = [l for l in (out / "utility_l2.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "t,ud,delta,bound"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == len(snaps)
    for row in body:
        ud, delta, bound = (float(x) for x in row[1:])
        assert 0.0 <= ud <= 1.0
        assert ud <= bound  # released under the dynamic mechanism, bound applies


def test_metrics_empty_selection_is_config_error(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    assert main(["metrics"] + args + ["--metric", " "]) == 2


@pytest.mark.parametrize("flags, conf", [(["--l", "abc"], ""), (["--l", "1,,2"], ""),
                                         ([], "samples = x\n")])
def test_metrics_malformed_l_or_samples_exit2_for_any_metric(workspace, tmp_path,
                                                              flags, conf):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    if conf:   # --samples is typed by argparse; a config file value is not
        (tmp_path / "bad.conf").write_text(conf)
        flags = ["--config", str(tmp_path / "bad.conf")]
    assert main(["metrics"] + args + ["--metric", "modularity"] + flags) == 2
    assert not (out / "metrics.csv").exists()


def test_metrics_without_perturb_outputs_exit4(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "never_perturbed"
    rc = main(["metrics", "--manifest", str(manifest), "--out", str(out),
               "--metric", "ud"])
    assert rc == 4


def test_metrics_stale_provenance_exit4(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    base = ["--manifest", str(manifest), "--out", str(out)]
    assert main(["perturb"] + base + ["--seed", "5"]) == 0
    rc = main(["metrics"] + base + ["--seed", "6", "--metric", "ud"])
    assert rc == 4


def test_eval_attack_series_monotone(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--k", "2", "--seed", "5"]
    assert main(["perturb"] + args) == 0
    assert main(["eval"] + args + ["--f", "0.1", "--target", "0"]) == 0
    rows = [line.split(",") for line in (out / "eval.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    attack = [float(r[2]) for r in rows if r[1] == "attack-probability"]
    assert len(attack) == 2
    assert attack[1] >= attack[0] - 1e-15


def test_eval_missing_scenario_file_exit2(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    rc = main(["eval"] + args + ["--scenario", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_metrics_query_vertex_absent_exit2(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    rc = main(["metrics"] + args + ["--metric", "anti-inference",
                                    "--query", "0,999,1", "--samples", "100"])
    assert rc == 2


def test_metrics_query_time_out_of_range_exit2(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    rc = main(["metrics"] + args + ["--metric", "anti-inference",
                                    "--query", "0,1,7", "--samples", "100"])
    assert rc == 2


def test_eval_target_absent_exit2(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    rc = main(["eval"] + args + ["--f", "0.1", "--target", "999"])
    assert rc == 2


def test_eval_sybil_scenario(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    scenario = tmp_path / "sybil.cfg"
    scenario.write_text("regions = 6\ng = 2\nw = 4\nr = 4\nseeds = 1\n")
    args = ["--manifest", str(manifest), "--out", str(out), "--k", "1", "--seed", "5"]
    assert main(["perturb"] + args) == 0
    assert main(["eval"] + args + ["--scenario", str(scenario)]) == 0
    rows = (out / "eval.csv").read_text().splitlines()[2:]
    # values pinned from the pairwise-loop evaluator
    assert rows == ["1,sampling-probability-k1,0.75609756097560976",
                    "1,sampling-outside-envelope,5",
                    "0,sybil-false-positive-rate,0.671875",
                    "0,sybil-attack-edges-after,2"]


def test_eval_sybil_rows_follow_the_mechanism(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    scenario_path = tmp_path / "sybil.cfg"
    scenario_path.write_text("regions = 6\ng = 2\nw = 4\nr = 4\nseeds = 1\n")
    args = ["--manifest", str(manifest), "--out", str(out), "--k", "1", "--seed", "5",
            "--mechanism", "static-baseline"]
    assert main(["perturb"] + args) == 0
    assert main(["eval"] + args + ["--scenario", str(scenario_path)]) == 0
    rows = [line.split(",") for line in (out / "eval.csv").read_text().splitlines()[2:]]
    # the same scenario stream, released by the static baseline
    scenario = SybilScenario(honest_graph=load_sequence(str(manifest))[0], sybil_size=6,
                             attack_edges=2, walk_length=4, routes_per_node=4)
    rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(101,)))
    combined = TemporalGraphSequence([scenario.build_combined(rng)])
    want = sybil_eval(scenario, perturb_static_baseline_sequence(combined, 1, 5)[0], rng)
    assert [(t, metric, float(value)) for t, metric, value in rows[-2:]] == [
        ("0", "sybil-false-positive-rate", want["false_positive_rate"]),
        ("0", "sybil-attack-edges-after", float(want["attack_edges_after"]))]


def test_one_config_file_drives_every_stage(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"manifest = {manifest}\nout = {out}\nk = 2\nseed = 4\n")
    assert main(["perturb", "--config", str(cfg)]) == 0
    assert main(["metrics", "--config", str(cfg), "--metric", "ud"]) == 0
    assert main(["eval", "--config", str(cfg), "--f", "0.2"]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    text = (out / "report.csv").read_text()
    assert "metrics.csv" in text and "eval.csv" in text


def test_unknown_mechanism_in_config_exits_2(workspace, tmp_path, capsys):
    root, manifest, _ = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"manifest = {manifest}\nout = {tmp_path / 'out'}\nmechanism = bogus\n")
    assert main(["perturb", "--config", str(cfg)]) == 2
    assert "mechanism must be one of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_concatenates(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    assert main(["metrics"] + args + ["--metric", "ud", "--l", "1"]) == 0
    assert main(["eval"] + args + ["--f", "0.2"]) == 0
    assert main(["report", "--out", str(out)]) == 0
    text = (out / "report.csv").read_text()
    assert "metrics.csv" in text and "eval.csv" in text


def test_missing_manifest_io_error(tmp_path):
    rc = main(["perturb", "--manifest", str(tmp_path / "absent.txt"),
               "--out", str(tmp_path / "o")])
    assert rc == 3


def test_invalid_mechanism_config_error(workspace, tmp_path):
    root, manifest, _ = workspace
    rc = main(["perturb", "--manifest", str(manifest),
               "--out", str(tmp_path / "o"), "--k", "0"])
    assert rc == 2


def test_config_file_with_flag_override(workspace, tmp_path):
    root, manifest, _ = workspace
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"manifest = {manifest}\nout = {out}\nk = 2\nseed = 4\n")
    assert main(["perturb", "--config", str(cfg)]) == 0
    # flags override the file: a different seed produces different provenance
    out2 = tmp_path / "out2"
    assert main(["perturb", "--config", str(cfg), "--out", str(out2),
                 "--seed", "11"]) == 0
    p1 = (out / "provenance.json").read_text()
    p2 = (out2 / "provenance.json").read_text()
    assert p1 != p2


# -- byte-level pins -------------------------------------------------------------
# sha256 digests of CLI outputs on the workspace fixture, recorded before the
# metric rows were split into per-metric producers and before the hay
# comparator drew its fake edges through the shared absent-pair sampler.

ALL_METRICS = ",".join(METRICS)


def file_digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:16]
            for name in names}


def run_metrics(workspace, monkeypatch, mechanism, metric):
    root, _, _ = workspace
    # relative paths keep the provenance hash free of the temporary directory
    monkeypatch.chdir(root)
    out = root / "out"
    args = ["--manifest", "manifest.txt", "--out", "out", "--k", "2",
            "--seed", "5", "--mechanism", mechanism]
    assert main(["perturb"] + args) == 0
    assert main(["metrics"] + args + ["--metric", metric, "--query", "0,15,1",
                                      "--samples", "100", "--l", "1,2"]) == 0
    names = ["metrics.csv", "metrics.json"]
    if "ud" in metric.split(","):
        names += ["utility_l1.csv", "utility_l2.csv"]
    return file_digests(out, names)


PERTURB_PINS = {
    ("linkmirage", "1"): {
        "g_prime_0.txt": "d900385e6311bdb0",
        "g_prime_1.txt": "d900385e6311bdb0",
        "provenance.json": "21ae452387a2ceeb",
        "record.json": "ee20f49f26a7bcd3"},
    ("static-baseline", "1"): {
        "g_prime_0.txt": "2675a405f61906ad",
        "g_prime_1.txt": "18d06d9224bd526d",
        "provenance.json": "ec5de3a22cd72d62"},
    ("hay-baseline", "1"): {
        "g_prime_0.txt": "196bd2c214126ccb",
        "g_prime_1.txt": "18c9e6f23d1f6dcb",
        "provenance.json": "c22e520a8b10defc"},
    ("linkmirage", "2"): {
        "g_prime_0.txt": "2a03e68e140b5078",
        "g_prime_1.txt": "2a03e68e140b5078",
        "provenance.json": "51c6ec022c0f07ac",
        "record.json": "74d90a6c72d810ca"},
    ("static-baseline", "2"): {
        "g_prime_0.txt": "7c55e5be7dbf6a69",
        "g_prime_1.txt": "b6d7d6b0f34df242",
        "provenance.json": "e88044ba3fae8b34"},
    ("hay-baseline", "2"): {
        "g_prime_0.txt": "aa13c6749b5983a8",
        "g_prime_1.txt": "4438bdba010a353e",
        "provenance.json": "986b9072c47efe7c"},
}
METRICS_PINS = {
    "linkmirage": {
        "metrics.csv": "dbb6ed6f98a478bf",
        "metrics.json": "1d5d0dfac4ce85a0",
        "utility_l1.csv": "ee44fe7380ababaf",
        "utility_l2.csv": "2ad988cf3b6db87e"},
    "static-baseline": {
        "metrics.csv": "2b90fd0c775f8dec",
        "metrics.json": "67ad18008032629e",
        "utility_l1.csv": "d3a528b99e8b0ee7",
        "utility_l2.csv": "02ad936c1425f60d"},
    "hay-baseline": {
        "metrics.csv": "546f0dcc88e1d097",
        "metrics.json": "3a1312ddb286baeb",
        "utility_l1.csv": "7b4ebc692f36865c",
        "utility_l2.csv": "8c1e3cf658311dbc"},
}
METRIC_PINS = {
    "anti-inference": {
        "metrics.csv": "5ec1111e1f0654bb",
        "metrics.json": "b556e04fbb2613e5"},
    "indistinguishability": {
        "metrics.csv": "b5acdf7aff2c5004",
        "metrics.json": "1dfbbfa0526f517b"},
    "anti-aggregation": {
        "metrics.csv": "c7d0254e9aea06d6",
        "metrics.json": "08e2a2c7845a7aae"},
    "ud": {
        "metrics.csv": "2954de4e713f041a",
        "metrics.json": "51d9b8f0cde6dd0b",
        "utility_l1.csv": "ee44fe7380ababaf",
        "utility_l2.csv": "2ad988cf3b6db87e"},
    "modularity": {
        "metrics.csv": "b81f57608b22ca8c",
        "metrics.json": "0047f4dd26e7a3e1"},
    "pagerank": {
        "metrics.csv": "66cfd872c08df73a",
        "metrics.json": "16ac6c1a88a56586"},
    "structural": {
        "metrics.csv": "a91a2c70f8819682",
        "metrics.json": "2c96c37fc0bef4ee"},
    "spectral": {
        "metrics.csv": "d91bc5bfc04f657b",
        "metrics.json": "c5b065301a73af9f"},
}


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("seed", ["1", "2"])
def test_perturb_outputs_pinned(workspace, monkeypatch, mechanism, seed):
    root, _, _ = workspace
    monkeypatch.chdir(root)
    out = root / "out"
    assert main(["perturb", "--manifest", "manifest.txt", "--out", "out",
                 "--mechanism", mechanism, "--seed", seed]) == 0
    got = file_digests(out, sorted(os.listdir(out)))
    assert got == PERTURB_PINS[(mechanism, seed)]


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_metrics_outputs_pinned(workspace, monkeypatch, mechanism):
    got = run_metrics(workspace, monkeypatch, mechanism, ALL_METRICS)
    assert got == METRICS_PINS[mechanism]


@pytest.mark.parametrize("metric", METRICS)
def test_single_metric_outputs_pinned(workspace, monkeypatch, metric):
    got = run_metrics(workspace, monkeypatch, "linkmirage", metric)
    assert got == METRIC_PINS[metric]
