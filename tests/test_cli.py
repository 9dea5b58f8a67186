import os

import numpy as np
import pytest

from linkmirage import (anti_aggregation, load_edge_list, planted_partition_graph,
                        write_edge_list)
from linkmirage.cli import main


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(77)
    snaps = []
    g0, _ = planted_partition_graph([8, 8], 0.6, 0.08, rng)
    snaps.append(g0)
    # churn a couple of edges for t=1
    edges = [tuple(e) for e in g0.edges.tolist()]
    edges = edges[:-2] + [(0, 15)]
    from linkmirage import Graph
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
