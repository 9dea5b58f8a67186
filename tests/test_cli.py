import hashlib
import json
import os
import shlex

import numpy as np
import pytest

from linkmirage import (Graph, SybilScenario, TemporalGraphSequence, anti_aggregation,
                        load_edge_list, load_sequence, perturb_static_baseline_sequence,
                        planted_partition_graph, sybil_eval, write_edge_list)
from linkmirage.cli import KEYS, MECHANISMS, METRICS, main
from test_perturb import time_limit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


# one malformed value per typed key; f and target are read by eval only.
# inter-cluster-form is a release key that was removed: its config line is an
# unknown key, and argparse rejects its flag.
BAD_VALUES = {"mechanism": "bogus", "k": "two", "m": "1.5", "theta": "x", "seed": "5x",
              "inter-cluster-form": "circle", "hay-r": "half", "threads": "0",
              "metric": "ud,bogus", "samples": "x", "l": "abc", "query": "0,1",
              "epsilon": "x", "damping": "x", "lazy": "maybe", "f": "x", "target": "a"}
# well-formed values outside a key's range: a seed is an integer >= 0 and
# hay-r a fraction in [0, 1]
OUT_OF_RANGE = [("seed", "-1"), ("hay-r", "2"), ("hay-r", "-0.5")]


@pytest.mark.parametrize("flags, conf", [(["--l", "abc"], ""), (["--l", "1,,2"], ""),
                                         ([], "samples = x\n")]
                         + [([f"--{key}", bad], "") for key, bad in BAD_VALUES.items()]
                         + [([], f"{key} = {bad}\n") for key, bad in BAD_VALUES.items()]
                         # a mixing-time threshold lies in (0, 0.5)
                         + [(["--epsilon", bad], "") for bad in ("-1", "0.7")]
                         + [([], f"epsilon = {bad}\n") for bad in ("-1", "0.7")]
                         + [([f"--{key}", bad], "") for key, bad in OUT_OF_RANGE]
                         + [([], f"{key} = {bad}\n") for key, bad in OUT_OF_RANGE])
def test_metrics_malformed_l_or_samples_exit2_for_any_metric(workspace, tmp_path, capsys,
                                                              flags, conf):
    # a flag and a config line go through the same parser
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    before = read_tree(out)
    key = flags[0][2:] if flags else conf.split(" = ")[0]
    stage = ["eval"] if key in ("f", "target") else ["metrics", "--metric", "modularity"]
    if conf:
        (tmp_path / "bad.conf").write_text(conf)
        flags = ["--config", str(tmp_path / "bad.conf")]
    capsys.readouterr()
    if key in KEYS or conf:
        assert main(stage + args + flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
    else:
        with pytest.raises(SystemExit) as exc:
            main(stage + args + flags)
        assert exc.value.code == 2
    assert read_tree(out) == before


def test_removed_inter_cluster_form_key_exits_2(workspace, tmp_path, capsys):
    # the inter-community rule has one form, so its former key is unknown,
    # even at its former default
    root, manifest, _ = workspace
    out = tmp_path / "out"
    perturb = ["perturb", "--manifest", str(manifest), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(perturb + ["--inter-cluster-form", "appendixC"])
    assert exc.value.code == 2
    (tmp_path / "run.cfg").write_text("inter-cluster-form = appendixC\n")
    capsys.readouterr()
    assert main(perturb + ["--config", str(tmp_path / "run.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "run.cfg:1: unknown key inter-cluster-form" in err
    assert not out.exists()


@pytest.mark.parametrize("key, bad", OUT_OF_RANGE)
def test_perturb_out_of_range_value_exit2(workspace, tmp_path, capsys, key, bad):
    # under linkmirage too, where hay-r is not read: it enters the provenance
    root, manifest, _ = workspace
    out = tmp_path / "out"
    assert main(["perturb", "--manifest", str(manifest), "--out", str(out),
                 "--mechanism", "linkmirage", f"--{key}", bad]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err
    assert not out.exists()


def readme_cli_section() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().split("## CLI", 1)[1].split("\n## ", 1)[0]


def readme_cli_commands() -> list:
    """Argument lists of the README's CLI block, continuation lines joined."""
    block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("linkmirage ")]


def test_readme_names_every_cli_key():
    section = readme_cli_section()
    assert [key for key in KEYS if f"`{key}`" not in section] == []


def test_readme_cli_block_runs_as_written(workspace, tmp_path, monkeypatch):
    root, manifest, _ = workspace
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sybil.cfg").write_text("regions = 6\ng = 2\nw = 4\nr = 4\nseeds = 1\n")
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == ["perturb", "metrics", "eval", "report"]
    for argv in commands:
        argv = [str(manifest) if a == "data/manifest.txt" else a for a in argv]
        assert main(argv) == 0, argv


EXPLICIT_DEFAULTS = ["--mechanism", "linkmirage", "--k", "2", "--m", "2", "--theta", "0.8",
                     "--hay-r", "0.5"]


@pytest.mark.parametrize("case, code", [("explicit-defaults", 0), ("config-spelling", 0),
                                        ("copied-manifest", 0), ("edited-input", 4)])
def test_later_stages_accept_exactly_the_same_release(workspace, tmp_path, case, code):
    # provenance covers the resolved settings and the loaded snapshots, not
    # how the settings were spelled or where the manifest lives
    root, manifest, _ = workspace
    out = tmp_path / "out"
    perturb = ["perturb", "--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    later = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    if case == "explicit-defaults":
        assert main(perturb[:3] + ["--out", str(tmp_path / "omitted"), "--seed", "5"]) == 0
        perturb += EXPLICIT_DEFAULTS
    elif case == "config-spelling":
        (tmp_path / "run.cfg").write_text("seed = 05\ntheta = 0.80\n")
        perturb = perturb[:5] + ["--config", str(tmp_path / "run.cfg")]
        later += ["--theta", "0.8"]
    elif case == "copied-manifest":
        (root / "copy.txt").write_text(manifest.read_text())
        later[1] = str(root / "copy.txt")
    assert main(perturb) == 0
    if case == "explicit-defaults":
        assert ((out / "provenance.json").read_bytes()
                == (tmp_path / "omitted" / "provenance.json").read_bytes())
    if case == "edited-input":
        lines = (root / "g1.txt").read_text().splitlines()
        (root / "g1.txt").write_text("\n".join(lines[:-1]) + "\n")
    assert main(["metrics"] + later + ["--metric", "ud"]) == code
    assert main(["eval"] + later + ["--f", "0.1"]) == code


def test_metrics_without_perturb_outputs_exit4(workspace, tmp_path):
    root, manifest, _ = workspace
    out = tmp_path / "never_perturbed"
    rc = main(["metrics", "--manifest", str(manifest), "--out", str(out),
               "--metric", "ud"])
    assert rc == 4


def test_metrics_stale_provenance_exit4(workspace, tmp_path, capsys):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    base = ["--manifest", str(manifest), "--out", str(out)]
    assert main(["perturb"] + base + ["--seed", "5"]) == 0
    capsys.readouterr()
    rc = main(["metrics"] + base + ["--seed", "6", "--metric", "ud"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out / "provenance.json") in err


# test_malformed_artifact_exits_4_naming_the_file copies the file of the
# seed-6 release for ANOTHER_RELEASE, and deletes the file for None
ANOTHER_RELEASE = "the seed-6 release's file"


def with_stamp(name, content, stamp):
    """``content`` stamped with the release's hash where its format has a place
    for one: the first line of an edge list, the ``provenance`` entry of a
    record.json object."""
    if name.startswith("g_prime_"):
        return f"# provenance: {stamp}\n{content}"
    try:
        obj = json.loads(content)
    except ValueError:
        return content
    if name == "record.json" and isinstance(obj, dict):
        return json.dumps({**obj, "provenance": stamp})
    return content


@pytest.mark.parametrize("name, content, stage", [
    ("provenance.json", "{}", ["metrics", "--metric", "ud"]),
    ("provenance.json", "[]", ["eval", "--f", "0.1"]),
    ("provenance.json", '{"provenance": "5692', ["metrics", "--metric", "modularity"]),
    ("provenance.json", '"provenance"', ["report"]),
    ("record.json", '{"provenance": 1, "records": 5}', ["metrics", "--metric", "ud"]),
    ("record.json", '{"records": [{"timestamp": 0}, {"timestamp": 1}]}',
     ["metrics", "--metric", "ud"]),
    # one record for the fixture's two snapshots
    ("record.json", json.dumps({"records": [{"timestamp": 0, "communities": {"0": [*range(16)]}}]}),
     ["metrics", "--metric", "ud"]),
    # a partition that leaves 14 of the fixture's 16 vertices out
    ("record.json", json.dumps({"records": [{"timestamp": t, "communities": {"0": [0, 1]}}
                                            for t in range(2)]}),
     ["metrics", "--metric", "ud"]),
    ("g_prime_0.txt", "3 3\n", ["metrics", "--metric", "modularity"]),
    ("g_prime_1.txt", "3 3\n", ["eval", "--f", "0.1"]),
    # a vertex the snapshot does not hold
    ("g_prime_0.txt", "3 99\n", ["metrics", "--metric", "modularity"]),
    ("g_prime_0.txt", ANOTHER_RELEASE, ["metrics", "--metric", "modularity"]),
    ("record.json", ANOTHER_RELEASE, ["metrics", "--metric", "ud"]),
    ("record.json", None, ["metrics", "--metric", "ud"]),
])
def test_malformed_artifact_exits_4_naming_the_file(workspace, tmp_path, capsys,
                                                     name, content, stage):
    # content that is not JSON, not an object, lacks its entry, holds another
    # number of records than snapshots or a partition that does not cover its
    # snapshot; an edge list with a self-loop or a vertex outside its snapshot,
    # each stamped with the release so that it reaches its own check; an edge
    # list or record.json of another release, and no record.json at all
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    assert main(["metrics"] + args + ["--metric", "modularity"]) == 0
    if content is None:
        (out / name).unlink()
    elif content == ANOTHER_RELEASE:
        other = tmp_path / "other"
        assert main(["perturb", "--manifest", str(manifest), "--out", str(other),
                     "--seed", "6"]) == 0
        (out / name).write_bytes((other / name).read_bytes())
    else:
        stamp = json.loads((out / "provenance.json").read_text())["provenance"]
        (out / name).write_text(with_stamp(name, content, stamp))
    before = read_tree(out)
    capsys.readouterr()
    assert main(stage + args) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out / name) in err
    assert read_tree(out) == before


def test_report_refuses_a_csv_of_another_release(workspace, tmp_path, capsys):
    root, manifest, _ = workspace
    one = root / "one.txt"
    one.write_text("g0.txt\n")
    out = tmp_path / "out"
    base = ["--manifest", str(one), "--out", str(out)]
    assert main(["perturb"] + base + ["--seed", "5"]) == 0
    assert main(["metrics"] + base + ["--seed", "5", "--metric", "modularity"]) == 0
    assert main(["perturb"] + base + ["--seed", "6"]) == 0
    assert main(["eval"] + base + ["--seed", "6", "--f", "0.2"]) == 0
    before = read_tree(out)
    capsys.readouterr()
    # metrics.csv holds the seed-5 release's rows; provenance.json is seed 6's
    assert main(["report", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out / "metrics.csv") in err
    assert read_tree(out) == before


@pytest.mark.parametrize("stage", ["metrics", "eval"])
def test_report_names_a_stage_csv_that_is_not_ascii(workspace, tmp_path, capsys, stage):
    root, _, _ = workspace
    one = root / "one.txt"
    one.write_text("g0.txt\n")
    out = tmp_path / "out"
    base = ["--manifest", str(one), "--out", str(out)]
    assert main(["perturb"] + base) == 0
    assert main(["metrics"] + base + ["--metric", "modularity"]) == 0
    assert main(["eval"] + base + ["--f", "0.2"]) == 0
    with open(out / f"{stage}.csv", "ab") as fh:
        fh.write(b"0,x,\xe9\n")
    before = read_tree(out)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out / f"{stage}.csv") in err
    assert read_tree(out) == before


def test_metrics_json_of_a_disconnected_snapshot_loads(tmp_path):
    g, _ = planted_partition_graph([8, 8], 0.6, 0.0, np.random.default_rng(3))
    write_edge_list(g, tmp_path / "g0.txt")
    (tmp_path / "manifest.txt").write_text("g0.txt\n")
    out = tmp_path / "out"
    args = ["--manifest", str(tmp_path / "manifest.txt"), "--out", str(out)]
    assert main(["perturb"] + args) == 0
    assert main(["metrics"] + args + ["--metric", "spectral,modularity"]) == 0
    with open(out / "metrics.json") as fh:
        rows = json.load(fh)["rows"]
    cells = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[2:]]
    assert len(rows) == len(cells) == 6
    # no walk spectrum on a disconnected snapshot: slem and mixing-time are NaN
    assert sum(np.isnan(row["value"]) for row in rows) == 4
    for row, cell in zip(rows, cells):
        assert row["metric"] == cell[2]
        for column, text in zip(("value", "stderr"), cell[3:5]):
            assert row[column] == float(text) or np.isnan(row[column]) and text == "nan"


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


@pytest.mark.parametrize("regions, g", [(0, 1), (2, 33)])
def test_eval_sybil_scenario_that_cannot_be_built_exit2(workspace, tmp_path, regions, g):
    # 16 honest vertices and 2 Sybil ones have 32 attack-edge pairs
    root, manifest, _ = workspace
    out = tmp_path / "out"
    scenario = tmp_path / "sybil.cfg"
    scenario.write_text(f"regions = {regions}\ng = {g}\nw = 4\nr = 4\nseeds = 1\n")
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    with time_limit(10):
        assert main(["eval"] + args + ["--scenario", str(scenario)]) == 2


SCENARIO = {"regions": "6", "g": "2", "w": "4", "r": "4", "seeds": "1"}


@pytest.mark.parametrize("key, line", [("seed", "seed = 9"), ("regions", "regions = four"),
                                       ("seeds", "seeds = -1")])
def test_eval_unknown_or_malformed_scenario_key_exit2(workspace, tmp_path, capsys, key, line):
    # one line naming the scenario file and the key
    root, manifest, _ = workspace
    out = tmp_path / "out"
    scenario = tmp_path / "sybil.cfg"
    lines = {**{k: f"{k} = {v}" for k, v in SCENARIO.items()}, key: line}
    scenario.write_text("\n".join(lines.values()) + "\n")
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    capsys.readouterr()
    assert main(["eval"] + args + ["--scenario", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(scenario) in err and f" {key}" in err
    assert not (out / "eval.csv").exists()


def write_sequence(root, snaps) -> str:
    for t, g in enumerate(snaps):
        write_edge_list(g, root / f"s{t}.txt")
    manifest = root / "seq_manifest.txt"
    manifest.write_text("".join(f"s{t}.txt\n" for t in range(len(snaps))))
    return str(manifest)


def test_eval_default_target_is_in_every_snapshot(workspace, tmp_path):
    # vertex 0, the first vertex of snapshot 0, leaves at t=1
    root, _, (g0, _) = workspace
    g1 = Graph([e for e in g0.edges.tolist() if 0 not in e])
    assert g1.has_vertex(1)
    manifest = write_sequence(root, [g0, g1])
    csvs = []
    for target in ([], ["--target", "1"]):
        out = tmp_path / f"out{len(target)}"
        args = ["--manifest", manifest, "--out", str(out), "--seed", "5"]
        assert main(["perturb"] + args) == 0
        assert main(["eval"] + args + ["--f", "0.1"] + target) == 0
        csvs.append((out / "eval.csv").read_text())
    assert csvs[0] == csvs[1]


def test_eval_without_a_common_vertex_needs_a_target(workspace, tmp_path, capsys):
    root, _, _ = workspace
    manifest = write_sequence(root, [Graph([(0, 1)]), Graph([(2, 3)])])
    out = tmp_path / "out"
    args = ["--manifest", manifest, "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    capsys.readouterr()
    assert main(["eval"] + args + ["--f", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no vertex is in every snapshot" in err


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


def test_eval_target_absent_without_f_exit2(workspace, tmp_path, capsys):
    # the target is checked whether or not --f asks for the attack series
    root, manifest, _ = workspace
    out = tmp_path / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    errors = []
    for f in (["--f", "0.1"], []):
        capsys.readouterr()
        assert main(["eval"] + args + f + ["--target", "999"]) == 2
        errors.append(capsys.readouterr().err)
        assert not (out / "eval.csv").exists()
    assert errors[0] == errors[1]
    assert errors[0].count("\n") == 1 and "--target vertex 999" in errors[0]


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
    assert rows == ["1,sampling-probability-k1,0.7804878048780488",
                    "1,sampling-outside-envelope,3.0",
                    "0,sybil-false-positive-rate,0.703125",
                    "0,sybil-attack-edges-after,2.0"]


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


def test_config_key_set_twice_exits_2(workspace, tmp_path, capsys):
    # one line naming the file, the second line and the key; nothing is written
    root, manifest, _ = workspace
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"manifest = {manifest}\nout = {out}\nseed = 1\n# again\nseed = 2\n")
    assert main(["perturb", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{cfg}:5:" in err and " seed " in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["g1.txt", "manifest.txt", "run.cfg"])
def test_non_ascii_byte_exits_2_naming_the_file_and_line(workspace, tmp_path, capsys, name):
    # a UTF-8 byte in an edge list, a manifest or a config file, even inside
    # a '#' comment, is one line naming the file and the line; nothing is written
    root, manifest, _ = workspace
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"manifest = {manifest}\nout = {out}\nseed = 1\n")
    bad = root / name
    first, rest = bad.read_bytes().split(b"\n", 1)
    bad.write_bytes(first + b"\n# caf\xc3\xa9\n" + rest)
    assert main(["perturb", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {bad}:2: not ASCII\n"
    assert not out.exists()


def test_vertex_id_beyond_int64_exits_2_naming_the_file_and_line(workspace, tmp_path, capsys):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    bad = root / "g1.txt"
    bad.write_text(bad.read_text() + f"{2**63} 1\n")
    line = bad.read_text().count("\n")
    assert main(["perturb", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{bad}:{line}:" in err and "2**63 - 1" in err
    assert not out.exists()


def test_eval_scenario_non_ascii_byte_exits_2(workspace, tmp_path, capsys):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    scenario = tmp_path / "sybil.cfg"
    scenario.write_bytes(b"regions = 4  # r\xc3\xa9gions\n")
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    capsys.readouterr()
    assert main(["eval"] + args + ["--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err == f"config error: {scenario}:1: not ASCII\n"
    assert not (out / "eval.csv").exists()


def test_eval_scenario_key_set_twice_exits_2(workspace, tmp_path, capsys):
    root, manifest, _ = workspace
    out = tmp_path / "out"
    scenario = tmp_path / "sybil.cfg"
    scenario.write_text("".join(f"{k} = {v}\n" for k, v in SCENARIO.items()) + "g = 3\n")
    args = ["--manifest", str(manifest), "--out", str(out), "--seed", "5"]
    assert main(["perturb"] + args) == 0
    capsys.readouterr()
    assert main(["eval"] + args + ["--scenario", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{scenario}:{len(SCENARIO) + 1}:" in err and " g " in err
    assert not (out / "eval.csv").exists()


# -- byte-level pins -------------------------------------------------------------
# sha256 digests of CLI outputs on the workspace fixture, recorded before the
# metric rows were split into per-metric producers and before the hay
# comparator drew its fake edges through the shared absent-pair sampler. They
# were re-recorded when the provenance hash came to cover the resolved release
# instead of the settings as spelled, and again when the inter-community form
# left the release settings: each time, with the provenance values and
# provenance.json's config block masked, every file is byte-identical to the
# earlier one. They were re-recorded once more when the standard library came
# to write every JSON and CSV value: split into tokens, each file then differs
# only in its provenance values and in floats spelled in their shortest form,
# each of which parses to the same double as before. The spectral pins (the
# three all-metric ones and the single spectral one) were re-recorded when the
# SLEM came to be read from one dense symmetric eigensolve instead of a power
# iteration whose stop rule fired before it converged: with the slem-* values
# masked, every file is byte-identical to the earlier one, and each new slem-*
# value lies within 2e-15 of numpy's eigvals of the walk matrix (the old ones
# were up to 4.2e-11 off). The linkmirage and static-baseline release, metric
# and eval pins were re-recorded when perturbation draws came to be keyed by
# counters instead of child seed sequences; provenance.json, record.json and
# every hay-baseline pin kept their digests, and the eval rows were checked
# against the tuple-set sampling report and the pairwise Sybil loop of
# test_appeval. The runs use absolute temporary paths, so the pins
# also show that no path enters the outputs.

ALL_METRICS = ",".join(METRICS)


def file_digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:16]
            for name in names}


def run_metrics(workspace, mechanism, metric):
    root, manifest, _ = workspace
    out = root / "out"
    args = ["--manifest", str(manifest), "--out", str(out), "--k", "2",
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
        "g_prime_0.txt": "dce7e93a5dfaa265",
        "g_prime_1.txt": "dce7e93a5dfaa265",
        "provenance.json": "e29897258c20b6a1",
        "record.json": "452acc9a2946f6b7"},
    ("static-baseline", "1"): {
        "g_prime_0.txt": "8449032b4bc7a4fd",
        "g_prime_1.txt": "e37f7130770d6509",
        "provenance.json": "83d8d08fba14276c"},
    ("hay-baseline", "1"): {
        "g_prime_0.txt": "497f9a2d77bce9c2",
        "g_prime_1.txt": "2164e393877478ac",
        "provenance.json": "95ee66bfd228e7dc"},
    ("linkmirage", "2"): {
        "g_prime_0.txt": "e6b0dc19bf2fa6f3",
        "g_prime_1.txt": "e6b0dc19bf2fa6f3",
        "provenance.json": "82dd365755dcd24f",
        "record.json": "3daa63374febbff1"},
    ("static-baseline", "2"): {
        "g_prime_0.txt": "4f9b81156cb07ab8",
        "g_prime_1.txt": "e3d9cfaedf566693",
        "provenance.json": "6ea720af37e3d8fb"},
    ("hay-baseline", "2"): {
        "g_prime_0.txt": "0971e1e408ba0a6a",
        "g_prime_1.txt": "3f77fe16aeb65c4e",
        "provenance.json": "4aa45c4d6f240be8"},
}
METRICS_PINS = {
    "linkmirage": {
        "metrics.csv": "952c56edcb1e16be",
        "metrics.json": "1a4c7060c312a51b",
        "utility_l1.csv": "91a2ddfe0891ea5a",
        "utility_l2.csv": "ff456b56fbeabf5a"},
    "static-baseline": {
        "metrics.csv": "edd7fe5c4e77f280",
        "metrics.json": "c3186d95fb017c20",
        "utility_l1.csv": "9e0546d6746620ea",
        "utility_l2.csv": "228fe3bf6488ebef"},
    "hay-baseline": {
        "metrics.csv": "59996400a9cae98d",
        "metrics.json": "80bc073630c71cc0",
        "utility_l1.csv": "c6c18daf57dc8598",
        "utility_l2.csv": "808f302f5ea1fe08"},
}
METRIC_PINS = {
    "anti-inference": {
        "metrics.csv": "6c2f763a179f50ec",
        "metrics.json": "ddb2bf521628cb98"},
    "indistinguishability": {
        "metrics.csv": "bcb42ca3ee5487f5",
        "metrics.json": "72601d8af5828b3a"},
    "anti-aggregation": {
        "metrics.csv": "1e3fea5df50ab39c",
        "metrics.json": "680824114a9742a5"},
    "ud": {
        "metrics.csv": "d62c7615501c6b41",
        "metrics.json": "4a482a19ea4b93f1",
        "utility_l1.csv": "91a2ddfe0891ea5a",
        "utility_l2.csv": "ff456b56fbeabf5a"},
    "modularity": {
        "metrics.csv": "0381acbf491593e2",
        "metrics.json": "be1f6267c2adae28"},
    "pagerank": {
        "metrics.csv": "2f361cec85fc87b0",
        "metrics.json": "2f591fd88163f008"},
    "structural": {
        "metrics.csv": "fa5a987d89d54274",
        "metrics.json": "c8fd8175ebf8761b"},
    "spectral": {
        "metrics.csv": "bc7765bc9dff9ec2",
        "metrics.json": "74988d278472fd0d"},
}


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("seed", ["1", "2"])
def test_perturb_outputs_pinned(workspace, mechanism, seed):
    root, manifest, _ = workspace
    out = root / "out"
    assert main(["perturb", "--manifest", str(manifest), "--out", str(out),
                 "--mechanism", mechanism, "--seed", seed]) == 0
    got = file_digests(out, sorted(os.listdir(out)))
    assert got == PERTURB_PINS[(mechanism, seed)]


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_metrics_outputs_pinned(workspace, mechanism):
    got = run_metrics(workspace, mechanism, ALL_METRICS)
    assert got == METRICS_PINS[mechanism]


@pytest.mark.parametrize("metric", METRICS)
def test_single_metric_outputs_pinned(workspace, metric):
    got = run_metrics(workspace, "linkmirage", metric)
    assert got == METRIC_PINS[metric]
