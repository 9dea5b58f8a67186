"""Benchmark for linkmirage: release, audit and analytics workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload release --seed 1 --seconds 20 --trace 0

It imports linkmirage from the checkout's ``src`` directory, builds the
workload's inputs from ``--seed`` (several times, to time set-up), repeats the
workload's task for about ``--seconds`` seconds, checks every task's outputs,
prints a readable report, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced tasks and reports the per-layer metrics: self time and
calls per task from spans recorded around the calls between linkmirage's
modules (see tracer.py), counters read from the outputs, the top-level spans'
share of traced task time, and the tracing overhead. ``--workload all`` runs
each workload in a fresh process of its own and merges their results.
"""

from __future__ import annotations

import os
import sys

# compile linkmirage afresh in every run (import time is part of setup_s) and
# leave no bytecode in the checkout
sys.dont_write_bytecode = True

# one thread: the workloads are single-threaded and steadier that way
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("release", "audit", "analytics")
SETUP_REPEATS = 3
MIN_TASKS = 2       # release compares the output digests of two tasks

END_TO_END = [
    ("task_s", "s"),          # release_s, audit_s or analytics_s
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# per-layer call counts: metric -> span name
CALL_COUNTS = {
    "graphs.edge_set.calls": "graphs.edge_set",
    "graphs.Graph.calls": "graphs.Graph",
    "perturb.build_step_plan.calls": "perturb.build_step_plan",
    "perturb.perturb_static.calls": "perturb.perturb_static",
    "markov.walk_terminals.calls": "markov.walk_terminals",
    "privacy.samples": "privacy.sample_features",
}
# per-layer metrics read from returned values and outputs: (name, unit, better)
VALUE_METRICS = [
    ("markov.walkers", "count", "lower"),
    ("clustering.freed_frac", "fraction", "lower"),
    ("clustering.communities_t0", "count", "lower"),
    ("clustering.communities", "count", "lower"),
    ("perturb.changed_frac", "fraction", "lower"),
    ("perturb.reused_edge_frac", "fraction", "higher"),
    ("perturb.invalid_records", "count", "lower"),
    ("reporting.record_json_bytes", "bytes", "lower"),
    ("privacy.match_frac", "fraction", "higher"),
    ("privacy.degenerate", "count", "lower"),
    ("error_rate", "fraction", "lower"),
    ("invalid_record_frac", "fraction", "lower"),
    ("entropy_bits", "bits", "higher"),
    ("ud_l2", "ratio", "lower"),
    ("anti_agg", "ratio", "higher"),
    ("sampling_p", "ratio", "lower"),
    ("trace.top_cover", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.missing", "count", "lower"),
]
# quality figures printed with the end-to-end report of the workloads that
# produce them
REPORTED_VALUES = ("error_rate", "invalid_record_frac", "entropy_bits", "ud_l2",
                   "anti_agg", "sampling_p")


def per_layer_metrics(sites) -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{name}.s", "s", "lower") for name in sites]
    out += [(name, "count", "lower") for name in CALL_COUNTS]
    return out + VALUE_METRICS


def import_linkmirage():
    """Import linkmirage from this checkout's src, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "linkmirage", "__init__.py")):
        print(f"error: no linkmirage sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import linkmirage
    import linkmirage.cli  # noqa: F401  (the release task calls cli.main)
    if os.path.dirname(os.path.dirname(os.path.abspath(linkmirage.__file__))) != SRC:
        print(f"error: imported linkmirage from {linkmirage.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return linkmirage


def run_workload(args) -> dict:
    from speed import Timed
    with Timed() as importing:
        lm = import_linkmirage()
    from tracer import SITES, Tracer
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](lm, args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            with Timed() as setting_up:
                workload.warmup()
                workload.setup()
            setups.append(setting_up.nominal_s)

        tracer = Tracer() if args.trace else None
        untraced, traced, walls, slowdowns = [], [], [], []
        attempted = failed = 0
        peak_rss_mb = None
        begin = time.perf_counter()
        while True:
            use_tracer = tracer is not None and attempted % 2 == 1
            attempted += 1
            workload.prepare()
            gc.collect()
            if use_tracer:
                tracer.install()
            timing = Timed()
            try:
                try:
                    with timing:
                        result = workload.run()
                finally:
                    if use_tracer:
                        tracer.uninstall()
                        # spans to nominal speed, less the sampling work in them
                        tracer.fold(timing.nominal_s / timing.wall)
                    if peak_rss_mb is None:
                        # before any output check can allocate
                        peak_rss_mb = resource.getrusage(
                            resource.RUSAGE_SELF).ru_maxrss / 1024.0
                problems = workload.check(result)
            except Exception:
                problems = ["task raised:\n" + traceback.format_exc()]
            (traced if use_tracer else untraced).append(timing.nominal_s)
            walls.append(timing.wall)
            slowdowns.append(timing.slowdown)
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            failed += bool(problems)
            spent = time.perf_counter() - begin
            if attempted >= MIN_TASKS and spent + timing.wall > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    values = dict(workload.values, error_rate=failed / attempted)
    task_s = statistics.median(untraced)
    report = {
        "workload": args.workload, "task_metric": workload.task_metric,
        "attempted": attempted, "failed": failed, "untraced": untraced,
        "walls": walls, "slowdowns": slowdowns, "values": values,
        "end_to_end": {
            "task_s": task_s,
            "setup_s": importing.nominal_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        n = len(traced)
        layer = {f"{name}.s": tracer.self_s.get(name, 0.0) / n for name in SITES}
        layer.update({metric: tracer.calls.get(name, 0) / n
                      for metric, name in CALL_COUNTS.items()})
        layer["markov.walkers"] = tracer.counters.get("markov.walkers", 0) / n
        layer["trace.top_cover"] = tracer.top_level_s / sum(traced)
        layer["trace.overhead_frac"] = statistics.median(traced) / task_s - 1.0
        layer["trace.missing"] = len(tracer.missing_names())
        for name, _unit, _better in VALUE_METRICS:
            if name in values:
                layer[name] = values[name]
        report["traced"] = traced
        report["missing_sites"] = tracer.missing
        report["per_layer"] = {name: layer.get(name, 0.0)
                               for name, _u, _b in per_layer_metrics(SITES)}
        report["not_measured"] = sorted(set(report["per_layer"]) - set(layer))
    return report


def print_report(report, trace: bool) -> None:
    name = report["workload"]
    print(f"[{name}] tasks {report['attempted']} (failed {report['failed']}); "
          f"wall s {[round(x, 3) for x in report['walls']]}, host slowdown "
          f"{[round(x, 3) for x in report['slowdowns']]}, untraced nominal s "
          f"{[round(x, 3) for x in report['untraced']]}")
    e2e = report["end_to_end"]
    rows = [(report["task_metric"], e2e["task_s"], "s"),
            ("setup_s", e2e["setup_s"], "s"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB")]
    units = {n: u for n, u, _b in VALUE_METRICS}
    rows += [(n, report["values"][n], units[n]) for n in REPORTED_VALUES
             if n in report["values"]]
    for metric, value, unit in rows:
        print(f"  {metric:<22} {value:>14.6g} {unit}")
    if trace:
        from tracer import SITES
        print(f"[{name}] per layer (per traced task, {len(report['traced'])} traced)")
        for metric, unit, _b in per_layer_metrics(SITES):
            value = report["per_layer"][metric]
            note = "  (not measured here)" if metric in report["not_measured"] else ""
            print(f"  {metric:<40} {value:>14.6g} {unit}{note}")
        for path in report["missing_sites"]:
            print(f"  missing: {path}")


def result_line(report, trace: bool) -> dict:
    if trace:
        from tracer import SITES
        metrics = {n: {"value": report["per_layer"][n], "unit": u}
                   for n, u, _b in per_layer_metrics(SITES)}
    else:
        metrics = {n: {"value": report["end_to_end"][n], "unit": u}
                   for n, u in END_TO_END}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args)
    print_report(report, bool(args.trace))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
