import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# each workload's tiny instance, run as the benchmark runs a task: built once,
# then prepared, run and checked twice (the second task must equal the first)
TINY_TASKS = f"""
import sys, tempfile
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import linkmirage, linkmirage.cli
from workloads import WORKLOADS
for name in ("release", "audit", "analytics"):
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[name](linkmirage, 1, workdir)
        workload.build(workload.tiny)
        for _ in range(2):
            workload.prepare()
            problems = workload.check(workload.run())
            assert not problems, (name, problems)
        assert workload.values["invalid_record_frac"] == 0.0, name
"""


def run_python(args, cwd):
    # -B: no bytecode lands under perfbench/
    return subprocess.run([sys.executable, "-B", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_benchmark_workloads_pass_their_checks(tmp_path):
    # a library change that breaks a workload's checks fails every benchmark
    # task, so the tiny workloads and the benchmark's self-test run here too
    done = run_python(["-c", TINY_TASKS], tmp_path)
    assert done.returncode == 0, done.stderr
    done = run_python([str(ROOT / "perfbench" / "selftest.py")], ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
