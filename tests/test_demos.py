"""The narrative demos run to completion against the current library API and
print the text pinned below."""

import functools
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of each demo's stdout; two runs print the same bytes
STDOUT_SHA256 = {
    "perturbation_demo.py": "e38764756b2fd29329bc36fbf5391c259a9775170c6a42699d3f3160c34592e0",
    "utility_demo.py": "3db018b2e7a45599bb004fc9b1eeca08585760afa28d376e4df222fe59317f9c",
    "applications_demo.py": "1e96cf99d972967ac4c7c8fd3d573dc5b5f37f56e39ca93f7de6c4cbbe8fecb3",
    "privacy_demo.py": "2e8adacbb2f8329550f094790f07a4744099f54d2f62923e1cbd2b887b90e67e",
}


@functools.lru_cache(maxsize=None)
def run_demo(demo) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=ROOT, env=env, capture_output=True, timeout=300)


@pytest.mark.parametrize("demo", list(STDOUT_SHA256))
def test_demo_exits_zero(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]


@pytest.mark.parametrize("demo", list(STDOUT_SHA256))
def test_demo_stdout_pinned(demo):
    assert hashlib.sha256(run_demo(demo).stdout).hexdigest() == STDOUT_SHA256[demo]
