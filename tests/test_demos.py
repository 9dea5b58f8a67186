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
    "perturbation_demo.py": "4d9f64a295e7270a2cf0a96a33509b1b31d876dde909f7ccf27f48833dece5aa",
    "utility_demo.py": "db916641f045056a873951075e9b57e7654ff4b251a56174184bb559d4aec983",
    "applications_demo.py": "ed7dbc1b71ef4bb5e16faeab83541c9fee71098b28ff03224d8eb258def62d1f",
    "privacy_demo.py": "61115c7c56a973ca2d99a0032b44b83dc18f7fbd4498094fe2ff2a1543365052",
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
