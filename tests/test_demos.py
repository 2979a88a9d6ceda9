"""Smoke test: every demo script runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import nordlimit

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_0(path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nordlimit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # the suite's warnings-as-errors settings, in the demo's own interpreter
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::DeprecationWarning",
                           "-W", "error::PendingDeprecationWarning", path],
                          env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
