"""Smoke test: every demo script runs to completion, and imports the
package before numpy."""

import ast
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
                           "-W", "error::PendingDeprecationWarning",
                           "-W", "error::ResourceWarning", path],
                          env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def _imported_packages(path):
    """Top-level packages of the module-level imports of path, in order."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_nordlimit_before_numpy(path):
    # the package pins BLAS to one thread only if numpy is not loaded yet;
    # the runs above inherit the pin from this process, so they cannot
    # show a demo that imports numpy first
    packages = list(_imported_packages(path))
    assert "nordlimit" in packages
    if "numpy" in packages:
        assert packages.index("nordlimit") < packages.index("numpy")
