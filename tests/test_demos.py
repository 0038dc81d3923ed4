"""Smoke test of the demos: each runs as a script, exits cleanly and prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
