"""Smoke test: every narrative demo script runs cleanly."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    cp = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
