"""Every narrative demo script runs cleanly and prints its golden stdout.

Each golden, ``tests/golden/demo_<name>.txt``, is the stdout of
``python demos/<name>.py``; the demos print exact rationals and enum
values only, so their output is the same on every run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    cp = subprocess.run([sys.executable, str(demo)], capture_output=True)
    assert cp.returncode == 0, cp.stderr.decode()
    assert cp.stderr == b""
    assert cp.stdout == (TESTS / "golden" / f"demo_{demo.stem}.txt").read_bytes()
