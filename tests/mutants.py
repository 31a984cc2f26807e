"""Run the mutant table: each committed mutant must fail its named test.

Each row of ``tests/mutants.tsv`` names a file, a text that occurs in it
exactly once, the text put in its place and the pytest id of a test that
must fail on the result.  The runner copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory and works there alone, so the
checkout is never written.  On the unpatched copy every named test must
pass; then each row patches its file, runs its test and restores the file.

Run it from anywhere: ``python tests/mutants.py``.  It prints one line per
row and exits with status 1 if any row is not killed or is malformed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.tsv"


def rows() -> list:
    """The table's rows, as (file, old, new, test) tuples."""
    lines = [line for line in TABLE.read_text().splitlines()
             if line and not line.startswith("#")]
    out = [tuple(line.split("\t")) for line in lines[1:]]
    bad = [row for row in out if len(row) != 4]
    if bad:
        raise SystemExit(f"malformed rows in {TABLE.name}: {bad}")
    return out


def passes(copy: Path, *tests: str) -> bool:
    """Whether pytest passes the given tests in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cp = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                         *tests], cwd=copy, env=env, capture_output=True, text=True)
    return cp.returncode == 0


def main() -> int:
    table = rows()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if not passes(copy, *sorted({test for *_, test in table})):
            print("the named tests fail on the unpatched copy")
            return 1
        failures = 0
        for file, old, new, test in table:
            path = copy / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"MALFORMED {file}: {old!r} occurs {text.count(old)} times")
                failures += 1
                continue
            path.write_text(text.replace(old, new))
            killed = not passes(copy, test)
            path.write_text(text)
            print(f"{'killed' if killed else 'SURVIVED'} {file}: {old!r} -> {new!r} by {test}")
            failures += not killed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
