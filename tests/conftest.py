import os
import sys
from pathlib import Path

# Make the sibling generators module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

# pytest puts src/ on its own path (pyproject.toml); the child processes that
# run the CLI and the demos import the package from this checkout as well.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)
