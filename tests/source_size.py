"""Print each module's source size under ``src/toricap``; it gates nothing.

For each module: its count of non-blank, non-comment lines, the same
count without the lines of docstrings, and both sums over the package.
Run it from anywhere: ``python tests/source_size.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLANK_OR_COMMENT = re.compile(r"\s*(#|$)")


def docstring_lines(text: str) -> set:
    """The line numbers of the module, class and function docstrings of ``text``."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def main() -> None:
    totals = [0, 0]
    for path in sorted((ROOT / "src" / "toricap").glob("*.py")):
        text = path.read_text()
        docstrings = docstring_lines(text)
        lines = [n for n, line in enumerate(text.split("\n"), 1)
                 if not BLANK_OR_COMMENT.match(line)]
        counts = len(lines), sum(n not in docstrings for n in lines)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.relative_to(ROOT)}:{counts[0]} (without docstrings: {counts[1]})")
    print(f"total: {totals[0]} (without docstrings: {totals[1]})")


if __name__ == "__main__":
    main()
