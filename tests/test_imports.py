"""Static hygiene: every module-level import in the package is used, and
only ``cli.main`` writes to stdout or stderr.

There is no linter among the dependencies, so this scans the syntax
trees itself.  ``__init__.py`` is exempt from the import check, since its
imports are the public re-exports, and so are ``from __future__``
imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each module-level import, mapped to its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set:
    """Every name the module reads, including inside string annotations
    and the entries of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string may be a forward-reference annotation or an
            # ``__all__`` entry; either way, the names in it count.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def test_package_modules_found():
    assert {"domains.py", "cli.py", "lagrangian.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = {
        name: line for name, line in _imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from typing import Iterable, Optional\n"
        "def f(x: 'Optional[int]'):\n"
        "    return json.dumps(x)\n"
    )
    bound = _imported_names(tree)
    assert bound.keys() == {"json", "os", "Iterable", "Optional"}
    assert {n for n in bound if n not in _used_names(tree)} == {"os", "Iterable"}


def _output_sites(tree: ast.Module, skip: str | None = None) -> list:
    """Line of every use of ``print`` and every ``sys.stdout``/``sys.stderr``
    reference (attribute or ``from sys import``), outside the module-level
    function named ``skip``."""
    skipped = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == skip
        for node in ast.walk(top)
    }
    sites = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and node.id == "print":
            sites.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            sites.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
            alias.name in ("stdout", "stderr") for alias in node.names
        ):
            sites.append(node.lineno)
    return sorted(sites)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_cli_main_writes_output(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = _output_sites(tree, "main" if path.name == "cli.py" else None)
    assert not sites, f"{path.name}: prints or writes to sys.stdout/stderr at lines {sites}"


def test_output_scan_flags_writers():
    tree = ast.parse(
        "import sys\n"
        "from sys import stderr\n"
        "def main():\n"
        "    print('ok', file=sys.stderr)\n"
        "def helper():\n"
        "    sys.stdout.write('x')\n"
        "    say = print\n"
    )
    assert _output_sites(tree, "main") == [2, 6, 7]
    assert _output_sites(tree) == [2, 4, 4, 6, 7]
