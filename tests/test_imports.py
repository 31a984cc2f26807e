"""Static hygiene: every import in the package is used, functions import
only where a CLI subcommand or the package's name loader loads a layer,
every module-level private name and every module-level constant is read
by some module of the package, every member a planar kind's builder
returns is read outside it, only ``cli.main`` and the process entry
``cli.run`` write to stdout or stderr,
and only ``rationals.Value._stored`` builds a value past its constructor.

There is no linter among the dependencies, so this scans the syntax
trees itself.  ``from __future__`` imports are exempt from the unused
check.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricap"
MODULES = sorted(PACKAGE.glob("*.py"))

# The module-level functions that may import, by module: each CLI
# subcommand imports the layers it runs, the package's loader imports
# every layer on the first use of a public name, and the domain parser
# imports the rectangle-union kind on the first union document.
LAZY_IMPORTERS = {"cli.py": r"_cmd_\w+", "__init__.py": "_load_public_names",
                  "domains.py": "_load_union_kind"}


def _imported_names(statements) -> dict:
    """Name bound by each import among ``statements``, mapped to its line."""
    bound = {}
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _scopes(tree: ast.Module):
    """(name, imports, reader) for the module and each module-level function.

    The module's imports are its top-level import statements, a
    function's are the import statements anywhere in it; the reader is
    the node whose names count as uses of them.
    """
    yield "<module>", _imported_names(tree.body), tree
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, _imported_names(ast.walk(node)), node


def _unused_imports(tree: ast.Module) -> dict:
    """The unused imported names of each scope that has any, mapped to their lines."""
    unused = {}
    for scope, bound, reader in _scopes(tree):
        used = _used_names(reader)
        names = {name: line for name, line in bound.items() if name not in used}
        if names:
            unused[scope] = names
    return unused


def _used_names(tree: ast.AST) -> set:
    """Every name the tree reads, including inside string annotations
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
    unused = _unused_imports(tree)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from typing import Iterable, Optional\n"
        "def f(x: 'Optional[int]'):\n"
        "    return json.dumps(x)\n"
        "def _cmd_g():\n"
        "    from .layer import used, unused\n"
        "    if used():\n"
        "        import re\n"
        "        return re\n"
    )
    assert _imported_names(tree.body).keys() == {"json", "os", "Iterable", "Optional"}
    assert _unused_imports(tree) == {"<module>": {"os": 2, "Iterable": 3},
                                     "_cmd_g": {"unused": 7}}


def _function_imports(tree: ast.Module) -> dict:
    """Lines of the imports inside each module-level function or class, by its name."""
    found = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines = [node.lineno for node in ast.walk(top)
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
            if lines:
                found[top.name] = lines
    return found


def _misplaced_imports(tree: ast.Module, allowed: str | None) -> dict:
    """The function imports outside the functions whose names match ``allowed``."""
    return {name: lines for name, lines in _function_imports(tree).items()
            if allowed is None or not re.fullmatch(allowed, name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_import_only_where_layers_load_lazily(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    misplaced = _misplaced_imports(tree, LAZY_IMPORTERS.get(path.name))
    assert not misplaced, f"{path.name}: imports inside functions {misplaced}"


def test_function_import_scan_flags_misplaced_imports():
    tree = ast.parse(
        "import json\n"
        "def _cmd_info():\n"
        "    from .geometry import delta\n"
        "    return delta\n"
        "def helper():\n"
        "    import os\n"
        "class Thing:\n"
        "    def method(self):\n"
        "        from .ech import action\n"
    )
    assert _function_imports(tree) == {"_cmd_info": [3], "helper": [6], "Thing": [9]}
    assert _misplaced_imports(tree, r"_cmd_\w+") == {"helper": [6], "Thing": [9]}
    assert _misplaced_imports(tree, None) == _function_imports(tree)


def _assigned_names(node: ast.stmt) -> list:
    """The names a statement assigns ([] unless it is an assignment)."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level private function, class and constant names, mapped to their line.

    Dunder names such as ``__all__`` are not private helpers.
    """
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = _assigned_names(node)
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _constants(tree: ast.Module) -> dict:
    """Module-level constant names, public or private, mapped to their line.

    A constant is a name a module-level assignment binds; dunder names such
    as ``__all__`` and ``__version__`` are read by Python or by tools.
    """
    return {
        name: node.lineno
        for node in tree.body
        for name in _assigned_names(node)
        if not name.startswith("__")
    }


def _read_names(tree: ast.Module) -> set:
    """Every name a module reads: loaded names, attribute names and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def _unread(definitions) -> list:
    """``module:line name`` of each name ``definitions(tree)`` finds in a
    package module that no package module reads.

    Only the package's own modules count as readers: a helper or constant
    that only the tests still read is orphaned.
    """
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in MODULES
    }
    read = set().union(*map(_read_names, trees.values()))
    return [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in definitions(tree).items()
        if name not in read
    ]


def test_no_orphaned_private_names():
    orphans = _unread(_private_definitions)
    assert not orphans, f"private names no module reads: {orphans}"


def test_no_unread_module_constants():
    unread = _unread(_constants)
    assert not unread, f"module-level constants no module reads: {unread}"


def test_private_scan_flags_an_orphan():
    tree = ast.parse(
        "_LIMIT = 3\n"
        "_a, _b = 1, 2\n"
        "def _used():\n"
        "    return _LIMIT + _a\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Helper:\n"
        "    pass\n"
        "def public():\n"
        "    return _used()\n"
        "__all__ = ['public']\n"
    )
    defined = _private_definitions(tree)
    assert defined.keys() == {"_LIMIT", "_a", "_b", "_used", "_orphan", "_Helper"}
    read = _read_names(tree) | _read_names(ast.parse("from pkg.mod import _Helper\n"))
    assert {name for name in defined if name not in read} == {"_b", "_orphan"}


def test_constant_scan_flags_an_unread_constant():
    tree = ast.parse(
        "LIMIT = 3\n"
        "ZERO: int = 0\n"
        "A, (B, _c) = 1, (2, 3)\n"
        "__version__ = '1'\n"
        "def f():\n"
        "    local = 1\n"
        "    return LIMIT + _c + local\n"
        "class Thing:\n"
        "    FIELD = 1\n"
    )
    defined = _constants(tree)
    assert defined == {"LIMIT": 1, "ZERO": 2, "A": 3, "B": 3, "_c": 3}
    read = _read_names(tree) | _read_names(ast.parse("from pkg.mod import B\n"))
    assert {name for name in defined if name not in read} == {"ZERO", "A"}


def _outside(tree: ast.Module, *skip: str):
    """Every node of the tree outside the module-level functions named in ``skip``."""
    skipped = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name in skip
        for node in ast.walk(top)
    }
    return (node for node in ast.walk(tree) if id(node) not in skipped)


def _output_sites(tree: ast.Module, *skip: str) -> list:
    """Line of every use of ``print`` and every ``sys.stdout``/``sys.stderr``
    reference (attribute or ``from sys import``), outside the module-level
    functions named in ``skip``."""
    sites = []
    for node in _outside(tree, *skip):
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


# The functions that may write to stdout or stderr, by module: main writes a
# subcommand's output or error line, and the process entry run flushes stdout
# and reports output that cannot be written.
WRITERS = {"cli.py": ("main", "run")}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_cli_main_writes_output(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = _output_sites(tree, *WRITERS.get(path.name, ()))
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
    assert _output_sites(tree, "main", "helper") == [2]
    assert _output_sites(tree) == [2, 4, 4, 6, 7]


# The functions whose returned dict a planar kind's constructor keeps in
# its instance ``__dict__``, by module.
MEMBER_BUILDERS = {"domains.py": "_canonical_chain", "unions.py": "_coverage"}


def _returned_keys(tree: ast.Module, builder: str) -> dict:
    """The string keys of the dicts that the module-level function
    ``builder`` returns, mapped to their line."""
    function, = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == builder)
    return {
        key.value: key.lineno
        for node in ast.walk(function)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
        for key in node.value.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _attributes_read(tree: ast.Module, *skip: str) -> set:
    """Every attribute name the tree loads, outside the module-level functions in ``skip``."""
    return {node.attr for node in _outside(tree, *skip)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unread_members(trees: dict, builders: dict) -> list:
    """``module:line key`` of each key a builder returns that no code reads
    as an attribute outside the builder.

    A private key is the kind's own, so only its module's code counts as
    a reader; a public key is an invariant of the domain protocol, read
    anywhere in the package.  A name that another kind stores and reads
    (``_q``, which both planar kinds keep) does not hide a key its own
    module never reads.
    """
    unread = []
    for module, builder in builders.items():
        own = _attributes_read(trees[module], builder)
        anywhere = own.union(*(_attributes_read(tree) for name, tree in trees.items()
                               if name != module))
        unread += [f"{module}:{line} {key}"
                   for key, line in _returned_keys(trees[module], builder).items()
                   if key not in (own if key.startswith("_") else anywhere)]
    return unread


def test_every_stored_member_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    for module, builder in MEMBER_BUILDERS.items():
        assert {"_q", "eta"} <= _returned_keys(trees[module], builder).keys(), builder
    unread = _unread_members(trees, MEMBER_BUILDERS)
    assert not unread, f"members no code reads outside their builder: {unread}"


def test_member_scan_flags_an_unread_key():
    kind = ast.parse(
        "def build(x):\n"
        "    if not x:\n"
        "        raise ValueError(x._b)\n"
        "    return {'_a': 0, 'c': 1, '_b': 2,\n"
        "            'd': 3}\n"
        "class Kind:\n"
        "    def __init__(self):\n"
        "        self.__dict__.update(build(1))\n"
        "    def total(self):\n"
        "        return self._a + self.d\n"
    )
    other = ast.parse("def f(kind):\n    return kind.c + kind._b + kind.d\n")
    assert _returned_keys(kind, "build") == {"_a": 4, "c": 4, "_b": 4, "d": 5}
    # ``_b`` is read only inside the builder and in another module.
    assert _unread_members({"kind.py": kind, "other.py": other}, {"kind.py": "build"}) == [
        "kind.py:4 _b"]
    assert _unread_members({"kind.py": kind}, {"kind.py": "build"}) == [
        "kind.py:4 c", "kind.py:4 _b"]


def _new_reads(tree: ast.Module) -> list:
    """``(line, scope)`` of each read of ``__new__``, as an attribute or as
    a string, ``scope`` being the dotted names of the classes and functions
    around it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "__new__"
              or isinstance(node, ast.Constant) and node.value == "__new__"):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_values_are_built_unchecked_only_by_value_stored():
    # A value is built past its constructor only through ``Value._stored``,
    # and each caller states why the checks it skips hold.
    reads = [(path.name, scope) for path in MODULES
             for _, scope in _new_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert reads == [("rationals.py", "Value._stored")]


def test_unchecked_build_scan_flags_outside_calls():
    tree = ast.parse(
        "class Value:\n"
        "    @classmethod\n"
        "    def _stored(cls, **attrs):\n"
        "        return cls.__new__(cls)\n"
        "    def copy(self):\n"
        "        return type(self).__new__(type(self))\n"
        "class Box(Value):\n"
        "    @classmethod\n"
        "    def _stored(cls):\n"
        "        return object.__new__(cls)\n"
        "def build(cls):\n"
        "    return getattr(cls, '__new__')(cls)\n"
    )
    assert _new_reads(tree) == [(4, "Value._stored"), (6, "Value.copy"),
                                (10, "Box._stored"), (12, "build")]
