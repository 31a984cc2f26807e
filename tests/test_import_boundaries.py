"""Which layers ``import toricap`` and each CLI subcommand load.

``import toricap`` loads no layer module until a public name is used,
each subcommand imports only the layers it runs, and only a process that
reads a union document loads the union kind.  No toricap process loads
``argparse``, ``csv``, ``dataclasses``, ``gettext``, ``inspect``,
``locale``, ``pathlib`` or ``typing``.  Module loading is process-wide
state, so every check on it runs in a fresh child interpreter, started
with ``-S`` so that ``site`` preloads nothing; the conftest puts the
package's ``src`` directory on its ``PYTHONPATH``.
"""

import importlib
import json
import subprocess
import sys

import pytest

import toricap

# The modules every CLI process loads: the package, the front end, and
# the domain parser with the error types and rational helpers it needs.
CLI_BASE = {"toricap", "toricap.cli", "toricap.domains", "toricap.errors",
            "toricap.rationals"}

# Standard-library modules that no toricap process needs: the value types
# are built without ``dataclasses`` (which loads ``inspect``), ``typing``
# names appear only in annotations, which are never evaluated, and a CSV
# cell never needs quoting, so rows are joined without ``csv``.  The CLI
# reads its arguments from its own table, without ``argparse`` (which
# loads ``gettext``, whose first translation loads ``locale``), and opens
# a domain file without ``pathlib``.
HEAVY = ("argparse", "csv", "dataclasses", "gettext", "inspect", "locale", "pathlib", "typing")

# Runs the CLI in-process with stdout captured, then prints the exit
# status, the loaded toricap modules and the loaded HEAVY modules as one
# JSON line.
RUN_CLI = f"""
import contextlib, io, json, sys
from toricap.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("toricap")),
                  [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def _child(code: str, *args: str) -> str:
    cp = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                        text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr
    return cp.stdout


@pytest.fixture
def omega_file(tmp_path):
    path = tmp_path / "omega.json"
    path.write_text(
        '{"kind":"polygon2d","vertices":[["2/5","0"],["7/10","3/10"],'
        '["3/10","7/10"],["0","2/5"]]}'
    )
    return str(path)


@pytest.fixture
def union_file(tmp_path):
    path = tmp_path / "union.json"
    path.write_text(
        '{"kind":"rectilinear2d","rects":[{"x0":"0","x1":"1","y0":"0","y1":"1/2"},'
        '{"x0":"0","x1":"1/2","y0":"0","y1":"1"}]}'
    )
    return str(path)


def test_import_toricap_loads_no_layer():
    # A misspelt name raises AttributeError without loading anything.
    code = ("import sys, toricap\n"
            "print(hasattr(toricap, 'capacity_reprot'), 'delta' in vars(toricap))\n"
            "print(sorted(m for m in sys.modules if m.startswith('toricap')))")
    assert _child(code).splitlines() == ["False False", "['toricap']"]


# Each subcommand, and the layers it loads beyond CLI_BASE.
SUBCOMMANDS = [
    # Info, a report and the obstruction search read the invariants as the
    # domain's own members.
    (["info", "{omega}"], set()),
    (["report", "{omega}"], {"capacities", "lagrangian"}),
    (["xa", "--a", "1/3"], {"capacities", "lagrangian"}),
    (["bound", "{omega}"], {"capacities", "geometry", "lagrangian"}),
    (["obstruct", "--source", "{omega}", "--target", "{omega}", "--alpha", "e(1,1)",
      "--vmax", "2", "--lmax", "2"], {"ech"}),
    (["amin", "--x", "2/3,1/2", "--brute", "5"], {"lagrangian"}),
    # A union document loads the union kind too; no polygon case does.
    (["info", "{union}"], {"unions"}),
    (["report", "{union}"], {"capacities", "lagrangian", "unions"}),
]


@pytest.mark.parametrize("argv, layers", SUBCOMMANDS,
                         ids=[a[0] + ("-union" if "{union}" in a else "") for a, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_layers(argv, layers, omega_file, union_file):
    argv = [arg.format(omega=omega_file, union=union_file) for arg in argv]
    status, loaded, heavy = json.loads(_child(RUN_CLI, *argv))
    assert status == 0
    assert set(loaded) == CLI_BASE | {f"toricap.{layer}" for layer in layers}
    assert heavy == []


@pytest.mark.parametrize("argv", [["report", "--format", "csv", "{omega}"],
                                  ["xa", "--sweep", "1/10..2/5:1/10", "--format", "csv"]],
                         ids=["report", "xa"])
def test_csv_output_loads_no_csv(argv, omega_file):
    argv = [arg.format(omega=omega_file) for arg in argv]
    status, loaded, heavy = json.loads(_child(RUN_CLI, *argv))
    assert status == 0 and heavy == []
    assert set(loaded) == CLI_BASE | {"toricap.capacities", "toricap.lagrangian"}


@pytest.mark.parametrize("first", ["delta", "ech"])
def test_first_access_binds_the_whole_namespace(first):
    # A public name or a layer module, read first, loads every layer.
    code = ("import toricap\n"
            f"toricap.{first}\n"
            "names = vars(toricap)\n"
            "print(all(name in names for name in toricap.__all__))\n"
            "print(all(layer in names for layer in toricap._EXPORTS))\n"
            "print('__getattr__' in names)\n"
            "import sys\n"
            f"print([m for m in {HEAVY!r} if m in sys.modules])")
    assert _child(code).splitlines() == ["True", "True", "False", "[]"]


def test_public_names_are_their_defining_objects():
    for module, names in toricap._EXPORTS.items():
        layer = importlib.import_module(f"toricap.{module}")
        for name in names:
            obj = getattr(toricap, name)
            assert obj is getattr(layer, name), name
            assert obj.__module__ == layer.__name__, name
    assert sorted(toricap.__all__) == toricap.__all__
    assert len(set(toricap.__all__)) == len(toricap.__all__)
    # The union kind is defined in its own module, and ``domains`` keeps no
    # name for it.
    assert toricap._EXPORTS["unions"] == ("Rect", "Rectilinear2D")
    assert not {"Rect", "Rectilinear2D"} & set(vars(importlib.import_module("toricap.domains")))


def test_star_import_binds_every_public_name():
    # In a fresh interpreter, so that the star import is the first access.
    code = ("namespace = {}\n"
            "exec('from toricap import *', namespace)\n"
            "import toricap\n"
            "print(sorted(set(namespace) - {'__builtins__'}) == toricap.__all__)\n"
            "print(all(namespace[name] is getattr(toricap, name) for name in toricap.__all__))")
    assert _child(code).splitlines() == ["True", "True"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="capacity_reprot"):
        toricap.capacity_reprot
    with pytest.raises(ImportError):
        exec("from toricap import capacity_reprot", {})
    assert set(toricap.__all__) <= set(dir(toricap))
