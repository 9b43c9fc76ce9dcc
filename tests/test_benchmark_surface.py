"""The library surface the benchmark in ``perfbench/`` relies on still exists.

The benchmark lives beside the library and changes apart from it, so a
library name it imports or calls that goes away would show up only as a
failed benchmark run, and so would a renamed parameter that a call passes
by keyword. These tests read the benchmark's sources with ``ast`` and do
not import them: importing ``workloads`` installs a process-wide
warnings filter, which would hide the library's own warnings from the
tests that check them.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from dnls3.config import parse_config
from dnls3.grid import Grid, State
from dnls3.ground_state import SolverConfig

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(BENCH.glob("*.py"))}


def _library_imports():
    """(source file, module, name) for each name a benchmark file imports from the library."""
    found = []
    for source, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dnls3":
                found.extend((source, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend((source, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "dnls3")
    return found


IMPORTS = _library_imports()


def _library_calls():
    """(source file, module, name, call node) for each call of a name a benchmark file imports from the library."""
    found = []
    for source, tree in TREES.items():
        names = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dnls3"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
                found.append((source, *names[node.func.id], node))
    return found


CALLS = _library_calls()

# methods the benchmark calls on library objects, beside the names it imports
METHODS = [(Grid, "product_sum"), (State, "is_finite")]


def test_benchmark_sources_are_read():
    # an empty scan would pass every case below
    assert {"layers.py", "workloads.py", "gates.py"} <= set(TREES)
    assert {source for source, _, _ in IMPORTS} >= {"layers.py", "workloads.py", "gates.py"}


def test_imported_names_resolve():
    missing = [
        f"{source}: {module}.{name}"
        for source, module, name in IMPORTS
        if name is not None and not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


@pytest.mark.parametrize("cls, name", METHODS, ids=[f"{c.__name__}.{n}" for c, n in METHODS])
def test_called_method_exists(cls, name):
    called = {node.attr for tree in TREES.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    # a method the benchmark no longer calls should leave this list
    assert name in called
    assert callable(getattr(cls, name, None))


@pytest.mark.parametrize(
    "source, module, name, call",
    CALLS,
    ids=[f"{source}:{name}({','.join(k.arg or '**' for k in call.keywords)})" for source, _, name, call in CALLS],
)
def test_call_binds_to_the_signature(source, module, name, call):
    # a call with *args or **kwargs is bound in part: the keywords it names must still be parameters
    unpacked = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
    args = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
    kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
    signature = inspect.signature(getattr(importlib.import_module(module), name))
    (signature.bind_partial if unpacked else signature.bind)(*args, **kwargs)


def test_calls_are_read():
    # the calls the benchmark makes by keyword, among them the ones this surface must keep
    keyworded = {(name, k.arg) for _, _, name, call in CALLS for k in call.keywords}
    assert {
        ("EvolutionTrace", "orbit_distance"),
        ("SolverConfig", "restarts"),
        ("stability_experiment", "seed"),
        ("parse_config", "experiment"),
    } <= keyworded


def test_restarts_setting_accepted():
    assert SolverConfig(restarts=1).restarts == 1
    doc = {
        "physics": {"alpha": 1, "beta": 1, "gamma": 1},
        "wave": {"omega": 1, "c": [0.3]},
        "grid": {"d": 1, "n": [512], "extent": [40]},
        "solver": {"restarts": 3},
    }
    assert parse_config(json.dumps(doc), experiment="gs").solver.restarts == 3
