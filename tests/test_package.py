"""What the package holds: every name the benchmark binds resolves in
it, and every module uses what it imports.

Both are read from source with `ast`; nothing under bench/ is imported
or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import invsub

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(invsub.__file__).resolve().parent


def _module_constants(path, names):
    """The literal values assigned at module level to `names`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    assert set(found) == set(names), path.name
    return found


def _tracer_bindings():
    """Every (module, attribute path) bench/tracer.py wraps."""
    consts = _module_constants(BENCH / "tracer.py", (
        "SPANNED", "COUNTED_FUNCTIONS", "COUNTED_METHODS"))
    out = [(mod, (name,)) for mod, names in consts["SPANNED"].items()
           for name in names]
    out += [(mod, (name,)) for mod, name in consts["COUNTED_FUNCTIONS"]]
    out += [(mod, (cls, meth)) for mod, cls, meth in consts["COUNTED_METHODS"]]
    return out


def _worker_bindings():
    """Every attribute chain bench/worker.py reads off an imported invsub
    module (`inv.X`, `inv.X.y`, `fpl.Y`), as (module, attribute path)."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    aliases = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "invsub" and alias.asname:
                    aliases[alias.asname] = alias.name
    assert set(aliases.values()) >= {"invsub", "invsub.fplinalg"}
    chains = set()
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases and path:
            chains.add((aliases[node.id], tuple(reversed(path))))
    return sorted(chains)


@pytest.mark.parametrize("module, path", _tracer_bindings(),
                         ids=lambda x: ".".join(x) if isinstance(x, tuple)
                         else x)
def test_every_traced_name_resolves(module, path):
    # bench/tracer.py finds these by name in sys.modules; a removed or
    # renamed one would otherwise fail only the traced benchmark run.
    obj = importlib.import_module(f"invsub.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_every_worker_binding_resolves():
    bindings = _worker_bindings()
    assert {module for module, _ in bindings} == {"invsub", "invsub.fplinalg"}
    missing = []
    for module, path in bindings:
        obj = importlib.import_module(module)
        for attr in path:
            if not hasattr(obj, attr):
                missing.append(f"{module}.{'.'.join(path)}")
                break
            obj = getattr(obj, attr)
    assert not missing


def _imported_names(tree):
    """The name each module-level import binds, with its line."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused
