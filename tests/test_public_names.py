"""Every exported name resolves, and every package name a demo uses exists.

The demos are scanned, not run (together they take about half a minute),
so deleting a public name cannot silently break one.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import exceedlab

MODULES = [name for name in exceedlab.__all__ if name != "__version__"]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"exceedlab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"exceedlab.{module}.__all__ names missing objects: {missing}"


def _package_names(tree: ast.Module):
    """(line, dotted name, object or None) for each package name the code uses."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("exceedlab"):
            for alias in node.names:
                if node.module == "exceedlab":
                    aliases[alias.asname or alias.name] = importlib.import_module(
                        f"exceedlab.{alias.name}")
                else:
                    mod = importlib.import_module(node.module)
                    yield node.lineno, f"{node.module}.{alias.name}", getattr(
                        mod, alias.name, None)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not (isinstance(node, ast.Name) and node.id in aliases):
            continue
        obj, name = aliases[node.id], node.id
        for attr in reversed(chain):
            if not (inspect.ismodule(obj) or inspect.isclass(obj)):
                break  # an instance attribute; not a static name
            name = f"{name}.{attr}"
            obj = getattr(obj, attr, None)
            yield node.lineno, name, obj
            if obj is None:
                break


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_uses_only_existing_names(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    used = list(_package_names(tree))
    assert used, f"{demo.name} uses no exceedlab name"
    missing = [f"line {line}: {name}" for line, name, obj in used if obj is None]
    assert not missing, f"{demo.name} uses names the package lacks: {missing}"
