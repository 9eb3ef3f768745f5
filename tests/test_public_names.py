"""Every exported name resolves and has a use, and every package name a demo uses exists.

The demos are scanned, not run (together they take about half a minute),
so deleting a public name cannot silently break one.  A public name that
nothing but its own unit test uses is flagged, so that it is deleted or
wired in rather than kept for that test alone.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import exceedlab

ROOT = Path(__file__).resolve().parents[1]
MODULES = [name for name in exceedlab.__all__ if name != "__version__"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Where a use of a public name counts: the package itself, the demos, the
# benchmark and the acceptance criteria, but no unit test.
USERS = [*sorted((ROOT / "src" / "exceedlab").glob("*.py")), *DEMOS,
         *sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"exceedlab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"exceedlab.{module}.__all__ names missing objects: {missing}"


def _used_names(tree: ast.AST, inside: frozenset = frozenset()):
    """Each name the code loads as a variable or attribute, outside a definition of that name.

    Assignments and strings, docstrings among them, are not uses.
    """
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {tree.name}
    if isinstance(getattr(tree, "ctx", None), ast.Load):
        name = tree.id if isinstance(tree, ast.Name) else getattr(tree, "attr", None)
        if name is not None and name not in inside:
            yield name
    for child in ast.iter_child_nodes(tree):
        yield from _used_names(child, inside)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_use_outside_the_unit_tests(module):
    mod = importlib.import_module(f"exceedlab.{module}")
    used = {name for path in USERS for name in _used_names(ast.parse(path.read_text()))}
    unused = [name for name in mod.__all__ if name not in used]
    assert not unused, f"exceedlab.{module}.__all__ names nothing uses: {unused}"


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
