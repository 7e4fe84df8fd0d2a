"""No package module imports a name that it neither uses nor exports,
and no module-level private name goes unread by the package.

No linter runs on this repository, so this walks each module's syntax
tree: a module-level import must be read somewhere in the module or be
listed in its __all__. The package's __init__ imports only to re-export
and is not walked for imports. A module-level private name (one leading
underscore) must be read somewhere in the package, by name, as an
attribute or through a from-import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tryonlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Imports kept unused so that a binding of the benchmark's tracer
# (perfbench/tracer.py) resolves on that module; each goes when the
# benchmark stops binding it.
PINNED = {
    ("sampler", "e_total"): 'self._bind([sampler], "e_total"',
    ("vtid", "grid_read"): 'self._bind([grids, vtid, experiments], "grid_read"',
}


def unused_imports(path: Path) -> set[str]:
    """The names bound by module-level imports of the module at path that
    no expression reads and __all__ does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return imported - read - exported


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used_or_exported(module):
    pinned = {name for m, name in PINNED if m == module}
    assert unused_imports(PACKAGE / f"{module}.py") - pinned == set()


@pytest.mark.parametrize("module, name", sorted(PINNED))
def test_each_pinned_import_is_unused_and_still_bound_by_the_tracer(module, name):
    assert name in unused_imports(PACKAGE / f"{module}.py")
    assert PINNED[module, name] in (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")


def test_catches_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau as turn, e\n"
        "__all__ = ['e']\n"
        "def f(x: np.ndarray) -> float:\n    return pi\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == {"os", "turn"}


def private_names(tree: ast.Module) -> set[str]:
    """The single-underscore names that the module's top-level defs,
    classes and assignments bind."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: Name loads, attribute names and the names
    of its from-imports."""
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(a.name for a in n.names)
    return read


def unread_private_names(package: Path) -> set[tuple[str, str]]:
    """(module, name) of each module-level private name in the package at
    package that none of its modules reads."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    read = set().union(*map(read_names, trees.values()))
    return {(m, name) for m, tree in trees.items() for name in private_names(tree) - read}


def test_every_private_name_is_read():
    assert unread_private_names(PACKAGE) == set()


def test_catches_an_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "_SHARED, _LOCAL = 1, 2\n_UNREAD: int = 3\n__dunder__ = 4\n"
        "def _helper():\n    return _LOCAL\n"
        "class _Unused:\n    pass\n"
        "def public(x):\n    return _helper() + x._attr\n"
        "def _attr():\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import _SHARED\n", encoding="utf-8")
    assert unread_private_names(tmp_path) == {("a", "_UNREAD"), ("a", "_Unused")}
