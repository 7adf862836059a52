"""Every module-level import and private name of the package is named.

No linter ships with the project, and a deletion easily leaves an import,
a helper or a constant behind; this parses each module with ast instead.
The package's __init__ imports names only to re-export them, so it is
left out of the import check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlsground"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of source that it never names."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in named]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\n"
              "import os.path\nfrom numpy import pi as half_turn\nos.sep\n")
    assert _unused_imports(source) == ["math", "half_turn"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_names_every_import(module):
    assert _unused_imports(module.read_text()) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and constants of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _named(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an import."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(a.name for a in node.names)
    return named


def _unnamed_privates(sources: dict[str, str]) -> list[str]:
    """module.name of each private definition that no module names."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    named = set().union(*(_named(tree) for tree in trees.values()))
    return [f"{name}.{d}" for name, tree in trees.items()
            for d in _private_definitions(tree) if d not in named]


def test_finds_an_unnamed_private():
    sources = {"a": "_STEP = 2\n_CAP: int = 3\n"
                    "def _used():\n    return _STEP\n"
                    "def _dead():\n    pass\nclass _Gone:\n    pass\n"
                    "__all__ = []\n",
               "b": "from .a import _used\n_used()\n"}
    assert _unnamed_privates(sources) == ["a._CAP", "a._dead", "a._Gone"]


def test_every_private_definition_is_named():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unnamed_privates(sources) == []
