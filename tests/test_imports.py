"""Every module-level import of the package is named by its module.

No linter ships with the project, and a deletion easily leaves an import
behind; this parses each module with ast instead.  The package's
__init__ imports names only to re-export them, so it is left out.
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
