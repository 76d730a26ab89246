"""Every name a package module imports is used in that module.

No linter runs on this project, so this stdlib check parses each module
under ``src/ceviangeo`` (``__init__`` re-exports by design) and looks for
each imported name among the names the module reads, annotations included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ceviangeo"


def _names_read(tree: ast.AST) -> set[str]:
    # annotations stay expressions in the tree under `from __future__ import annotations`
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _names_imported(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return names


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_names_imported(tree) - _names_read(tree)) == []
