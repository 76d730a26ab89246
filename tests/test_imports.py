"""The package's imports: every name a module imports is used, and each
command loads only the modules it runs.

No linter runs on this project, so a stdlib check parses each module
under ``src/ceviangeo`` (``__init__`` re-exports by design) and looks for
each imported name among the names the module reads, annotations included.
The import surface is read from ``sys.modules`` in fresh interpreters, and
the package's lazy exports are checked against the eager ones they stand for.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
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


# -- the import surface, measured in fresh interpreters ----------------------

PACKAGE_ROOT = str(SRC.parent)
COMPUTE = "ceviangeo.cli.main(['compute', '[6,3,2]', 'all', '--json'])"


def loaded_after(code: str) -> set[str]:
    """The modules a fresh ``python -S`` holds after running ``code``: -S
    keeps ``site`` and its .pth preloads from importing modules first."""
    script = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PACKAGE_ROOT}, timeout=60, check=True)
    return set(proc.stderr.split())


def test_compute_imports_only_its_path():
    loaded = loaded_after(f"import ceviangeo.cli\n{COMPUTE}")
    assert {m for m in loaded if m.startswith("ceviangeo")} == {
        "ceviangeo", *(f"ceviangeo.{m}" for m in ("field", "linalg", "plane", "maps", "conics",
                                                  "cli"))}
    assert loaded & {"dataclasses", "inspect", "typing", "random"} == set()


@pytest.mark.parametrize("modules", ["ceviangeo.curve",
                                     "ceviangeo.cli, ceviangeo.svgfig, ceviangeo.verify"])
def test_no_module_loads_dataclasses_or_typing(modules):
    assert loaded_after(f"import {modules}") & {"dataclasses", "inspect", "typing"} == set()


def test_lazy_exports_behave_like_eager_ones():
    import ceviangeo

    public = {name for name, value in vars(ceviangeo).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(ceviangeo.__all__) == public | set(ceviangeo._LAZY)
    assert set(ceviangeo.__all__) <= set(dir(ceviangeo))
    for name, module in ceviangeo._LAZY.items():
        assert getattr(ceviangeo, name) is getattr(importlib.import_module(f"ceviangeo.{module}"),
                                                   name)
    assert not hasattr(ceviangeo, "no_such_name")
    namespace = {}
    exec("from ceviangeo import *", namespace)
    assert set(ceviangeo.__all__) <= set(namespace)
    assert namespace["run_suite"] is ceviangeo.verify.run_suite


def test_submodules_are_attributes_after_a_bare_import():
    code = ("import ceviangeo\n"
            "assert 'ceviangeo.verify' not in sys.modules\n"
            "assert ceviangeo.verify.run_suite is ceviangeo.run_suite\n"
            "assert ceviangeo.curve.GENERATOR is ceviangeo.GENERATOR\n"
            "assert ceviangeo.locus.vertex_locus is ceviangeo.vertex_locus")
    assert {"ceviangeo.curve", "ceviangeo.locus", "ceviangeo.verify"} <= loaded_after(code)
