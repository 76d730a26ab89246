"""The package's imports: every name a module imports is used, each
command loads only the modules it runs, and the library modules define only
what the library runs.

No linter runs on this project, so a stdlib check parses each module
under ``src/ceviangeo`` (``__init__`` re-exports by design) and looks for
each imported name among the names the module reads, annotations included.
The import surface is read from ``sys.modules`` in fresh interpreters, and
the package's lazy exports are checked against the eager ones they stand for.
A reachability scan over the same parse trees finds public definitions
outside ``verify`` that only ``verify`` reaches, and every absolute import
names a standard-library module.
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


def test_the_package_imports_only_the_standard_library():
    # absolute imports anywhere in a module, function-local ones included;
    # relative imports stay inside the package
    roots = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                roots |= {alias.name.split(".")[0] for alias in node.names}
    assert roots and sorted(roots - sys.stdlib_module_names) == []


# -- the library boundary: what only verify reaches belongs in verify --------

# (module, name) -> why the library runs it though no other module calls it
ROOTS = {
    ("plane", "point"): "the README's library example",
    ("plane", "point_to_literal"): "the README's library example",
    ("maps", "derive_configuration"): "the README's library example",
    ("maps", "classify_transfer"): "the README's library example",
    ("curve", "GENERATOR"): "the README's library example",
    ("curve", "sample_translation_points"): "the README's library example",
    ("field", "CeviangeoError"): "the README's root of every package error",
    ("field", "FieldElement"): "the README documents its sqrt() and in_tower",
    ("field", "sqrt_extending"): "the README documents its tower rule",
    ("locus", "half_turn_projectivity"): "the paper's construction",
    ("locus", "admissible"): "the paper's construction",
    ("locus", "inscribed_triangle"): "the paper's construction",
    ("locus", "reconstruct_points"): "the paper's construction",
    ("conics", "conic_through"): "read by module in perfbench/tracer.py, until ROADMAP item 1",
    ("conics", "nine_point_conic"): "read by module in perfbench/tracer.py, until ROADMAP item 1",
    ("conics", "intersect_line"): "read by module in perfbench/tracer.py, until ROADMAP item 1",
    ("linalg", "nullspace"): "read by module in perfbench/tracer.py, until ROADMAP item 1",
    ("maps", "is_valid_point"): "imported by perfbench/record.py for its depth-2 pool",
}
# every definition of these modules is a root: they are the program's entry points
ENTRY_MODULES = ("cli", "svgfig")


def _references(module: str, tree: ast.Module):
    """The top-level definitions of a module (functions, classes and
    assigned names), each with the (module, name) pairs its body reads, and
    the pairs read by the module's other top-level statements."""
    submodules, imported = {}, {}
    for node in ast.walk(tree):  # handler-local imports included
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    submodules[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    defs, loose = {}, []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            defs.update({t.id: stmt for t in stmt.targets if isinstance(t, ast.Name)})
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            loose.append(stmt)

    def reads(node) -> set[tuple[str, str]]:
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in defs:
                out.add((module, n.id))
            elif isinstance(n, ast.Name) and n.id in imported:
                out.add(imported[n.id])
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in submodules):
                out.add((submodules[n.value.id], n.attr))
        return out

    edges = {(module, name): reads(node) for name, node in defs.items()}
    public = {(module, name) for name, node in defs.items()
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_")}
    return edges, public, set().union(*map(reads, loose))


def verify_only_definitions(src: Path = SRC) -> list[str]:
    """Public functions and classes outside ``verify`` that no module but
    ``verify`` reaches, directly or through a reached definition."""
    edges, public, todo = {}, set(), set(ROOTS)
    for path in src.glob("*.py"):
        if path.stem in ("__init__", "verify"):
            continue
        module_edges, module_public, loose = _references(
            path.stem, ast.parse(path.read_text(encoding="utf-8")))
        edges.update(module_edges)
        public |= module_public
        todo |= loose
        if path.stem in ENTRY_MODULES:
            todo |= set(module_edges)
    reached = set()
    while todo:
        node = todo.pop()
        if node not in reached:
            reached.add(node)
            todo |= edges.get(node, set())
    return sorted(f"{m}.{n}" for m, n in public - reached)


def test_library_modules_define_only_what_the_library_runs():
    assert verify_only_definitions() == []


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
