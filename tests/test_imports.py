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

The scan treats each method of a library class as its own definition.  A
method is reached when a reached definition reads its name as an attribute,
on any object; an operator dunder (``__matmul__``, ``__add__``, ``__eq__``
...) when a reached definition uses its operator; any other dunder with its
class.  Matching is by name alone, so a method that shares its name with a
reached one (``inverse`` with ``FieldElement.inverse``, ``normalized`` with
``BaryPoint.normalized``) is reached too: the scan cannot see such a method
go unused, and moving one into ``verify`` is done by hand.
"""

import ast
import importlib
import os
import shutil
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
    ("linalg", "det3"): "read by module in perfbench/tracer.py, until ROADMAP item 1",
    ("maps", "is_valid_point"): "imported by perfbench/record.py for its depth-2 pool",
}
# every definition of these modules is a root: they are the program's entry points
ENTRY_MODULES = ("cli", "svgfig")

# the dunders an operator reaches, reflected forms included; every other
# dunder is reached with its class
OPERATOR_DUNDERS = {
    ast.Add: ("__add__", "__radd__"), ast.Sub: ("__sub__", "__rsub__"),
    ast.Mult: ("__mul__", "__rmul__"), ast.MatMult: ("__matmul__", "__rmatmul__"),
    ast.Div: ("__truediv__", "__rtruediv__"), ast.FloorDiv: ("__floordiv__", "__rfloordiv__"),
    ast.Mod: ("__mod__", "__rmod__"), ast.Pow: ("__pow__", "__rpow__"),
    ast.LShift: ("__lshift__", "__rlshift__"), ast.RShift: ("__rshift__", "__rrshift__"),
    ast.BitAnd: ("__and__", "__rand__"), ast.BitOr: ("__or__", "__ror__"),
    ast.BitXor: ("__xor__", "__rxor__"),
    ast.USub: ("__neg__",), ast.UAdd: ("__pos__",), ast.Invert: ("__invert__",),
    ast.Eq: ("__eq__",), ast.NotEq: ("__ne__", "__eq__"),
    ast.Lt: ("__lt__", "__gt__"), ast.Gt: ("__gt__", "__lt__"),
    ast.LtE: ("__le__", "__ge__"), ast.GtE: ("__ge__", "__le__"),
}
OPERATOR_NAMES = {name for names in OPERATOR_DUNDERS.values() for name in names}


def _references(module: str, tree: ast.Module):
    """The definitions of a module: top-level functions, classes and
    assigned names, and each method of a class as ``Class.method``, each
    with the nodes its body reads, and the nodes read by the module's other
    top-level statements.  A node is a (module, name) pair, or ``(".",
    name)`` for an attribute or operator dunder read on any object."""
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

    def reads(*nodes) -> set[tuple[str, str]]:
        out = set()
        for n in (n for node in nodes for n in ast.walk(node)):
            if isinstance(n, ast.Name) and n.id in defs:
                out.add((module, n.id))
            elif isinstance(n, ast.Name) and n.id in imported:
                out.add(imported[n.id])
            elif isinstance(n, ast.Attribute):
                out.add((".", n.attr))
                if isinstance(n.value, ast.Name) and n.value.id in submodules:
                    out.add((submodules[n.value.id], n.attr))
            elif isinstance(n, (ast.BinOp, ast.UnaryOp, ast.AugAssign)):
                out |= {(".", d) for d in OPERATOR_DUNDERS.get(type(n.op), ())}
            elif isinstance(n, ast.Compare):
                out |= {(".", d) for op in n.ops for d in OPERATOR_DUNDERS.get(type(op), ())}
        return out

    edges, public = {}, set()
    for name, node in defs.items():
        if not isinstance(node, ast.ClassDef):
            edges[(module, name)] = reads(node)
            if isinstance(node, ast.FunctionDef) and not name.startswith("_"):
                public.add((module, name))
            continue
        own, rest = set(), [*node.bases, *node.keywords, *node.decorator_list]
        for stmt in node.body:
            if not isinstance(stmt, ast.FunctionDef):
                rest.append(stmt)
                continue
            method = (module, f"{name}.{stmt.name}")
            edges[method] = edges.get(method, set()) | reads(stmt)
            dunder = stmt.name.startswith("__") and stmt.name.endswith("__")
            if dunder and stmt.name not in OPERATOR_NAMES:
                own.add(method)
            elif not name.startswith("_") and (dunder or not stmt.name.startswith("_")):
                public.add(method)
        edges[(module, name)] = own | reads(*rest)
        if not name.startswith("_"):
            public.add((module, name))
    return edges, public, set().union(*map(reads, loose))


def verify_only_definitions(src: Path = SRC) -> list[str]:
    """Public functions, classes and methods outside ``verify`` that no
    module but ``verify`` reaches, directly or through a reached
    definition."""
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
    for method in [node for node in edges if "." in node[1]]:
        edges.setdefault((".", method[1].split(".")[1]), set()).add(method)
    reached = set()
    while todo:
        node = todo.pop()
        if node not in reached:
            reached.add(node)
            todo |= edges.get(node, set())
    return sorted(f"{m}.{n}" for m, n in public - reached)


def test_library_modules_define_only_what_the_library_runs():
    assert verify_only_definitions() == []


def test_every_root_names_a_top_level_definition():
    missing = []
    for module, name in ROOTS:
        edges, _, _ = _references(module, ast.parse((SRC / f"{module}.py").read_text("utf-8")))
        if "." in name or (module, name) not in edges:
            missing.append(f"{module}.{name}")
    assert missing == []


def _add_method(path: Path, cls: str, source: str) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls).body += (
        ast.parse(source).body)
    path.write_text(ast.unparse(tree), encoding="utf-8")


def test_the_scan_reports_unused_methods(tmp_path):
    copy = tmp_path / "ceviangeo"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    _add_method(copy / "plane.py", "BaryPoint", "def never_read(self):\n    return self\n")
    _add_method(copy / "conics.py", "Conic", "def __matmul__(self, other):\n    return self\n")
    assert verify_only_definitions(copy) == ["conics.Conic.__matmul__",
                                             "plane.BaryPoint.never_read"]


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
