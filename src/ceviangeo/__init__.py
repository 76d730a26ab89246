"""Exact barycentric triangle geometry over quadratic field towers.

Everything is computed in exact arithmetic over Q or towers of at most two
real quadratic extensions: the derived points of a base point (isotomic
conjugate, isotomcomplement, generalized orthocenter and circumcenter), the
named conics and the transfer map between them, the elliptic curve carrying
the translation locus with its group law and torsion, the vertex-orthocenter
locus conics, and the inscribed-triangle construction that rebuilds the
locus geometrically.

The names from ``curve``, ``locus`` and ``verify`` are resolved on first
use (PEP 562), so importing the package, or running ``ceviangeo compute``,
does not load those modules.  They are read from the submodule on every
access and never stored here.
"""

from .field import (
    CeviangeoError,
    FieldElement,
    NotASquare,
    TowerDepthExceeded,
    fe,
    format_element,
    parse_element,
    sqrt_extending,
)
from .plane import (
    A,
    B,
    C,
    G,
    BaryLine,
    BaryPoint,
    join,
    meet,
    midpoint,
    point,
)
from .maps import (
    AffineMap,
    Configuration,
    MClassification,
    classify_transfer,
    complement,
    anticomplement,
    derive_configuration,
    isotom_complement,
    isotomic,
    transfer_map,
)
from .conics import (
    Conic,
    conic_center,
    conic_through,
    inconic,
    intersect_line,
    nine_point_conic,
    steiner_circumellipse,
)

# each lazy export and the submodule that defines it
_LAZY = {
    **dict.fromkeys(("GENERATOR", "WPoint", "on_translation_locus", "sample_translation_points",
                     "torsion_points"), "curve"),
    **dict.fromkeys(("ConstructionFrame", "admissible", "canonical_frame", "construction_frame",
                     "inscribed_triangle", "orthocenter_vertex", "reconstruct_points",
                     "vertex_locus"), "locus"),
    **dict.fromkeys(("run_all", "run_suite"), "verify"),
}

__all__ = [
    "CeviangeoError", "FieldElement", "NotASquare", "TowerDepthExceeded", "fe",
    "format_element", "parse_element", "sqrt_extending",
    "A", "B", "C", "G", "BaryLine", "BaryPoint", "join", "meet", "midpoint", "point",
    "AffineMap", "Configuration", "MClassification", "classify_transfer", "complement",
    "anticomplement", "derive_configuration", "isotom_complement", "isotomic", "transfer_map",
    "Conic", "conic_center", "conic_through", "inconic", "intersect_line", "nine_point_conic",
    "steiner_circumellipse",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY.values():  # the submodule itself
        return import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
