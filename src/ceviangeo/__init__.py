"""Exact barycentric triangle geometry over quadratic field towers.

Everything is computed in exact arithmetic over Q or towers of at most two
real quadratic extensions: the derived points of a base point (isotomic
conjugate, isotomcomplement, generalized orthocenter and circumcenter), the
named conics and the transfer map between them, the elliptic curve carrying
the translation locus with its group law and torsion, the vertex-orthocenter
locus conics, and the inscribed-triangle construction that rebuilds the
locus geometrically.
"""

from .field import (
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
    collinear,
    join,
    meet,
    midpoint,
    point,
    signed_ratio,
)
from .maps import (
    AffineMap,
    Configuration,
    MClassification,
    classify_map,
    classify_transfer,
    complement,
    anticomplement,
    derive_configuration,
    eta_reflection,
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
    polar,
    steiner_circumellipse,
    tangent_at,
)
from .curve import (
    GENERATOR,
    NFPoint,
    NormalFormCurve,
    WPoint,
    j_invariant,
    on_translation_locus,
    sample_translation_points,
    torsion_points,
)
from .locus import (
    ConstructionFrame,
    admissible,
    canonical_frame,
    construction_frame,
    inscribed_triangle,
    orthocenter_vertex,
    reconstruct_point,
    special_configuration,
    vertex_locus,
)
from .verify import run_all, run_suite

__version__ = "0.1.0"
