"""Vertex positions of the generalized orthocenter and the inscribed-triangle
construction of the translation locus.

The base points whose generalized orthocenter lands on a vertex form three
conics (minus four points each) with rational parametrizations.  A special
pair of base points on the line through the centroid parallel to a side
realizes both a vertex orthocenter and a translation transfer map; from any
translation point one builds a parallelogram-plus-hyperbola frame in which
inscribed triangles with a fixed centroid reconstruct the whole translation
locus through affine maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import CeviangeoError, FieldElement, fe, ZERO, ONE
from .linalg import det3
from .plane import (
    A,
    B,
    C,
    E0,
    F0,
    G,
    BaryLine,
    BaryPoint,
    affine_combination,
    infinite_point_of,
    join,
    meet,
    midpoint,
)
from .maps import (
    AffineMap,
    Configuration,
    derive_configuration,
    map_from_triangles,
    orthocenter,
    validate_point,
)
from .conics import (
    Conic,
    ConstructionError,
    IdenticalConics,
    _line_restriction,
    affine_type,
    intersect_line,
    intersect_shared_infinity,
    radical_line,
    reflect_conic,
)
from . import curve as _curve


class LocusError(CeviangeoError):
    pass


class ExcludedParameter(LocusError):
    pass


class NotTranslation(LocusError):
    pass


class NotOnConic(LocusError):
    pass


class NoIntersection(LocusError):
    pass


class DegenerateInscribed(LocusError):
    pass


# the cyclic permutation carrying the vertex-A locus to each vertex's: entry
# i of a permuted triple is entry _PERMUTE[vertex][i] of the original
_PERMUTE = {"A": (0, 1, 2), "B": (2, 0, 1), "C": (1, 2, 0)}


@dataclass(frozen=True)
class VertexLocus:
    """The conic of base points whose orthocenter is the given vertex,
    together with the four excluded points on it."""

    vertex: str
    conic: Conic
    excluded: tuple[BaryPoint, BaryPoint, BaryPoint, BaryPoint]

    def point_at(self, t) -> BaryPoint:
        """Rational parametrization by the pencil of lines through the first
        excluded vertex; parameters 0, 1 and -1 hit excluded points."""
        t = fe(t)
        if t == 0 or t == 1 or t == -1:
            raise ExcludedParameter(f"parameter {t} lands on an excluded point")
        base = (1 + t, 1 - t, t * (1 + t))
        return BaryPoint(*(base[i] for i in _PERMUTE[self.vertex]))


def vertex_locus(vertex: str) -> VertexLocus:
    if vertex not in _PERMUTE:
        raise ValueError("vertex must be 'A', 'B' or 'C'")
    half = fe(1) / 2
    base_m = (
        (fe(-1), half, half),
        (half, ZERO, half),
        (half, half, ZERO),
    )
    idx = _PERMUTE[vertex]
    # conjugate the quadratic form by the inverse of the point permutation
    m = tuple(tuple(base_m[i][j] for j in idx) for i in idx)
    excluded = tuple(BaryPoint(*(p[i] for i in idx)) for p in (B, C, E0, F0))
    return VertexLocus(vertex, Conic(m), excluded)


def orthocenter_vertex(p: BaryPoint) -> str | None:
    """The vertex the generalized orthocenter of p equals, or None."""
    h = orthocenter(p)
    for name, vertex in (("A", A), ("B", B), ("C", C)):
        if h == vertex:
            return name
    return None


# ---------------------------------------------------------------------------
# the special configuration


def special_point(sign: int = 1) -> BaryPoint:
    """One of the two base points on the line through G parallel to BC that
    lie on the circumconic; orthocenter A, circumcenter the midpoint of BC."""
    r2 = FieldElement.root(2)
    s = r2 if sign >= 0 else -r2
    return BaryPoint(ONE, 1 + s, 1 - s)


def special_configuration(sign: int = 1) -> Configuration:
    """The full derived configuration of the special point; the ``special``
    verification suite checks its defining relations."""
    return derive_configuration(special_point(sign))


# ---------------------------------------------------------------------------
# the inscribed-triangle construction


@dataclass(frozen=True)
class ConstructionFrame:
    """The parallelogram-and-hyperbola scaffold built from a translation
    point: parallelogram h-u-p-v with center z, the distinguished point g,
    the midpoints q, q_iso and o of three sides, the reflected points o_iso
    and p_iso, the conic through p, q, h, q_iso, p_iso (a hyperbola), the
    secant points e, f of the line through g parallel to p p_iso, their
    midpoints toward g, and the infinite points of the two asymptotes."""

    h: BaryPoint
    u: BaryPoint
    p: BaryPoint
    v: BaryPoint
    z: BaryPoint
    g: BaryPoint
    o: BaryPoint
    q: BaryPoint
    q_iso: BaryPoint
    o_iso: BaryPoint
    p_iso: BaryPoint
    conic: Conic
    e: BaryPoint
    f: BaryPoint
    e_mid: BaryPoint
    f_mid: BaryPoint
    asymptote_points: tuple[BaryPoint, BaryPoint]
    t_p: AffineMap

    def axis(self) -> BaryLine:
        return join(self.g, self.z)


def _tangency_point(conic: Conic, line: BaryLine) -> BaryPoint:
    pts = intersect_line(conic, line, extend=True)
    if len(pts) != 1:
        raise ConstructionError("expected a tangent line")
    return pts[0]


def construction_frame(p: BaryPoint) -> ConstructionFrame:
    """Build the scaffold from a translation point off the medians."""
    validate_point(p, off_medians=True)
    if not _curve.on_translation_locus(p):
        raise NotTranslation(f"{p} is not a translation point")
    cfg = derive_configuration(p)
    conic = cfg.cevian_conic
    if affine_type(conic) != "hyperbola":
        raise ConstructionError("cevian conic of a translation point must be a hyperbola")
    direction = infinite_point_of(join(cfg.p, cfg.p_iso))
    secant = join(G, direction)
    pts = intersect_line(conic, secant, extend=True)
    if len(pts) != 2:
        raise ConstructionError("secant through g must cut the conic twice")
    axis = join(G, cfg.z)

    def side(x: BaryPoint) -> int:
        return sum((a * b for a, b in zip(axis.coords, x.normalized())), ZERO).sign()

    target = side(cfg.q_iso)
    if side(pts[0]) == target:
        e, f = pts
    else:
        f, e = pts
    if side(e) != target or side(f) == target:
        raise ConstructionError("secant points do not separate across the axis")
    e_mid = midpoint(e, G)
    f_mid = midpoint(G, f)
    a_inf = _tangency_point(conic, join(cfg.z, e_mid))
    b_inf = _tangency_point(conic, join(cfg.z, f_mid))
    if not (a_inf.is_infinite() and b_inf.is_infinite()):
        raise ConstructionError("asymptote tangency points must be infinite")
    return ConstructionFrame(
        h=cfg.h,
        u=cfg.u,
        p=cfg.p,
        v=cfg.v,
        z=cfg.z,
        g=G,
        o=cfg.o,
        q=cfg.q,
        q_iso=cfg.q_iso,
        o_iso=cfg.o_iso,
        p_iso=cfg.p_iso,
        conic=conic,
        e=e,
        f=f,
        e_mid=e_mid,
        f_mid=f_mid,
        asymptote_points=(a_inf, b_inf),
        t_p=cfg.t_p,
    )


def half_turn_projectivity(frame: ConstructionFrame, y: BaryPoint) -> BaryPoint:
    """The order-3 projectivity of the axis: project the cevian-map image of
    a point of the axis back onto the axis from p."""
    axis = frame.axis()
    if not axis.contains(y):
        raise LocusError("argument must lie on the axis")
    image = frame.t_p.apply(y)
    if image == frame.p:
        raise LocusError("projectivity undefined: image coincides with p")
    return meet(join(frame.p, image), axis)


def centroid_complement(frame: ConstructionFrame, x: BaryPoint) -> BaryPoint:
    """The dilation about the frame's distinguished point with ratio -1/2."""
    return affine_combination([(frame.g, fe(3) / 2), (x, fe(-1) / 2)])


def reflected_conic(frame: ConstructionFrame, a1: BaryPoint) -> Conic:
    return reflect_conic(frame.conic, centroid_complement(frame, a1))


def inscribed_triangle(frame: ConstructionFrame, a1: BaryPoint) -> tuple[BaryPoint, BaryPoint]:
    """The unique triangle inscribed in the frame's conic with vertex a1 and
    centroid g: the other two vertices are the ordinary intersections of the
    conic with its reflection through the complement of a1."""
    if a1.is_infinite():
        raise NotOnConic("vertex must be an ordinary point")
    if not frame.conic.contains(a1):
        raise NotOnConic(f"{a1} is not on the frame conic")
    d0 = centroid_complement(frame, a1)
    other = reflected_conic(frame, a1)
    if other.contains(a1):
        raise DegenerateInscribed(f"{a1} lies on its own reflected conic")
    pts = intersect_shared_infinity(frame.conic, other, extend=True)
    if len(pts) != 2:
        raise NoIntersection("conic and reflected conic share no two ordinary points")
    b1, c1 = pts
    if midpoint(b1, c1) != d0:
        raise ConstructionError("intersection chord is not bisected as expected")
    # fix the labeling so orientation 1 is the orientation-preserving one; the
    # map onto the reference triangle has determinant 1/det of these vertices
    if det3(tuple(q.normalized() for q in (a1, b1, c1))).sign() < 0:
        b1, c1 = c1, b1
    return b1, c1


def admissible(frame: ConstructionFrame, a1: BaryPoint) -> bool:
    """Whether a1 admits an inscribed triangle: the conic and the reflected
    conic must meet in two distinct real ordinary points and a1 must not lie
    on the reflected conic.  Decided by the sign of the discriminant of the
    radical-line intersection, never by square roots."""
    if not frame.conic.contains(a1):
        raise NotOnConic(f"{a1} is not on the frame conic")
    if a1.is_infinite():
        return False
    other = reflected_conic(frame, a1)
    if other.contains(a1):
        return False
    try:
        line = radical_line(frame.conic, other)
    except IdenticalConics:
        return False
    if line is None:
        return False
    p0, p1, a, b, c = _line_restriction(frame.conic, line)
    s0 = p0.coordinate_sum()
    s1 = p1.coordinate_sum()
    if a.is_zero():
        # p1 is one intersection point; the other sits at t = -c/(2b)
        if b.is_zero() or s1.is_zero():
            return False
        t = -c / (2 * b)
        return not (s0 + t * s1).is_zero()
    disc = b * b - a * c
    if disc.sign() <= 0:
        return False
    if s1.is_zero():
        # the line's infinite point is p1 itself, which is off the conic,
        # so both intersection points are ordinary
        return True
    t_inf = -s0 / s1
    at_inf = a * t_inf * t_inf + 2 * b * t_inf + c
    return not at_inf.is_zero()


def reconstruct_point(frame: ConstructionFrame, a1: BaryPoint, orientation: int = 1) -> BaryPoint:
    """Map the frame's base point through the affine map taking the inscribed
    triangle of a1 onto the reference triangle; the image lies on the
    translation locus."""
    b1, c1 = inscribed_triangle(frame, a1)
    if orientation == 2:
        b1, c1 = c1, b1
    elif orientation != 1:
        raise ValueError("orientation must be 1 or 2")
    amap = map_from_triangles((a1, b1, c1), (A, B, C))
    return amap.apply(frame.p)


def canonical_frame() -> ConstructionFrame:
    return construction_frame(special_point(1))
