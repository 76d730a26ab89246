"""Vertex positions of the generalized orthocenter and the inscribed-triangle
construction of the translation locus.

The base points whose generalized orthocenter lands on a vertex form three
conics (minus four points each) with rational parametrizations.  A special
pair of base points on the line through the centroid parallel to a side
realizes both a vertex orthocenter and a translation transfer map; from any
translation point one builds a parallelogram-plus-hyperbola frame in which
inscribed triangles with a fixed centroid reconstruct the whole translation
locus through affine maps.  Each chord of that construction is bisected at a
known point (the secant e f at g, each inscribed side at the complement of
the opposite vertex), so its ends come in closed form and no line is
intersected with the conic.
"""

from __future__ import annotations

from collections import namedtuple

from .field import (CeviangeoError, FieldElement, TowerDepthExceeded, TowerMismatch, fe,
                    sqrt_extending, ZERO, ONE)
from .linalg import det3, matvec3
from .plane import (
    A,
    B,
    C,
    E0,
    F0,
    G,
    BaryLine,
    BaryPoint,
    infinite_point_of,
    join,
    meet,
)
from .maps import (
    Configuration,
    complement,
    derive_configuration,
    map_from_triangles,
    orthocenter,
    validate_point,
)
from .conics import Conic, ConstructionError
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


class VertexLocus(namedtuple("VertexLocus", "vertex conic excluded")):
    """The conic of base points whose orthocenter is the given vertex
    ('A', 'B' or 'C'), together with the four excluded points on it."""

    __slots__ = ()

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


class ConstructionFrame(namedtuple("ConstructionFrame",
                                   "h u p v z g o q q_iso p_iso conic e f t_p")):
    """The parallelogram-and-hyperbola scaffold built from a translation
    point: parallelogram h-u-p-v with center z, the distinguished point g,
    the midpoints q, q_iso and o of three sides, the reflected point p_iso,
    the conic through p, q, h, q_iso, p_iso (a hyperbola), and the ends e, f
    of its chord bisected at g parallel to p p_iso, e on q_iso's side of the
    axis g z; ``t_p`` is the AffineMap onto the cevian triangle of p."""

    __slots__ = ()

    def axis(self) -> BaryLine:
        return join(self.g, self.z)


def _bisected_chord(conic: Conic, m: BaryPoint, d: BaryPoint):
    """The chord of the conic bisected at the ordinary point m, in the
    direction of an infinite point d conjugate to m.  On the line m + t*d
    (m normalized) the conic's form is Q(m) + t^2*Q(d), so the chord's ends
    are m +- sqrt(r)*d with r = -Q(m)/Q(d); they are real, distinct and
    ordinary exactly when r > 0.  Returns (m normalized, r), or None when
    Q(d) = 0."""
    mn = BaryPoint(*m.normalized())
    qd = conic.evaluate(d)
    if qd.is_zero():
        return None
    return mn, -conic.evaluate(mn) / qd


def _chord_ends(mn: BaryPoint, r: FieldElement, d: BaryPoint) -> tuple[BaryPoint, BaryPoint]:
    """The points mn + sqrt(r)*d and mn - sqrt(r)*d, adjoining sqrt(r).
    Raises TowerDepthExceeded when sqrt(r) or the points need a tower deeper
    than 2."""
    s = sqrt_extending(r)
    try:
        return tuple(BaryPoint(*(x + k * y for x, y in zip(mn.coords, d.coords))) for k in (s, -s))
    except TowerMismatch as exc:
        raise TowerDepthExceeded(str(exc)) from exc


def construction_frame(p: BaryPoint) -> ConstructionFrame:
    """Build the scaffold from a translation point off the medians."""
    validate_point(p, off_medians=True)
    if not _curve.on_translation_locus(p):
        raise NotTranslation(f"{p} is not a translation point")
    cfg = derive_configuration(p)
    conic = cfg.cevian_conic
    # g bisects the secant parallel to p p_iso: its direction is conjugate to g
    direction = infinite_point_of(join(cfg.p, cfg.p_iso))
    chord = _bisected_chord(conic, G, direction)
    if chord is None or chord[1].sign() <= 0:
        raise ConstructionError("secant through g must cut the conic twice")
    pts = _chord_ends(*chord, direction)
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
        p_iso=cfg.p_iso,
        conic=conic,
        e=e,
        f=f,
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


def _chord(frame: ConstructionFrame, a1: BaryPoint) -> BaryLine | None:
    """The chord of the frame's conic bisected at m, the complement of a1:
    the line through m parallel to the polar of m.  The conic minus its
    half-turn image about m is (x+y+z)(L.X) with L = 4(Cm - (m.Cm)(1,1,1)),
    so the chord carries every ordinary common point of the two conics.
    None when m is the conic's center, where the image is the conic itself."""
    m = complement(a1).normalized()
    cm = matvec3(frame.conic.m, m)
    k = sum((x * y for x, y in zip(m, cm)), ZERO)
    coords = tuple(4 * (x - k) for x in cm)
    if all(x.is_zero() for x in coords):
        return None
    return BaryLine(*coords)


def _inscribed_chord(frame: ConstructionFrame, a1: BaryPoint):
    """The inscribed chord of a1, an ordinary point of the conic, bisected
    at m, the complement of a1: (m normalized, r, d) with real ends
    m +- sqrt(r)*d.  These are the steps that ``inscribed_triangle`` and
    ``admissible`` share."""
    line = _chord(frame, a1)
    # a1 is ordinary and on the conic, so it lies on the half-turn image
    # exactly when it lies on the chord
    if line is None or line.contains(a1):
        raise DegenerateInscribed(f"{a1} lies on its own reflected conic")
    d = infinite_point_of(line)
    chord = _bisected_chord(frame.conic, complement(a1), d)
    if chord is None or chord[1].sign() <= 0:
        raise NoIntersection("conic and reflected conic share no two ordinary points")
    return (*chord, d)


def inscribed_triangle(frame: ConstructionFrame, a1: BaryPoint) -> tuple[BaryPoint, BaryPoint]:
    """The unique triangle inscribed in the frame's conic with vertex a1 and
    centroid g: the other two vertices are the ends D0 +- sqrt(r)*d of the
    chord bisected at D0, the complement of a1, which the conic shares with
    its half-turn image about D0."""
    if a1.is_infinite():
        raise NotOnConic("vertex must be an ordinary point")
    if not frame.conic.contains(a1):
        raise NotOnConic(f"{a1} is not on the frame conic")
    b1, c1 = _chord_ends(*_inscribed_chord(frame, a1))
    # fix the labeling so orientation 1 is the orientation-preserving one; the
    # map onto the reference triangle has determinant 1/det of these vertices
    if det3(tuple(q.normalized() for q in (a1, b1, c1))).sign() < 0:
        b1, c1 = c1, b1
    return b1, c1


def admissible(frame: ConstructionFrame, a1: BaryPoint) -> bool:
    """Whether a1 has a real inscribed chord: the chord bisected at the
    complement of a1 exists, misses a1 and cuts the conic in two distinct
    real ordinary points, that is r > 0.  Decided by the sign of r, never by
    square roots, so ``inscribed_triangle`` can still raise
    TowerDepthExceeded when the chord's ends need a tower deeper than 2."""
    if not frame.conic.contains(a1):
        raise NotOnConic(f"{a1} is not on the frame conic")
    if a1.is_infinite():
        return False
    try:
        _inscribed_chord(frame, a1)
    except (DegenerateInscribed, NoIntersection):
        return False
    return True


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
