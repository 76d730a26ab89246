"""Vertex positions of the generalized orthocenter and the inscribed-triangle
construction of the translation locus.

The base points whose generalized orthocenter lands on a vertex form three
conics (minus four points each) with rational parametrizations.  A special
pair of base points on the line through the centroid parallel to a side
realizes both a vertex orthocenter and a translation transfer map; from any
translation point one builds a parallelogram-plus-hyperbola frame in which
inscribed triangles with a fixed centroid reconstruct the whole translation
locus through affine maps, each applied as adj(M)*P for M the matrix of the
triangle (``verify.map_from_triangles`` is the generic check); one product
serves both orientations, the second being (x : z : y) = -P on the curve.
Each chord is bisected at a known point (the secant e f at g, each inscribed
side at the complement of the opposite vertex), so its ends come in closed
form and no line is intersected with the conic.  An inscribed side's ends are
m +- s*d, s = sqrt(r), for r = -Q(m)/Q(d), d = L x (1,1,1) and L the chord,
which forms Q(m) on the way.  Both chords are labelled in closed form too.
On the translation cubic the secant's ends are g +- k*d with
k = sqrt(3)/(18xyz), and e, the end on the complement's side of the axis,
is g - k*d (``construction_frame`` has the proof).  For an inscribed side
m x d = L, so det(1 - 2m, m + s*d, m - s*d) = -2s*L(G): b1 = m - s*d
exactly when L(G) > 0 makes the triangle a1 b1 c1 positively oriented.
"""

from __future__ import annotations

from collections import namedtuple

from .field import CeviangeoError, FieldElement, fe, sqrt_extending, ZERO, ONE
from .linalg import adjugate3, matvec3
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
    _cevian_members,
    cevian_map,
    complement,
    isotom_complement,
    isotomic,
    orthocenter,
    validate_point,
)
from .conics import Conic
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


def _chord_ends(mn, s: FieldElement, d) -> tuple[BaryPoint, BaryPoint]:
    """The points mn +- s*d for triples mn and d; TowerDepthExceeded when
    they need a tower deeper than 2."""
    return tuple(BaryPoint(*(x + k * y for x, y in zip(mn, d))) for k in (s, -s))


def construction_frame(p: BaryPoint) -> ConstructionFrame:
    """Build the scaffold from a translation point p = (x:y:z) off the
    medians.  It computes only the members it holds: p's isotomic conjugate
    p_iso, isotomcomplement q and complement q_iso, the orthocenter h and its
    complement o, the cevian conic with v, its center z and u (as
    ``derive_configuration`` does), the cevian map t_p and the secant's
    ends.  Those are g +- k*d for d the infinite point of p p_iso and
    k = sqrt(3)/(18xyz), from p's coordinates as given: the radicand
    -Q(g)/Q(d) is 1/(9D(x+y+z)(xy+yz+zx)) for D = (x+y)(x+z)(y+z), and on
    the cubic F = D + 4xyz = 0, D = F - 4xyz = -4xyz and
    (x+y+z)(xy+yz+zx) = F - 3xyz = -3xyz, so it is 1/(108(xyz)^2).  And
    e = g - k*d: g + k*d is on q_iso's side of the axis g z exactly when
    xyz(x+y+z)(xy+yz+zx) = xyz*F - 3(xyz)^2 > 0, never on the cubic."""
    validate_point(p, off_medians=True)
    if not _curve.on_translation_locus(p):
        raise NotTranslation(f"{p} is not a translation point")
    p_iso, q, q_iso = isotomic(p), isotom_complement(p), complement(p)
    conic, v, z_center, u = _cevian_members(p, p_iso, q, q_iso)
    h = orthocenter(p)
    # g bisects the secant parallel to p p_iso: its direction is conjugate to g
    direction = infinite_point_of(join(p, p_iso))
    x, y, z = p.coords
    k = FieldElement.root(3) / (18 * x * y * z)
    e, f = _chord_ends(G.normalized(), -k, direction)
    return ConstructionFrame(h=h, u=u, p=p, v=v, z=z_center, g=G, o=complement(h), q=q,
                             q_iso=q_iso, p_iso=p_iso, conic=conic, e=e, f=f, t_p=cevian_map(p))


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


def _chord(frame: ConstructionFrame, m) -> tuple:
    """The chord of the frame's conic bisected at m, a normalized triple,
    and the conic's form there: (L, Q(m)) for Q(m) = m.Cm and the plain
    triple L = 4(Cm - Q(m)(1,1,1)), the line through m parallel to the polar
    of m.  The conic minus its half-turn image about m is (x+y+z)(L.X), so
    the chord carries every ordinary common point of the two conics.  L is
    zero when m is the conic's center, where the image is the conic itself."""
    cm = matvec3(frame.conic.m, m)
    qm = sum((x * y for x, y in zip(m, cm)), ZERO)
    return tuple(4 * (x - qm) for x in cm), qm


def _inscribed_chord(frame: ConstructionFrame, a1: BaryPoint):
    """The inscribed chord of a1, an ordinary point of the conic, bisected
    at m, the complement of a1, in one pass over the conic: (m normalized,
    r, d, L(G)) for L the chord, L(G) = L0 + L1 + L2 and d = L x (1,1,1).
    On the line m + t*d the conic's form is Q(m) + t^2*Q(d), so the ends
    m +- sqrt(r)*d, r = -Q(m)/Q(d) with the Q(m) that ``_chord`` forms, are
    real, distinct and ordinary exactly when r > 0.  These are the steps
    that ``inscribed_triangle`` and ``admissible`` share."""
    m = complement(a1).normalized()
    line, qm = _chord(frame, m)
    # a1 is ordinary and on the conic, so it lies on the half-turn image
    # exactly when it lies on the chord, that is when L(G) = 0: a1 normalized
    # is 1 - 2m and m lies on L, so L.(1 - 2m) = L(G) - 2 L.m = L(G); at the
    # center L = 0
    at_g = sum(line, ZERO)
    if at_g.is_zero():
        raise DegenerateInscribed(f"{a1} lies on its own reflected conic")
    # L is never a multiple of (1,1,1), as L.m = 0 and sum m = 1, so d != 0
    l0, l1, l2 = line
    d = BaryPoint(l1 - l2, l2 - l0, l0 - l1)
    qd = frame.conic.evaluate(d)
    r = None if qd.is_zero() else -qm / qd
    if r is None or r.sign() <= 0:
        raise NoIntersection("conic and reflected conic share no two ordinary points")
    return m, r, d, at_g


def inscribed_triangle(frame: ConstructionFrame, a1: BaryPoint) -> tuple[BaryPoint, BaryPoint]:
    """The unique triangle inscribed in the frame's conic with vertex a1 and
    centroid g: the other two vertices are the ends m +- s*d, s = sqrt(r),
    of the chord L bisected at m, the complement of a1, which the conic
    shares with its half-turn image about m.  They are labelled so that
    orientation 1 preserves orientation, det(a1, b1, c1) > 0, in closed form:
    a1 normalized is 1 - 2m, and d = L x (1,1,1) gives m x d = L*(sum m) -
    (1,1,1)*(m.L) = L, so det(1 - 2m, m + s*d, m - s*d) = -2s*det(1, m, d)
    = -2s*L(G); b1 is m + s*d exactly when L(G) < 0."""
    if a1.is_infinite():
        raise NotOnConic("vertex must be an ordinary point")
    if not frame.conic.contains(a1):
        raise NotOnConic(f"{a1} is not on the frame conic")
    m, r, d, at_g = _inscribed_chord(frame, a1)
    s = sqrt_extending(r)
    return _chord_ends(m, -s if at_g.sign() > 0 else s, d)


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


def reconstruct_points(frame: ConstructionFrame, a1: BaryPoint) -> tuple[BaryPoint, BaryPoint]:
    """The base point's images under the affine maps taking the inscribed
    triangle of a1 onto the reference triangle, in orientations 1 and 2:
    w = adj(M)*p for M with columns the normalized a1, b1, c1, and
    (-w0 : -w2 : -w1) = (x : z : y), which is -P on the curve, as orientation
    2's matrix is M*S for S the swap of the last two columns and
    adj(M*S) = adj(S)*adj(M) = -S*adj(M)."""
    b1, c1 = inscribed_triangle(frame, a1)
    m = tuple(zip(a1.normalized(), b1.coords, c1.coords))
    w0, w1, w2 = matvec3(adjugate3(m), frame.p.coords)
    return BaryPoint(w0, w1, w2), BaryPoint(-w0, -w2, -w1)


def canonical_frame() -> ConstructionFrame:
    return construction_frame(special_point(1))
