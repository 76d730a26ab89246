"""Projective conics as exact symmetric coefficient arrays.

Provides construction through five points, centers, polarity, tangency,
line intersection (with tower-extension requests when the discriminant is
not a square), the shared-points-at-infinity conic-conic intersection via
the radical line of the pencil, and the named conics of the derived-point
dictionary: the cevian conic, the circumconic, the inconic and the
nine-point conic of a quadrangle.
"""

from __future__ import annotations

from .field import FieldElement, fe, ZERO, ONE
from .linalg import adjugate3, det3, matmul3, matvec3, nullspace, transpose3
from .plane import (
    A,
    B,
    C,
    LINE_AT_INFINITY,
    BaryLine,
    BaryPoint,
    midpoint,
)


class ConicError(Exception):
    pass


class DegenerateConfiguration(ConicError):
    pass


class DegenerateConic(ConicError):
    pass


class PointNotOnConic(ConicError):
    pass


class NotSharedInfinity(ConicError):
    pass


class IdenticalConics(ConicError):
    pass


class NotAHyperbola(ConicError):
    pass


class ConstructionError(ConicError):
    """A postcondition of a conic construction failed."""


class Conic:
    """A conic x^T m x = 0 for a symmetric matrix m, up to scale."""

    __slots__ = ("m",)

    def __init__(self, rows):
        m = tuple(tuple(fe(x) for x in r) for r in rows)
        for i in range(3):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise ValueError("conic matrix must be symmetric")
        if all(x.is_zero() for r in m for x in r):
            raise ValueError("zero conic matrix")
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("Conic is immutable")

    @classmethod
    def from_upper(cls, six) -> Conic:
        """Build from the upper triangle (m00, m01, m02, m11, m12, m22)."""
        a, b, c, d, e, f = (fe(x) for x in six)
        return cls(((a, b, c), (b, d, e), (c, e, f)))

    def upper(self):
        m = self.m
        return (m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2])

    def evaluate(self, p: BaryPoint) -> FieldElement:
        v = matvec3(self.m, p.coords)
        return sum((a * b for a, b in zip(p.coords, v)), ZERO)

    def contains(self, p: BaryPoint) -> bool:
        return self.evaluate(p).is_zero()

    def pair(self, p: BaryPoint, q: BaryPoint) -> FieldElement:
        v = matvec3(self.m, q.coords)
        return sum((a * b for a, b in zip(p.coords, v)), ZERO)

    def det(self) -> FieldElement:
        return det3(self.m)

    def is_degenerate(self) -> bool:
        return self.det().is_zero()

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        a, b = self.upper(), other.upper()
        pivot = next(i for i in range(6) if not b[i].is_zero())
        t = a[pivot] / b[pivot]
        return all(a[i] == b[i] * t for i in range(6))

    def __hash__(self):
        raise TypeError("Conic is unhashable")

    def __repr__(self):
        return f"Conic{self.upper()!r}"


def conic_through(*points: BaryPoint) -> Conic:
    """The unique conic through five points, no four collinear."""
    if len(points) != 5:
        raise ValueError("need exactly five points")
    rows = []
    for p in points:
        x, y, z = p.coords
        rows.append([x * x, 2 * x * y, 2 * x * z, y * y, 2 * y * z, z * z])
    basis = nullspace(rows)
    if len(basis) != 1:
        raise DegenerateConfiguration(
            f"points do not determine a unique conic (kernel dimension {len(basis)})"
        )
    conic = Conic.from_upper(basis[0])
    for p in points:
        if not conic.contains(p):
            raise ConstructionError("fitted conic misses an input point")
    return conic


def conic_center(c: Conic) -> BaryPoint:
    """The pole of the infinite line."""
    coords = matvec3(adjugate3(c.m), (ONE, ONE, ONE))
    if all(x.is_zero() for x in coords):
        raise DegenerateConic("conic has no center")
    return BaryPoint(*coords)


def polar(c: Conic, p: BaryPoint) -> BaryLine:
    coords = matvec3(c.m, p.coords)
    if all(x.is_zero() for x in coords):
        raise DegenerateConic(f"{p} is a singular point of the conic")
    return BaryLine(*coords)


def pole(c: Conic, line: BaryLine) -> BaryPoint:
    if c.is_degenerate():
        raise DegenerateConic("pole needs a nondegenerate conic")
    coords = matvec3(adjugate3(c.m), line.coords)
    if all(x.is_zero() for x in coords):
        raise DegenerateConic("line has no pole")
    return BaryPoint(*coords)


def tangent_at(c: Conic, p: BaryPoint) -> BaryLine:
    if not c.contains(p):
        raise PointNotOnConic(f"{p} is not on the conic")
    return polar(c, p)


def _span_points(line: BaryLine) -> tuple[BaryPoint, BaryPoint]:
    l0, l1, l2 = line.coords
    candidates = []
    for coords in ((ZERO, -l2, l1), (-l2, ZERO, l0), (-l1, l0, ZERO)):
        if not all(x.is_zero() for x in coords):
            candidates.append(coords)
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            cross_zero = all(
                (a[(k + 1) % 3] * b[(k + 2) % 3] - a[(k + 2) % 3] * b[(k + 1) % 3]).is_zero()
                for k in range(3)
            )
            if not cross_zero:
                return BaryPoint(*a), BaryPoint(*b)
    raise ValueError("degenerate line")


def intersect_line(c: Conic, line: BaryLine, extend: bool = False) -> list[BaryPoint]:
    """Ordinary and infinite intersection points of a line with a conic.

    Returns 0, 1 (tangency) or 2 points.  When the points exist only over a
    quadratic extension of the current tower, raises NotASquare carrying the
    radicand one may adjoin, unless ``extend`` is set, in which case the
    extension is adjoined automatically (TowerDepthExceeded past depth 2).
    """
    from .field import sqrt_extending

    p0, p1 = _span_points(line)
    a = c.evaluate(p1)
    b = c.pair(p0, p1)
    cc = c.evaluate(p0)
    if a.is_zero():
        if b.is_zero():
            if cc.is_zero():
                raise DegenerateConic("line is contained in the conic")
            return [p1]
        t = -cc / (2 * b)
        other = BaryPoint(*(x + t * y for x, y in zip(p0.coords, p1.coords)))
        return [other, p1]
    disc = b * b - a * cc
    sgn = disc.sign()
    if sgn < 0:
        return []
    if sgn == 0:
        t = -b / a
        return [BaryPoint(*(x + t * y for x, y in zip(p0.coords, p1.coords)))]
    r = sqrt_extending(disc) if extend else disc.sqrt()
    out = []
    for t in ((-b + r) / a, (-b - r) / a):
        out.append(BaryPoint(*(x + t * y for x, y in zip(p0.coords, p1.coords))))
    return out


def infinity_restriction(c: Conic) -> tuple[FieldElement, FieldElement, FieldElement]:
    """The binary quadratic form of the conic on the infinite line, on the
    basis (1,-1,0), (0,1,-1)."""
    v1 = BaryPoint(1, -1, 0)
    v2 = BaryPoint(0, 1, -1)
    return (c.evaluate(v1), c.pair(v1, v2), c.evaluate(v2))


def affine_type(c: Conic) -> str:
    """'ellipse', 'parabola' or 'hyperbola' by the number of real infinite points."""
    if c.is_degenerate():
        raise DegenerateConic("affine type needs a nondegenerate conic")
    a, b, cc = infinity_restriction(c)
    sgn = (b * b - a * cc).sign()
    if sgn > 0:
        return "hyperbola"
    if sgn == 0:
        return "parabola"
    return "ellipse"


def infinite_points(c: Conic) -> list[BaryPoint]:
    """The real points of the conic on the infinite line (may need a tower
    extension; raises NotASquare with the radicand in that case)."""
    return [p for p in intersect_line(c, LINE_AT_INFINITY)]


def asymptotes(c: Conic) -> tuple[BaryLine, BaryLine]:
    if affine_type(c) != "hyperbola":
        raise NotAHyperbola("asymptotes exist only for hyperbolas")
    i1, i2 = infinite_points(c)
    return tangent_at(c, i1), tangent_at(c, i2)


def conic_image(c: Conic, mapping) -> Conic:
    """The image conic under an affine map, by congruence with the inverse."""
    finv = adjugate3(mapping.rows)
    return Conic(matmul3(transpose3(finv), matmul3(c.m, finv)))


def reflect_conic(c: Conic, center: BaryPoint) -> Conic:
    """The image of the conic under the half-turn about an ordinary point."""
    cn = center.normalized()
    # half-turn matrix 2*center*ones^T - identity; it is its own inverse
    half_turn = tuple(
        tuple(2 * cn[i] - (ONE if i == j else ZERO) for j in range(3)) for i in range(3)
    )
    return Conic(matmul3(transpose3(half_turn), matmul3(c.m, half_turn)))


def radical_line(c1: Conic, c2: Conic) -> BaryLine | None:
    """The line carrying the ordinary intersections of two conics that meet
    the infinite line in the same points.

    Scaling the second conic so the forms agree on the infinite line makes
    the difference factor as (x+y+z) times a line, whose coefficients sit on
    the diagonal of the symmetrized product.  Returns None when that line is
    the infinite line itself or vanishes (no ordinary intersection)."""
    a1, b1, cc1 = infinity_restriction(c1)
    a2, b2, cc2 = infinity_restriction(c2)
    if not (
        (a1 * b2 - a2 * b1).is_zero()
        and (a1 * cc2 - a2 * cc1).is_zero()
        and (b1 * cc2 - b2 * cc1).is_zero()
    ):
        raise NotSharedInfinity("conics have different infinite points")
    for num, den in ((a1, a2), (b1, b2), (cc1, cc2)):
        if not den.is_zero():
            mu = num / den
            break
    else:
        raise NotSharedInfinity("second conic is degenerate on the infinite line")
    diff = tuple(
        tuple(c1.m[i][j] - mu * c2.m[i][j] for j in range(3)) for i in range(3)
    )
    if all(x.is_zero() for r in diff for x in r):
        raise IdenticalConics("the conics coincide")
    radical = tuple(diff[i][i] for i in range(3))
    for i in range(3):
        for j in range(i + 1, 3):
            if 2 * diff[i][j] != radical[i] + radical[j]:
                raise NotSharedInfinity(
                    "pencil difference is not a line pair with the infinite line"
                )
    if all(x.is_zero() for x in radical):
        return None
    line = BaryLine(*radical)
    if line == LINE_AT_INFINITY:
        return None
    return line


def intersect_shared_infinity(c1: Conic, c2: Conic, extend: bool = False) -> list[BaryPoint]:
    """Ordinary intersection points of two conics meeting the infinite line
    in the same two points, via the radical line of their pencil."""
    line = radical_line(c1, c2)
    if line is None:
        return []
    points = intersect_line(c1, line, extend=extend)
    return [p for p in points if not p.is_infinite()]


def is_interior(c: Conic, p: BaryPoint) -> bool:
    """Sign test relative to the center: true when the quadratic form has
    the same sign at p as at the center of the conic."""
    center = conic_center(c)
    sc = c.evaluate(center).sign() * center.coordinate_sum().sign() ** 2
    sp = c.evaluate(p).sign()
    if sc == 0:
        raise DegenerateConic("center lies on the conic")
    return sp == sc


# ---------------------------------------------------------------------------
# named conics


def steiner_circumellipse() -> Conic:
    return circumconic_of_line(LINE_AT_INFINITY)


def steiner_inellipse() -> Conic:
    return Conic(((1, -1, -1), (-1, 1, -1), (-1, -1, 1)))


def circumconic_of_line(line: BaryLine) -> Conic:
    """The isotomic image of a line: for line (p:q:r) the circumconic
    p*yz + q*xz + r*xy = 0."""
    p, q, r = line.coords
    zero_count = sum(1 for x in (p, q, r) if x.is_zero())
    if zero_count >= 2:
        raise DegenerateConfiguration("the isotomic image of a sideline is degenerate")
    return Conic(((ZERO, r, q), (r, ZERO, p), (q, p, ZERO)))


def inconic(p: BaryPoint) -> Conic:
    """The conic tangent to the three sidelines at the cevian traces of p;
    its center is the isotomcomplement of p."""
    from .maps import cevian_traces, isotom_complement, validate_point

    validate_point(p)
    d, e, f = cevian_traces(p)
    dx, dy, dz = d.coords
    ex, ey, ez = e.coords
    fx, fy, fz = f.coords
    rows = [
        # polar of d is the sideline x=0: components 1 and 2 of m*d vanish
        [ZERO, dx, ZERO, dy, dz, ZERO],
        [ZERO, ZERO, dx, ZERO, dy, dz],
        # polar of e is the sideline y=0: components 0 and 2 of m*e vanish
        [ex, ey, ez, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ex, ZERO, ey, ez],
        # f lies on the conic
        [fx * fx, 2 * fx * fy, 2 * fx * fz, fy * fy, ZERO, ZERO],
    ]
    basis = nullspace(rows)
    if len(basis) != 1:
        raise DegenerateConfiguration("tangency system is degenerate")
    conic = Conic.from_upper(basis[0])
    third = matvec3(conic.m, f.coords)
    if not (third[0].is_zero() and third[1].is_zero()):
        raise ConstructionError("inconic is not tangent to the third sideline")
    if conic_center(conic) != isotom_complement(p):
        raise ConstructionError("inconic center is not the isotomcomplement")
    return conic


def nine_point_conic(p_iso: BaryPoint) -> Conic:
    """The conic through the six midpoints of the quadrangle formed by the
    reference triangle and the given ordinary point."""
    mids = [
        midpoint(B, C),
        midpoint(C, A),
        midpoint(A, B),
        midpoint(A, p_iso),
        midpoint(B, p_iso),
        midpoint(C, p_iso),
    ]
    conic = conic_through(*mids[:5])
    if not conic.contains(mids[5]):
        raise ConstructionError("nine-point conic misses the sixth midpoint")
    return conic


def circumconic_for(p_iso: BaryPoint, t_p_iso) -> Conic:
    """The circumconic centered at the generalized circumcenter: the image
    of the nine-point conic of the quadrangle under the inverse cevian map."""
    n = nine_point_conic(p_iso)
    return conic_image(n, t_p_iso.inverse())

