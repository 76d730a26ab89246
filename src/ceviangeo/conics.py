"""Projective conics as exact symmetric coefficient arrays.

Provides the conic type with its center, and the named conics of the
derived-point dictionary: the cevian conic, the circumconic and the inconic,
closed forms at the scale of their defining constructions (the five-point
fit and the image of the nine-point conic), which ``verify`` keeps as
cross-checks.  The five-point fit, the nine-point conic of a quadrangle and
line intersection (adjoining the square root of the discriminant when it is
not a square) are here too, though only ``verify`` runs them: the benchmark
tracer reads them by module.  The degeneracy test, polarity, tangency,
affine type, images under affine maps and the interior test are
``verify``'s.
"""

from __future__ import annotations

from .field import CeviangeoError, FieldElement, _Frozen, fe, ZERO, ONE, sqrt_extending
from .linalg import _matrix3, adjugate3, matvec3, nullspace, proportional
from .maps import isotom_complement, validate_point
from .plane import (
    A,
    B,
    C,
    LINE_AT_INFINITY,
    BaryLine,
    BaryPoint,
    _cross,
    midpoint,
)


class ConicError(CeviangeoError):
    pass


class DegenerateConfiguration(ConicError):
    pass


class DegenerateConic(ConicError):
    pass


class ConstructionError(ConicError):
    """A postcondition of a conic construction failed."""


class Conic(_Frozen):
    """A conic x^T m x = 0 for a symmetric matrix m, up to scale."""

    __slots__ = ("m",)

    def __init__(self, rows):
        m = _matrix3(rows)
        for i in range(3):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise ValueError("conic matrix must be symmetric")
        if all(x.is_zero() for r in m for x in r):
            raise ValueError("zero conic matrix")
        object.__setattr__(self, "m", m)

    @classmethod
    def from_upper(cls, six) -> Conic:
        """Build from the upper triangle (m00, m01, m02, m11, m12, m22)."""
        a, b, c, d, e, f = (fe(x) for x in six)
        return cls(((a, b, c), (b, d, e), (c, e, f)))

    def upper(self):
        m = self.m
        return (m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2])

    def evaluate(self, p: BaryPoint) -> FieldElement:
        return self.pair(p, p)

    def contains(self, p: BaryPoint) -> bool:
        return self.evaluate(p).is_zero()

    def pair(self, p: BaryPoint, q: BaryPoint) -> FieldElement:
        v = matvec3(self.m, q.coords)
        return sum((a * b for a, b in zip(p.coords, v)), ZERO)

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return proportional(self.upper(), other.upper())

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
    return Conic.from_upper(basis[0])


def conic_center(c: Conic) -> BaryPoint:
    """The pole of the infinite line."""
    coords = matvec3(adjugate3(c.m), (ONE, ONE, ONE))
    if all(x.is_zero() for x in coords):
        raise DegenerateConic("conic has no center")
    return BaryPoint(*coords)


def _span_points(line: BaryLine) -> tuple[BaryPoint, BaryPoint]:
    l0, l1, l2 = line.coords
    candidates = []
    for coords in ((ZERO, -l2, l1), (-l2, ZERO, l0), (-l1, l0, ZERO)):
        if not all(x.is_zero() for x in coords):
            candidates.append(coords)
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            if not all(x.is_zero() for x in _cross(a, b)):
                return BaryPoint(*a), BaryPoint(*b)
    raise ValueError("degenerate line")


def _line_restriction(c: Conic, line: BaryLine):
    """The conic restricted to the line: (p0, p1, a, b, cc) for two points
    spanning it, with c(p0 + t*p1) = a*t^2 + 2*b*t + cc."""
    p0, p1 = _span_points(line)
    return p0, p1, c.evaluate(p1), c.pair(p0, p1), c.evaluate(p0)


def intersect_line(c: Conic, line: BaryLine) -> list[BaryPoint]:
    """Ordinary and infinite intersection points of a line with a conic.

    Returns 0, 1 (tangency) or 2 points.  When the points exist only over a
    quadratic extension, the square root of the discriminant is adjoined
    (TowerDepthExceeded past depth 2).
    """
    p0, p1, a, b, cc = _line_restriction(c, line)
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
    r = sqrt_extending(disc)
    out = []
    for t in ((-b + r) / a, (-b - r) / a):
        out.append(BaryPoint(*(x + t * y for x, y in zip(p0.coords, p1.coords))))
    return out


# ---------------------------------------------------------------------------
# named conics


def steiner_circumellipse() -> Conic:
    return circumconic_of_line(LINE_AT_INFINITY)


def circumconic_of_line(line: BaryLine) -> Conic:
    """The isotomic image of a line: for line (p:q:r) the circumconic
    p*yz + q*xz + r*xy = 0."""
    p, q, r = line.coords
    zero_count = sum(1 for x in (p, q, r) if x.is_zero())
    if zero_count >= 2:
        raise DegenerateConfiguration("the isotomic image of a sideline is degenerate")
    return Conic(((ZERO, r, q), (r, ZERO, p), (q, p, ZERO)))


def inconic(p: BaryPoint) -> Conic:
    """The conic tangent to the sidelines at the cevian traces of p = (a:b:c),
    centered at the isotomcomplement: with w = (c/a, c/b, 1), m_ii = w_i^2
    and m_ij = -w_i*w_j."""
    validate_point(p)
    a, b, c = p.coords
    w = (c / a, c / b, ONE)
    return Conic(
        tuple(tuple(w[i] * w[j] if i == j else -w[i] * w[j] for j in range(3)) for i in range(3))
    )


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


def circumconic_for(p: BaryPoint) -> Conic:
    """The circumconic centered at the generalized circumcenter of p = (a:b:c):
    the isotomic image of (q1^2 : q2^2 : q3^2) for the isotomcomplement q,
    times -4a^2b^2c/((a+b)(a+c)(b+c))^3, the scale of the nine-point route."""
    validate_point(p)
    a, b, c = p.coords
    scale = -4 * a * a * b * b * c / ((a + b) * (a + c) * (b + c)) ** 3
    return circumconic_of_line(BaryLine(*(scale * x * x for x in isotom_complement(p).coords)))
