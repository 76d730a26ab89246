"""Homogeneous barycentric points and lines over exact field elements.

The reference triangle is fixed: A=(1:0:0), B=(0:1:0), C=(0:0:1) with
centroid G=(1:1:1).  A point is ordinary when its coordinate sum is nonzero;
the line at infinity is x+y+z=0.  Triples are considered up to nonzero
scale, and the canonical form divides by the first nonzero entry.

Parallelism, collinearity and displacement ratios, which only check a
construction, are in ``verify``.
"""

from __future__ import annotations

from math import lcm

from .field import CeviangeoError, FieldElement, _Frozen, fe, ZERO, format_element, parse_triple


class PlaneError(CeviangeoError):
    """Base class for incidence-level errors."""


class IdenticalArguments(PlaneError):
    pass


class InfiniteLineArgument(PlaneError):
    pass


class InfinitePointArgument(PlaneError):
    pass


class WeightsSumNotOne(PlaneError):
    pass


def _triple(coords):
    out = tuple(fe(c) for c in coords)
    if len(out) != 3:
        raise ValueError("need exactly three coordinates")
    if all(c.is_zero() for c in out):
        raise ValueError("all-zero coordinate triple")
    return out


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


class _Triple(_Frozen):
    __slots__ = ("coords",)

    def __init__(self, *coords):
        object.__setattr__(self, "coords", _triple(coords))

    def __reduce__(self):
        return type(self), self.coords

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(c.is_zero() for c in _cross(self.coords, other.coords))

    def __hash__(self):
        return hash(self.canonical().coords)

    def canonical(self):
        for c in self.coords:
            if not c.is_zero():
                inv = c.inverse()
                return type(self)(*(x * inv for x in self.coords))
        raise ValueError("zero triple")

    def __repr__(self):
        body = ",".join(format_element(c) for c in self.coords)
        return f"[{body}]"


class BaryPoint(_Triple):
    """A projective point in barycentric coordinates."""

    __slots__ = ()

    def coordinate_sum(self) -> FieldElement:
        x, y, z = self.coords
        return x + y + z

    def is_infinite(self) -> bool:
        return self.coordinate_sum().is_zero()

    def normalized(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        """Absolute barycentric coordinates (summing to one)."""
        s = self.coordinate_sum()
        if s.is_zero():
            raise InfinitePointArgument(f"cannot normalize infinite point {self}")
        inv = s.inverse()
        return tuple(c * inv for c in self.coords)


class BaryLine(_Triple):
    """A projective line; incidence is the vanishing dot product."""

    __slots__ = ()

    def contains(self, point: BaryPoint) -> bool:
        return sum(
            (a * b for a, b in zip(self.coords, point.coords)), ZERO
        ).is_zero()

    def is_infinite_line(self) -> bool:
        return self == LINE_AT_INFINITY


A = BaryPoint(1, 0, 0)
B = BaryPoint(0, 1, 0)
C = BaryPoint(0, 0, 1)
G = BaryPoint(1, 1, 1)
D0 = BaryPoint(0, 1, 1)
E0 = BaryPoint(1, 0, 1)
F0 = BaryPoint(1, 1, 0)
LINE_AT_INFINITY = BaryLine(1, 1, 1)


def _integral(p: BaryPoint) -> BaryPoint:
    """The same point scaled by the lcm of its coordinates' denominators, so
    each coordinate has denominator one and a polynomial zero test in them
    reduces no product by a gcd."""
    scale = lcm(*(c.den for c in p.coords))
    if scale == 1:
        return p
    return BaryPoint(*(c * scale for c in p.coords))


def point(value) -> BaryPoint:
    """Build a point from field elements, numbers, expression strings,
    or a literal like '[1,1+sqrt(2),1-sqrt(2)]'."""
    if isinstance(value, BaryPoint):
        return value
    if isinstance(value, str):
        return BaryPoint(*parse_triple(value))
    return BaryPoint(*value)


def point_to_literal(p: BaryPoint) -> str:
    return repr(p.canonical())


def join(p1: BaryPoint, p2: BaryPoint) -> BaryLine:
    cross = _cross(p1.coords, p2.coords)
    if all(c.is_zero() for c in cross):
        raise IdenticalArguments(f"join of identical points {p1}")
    return BaryLine(*cross)


def meet(l1: BaryLine, l2: BaryLine) -> BaryPoint:
    cross = _cross(l1.coords, l2.coords)
    if all(c.is_zero() for c in cross):
        raise IdenticalArguments(f"meet of identical lines {l1}")
    return BaryPoint(*cross)


def infinite_point_of(line: BaryLine) -> BaryPoint:
    if line.is_infinite_line():
        raise InfiniteLineArgument("the infinite line has no single infinite point")
    return meet(line, LINE_AT_INFINITY)


def affine_combination(weighted: list[tuple[BaryPoint, FieldElement]]) -> BaryPoint:
    weights = [fe(w) for _, w in weighted]
    total = sum(weights, ZERO)
    if total != 1:
        raise WeightsSumNotOne(f"weights sum to {total}")
    acc = [ZERO, ZERO, ZERO]
    for (p, _), w in zip(weighted, weights):
        pn = p.normalized()  # raises InfinitePointArgument as required
        for i in range(3):
            acc[i] = acc[i] + w * pn[i]
    return BaryPoint(*acc)


def midpoint(p: BaryPoint, q: BaryPoint) -> BaryPoint:
    half = fe(1) / 2
    return affine_combination([(p, half), (q, half)])
