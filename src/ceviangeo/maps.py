"""Affine maps of the barycentric plane and the derived-point dictionary.

Covers the complement and isotomic maps, cevian triangles and the affine
maps carrying the reference triangle onto them, the generalized orthocenter
and circumcenter, and the transfer map (the homothety or translation taking
the circumconic to the inconic) and its classification.  The orthocenter,
the named conics, the transfer map and its classification are closed forms
in the base point; their defining constructions (for the transfer map, the
composition of the cevian maps through the anticomplement) are cross-checks
in ``verify.construction_profile``.
"""

from __future__ import annotations

from collections import namedtuple

from .field import CeviangeoError, FieldElement, _Frozen, ZERO
from .linalg import _matrix3, adjugate3, det3, matmul3, matvec3, proportional, vecmat3
from .plane import G, BaryLine, BaryPoint, InfinitePointArgument, _integral, join, meet


class MapError(CeviangeoError):
    pass


class OnSideline(MapError):
    pass


class OnAnticomplementarySideline(MapError):
    pass


class OnSteinerCircumellipse(MapError):
    """The isotomic conjugate is an infinite point, so its cevian map fails."""


class OnMedian(MapError):
    pass


class VertexArgument(MapError):
    pass


class DegenerateTriangle(MapError):
    pass


class AffineMap(_Frozen):
    """A 3x3 coefficient array acting linearly on barycentric triples.

    The matrix convention is column j = normalized image of the j-th
    reference vertex, so the action preserves coordinate sums and the map
    restricts to an affine map of the ordinary plane.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        object.__setattr__(self, "rows", _matrix3(rows))

    @classmethod
    def from_columns(cls, cols) -> AffineMap:
        return cls(tuple(zip(*cols)))

    def apply(self, p: BaryPoint) -> BaryPoint:
        return BaryPoint(*matvec3(self.rows, p.coords))

    def apply_line(self, line: BaryLine) -> BaryLine:
        return BaryLine(*vecmat3(line.coords, adjugate3(self.rows)))

    def __matmul__(self, other: AffineMap) -> AffineMap:
        return AffineMap(matmul3(self.rows, other.rows))

    def det(self) -> FieldElement:
        return det3(self.rows)

    def inverse(self) -> AffineMap:
        if self.det().is_zero():
            raise DegenerateTriangle("map is not invertible")
        return AffineMap(adjugate3(self.rows))

    def normalized(self) -> AffineMap:
        """Rescale so every column sums to one."""
        sums = tuple(sum((self.rows[i][j] for i in range(3)), ZERO) for j in range(3))
        if sums[0].is_zero() or sums[0] != sums[1] or sums[1] != sums[2]:
            raise MapError("matrix does not fix the infinite line")
        inv = sums[0].inverse()
        return AffineMap(tuple(tuple(x * inv for x in r) for r in self.rows))

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        # equality up to scale; the constructor accepts the zero matrix
        a, b = sum(self.rows, ()), sum(other.rows, ())
        if all(x.is_zero() for x in b):
            return all(x.is_zero() for x in a)
        return proportional(a, b)

    def __repr__(self):
        return f"AffineMap({self.rows!r})"


def complement(p: BaryPoint) -> BaryPoint:
    """The homothety about G with ratio -1/2; fixes every infinite point."""
    x, y, z = p.coords
    return BaryPoint(y + z, x + z, x + y)


def anticomplement(p: BaryPoint) -> BaryPoint:
    x, y, z = p.coords
    return BaryPoint(y + z - x, x + z - y, x + y - z)


def isotomic(p: BaryPoint) -> BaryPoint:
    x, y, z = p.coords
    if x.is_zero() or y.is_zero() or z.is_zero():
        raise OnSideline(f"isotomic conjugate undefined on a sideline: {p}")
    return BaryPoint(y * z, x * z, x * y)


def isotom_complement(p: BaryPoint) -> BaryPoint:
    """complement(isotomic(p)); the center of the inconic of p."""
    x, y, z = p.coords
    if x.is_zero() or y.is_zero() or z.is_zero():
        raise OnSideline(f"isotomcomplement undefined on a sideline: {p}")
    return BaryPoint(x * (y + z), y * (x + z), z * (x + y))


def cevian_traces(p: BaryPoint) -> tuple[BaryPoint, BaryPoint, BaryPoint]:
    x, y, z = p.coords
    if (y.is_zero() and z.is_zero()) or (x.is_zero() and z.is_zero()) or (
        x.is_zero() and y.is_zero()
    ):
        raise VertexArgument(f"cevian traces undefined at a vertex: {p}")
    return (
        BaryPoint(ZERO, y, z),
        BaryPoint(x, ZERO, z),
        BaryPoint(x, y, ZERO),
    )


def map_from_triangles(src, dst) -> AffineMap:
    """The unique affine map sending the first triangle onto the second."""
    s, d = (AffineMap.from_columns([p.normalized() for p in tri]) for tri in (src, dst))
    if s.det().is_zero() or d.det().is_zero():
        raise DegenerateTriangle("triangle vertices are collinear")
    return (d @ s.inverse()).normalized()


def cevian_map(p: BaryPoint) -> AffineMap:
    """The affine map taking the reference triangle to the cevian triangle of p."""
    validate_point(p)
    traces = cevian_traces(p)
    return AffineMap.from_columns(tuple(t.normalized() for t in traces))


def validate_point(p: BaryPoint, off_medians: bool = False) -> None:
    """Check the standing hypotheses on a base point.

    The point and its isotomic conjugate must be ordinary and off the
    sidelines of the reference triangle and of its anticomplementary
    triangle; optionally also off the medians.
    """
    x, y, z = p.coords
    if p.is_infinite():
        raise InfinitePointArgument(f"base point must be ordinary: {p}")
    if x.is_zero() or y.is_zero() or z.is_zero():
        raise OnSideline(f"{p} lies on a sideline")
    if (y + z).is_zero() or (x + z).is_zero() or (x + y).is_zero():
        raise OnAnticomplementarySideline(
            f"{p} lies on a sideline of the anticomplementary triangle"
        )
    if (x * y + y * z + z * x).is_zero():
        raise OnSteinerCircumellipse(
            f"{p} lies on the Steiner circumellipse; its isotomic conjugate is infinite"
        )
    if off_medians and ((x - y).is_zero() or (y - z).is_zero() or (x - z).is_zero()):
        raise OnMedian(f"{p} lies on a median")


def is_valid_point(p: BaryPoint, off_medians: bool = False) -> bool:
    try:
        validate_point(p, off_medians=off_medians)
    except (MapError, InfinitePointArgument):
        return False
    return True


class MClassification(namedtuple("MClassification", "kind ratio center")):
    """Shape of the transfer map: a translation or a homothety.

    For a homothety ``center`` is the ordinary fixed point and ``ratio`` the
    scale factor; for a translation ``ratio`` is None and ``center`` is the
    infinite point in the direction of translation.
    """

    __slots__ = ()

    def is_translation(self) -> bool:
        return self.kind == "translation"


class Configuration(namedtuple("Configuration", (
    "p",
    "p_iso",  # isotomic conjugate of p
    "q",  # isotomcomplement of p; center of the inconic
    "q_iso",  # isotomcomplement of p_iso, i.e. the complement of p
    "h",  # generalized orthocenter
    "o",  # generalized circumcenter; the complement of h
    "o_iso",  # generalized circumcenter for p_iso
    "v",  # meet of lines p q and p_iso q_iso
    "z",  # center of the cevian conic
    "u",  # anticomplement of z
    "s",  # center of the transfer map, as a line intersection
    "t_p",  # reference triangle -> cevian triangle of p
    "t_p_iso",  # reference triangle -> cevian triangle of p_iso
    "transfer",  # t_p o anticomplement o t_p_iso
    "cevian_conic",  # conic through the triangle, p and q
    "circumconic",  # conic through the triangle centered at o
    "inconic",  # conic with center q tangent to the sides
))):
    """Every derived point, map and conic attached to a base point: the
    points are BaryPoints, t_p, t_p_iso and transfer AffineMaps, and the
    three conics Conics.

    Median-dependent members (v, z, u, s and the cevian-conic center data)
    are None when the base point lies on a median of the reference triangle.
    """

    __slots__ = ()


def transfer_map(p: BaryPoint) -> AffineMap:
    """The map T_P o K^-1 o T_P' taking the circumconic to the inconic, in
    closed form: with D = (x+y)(x+z)(y+z) it is (1/D) times

        [[x(y-z)^2, x(y+z)^2, x(y+z)^2],
         [y(x+z)^2, y(x-z)^2, y(x+z)^2],
         [z(x+y)^2, z(x+y)^2, z(x-y)^2]],

    whose columns already sum to one.  It is symmetric in p and its isotomic
    conjugate; the composition of the cevian maps is a cross-check in
    ``verify.construction_profile``."""
    validate_point(p)
    x, y, z = p.coords
    inv = ((x + y) * (x + z) * (y + z)).inverse()
    a, b, c = x * inv, y * inv, z * inv
    yz2, xz2, xy2 = (y + z) ** 2, (x + z) ** 2, (x + y) ** 2
    return AffineMap(
        (
            (a * (y - z) ** 2, a * yz2, a * yz2),
            (b * xz2, b * (x - z) ** 2, b * xz2),
            (c * xy2, c * xy2, c * (x - y) ** 2),
        )
    )


def classify_transfer(p: BaryPoint) -> MClassification:
    """Classify the transfer map of p without building it.  Its center S has
    the coordinates ``transfer_center_coords(p)``, whose sum is D + 4xyz with
    D = (x+y)(x+z)(y+z): when S is infinite the map is a translation in the
    direction S, otherwise a homothety about S with ratio -4xyz/D.  Both are
    evaluated on the point scaled to integral coordinates, so the center is
    S up to a scalar."""
    p = _integral(p)
    validate_point(p)
    s = BaryPoint(*transfer_center_coords(p))
    if s.is_infinite():
        return MClassification("translation", None, s)
    x, y, z = p.coords
    return MClassification("homothety", -4 * x * y * z / ((x + y) * (x + z) * (y + z)), s)


def transfer_center_coords(p: BaryPoint) -> tuple[FieldElement, FieldElement, FieldElement]:
    """The coordinates (x(y+z)^2, y(x+z)^2, z(x+y)^2) of the transfer map's
    center.  Their sum is the translation cubic; all three vanish only at
    the vertices, which lie on it."""
    x, y, z = p.coords
    return (x * (y + z) ** 2, y * (x + z) ** 2, z * (x + y) ** 2)


def orthocenter(p: BaryPoint) -> BaryPoint:
    """The generalized orthocenter of a valid base point p = (a:b:c):
    (a*D_b*D_c : b*D_a*D_c : c*D_a*D_b) with D_a = a^2 - a(b+c) - bc, so it
    is the vertex A exactly on the vertex conic x^2 = xy + xz + yz."""
    validate_point(p)
    a, b, c = p.coords
    d_a = a * a - a * (b + c) - b * c
    d_b = b * b - b * (a + c) - a * c
    d_c = c * c - c * (a + b) - a * b
    return BaryPoint(a * d_b * d_c, b * d_a * d_c, c * d_a * d_b)


def derive_configuration(p: BaryPoint) -> Configuration:
    """Compute the full derived-point dictionary for a valid base point."""
    from . import conics as _conics  # conics imports maps at module level

    validate_point(p)
    p_iso = isotomic(p)
    q = isotom_complement(p)
    q_iso = complement(p)
    t_p = cevian_map(p)
    t_p_iso = cevian_map(p_iso)
    h = orthocenter(p)
    o = complement(h)
    o_iso = complement(orthocenter(p_iso))
    transfer = transfer_map(p)

    circumconic = _conics.circumconic_for(p)
    inconic = _conics.inconic(p)

    x, y, z = p.coords
    on_median = (x - y).is_zero() or (y - z).is_zero() or (x - z).is_zero()
    v = z_center = u = s = cev = None
    if not on_median:
        # the circumconic through p and q is the isotomic image of the line
        # through their isotomic conjugates
        cev = _conics.circumconic_of_line(join(p_iso, isotomic(q)).canonical())
        v = meet(join(p, q), join(p_iso, q_iso))
        z_center = _conics.conic_center(cev)
        u = anticomplement(z_center)
        s = meet(join(o, q), join(G, v))
    return Configuration(
        p=p,
        p_iso=p_iso,
        q=q,
        q_iso=q_iso,
        h=h,
        o=o,
        o_iso=o_iso,
        v=v,
        z=z_center,
        u=u,
        s=s,
        t_p=t_p,
        t_p_iso=t_p_iso,
        transfer=transfer,
        cevian_conic=cev,
        circumconic=circumconic,
        inconic=inconic,
    )
