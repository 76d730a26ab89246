"""The elliptic curve carrying the translation locus, in four models.

The locus of base points whose transfer map is a translation is the
projective cubic x(y+z)^2 + y(x+z)^2 + z(x+y)^2 = 0.  In absolute
coordinates it becomes the normal form (3x+1)y^2 + (3x+1)(x-1)y + x^2-x = 0,
a member of the family E_a with parameter a = 3; completing the square and a
Moebius change of variable carry it to the Weierstrass model
v^2 = u(u^2 + 6u - 3), where the chord-tangent group law lives.  This module
implements the cubic, the Weierstrass model and the map ``w_to_bary`` between
them (with the explicit limit table at its exceptional points), the group
law, the torsion group, and the seeded sampler used by the verification
suites.  The cubic is evaluated as (x+y+z)(xy+yz+zx) + 3xyz; ``verify``
checks it against the coordinate sum of the transfer map's center.
``w_to_bary`` is the closed form, written through the slope v/u of the line
to (0, 0), of the chain through the normal form; the chain, the normal-form
family and the torsion addition table are cross-checks in ``verify``.  Under
``w_to_bary``, P -> +-P + T for the six rational torsion points T are the
triangle's symmetries with isotomic conjugation, as the ``curve`` suite checks.

Shifting u by 2 puts the Weierstrass model in the minimal form
v^2 = u^3 - 15u + 22 (Cremona label 36a2), whose Mordell-Weil rank over Q
is zero; here that fact is not recomputed, and the bounded checks that the
generator's first 24 multiples avoid the torsion group stand in for it.

The generator G = (3, 6*sqrt(2)) has rational u and v in sqrt(2)*Q, so it
is the image of the rational point G' = (6, 24) of the quadratic twist
V^2 = U^3 + 12U^2 - 12U under u = U/2, v = (V/4)*sqrt(2) (Silverman, The
Arithmetic of Elliptic Curves, GTM 106, section X.2).  The map is a group
homomorphism, so ``k*P`` for such a point runs double-and-add on the twist
over Q and lifts the result once onto the tower with sqrt(2); both curves
share one chord-tangent formula.  ``WPoint.__add__`` translates such a
point by a finite rational torsion point in closed form over Q (see
``_translate``) and leaves every other sum to the chord-tangent law.
Group-law results are built without evaluating the cubic (only
``WPoint(...)`` and ``WPoint.of`` check it); the ``curve`` suite's entries
"generator multiples lie on the curve", "twist multiples equal chord-tangent
multiples up to 24" and "torsion translations equal the chord-tangent sum"
check them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import gcd

from .field import CeviangeoError, FieldElement, fe, ZERO, _Frozen, _make, _reduced
from .plane import A, BaryPoint, _integral


class CurveError(CeviangeoError):
    pass


class OffCurve(CurveError):
    pass


class MultipleTooLarge(CurveError):
    """A multiple of the generator above MULTIPLE_BOUND was requested."""


class SampleTooLarge(CurveError):
    """A sample larger than SAMPLE_BOUND, or of negative size, was
    requested: of translation points, or per invariant of a verify suite; or
    more points of a normal-form member than its x values give."""


# Weierstrass coefficients of v^2 = u^3 + 6u^2 - 3u
_A2 = fe(6)
_A4 = fe(-3)
# its quadratic twist by 2, V^2 = U^3 + 2*a2*U^2 + 4*a4*U = U^3 + 12U^2 - 12U,
# with u = U/2 and v = (V/4)*sqrt(2); the twist's rational torsion is
# {O, (0, 0)} (Nagell-Lutz), so a point with v != 0 on its image has no torsion
_TWIST_TOWER = (2,)
_TWIST_A2 = 2 * _A2
_TWIST_A4 = 4 * _A4
# the largest |k| whose multiple of the generator the CLI prints: the
# coordinates of k*G have about 0.7*k^2 bits, 3.5 k digits at k = 128
MULTIPLE_BOUND = 128
# the largest sample sample_translation_points draws: its multiple range
# widens with n, so coordinate heights grow with n^2 (1500 bits at n = 128,
# 4753 at n = 256), and with them the time of the suites using the sample
SAMPLE_BOUND = 128


def _rhs(u: FieldElement) -> FieldElement:
    return u * (u * u + _A2 * u + _A4)


def _chord_tangent(a2, a4, p, q):
    """p + q on v^2 = u^3 + a2*u^2 + a4*u, for coordinate pairs (u, v) with
    None for the point at infinity."""
    if p is None:
        return q
    if q is None:
        return p
    (u1, v1), (u2, v2) = p, q
    if u1 == u2:
        if (v1 + v2).is_zero():
            return None
        slope = (3 * u1 * u1 + 2 * a2 * u1 + a4) / (2 * v1)
    else:
        slope = (v2 - v1) / (u2 - u1)
    u3 = slope * slope - a2 - u1 - u2
    return u3, -(v1 + slope * (u3 - u1))


def _double_and_add(a2, a4, p, n: int):
    """n*p for n >= 0 on the curve with coefficients (a2, a4)."""
    acc = None
    while n:
        if n & 1:
            acc = _chord_tangent(a2, a4, acc, p)
        n >>= 1
        if n:
            p = _chord_tangent(a2, a4, p, p)
    return acc


class WPoint(_Frozen):
    """A point of v^2 = u(u^2+6u-3), or the point at infinity.

    ``u`` and ``v`` are FieldElements, or both None at infinity.  Not a
    tuple: ``3 * P`` is the group law, never a repeated sequence.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: FieldElement | None, v: FieldElement | None):
        if (u is None) != (v is None):
            raise ValueError("both coordinates or neither")
        if u is not None and _rhs(u) != v * v:
            raise OffCurve(f"({u}, {v}) is not on the curve")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.u, self.v) == (other.u, other.v)
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v))

    @classmethod
    def infinity(cls) -> WPoint:
        return cls(None, None)

    @classmethod
    def of(cls, u, v) -> WPoint:
        return cls(fe(u), fe(v))

    def is_infinity(self) -> bool:
        return self.u is None

    def __neg__(self) -> WPoint:
        if self.is_infinity():
            return self
        return _wpoint((self.u, -self.v))

    def __add__(self, other: WPoint) -> WPoint:
        if not isinstance(other, WPoint):
            return NotImplemented
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        s = _translate(self, other)
        if s is None:
            s = _translate(other, self)
        if s is not None:
            return s
        return _wpoint(_chord_tangent(_A2, _A4, (self.u, self.v), (other.u, other.v)))

    def __rmul__(self, n: int) -> WPoint:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (-n) * (-self)
        if n > 1:
            twisted = _to_twist(self)
            if twisted is not None:
                return _from_twist(_double_and_add(_TWIST_A2, _TWIST_A4, twisted, n))
        return chord_tangent_multiple(self, n)

    def order(self, bound: int = 16) -> int | None:
        """The order of the point in the group, or None if above the bound."""
        acc = self
        for n in range(1, bound + 1):
            if acc.is_infinity():
                return n
            acc = acc + self
        return None

    def __repr__(self):
        if self.is_infinity():
            return "WPoint(infinity)"
        return f"WPoint({self.u!r}, {self.v!r})"


def _wpoint(coords) -> WPoint:
    """Internal constructor for group-law results, which lie on the curve by
    construction: skips the cubic evaluation of ``WPoint.__init__``."""
    w = object.__new__(WPoint)
    u, v = (None, None) if coords is None else coords
    object.__setattr__(w, "u", u)
    object.__setattr__(w, "v", v)
    return w


def _twist_rationals(p: WPoint):
    """Integers (a, d, b, e) with u = a/d and v = (b/e)*sqrt(2) when p is
    finite with rational u and v a nonzero rational multiple of sqrt(2): the
    image of a twist point, which has infinite order.  Else None."""
    if p.is_infinity():
        return None
    u, v = p.u, p.v
    if v.tower != _TWIST_TOWER or v.num[0] or not v.num[1]:
        return None
    if u.tower not in ((), _TWIST_TOWER) or not u.is_rational():
        return None
    return u.num[0], u.den, v.num[1], v.den


def _to_twist(p: WPoint):
    """(U, V) = (2u, 2*sqrt(2)*v) over Q when p lies on the twist image, else
    None."""
    q = _twist_rationals(p)
    if q is None:
        return None
    a, d, b, e = q
    return fe(Fraction(2 * a, d)), fe(Fraction(4 * b, e))


def _translate(p: WPoint, t: WPoint):
    """p + t in closed form when p lies on the twist image and t is a finite
    rational torsion point written over Q, else None.  With v = r*sqrt(2):
    p + (0, 0) = (-3/u, 3v/u^2), again on the twist image; p + (1, 2e) is the
    chord of slope (v - 2e)/(u - 1), which the curve equation reduces to
    ((u^2 + 10u - 3 - 4er*sqrt(2))/(u - 1)^2,
     (2e(u^3 + 15u^2 + 3u - 3) - 4(3u + 1)r*sqrt(2))/(u - 1)^3);
    and p + (-3, 6e) = (p + (0, 0)) + (1, 2e).  The result lies on the tower
    with sqrt(2), as the chord-tangent sum does."""
    tu = t.u
    if tu is None or tu.tower or t.v.tower or tu.den != 1 or tu.num[0] not in (0, 1, -3):
        return None
    q = _twist_rationals(p)
    if q is None:
        return None
    a, d, b, e = q
    if tu.num[0] != 1:
        # p + (0, 0) in lowest terms: a/d and b/e are, so -3d/a and 3b/e
        # cancel only by 3, and 3b/e times d^2/a^2 only crosswise
        g = gcd(3, a) if a > 0 else -gcd(3, a)
        g0 = gcd(3, e)
        b, e, aa, dd = 3 * b // g0, e // g0, a * a, d * d
        g1, g2 = gcd(b, aa), gcd(dd, e)
        a, d, b, e = -3 * d // g, a // g, (b // g1) * (dd // g2), (e // g2) * (aa // g1)
        if tu.num[0] == 0:
            return _wpoint((_make(_TWIST_TOWER, (a, 0), d), _make(_TWIST_TOWER, (0, b), e)))
    sign = 1 if t.v.num[0] > 0 else -1
    # on the twist image e divides d^2 up to a small factor, so cancelling
    # their gcd first keeps the products (and the final gcds) short
    h = gcd(d * d, e)
    e, dd, m = e // h, d * d // h, a - d
    u = _reduced(
        _TWIST_TOWER, (e * (a * a + 10 * a * d - 3 * d * d), -4 * sign * b * dd), e * m * m)
    v = _reduced(
        _TWIST_TOWER,
        (2 * sign * e * (a * a * a + 15 * a * a * d + 3 * a * d * d - 3 * d * d * d),
         -4 * (3 * a + d) * b * dd),
        e * m * m * m,
    )
    return _wpoint((u, v))


def _from_twist(coords) -> WPoint:
    """The point (U/2, (V/4)*sqrt(2)) over the tower with sqrt(2); the twist
    point is finite, being a multiple of a point of infinite order."""
    u, v = coords[0] / 2, coords[1] / 4
    u, v = _make(_TWIST_TOWER, (u.num[0], 0), u.den), _make(_TWIST_TOWER, (0, v.num[0]), v.den)
    return _wpoint((u, v))


def chord_tangent_multiple(p: WPoint, n: int) -> WPoint:
    """n*p by double-and-add with the chord-tangent law on the curve itself.
    ``n*p`` takes this route unless p lies on the image of the twist; there
    it is the cross-check of the twist route."""
    if n < 0:
        return chord_tangent_multiple(-p, -n)
    if p.is_infinity():
        return p
    return _wpoint(_double_and_add(_A2, _A4, (p.u, p.v), n))


GENERATOR = WPoint.of(3, FieldElement.root(2) * 6)


def generator_multiple(k: int) -> WPoint:
    """k*GENERATOR for |k| <= MULTIPLE_BOUND."""
    if abs(k) > MULTIPLE_BOUND:
        raise MultipleTooLarge(
            f"|k| = {abs(k)} exceeds {MULTIPLE_BOUND}: the coordinates of k*G have"
            " about 0.7*k^2 bits"
        )
    return k * GENERATOR


def curve_invariants() -> dict[str, Fraction]:
    """Standard invariants b2, b4, b6, b8, c4, c6, disc and j of the curve."""
    a1 = a3 = a6 = Fraction(0)
    a2, a4 = _A2.as_fraction(), _A4.as_fraction()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (b2 * b6 - b4 * b4) / 4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
    disc = (c4 ** 3 - c6 ** 2) / 1728
    return {
        "b2": b2,
        "b4": b4,
        "b6": b6,
        "b8": b8,
        "c4": c4,
        "c6": c6,
        "disc": disc,
        "j": c4 ** 3 / disc,
    }


_RATIONAL_TORSION = (WPoint.infinity(), WPoint.of(0, 0), WPoint.of(1, 2), WPoint.of(1, -2),
                     WPoint.of(-3, 6), WPoint.of(-3, -6))


def rational_torsion() -> list[WPoint]:
    """The six torsion points with rational coordinates, as a fresh list."""
    return list(_RATIONAL_TORSION)


@cache
def _torsion_group() -> tuple[WPoint, ...]:
    """The torsion points, built and checked on first use."""
    r3 = FieldElement.root(3)
    extra = []
    for sgn in (1, -1):
        u = fe(-3) + 2 * sgn * r3
        extra.append(WPoint(u, ZERO))
    for sgn in (1, -1):
        u = fe(3) + 2 * sgn * r3
        v = fe(12) + 6 * sgn * r3
        extra.append(WPoint(u, v))
        extra.append(WPoint(u, -v))
    return _RATIONAL_TORSION + tuple(extra)


def torsion_points() -> list[WPoint]:
    """The full 12-element torsion group, defined over the tower with sqrt(3)."""
    return list(_torsion_group())


def torsion_order_census() -> dict[int, int]:
    census: dict[int, int] = {}
    for p in torsion_points():
        n = p.order(12)
        census[n] = census.get(n, 0) + 1
    return census


def translation_cubic(p: BaryPoint) -> FieldElement:
    """The cubic x(y+z)^2 + y(x+z)^2 + z(x+y)^2 of the translation locus, as
    (x+s)(xs+yz) + 3x*yz = (x+y+z)(xy+yz+zx) + 3xyz with s = y + z; ``verify``
    checks it against the coordinate sum of the transfer map's center."""
    x, y, z = p.coords
    s, yz = y + z, y * z
    return (x + s) * (x * s + yz) + 3 * x * yz


def on_translation_locus(p: BaryPoint) -> bool:
    return translation_cubic(_integral(p)).is_zero()


# limits of the birational chain at its exceptional torsion points O, (0, 0),
# (-3, 6) and (-3, -6), computed by expanding the chain along a local parameter
_TORSION_BARY_LIMITS = (
    (_RATIONAL_TORSION[0], A),
    (_RATIONAL_TORSION[1], BaryPoint(0, 1, -1)),
    (_RATIONAL_TORSION[4], BaryPoint(1, 0, -1)),
    (_RATIONAL_TORSION[5], BaryPoint(1, -1, 0)),
)


def w_to_bary(w: WPoint) -> BaryPoint:
    """Total map from the Weierstrass model to the projective cubic, using
    the documented limits at the exceptional points of the chain.  Elsewhere
    it is the composite of ``verify.w_to_nf`` and ``verify.nf_to_bary`` in
    closed form, the absolute coordinates ((u-1)/(u+3), (v+2u)/(u(u+3)),
    (2u-v)/(u(u+3))), computed through the slope s = v/u and i = 1/(u+3) as
    (1-4i, y, 4i-y) with y = (s+2)i: two inverses, and only y a product of
    two tall elements.  u = 0 and u = -3 occur only at points of the limit
    table."""
    for wp, bary in _TORSION_BARY_LIMITS:
        if w == wp:
            return bary
    u, v = w.u, w.v
    slope = v * u.inverse()
    inv = (u + 3).inverse()
    y, four_inv = (slope + 2) * inv, 4 * inv
    return BaryPoint(1 - four_inv, y, four_inv - y)


def sample_translation_points(n: int, seed: int = 0) -> list[BaryPoint]:
    """n distinct valid base points on the translation locus over the tower
    with sqrt(2), built as small signed multiples of the generator plus
    rational torsion (so coordinate heights stay moderate).  Each (k, T) is
    drawn once, and distinct draws give distinct points, as G has infinite
    order and ``w_to_bary`` is injective; k != 0 keeps draws off its limit
    table and valid off the medians: k*G + T is then not torsion, and the
    curves ``validate_point`` excludes meet the cubic only at torsion images."""
    if not 0 <= n <= SAMPLE_BOUND:
        raise SampleTooLarge(f"sample size {n} is outside 0..{SAMPLE_BOUND}")
    rng = random.Random(seed)
    torsion = rational_torsion()
    out: list[BaryPoint] = []
    tried = set()
    span = max(2, (n + len(torsion) - 1) // len(torsion) + 1)
    while len(out) < n:
        k = rng.randint(1, span) * rng.choice((1, -1))
        ti = rng.randrange(len(torsion))
        if (k, ti) in tried:
            span += 1
            continue
        tried.add((k, ti))
        out.append(w_to_bary(k * GENERATOR + torsion[ti]))
    return out
