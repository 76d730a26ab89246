"""The elliptic curve carrying the translation locus, in four models.

The locus of base points whose transfer map is a translation is the
projective cubic x(y+z)^2 + y(x+z)^2 + z(x+y)^2 = 0.  In absolute
coordinates it becomes the normal form (3x+1)y^2 + (3x+1)(x-1)y + x^2-x = 0,
a member of the family E_a with parameter a = 3; completing the square and a
Moebius change of variable carry it to the Weierstrass model
v^2 = u(u^2 + 6u - 3), where the chord-tangent group law lives.  This module
implements the Weierstrass model and the map ``w_to_bary`` from it to the
cubic (with the explicit limit table at its exceptional points), the group
law, the torsion group, and the seeded sampler used by the verification
suites.  The cubic itself and its zero test are ``maps``'s, beside the
transfer map's center, whose coordinate sum it is.
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
Arithmetic of Elliptic Curves, GTM 106, section X.2).  A twist-image point
is read in one integer form, the weighted integers (U, V) = (m/s^2, n/s^3)
in lowest terms, by the only reader ``_weighted``, and results return to
the tower with sqrt(2) by the only lift ``_from_twist``.  The map is a group
homomorphism, so ``k*P`` for a point whose twist image is integral (s = 1),
as +-G' is, runs double-and-add on the twist in these integers and lifts
once.  The twist has good reduction away from 2 and 3 (Silverman, sections
VII.2-3), so a doubling cancels only powers of 2 and 3, and adding the
integral base cancels s exactly after the slope's one gcd (``_twist_double``,
``_twist_add``).  Every other multiple takes ``chord_tangent_multiple`` on
the curve itself.  ``WPoint.__add__`` translates a twist-image point by a
finite rational torsion point in closed form on the same (m, n, s) (see
``_translate``) and leaves every other sum to the chord-tangent law.
Group-law results are built without evaluating the cubic (only
``WPoint(...)`` and ``WPoint.of`` check it); the ``curve`` suite's entries
"generator multiples lie on the curve", "twist multiples equal chord-tangent
multiples up to 24" and "torsion translations equal the chord-tangent sum"
check them.

For w over Q(sqrt(d)) but not over Q, and w' its conjugate, the line through
w and w' is defined over Q, so it meets the curve again at the rational point
-(w + w').  A coordinate of ``w_to_bary(w)`` is rational exactly when w + w'
is in the rational 3-torsion: O gives x, (1, -2) gives y and (1, 2) gives z
(Silverman, sections III.2 and X.2).  Conjugating sqrt(2) negates the twist
image, so w = k*G + T, for k != 0 and T rational torsion, has w + w' = 2T,
and ``_rational_triple`` reads all three coordinates off u and v.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .field import CeviangeoError, FieldElement, fe, ZERO, _Frozen, _make, _reduced
from .plane import A, BaryPoint
from . import maps as _maps


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
# {O, (0, 0)} (Nagell-Lutz), so a point with v != 0 on its image has no torsion.
# Its discriminant, 16 * 12^2 * (12^2 + 4*12), is 2^14 * 3^3.
_TWIST_TOWER = (2,)
_TWIST_A2 = 12
_TWIST_A4 = -12
# the largest |k| whose multiple of the generator the CLI prints.  Height law:
# the largest integer of u of k*G has 0.4712*k^2 bits and that of v
# 0.7068*k^2, each to within 4 bits for 1 <= k <= 128
# (tests/test_height_path.py), so 7.7 and 11.6 kbit at k = 128
MULTIPLE_BOUND = 128
# the largest sample sample_translation_points draws: its multiple range
# starts at |k| <= n/6 + 2 and widens at each repeated draw, to 46..54 at
# n = 128 (seeds 0..19), where by the height law above u of k*G has up to
# 0.4712*54^2 = 1374 bits; the sampled points reach 1500 bits at n = 128 and
# 4753 at n = 256, and the time of the suites using the sample grows with them
SAMPLE_BOUND = 128


def _rhs(u: FieldElement) -> FieldElement:
    return u * (u * u + _A2 * u + _A4)


def _chord_tangent(p, q):
    """p + q on the curve, for coordinate pairs (u, v) with None for the
    point at infinity."""
    if p is None:
        return q
    if q is None:
        return p
    (u1, v1), (u2, v2) = p, q
    if u1 == u2:
        if (v1 + v2).is_zero():
            return None
        slope = (3 * u1 * u1 + 2 * _A2 * u1 + _A4) / (2 * v1)
    else:
        slope = (v2 - v1) / (u2 - u1)
    u3 = slope * slope - _A2 - u1 - u2
    return u3, -(v1 + slope * (u3 - u1))


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
        return _wpoint(_chord_tangent((self.u, self.v), (other.u, other.v)))

    def __rmul__(self, n: int) -> WPoint:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (-n) * (-self)
        if n > 1:
            base = _weighted(self)
            if base is not None and base[2] == 1:
                return _from_twist(_twist_multiple(base[0], base[1], n))
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


def _weighted(p: WPoint):
    """The twist image (U, V) = (2u, 2*sqrt(2)*v) = (m/s^2, n/s^3) of p in
    lowest terms with s > 0, as (m, n, s), when p is finite with rational u
    and v a nonzero rational multiple of sqrt(2): the image of a twist point,
    which has infinite order.  Else None.  The twist's model is integral, so
    u = m/(2s^2) has the denominator s^2 (m even) or 2s^2 (m odd), and
    n = 4b*s^3/e exactly for v = (b/e)*sqrt(2)."""
    if p.is_infinity():
        return None
    u, v = p.u, p.v
    if v.tower != _TWIST_TOWER or v.num[0] or not v.num[1]:
        return None
    if u.tower not in ((), _TWIST_TOWER) or not u.is_rational():
        return None
    m, d = u.num[0], u.den
    if d & 1:
        m, s = 2 * m, isqrt(d)
    else:
        s = isqrt(d >> 1)
    return m, 4 * v.num[1] * s * s * s // v.den, s


def _translate(p: WPoint, t: WPoint):
    """p + t in closed form from (m, n, s) = ``_weighted(p)`` when p lies on
    the twist image and t is a finite rational torsion point written over Q,
    else None.  The result lies on the tower with sqrt(2), as the
    chord-tangent sum does.

    p + (0, 0) is the twist's 2-torsion addition (U, V) -> (-12/U, 12V/U^2),
    here (-12s^2/m, 12ns/m^2), m != 0 as V != 0.  For g = gcd(m, 12), 12/g
    and m/g share no prime, as v2(12) = 2 and v3(12) = 1, and m is prime to
    s; so -(12/g)s^2/(m/g) is in lowest terms, and |m|/g is a square s'^2,
    as the twist's model is integral.  The sum is (m', n', s') =
    (-sign(m)(12/g)s^2, 12ns/(g^2 s'), s'), as m^2 = g^2 s'^4, and the
    division is exact: n' is rational and n'^2 = m'^3 + 12m'^2 s'^2 - 12m's'^4
    is an integer.  p + (1, 2e) is the chord of slope (v - 2e)/(u - 1), which
    the curve equation reduces, for u = m/(2s^2), v = n*sqrt(2)/(4s^3) and
    k = m - 2s^2 (nonzero, as u = 1 only at (1, +-2)), to
    ((m^2 + 20ms^2 - 12s^4 - 4ens*sqrt(2))/k^2,
     (2e(m^3 + 30m^2 s^2 + 12ms^4 - 24s^6) - 4(3m + 2s^2)ns*sqrt(2))/k^3);
    and p + (-3, 6e) = (p + (0, 0)) + (1, 2e)."""
    tu = t.u
    if tu is None or tu.tower or t.v.tower or tu.den != 1 or tu.num[0] not in (0, 1, -3):
        return None
    q = _weighted(p)
    if q is None:
        return None
    m, n, s = q
    if tu.num[0] != 1:
        g = gcd(m, 12)
        s2 = isqrt(abs(m) // g)
        sign = 1 if m > 0 else -1
        m, n, s = -sign * (12 // g) * s * s, 12 * n * s // (g * g * s2), s2
        if tu.num[0] == 0:
            return _from_twist((m, n, s))
    e = 1 if t.v.num[0] > 0 else -1
    ss, k = s * s, m - 2 * s * s
    u = _reduced(_TWIST_TOWER, (m * m + ss * (20 * m - 12 * ss), -4 * e * n * s), k * k)
    v = _reduced(_TWIST_TOWER, (2 * e * (m * m * m + ss * (30 * m * m + ss * (12 * m - 24 * ss))),
                                -4 * (3 * m + 2 * ss) * n * s), k * k * k)
    return _wpoint((u, v))


def _twist_double(m: int, n: int, s: int):
    """2P for the twist point P = (m/s^2, n/s^3), s > 0 and n != 0, as the
    triple (m2, n2, s2) in lowest terms, like (m, n, s).

    With the slope L/(2ns), L = 3m^2 + 2*a2*m*s^2 + a4*s^4, the chord-tangent
    law gives 2P = (m2/s2^2, n2/s2^3) with s2 = 2ns, m2 = L^2 - a2*s2^2 - 8mn^2
    and n2 = -8n^4 - L(m2 - 4mn^2).  Their common factor g (g | s2, g^2 | m2,
    g^3 | n2) has no prime l > 3.  If l | s, then l does not divide m, and
    n^2 = m^3 + a2*m^2*s^2 + a4*m*s^4 is m^3 mod l, so m2 = 9m^4 - 8mn^2 = m^4
    mod l.  If l divides n but not s, then U = m/s^2 is a root mod l of
    f(U) = U^3 + a2*U^2 + a4*U, whose discriminant is 2^10 * 3^3; the root is
    simple, so L = f'(U)*s^4 and m2 = L^2 are nonzero mod l.  Else l does not
    divide s2.  As m2/g^2 is prime to s2/g, the power of l in g is the
    smaller of its power in s2 and half its power in m2, rounded down, which
    trailing zeros and divisions by 3 find; m2 != 0, as U = 0 only at the
    2-torsion point."""
    ss = s * s
    slope = 3 * m * m + ss * (2 * _TWIST_A2 * m + _TWIST_A4 * ss)
    s2 = 2 * n * s
    nn = n * n
    mnn = m * nn
    m2 = slope * slope - _TWIST_A2 * s2 * s2 - 8 * mnn
    n2 = -8 * nn * nn - slope * (m2 - 4 * mnn)
    if s2 < 0:
        s2, n2 = -s2, -n2
    e = min((s2 & -s2).bit_length(), ((m2 & -m2).bit_length() + 1) >> 1) - 1
    if e:
        m2, n2, s2 = m2 >> 2 * e, n2 >> 3 * e, s2 >> e
    while not s2 % 3 and not m2 % 9:
        m2, n2, s2 = m2 // 9, n2 // 27, s2 // 3
    return m2, n2, s2


def _twist_add(m: int, n: int, s: int, a: int, b: int):
    """P + B for the twist point P = (m/s^2, n/s^3) in lowest terms, s > 0,
    and an integral point B = (a, b) other than +-P.

    The slope (b*s^3 - n)/(s(a*s^2 - m)) takes the one gcd, giving N/D with
    D > 0.  With t = D/s, P + B = (m3/D^2, n3/D^3) for
    m3 = N^2 - (a2 + a)D^2 - m*t^2 and n3 = -(b*D^3 + N(m3 - a*D^2)), and
    s^2 divides m3 and s^3 divides n3 exactly.  At a prime l of s, x and y
    of P have l in their denominators 2 and 3 times as often as s has it, and
    B none, so the slope (y - b)/(x - a) has l in its denominator as often as
    s, and D is a multiple of s.  On the curve,
    x(P + B) = (a*x^2 + (a^2 + 2*a*a2 + a4)x + a*a4 - 2by)/(x - a)^2, whose
    numerator has l at most 4 times as often in its denominator as s has it
    and (x - a)^2 exactly 4 times, so x(P + B) is integral at l, and
    y(P + B) is too, being a root of y^2 = f(x).  At a prime of t, the slope
    has a pole and x(P + B) the pole's square, so the result
    (m3/s^2, n3/s^3, t) is again in lowest terms."""
    ss = s * s
    num = b * ss * s - n
    den = s * (a * ss - m)
    g = gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    t = den // s
    dd = den * den
    m3 = num * num - (_TWIST_A2 + a) * dd - m * t * t
    n3 = -(b * dd * den + num * (m3 - a * dd))
    return m3 // ss, n3 // (ss * s), t


def _twist_multiple(a: int, b: int, k: int):
    """k*B for k >= 1 and an integral twist point B = (a, b) of infinite
    order, left to right in weighted integers (m, n, s) with U = m/s^2 and
    V = n/s^3 in lowest terms.  No intermediate multiple is +-B or 2-torsion,
    so each step is defined."""
    m, n, s = a, b, 1
    for bit in bin(k)[3:]:
        m, n, s = _twist_double(m, n, s)
        if bit == "1":
            m, n, s = _twist_add(m, n, s, a, b)
    return m, n, s


def _from_twist(coords) -> WPoint:
    """The point (U/2, (V/4)*sqrt(2)) over the tower with sqrt(2) for the
    twist point (U, V) = (m/s^2, n/s^3) in lowest terms.  As n^2 = m^3 + ...
    + a4*m*s^4, n is prime to s as m is, so only 2 can cancel: u = m/(2s^2)
    halves an even m (then s is odd) and v = n/(4s^3) loses gcd(n, 4)."""
    m, n, s = coords
    ss = s * s
    if m & 1:
        u = _make(_TWIST_TOWER, (m, 0), 2 * ss)
    else:
        u = _make(_TWIST_TOWER, (m >> 1, 0), ss)
    g = gcd(n, 4)
    v = _make(_TWIST_TOWER, (0, n // g), (4 // g) * ss * s)
    return _wpoint((u, v))


def chord_tangent_multiple(p: WPoint, n: int) -> WPoint:
    """n*p by double-and-add with the chord-tangent law on the curve itself.
    ``n*p`` takes this route unless p lies on the image of the twist; there
    it is the cross-check of the twist route."""
    if n < 0:
        return chord_tangent_multiple(-p, -n)
    if p.is_infinity():
        return p
    acc, q = None, (p.u, p.v)
    while n:
        if n & 1:
            acc = _chord_tangent(acc, q)
        n >>= 1
        if n:
            q = _chord_tangent(q, q)
    return _wpoint(acc)


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
    """Standard invariants b2, b4, b6, b8, c4, c6, disc and j of the curve.
    As a1 = a3 = a6 = 0, the terms in them vanish: b6 = 0, b8 = -b4^2/4 =
    -a4^2 and c6 = 36*b2*b4 - b2^3."""
    a2, a4 = _A2.as_fraction(), _A4.as_fraction()
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = Fraction(0)
    b8 = -a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = 36 * b2 * b4 - b2 ** 3
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


# the cubic's zero test lives in ``maps``, beside the transfer map's center;
# this binding stays only because perfbench/workloads.py calls
# ``curve.on_translation_locus``
on_translation_locus = _maps.on_translation_locus


# limits of the birational chain at its exceptional torsion points O, (0, 0),
# (-3, 6) and (-3, -6), computed by expanding the chain along a local parameter
_TORSION_BARY_LIMITS = (
    (_RATIONAL_TORSION[0], A),
    (_RATIONAL_TORSION[1], BaryPoint(0, 1, -1)),
    (_RATIONAL_TORSION[4], BaryPoint(1, 0, -1)),
    (_RATIONAL_TORSION[5], BaryPoint(1, -1, 0)),
)


def _rational_triple(u: FieldElement, v: FieldElement):
    """The absolute coordinates (x, y, z) of ``w_to_bary`` from the integers
    of u and v, when one is rational and v lies on a depth-1 tower Q(sqrt(d))
    and u on it or on (); else None.

    x = (u-1)/(u+3) is rational when u = a/du is and v = b1*sqrt(d)/dv, and is
    r = (a - du)/(a + 3du) on u's tower.  Else, for u = (a0 + a1*sqrt(d))/du and
    v = (b0 + b1*sqrt(d))/dv, l = (v - 2s)/(u - 1) is the slope of the line to
    (1, 2s); as v^2 - 4u^2 = u(u-1)(u+3), y = 1/(l-2) and z = -1/(l+2).  So y
    (s = 1) or z (s = -1) is rational exactly when v - 2s and u - 1 are
    proportional, (b0 - 2s*dv)*a1 = b1*(a0 - du); then l = b1*du/(a1*dv), and
    with g = gcd(du, dv) the coordinate is r = s*a1*(dv/g)/m for
    m = b1*(du/g) - 2s*a1*(dv/g), nonzero as v = 2su only at rational u.

    On the cubic (x+y+z)(xy+yz+zx) + 3xyz = 0 with x + y + z = 1, the two
    coordinates other than r = p/q have sum 1 - r and product
    -r(1-r)/(1+3r); one is irrational, so they are ((1-r) +- c*sqrt(d))/2 with
    c^2*d = F1*F3/(q^2*F2), F1 = q - p, F2 = q + 3p, F3 = F2^2 - 12p^2.  As p
    is prime to q, q shares nothing with F1 and at most one 3 with F3, and
    3 | q puts a 3 in F2; so G = gcd(F1*F3, d*q^2*F2) is gcd(F1*F3, d*F2),
    which divides 48d, as gcd(F1, F2) = gcd(F1, 4p) divides 4 and
    gcd(F3, F2) = gcd(12p^2, F2) divides 12.  So G is read off residues mod
    48d, both parts of c = C1/(q*e), C1^2 = |F1*F3|/G and e^2 = d|F2|/G, are
    exact square roots, and as C1 is prime to q*e,
    ((q-p)e +- C1*sqrt(d))/(2qe) can cancel only a 2.

    The root listed first has the sign of lead*F2.  Where r is y or z, lead is
    a1: x = 1 - 4/(u+3) has the sqrt(d) part 4*a1/(du*N(u+3)), and
    (1-x)(1-x') = 16/N(u+3) is 1 - (1-r) + xx' = 4r^2/(1+3r).  Where r is x,
    lead is b1: y has the sqrt(d) part b1/(dv*u(u+3)), and u(u+3) has the
    sign of 4u/(u+3) = 1 + 3x.  No inverse is taken."""
    tower = v.tower
    if len(tower) != 1 or u.tower not in ((), tower):
        return None
    (b0, b1), dv = v.num, v.den
    if u.is_rational():
        if b0 or not b1:
            return None
        a, du = u.num[0], u.den
        index, lead, r = 0, b1, _reduced(u.tower, (a - du,) + u.num[1:], a + 3 * du)
    else:
        (a0, a1), du = u.num, u.den
        shared = b1 * (a0 - du)
        for index, s in ((1, 1), (2, -1)):
            if (b0 - 2 * s * dv) * a1 == shared:
                break
        else:
            return None
        g = gcd(du, dv)
        du_g, dv_g = du // g, dv // g
        lead, r = a1, _reduced(tower, (s * a1 * dv_g, 0), b1 * du_g - 2 * s * a1 * dv_g)
    d, p, q = tower[0], r.num[0], r.den
    f1, f2, modulus = q - p, q + 3 * p, 48 * d
    f13 = f1 * (f2 * f2 - 12 * p * p)
    g = gcd(f13 % modulus, d * f2 % modulus, modulus)
    c1, e = isqrt(abs(f13) // g), isqrt(d * abs(f2) // g)
    x0, x1, den = f1 * e, (c1 if (lead > 0) == (f2 > 0) else -c1), 2 * q * e
    if not (c1 & 1 or x0 & 1):
        x0, x1, den = x0 >> 1, x1 >> 1, den >> 1
    pair = (_make(tower, (x0, x1), den), _make(tower, (x0, -x1), den))
    return pair[:index] + (r,) + pair[index:]


def w_to_bary(w: WPoint) -> BaryPoint:
    """Total map from the Weierstrass model to the projective cubic, using
    the documented limits at the exceptional points of the chain.  Elsewhere
    it is the composite of ``verify.w_to_nf`` and ``verify.nf_to_bary`` in
    closed form, the absolute coordinates ((u-1)/(u+3), (v+2u)/(u(u+3)),
    (2u-v)/(u(u+3))).  Where one coordinate is rational, ``_rational_triple``
    reads all three off integers, with no inverse and no field product.  Else
    the point is (1-4i, y, 4i-y) through i = 1/(u+3) and y = (v/u + 2)i, two
    inverses and one product of two tall elements.  u = 0 and u = -3 occur
    only at points of the limit table."""
    for wp, bary in _TORSION_BARY_LIMITS:
        if w == wp:
            return bary
    u, v = w.u, w.v
    triple = _rational_triple(u, v)
    if triple is not None:
        return BaryPoint(*triple)
    inv = (u + 3).inverse()
    four_inv = 4 * inv
    y = (v * u.inverse() + 2) * inv
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
