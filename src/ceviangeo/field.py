"""Exact arithmetic in the rationals and in towers of real quadratic extensions.

An element lives in Q, Q(sqrt(d1)) or Q(sqrt(d1), sqrt(d2)) for distinct
squarefree integer radicands d > 1.  It is stored as integer numerators
``num`` over one positive common denominator ``den`` on the basis
{1, sqrt(d1), sqrt(d2), sqrt(d1*d2)} (truncated to the tower depth), kept in
lowest terms: ``gcd(den, *num) == 1``.  The representation is therefore
unique within a tower, and equality there is a tuple comparison.
Operators on two elements of one tower need no re-embedding, and depths 0
and 1 have closed-form kernels: rationals add and multiply by Henrici's
cross-cancelling gcds, and over Q(sqrt(d)) the product is
(a0*b0 + d*a1*b1, a0*b1 + a1*b0) and the inverse is the conjugate
(a0, -a1) over the norm a0^2 - d*a1^2.  Every
radicand maps to the positive real root, so elements carry a decidable sign;
equality and order are decided exactly, with no floating point anywhere in
this module.  Square roots come from one search by value: it finds the
nonnegative root on the smallest tower of depth <= 2 holding it, trying the
radicands of the requested tower before it factors anything, and ``sqrt`` and
``sqrt_extending`` differ only in the tower they put that root on.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isqrt, lcm, prod
from operator import neg


class CeviangeoError(Exception):
    """Base class for every error the package raises on bad input or an
    undefined construction; the CLI answers it with exit code 2."""


class FieldError(CeviangeoError):
    """Base class for errors raised by this module."""


class TowerMismatch(FieldError):
    """Operands generate a field needing more than two quadratic extensions."""


class TowerDepthExceeded(FieldError):
    """A requested extension does not fit in a depth-2 tower."""


class NegativeRadicand(FieldError):
    """Square root of a negative element."""


class NotASquare(FieldError):
    """The element is not a square in its tower.

    ``radicand`` is a squarefree integer whose adjunction would make the
    root representable, or None when no quadratic integer extension helps.
    """

    def __init__(self, message: str, radicand: int | None = None):
        super().__init__(message)
        self.radicand = radicand


class ExpressionError(FieldError, ValueError):
    """Malformed field-element expression or point literal."""


class FactorBudgetExceeded(FieldError):
    """An integer to factor has a part too large for proven factoring."""


class DigitLimitExceeded(FieldError, ValueError):
    """An integer has more decimal digits than the interpreter converts
    between text and int (``sys.get_int_max_str_digits()``, 4300 by default)."""


def _digit_limit(what: str) -> DigitLimitExceeded:
    return DigitLimitExceeded(
        f"{what} past the {sys.get_int_max_str_digits()}-digit limit for decimal integers")


class _Frozen:
    """Immutability for the exact value types: a subclass stores its slots
    with ``object.__setattr__`` in its constructor, and copies and pickles
    rebuild through that constructor, one argument per slot."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)


# ---------------------------------------------------------------------------
# integer helpers

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Miller-Rabin with the prime bases 2..41 is deterministic below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all of
# them (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
# factorize refuses to test or split a number longer than this, which keeps
# primality proven and Pollard rho fast
FACTOR_BUDGET_BITS = 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is beyond the proven Miller-Rabin range")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factorization failed for {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n > 0 as an exponent map.

    After the primes below 50 and perfect squares are split off, every part
    left to test or split must fit in FACTOR_BUDGET_BITS bits; otherwise
    raises FactorBudgetExceeded.
    """
    if n <= 0:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        if m.bit_length() > FACTOR_BUDGET_BITS:
            raise FactorBudgetExceeded(
                f"cannot factor a {m.bit_length()}-bit number without small prime factors"
                f" (budget {FACTOR_BUDGET_BITS} bits)"
            )
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*m with m squarefree; returns (s, m)."""
    s, m = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, m


# ---------------------------------------------------------------------------
# tower descriptors
#
# A tower is a tuple of at most two squarefree radicands.  The canonical
# descriptor for the field generated by a set of square roots keeps the two
# smallest members of the multiplicative closure {a, b, squarefree(a*b)},
# which makes equality of elements a syntactic check.


def canonical_tower(radicands) -> tuple[int, ...]:
    rads = sorted(set(radicands))
    for d in rads:
        if d <= 1 or squarefree_decompose(d)[1] != d:
            raise ValueError(f"radicand {d} is not squarefree > 1")
    if len(rads) <= 1:
        return tuple(rads)
    if len(rads) == 2:
        a, b = rads
        trio = sorted({a, b, squarefree_decompose(a * b)[1]})
        return (trio[0], trio[1])
    if len(rads) == 3:
        a, b, c = rads
        if squarefree_decompose(a * b)[1] == c:
            return (a, b)
        raise TowerMismatch(f"radicands {rads} need a tower deeper than 2")
    raise TowerMismatch(f"radicands {rads} need a tower deeper than 2")


_canonical_of = lru_cache(maxsize=None)(canonical_tower)


def _field_tower(tower) -> tuple[int, ...]:
    """``tower`` as a tuple, once it is checked to be a field of depth <= 2:
    at most two distinct squarefree radicands > 1, possibly not canonical."""
    tower = tuple(tower)
    if len(tower) > 2:
        raise TowerMismatch(f"tower {tower} is deeper than 2")
    if len(set(tower)) != len(tower):
        raise ValueError(f"tower {tower} repeats a radicand")
    _canonical_of(tower)
    return tower


@lru_cache(maxsize=None)
def _directions(tower: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """Map each squarefree radicand representable in the tower to
    (basis index, multiplier), meaning basis[index] == multiplier*sqrt(radicand)."""
    if not tower:
        return {}
    if len(tower) == 1:
        return {tower[0]: (1, 1)}
    d1, d2 = tower
    s, m = squarefree_decompose(d1 * d2)
    return {d1: (1, 1), d2: (2, 1), m: (3, s)}


@lru_cache(maxsize=None)
def _embedding(src: tuple[int, ...], dst: tuple[int, ...]):
    """For each irrational basis index i of ``src``: (i, radicand, index j
    in ``dst``, p, q) with src basis[i] == (p/q) * dst basis[j], or j None
    when the radicand is not representable in ``dst``."""
    dirs = _directions(dst)
    plan = []
    for rad, (i, mult) in _directions(src).items():
        if rad in dirs:
            j, tmult = dirs[rad]
            ratio = Fraction(mult, tmult)
            plan.append((i, rad, j, ratio.numerator, ratio.denominator))
        else:
            plan.append((i, rad, None, 1, 1))
    return tuple(plan)


@lru_cache(maxsize=None)
def _product_table(tower: tuple[int, ...]):
    """Row i, column j: (i ^ j, factor) with basis[i]*basis[j] == factor*basis[i ^ j]."""
    n = 1 << len(tower)
    return tuple(
        tuple(
            (i ^ j, prod(d for bit, d in enumerate(tower) if (i & j) >> bit & 1))
            for j in range(n)
        )
        for i in range(n)
    )


# -- integer-vector kernels: numerator tuples on one tower's basis ---------


def _vmul(tower: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not tower:
        return (a[0] * b[0],)
    if len(tower) == 1:
        a0, a1 = a
        b0, b1 = b
        return (a0 * b0 + tower[0] * a1 * b1, a0 * b1 + a1 * b0)
    table = _product_table(tower)
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            row = table[i]
            for j, y in enumerate(b):
                if y:
                    k, f = row[j]
                    out[k] += f * x * y
    return tuple(out)


def _vsign(tower: tuple[int, ...], a: tuple[int, ...]) -> int:
    """Sign of a numerator vector, decided recursively: for p + q*sqrt(d)
    with p, q over the lower tower, compare p^2 against q^2*d when the signs
    of p and q disagree."""
    if not tower:
        x = a[0]
        return (x > 0) - (x < 0)
    half = len(a) >> 1
    lower = tower[:-1]
    p, q = a[:half], a[half:]
    if not any(q):
        return _vsign(lower, p)
    if not any(p):
        return _vsign(lower, q)
    sp, sq = _vsign(lower, p), _vsign(lower, q)
    if sp == sq:
        return sp
    d = tower[-1]
    pp, qq = _vmul(lower, p, p), _vmul(lower, q, q)
    return sp * _vsign(lower, tuple(x - d * y for x, y in zip(pp, qq)))


def _vinverse(tower: tuple[int, ...], num: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(acc, norm) with num * acc == norm, an integer, for a nonzero
    numerator vector: 1/num = acc/norm.  Multiply by one Galois conjugate per
    radicand until the product is rational; the norm is nonzero because each
    sqrt(d) is irrational over the rest of the tower."""
    if len(tower) == 1:
        a0, a1 = num
        return (a0, -a1), a0 * a0 - tower[0] * a1 * a1
    acc = None
    for bit in range(len(tower)):
        conj = tuple(-c if i >> bit & 1 else c for i, c in enumerate(num))
        acc = conj if acc is None else _vmul(tower, acc, conj)
        num = _vmul(tower, num, conj)
    return (1,) if acc is None else acc, num[0]


def _add(tower, an, da, bn, db) -> FieldElement:
    """an/da + bn/db, reducing only by gcd(da, db) (Henrici)."""
    g = gcd(da, db)
    if not tower:
        (a,), (b,) = an, bn
        if g == 1:
            return _make((), (a * db + b * da,), da * db)
        s = da // g
        n = a * (db // g) + b * s
        g2 = gcd(g, n)
        if g2 == 1:
            return _make((), (n,), s * db)
        return _make((), (n // g2,), s * (db // g2))
    if g == 1:
        return _make(tower, tuple(x * db + y * da for x, y in zip(an, bn)), da * db)
    s, t = da // g, db // g
    num = tuple(x * t + y * s for x, y in zip(an, bn))
    g2 = gcd(g, *num)
    if g2 == 1:
        return _make(tower, num, s * db)
    return _make(tower, tuple(x // g2 for x in num), s * (db // g2))


def _scale(x: FieldElement, n: int, d: int) -> FieldElement:
    """x * (n/d) for n/d in lowest terms, cancelling crosswise first."""
    num, den = x.num, x.den
    if not x.tower:
        (m,) = num
        g1, g2 = gcd(n, den), gcd(m, d)
        return _make((), ((n // g1) * (m // g2),), (den // g1) * (d // g2))
    g1 = gcd(n, den)
    if g1 != 1:
        n //= g1
        den //= g1
    g2 = gcd(d, *num)
    if g2 != 1:
        d //= g2
        num = tuple(v // g2 for v in num)
    if n != 1:
        num = tuple(v * n for v in num)
    return _make(x.tower, num, den * d)


def _reduced(tower, num, den) -> FieldElement:
    """num/den with den != 0, brought to lowest terms with den > 0."""
    if den < 0:
        num = tuple(map(neg, num))
        den = -den
    g = gcd(den, *num)
    if g != 1:
        num = tuple(x // g for x in num)
        den //= g
    return _make(tower, num, den)


def _pad(x: FieldElement, tower: tuple[int, ...]) -> FieldElement:
    """A rational element on the basis of ``tower``."""
    return _make(tower, x.num + (0,) * ((1 << len(tower)) - 1), x.den)


@total_ordering
class FieldElement:
    """An exact element of Q(sqrt(d1), sqrt(d2)) with depth <= 2.

    ``num`` holds one integer numerator per basis vector and ``den`` > 0 the
    common denominator, with ``gcd(den, *num) == 1``.
    """

    __slots__ = ("tower", "num", "den")

    def __init__(self, tower: tuple[int, ...], coeffs):
        tower = _field_tower(tower)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != 1 << len(tower):
            raise ValueError("coefficient count must be 2**depth")
        den = lcm(*(c.denominator for c in coeffs))
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator) for c in coeffs))
        object.__setattr__(self, "den", den)

    # not a _Frozen: _make's __class__ swap needs _Blank and FieldElement to
    # share their base class
    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        # the default slot-state restore would go through __setattr__
        return _make, (self.tower, self.num, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates on the tower's basis, as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> FieldElement:
        if type(value) is int:
            return _make((), (value,), 1)
        q = Fraction(value)
        return _make((), (q.numerator,), q.denominator)

    @classmethod
    def coerce(cls, value) -> FieldElement:
        if isinstance(value, FieldElement):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.from_rational(value)
        if isinstance(value, str):
            return parse_element(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to FieldElement")

    @classmethod
    def root(cls, n: int) -> FieldElement:
        """sqrt(n) for a nonnegative integer n, normalized to a squarefree radicand."""
        if n < 0:
            raise NegativeRadicand(f"sqrt({n})")
        s, m = squarefree_decompose(n) if n else (0, 1)
        if m == 1:
            return cls.from_rational(s)
        return _make((m,), (0, s), 1)

    # -- representation changes ---------------------------------------------

    def _present(self) -> tuple[int, ...]:
        """The radicands whose basis coefficient is nonzero."""
        num = self.num
        return tuple(rad for rad, (i, _) in _directions(self.tower).items() if num[i])

    def _embed(self, tower: tuple[int, ...]) -> FieldElement:
        """Re-express on the basis of ``tower``, which must contain every
        radicand with a nonzero coefficient."""
        if tower == self.tower:
            return self
        num = self.num
        plan = _embedding(self.tower, tower)
        used = [entry for entry in plan if num[entry[0]]]
        for _, rad, j, _, _ in used:
            if j is None:
                raise TowerMismatch(f"sqrt({rad}) is not representable in tower {tower}")
        scale = lcm(*(q for *_, q in used))
        out = [0] * (1 << len(tower))
        out[0] = num[0] * scale
        for i, _, j, p, q in used:
            out[j] += num[i] * p * (scale // q)
        return _reduced(tower, tuple(out), self.den * scale)

    def in_tower(self, tower: tuple[int, ...]) -> FieldElement:
        """Re-express this element on the basis of a containing tower."""
        return self._embed(_field_tower(tower))

    def minimal(self) -> FieldElement:
        """Equivalent element over the smallest canonical tower, recomputed
        on each call."""
        return self._embed(_canonical_of(self._present()))

    @staticmethod
    def common_tower(a: FieldElement, b: FieldElement) -> tuple[int, ...]:
        return _canonical_of(a._present() + b._present())

    def _pair(self, other) -> tuple[FieldElement, FieldElement]:
        if other.__class__ is not FieldElement:
            other = FieldElement.coerce(other)
        ta, tb = self.tower, other.tower
        if ta == tb:
            return self, other
        if not tb:
            return self, _pad(other, ta)
        if not ta:
            return _pad(self, tb), other
        tower = FieldElement.common_tower(self, other)
        return self._embed(tower), other._embed(tower)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self, other
        if b.__class__ is not FieldElement or b.tower != a.tower:
            try:
                a, b = self._pair(other)
            except TypeError:
                return NotImplemented
        return _add(a.tower, a.num, a.den, b.num, b.den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.tower, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        a, b = self, other
        if b.__class__ is not FieldElement or b.tower != a.tower:
            try:
                a, b = self._pair(other)
            except TypeError:
                return NotImplemented
        bn = b.num
        return _add(a.tower, a.num, a.den, tuple(map(neg, bn)) if a.tower else (-bn[0],), b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not FieldElement:
            try:
                other = FieldElement.coerce(other)
            except TypeError:
                return NotImplemented
        if not other.tower:
            return _scale(self, other.num[0], other.den)
        if not self.tower:
            return _scale(other, self.num[0], self.den)
        a, b = (self, other) if other.tower == self.tower else self._pair(other)
        # a rational value scales the other operand, cancelling crosswise
        if not any(b.num[1:]):
            return _scale(a, b.num[0], b.den)
        if not any(a.num[1:]):
            return _scale(b, a.num[0], a.den)
        return _reduced(a.tower, _vmul(a.tower, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        num, tower = self.num, self.tower
        if not any(num):
            raise ZeroDivisionError("inverse of zero field element")
        if not any(num[1:]):
            # a rational value: swap numerator and denominator
            n, pad = num[0], (0,) * (len(num) - 1)
            if n < 0:
                return _make(tower, (-self.den,) + pad, -n)
            return _make(tower, (self.den,) + pad, n)
        acc, norm = _vinverse(tower, num)
        return _reduced(tower, tuple(self.den * c for c in acc), norm)

    def __truediv__(self, other):
        other = FieldElement.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return FieldElement.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = FieldElement.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        """Sign under the real embedding with every sqrt(d) > 0."""
        return _vsign(self.tower, self.num)

    def __eq__(self, other):
        if other.__class__ is FieldElement and other.tower == self.tower:
            return self.den == other.den and self.num == other.num
        if isinstance(other, (FieldElement, int, Fraction)):
            try:
                a, b = self._pair(other)
            except (TypeError, TowerMismatch):
                return False
            return a.den == b.den and a.num == b.num
        return NotImplemented

    def __lt__(self, other):
        return (self - FieldElement.coerce(other)).sign() < 0

    def __hash__(self):
        m = self.minimal()
        if not m.tower:
            return hash(Fraction(m.num[0], m.den))
        return hash((m.tower, m.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return format_element(self)

    # -- square roots ---------------------------------------------------------

    def sqrt(self) -> FieldElement:
        """The nonnegative square root, on the tower this element is written on.

        The root is found by value and then put on ``self.tower``, so the
        tower chooses the field: call ``in_tower`` first to search a larger
        one, or use ``sqrt_extending`` to adjoin what the root needs.  Raises
        NotASquare carrying a radicand that the tower lacks when the root lives
        in a quadratic extension of it, NotASquare with radicand None when no
        tower of depth <= 2 holds the root (or its radicand would take
        factoring beyond FACTOR_BUDGET_BITS), and NegativeRadicand for
        negative elements.
        """
        dirs = _directions(self.tower)
        root = _root(self, dirs)
        for rad in root._present():
            if rad not in dirs:
                raise NotASquare(f"sqrt of {self} needs sqrt({rad})", radicand=rad)
        return root.in_tower(self.tower)


class _Blank:
    """FieldElement's slot layout without its ``__setattr__`` guard."""

    __slots__ = FieldElement.__slots__


def _make(tower, num, den) -> FieldElement:
    """Internal constructor: ``num``/``den`` must already be in lowest terms.
    Plain slot stores on a ``_Blank``, then the object becomes a
    FieldElement, which shares its layout."""
    x = _Blank()
    x.tower = tower
    x.num = num
    x.den = den
    x.__class__ = FieldElement
    return x


def _root(a: FieldElement, radicands) -> FieldElement:
    """The nonnegative square root of ``a`` on the smallest tower of depth
    <= 2 holding it; ``radicands`` are those of the requested tower.

    A rational n/den is tried as an exact square, then as c^2*k for each of
    ``radicands``, and only then factored: its root is sqrt(n*den)/den, so
    the squarefree part of n*den is the radicand, found within
    FACTOR_BUDGET_BITS.  Otherwise ``a`` is p + q*sqrt(d) over the lower
    field, and a root s + t*sqrt(d) has norm s^2 - d*t^2 = +-gamma with
    gamma^2 = p^2 - d*q^2: gamma must lie in the lower field, s^2 is
    (p +- gamma)/2 (s may adjoin one radicand) and t = q/(2s).  Raises
    NegativeRadicand, or NotASquare with radicand None when there is no root.
    """
    if a.sign() < 0:
        raise NegativeRadicand(f"sqrt of negative element {a}")
    m = a.minimal()
    if not m.tower:
        n, den = m.num[0], m.den
        for k in (1, *radicands):
            s = isqrt(n * den * k)
            if s * s == n * den * k:
                break
        else:
            try:
                s, k = squarefree_decompose(n * den)
            except FactorBudgetExceeded as exc:
                raise NotASquare("nonsquare rational too large to find a radicand for") from exc
            s *= k
        # sqrt(n/den) = sqrt(n*den*k)/(den*k) * sqrt(k)
        return _reduced((), (s,), den) if k == 1 else _reduced((k,), (0, s), den * k)
    lower, d, half = m.tower[:-1], m.tower[-1], len(m.num) >> 1
    p = _reduced(lower, m.num[:half], m.den)
    q = _reduced(lower, m.num[half:], m.den)
    try:
        gamma = _root(p * p - q * q * d, radicands)
    except (NegativeRadicand, NotASquare):
        gamma = None
    # a root in any quadratic extension would make the norm a square in the
    # lower field already
    if gamma is None or not set(gamma._present()) <= _directions(lower).keys():
        raise NotASquare(f"{a} is not a square: its norm has no root in the lower field")
    sqrt_d = _make((d,), (0, 1), 1)
    for w in ((p + gamma) / 2, (p - gamma) / 2):
        if w.sign() <= 0:
            continue
        try:
            s = _root(w, radicands)
            cand = s + q / (2 * s) * sqrt_d
        except (NotASquare, TowerMismatch):
            continue
        if cand * cand == a:
            return (cand if cand.sign() > 0 else -cand).minimal()
    raise NotASquare(f"{a} is not a square in a tower of depth <= 2")


def sqrt_extending(a: FieldElement) -> FieldElement:
    """The nonnegative square root of a, on a's tower when it holds the root
    and otherwise on the smallest tower holding the root, which adjoins one
    radicand to a's (it holds a's radicands, since a is the root squared).

    Runs the same search as ``FieldElement.sqrt``, once.  Raises
    TowerDepthExceeded when the root does not fit in depth 2 (or its radicand
    would take factoring beyond FACTOR_BUDGET_BITS), and NegativeRadicand for
    negative elements.
    """
    try:
        root = _root(a, _directions(a.tower))
    except NotASquare as exc:
        raise TowerDepthExceeded(str(exc)) from exc
    try:
        return root.in_tower(a.tower)
    except TowerMismatch:
        return root


# ---------------------------------------------------------------------------
# text grammar: integer, p/q, sqrt(n), + - * /, parentheses (at most
# MAX_NESTING deep) and point literals [e1,e2,e3]

MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(\d+|sqrt|[()+\-*/\[\],])\s*")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionError(f"bad character at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def found(self) -> str:
        """The next token, quoted, or the end of input, for a refusal."""
        tok = self.peek()
        return "the end of input" if tok is None else repr(tok)

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            want = "a token" if expected is None else repr(expected)
            raise ExpressionError(f"expected {want}, found {self.found()}")
        self.pos += 1
        return tok

    def end(self) -> None:
        if self.peek() is not None:
            raise ExpressionError(f"trailing input {self.tokens[self.pos:]!r}")

    def expr(self) -> FieldElement:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> FieldElement:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ExpressionError("division by zero in expression")
                value = value / rhs
        return value

    def unary(self) -> FieldElement:
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.take() == "-"
        value = self.primary()
        return -value if negate else value

    def primary(self) -> FieldElement:
        tok = self.peek()
        if tok == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionError(f"parentheses nested deeper than {MAX_NESTING}")
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        if tok == "sqrt":
            self.take()
            self.take("(")
            inner = self.peek()
            if inner is None or not inner.isdigit():
                raise ExpressionError(f"sqrt takes a nonnegative integer, found {self.found()}")
            self.take()
            self.take(")")
            try:
                n = int(inner)
            except ValueError:
                raise _digit_limit(f"a radicand of {len(inner)} digits is") from None
            return FieldElement.root(n)
        if tok is not None and tok.isdigit():
            self.take()
            try:
                n = int(tok)
            except ValueError:
                raise _digit_limit(f"an integer of {len(tok)} digits is") from None
            return FieldElement.from_rational(n)
        raise ExpressionError(f"expected a number, 'sqrt' or '(', found {self.found()}")


def parse_element(text: str) -> FieldElement:
    parser = _Parser(text)
    value = parser.expr()
    parser.end()
    return value


def parse_triple(text: str) -> tuple[FieldElement, FieldElement, FieldElement]:
    """The three entries of a point literal '[e1,e2,e3]'."""
    parser = _Parser(text)
    parser.take("[")
    entries = []
    for sep in (",", ",", "]"):
        entries.append(parser.expr())
        parser.take(sep)
    parser.end()
    return tuple(entries)


def format_element(a: FieldElement) -> str:
    """Canonical textual form, parseable by parse_element.

    The element is taken over its minimal tower and written as the rational
    part, then one term per nonzero radicand in increasing order, each
    ``c*sqrt(d)`` with ``c`` in lowest terms, ``sqrt(d)`` when ``c`` is 1 and
    a leading sign only where it is negative.  The terms come from the
    integer ``num``/``den`` with one gcd each, not from ``coeffs``.  An
    integer too long to write in decimal raises DigitLimitExceeded.
    """
    m = a.minimal()
    num, den = m.num, m.den
    terms = [(num[0], 1)] if num[0] else []
    for rad, (i, mult) in sorted(_directions(m.tower).items()):
        if num[i]:
            terms.append((num[i] * mult, rad))
    if not terms:
        return "0"
    parts = []
    try:
        for n, rad in terms:
            g = gcd(n, den)
            top, bot = abs(n) // g, den // g
            mag = str(top) if bot == 1 else f"{top}/{bot}"
            if rad == 1:
                body = mag
            elif mag == "1":
                body = f"sqrt({rad})"
            else:
                body = f"{mag}*sqrt({rad})"
            parts.append(("-" if n < 0 else ("+" if parts else "")) + body)
    except ValueError:
        raise _digit_limit("the result has an integer") from None
    return "".join(parts)


fe = FieldElement.coerce
ZERO = FieldElement.from_rational(0)
ONE = FieldElement.from_rational(1)
