"""Deterministic SVG figures from exact geometry.

Conics are traced through an exact rational second-intersection sweep (no
square roots are ever taken): from a base point of the conic, each line in a
grid of directions meets the conic once more, at a point that is a closed
form in the sweep parameter (see ``conic_sweep``).  The sweep lifts its
per-conic coefficients once to integer numerator vectors on one tower, so
each swept point costs integer arithmetic only, and every point is in
absolute barycentrics (summing to 1).  At tower depths 0 and 1, where every
figure's conics lie, that arithmetic runs as closed forms on plain integers
and integer pairs; depth 2 runs it as a loop over numerator vectors.
``_conic_path`` places each point straight from its unreduced numerator
vectors and common denominator, in one pass: at depths 0 and 1 it divides
each coordinate's integers, applies the placement and writes the kept point
inline; the exact ``BaryPoint`` is built only when a caller reads it from
the sweep.
Coordinates become floats by integer true division, which is correctly
rounded, so every representation of a value gives the same float.
``_float`` embeds a value's coefficients into its minimal tower and divides
them (at depth 1 in closed form); it serves depth-2 paths and
``Placement.place``, and the path's inline division at depths 0 and 1 gives
its floats bit for bit.  The decimals are written at twelve significant
digits, byte for byte the same on every run.  Paths are reserved for conics;
segments and markers use line, circle and text elements, so a figure's
conic count equals its path count.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from operator import neg

from .field import (CeviangeoError, _canonical_of, _digit_limit, _directions, _reduced,
                    _vinverse, _vmul)
from .plane import A, B, C, G, BaryPoint, point
from .conics import Conic
from . import conics as conics_mod
from . import locus as locus_mod
from . import maps as maps_mod


class DegeneratePlacement(CeviangeoError):
    pass


# a swept conic point farther than this from the origin, on either axis,
# is left out of its path
_SPAN = 1e3


def _float(tower: tuple[int, ...], num: tuple[int, ...], den: int) -> float:
    """The float of num/den on ``tower``'s basis, in or out of lowest terms.

    Each coefficient is embedded into the minimal tower of the value and
    divided as integers, which is correctly rounded, so every representation
    of one value gives the same float.  A negative ``den`` is flipped first:
    0/-d would be -0.0."""
    if len(tower) == 2:
        m = _reduced(tower, num, den).minimal()
        value = m.num[0] / m.den
        for rad, (i, mult) in _directions(m.tower).items():
            value += m.num[i] / m.den * mult * math.sqrt(rad)
        return value
    if den < 0:
        num = tuple(map(neg, num))
        den = -den
    value = num[0] / den
    # the minimal tower is (d,), or () when num[1] is 0
    if tower and num[1]:
        value += num[1] / den * math.sqrt(tower[0])
    return value


# a decimal literal's exponent as Fraction reads it
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)[\d_]*(?:\.[\d_]*)?e([-+]?\d+(?:_\d+)*)\s*", re.I)


class Placement:
    """Cartesian positions for the reference triangle's vertices."""

    def __init__(self, coords):
        try:
            # Fraction builds 10**exponent exactly, which takes seconds for an
            # exponent in the millions: refuse one past the digit limit first
            for c in coords:
                m = _EXPONENT.fullmatch(c) if isinstance(c, str) else None
                if m and 0 < sys.get_int_max_str_digits() < abs(int(m[1])):
                    raise _digit_limit(f"a placement exponent of {int(m[1])} makes an integer")
            vals = [Fraction(c) for c in coords]
        except ZeroDivisionError:
            raise DegeneratePlacement("a placement coordinate has a zero denominator") from None
        except OverflowError:  # a float infinity
            raise DegeneratePlacement("a placement coordinate has no finite float") from None
        except ValueError:
            # the longest integer in the text; Fraction reads "1_000" as 1000
            runs = re.findall(r"\d+", " ".join(map(str, coords)).replace("_", ""))
            digits = max(map(len, runs), default=0)
            if digits > sys.get_int_max_str_digits():
                raise _digit_limit(f"a placement integer of {digits} digits is") from None
            raise
        if len(vals) != 6:
            raise DegeneratePlacement("placement needs six coordinates")
        ax, ay, bx, by, cx, cy = vals
        if (bx - ax) * (cy - ay) - (cx - ax) * (by - ay) == 0:
            raise DegeneratePlacement("the three placed vertices are collinear")
        try:
            self._floats = tuple(float(v) for v in vals)
        except OverflowError:
            raise DegeneratePlacement("a placement coordinate has no finite float") from None
        ax, ay, bx, by, cx, cy = self._floats
        area2 = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        if area2 == 0:
            raise DegeneratePlacement("the placed triangle has zero area in floating point")
        spans = (area2, max(ax, bx, cx) - min(ax, bx, cx), max(ay, by, cy) - min(ay, by, cy))
        if not all(map(math.isfinite, spans)):
            raise DegeneratePlacement("the placed triangle's extent overflows a float")

    @classmethod
    def default(cls) -> Placement:
        return cls((0, 2, -1, 0, Fraction(3, 2), 0))

    def locate(self, p: BaryPoint) -> tuple[float, float]:
        return self.place(p.normalized())

    def place(self, coords) -> tuple[float, float]:
        """The position of a point given in absolute barycentrics (summing to 1)."""
        return self._at(*(_float(x.tower, x.num, x.den) for x in coords))

    def _at(self, wa: float, wb: float, wc: float) -> tuple[float, float]:
        ax, ay, bx, by, cx, cy = self._floats
        return wa * ax + wb * bx + wc * cx, wa * ay + wb * by + wc * cy


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise DegeneratePlacement("a figure coordinate overflows a float")
    return format(v, ".12g")


def _lift(values) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """Exact values on one tower over one common denominator D:
    (tower, D, the integer numerator vector of each value)."""
    tower = _canonical_of(tuple(r for x in values for r in x._present()))
    values = [x.in_tower(tower) for x in values]
    den = math.lcm(*(x.den for x in values))
    return tower, den, [tuple(v * (den // x.den) for v in x.num) for x in values]


class _Sweep(Sequence):
    """The points of one sweep as it computes them: each None, or the
    integer numerator vectors of the three coordinates over one common
    denominator on ``tower``, in or out of lowest terms.  Reading a point
    reduces it to a ``BaryPoint``."""

    __slots__ = ("tower", "vectors")

    def __init__(self, tower: tuple[int, ...], vectors: list):
        self.tower = tower
        self.vectors = vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i):
        entry = self.vectors[i]
        if entry is None:
            return None
        nums, den = entry
        return BaryPoint(*(_reduced(self.tower, v, den) for v in nums))


def conic_sweep(c: Conic, base: BaryPoint, steps: int = 96) -> Sequence[BaryPoint | None]:
    """Exact points sweeping the conic once: the second intersection of the
    line through a base point of the conic in every direction.  None marks a
    direction where the point escapes to infinity (hyperbola branch gap).

    The directions are the infinite points e + t*f, then f + t*e, for
    e = (1,-1,0), f = (0,1,-1) and t = n/s on the grid s = ``steps``,
    n = 2k - s; scaling a direction does not move the point, so
    d = s*e + n*f and d = n*e + s*f.  The line bn + lam*d through the
    normalized base bn meets the conic again at lam = -2*bd/qd, with
    qd = d^T C d = s^2*Qee + 2sn*Qef + n^2*Qff and bd = bn^T C d = s*Be + n*Bf
    (the second chart swaps Qee with Qff and Be with Bf).

    The five coefficients and the three coordinates of bn are computed once
    per conic and lifted to integer numerator vectors on one tower over one
    common denominator D, so each direction costs integer arithmetic only:
    with Q = D*qd and L = -2*D*bd, the point is
    (B_i*Q + D*d_i*L) / (D*Q), divided through by Q with one conjugate-norm
    product.  Q = 0 is an asymptotic direction (None) and L = 0 the tangent
    at the base, where the sweep returns bn itself.  At tower depth 0 this
    arithmetic runs as a closed form on plain integers and at depth 1 on
    integer pairs (Q = q + q1*sqrt(r) has norm q^2 - r*q1^2 and conjugate
    q - q1*sqrt(r)); depth 2 runs it as a loop over numerator vectors.
    Since bn sums to 1 and d to 0, every point is in absolute coordinates,
    summing to 1: callers may place it without normalizing.

    The points are returned as a sequence of those unreduced vectors:
    ``_conic_path`` places them as they are, and a point is reduced to
    lowest terms, as a ``BaryPoint``, only when it is read.  The path's
    floats are those of the reduced points: integer division, in ``_float``
    and inline in the path, gives every representation of a value the same
    float.
    """
    if steps < 1:
        raise ValueError(f"sweep needs at least one step, got {steps}")
    if not c.contains(base):
        raise ValueError("sweep base must lie on the conic")
    b0, b1, b2 = base.normalized()
    m = c.m
    ce = [row[0] - row[1] for row in m]  # C e
    cf = [row[1] - row[2] for row in m]  # C f
    qee, qef, qff = ce[0] - ce[1], cf[0] - cf[1], cf[1] - cf[2]
    be = b0 * ce[0] + b1 * ce[1] + b2 * ce[2]
    bf = b0 * cf[0] + b1 * cf[1] + b2 * cf[2]
    tower, den, (Qee, Qef, Qff, Be, Bf, *bs) = _lift((qee, qef, qff, be, bf, b0, b1, b2))
    tangent = (tuple(bs), den)
    s = steps
    ss, s2, m2 = s * s, 2 * s, -2 * den
    out: list = []
    # per direction: Q = 0 is asymptotic (None); D*L = 0 is the tangent at
    # the base, where the sweep returns there; otherwise 1/Q = acc/norm and
    # point_i = (norm*B_i + d_i*D*L*acc) / (D*norm)
    # chart 0: d = (s, n-s, -n) for n = -s, -s+2, ..., s; chart 1:
    # d = (n, s-n, -s) for n = s-2, s-4, ..., -s
    for chart, q_ss, q_nn, b_s, b_n, ns in (
        (0, Qee, Qff, Be, Bf, range(-s, s + 1, 2)),
        (1, Qff, Qee, Bf, Be, range(s - 2, -s - 1, -2)),
    ):
        if not tower:
            # acc = 1 and norm = Q
            (qa,), (qb,), (qc,), (ba,), (bb,) = q_ss, Qef, q_nn, b_s, b_n
            (p0,), (p1,), (p2,) = bs
            qa, qb, ba = ss * qa, s2 * qb, s * ba
            for n in ns:
                q = qa + n * (qb + n * qc)
                if not q:
                    out.append(None)
                    continue
                dl = m2 * (ba + n * bb)
                if not dl:
                    out.append(tangent)
                    continue
                d0, d2 = (s, -n) if chart == 0 else (n, -s)
                out.append((((q * p0 + d0 * dl,), (q * p1 - (d0 + d2) * dl,),
                             (q * p2 + d2 * dl,)), den * q))
        elif len(tower) == 1:
            # Q = q + q1*sqrt(r): acc = q - q1*sqrt(r) and norm = q^2 - r*q1^2
            (r,) = tower
            (qa, qa1), (qb, qb1), (qc, qc1) = q_ss, Qef, q_nn
            (ba, ba1), (bb, bb1) = b_s, b_n
            (p0, p01), (p1, p11), (p2, p21) = bs
            qa, qa1, qb, qb1 = ss * qa, ss * qa1, s2 * qb, s2 * qb1
            ba, ba1 = s * ba, s * ba1
            for n in ns:
                q, q1 = qa + n * (qb + n * qc), qa1 + n * (qb1 + n * qc1)
                if not (q or q1):
                    out.append(None)
                    continue
                dl, dl1 = m2 * (ba + n * bb), m2 * (ba1 + n * bb1)
                if not (dl or dl1):
                    out.append(tangent)
                    continue
                norm = q * q - r * q1 * q1
                a, a1 = dl * q - r * dl1 * q1, dl1 * q - dl * q1
                d0, d2 = (s, -n) if chart == 0 else (n, -s)
                d1 = -d0 - d2
                out.append((((norm * p0 + d0 * a, norm * p01 + d0 * a1),
                             (norm * p1 + d1 * a, norm * p11 + d1 * a1),
                             (norm * p2 + d2 * a, norm * p21 + d2 * a1)), den * norm))
        else:
            q_terms = tuple(zip(q_ss, Qef, q_nn))
            b_terms = tuple(zip(b_s, b_n))
            for n in ns:
                sn, nn = s2 * n, n * n
                q = tuple(ss * x + sn * y + nn * z for x, y, z in q_terms)
                if not any(q):
                    out.append(None)
                    continue
                dl = tuple(m2 * (s * x + n * y) for x, y in b_terms)
                if not any(dl):
                    out.append(tangent)
                    continue
                acc, norm = _vinverse(tower, q)
                dla = _vmul(tower, dl, acc)
                d0, d2 = (s, -n) if chart == 0 else (n, -s)
                out.append((tuple(
                    tuple(norm * b + d * x for b, x in zip(bi, dla))
                    for bi, d in zip(bs, (d0, -d0 - d2, d2))
                ), den * norm))
    return _Sweep(tower, out)


def _conic_path(c: Conic, base: BaryPoint, placement: Placement, steps: int = 96) -> str:
    """The path of the conic swept from base, in one pass over the sweep's
    vectors.  At depths 0 and 1 each point is divided and placed inline, to
    the bit as ``_float`` and ``Placement._at`` would, and a kept point is
    written once, as ``_fmt`` would; depth 2 reads each coordinate through
    ``_float``."""
    sweep = conic_sweep(c, base, steps)
    tower = sweep.tower
    deep = len(tower) == 2
    root = math.sqrt(tower[0]) if len(tower) == 1 else 0.0
    ax, ay, bx, by, cx, cy = placement._floats
    pieces: list[list[str]] = [[]]
    for entry in sweep.vectors:
        if entry is not None:
            (na, nb, nc), den = entry
            if deep:
                wa, wb, wc = _float(tower, na, den), _float(tower, nb, den), _float(tower, nc, den)
            else:
                # integer division rounds |n/den| and gives it the sign of the
                # exact quotient, as after _float's flip of a negative den,
                # except at n = 0, where 0/-den would be -0.0
                wa = na[0] / den if na[0] else 0.0
                wb = nb[0] / den if nb[0] else 0.0
                wc = nc[0] / den if nc[0] else 0.0
                if root:
                    if na[1]:
                        wa += na[1] / den * root
                    if nb[1]:
                        wb += nb[1] / den * root
                    if nc[1]:
                        wc += nc[1] / den * root
            x, y = wa * ax + wb * bx + wc * cx, wa * ay + wb * by + wc * cy
            # nan or an infinity, from an overflow in placing, fails both
            # tests, so a kept point is finite: _fmt's check is not needed
            if abs(x) <= _SPAN and abs(y) <= _SPAN:
                pieces[-1].append("%.12g %.12g" % (x, -y))
                continue
        if pieces[-1]:
            pieces.append([])
    return " ".join("M " + " L ".join(piece) for piece in pieces if len(piece) > 1)


class Figure:
    def __init__(self, placement: Placement):
        self.placement = placement
        self.paths: list[tuple[str, str]] = []
        self.lines: list[tuple[tuple[float, float], tuple[float, float], str]] = []
        self.points: list[tuple[tuple[float, float], str]] = []

    def add_conic(self, c: Conic, base: BaryPoint, color: str, steps: int = 96):
        self.paths.append((_conic_path(c, base, self.placement, steps), color))

    def add_segment(self, p: BaryPoint, q: BaryPoint, color: str = "#888888"):
        self.lines.append((self.placement.locate(p), self.placement.locate(q), color))

    def add_point(self, p: BaryPoint, label: str):
        self.points.append((self.placement.locate(p), label))

    def render(self) -> str:
        xs, ys = [], []
        for (x1, y1), (x2, y2), _ in self.lines:
            xs += [x1, x2]
            ys += [y1, y2]
        for (x, y), _ in self.points:
            xs.append(x)
            ys.append(y)
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        margin = 0.6
        x0, x1 = min(xs) - margin, max(xs) + margin
        y0, y1 = min(ys) - margin, max(ys) + margin
        view = f"{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}"
        stroke = (y1 - y0) / 240.0
        radius = stroke * 2.2
        font = stroke * 12
        body = []
        for d, color in self.paths:
            if d:
                body.append(
                    f'<path class="conic" d="{d}" fill="none" stroke="{color}" '
                    f'stroke-width="{_fmt(stroke)}"/>'
                )
        for (xa, ya), (xb, yb), color in self.lines:
            body.append(
                f'<line x1="{_fmt(xa)}" y1="{_fmt(-ya)}" x2="{_fmt(xb)}" y2="{_fmt(-yb)}" '
                f'stroke="{color}" stroke-width="{_fmt(stroke)}"/>'
            )
        for (x, y), label in self.points:
            body.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(radius)}" fill="#222222"/>'
            )
            body.append(
                f'<text x="{_fmt(x + 2 * radius)}" y="{_fmt(-y - 2 * radius)}" '
                f'font-size="{_fmt(font)}">{label}</text>'
            )
        inner = "\n  ".join(body)
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" '
            f'viewBox="{view}">\n  {inner}\n</svg>\n'
        )


def _triangle(fig: Figure):
    fig.add_segment(A, B)
    fig.add_segment(B, C)
    fig.add_segment(C, A)
    for p, label in ((A, "A"), (B, "B"), (C, "C"), (G, "G")):
        fig.add_point(p, label)


def figure_locus(placement: Placement) -> str:
    fig = Figure(placement)
    colors = {"A": "#cc2222", "B": "#7722aa", "C": "#22aa44"}
    for vertex in ("A", "B", "C"):
        vl = locus_mod.vertex_locus(vertex)
        base = vl.excluded[0]
        fig.add_conic(vl.conic, base, colors[vertex])
    fig.add_conic(conics_mod.steiner_circumellipse(), A, "#2255cc")
    _triangle(fig)
    return fig.render()


def _cevian_conics(placement: Placement, p: BaryPoint) -> Figure:
    """The circumconic of p from A, its inconic from the first cevian
    trace, then the triangle: the opening of both cevian-conic figures."""
    fig = Figure(placement)
    fig.add_conic(conics_mod.circumconic_for(p), A, "#cc4444")
    fig.add_conic(conics_mod.inconic(p), maps_mod.cevian_traces(p)[0], "#22aa44")
    _triangle(fig)
    return fig


def figure_conics(placement: Placement) -> str:
    p = point([6, 3, 2])
    fig = _cevian_conics(placement, p)
    h = maps_mod.orthocenter(p)
    for x, label in ((p, "P"), (maps_mod.isotom_complement(p), "Q"), (h, "H"),
                     (maps_mod.complement(h), "O")):
        fig.add_point(x, label)
    return fig.render()


def figure_special(placement: Placement) -> str:
    p = locus_mod.special_point(1)
    p_iso = maps_mod.isotomic(p)
    _, _, z, u = maps_mod._cevian_members(p, p_iso, maps_mod.isotom_complement(p),
                                          maps_mod.complement(p))
    fig = _cevian_conics(placement, p)
    fig.add_segment(p, p_iso, "#bbbbbb")
    for x, label in (
        (p, "P"),
        (p_iso, "P'"),
        (maps_mod.complement(maps_mod.orthocenter(p)), "O"),
        (maps_mod.complement(maps_mod.orthocenter(p_iso)), "O'"),
        (u, "U"),
        (z, "Z"),
    ):
        fig.add_point(x, label)
    return fig.render()


def figure_construction(placement: Placement) -> str:
    fig = Figure(placement)
    frame = locus_mod.canonical_frame()
    fig.add_conic(frame.conic, frame.h, "#aa6622", steps=192)
    _triangle(fig)
    for a, b in (
        (frame.h, frame.u),
        (frame.u, frame.p),
        (frame.p, frame.v),
        (frame.v, frame.h),
    ):
        fig.add_segment(a, b, "#5577cc")
    fig.add_segment(frame.e, frame.f, "#bbbbbb")
    for p, label in (
        (frame.h, "H"),
        (frame.u, "U"),
        (frame.p, "P"),
        (frame.v, "V"),
        (frame.z, "Z"),
        (frame.e, "E"),
        (frame.f, "F"),
    ):
        fig.add_point(p, label)
    return fig.render()


FIGURES = {
    "locus": figure_locus,
    "conics": figure_conics,
    "special": figure_special,
    "construction": figure_construction,
}


def render_figure(name: str, placement: Placement | None = None) -> str:
    if name not in FIGURES:
        raise KeyError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    return FIGURES[name](placement or Placement.default())
