"""The closed-form conic sweep against the generic second-intersection route.

``generic_sweep`` is the sweep as the definition reads: per direction d it
evaluates the conic at d, pairs the normalized base with d and moves by
lam = -2*bd/qd.  ``svgfig.conic_sweep`` must give the same list, point for
point and value for value, on every figure's conics, on seeded conics over
towers of depth 0 to 2 (at depth 1 over sqrt(2), sqrt(3) and sqrt(5), since
depths 0 and 1 run their own closed forms), and on conics built so that the
grid meets an asymptotic direction and the tangent at the base.

``generic_path`` is the path string as it was drawn before the sweep ran on
integer vectors: the generic sweep, each point located through
``Placement.locate`` (which normalizes it).  ``svgfig._conic_path``, which
places the sweep's unreduced vectors, must give the same string on the same
conics, over hypothesis-drawn placements too; ``svgfig._float`` must give
the float of the reduced element on its minimal tower, bit for bit, and
lie within a few rounding errors of the value mpmath computes at 60 digits
from the vector's own basis; and neither the sweep's nor the path's count
of field operations may grow with the step count.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ceviangeo import svgfig
from ceviangeo.conics import Conic
from ceviangeo.field import FieldElement, _directions, _reduced, fe
from ceviangeo.plane import A, B, G, BaryPoint


def generic_sweep(c: Conic, base: BaryPoint, steps: int) -> list[BaryPoint | None]:
    bn = BaryPoint(*base.normalized())
    params = [Fraction(2 * k, steps) - 1 for k in range(steps + 1)]
    sweep = [(0, t) for t in params] + [(1, t) for t in reversed(params[:-1])]
    out = []
    for chart, t in sweep:
        d = BaryPoint(1, t - 1, -t) if chart == 0 else BaryPoint(t, 1 - t, -1)
        qd, bd = c.evaluate(d), c.pair(bn, d)
        if qd.is_zero():
            out.append(None)
            continue
        lam = -2 * bd / qd
        if lam.is_zero():
            out.append(bn)
            continue
        pt = BaryPoint(*(x + lam * y for x, y in zip(bn.coords, d.coords)))
        out.append(None if pt.is_infinite() else pt)
    return out


def assert_matches_generic(c: Conic, base: BaryPoint, steps: int):
    got = svgfig.conic_sweep(c, base, steps)
    want = generic_sweep(c, base, steps)
    assert len(got) == len(want) == 2 * steps + 1
    for i, (p, q) in enumerate(zip(got, want)):
        if q is None:
            assert p is None, i
            continue
        assert p is not None, i
        assert p.coords == q.coords, i
        assert p.coordinate_sum() == 1, i
        assert c.contains(p), i
    return got


def depth(c: Conic) -> int:
    return max(len(x.minimal().tower) for row in c.m for x in row)


def figure_sweeps(monkeypatch, name: str) -> list[tuple[Conic, BaryPoint, int]]:
    """The (conic, base, steps) of every sweep the figure draws."""
    calls = []
    sweep = svgfig.conic_sweep

    def recording(c, base, steps=96):
        calls.append((c, base, steps))
        return sweep(c, base, steps)

    with monkeypatch.context() as patch:
        patch.setattr(svgfig, "conic_sweep", recording)
        svgfig.render_figure(name)
    return calls


@pytest.mark.parametrize("name", sorted(svgfig.FIGURES))
def test_figure_sweeps_match_generic_route(monkeypatch, name):
    sweeps = figure_sweeps(monkeypatch, name)
    assert sweeps
    for c, base, steps in sweeps:
        assert_matches_generic(c, base, steps)


def test_figure_conics_cover_depths_zero_and_one(monkeypatch):
    depths = {depth(c) for name in svgfig.FIGURES for c, _, _ in figure_sweeps(monkeypatch, name)}
    assert depths == {0, 1}


R2, R3 = FieldElement.root(2), FieldElement.root(3)
BASIS = {0: [fe(1)], 1: [fe(1), R2], 2: [fe(1), R2, R3, R2 * R3]}
# depth 1 past sqrt(2): a sweep or float kernel that hard-coded the
# radicand 2 would still match on BASIS[1]
BASIS[(3,)] = [fe(1), R3]
BASIS[(5,)] = [fe(1), FieldElement.root(5)]


def key_depth(d) -> int:
    """The tower depth of a BASIS key: a depth, or a tower."""
    return d if isinstance(d, int) else len(d)


def random_element(rng: random.Random, d: int) -> FieldElement:
    return sum((Fraction(rng.randint(-6, 6), rng.randint(1, 4)) * b for b in BASIS[d]), fe(0))


def seeded_conic(seed: int, d: int) -> tuple[Conic, BaryPoint]:
    """A nondegenerate conic over a tower of depth d (or over the tower d)
    through a random base: a random symmetric matrix whose m00 is shifted to
    put the base on it."""
    rng = random.Random(seed)
    while True:
        b = [random_element(rng, d) for _ in range(3)]
        if b[0].is_zero() or sum(b, fe(0)).is_zero():
            continue
        six = [random_element(rng, d) for _ in range(6)]
        c = Conic.from_upper(six)
        base = BaryPoint(*b)
        six[0] = six[0] - c.evaluate(base) / (b[0] * b[0])
        c = Conic.from_upper(six)
        if not c.is_degenerate():
            return c, base


@pytest.mark.parametrize("d", [0, 1, 2, (3,), (5,)])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("steps", [1, 2, 7, 24])
def test_seeded_conics_match_generic_route(seed, d, steps):
    c, base = seeded_conic(100 * key_depth(d) + seed, d)
    assert c.contains(base) and depth(c) == key_depth(d)
    got = assert_matches_generic(c, base, steps)
    if not isinstance(d, int):
        assert got.tower == d


# base A; e = (1,-1,0) is asymptotic (chart 0 at t = 0) and the tangent at A
# is the direction (1,0,-1) (chart 0 at t = 1)
HYPERBOLA_A = Conic(((0, 1, 0), (1, 2, 0), (0, 0, -1)))
# base B; f = (0,1,-1) is asymptotic (chart 1 at t = 0) and the tangent at B
# is the direction (1,1,-2) (chart 1 at t = 1/2)
HYPERBOLA_B = Conic(((1, 2, 0), (2, 0, 1), (0, 1, 2)))


@pytest.mark.parametrize("c,base,asymptote,tangent", [
    (HYPERBOLA_A, A, 48, 96),
    (HYPERBOLA_B, B, 144, 120),
], ids=["chart0", "chart1"])
def test_grid_hits_asymptote_and_tangent(c, base, asymptote, tangent):
    assert not c.is_degenerate()
    got = assert_matches_generic(c, base, 96)
    assert got[asymptote] is None
    assert got[tangent] == base and got[tangent].coordinate_sum() == 1
    assert sum(p is None for p in got) == 2
    assert sum(p is not None and p == base for p in got) == 1


@pytest.mark.parametrize("steps", [0, -4])
def test_sweep_rejects_nonpositive_steps(steps):
    with pytest.raises(ValueError):
        svgfig.conic_sweep(HYPERBOLA_A, A, steps)


def test_sweep_rejects_a_base_off_the_conic():
    with pytest.raises(ValueError):
        svgfig.conic_sweep(HYPERBOLA_A, B, 8)


def test_sweep_coefficient_identities():
    import sympy

    m = sympy.symbols("m00 m01 m02 m11 m12 m22")
    cm = sympy.Matrix([[m[0], m[1], m[2]], [m[1], m[3], m[4]], [m[2], m[4], m[5]]])
    b0, b1, s, n, lam = sympy.symbols("b0 b1 s n lam")
    bn = sympy.Matrix([b0, b1, 1 - b0 - b1])
    e, f = sympy.Matrix([1, -1, 0]), sympy.Matrix([0, 1, -1])
    qee, qef, qff = (e.T * cm * e)[0], (e.T * cm * f)[0], (f.T * cm * f)[0]
    be, bf = (bn.T * cm * e)[0], (bn.T * cm * f)[0]
    charts = (
        (s * e + n * f, qee, qff, be, bf),
        (n * e + s * f, qff, qee, bf, be),
    )
    for d, q_ss, q_nn, b_s, b_n in charts:
        qd, bd = (d.T * cm * d)[0], (bn.T * cm * d)[0]
        assert sympy.expand(qd - (s**2 * q_ss + 2 * s * n * qef + n**2 * q_nn)) == 0
        assert sympy.expand(bd - (s * b_s + n * b_n)) == 0
        # Q(bn + lam*d) = Q(bn) + lam*(2*bd + lam*qd): when bn is on the
        # conic, so is the point at lam = -2*bd/qd, and it sums to 1
        pt = bn + lam * d
        on = (pt.T * cm * pt)[0] - (bn.T * cm * bn)[0] - lam * (2 * bd + lam * qd)
        assert sympy.expand(on) == 0
        assert sympy.expand(sum(pt)) == 1


def generic_path(c: Conic, base: BaryPoint, placement: svgfig.Placement, steps: int,
                 sweep=None, span: float = 1e3) -> str:
    """The path string from the generic sweep, each point normalized by
    ``Placement.locate``; ``sweep`` reuses the generic sweep's points."""
    pieces: list[list[tuple[float, float]]] = [[]]
    for p in sweep or generic_sweep(c, base, steps):
        if p is None:
            if pieces[-1]:
                pieces.append([])
            continue
        x, y = placement.locate(p)
        if abs(x) > span or abs(y) > span:
            if pieces[-1]:
                pieces.append([])
            continue
        pieces[-1].append((x, y))
    parts = []
    for piece in pieces:
        if len(piece) < 2:
            continue
        coords = " L ".join(f"{svgfig._fmt(x)} {svgfig._fmt(-y)}" for x, y in piece)
        parts.append(f"M {coords}")
    return " ".join(parts)


PLACEMENTS = [
    svgfig.Placement.default(),
    svgfig.Placement(("0", "3", "-1.5", "0", "2", "0")),
    svgfig.Placement(("-7/3", "1/9", "5", "-2/7", "11/5", "13/3")),
]


@pytest.mark.parametrize("name", sorted(svgfig.FIGURES))
def test_figure_paths_match_generic_route(monkeypatch, name):
    sweeps = figure_sweeps(monkeypatch, name)
    assert sweeps
    for c, base, steps in sweeps:
        sweep = generic_sweep(c, base, steps)
        for placement in PLACEMENTS:
            want = generic_path(c, base, placement, steps, sweep)
            assert svgfig._conic_path(c, base, placement, steps) == want


# the basis of the (non-canonical) tower (6, 15), whose last vector is
# sqrt(6)*sqrt(15) = 3*sqrt(10): its conics are drawn on that tower
BASIS[(6, 15)] = [FieldElement((6, 15), [int(i == j) for j in range(4)]) for i in range(4)]


@pytest.mark.parametrize("d", [0, 1, 2, (6, 15), (3,), (5,)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_paths_match_generic_route(seed, d):
    c, base = seeded_conic(1000 + seed, d)
    for placement in PLACEMENTS:
        assert svgfig._conic_path(c, base, placement, 24) == generic_path(c, base, placement, 24)


def test_tower_6_15_has_a_multiplier_three_basis_vector():
    root10 = BASIS[(6, 15)][3].minimal()
    assert root10.tower == (10,) and root10.num == (0, 3)
    c, _ = seeded_conic(1000, (6, 15))
    assert {x.tower for row in c.m for x in row} == {(6, 15)} and depth(c) == 2


# a depth-0 and a depth-1 conic with their generic sweeps, computed once
DRAWN = [(c, base, generic_sweep(c, base, 48))
         for c, base in ((HYPERBOLA_A, A), seeded_conic(101, 1))]
COORD = st.fractions(min_value=-20, max_value=20, max_denominator=50)


@settings(max_examples=40, deadline=None)
@given(st.lists(COORD, min_size=6, max_size=6))
def test_paths_match_generic_route_under_drawn_placements(coords):
    ax, ay, bx, by, cx, cy = coords
    assume((bx - ax) * (cy - ay) != (cx - ax) * (by - ay))
    placement = svgfig.Placement(coords)
    for c, base, sweep in DRAWN:
        want = generic_path(c, base, placement, 48, sweep)
        assert svgfig._conic_path(c, base, placement, 48) == want


def test_place_of_normalized_is_locate():
    c, base = seeded_conic(201, 2)
    points = [A, G, BaryPoint(3, -1, 5), BaryPoint(1, 1 + R2, R3), base]
    points += [p for p in svgfig.conic_sweep(c, base, 6) if p is not None]
    for placement in PLACEMENTS:
        for p in points:
            assert placement.place(p.normalized()) == placement.locate(p)


# minimal() is counted too: a path that read each swept point through it
# would grow with the step count
FIELD_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "inverse", "minimal")


def field_op_count(monkeypatch, draw) -> int:
    """The number of FieldElement operations that ``draw()`` calls."""
    calls = [0]
    with monkeypatch.context() as patch:
        for name in FIELD_OPS:
            original = getattr(FieldElement, name)

            def counted(*args, original=original):
                calls[0] += 1
                return original(*args)

            patch.setattr(FieldElement, name, counted)
        draw()
    return calls[0]


def figure_sweep_of_depth(monkeypatch, d: int) -> tuple[Conic, BaryPoint, int]:
    return next(sweep for name in sorted(svgfig.FIGURES)
                for sweep in figure_sweeps(monkeypatch, name) if depth(sweep[0]) == d)


@pytest.mark.parametrize("d", [0, 1])
def test_sweep_field_operations_do_not_grow_with_steps(monkeypatch, d):
    c, base, _ = figure_sweep_of_depth(monkeypatch, d)
    few = field_op_count(monkeypatch, lambda: svgfig.conic_sweep(c, base, 8))
    assert few > 0
    assert field_op_count(monkeypatch, lambda: svgfig.conic_sweep(c, base, 192)) == few


@pytest.mark.parametrize("d", [0, 1])
def test_path_field_operations_do_not_grow_with_steps(monkeypatch, d):
    # the path places the sweep's integer vectors: no field arithmetic per point
    c, base, _ = figure_sweep_of_depth(monkeypatch, d)
    placement = PLACEMENTS[2]
    few = field_op_count(monkeypatch, lambda: svgfig._conic_path(c, base, placement, 8))
    assert few > 0
    assert field_op_count(monkeypatch, lambda: svgfig._conic_path(c, base, placement, 64)) == few


def reference_float(x: FieldElement) -> float:
    """The float conversion as it was before ``_float``: read from the
    minimal tower, one correctly rounded division per coefficient."""
    m = x.minimal()
    num, den = m.num, m.den
    value = num[0] / den
    for rad, (i, mult) in _directions(m.tower).items():
        value += num[i] / den * mult * math.sqrt(rad)
    return value


FLOAT_TOWERS = [(), (2,), (3,), (5,), (2, 3), (6, 15)]
ENTRIES = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10 ** 40, 10 ** 40))
DENS = st.integers(-10 ** 30, 10 ** 30).filter(bool)


@st.composite
def vectors(draw):
    tower = draw(st.sampled_from(FLOAT_TOWERS))
    num = tuple(draw(st.lists(ENTRIES, min_size=1 << len(tower), max_size=1 << len(tower))))
    return tower, num, draw(st.one_of(st.sampled_from([1, -1, 6, -6, 9, -30]), DENS))


@settings(max_examples=300, deadline=None)
@given(vectors())
@example(((6, 15), (0, 0, 0, 1), 1))  # sqrt(6)*sqrt(15) = 3*sqrt(10)
@example(((6, 15), (0, 0, 0, -7), -3))
@example(((6, 15), (0, 0, 5, 4), 7))  # sqrt(15) and sqrt(10): the tower (6, 10)
@example(((2, 3), (0, 0, 0, 0), -5))  # 0/-5 reduces to 0, not -0.0
@example(((), (0,), -1))
def test_float_is_the_float_of_the_reduced_element(vector):
    tower, num, den = vector
    got, want = svgfig._float(tower, num, den), reference_float(_reduced(tower, num, den))
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), vector


@settings(max_examples=300, deadline=None)
@given(vectors())
@example(((6, 15), (0, 0, 0, 1), 1))  # 3*sqrt(10) on the minimal tower
def test_float_is_within_rounding_of_the_exact_value(vector):
    """``_float`` lies within 8*2**-52 times the sum of the terms' magnitudes
    of the exact value, read at 60 digits on the vector's own basis (no
    minimal tower), so this check does not share ``_float``'s route."""
    tower, num, den = vector
    with mpmath.workdps(60):
        roots = [mpmath.sqrt(d) for d in tower]
        basis = [mpmath.fprod(r for bit, r in enumerate(roots) if i >> bit & 1)
                 for i in range(len(num))]
        terms = [mpmath.mpf(n) * b / den for n, b in zip(num, basis)]
        bound = 8 * mpmath.mpf(2) ** -52 * mpmath.fsum(abs(t) for t in terms)
        assert abs(svgfig._float(tower, num, den) - mpmath.fsum(terms)) <= bound, vector


@pytest.mark.parametrize("coords", [
    (0, 0, float("inf"), 0, 0, 1),
    (0, 0, "1e400", 0, 0, 1),
    (0, 0, "1/0", 0, 0, 1),
])
def test_placement_refuses_unrepresentable_coordinates(coords):
    with pytest.raises(svgfig.DegeneratePlacement):
        svgfig.Placement(coords)


@pytest.mark.parametrize("coords", ["-5e307 0 5e307 0 0 1", "0 -5e307 1 5e307 0 0"])
@pytest.mark.parametrize("figure", sorted(svgfig.FIGURES))
def test_overflowing_swept_points_leave_the_path(figure, coords):
    # every check of Placement passes, but placing a swept point with a
    # weight outside [0, 1] overflows, and inf - inf is nan
    svg = svgfig.render_figure(figure, svgfig.Placement(coords.split()))
    assert "nan" not in svg and "inf" not in svg
