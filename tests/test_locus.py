from fractions import Fraction

import pytest

from ceviangeo.field import FieldElement, fe, parse_triple
from ceviangeo.plane import (
    A,
    B,
    C,
    D0,
    E0,
    F0,
    G,
    BaryLine,
    BaryPoint,
    LINE_AT_INFINITY,
    affine_combination,
    infinite_point_of,
    join,
    midpoint,
    point,
)
from ceviangeo.maps import classify_transfer, complement, orthocenter
from ceviangeo.conics import _line_restriction, intersect_line
from ceviangeo.field import TowerDepthExceeded
from ceviangeo.curve import on_translation_locus, sample_translation_points
from ceviangeo.verify import (
    admissible_vertex_samples,
    affine_type,
    chord_matches_reflection,
    equilateral_metric_checks,
    frame_profile,
    map_from_triangles,
    median_torsion_bary,
    signed_ratio,
    special_configuration,
    tangent_at,
    vertex_condition_profile,
)
from ceviangeo.locus import (
    DegenerateInscribed,
    _chord,
    ExcludedParameter,
    NoIntersection,
    NotOnConic,
    NotTranslation,
    admissible,
    canonical_frame,
    construction_frame,
    half_turn_projectivity,
    inscribed_triangle,
    orthocenter_vertex,
    reconstruct_point,
    special_point,
    vertex_locus,
)

R2 = FieldElement.root(2)


class TestVertexLocus:
    def test_param_hits_worked_example(self):
        vl = vertex_locus("A")
        assert vl.point_at(fe("1/3")) == point([6, 3, 2])

    def test_excluded_points(self):
        vl = vertex_locus("A")
        assert vl.excluded == (B, C, E0, F0)
        for p in vl.excluded:
            assert vl.conic.contains(p)

    def test_excluded_parameters(self):
        vl = vertex_locus("A")
        for t in (0, 1, -1):
            with pytest.raises(ExcludedParameter):
                vl.point_at(fe(t))

    def test_param_points_are_valid(self):
        from ceviangeo.maps import is_valid_point

        for vertex in ("A", "B", "C"):
            vl = vertex_locus(vertex)
            for t in (fe(2), fe("-5/7"), fe("9/4")):
                assert is_valid_point(vl.point_at(t))

    def test_equation(self):
        # x*y + x*z + y*z = x^2 at (6:3:2): 18+12+6 = 36
        vl = vertex_locus("A")
        assert vl.conic.contains(point([6, 3, 2]))
        assert not vl.conic.contains(point([1, 2, 3]))

    def test_permuted_loci(self):
        vb = vertex_locus("B")
        assert set(x.canonical().coords for x in vb.excluded) == set(
            x.canonical().coords for x in (C, A, F0, D0)
        )
        for t in (fe(2), fe("5/3"), fe("-3/4")):
            assert orthocenter_vertex(vb.point_at(t)) == "B"
        vc = vertex_locus("C")
        for t in (fe(3), fe("7/2")):
            assert orthocenter_vertex(vc.point_at(t)) == "C"

    def test_orthocenter_vertex_none(self):
        assert orthocenter_vertex(point([1, 2, 3])) is None
        assert orthocenter_vertex(G) is None

    def test_profile_equivalence(self):
        on = vertex_condition_profile(point([6, 3, 2]))
        assert tuple(on) == (True, True, True, True)
        off = vertex_condition_profile(point([1, 2, 3]))
        assert tuple(off) == (False, False, False, False)

    def test_orthocenter_is_a_exactly_on_the_vertex_conic_symbolic(self):
        # H = (a D_b D_c : b D_a D_c : c D_a D_b) is A exactly when D_a = 0:
        # D_a != 0 would need D_b = D_c = 0, so (b-c)(b+c) = 0 and D_b = -2ac;
        # D_a = 0 with D_b or D_c = 0 would need (a-b)(a+b) = 0 and D_a = -2ac,
        # or (a-c)(a+c) = 0 and D_a = -2ab; each zero factor is a sideline or
        # an anticomplementary sideline, so no valid point has one
        import sympy

        a, b, c, t = sympy.symbols("a b c t")
        d_a, d_b, d_c = (u * u - u * (v + w) - v * w for u, v, w in ((a, b, c), (b, c, a),
                                                                     (c, a, b)))
        m = vertex_locus("A").conic.m
        form = sum(sympy.Rational(m[i][j].as_fraction()) * s * r
                   for i, s in enumerate((a, b, c)) for j, r in enumerate((a, b, c)))
        assert sympy.expand(form + d_a) == 0
        assert sympy.expand(d_b - d_c - (b - c) * (b + c)) == 0
        assert sympy.expand(d_a - d_b - (a - b) * (a + b)) == 0
        assert sympy.expand(d_a - d_c - (a - c) * (a + c)) == 0
        assert sympy.expand(d_b.subs(b, c) + 2 * a * c) == 0
        assert sympy.expand(d_a.subs(b, a) + 2 * a * c) == 0
        assert sympy.expand(d_a.subs(c, a) + 2 * a * b) == 0
        param = dict(zip((a, b, c), (1 + t, 1 - t, t * (1 + t))))
        assert sympy.expand(d_a.subs(param, simultaneous=True)) == 0

        def at(expr, p):
            r = expr.subs(dict(zip((a, b, c), (sympy.Rational(x.as_fraction())
                                               for x in p.coords))))
            return fe(Fraction(int(r.p), int(r.q)))

        h = (a * d_b * d_c, b * d_a * d_c, c * d_a * d_b)
        vl = vertex_locus("A")
        on = [vl.point_at(fe(value)) for value in ("1/3", "2", "-5/7")]
        for p in on + [point([1, 2, 3])]:
            assert BaryPoint(*(at(e, p) for e in h)) == orthocenter(p)
            assert at(d_a, p) == -vl.conic.evaluate(p)
            assert (orthocenter(p) == A) == at(d_a, p).is_zero() == (p in on)

    def test_tangents(self):
        vl = vertex_locus("A")
        assert tangent_at(vl.conic, B) == BaryLine(1, 0, 1)
        assert tangent_at(vl.conic, C) == BaryLine(1, 1, 0)


class TestSpecialConfiguration:
    def test_both_variants(self):
        for sign in (1, -1):
            cfg = special_configuration(sign)
            assert cfg.h == A
            assert cfg.o == D0
            assert classify_transfer(cfg.p).is_translation()

    def test_point_on_axis_line(self):
        for sign in (1, -1):
            p = special_point(sign)
            assert BaryLine(-2, 1, 1).contains(p)
            assert on_translation_locus(p)

    def test_displacement_ratio(self):
        cfg = special_configuration(1)
        assert signed_ratio(cfg.o, cfg.p_iso, cfg.p) == -3

    def test_equilateral_metrics(self):
        for sign in (1, -1):
            cfg = special_configuration(sign)
            failed = [name for name, check in equilateral_metric_checks() if not check(cfg)]
            assert failed == []


def _raw(x):
    """x with every exact value spelled out as (tower, num, den)."""
    if isinstance(x, FieldElement):
        return x.tower, x.num, x.den
    if isinstance(x, tuple):
        return tuple(map(_raw, x))
    for attr in ("coords", "m", "rows"):  # BaryPoint, Conic, AffineMap
        if hasattr(x, attr):
            return type(x).__name__, _raw(getattr(x, attr))
    return x


@pytest.fixture(scope="module")
def frame():
    return canonical_frame()


class TestConstructionFrame:

    def test_requires_translation(self):
        with pytest.raises(NotTranslation):
            construction_frame(point([6, 3, 2]))

    def test_a_tower_too_deep_for_sqrt_3_is_refused(self):
        # (1 : 1+sqrt(2) : 1-sqrt(2)) times 1+sqrt(2)+sqrt(5): xyz spans Q(sqrt(2), sqrt(5))
        s = 1 + R2 + FieldElement.root(5)
        with pytest.raises(TowerDepthExceeded):
            construction_frame(BaryPoint(*(c * s for c in special_point(1).coords)))

    @pytest.mark.parametrize("d,u,v", [(7, "-12/7", "78/49"), (10, "-5", "2"), (11, "-4", "2")],
                             ids=["sqrt7", "sqrt10", "sqrt11"])
    def test_frames_over_other_radicands(self, d, u, v):
        # twist points mapped onto the curve, (u, v*sqrt(d)); each frame's
        # ninth identity reads the labelling e = g - k*d on its own
        from ceviangeo.curve import WPoint, rational_torsion, w_to_bary

        twist = WPoint.of(fe(u), fe(v) * FieldElement.root(d))
        for k in (1, 2):
            for t in rational_torsion():
                p = w_to_bary(k * twist + t)
                assert {c.tower for c in p.coords} <= {(), (d,)}
                assert frame_profile(construction_frame(p)) == (True,) * 9

    def test_frame_shape(self, frame):
        assert affine_type(frame.conic) == "hyperbola"
        assert frame.h == A
        assert frame.o == D0
        assert frame.g == G
        assert frame.z == midpoint(frame.u, frame.v)

    def test_secant_points_on_conic(self, frame):
        for p in (frame.e, frame.f):
            assert frame.conic.contains(p)
        assert midpoint(frame.e, frame.f) == G
        # one adjoined square root suffices for the secant points
        assert all(
            c.minimal().tower in ((), (2,), (3,), (6,), (2, 3)) for c in frame.e.coords
        )

    def test_projectivity_cycle(self, frame):
        assert half_turn_projectivity(frame, frame.u) == frame.z
        assert half_turn_projectivity(frame, frame.z) == frame.v
        assert half_turn_projectivity(frame, frame.v) == frame.u

    def test_projectivity_order_three(self, frame):
        y0 = midpoint(frame.g, frame.z)
        y = y0
        for _ in range(3):
            y = half_turn_projectivity(frame, y)
        assert y == y0

    @pytest.mark.parametrize("index", [None, *range(0, 32, 4)])
    def test_members_are_those_of_the_configuration(self, index):
        # each member the frame computes itself, without deriving the whole
        # configuration, is the configuration's, value and representation
        from ceviangeo.maps import derive_configuration

        if index is None:
            p, built = special_point(1), canonical_frame()
        else:
            p = sample_translation_points(32, seed=0)[index]
            built = construction_frame(p)
        cfg = derive_configuration(p)
        want = built._replace(h=cfg.h, u=cfg.u, p=cfg.p, v=cfg.v, z=cfg.z, o=cfg.o, q=cfg.q,
                              q_iso=cfg.q_iso, p_iso=cfg.p_iso, conic=cfg.cevian_conic,
                              t_p=cfg.t_p)
        assert _raw(built) == _raw(want)

    def test_asymptote_points_infinite_on_conic(self, frame):
        points = intersect_line(frame.conic, LINE_AT_INFINITY)
        assert len(points) == 2
        for v in points:
            assert v.is_infinite()
            assert frame.conic.contains(v)

    def test_asymptote_lines_tangent_at_infinity(self, frame):
        # the lines from z through the midpoints of g e and g f meet the
        # conic only at its two infinite points, one each
        first, second = intersect_line(frame.conic, LINE_AT_INFINITY)
        pts = [intersect_line(frame.conic, join(frame.z, mid))
               for mid in (midpoint(frame.e, frame.g), midpoint(frame.g, frame.f))]
        assert pts in ([[first], [second]], [[second], [first]])


class TestInscribed:
    def test_reference_triangle(self, frame):
        b1, c1 = inscribed_triangle(frame, A)
        assert {b1.canonical().coords, c1.canonical().coords} == {
            B.canonical().coords,
            C.canonical().coords,
        }

    def test_degenerate_at_midpoint_vertices(self, frame):
        with pytest.raises(DegenerateInscribed):
            inscribed_triangle(frame, frame.q)
        with pytest.raises(DegenerateInscribed):
            inscribed_triangle(frame, frame.q_iso)

    def test_no_intersection_at_secant_point(self, frame):
        with pytest.raises(NoIntersection):
            inscribed_triangle(frame, frame.e)

    def test_tangency_at_p_iso(self, frame):
        with pytest.raises(NoIntersection):
            inscribed_triangle(frame, frame.p_iso)

    def test_not_on_conic(self, frame):
        with pytest.raises(NotOnConic):
            inscribed_triangle(frame, G)

    def test_admissible_flags(self, frame):
        assert admissible(frame, A)
        assert not admissible(frame, frame.q)
        assert not admissible(frame, frame.q_iso)
        assert not admissible(frame, frame.p_iso)
        assert not admissible(frame, frame.e)
        assert not admissible(frame, intersect_line(frame.conic, LINE_AT_INFINITY)[0])

    def test_admissible_chord_ends_can_need_a_deeper_tower(self, frame):
        # admissible decides r > 0 only, so the chord ends can need a tower
        # deeper than 2: on the 64-step sweep from e, sqrt(r) at index 0 lies
        # in no depth-2 tower, and at index 96 it is over Q(sqrt(3), sqrt(22))
        # while the chord's direction is over Q(sqrt(2), sqrt(3))
        from ceviangeo.svgfig import conic_sweep

        sweep = conic_sweep(frame.conic, frame.e, steps=64)
        deep = BaryPoint(*parse_triple(
            "[1,-5-7/2*sqrt(2)-3*sqrt(3)-2*sqrt(6),-5+7/2*sqrt(2)-3*sqrt(3)+2*sqrt(6)]"))
        assert sweep[96] == deep
        for a1 in (sweep[0], deep):
            assert admissible(frame, a1)
            with pytest.raises(TowerDepthExceeded):
                inscribed_triangle(frame, a1)

    def test_reconstruct_identity_orientation(self, frame):
        assert reconstruct_point(frame, A, 1) == frame.p

    def test_reconstruct_swapped_orientation(self, frame):
        p = reconstruct_point(frame, A, 2)
        assert on_translation_locus(p)

    def test_orientation_refused_before_the_triangle(self, frame, monkeypatch):
        import ceviangeo.locus as locus_mod

        calls = []
        true = locus_mod.inscribed_triangle
        monkeypatch.setattr(locus_mod, "inscribed_triangle",
                            lambda *args: calls.append(args) or true(*args))
        with pytest.raises(ValueError, match="orientation"):
            reconstruct_point(frame, A, 3)
        assert calls == []

    def test_vertices_are_normalized_once(self, frame, monkeypatch):
        # b1 and c1 sum to one as m +- s*d and the labelling reads L(G), not
        # a determinant, so only the reconstruction's matrix normalizes a1
        calls = []
        true = FieldElement.inverse
        monkeypatch.setattr(FieldElement, "inverse",
                            lambda self: calls.append(self) or true(self))
        a1 = admissible_vertex_samples(frame, 1, seed=5)[0]
        for run, count in ((lambda: inscribed_triangle(frame, a1), 5),
                           (lambda: reconstruct_point(frame, a1, 1), 6),
                           (lambda: reconstruct_point(frame, a1, 2), 6)):
            calls.clear()
            run()
            assert len(calls) == count

    def test_random_samples_reconstruct(self, frame):
        for a1 in admissible_vertex_samples(frame, 3, seed=6):
            assert frame.conic.contains(a1)
            for orientation in (1, 2):
                p = reconstruct_point(frame, a1, orientation)
                assert on_translation_locus(p)
                assert classify_transfer(p).is_translation()
                assert not any(
                    p == t for t in _torsion_barycentric()
                )

    def test_frame_from_another_translation_point(self):
        p2 = sample_translation_points(3, seed=13)[1]
        frame2 = construction_frame(p2)
        b1, c1 = inscribed_triangle(frame2, A)
        assert {b1.canonical().coords, c1.canonical().coords} == {
            B.canonical().coords,
            C.canonical().coords,
        }
        assert frame_profile(frame2) == (True,) * 9

    def test_frame_at_every_sampled_translation_point(self):
        # the secant's ends need no square-root search, so no frame stops at
        # the factoring budget, which seven of these 32 points exceed
        for p in sample_translation_points(32, seed=0):
            assert frame_profile(construction_frame(p)) == (True,) * 9


def _finite_sweep(frame, steps):
    from ceviangeo.svgfig import conic_sweep

    return [p for p in conic_sweep(frame.conic, frame.h, steps)
            if p is not None and not p.is_infinite()]


class TestChord:
    """The closed-form chord against the conic and its half-turn image."""

    def test_matches_reflection_on_the_sweep(self, frame):
        points = _finite_sweep(frame, 64)
        assert len(points) > 50
        assert all(chord_matches_reflection(frame, p) for p in points)

    def test_matches_reflection_on_another_frame(self, frame2):
        points = _finite_sweep(frame2, 16) + [A, frame2.q, frame2.p_iso]
        assert all(chord_matches_reflection(frame2, p) for p in points)

    def test_none_only_at_the_center(self, frame):
        # the complement of a1 is the center z exactly when a1 = 3g - 2z
        center_vertex = affine_combination([(frame.g, 3), (frame.z, -2)])
        assert _chord(frame, _midpoint_of_chord(center_vertex)) is None
        assert chord_matches_reflection(frame, center_vertex)
        assert _chord(frame, _midpoint_of_chord(A)) is not None


def _midpoint_of_chord(a1):
    """The normalized complement of a1, the point ``_chord`` takes."""
    return BaryPoint(*complement(a1).normalized())


def _generic_chord(frame, a1):
    """The inscribed chord by the generic route: whether it misses a1 and
    meets the conic in two distinct real ordinary points (by the
    discriminant of its restriction, and its infinite point off the conic),
    and its ordinary intersection points from ``intersect_line``, None where
    a depth-2 tower cannot hold them."""
    line = _chord(frame, _midpoint_of_chord(a1))
    if line is None or line.contains(a1):
        return False, []
    _, _, a, b, c = _line_restriction(frame.conic, line)
    two = (b * b - a * c).sign() > 0 and not frame.conic.contains(infinite_point_of(line))
    try:
        points = [p for p in intersect_line(frame.conic, line) if not p.is_infinite()]
    except TowerDepthExceeded:
        points = None
    return two, points


@pytest.fixture(scope="module")
def frame2():
    return construction_frame(sample_translation_points(3, seed=13)[1])


@pytest.fixture(scope="module")
def frame3():
    # a point whose secant radicand is past the factoring budget
    return construction_frame(sample_translation_points(32, seed=0)[14])


def _symbolic_cevian_conic(x, y, z):
    """The cevian conic of P = (x:y:z) in sympy, as ``maps._cevian_members``
    builds it: the isotomic image of the line through P' and Q'."""
    import sympy

    p_iso = (y * z, x * z, x * y)
    q_prime = (y * z * (x + z) * (x + y), x * z * (y + z) * (x + y), x * y * (y + z) * (x + z))
    l0, l1, l2 = sympy.Matrix(p_iso).cross(sympy.Matrix(q_prime))
    return sympy.Matrix([[0, l2, l1], [l2, 0, l0], [l1, l0, 0]])


class TestClosedForm:
    """The chords' closed form against intersecting the line with the conic,
    and the reconstruction's adjugate against the generic triangle map."""

    def test_reconstruction_matches_map_from_triangles(self, frame):
        vertices = [A] + admissible_vertex_samples(frame, 20, seed=5)
        for a1 in vertices:
            b1, c1 = inscribed_triangle(frame, a1)
            for orientation, triangle in ((1, (a1, b1, c1)), (2, (a1, c1, b1))):
                want = map_from_triangles(triangle, (A, B, C)).apply(frame.p)
                assert reconstruct_point(frame, a1, orientation) == want

    @pytest.mark.parametrize("which", ["frame", "frame2"])
    def test_inscribed_chord_matches_the_generic_route(self, request, which):
        frame = request.getfixturevalue(which)
        points = _finite_sweep(frame, 64) + [A, frame.q, frame.q_iso, frame.p_iso,
                                              frame.e, frame.f]
        represented = 0
        for a1 in points:
            two, ends = _generic_chord(frame, a1)
            assert admissible(frame, a1) == two
            if ends is None:
                continue
            represented += 1
            assert two == (len(ends) == 2)
            if two:
                b1, c1 = inscribed_triangle(frame, a1)
                assert (b1, c1) in ((ends[0], ends[1]), (ends[1], ends[0]))
        assert represented >= 10

    @pytest.mark.parametrize("which", ["frame", "frame2", "frame3"])
    def test_secant_ends_match_intersect_line(self, request, which):
        frame = request.getfixturevalue(which)
        ends = intersect_line(frame.conic, join(frame.g, frame.e))
        assert ends in ([frame.e, frame.f], [frame.f, frame.e])

    def test_secant_radicand_on_the_cubic_symbolic(self):
        # at generic P the secant's radicand -Q(g)/Q(d), for the conic through
        # the triangle, P and Q and d the infinite point of P P', is
        # 1/(9 D (x+y+z)(xy+yz+zx)); with F = D + 4xyz the translation cubic,
        # 9 D (x+y+z)(xy+yz+zx) - 108 (xyz)^2 = 9F^2 - 63F xyz, so on F = 0
        # the radicand is 1/(108 (xyz)^2)
        import sympy

        from ceviangeo.locus import _bisected_chord
        from ceviangeo.maps import derive_configuration

        x, y, z = sympy.symbols("x y z")

        def cross(a, b):
            return sympy.Matrix(a).cross(sympy.Matrix(b))

        p_iso = (y * z, x * z, x * y)
        conic = _symbolic_cevian_conic(x, y, z)
        g = sympy.Matrix([1, 1, 1]) / 3
        d = cross(cross((x, y, z), p_iso), (1, 1, 1))
        r = -(g.T * conic * g)[0] / (d.T * conic * d)[0]
        dd = (x + y) * (x + z) * (y + z)
        s12 = (x + y + z) * (x * y + y * z + z * x)
        f = dd + 4 * x * y * z
        assert sympy.cancel(r - 1 / (9 * dd * s12)) == 0
        assert sympy.expand(9 * dd * s12 - 108 * (x * y * z) ** 2
                            - (9 * f ** 2 - 63 * f * x * y * z)) == 0

        g_normalized = BaryPoint(*G.normalized())
        for p in (special_point(1), special_point(-1),
                  sample_translation_points(32, seed=0)[14]):
            cfg = derive_configuration(p)
            d_p = infinite_point_of(join(cfg.p, cfg.p_iso))
            a, b, c = p.coords
            closed = 1 / (108 * (a * b * c) ** 2)
            assert _bisected_chord(cfg.cevian_conic, g_normalized, d_p) == closed

    def test_secant_labelling_on_the_cubic_symbolic(self):
        # e = G - k*d with no sign taken: for Z = adj(C)(1,1,1) the cevian
        # conic's center, axis = G x Z and Q' = (y+z : x+z : x+y) the
        # complement, axis.d = 2(xy+yz+zx)(axis.Q') and axis.Q' is a product
        # of factors that vanish only at refused points; as k has the sign of
        # xyz and Q' normalized that of x+y+z, G + k*d is on Q''s side exactly
        # when xyz(x+y+z)(xy+yz+zx) = xyz*F - 3(xyz)^2 > 0, never on F = 0
        import sympy

        from ceviangeo.field import ZERO
        from ceviangeo.maps import isotomic

        x, y, z = sympy.symbols("x y z")

        def cross(a, b):
            return sympy.Matrix(a).cross(sympy.Matrix(b))

        def dot(a, b):
            return sum(s * t for s, t in zip(a, b))

        ones = (1, 1, 1)
        center = _symbolic_cevian_conic(x, y, z).adjugate() * sympy.Matrix(ones)
        axis = cross(ones, center)
        d = cross(cross((x, y, z), (y * z, x * z, x * y)), ones)
        q_iso = (y + z, x + z, x + y)
        s2 = x * y + y * z + z * x
        f = (x + y) * (x + z) * (y + z) + 4 * x * y * z
        assert sympy.expand(dot(axis, d) - 2 * s2 * dot(axis, q_iso)) == 0
        assert sympy.expand(dot(axis, q_iso) + (x * y * z) ** 2 * (x - y) * (x + y) * (x - z)
                            * (x + z) * (y - z) * (y + z) * (x + y + z)) == 0
        assert sympy.expand(x * y * z * (x + y + z) * s2
                            - (x * y * z * f - 3 * (x * y * z) ** 2)) == 0

        def side(line, pt):
            return sum((a * b for a, b in zip(line, pt)), ZERO).sign()

        samples = sample_translation_points(32, seed=0)
        for p in (special_point(1), special_point(-1), samples[0], samples[14]):
            frame = construction_frame(p)
            a, b, c = p.coords
            k = FieldElement.root(3) / (18 * a * b * c)
            direction = infinite_point_of(join(p, isotomic(p)))
            # the axis rule on library objects puts G + k*d off the complement's side
            line = join(G, frame.z).coords
            first = k.sign() * side(line, direction.coords)
            assert first == -side(line, complement(p).normalized()) != 0
            e = BaryPoint(*(g - k * t for g, t in zip(G.normalized(), direction.coords)))
            assert _raw(frame.e) == _raw(e)

    def test_centroid_of_h_u_p_on_the_cubic_symbolic(self):
        # g = G is the centroid of h, u and p on the translation cubic: with s
        # each point's coordinate sum, F = D + 4xyz divides both coordinate
        # differences of s_u*s_p*h + s_h*s_p*u + s_h*s_u*p, which are not zero
        # off the cubic
        import sympy

        from ceviangeo.field import ZERO

        x, y, z = sympy.symbols("x y z")
        p = (x, y, z)
        # u is the anticomplement of the cevian conic's center
        c0, c1, c2 = _symbolic_cevian_conic(x, y, z).adjugate() * sympy.Matrix([1, 1, 1])
        u = (c1 + c2 - c0, c0 + c2 - c1, c0 + c1 - c2)
        d_a, d_b, d_c = (a * a - a * (b + c) - b * c
                         for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))
        h = (x * d_b * d_c, y * d_a * d_c, z * d_a * d_b)
        f = (x + y) * (x + z) * (y + z) + 4 * x * y * z
        s_h, s_u, s_p = sum(h), sum(u), sum(p)
        w = [s_u * s_p * a + s_h * s_p * b + s_h * s_u * c for a, b, c in zip(h, u, p)]
        diffs = [sympy.expand(w[0] - w[1]), sympy.expand(w[1] - w[2])]
        for diff in diffs:
            # a single divisor is a Groebner basis: remainder 0 is divisibility
            assert diff != 0 and sympy.div(diff, f, x, y, z)[1] == 0

        def at(expr, pt):
            a, b, c = pt.coords
            return sum((int(k) * a ** i * b ** j * c ** m
                        for (i, j, m), k in sympy.Poly(expr, x, y, z).terms()), ZERO)

        samples = sample_translation_points(32, seed=0)
        for pt in (special_point(1), samples[0], samples[14]):
            assert BaryPoint(*(at(e, pt) for e in h)) == orthocenter(pt)
            assert BaryPoint(*(at(e, pt) for e in u)) == construction_frame(pt).u
            assert at(f, pt) == 0 and all(at(diff, pt) == 0 for diff in diffs)

    def test_inscribed_orientation_symbolic(self, frame):
        # for m normalized, L a line through m and d = L x (1,1,1), the
        # inscribed triangle 1 - 2m, m + s*d, m - s*d has determinant
        # -2s*L(G): m x d = L*(sum m) - (1,1,1)*(m.L) = L
        import sympy

        from ceviangeo.field import sqrt_extending
        from ceviangeo.linalg import det3
        from ceviangeo.locus import _chord_ends, _inscribed_chord

        m0, m1, w0, w1, w2, s = sympy.symbols("m0 m1 w0 w1 w2 s")
        m = sympy.Matrix([m0, m1, 1 - m0 - m1])
        ones = sympy.Matrix([1, 1, 1])
        line = m.cross(sympy.Matrix([w0, w1, w2]))
        d = line.cross(ones)
        assert sympy.expand(line.dot(m)) == 0
        triangle = sympy.Matrix.hstack(ones - 2 * m, m + s * d, m - s * d)
        assert sympy.expand(triangle.det() + 2 * s * sum(line)) == 0

        def by_determinant(a1):
            # the labelling before the closed form: build both ends and swap
            # them when det(a1, b1, c1) < 0
            m, r, d, _ = _inscribed_chord(frame, a1)
            b1, c1 = _chord_ends(m, sqrt_extending(r), d)
            if det3((a1.normalized(), b1.coords, c1.coords)).sign() < 0:
                b1, c1 = c1, b1
            return b1, c1

        for seed in range(12):
            for a1 in [A] + admissible_vertex_samples(frame, 20, seed=seed):
                assert _raw(inscribed_triangle(frame, a1)) == _raw(by_determinant(a1))

    def test_pullback_through_h_g_p_matches_the_frames_route(self, frame):
        # the map fixed by h, G and p is the map through the two frames'
        # triangles h u p, since g = G is the centroid of h, u and p; it fixes
        # G, so A's image is a vertex of an inscribed triangle with centroid G
        def rows(m):
            return [(x.tower, x.num, x.den) for row in m.rows for x in row]

        for p2 in sample_translation_points(32, seed=0):
            if p2 == frame.p:
                continue
            f2 = construction_frame(p2)
            pull = map_from_triangles((orthocenter(p2), G, p2), (frame.h, G, frame.p))
            assert rows(pull) == rows(map_from_triangles((f2.h, f2.u, f2.p),
                                                         (frame.h, frame.u, frame.p)))
            assert admissible(frame, pull.apply(A))


def _torsion_barycentric():
    return [A, B, C, BaryPoint(0, 1, -1), BaryPoint(1, 0, -1), BaryPoint(1, -1, 0)] + list(
        median_torsion_bary()
    )


def _chord_point(frame, t):
    """Second intersection of the conic with the line through the frame's
    orthocenter vertex in the rational direction (t : 1-t : -1)."""
    d = BaryPoint(fe(t), 1 - fe(t), fe(-1))
    bn = BaryPoint(*frame.h.normalized())
    qd = frame.conic.evaluate(d)
    bd = frame.conic.pair(bn, d)
    lam = -2 * bd / qd
    return BaryPoint(*(x + lam * y for x, y in zip(bn.coords, d.coords)))


class TestArcStructure:
    def test_admissibility_flips_exactly_at_the_arc_endpoint(self, frame):
        # the endpoint p_iso sits at direction parameter 2*sqrt(2)-2
        tstar = 2 * R2 - 2
        assert _chord_point(frame, tstar) == frame.p_iso
        assert admissible(frame, _chord_point(frame, Fraction(41, 50)))
        assert admissible(frame, _chord_point(frame, Fraction(33, 40)))
        assert not admissible(frame, _chord_point(frame, Fraction(83, 100)))
        assert not admissible(frame, _chord_point(frame, Fraction(21, 25)))

    def test_sampled_arc_topology(self, frame):
        # sweeping the conic once: the inadmissible set shows two excluded
        # closed arcs plus isolated points lying on their own reflected conic
        # (together with the two asymptote directions these cut the
        # admissible set into six open arcs)
        from ceviangeo.svgfig import conic_sweep
        from ceviangeo.maps import complement
        from ceviangeo.verify import reflect_conic

        sweep = conic_sweep(frame.conic, frame.h, steps=64)
        flags = []
        for p in sweep:
            flags.append(None if p is None else admissible(frame, p))
        runs = []
        for i, f in enumerate(flags):
            if not runs or runs[-1][1] != f:
                runs.append([i, f, 1])
            else:
                runs[-1][2] += 1
        if len(runs) > 1 and runs[0][1] == runs[-1][1]:
            runs[0][2] += runs.pop()[2]
        long_false = [r for r in runs if r[1] is False and r[2] > 1]
        point_false = [r for r in runs if r[1] is False and r[2] == 1]
        assert len(long_false) == 2
        for start, _, _ in point_false:
            p = sweep[start]
            assert reflect_conic(frame.conic, complement(p)).contains(p)


def test_frame_needs_no_linear_solver(monkeypatch):
    import ceviangeo.conics as conics_mod
    import ceviangeo.linalg as linalg_mod
    import ceviangeo.locus as locus_mod

    def refuse(rows):
        raise AssertionError("construction_frame ran a nullspace fit")

    def refuse_root(a):
        raise AssertionError("construction_frame searched for a square root")

    # conics binds nullspace at import, so both names are replaced
    monkeypatch.setattr(linalg_mod, "nullspace", refuse)
    monkeypatch.setattr(conics_mod, "nullspace", refuse)
    monkeypatch.setattr(locus_mod, "sqrt_extending", refuse_root)
    frame = canonical_frame()
    assert frame.conic.contains(frame.p) and frame.conic.contains(frame.q)


def test_construction_intersects_no_line_with_the_conic(monkeypatch):
    import importlib
    import pkgutil

    import ceviangeo
    import ceviangeo.conics as conics_mod

    original = conics_mod.intersect_line

    def refuse(c, line):
        raise AssertionError("the construction ran intersect_line")

    for info in pkgutil.iter_modules(ceviangeo.__path__):
        ns = importlib.import_module(f"ceviangeo.{info.name}")
        for attr, value in list(vars(ns).items()):
            if value is original:
                monkeypatch.setattr(ns, attr, refuse)
    monkeypatch.setattr(ceviangeo, "intersect_line", refuse)
    frame = canonical_frame()
    assert inscribed_triangle(frame, A) == (B, C)
    samples = admissible_vertex_samples(frame, 3, seed=0)
    assert len(samples) == 3 and all(admissible(frame, a1) for a1 in samples)
