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
from ceviangeo.maps import classify_transfer
from ceviangeo.conics import _line_restriction, intersect_line
from ceviangeo.field import TowerDepthExceeded
from ceviangeo.curve import on_translation_locus, sample_translation_points
from ceviangeo.verify import (
    admissible_vertex_samples,
    affine_type,
    chord_matches_reflection,
    equilateral_metric_checks,
    frame_profile,
    median_torsion_bary,
    signed_ratio,
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
    special_configuration,
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


@pytest.fixture(scope="module")
def frame():
    return canonical_frame()


class TestConstructionFrame:

    def test_requires_translation(self):
        with pytest.raises(NotTranslation):
            construction_frame(point([6, 3, 2]))

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
        assert frame_profile(frame2) == (True,) * 8


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
        assert _chord(frame, center_vertex) is None
        assert chord_matches_reflection(frame, center_vertex)
        assert _chord(frame, A) is not None


def _generic_chord(frame, a1):
    """The inscribed chord by the generic route: whether it misses a1 and
    meets the conic in two distinct real ordinary points (by the
    discriminant of its restriction, and its infinite point off the conic),
    and its ordinary intersection points from ``intersect_line``, None where
    a depth-2 tower cannot hold them."""
    line = _chord(frame, a1)
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


class TestClosedForm:
    """The chords' closed form against intersecting the line with the conic."""

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

    @pytest.mark.parametrize("which", ["frame", "frame2"])
    def test_secant_ends_match_intersect_line(self, request, which):
        frame = request.getfixturevalue(which)
        ends = intersect_line(frame.conic, join(frame.g, frame.e))
        assert ends in ([frame.e, frame.f], [frame.f, frame.e])


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

    def refuse(rows):
        raise AssertionError("construction_frame ran a nullspace fit")

    # conics binds nullspace at import, so both names are replaced
    monkeypatch.setattr(linalg_mod, "nullspace", refuse)
    monkeypatch.setattr(conics_mod, "nullspace", refuse)
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
