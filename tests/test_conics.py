import random
from fractions import Fraction

import pytest

from ceviangeo.field import FieldElement, fe
from ceviangeo.plane import (
    A,
    B,
    C,
    D0,
    E0,
    F0,
    G,
    LINE_AT_INFINITY,
    BaryLine,
    BaryPoint,
    join,
    midpoint,
    point,
)
from ceviangeo.linalg import adjugate3, det3
from ceviangeo.maps import (
    AffineMap,
    cevian_map,
    cevian_traces,
    complement,
    derive_configuration,
    isotom_complement,
    isotomic,
)
from ceviangeo.conics import (
    Conic,
    DegenerateConfiguration,
    conic_center,
    conic_through,
    circumconic_for,
    inconic,
    intersect_line,
    nine_point_conic,
    circumconic_of_line,
    steiner_circumellipse,
)
from ceviangeo.verify import (
    PointNotOnConic,
    affine_type,
    conic_image,
    is_interior,
    polar,
    tangent_at,
)

R2 = FieldElement.root(2)

VERTEX_A_CONIC = Conic(
    (
        (fe(-1), fe("1/2"), fe("1/2")),
        (fe("1/2"), 0, fe("1/2")),
        (fe("1/2"), fe("1/2"), 0),
    )
)


class TestConstruction:
    def test_through_five(self):
        pts = (A, B, C, point([6, 3, 2]), point([5, 4, 3]))
        c = conic_through(*pts)
        assert all(c.contains(p) for p in pts)
        # the cevian conic also carries the isotomic conjugate
        assert c.contains(point([1, 2, 3]))

    def test_vertex_conic_fit(self):
        c = conic_through(B, C, E0, F0, point([6, 3, 2]))
        assert c == VERTEX_A_CONIC

    def test_four_collinear_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            conic_through(B, C, D0, midpoint(B, D0), A)

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            Conic(((1, 2, 0), (0, 1, 0), (0, 0, 1)))

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0, 5], [0, 1, 0], [0, 0, 1]],  # an extra entry
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],  # an extra row
        [[1, 0], [0, 1]],
    ], ids=["long-row", "four-rows", "2x2"])
    def test_shape_other_than_3x3_refused(self, rows):
        with pytest.raises(ValueError, match="3x3"):
            Conic(rows)


class TestPolarity:
    def test_center_of_vertex_conic(self):
        assert conic_center(VERTEX_A_CONIC) == BaryPoint(1, 3, 3)

    def test_polar_of_vertex(self):
        assert polar(VERTEX_A_CONIC, A) == BaryLine(-2, 1, 1)

    def test_steiner_tangent_at_vertex(self):
        steiner = steiner_circumellipse()
        assert tangent_at(steiner, A) == BaryLine(0, 1, 1)

    def test_tangent_requires_membership(self):
        with pytest.raises(PointNotOnConic):
            tangent_at(steiner_circumellipse(), G)

    def test_reciprocity_random(self):
        rng = random.Random(6)
        c = VERTEX_A_CONIC
        for _ in range(25):
            p = BaryPoint(*(rng.randint(-5, 5) or 1 for _ in range(3)))
            q = BaryPoint(*(rng.randint(-5, 5) or 1 for _ in range(3)))
            on_polar_pq = sum(
                (a * b for a, b in zip(polar(c, p).coords, q.coords)),
                fe(0),
            ).is_zero()
            on_polar_qp = sum(
                (a * b for a, b in zip(polar(c, q).coords, p.coords)),
                fe(0),
            ).is_zero()
            assert on_polar_pq == on_polar_qp

    def test_center_on_diameters(self):
        # the center lies on the polar of every infinite point
        c = VERTEX_A_CONIC
        center = conic_center(c)
        for v in (BaryPoint(1, -1, 0), BaryPoint(0, 1, -1), BaryPoint(1, 1, -2)):
            assert polar(c, v).contains(center)


class TestLineIntersection:
    def test_axis_line_gives_special_points(self):
        pts = intersect_line(VERTEX_A_CONIC, BaryLine(-2, 1, 1))
        assert len(pts) == 2
        targets = (point("[1,1+sqrt(2),1-sqrt(2)]"), point("[1,1-sqrt(2),1+sqrt(2)]"))
        assert all(any(p == t for t in targets) for p in pts)

    def test_sideline_meets_in_vertices(self):
        pts = intersect_line(VERTEX_A_CONIC, BaryLine(1, 0, 0))
        assert len(pts) == 2
        assert all(any(p == t for t in (B, C)) for p in pts)

    def test_tangent_double_point(self):
        pts = intersect_line(VERTEX_A_CONIC, BaryLine(1, 0, 1))
        assert pts == [B]

    def test_extension_request(self):
        # line y = z meets the vertex conic where y^2 + 2xy = x^2
        pts = intersect_line(VERTEX_A_CONIC, BaryLine(0, 1, -1))
        assert len(pts) == 2
        assert all(VERTEX_A_CONIC.contains(p) for p in pts)

    def test_extension_request_decided_by_value(self):
        # the same conic written on the tower (2,) gives the same points
        wide = Conic(tuple(tuple(x.in_tower((2,)) for x in row) for row in VERTEX_A_CONIC.m))
        assert wide == VERTEX_A_CONIC
        pts = intersect_line(VERTEX_A_CONIC, BaryLine(0, 1, -1))
        wide_pts = intersect_line(wide, BaryLine(0, 1, -1))
        assert len(wide_pts) == 2 and all(any(p == q for q in pts) for p in wide_pts)
        # a line with a sqrt(2) coordinate brings sqrt(2) into the field
        target = point("[1,1+sqrt(2),1-sqrt(2)]")
        pts = intersect_line(VERTEX_A_CONIC, join(B, target))
        assert len(pts) == 2
        assert any(p == B for p in pts) and any(p == target for p in pts)

    def test_line_through_a_point_of_its_span(self):
        # the line's second spanning point (1:0:1) is on the conic, so the
        # restriction has no t^2 term and the other point is linear in t
        pts = intersect_line(VERTEX_A_CONIC, BaryLine(1, 1, -1))
        assert pts == [BaryPoint(-1, 3, 2), BaryPoint(1, 0, 1)]

    def test_no_real_intersection(self):
        # the line through A parallel to BC misses the vertex conic
        assert intersect_line(VERTEX_A_CONIC, BaryLine(0, 1, 1)) == []


class TestAffineType:
    def test_vertex_conic_is_ellipse(self):
        assert affine_type(VERTEX_A_CONIC) == "ellipse"

    def test_special_cevian_conic_is_hyperbola(self):
        cfg = derive_configuration(point("[1,1+sqrt(2),1-sqrt(2)]"))
        assert affine_type(cfg.cevian_conic) == "hyperbola"

    def test_asymptotes_of_split_form(self):
        # line pair (x-z)(y-z) displaced by the squared infinite line keeps
        # the same asymptotes but is nondegenerate
        l1 = (1, 0, -1)
        l2 = (0, 1, -1)
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                m[i][j] = Fraction(l1[i] * l2[j] + l1[j] * l2[i], 2) + 1
        c = Conic(m)
        assert not det3(c.m).is_zero()
        assert affine_type(c) == "hyperbola"
        # the asymptotes are the tangents at the two infinite points
        a1, a2 = (tangent_at(c, v) for v in intersect_line(c, LINE_AT_INFINITY))
        assert {a1, a2} == {BaryLine(*l1), BaryLine(*l2)}


class TestNamedConics:
    def test_inconic_of_centroid_is_steiner_inellipse(self):
        c = inconic(G)
        assert c == Conic(((1, -1, -1), (-1, 1, -1), (-1, -1, 1)))
        assert conic_center(c) == G

    def test_inconic_center(self):
        assert conic_center(inconic(point([6, 3, 2]))) == point([5, 4, 3])

    def test_inconic_third_tangency(self):
        p = point([1, 2, 3])
        c = inconic(p)
        f = cevian_traces(p)[2]
        assert tangent_at(c, f) == BaryLine(0, 0, 1)

    def test_nine_point_conic_midpoints_and_center(self):
        rng = random.Random(41)
        for _ in range(6):
            coords = [rng.randint(1, 9) for _ in range(3)]
            p = BaryPoint(*coords)
            p_iso = isotomic(p)
            n = nine_point_conic(p_iso)
            mids = [
                midpoint(B, C),
                midpoint(C, A),
                midpoint(A, B),
                midpoint(A, p_iso),
                midpoint(B, p_iso),
                midpoint(C, p_iso),
            ]
            assert all(n.contains(m) for m in mids)
            assert conic_center(n) == complement(isotom_complement(p))

    # the printed coefficients are not normalized, so the closed forms must
    # reproduce the constructions' scale, not only the conics
    CLOSED_FORM_POINTS = (
        "[6,3,2]", "[1,2,3]", "[-7,-7/9,-5/8]", "[5,-2,9/4]",
        "[1,1+sqrt(2),1-sqrt(2)]", "[2,3-sqrt(2),1+sqrt(3)]",
    )

    @pytest.mark.parametrize("literal", CLOSED_FORM_POINTS)
    def test_circumconic_closed_form_keeps_the_nine_point_scale(self, literal):
        p = point(literal)
        p_iso = isotomic(p)
        t_inv = AffineMap(adjugate3(cevian_map(p_iso).rows))
        image = conic_image(nine_point_conic(p_iso), t_inv)
        assert circumconic_for(p).upper() == image.upper()

    @pytest.mark.parametrize("literal", CLOSED_FORM_POINTS)
    def test_cevian_conic_closed_form_keeps_the_fit_scale(self, literal):
        p = point(literal)
        fitted = conic_through(A, B, C, p, isotom_complement(p))
        assert derive_configuration(p).cevian_conic.upper() == fitted.upper()

    @pytest.mark.parametrize("literal", CLOSED_FORM_POINTS)
    def test_inconic_closed_form_tangent_at_traces(self, literal):
        p = point(literal)
        c = inconic(p)
        assert c.m[2][2] == 1
        sides = (BaryLine(1, 0, 0), BaryLine(0, 1, 0), BaryLine(0, 0, 1))
        for trace, side in zip(cevian_traces(p), sides):
            assert tangent_at(c, trace) == side
        assert conic_center(c) == isotom_complement(p)

    def test_circumconic_of_infinite_line(self):
        assert circumconic_of_line(LINE_AT_INFINITY) == steiner_circumellipse()

    def test_circumconic_properties(self):
        cfg = derive_configuration(point([6, 3, 2]))
        for v in (A, B, C):
            assert cfg.circumconic.contains(v)
        assert conic_center(cfg.circumconic) == cfg.o

    def test_transfer_sends_circumconic_to_inconic(self):
        rng = random.Random(42)
        for coords in ((6, 3, 2), (1, 2, 3), (7, 2, 9)):
            cfg = derive_configuration(point(list(coords)))
            assert conic_image(cfg.circumconic, cfg.transfer) == cfg.inconic

    def test_cevian_conic_membership(self):
        rng = random.Random(43)
        for _ in range(6):
            coords = [rng.randint(1, 9) for _ in range(3)]
            p = BaryPoint(*coords)
            if not all(
                [(coords[0] != coords[1]), (coords[1] != coords[2]), (coords[0] != coords[2])]
            ):
                continue
            from ceviangeo.maps import is_valid_point

            if not is_valid_point(p, off_medians=True):
                continue
            cfg = derive_configuration(p)
            for member in (cfg.p_iso, cfg.h, cfg.q_iso):
                assert cfg.cevian_conic.contains(member)

    def test_tangent_line_at_isocomplement_for_translations(self):
        cfg = derive_configuration(point("[1,1+sqrt(2),1-sqrt(2)]"))
        assert tangent_at(cfg.cevian_conic, cfg.q) == join(cfg.o, cfg.q)


class TestInterior:
    def test_centroid_inside_steiner(self):
        assert is_interior(steiner_circumellipse(), G)

    def test_far_point_outside(self):
        assert not is_interior(steiner_circumellipse(), BaryPoint(5, 1, -2))

    def test_vertex_conic_points_inside_steiner(self):
        from ceviangeo.locus import vertex_locus

        vl = vertex_locus("A")
        steiner = steiner_circumellipse()
        for k in range(2, 12):
            p = vl.point_at(fe(k) / 13)
            assert is_interior(steiner, p)
