import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ceviangeo.field import FieldElement, fe
from ceviangeo.plane import (
    A,
    B,
    C,
    D0,
    G,
    BaryPoint,
    InfinitePointArgument,
    join,
    midpoint,
    point,
)
from ceviangeo.maps import (
    AffineMap,
    DegenerateTriangle,
    OnAnticomplementarySideline,
    OnMedian,
    OnSideline,
    OnSteinerCircumellipse,
    VertexArgument,
    anticomplement,
    cevian_map,
    cevian_traces,
    classify_transfer,
    complement,
    derive_configuration,
    is_valid_point,
    isotom_complement,
    isotomic,
    orthocenter,
    transfer_center_coords,
    transfer_map,
    validate_point,
)
from ceviangeo.verify import (ANTICOMPLEMENT, NotHomothetyOrTranslation, classify_map,
                              map_from_triangles, orthocenter_matches_definition)

R2 = FieldElement.root(2)
# the complement as a matrix, up to scale: column j is the midpoint of the
# side opposite vertex j
MEDIAL = AffineMap(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
IDENTITY = AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def random_valid(rng, off_medians=False):
    while True:
        coords = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(3)]
        if not any(coords):
            continue
        p = BaryPoint(*coords)
        if is_valid_point(p, off_medians=off_medians):
            return p


class TestBasicMaps:
    def test_complement_vertex(self):
        assert complement(A) == D0

    def test_complement_fixes_centroid(self):
        assert complement(G) == G
        assert isotomic(G) == G

    def test_complement_inverse(self):
        p = point([6, 3, 2])
        assert anticomplement(complement(p)) == p
        assert complement(anticomplement(p)) == p

    def test_complement_fixes_infinite(self):
        v = BaryPoint(0, 1, -1)
        assert complement(v) == v

    def test_isotomic(self):
        assert isotomic(point([6, 3, 2])) == point([1, 2, 3])
        assert isotomic(point("[1,1+sqrt(2),1-sqrt(2)]")) == point(
            "[0-1,1-sqrt(2),1+sqrt(2)]"
        )

    def test_isotomic_involution_random(self):
        rng = random.Random(4)
        for _ in range(25):
            p = random_valid(rng)
            assert isotomic(isotomic(p)) == p

    def test_isotomic_on_sideline(self):
        with pytest.raises(OnSideline):
            isotomic(BaryPoint(0, 1, 2))

    def test_isotom_complement(self):
        assert isotom_complement(point([6, 3, 2])) == point([5, 4, 3])
        assert isotom_complement(point("[1,1+sqrt(2),1-sqrt(2)]")) == BaryPoint(
            2, R2, -R2
        )
        rng = random.Random(8)
        for _ in range(15):
            p = random_valid(rng)
            assert isotom_complement(p) == complement(isotomic(p))

    def test_cevian_traces(self):
        d, e, f = cevian_traces(point([6, 3, 2]))
        assert d == BaryPoint(0, 3, 2)
        assert e == BaryPoint(3, 0, 1)
        assert f == BaryPoint(2, 1, 0)
        with pytest.raises(VertexArgument):
            cevian_traces(A)


class TestAffineMaps:
    def test_identity_from_triangles(self):
        m = map_from_triangles((A, B, C), (A, B, C))
        assert m == IDENTITY

    def test_medial_map_is_complement(self):
        m = map_from_triangles((A, B, C), (D0, point([1, 0, 1]), point([1, 1, 0])))
        assert m == MEDIAL
        assert cevian_map(G) == MEDIAL

    def test_cevian_map_column(self):
        t = cevian_map(point([6, 3, 2]))
        assert t.apply(A) == BaryPoint(0, fe("3/5"), fe("2/5"))

    def test_degenerate_triangle(self):
        with pytest.raises(DegenerateTriangle):
            map_from_triangles((A, B, C), (A, B, midpoint(A, B)))

    @pytest.mark.parametrize("rows", [
        [[1, 2], [3, 4]],
        [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
    ], ids=["2x2", "long-row", "four-rows"])
    def test_shape_other_than_3x3_refused(self, rows):
        with pytest.raises(ValueError, match="3x3"):
            AffineMap(rows)

    def test_equality_with_the_zero_map_is_symmetric(self):
        # maps are equal up to a nonzero scalar: zero times the identity is
        # not the identity, from either side
        zero = AffineMap(((0, 0, 0),) * 3)
        assert (zero == IDENTITY, IDENTITY == zero) == (False, False)
        assert zero == AffineMap(((0, 0, 0),) * 3)

    def test_composition_inverse(self):
        rng = random.Random(12)
        p = random_valid(rng)
        t = cevian_map(p)
        assert (t @ t.inverse()) == IDENTITY

    def test_line_image(self):
        # the complement of line BC is the midline through E0 and F0
        bc = join(B, C)
        img = MEDIAL.apply_line(bc)
        assert img == join(point([1, 0, 1]), point([1, 1, 0]))


class TestValidity:
    def test_midline_points_are_valid(self):
        # (1:2:3) sits on x+y-z=0 yet every derived object is defined
        validate_point(point([1, 2, 3]))
        validate_point(point([6, 3, 2]))
        validate_point(point("[1,1+sqrt(2),1-sqrt(2)]"))

    def test_sideline(self):
        with pytest.raises(OnSideline):
            validate_point(BaryPoint(0, 1, 2))

    def test_anticomplementary_sideline(self):
        with pytest.raises(OnAnticomplementarySideline):
            validate_point(BaryPoint(5, 1, -1))

    def test_steiner(self):
        # xy+yz+zx = 0 at (6:3:-2): 18-6-12
        with pytest.raises(OnSteinerCircumellipse):
            validate_point(BaryPoint(6, 3, -2))

    def test_infinite(self):
        with pytest.raises(InfinitePointArgument):
            validate_point(BaryPoint(0, 1, -1))

    def test_median_flag(self):
        validate_point(G)
        with pytest.raises(OnMedian):
            validate_point(G, off_medians=True)
        # one point on each median, so each of the three tests must fire
        for p in (BaryPoint(2, 2, 1), BaryPoint(2, 1, 2), BaryPoint(1, 2, 2)):
            with pytest.raises(OnMedian):
                validate_point(p, off_medians=True)


class TestConfiguration:
    def test_worked_example(self):
        cfg = derive_configuration(point([6, 3, 2]))
        assert cfg.h == A
        assert cfg.o == D0
        assert cfg.q == point([5, 4, 3])

    def test_orthocenter_definition_random(self):
        rng = random.Random(21)
        for _ in range(10):
            cfg = derive_configuration(random_valid(rng))
            assert orthocenter_matches_definition(cfg)

    def test_orthocenter_closed_form_matches_inverse_cevian_map(self):
        rng = random.Random(25)
        points = [random_valid(rng) for _ in range(8)] + [
            point("[1,1+sqrt(2),1-sqrt(2)]"),
            point("[2,3-sqrt(2),1+sqrt(3)]"),
        ]
        for p in points:
            circumcenter = cevian_map(isotomic(p)).inverse().apply(
                complement(isotom_complement(p))
            )
            assert orthocenter(p) == anticomplement(circumcenter)

    def test_orthocenter_is_a_exactly_on_the_vertex_conic(self):
        rng = random.Random(26)
        for _ in range(40):
            p = random_valid(rng)
            x, y, z = p.coords
            assert (orthocenter(p) == A) == (x * x == x * y + x * z + y * z)
        assert orthocenter(point([6, 3, 2])) == A

    def test_orthocenter_validates(self):
        with pytest.raises(OnSideline):
            orthocenter(BaryPoint(0, 1, 2))

    def test_circumcenter_is_complement_of_orthocenter(self):
        rng = random.Random(22)
        for _ in range(10):
            cfg = derive_configuration(random_valid(rng))
            assert cfg.o == complement(cfg.h)

    def test_transfer_symmetry(self):
        rng = random.Random(23)
        for _ in range(8):
            p = random_valid(rng)
            t1 = transfer_map(p)
            t2 = (cevian_map(isotomic(p)) @ ANTICOMPLEMENT @ cevian_map(p)).normalized()
            assert t1 == t2

    def test_special_translation_midpoint(self):
        cfg = derive_configuration(point("[1,1+sqrt(2),1-sqrt(2)]"))
        assert cfg.h == A
        assert cfg.o == D0
        assert cfg.u == midpoint(cfg.p, cfg.p_iso)
        assert cfg.u == BaryPoint(-1, 2 - R2, 2 + R2)

    def test_median_members_none(self):
        cfg = derive_configuration(G)
        assert cfg.h == G
        assert cfg.v is None and cfg.z is None and cfg.u is None and cfg.s is None

    def test_configuration_center_z(self):
        rng = random.Random(24)
        for _ in range(6):
            cfg = derive_configuration(random_valid(rng, off_medians=True))
            # z is the pole of the infinite line of the cevian conic
            from ceviangeo.conics import conic_center

            assert cfg.z == conic_center(cfg.cevian_conic)
            assert cfg.u == anticomplement(cfg.z)


class TestClassification:
    def test_centroid_homothety(self):
        cls = classify_transfer(G)
        assert cls.kind == "homothety"
        assert cls.ratio == fe("-1/2")
        assert cls.center == G

    def test_worked_homothety(self):
        cls = classify_transfer(point([6, 3, 2]))
        assert cls.kind == "homothety"
        assert cls.ratio == fe("-2/5")
        assert cls.center == point([25, 32, 27])

    def test_translation(self):
        cls = classify_transfer(point("[1,1+sqrt(2),1-sqrt(2)]"))
        assert cls.is_translation()
        assert cls.center.is_infinite()

    def test_center_formula_agreement(self):
        rng = random.Random(31)
        for _ in range(12):
            p = random_valid(rng)
            cls = classify_transfer(p)
            x, y, z = p.coords
            assert cls.center == BaryPoint(x * (y + z) ** 2, y * (x + z) ** 2, z * (x + y) ** 2)

    def test_center_line_intersection_agreement(self):
        rng = random.Random(32)
        for _ in range(10):
            p = random_valid(rng, off_medians=True)
            cfg = derive_configuration(p)
            assert cfg.s == classify_transfer(p).center

    @pytest.mark.parametrize("rows,reason", [
        # the cyclic map A -> B -> C -> A turns (1 : -1 : 0) off its line
        (((0, 0, 1), (1, 0, 0), (0, 1, 0)), "not scalar"),
        # fixing A and sending B to the midpoint of AB turns (0 : 1 : -1)
        (((2, 1, 0), (0, 1, 0), (0, 0, 2)), "not scalar"),
        # (1 : -1 : 0) scaled by 1, (0 : 1 : -1) by 2
        (((1, 0, 0), (1, 2, 0), (-1, -1, 1)), "two eigenvalues"),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), "identity"),
    ], ids=["first-direction", "second-direction", "two-eigenvalues", "identity"])
    def test_second_route_refuses_other_maps(self, rows, reason):
        with pytest.raises(NotHomothetyOrTranslation, match=reason):
            classify_map(AffineMap(rows))

    def test_formula_sum_vanishes_exactly_on_locus(self):
        from ceviangeo.curve import on_translation_locus

        rng = random.Random(33)
        for _ in range(12):
            p = random_valid(rng)
            s = BaryPoint(*transfer_center_coords(p))
            assert s.is_infinite() == on_translation_locus(p)


EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "expected.json"


def _closed_form_cases():
    """The pinned compute literals by tower depth, and translation points."""
    pools = json.loads(EXPECTED.read_text())["compute"]
    cases = [pytest.param([lit for lit, _ in pool], id=depth)
             for depth, pool in sorted(pools.items())]
    return cases + [pytest.param(None, id="translation")]


def _entries(m: AffineMap):
    return [(e.tower, e.num, e.den) for row in m.rows for e in row]


class TestTransferClosedForm:
    @pytest.mark.parametrize("literals", _closed_form_cases())
    def test_entry_identical_to_composition(self, literals):
        from ceviangeo.curve import sample_translation_points
        from ceviangeo.verify import composed_transfer

        if literals is None:
            points = sample_translation_points(8, seed=5)
        else:
            points = [point(lit) for lit in literals]
        for p in points:
            composed = composed_transfer(cevian_map(p), cevian_map(isotomic(p)))
            assert _entries(transfer_map(p)) == _entries(composed), p

    @pytest.mark.parametrize("fn", [transfer_map, classify_transfer])
    @pytest.mark.parametrize(
        "coords,error",
        [
            ([1, 0, 0], OnSideline),
            ([0, 1, 2], OnSideline),
            ([1, -1, 3], OnAnticomplementarySideline),
            ([2, 2, -1], OnSteinerCircumellipse),
            ([1, 2, -3], InfinitePointArgument),
        ],
        ids=["vertex", "sideline", "anticomplementary-sideline", "steiner-circumellipse",
             "infinite"],
    )
    def test_invalid_base_point(self, fn, coords, error):
        with pytest.raises(error):
            fn(BaryPoint(*coords))

    def test_symbolic_oracle(self):
        # derive T_P o K o T_P' from the cevian triangles with sympy and
        # compare it, its ratio and its center with the library's closed forms
        import sympy

        x, y, z = sympy.symbols("x y z")

        def cevian(a, b, c):
            traces = ((0, b, c), (a, 0, c), (a, b, 0))
            return sympy.Matrix(3, 3, lambda i, j: traces[j][i] / sum(traces[j]))

        k_inv = sympy.Matrix([[-1, 1, 1], [1, -1, 1], [1, 1, -1]])
        m = cevian(x, y, z) * k_inv * cevian(y * z, x * z, x * y)
        m = m * sympy.diag(*(1 / sum(m[:, j]) for j in range(3)))
        m = m.applyfunc(sympy.factor)
        d = (x + y) * (x + z) * (y + z)
        closed = sympy.Matrix([
            [x * (y - z) ** 2, x * (y + z) ** 2, x * (y + z) ** 2],
            [y * (x + z) ** 2, y * (x - z) ** 2, y * (x + z) ** 2],
            [z * (x + y) ** 2, z * (x + y) ** 2, z * (x - y) ** 2],
        ]) / d
        assert (m - closed).applyfunc(sympy.cancel) == sympy.zeros(3, 3)
        k = -4 * x * y * z / d
        for v in (sympy.Matrix([1, -1, 0]), sympy.Matrix([0, 1, -1])):
            assert (m * v - k * v).applyfunc(sympy.cancel) == sympy.zeros(3, 1)
        s = sympy.Matrix([x * (y + z) ** 2, y * (x + z) ** 2, z * (x + y) ** 2])
        moved = m[:, 0] - k * sympy.Matrix([1, 0, 0])
        assert moved.cross(s).applyfunc(sympy.cancel) == sympy.zeros(3, 1)
        assert sympy.expand(sum(s) - d - 4 * x * y * z) == 0

        rng = random.Random(34)
        for _ in range(6):
            p = random_valid(rng)
            at = dict(zip((x, y, z), (sympy.Rational(str(c)) for c in p.coords)))
            rows = [[sympy.Rational(str(e)) for e in row] for row in transfer_map(p).rows]
            assert sympy.Matrix(rows) == m.subs(at)
            cls = classify_transfer(p)
            assert cls.ratio == fe(str(k.subs(at)))
            assert cls.center == BaryPoint(*(fe(str(c)) for c in s.subs(at)))
