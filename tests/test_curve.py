import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest

from ceviangeo import cli
from ceviangeo.field import FieldElement, fe, format_element
from ceviangeo.plane import A, B, C, BaryPoint, point, point_to_literal
from ceviangeo.curve import (
    GENERATOR,
    SAMPLE_BOUND,
    SampleTooLarge,
    OffCurve,
    WPoint,
    curve_invariants,
    on_translation_locus,
    rational_torsion,
    sample_translation_points,
    torsion_order_census,
    torsion_points,
    translation_cubic,
    w_to_bary,
)
from ceviangeo.verify import (
    BadParameter,
    MapUndefined,
    NFPoint,
    NormalFormCurve,
    bary_to_nf,
    bary_to_w,
    is_torsion,
    median_torsion_bary,
    nf_to_bary,
    nf_to_w,
    torsion_addition_table,
    translation_y_discriminant,
    w_to_nf,
)

R2 = FieldElement.root(2)
R3 = FieldElement.root(3)


class TestInvariants:
    def test_j(self):
        assert curve_invariants()["j"] == 54000
        assert curve_invariants()["j"] == 2 ** 4 * 3 ** 3 * 5 ** 3

    def test_c4_c6_disc(self):
        inv = curve_invariants()
        assert inv["b2"] == 24
        assert inv["b4"] == -6
        assert inv["c4"] == 720
        assert inv["c6"] == -19008
        assert inv["disc"] == 6912


class TestGroupLaw:
    def test_named_multiples(self):
        assert 2 * GENERATOR == WPoint.of(fe("1/2"), R2 / 4)
        assert 4 * GENERATOR == WPoint.of(fe("169/8"), fe("-2483/32") * R2)
        # exactly: both coordinates on the tower with sqrt(2), the rational u too
        double, fourth = 2 * GENERATOR, 4 * GENERATOR
        assert [(c.tower, c.num, c.den) for c in (double.u, double.v, fourth.u, fourth.v)] == [
            ((2,), (1, 0), 2), ((2,), (0, 1), 4), ((2,), (169, 0), 8), ((2,), (0, -2483), 32)]

    def test_secant_addition(self):
        assert WPoint.of(1, 2) + WPoint.of(-3, 6) == WPoint.of(-3, -6)

    def test_identity_and_inverse(self):
        inf = WPoint.infinity()
        p = WPoint.of(1, 2)
        assert p + inf == p
        assert inf + p == p
        assert p + (-p) == inf

    def test_two_torsion_doubles_to_identity(self):
        t = WPoint.of(0, 0)
        assert t + t == WPoint.infinity()

    def test_off_curve_rejected(self):
        with pytest.raises(OffCurve):
            WPoint.of(2, 2)

    def test_group_axioms_random(self):
        rng = random.Random(77)
        pool = torsion_points() + [k * GENERATOR for k in range(1, 5)]
        pool += [-p for p in pool]
        for _ in range(200):
            p, q, r = (rng.choice(pool) for _ in range(3))
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)

    def test_orders(self):
        assert WPoint.of(0, 0).order() == 2
        assert WPoint.of(1, 2).order() == 3
        assert WPoint.of(-3, 6).order() == 6
        assert WPoint(fe(-3) + 2 * R3, fe(0)).order() == 2
        assert WPoint(fe(3) + 2 * R3, fe(12) + 6 * R3).order() == 6


class TestTorsion:
    def test_census(self):
        assert torsion_order_census() == {1: 1, 2: 3, 3: 2, 6: 6}

    def test_closure(self):
        pts = torsion_points()
        assert len(pts) == 12
        for p in pts:
            for q in pts:
                assert any(p + q == t for t in pts)

    def test_generator_not_torsion(self):
        for n in range(1, 25):
            assert not is_torsion(n * GENERATOR)

    def test_fresh_lists_from_the_cached_group(self):
        pts = torsion_points()
        pts.clear()
        rational_torsion().clear()
        assert len(torsion_points()) == 12 and len(rational_torsion()) == 6
        assert is_torsion(torsion_points()[7])

    def test_addition_table_structure(self):
        table = torsion_addition_table()
        assert len(table) == 12
        # commutative Latin square with the identity in row 0
        assert table[0] == list(range(12))
        for i in range(12):
            assert sorted(table[i]) == list(range(12))
            for j in range(12):
                assert table[i][j] == table[j][i]

    def test_addition_table_refuses_an_open_set(self, monkeypatch):
        import ceviangeo.curve as curve_mod

        # five points cannot be closed under addition in a group of order 12
        monkeypatch.setattr(curve_mod, "torsion_points", lambda: rational_torsion()[:5])
        with pytest.raises(curve_mod.CurveError):
            torsion_addition_table()

    def test_minimal_model_shift(self):
        import sympy

        u, v, x = sympy.symbols("u v x")
        shifted = (v ** 2 - u * (u ** 2 + 6 * u - 3)).subs(u, x - 2)
        assert sympy.expand(shifted - (v ** 2 - (x ** 3 - 15 * x + 22))) == 0


class TestBirationalChain:
    def test_symbolic_square_completion(self):
        # multiplying the normal form by 4(3x+1) and completing the square
        # must produce exactly the stated quartic in Y = (3x+1)(2y+x-1)
        import sympy

        x, y = sympy.symbols("x y")
        eq = (3 * x + 1) * y ** 2 + (3 * x + 1) * (x - 1) * y + x ** 2 - x
        big_y = (3 * x + 1) * (2 * y + x - 1)
        quartic = (x - 1) * (3 * x + 1) * (3 * x ** 2 - 6 * x - 1)
        assert sympy.expand(big_y ** 2 - quartic - 4 * (3 * x + 1) * eq) == 0

    def test_symbolic_weierstrass_transport(self):
        import sympy

        u, v = sympy.symbols("u v")
        X = (u - 1) / (u + 3)
        Y = 8 * v / (u + 3) ** 2
        quartic = (X - 1) * (3 * X + 1) * (3 * X ** 2 - 6 * X - 1)
        residual = sympy.simplify(Y ** 2 - quartic - (v ** 2 - u * (u ** 2 + 6 * u - 3)) * 64 / (u + 3) ** 4)
        assert residual == 0

    def test_symbolic_discriminant(self):
        import sympy

        x, y = sympy.symbols("x y")
        lead = 3 * x + 1
        disc = sympy.discriminant(lead * y ** 2 + lead * (x - 1) * y + x ** 2 - x, y)
        assert sympy.expand(disc - (x - 1) * (3 * x + 1) * (3 * x ** 2 - 6 * x - 1)) == 0

    def test_symbolic_w_to_bary_closed_form(self):
        # w_to_nf followed by nf_to_bary, restated in sympy, is the closed
        # form that w_to_bary returns off its limit table
        import sympy

        u, v = sympy.symbols("u v")
        x = (u - 1) / (u + 3)
        big_y = 8 * v / (u + 3) ** 2
        y = (big_y / (3 * x + 1) - (x - 1)) / 2
        chain = (x, y, 1 - x - y)
        closed = ((u - 1) / (u + 3), (v + 2 * u) / (u * (u + 3)), (2 * u - v) / (u * (u + 3)))
        assert all(sympy.cancel(a - b) == 0 for a, b in zip(chain, closed))
        # the form w_to_bary evaluates: x = 1 - 4i and z = 4i - y, as
        # y + z = 4/(u+3); test_w_to_bary_matches_the_chain_exactly ties it
        i = 1 / (u + 3)
        y = (v / u + 2) * i
        assert all(sympy.cancel(a - b) == 0 for a, b in zip((1 - 4 * i, y, 4 * i - y), closed))

    def test_symbolic_rational_coordinate_forms(self):
        # y = (u-1)/(v-2u) and z = (1-u)/(v+2u) on the curve, the forms
        # _rational_coordinate reads y or z off: each differs from the closed
        # form by a multiple of the curve equation over its denominator
        import sympy

        from ceviangeo.curve import _rational_coordinate

        u, v = sympy.symbols("u v")
        curve = v ** 2 - u * (u ** 2 + 6 * u - 3)
        assert sympy.expand(v ** 2 - 4 * u ** 2 - u * (u - 1) * (u + 3) - curve) == 0
        y, z = (v + 2 * u) / (u * (u + 3)), (2 * u - v) / (u * (u + 3))
        # (closed - form) * u(u+3) * (v -+ 2u) is +-(v^2 - 4u^2 - u(u-1)(u+3))
        for closed, form, den, sign in ((y, (u - 1) / (v - 2 * u), v - 2 * u, 1),
                                        (z, (1 - u) / (v + 2 * u), v + 2 * u, -1)):
            assert sympy.cancel((closed - form) * u * (u + 3) * den / curve) == sign
        # the integer test: u = (a0 + a1*r)/(g*du_g) and v = (b0 + b1*r)/(g*dv_g)
        # with r = sqrt(d); at the value s*a1*dv_g/q, the residual of
        # y*(v - 2u) = u - 1 (s = 1) or z*(v + 2u) = 1 - u (s = -1) has no r
        # part and is s times the cross-multiplication over g*du_g*q, so the
        # value solves it exactly when the test holds
        a0, a1, b0, b1, du_g, dv_g, g, r = sympy.symbols("a0 a1 b0 b1 du_g dv_g g r")
        du = g * du_g
        uu, vv = (a0 + a1 * r) / du, (b0 + b1 * r) / (g * dv_g)
        for s in (1, -1):
            q = b1 * du_g - 2 * s * a1 * dv_g
            residual, den = sympy.fraction(sympy.together(
                s * a1 * dv_g / q * (vv - 2 * s * uu) - s * (uu - 1)))
            residual = sympy.expand(residual)
            assert residual.coeff(r, 1) == 0
            test = a1 * (b0 * du_g - 2 * s * a0 * dv_g) - (a0 - du) * q
            assert sympy.cancel(residual.coeff(r, 0) / den - s * test / (g * du_g * q)) == 0
        # tied at three pinned points: the helper's value is the form
        # evaluated in exact arithmetic, and w_to_bary's coordinate
        for k, ti, index in ((2, 2, 1), (-3, 3, 2), (5, 4, 1)):
            w = k * GENERATOR + rational_torsion()[ti]
            got_index, value = _rational_coordinate(w.u, w.v)
            uu, vv = (sympy.sympify(format_element(c)) for c in (w.u, w.v))
            form = (uu - 1) / (vv - 2 * uu) if index == 1 else (1 - uu) / (vv + 2 * uu)
            assert got_index == index
            assert sympy.expand(sympy.radsimp(form)) == sympy.Rational(value.num[0], value.den)
            assert w_to_bary(w).coords[index] == value

    def test_w_to_bary_matches_the_chain_exactly(self):
        # every point off the limit table, the median torsion points included
        points = [k * GENERATOR + t for k in (1, 2, 3, -5) for t in rational_torsion()]
        points += torsion_points()[6:]
        for w in points:
            closed, chain = w_to_bary(w), nf_to_bary(w_to_nf(w))
            assert [(c.tower, c.num, c.den) for c in closed.coords] == [
                (c.tower, c.num, c.den) for c in chain.coords
            ]

    def test_generator_correspondence(self):
        p = point("[1,1+sqrt(2),1-sqrt(2)]")
        nf = bary_to_nf(p)
        assert nf.x == fe("1/3") and nf.y == (1 + R2) / 3
        assert nf_to_w(nf) == GENERATOR

    def test_median_point_images(self):
        nf = NFPoint.of(1 + fe("2/3") * R3, -R3 / 3)
        w = nf_to_w(nf)
        assert w == WPoint(fe(-3) - 2 * R3, fe(0))

    def test_roundtrip_samples(self):
        for p in sample_translation_points(50, seed=5):
            assert w_to_bary(bary_to_w(p)) == p
            nf = bary_to_nf(p)
            assert nf_to_bary(nf) == p
            assert w_to_nf(nf_to_w(nf)) == nf

    def test_limit_table_points(self):
        # the chain is undefined at these four; both maps read the limits
        limits = [(WPoint.infinity(), A), (WPoint.of(0, 0), BaryPoint(0, 1, -1)),
                  (WPoint.of(-3, 6), BaryPoint(1, 0, -1)), (WPoint.of(-3, -6), BaryPoint(1, -1, 0))]
        for w, p in limits:
            assert bary_to_w(p) == w
            assert w_to_bary(w) == p

    def test_exceptional_points(self):
        with pytest.raises(MapUndefined):
            w_to_nf(WPoint.infinity())
        with pytest.raises(MapUndefined):
            w_to_nf(WPoint.of(0, 0))
        with pytest.raises(MapUndefined):
            w_to_nf(WPoint.of(-3, 6))
        with pytest.raises(MapUndefined):
            nf_to_w(NFPoint.of(1, 0))

    def test_torsion_limits(self):
        images = [w_to_bary(t) for t in rational_torsion()]
        assert images == [
            A,
            BaryPoint(0, 1, -1),
            B,
            C,
            BaryPoint(1, 0, -1),
            BaryPoint(1, -1, 0),
        ]
        for t in rational_torsion():
            assert on_translation_locus(w_to_bary(t))

    def test_median_torsion_correspondence(self):
        images = [w_to_bary(t) for t in torsion_points()[6:]]
        targets = median_torsion_bary()
        for img in images:
            assert any(img == t for t in targets)
        for t in targets:
            assert any(img == t for img in images)
            assert on_translation_locus(t)

    def test_off_curve_rejected(self):
        with pytest.raises(OffCurve):
            bary_to_nf(point([6, 3, 2]))
        with pytest.raises(OffCurve):
            NFPoint.of(2, 2)


class TestCubic:
    def test_membership(self):
        assert on_translation_locus(point("[1,1+sqrt(2),1-sqrt(2)]"))
        assert on_translation_locus(point("[1,-2+sqrt(3),-2+sqrt(3)]"))
        assert not on_translation_locus(point([6, 3, 2]))
        # 6*25 + 3*64 + 2*81 = 504
        assert translation_cubic(point([6, 3, 2])) == 504

    def test_symbolic_symmetric_form(self):
        # translation_cubic evaluates (x+s)(xs+yz) + 3x*yz with s = y + z;
        # tests/test_height_path.py::test_cubic_is_the_center_sum_exactly
        # ties it to the center's coordinate sum at the pinned points
        import sympy

        x, y, z = sympy.symbols("x y z")
        center_sum = x * (y + z) ** 2 + y * (x + z) ** 2 + z * (x + y) ** 2
        symmetric = (x + y + z) * (x * y + y * z + z * x) + 3 * x * y * z
        s = y + z
        assert sympy.expand(center_sum - symmetric) == 0
        assert sympy.expand((x + s) * (x * s + y * z) + 3 * x * y * z - symmetric) == 0
        for coords in ((6, 3, 2), (1, 2, 4), (3, -1, 5)):
            value = center_sum.subs(dict(zip((x, y, z), coords)))
            assert translation_cubic(BaryPoint(*coords)) == int(value)

    def test_infinite_points_on_cubic(self):
        for v in (BaryPoint(0, 1, -1), BaryPoint(1, 0, -1), BaryPoint(1, -1, 0)):
            assert on_translation_locus(v)

    def test_discriminant_matches_product(self):
        rng = random.Random(3)
        for _ in range(20):
            x = fe(Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
            target = (x - 1) * (3 * x + 1) * (3 * x * x - 6 * x - 1)
            assert translation_y_discriminant(x) == target


class TestSampler:
    def test_samples_are_valid_translation_points(self):
        from ceviangeo.maps import classify_transfer, is_valid_point

        pts = sample_translation_points(6, seed=1)
        assert len(pts) == 6
        for p in pts:
            assert on_translation_locus(p)
            assert is_valid_point(p, off_medians=True)
        assert classify_transfer(pts[0]).is_translation()

    def test_excluded_curves_meet_the_cubic_only_at_torsion_images(self):
        # why the sampler needs no validity filter: each curve that
        # validate_point(off_medians=True) excludes, parametrized by binary
        # forms in (s, t), meets the cubic only at images of the 12 torsion
        # points, and k*G + T with k != 0 is never torsion
        import sympy

        s, t, x, y, z = sympy.symbols("s t x y z")
        cubic = x * (y + z) ** 2 + y * (x + z) ** 2 + z * (x + y) ** 2
        images = [sympy.Matrix([sympy.sympify(format_element(c)) for c in w_to_bary(w).coords])
                  for w in torsion_points()]
        curves = [
            (x, (0, s, t)), (y, (s, 0, t)), (z, (s, t, 0)),
            (y + z, (s, t, -t)), (x + z, (s, t, -s)), (x + y, (s, -s, t)),
            (x + y + z, (s, t, -s - t)),
            (x * y + y * z + z * x, (-s * t, s * (s + t), t * (s + t))),
            (x - y, (s, s, t)), (y - z, (s, t, t)), (x - z, (s, t, s)),
        ]
        for form, param in curves:
            at = dict(zip((x, y, z), param))
            assert sympy.expand(form.subs(at, simultaneous=True)) == 0
            meet = sympy.expand(cubic.subs(at, simultaneous=True))
            _, factors = sympy.factor_list(meet, s, t, extension=sympy.sqrt(3))
            for factor, _ in factors:
                linear = sympy.Poly(factor, s, t)
                assert linear.total_degree() == 1, (form, factor)
                root = {s: linear.coeff_monomial(t), t: -linear.coeff_monomial(s)}
                pt = sympy.Matrix([sympy.sympify(c).subs(root, simultaneous=True) for c in param])
                assert any(sympy.simplify(e) != 0 for e in pt)
                assert any(all(sympy.simplify(c) == 0 for c in pt.cross(image))
                           for image in images), (form, pt)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_draw_is_valid_off_the_medians(self, seed):
        from ceviangeo.maps import is_valid_point

        assert all(is_valid_point(p, off_medians=True)
                   for p in sample_translation_points(128, seed=seed))

    def test_deterministic(self):
        a = sample_translation_points(5, seed=9)
        b = sample_translation_points(5, seed=9)
        assert all(x == y for x, y in zip(a, b))

    def test_samples_live_over_sqrt2(self):
        for p in sample_translation_points(10, seed=2):
            assert all(c.minimal().tower in ((), (2,)) for c in p.coords)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_full_sample_is_pairwise_distinct(self, seed):
        pts = sample_translation_points(SAMPLE_BOUND, seed=seed)
        assert len({point_to_literal(p) for p in pts}) == SAMPLE_BOUND

    @pytest.mark.parametrize("n,seed,expected", [
        (128, 0, "64aa694adafe89de"),
        (64, 7, "9e406d740296ca87"),
        (10, 1, "b103d6045dfe7069"),
    ])
    def test_cli_sample_output_pinned(self, n, seed, expected):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["curve", "sample", "--n", str(n), "--seed", str(seed)]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == expected

    def test_sample_size_bounded(self):
        assert sample_translation_points(0) == []
        for n in (-1, SAMPLE_BOUND + 1, 10 ** 9):
            with pytest.raises(SampleTooLarge):
                sample_translation_points(n)


class TestNormalFormFamily:
    def test_excluded_parameters(self):
        for a in (3, 0, -1, 9):
            with pytest.raises(BadParameter):
                NormalFormCurve(a)

    def test_origin_on_every_member(self):
        for a in (2, 5, -3, 7):
            assert NormalFormCurve(a).contains(0, 0)

    def test_no_real_point_when_disc_negative(self):
        # a=1, x=2: 3y^2 + 3y + 2 = 0 has discriminant 9 - 24 < 0
        curve = NormalFormCurve(1)
        assert curve.y_discriminant(fe(2)).sign() < 0
        assert curve.points_at(fe(2)) == []

    def test_sample_membership(self):
        curve = NormalFormCurve(2)
        for x, y in curve.sample(5, seed=4):
            assert curve.contains(x, y)

    def test_homothety_ratio_spot_check(self):
        from ceviangeo.maps import classify_transfer, is_valid_point

        curve = NormalFormCurve(5)
        found = 0
        for x, y in curve.sample(8, seed=2):
            p = BaryPoint(x, y, 1 - x - y)
            if not is_valid_point(p, off_medians=True):
                continue
            cls = classify_transfer(p)
            assert cls.kind == "homothety"
            assert cls.ratio == fe("2/3")
            found += 1
        assert found >= 3

    def test_sample_keeps_its_draws(self):
        points = NormalFormCurve(2).sample(4, seed=3)
        assert [(format_element(x), format_element(y)) for x, y in points] == [
            ("-1", "1-sqrt(3)"), ("-1", "1+sqrt(3)"),
            ("29/3", "-13/3+1/183*sqrt(490867)"), ("29/3", "-13/3-1/183*sqrt(490867)")]

    def test_sample_past_the_x_pool_is_refused(self):
        # the 599 values p/q with |p| <= 40 and q <= 12 give 1014 points for
        # a = 2; a sampler that draws forever fails here by the time limit
        import subprocess
        import sys

        code = ("from ceviangeo.verify import NormalFormCurve\n"
                "curve = NormalFormCurve(2)\n"
                "assert len(curve.sample(1014)) == 1014\n"
                "curve.sample(1015)\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=10)
        assert result.stderr.strip().splitlines()[-1].startswith(
            "ceviangeo.curve.SampleTooLarge: the 599 values of x give 1014 points"), result.stderr
