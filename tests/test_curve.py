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

    def test_symbolic_weighted_twist_steps(self):
        # the kernel's doubling and its addition of an integral base B equal
        # the affine chord-tangent law on V^2 = U^3 + 12U^2 - 12U
        import sympy

        from ceviangeo.curve import _twist_add, _twist_double, _twist_multiple

        m, n, s, a, b, g = sympy.symbols("m n s a b g")
        a2, a4 = 12, -12
        x, y = m / s ** 2, n / s ** 3

        def f(t):
            return t ** 3 + a2 * t ** 2 + a4 * t

        slope = 3 * m ** 2 + s ** 2 * (2 * a2 * m + a4 * s ** 2)
        s2 = 2 * n * s
        m2 = slope ** 2 - a2 * s2 ** 2 - 8 * m * n ** 2
        n2 = -8 * n ** 4 - slope * (m2 - 4 * m * n ** 2)
        lam = (3 * x ** 2 + 2 * a2 * x + a4) / (2 * y)
        x2 = lam ** 2 - a2 - 2 * x
        double = (x2, -(y + lam * (x2 - x)))
        assert sympy.cancel(m2 / s2 ** 2 - double[0]) == 0
        assert sympy.cancel(n2 / s2 ** 3 - double[1]) == 0
        # the doubling's common factor: on the curve, m2 = m^4 mod s, and the
        # slope is f'(U)s^4, with f's discriminant 2^10 * 3^3 (the twist's
        # is 16 times that, 2^14 * 3^3)
        nn = sympy.Symbol("nn")
        on_curve = m ** 3 + a2 * m ** 2 * s ** 2 + a4 * m * s ** 4
        m2_of_nn = slope ** 2 - 4 * a2 * nn * s ** 2 - 8 * m * nn
        assert sympy.expand(m2_of_nn - m2.subs(n ** 2, nn)) == 0
        assert sympy.expand(m2_of_nn.subs(nn, on_curve) - m ** 4).subs(s, 0) == 0
        u = sympy.Symbol("u")
        assert sympy.cancel(slope / s ** 4 - sympy.diff(f(u), u).subs(u, x)) == 0
        assert sympy.discriminant(f(u), u) == 2 ** 10 * 3 ** 3
        # the addition, with the slope N/D cancelled by any g
        num, den = (b * s ** 3 - n) / g, s * (a * s ** 2 - m) / g
        t = den / s
        m3 = num ** 2 - (a2 + a) * den ** 2 - m * t ** 2
        n3 = -(b * den ** 3 + num * (m3 - a * den ** 2))
        lam = (b - y) / (a - x)
        x3 = lam ** 2 - a2 - x - a
        added = (x3, -(y + lam * (x3 - x)))
        assert sympy.cancel(m3 / den ** 2 - added[0]) == 0
        assert sympy.cancel(n3 / den ** 3 - added[1]) == 0
        # the exact division by s^2: x3*(x - a)^2 is this numerator, which
        # has no pole worse than (x - a)^2 at the primes of s, modulo the
        # curve at P and at B
        X, Y = sympy.symbols("X Y")
        numerator = a * X ** 2 + (a ** 2 + 2 * a * a2 + a4) * X + a * a4 - 2 * b * Y
        chord = (Y - b) ** 2 - (X + a2 + a) * (X - a) ** 2
        assert sympy.expand(chord - numerator - (Y ** 2 - f(X)) - (b ** 2 - f(a))) == 0
        # tied at three pinned multiples: each step of the kernel is the law
        for k in (60, 90, 119):
            state = _twist_multiple(6, 24, k)
            at = dict(zip((m, n, s, a, b, g), state + (6, 24, 1)))
            for step, want in ((_twist_double(*state), double),
                               (_twist_add(*state, 6, 24), added)):
                mm, vn, ss = step
                assert sympy.Rational(mm, ss ** 2) == want[0].subs(at)
                assert sympy.Rational(vn, ss ** 3) == want[1].subs(at)

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
        # with l = (v - 2s)/(u - 1) the slope of the line to (1, 2s), y =
        # 1/(l - 2) and z = -1/(l + 2) on the curve: each differs from the
        # closed form by a multiple of the curve equation over its denominator
        import sympy

        from ceviangeo.curve import _rational_triple

        u, v = sympy.symbols("u v")
        curve = v ** 2 - u * (u ** 2 + 6 * u - 3)
        assert sympy.expand(v ** 2 - 4 * u ** 2 - u * (u - 1) * (u + 3) - curve) == 0
        y, z = (v + 2 * u) / (u * (u + 3)), (2 * u - v) / (u * (u + 3))
        forms = {1: lambda l: 1 / (l - 2), -1: lambda l: -1 / (l + 2)}
        for closed, s in ((y, 1), (z, -1)):
            form = forms[s]((v - 2 * s) / (u - 1))
            assert sympy.cancel((closed - form) * u * (u + 3) * (v - 2 * s * u) / curve) == s
        # the proportionality test: for u = (a0 + a1*r)/du, v = (b0 + b1*r)/dv
        # and r = sqrt(d), lam = b1*du/(a1*dv) matches the r parts of v - 2s
        # and lam*(u - 1), and the rational parts differ by the test over
        # a1*dv; so l is rational, and then lam, exactly when the test holds,
        # and the coordinate is s*a1*(dv/g)/(b1*(du/g) - 2s*a1*(dv/g))
        a0, a1, b0, b1, du_g, dv_g, g, r = sympy.symbols("a0 a1 b0 b1 du_g dv_g g r")
        du, dv = g * du_g, g * dv_g
        uu, vv = (a0 + a1 * r) / du, (b0 + b1 * r) / dv
        lam = b1 * du / (a1 * dv)
        for s in (1, -1):
            residual = sympy.expand(sympy.cancel((lam * (uu - 1) - (vv - 2 * s)) * a1 * dv))
            test = (b0 - 2 * s * dv) * a1 - b1 * (a0 - du)
            assert residual.coeff(r, 1) == 0 and sympy.expand(residual + test) == 0
            value = s * a1 * dv_g / (b1 * du_g - 2 * s * a1 * dv_g)
            assert sympy.cancel(forms[s](lam) - value) == 0
        # tied at three pinned points, one with T = O: the helper's rational
        # coordinate is the form in exact arithmetic, the integer test holds
        # for its sign only, and w_to_bary returns it
        for k, ti, index in ((2, 2, 1), (-3, 3, 2), (5, 0, 0)):
            w = k * GENERATOR + rational_torsion()[ti]
            value = _rational_triple(w.u, w.v)[index]
            uu, vv = (sympy.sympify(format_element(c)) for c in (w.u, w.v))
            s = (None, 1, -1)[index]
            form = forms[s]((vv - 2 * s) / (uu - 1)) if s else (uu - 1) / (uu + 3)
            assert value.is_rational()
            assert sympy.expand(sympy.radsimp(form)) == sympy.Rational(value.num[0], value.den)
            assert w_to_bary(w).coords[index] == value
            (a0, a1), du, (b0, b1), dv = w.u.num, w.u.den, w.v.num, w.v.den
            holds = [s for s in (1, -1) if (b0 - 2 * s * dv) * a1 == b1 * (a0 - du)]
            assert holds == ([], [1], [-1])[index]

    def test_symbolic_conjugate_pair(self):
        # on the cubic in absolute coordinates with y = r, x + z = 1 - r and
        # xz = -r(1-r)/(1+3r), and alike for each coordinate, the cubic being
        # symmetric; the discriminant of their quadratic, over Q at r = p/q,
        # is F1*F3/(q^2*F2), the form _rational_triple reads c off
        import sympy

        from ceviangeo.curve import _rational_triple

        x, r, p, q, t = sympy.symbols("x r p q t")
        z = 1 - r - x
        cubic = (x + r + z) * (x * r + r * z + z * x) + 3 * x * r * z
        quadratic = t ** 2 - (1 - r) * t - r * (1 - r) / (1 + 3 * r)
        assert sympy.cancel(cubic + (1 + 3 * r) * quadratic.subs(t, x)) == 0
        disc = sympy.discriminant(sympy.numer(sympy.together(quadratic)), t) / (1 + 3 * r) ** 2
        f1, f2 = q - p, q + 3 * p
        f3 = q ** 2 + 6 * p * q - 3 * p ** 2
        assert sympy.cancel(disc.subs(r, p / q) - f1 * f3 / (q ** 2 * f2)) == 0
        # the facts behind gcd(F1*F3, d*q^2*F2) | 48d
        assert sympy.expand(f3 - (f2 ** 2 - 12 * p ** 2)) == 0
        assert sympy.expand(f2 - f1 - 4 * p) == 0
        assert sympy.expand(f3 - q * (q + 6 * p) + 3 * p ** 2) == 0
        # tied at three pinned points, one with T = O: the two irrational
        # coordinates are the roots around the rational one, as w_to_bary
        # returns them
        for k, ti, index in ((60, 2, 1), (97, 3, 2), (119, 0, 0)):
            w = k * GENERATOR + rational_torsion()[ti]
            triple = _rational_triple(w.u, w.v)
            value = triple[index]
            rr = sympy.Rational(value.num[0], value.den)
            pair = triple[:index] + triple[index + 1:]
            for root in pair:
                assert not root.is_rational()
                xx = sympy.sympify(format_element(root))
                assert sympy.expand(quadratic.subs({r: rr, t: xx})) == 0
            assert w_to_bary(w).coords == triple

    def test_symbolic_root_sign(self):
        # where y or z is r: x = (u-1)/(u+3) has the sqrt(d) part
        # 4*a1*du/((a0 + 3du)^2 - d*a1^2), which is 4*a1/(du*N(u+3)); and
        # (1-x)(1-x') = 16/N(u+3) is 4r^2/(1+3r) on the cubic, so the sign is
        # that of a1*(1 + 3r)
        import sympy

        from ceviangeo.curve import _rational_triple

        a0, a1, du, sd, r = sympy.symbols("a0 a1 du sd r")
        u, ubar = (a0 + a1 * sd) / du, (a0 - a1 * sd) / du
        t0 = a0 + 3 * du
        norm = (t0 ** 2 - sd ** 2 * a1 ** 2) / du ** 2
        x = (u - 1) / (u + 3)
        split = 1 - 4 * du * t0 / (du ** 2 * norm) + 4 * a1 / (du * norm) * sd
        assert sympy.cancel(x - split) == 0
        assert sympy.cancel((u + 3) * (ubar + 3) - norm) == 0
        xx_sum, xx_product = 1 - r, -r * (1 - r) / (1 + 3 * r)
        assert sympy.cancel(1 - xx_sum + xx_product - 4 * r ** 2 / (1 + 3 * r)) == 0
        assert sympy.cancel((4 / (u + 3)) * (4 / (ubar + 3)) - 16 / norm) == 0
        # where x is r, u is rational and v = b1*sqrt(d)/dv: y = (v+2u)/(u(u+3))
        # has the sqrt(d) part b1/(dv*u(u+3)), and u(u+3) is (u+3)^2/4 times
        # 1 + 3x = 4u/(u+3), so the sign is that of b1*(1 + 3x)
        uq, b1, dv = sympy.symbols("uq b1 dv")
        y = (b1 * sd / dv + 2 * uq) / (uq * (uq + 3))
        assert sympy.cancel(sympy.expand(y).coeff(sd, 1) - b1 / (dv * uq * (uq + 3))) == 0
        xq = (uq - 1) / (uq + 3)
        assert sympy.cancel(1 + 3 * xq - 4 * uq / (uq + 3)) == 0
        assert sympy.cancel(uq * (uq + 3) - (uq + 3) ** 2 * (1 + 3 * xq) / 4) == 0
        # tied at three pinned points of each case, against the norm and
        # u(u+3) in exact integers
        for k, ti in ((61, 2), (88, 4), (118, 3)):
            w = k * GENERATOR + rational_torsion()[ti]
            triple = _rational_triple(w.u, w.v)
            x_el, value = triple[0], triple[1 if ti in (2, 4) else 2]
            (b0, b1), bd = w.u.num, w.u.den
            exact_norm = (b0 + 3 * bd) ** 2 - 2 * b1 * b1
            sign = 1 if (b1 > 0) == (exact_norm > 0) else -1
            assert (x_el.num[1] > 0) == (sign > 0)
            assert (exact_norm > 0) == (value.den + 3 * value.num[0] > 0)
        for k, ti in ((1, 0), (64, 1), (-101, 0)):
            w = k * GENERATOR + rational_torsion()[ti]
            value, y_el, _ = _rational_triple(w.u, w.v)
            a, ad, vb = w.u.num[0], w.u.den, w.v.num[1]
            assert value.is_rational() and w.u.is_rational() and not w.v.num[0]
            assert (y_el.num[1] > 0) == (vb * a * (a + 3 * ad) > 0)
            assert (a * (a + 3 * ad) > 0) == (value.den + 3 * value.num[0] > 0)

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
        assert classify_transfer(pts[0]).kind == "translation"

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
