"""The height-aware curve path: generator multiples on the quadratic twist
in weighted integers, unchecked group-law results, w_to_bary's rational
triple, the height law, and integral coordinates for the zero tests.

Each change keeps outputs identical, so these tests compare the fast route
with the generic one on the curve itself, exactly (tower, numerators and
denominator), and with the unscaled formulas on the points the benchmark
pins in perfbench/data/expected.json (only read here).
"""

import hashlib
import json
import time
from math import gcd, isqrt
from pathlib import Path

import pytest

import ceviangeo.curve as curve_mod
import ceviangeo.verify as verify_mod
from ceviangeo.cli import main
from ceviangeo.curve import (
    GENERATOR,
    MULTIPLE_BOUND,
    WPoint,
    chord_tangent_multiple,
    rational_torsion,
    sample_translation_points,
    torsion_points,
    w_to_bary,
)
from ceviangeo.field import ZERO, FieldElement, fe
from ceviangeo.maps import (classify_transfer, on_translation_locus, transfer_center_coords,
                            translation_cubic)
from ceviangeo.plane import BaryPoint, _integral, point, point_to_literal
from ceviangeo.verify import nf_to_bary, run_suite, w_to_nf

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "expected.json").read_text()
)


def exact(w: WPoint):
    if w.is_infinity():
        return None
    return tuple((c.tower, c.num, c.den) for c in (w.u, w.v))


class TestTwistRoute:
    def test_multiples_equal_the_chord_tangent_route_exactly(self):
        # |k| = 1 included: there u stays on the rational tower ()
        for k in range(-130, 131):
            assert exact(k * GENERATOR) == exact(chord_tangent_multiple(GENERATOR, k)), k

    def test_other_points_take_the_chord_tangent_route(self):
        # a depth-1 u and a rational v: not on the twist image
        for t in rational_torsion() + [GENERATOR + rational_torsion()[2]]:
            for k in (2, 3, 7):
                assert exact(k * t) == exact(chord_tangent_multiple(t, k))

    def test_a_non_integral_twist_base_takes_the_chord_tangent_route(self):
        # 3G is on the twist image at U = 54/25, not an integral point: s != 1
        base = 3 * GENERATOR
        assert curve_mod._weighted(base) == (54, -792, 5)
        for k in (2, 3, 5, 8, -4):
            assert exact(k * base) == exact(chord_tangent_multiple(base, k)), k
            assert exact(k * base) == exact((3 * k) * GENERATOR), k

    def test_every_integral_base_takes_the_kernel(self):
        # +-G' = (6, +-24) and 2G' = (1, 1), each with s = 1: the kernel and
        # its one lift
        assert curve_mod._weighted(GENERATOR) == (6, 24, 1)
        assert curve_mod._weighted(-GENERATOR) == (6, -24, 1)
        assert curve_mod._weighted(2 * GENERATOR) == (1, 1, 1)
        for k in (2, 3, 6, 11, -7):
            assert exact(k * (2 * GENERATOR)) == exact((2 * k) * GENERATOR), k
            assert exact(k * (2 * GENERATOR)) == exact(
                chord_tangent_multiple(2 * GENERATOR, k)), k

    @pytest.mark.parametrize("seed,want", [
        (0, "3101c554f4964ddc"),
        (1, "86cd34f6fca59fb5"),
        (5, "6ba397922e281223"),
        (9, "c778ba2863bda924"),
        (42, "42fb3478183f0362"),
    ])
    def test_sampled_translation_points_unchanged(self, seed, want):
        pts = sample_translation_points(6, seed=seed)
        text = " ".join(point_to_literal(p) for p in pts)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


class TestWeightedReader:
    def test_the_lift_inverts_the_reader(self):
        # the points k*P and the translations build: _weighted reads each in
        # lowest terms with s > 0, and _from_twist gives it back exactly,
        # except that +-G is given with u = 3 on the rational tower ()
        third, two_torsion = 3 * GENERATOR, rational_torsion()[1]
        for k in [k for k in range(-40, 41) if k]:
            for p in (k * GENERATOR, k * third, k * GENERATOR + two_torsion):
                m, n, s = curve_mod._weighted(p)
                assert s > 0 and gcd(m, s) == 1 and gcd(n, s) == 1, k
                back = curve_mod._from_twist((m, n, s))
                if p.u.tower:
                    assert exact(back) == exact(p), k
                else:
                    assert abs(k) == 1 and back == p

    def test_points_off_the_twist_image_are_not_read(self):
        # the twelve torsion points: infinity, five with rational v and six
        # over the tower with sqrt(3); and G + (1, 2), whose u is on the
        # tower with sqrt(2) but not rational
        others = torsion_points() + [GENERATOR + rational_torsion()[2]]
        assert len(others) == 13 and not others[-1].u.is_rational()
        for p in others:
            assert curve_mod._weighted(p) is None, p


def test_generator_multiple_builds_no_checked_point_and_no_depth_one_product(monkeypatch):
    checked, products = [], []
    init, mul = WPoint.__init__, FieldElement.__mul__

    def counting_init(self, u, v):
        checked.append((u, v))
        init(self, u, v)

    def counting_mul(self, other):
        result = mul(self, other)
        if isinstance(result, FieldElement) and len(result.tower) == 1:
            products.append(result)
        return result

    monkeypatch.setattr(WPoint, "__init__", counting_init)
    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    monkeypatch.setattr(FieldElement, "__rmul__", counting_mul)
    119 * GENERATOR
    assert checked == [] and products == []
    # the counters see the generic route and the public constructor
    chord_tangent_multiple(GENERATOR, 5)
    WPoint.of(0, 0)
    assert products and checked


class TestBrokenLift:
    NAMES = ("generator multiples lie on the curve",
             "twist multiples equal chord-tangent multiples up to 24")

    def results(self):
        report = run_suite("curve", seed=0, n=2)
        return {r.name: r.passed for r in report.results if r.name in self.NAMES}

    def test_entries_pass(self):
        assert self.results() == dict.fromkeys(self.NAMES, True)

    def test_sign_of_v(self, monkeypatch):
        lift = curve_mod._from_twist
        monkeypatch.setattr(curve_mod, "_from_twist", lambda c: -lift(c))
        # -kG is on the curve, so only the cross-check sees the flip
        assert self.results() == {self.NAMES[0]: True, self.NAMES[1]: False}

    def test_factor_of_u(self, monkeypatch):
        lift = curve_mod._from_twist

        def lift_without_half(coords):
            w = lift(coords)
            return curve_mod._wpoint((w.u * 2, w.v))

        monkeypatch.setattr(curve_mod, "_from_twist", lift_without_half)
        # the point is off the curve; it cannot equal the chord-tangent
        # multiple either, so the cross-check fails with it
        assert self.results() == {self.NAMES[0]: False, self.NAMES[1]: False}


def reference_classification(p: BaryPoint):
    """kind, ratio and center from the formulas on the unscaled coordinates."""
    x, y, z = p.coords
    s = BaryPoint(x * (y + z) ** 2, y * (x + z) ** 2, z * (x + y) ** 2)
    if s.is_infinite():
        return "translation", None, s
    return "homothety", -4 * x * y * z / ((x + y) * (x + z) * (y + z)), s


def forms(p: BaryPoint):
    """p as given, in absolute coordinates and scaled to integral ones."""
    scaled = _integral(p)
    assert scaled == p and all(c.den == 1 for c in scaled.coords)
    return p, BaryPoint(*p.normalized()), scaled


def assert_zero_tests_agree(p: BaryPoint):
    on_locus = translation_cubic(p).is_zero()
    kind, ratio, center = reference_classification(p)
    for q in forms(p):
        assert on_translation_locus(q) == on_locus
        cls = classify_transfer(q)
        assert (cls.kind, cls.ratio) == (kind, ratio)
        assert cls.center == center


COMPUTE_LITERALS = [lit for pool in EXPECTED["compute"].values() for lit, _ in pool]


def test_zero_tests_agree_on_the_pinned_literals():
    assert len(COMPUTE_LITERALS) == 409
    for lit in COMPUTE_LITERALS:
        assert_zero_tests_agree(point(lit))


@pytest.mark.parametrize("k,ti", [tuple(item) for item in EXPECTED["curve"]["by_cost"][::12]])
def test_zero_tests_agree_on_curve_points(k, ti):
    p = w_to_bary(k * GENERATOR + rational_torsion()[ti])
    assert on_translation_locus(p)
    assert_zero_tests_agree(p)


def test_cubic_is_the_center_sum_exactly():
    # translation_cubic's symmetric form against the center's coordinate
    # sum, as (tower, num, den); tests/test_curve.py proves the identity
    points = [point(lit) for lit in COMPUTE_LITERALS]
    points += [w_to_bary(k * GENERATOR + rational_torsion()[ti])
               for k, ti in EXPECTED["curve"]["by_cost"][::12]]
    for p in points:
        got, want = translation_cubic(p), sum(transfer_center_coords(p), ZERO)
        assert (got.tower, got.num, got.den) == (want.tower, want.num, want.den), p


@pytest.fixture
def operators(monkeypatch):
    """Calls of FieldElement's inverse, products and powers, by name."""
    counts = {}
    for name in ("inverse", "__mul__", "__rmul__", "__pow__"):
        def counting(self, *args, name=name, true=getattr(FieldElement, name)):
            counts[name] = counts.get(name, 0) + 1
            return true(self, *args)

        monkeypatch.setattr(FieldElement, name, counting)
    return counts


def products(counts):
    return counts.get("__mul__", 0) + counts.get("__rmul__", 0)


def test_w_to_bary_forms_one_coordinate_by_a_product(operators):
    # off the limit table: a rational x, y or z and its conjugate pair come
    # from integers, with no inverse and no product; elsewhere the inverses of
    # u + 3 and of u, the scale 4i of x = 1 - 4i, the slope and
    # y = (v/u + 2)i take two inverses and three products
    torsion = rational_torsion()
    points = [k * GENERATOR + t for k in (1, -2, 60, -119) for t in torsion]
    points += torsion_points()[6:]
    rational = 0
    for w in points:
        operators.clear()
        w_to_bary(w)
        counts = (operators.get("inverse"), products(operators), operators.get("__pow__"))
        if curve_mod._rational_triple(w.u, w.v) is None:
            assert counts == (2, 3, None), w
        else:
            assert counts == (None, 0, None), w
            rational += 1
    # every k*G + T; only the sqrt(3) torsion points take the slope form
    assert rational == 24


def test_translation_cubic_takes_five_products(operators):
    points = [point(lit) for lit in COMPUTE_LITERALS[::40]]
    points += [w_to_bary(k * GENERATOR + t) for k in (3, -60) for t in rational_torsion()[1:]]
    for p in points:
        operators.clear()
        translation_cubic(p)
        assert (products(operators), operators.get("__pow__"), operators.get("inverse")) == (
            5, None, None)


class TestMultipleBound:
    def test_bound_is_the_largest_printable_multiple(self, capsys):
        assert main(["curve", "multiple", "--k", str(-MULTIPLE_BOUND)]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == -MULTIPLE_BOUND

    @pytest.mark.parametrize("k", [MULTIPLE_BOUND + 1, -MULTIPLE_BOUND - 1, 100000])
    def test_larger_multiples_refused_fast(self, k, capsys):
        start = time.perf_counter()
        code = main(["curve", "multiple", "--k", str(k)])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "exceeds" in captured.err

    def test_library_multiples_are_not_bounded(self):
        with pytest.raises(curve_mod.MultipleTooLarge):
            curve_mod.generator_multiple(MULTIPLE_BOUND + 1)
        assert (MULTIPLE_BOUND + 2) * GENERATOR == chord_tangent_multiple(
            GENERATOR, MULTIPLE_BOUND + 2)


PINNED = [tuple(item) for item in EXPECTED["curve"]["by_cost"]]


def generic_sum(p: WPoint, q: WPoint) -> WPoint:
    return curve_mod._wpoint(curve_mod._chord_tangent((p.u, p.v), (q.u, q.v)))


@pytest.fixture
def chord_calls(monkeypatch):
    """The argument pairs of every _chord_tangent call."""
    calls = []
    chord = curve_mod._chord_tangent

    def counting(p, q):
        calls.append((p, q))
        return chord(p, q)

    monkeypatch.setattr(curve_mod, "_chord_tangent", counting)
    return calls


class TestTorsionTranslation:
    def test_pinned_sums_equal_the_generic_chord_exactly(self):
        # the T = O inputs are excluded from the fast path by definition
        torsion = rational_torsion()
        assert len(PINNED) == 360
        multiples = {k: k * GENERATOR for k in {k for k, _ in PINNED}}
        checked = 0
        for k, ti in PINNED:
            t = torsion[ti]
            if t.is_infinity():
                continue
            for p in (multiples[k], -multiples[k]):
                want = exact(generic_sum(p, t))
                assert exact(p + t) == want, (k, ti)
                assert exact(t + p) == want, (k, ti)
                checked += 1
        assert checked == 600

    def test_generic_chord_is_exact_in_either_order(self):
        # so one generic reference serves both operand orders above
        torsion = rational_torsion()
        for k, ti in PINNED[::24]:
            if ti == 0:
                continue
            p = k * GENERATOR
            assert exact(generic_sum(p, torsion[ti])) == exact(generic_sum(torsion[ti], p))

    @pytest.mark.parametrize("k", [1, -1, 2, -5, 13])
    def test_small_multiples_take_the_closed_form(self, k, chord_calls):
        # |k| = 1 keeps u on the rational tower (); the sum is on (2,)
        p = k * GENERATOR
        chord_calls.clear()
        sums = [(p + t, t + p) for t in rational_torsion()[1:]]
        assert chord_calls == []
        for (left, right), t in zip(sums, rational_torsion()[1:]):
            assert exact(left) == exact(right) == exact(generic_sum(p, t))
            assert left.u.tower == left.v.tower == (2,)

    def test_sums_off_the_fast_path_take_the_chord(self, chord_calls):
        torsion = torsion_points()
        cases = [
            (torsion[2], torsion[4]),  # torsion plus torsion
            (torsion[1], torsion[5]),
            (GENERATOR, torsion[6]),  # sqrt(3) torsion points
            (torsion[8], 3 * GENERATOR),
            # two points off the twist image: a depth-1 u
            (GENERATOR + torsion[2], 2 * GENERATOR + torsion[3]),
            (GENERATOR + torsion[2], torsion[1]),
            # a twist-image point plus a twist-image point
            (GENERATOR, 2 * GENERATOR),
        ]
        for p, q in cases:
            chord_calls.clear()
            s = p + q
            assert len(chord_calls) == 1
            assert exact(s) == exact(generic_sum(p, q))


def exact_coords(p: BaryPoint):
    return [(c.tower, c.num, c.den) for c in p.coords]


def rational_index(w: WPoint):
    """The index of the rational coordinate that ``_rational_triple`` reads
    at w, or None where w_to_bary takes the slope form."""
    triple = curve_mod._rational_triple(w.u, w.v)
    return None if triple is None else [c.is_rational() for c in triple].index(True)


class TestSlopeForm:
    def test_depth_one_points_equal_the_chain_exactly(self):
        # x, y and z read off integers; the slope form is the next test's
        torsion = rational_torsion()
        points = [k * GENERATOR + torsion[ti] for k, ti in PINNED[::9]]
        points += [k * GENERATOR + t for k in (1, -2, 3) for t in torsion]
        branches = set()
        for w in points:
            branches.add(rational_index(w))
            assert exact_coords(w_to_bary(w)) == exact_coords(nf_to_bary(w_to_nf(w)))
        assert branches == {0, 1, 2}
        assert len(points) > 50

    def test_sqrt3_torsion_points_equal_the_chain_exactly(self):
        for w in torsion_points()[6:]:
            assert exact_coords(w_to_bary(w)) == exact_coords(nf_to_bary(w_to_nf(w)))


def inverse_form(w: WPoint) -> BaryPoint:
    """w_to_bary before the conjugate pair: (1 - 4i, y, 4i - y) through
    i = 1/(u+3) and y = (v/u + 2)i off the limit table."""
    for wp, bary in curve_mod._TORSION_BARY_LIMITS:
        if w == wp:
            return bary
    inv = (w.u + 3).inverse()
    y = (w.v * w.u.inverse() + 2) * inv
    return BaryPoint(1 - 4 * inv, y, 4 * inv - y)


class TestConjugatePair:
    def test_w_to_bary_equals_the_inverse_form_exactly(self):
        torsion = rational_torsion()
        points = [k * GENERATOR + torsion[ti] for k, ti in PINNED]
        points += torsion_points()
        points += [k * GENERATOR + t for k in range(-40, 41) for t in torsion]
        limits = [wp for wp, _ in curve_mod._TORSION_BARY_LIMITS]
        branches = {}
        for w in points:
            if w in limits:
                branch = "limit table"
            else:
                index = rational_index(w)
                branch = "slope form" if index is None else "xyz"[index]
            branches[branch] = branches.get(branch, 0) + 1
            assert exact_coords(w_to_bary(w)) == exact_coords(inverse_form(w)), w
        # at k != 0, x is rational for T = O, (0, 0), y for (1, 2), (-3, 6)
        # and z for (1, -2), (-3, -6); (1, +-2) themselves and the sqrt(3)
        # points take the slope form
        assert branches == {"x": 280, "y": 280, "z": 280, "slope form": 10, "limit table": 8}

    def test_the_gcd_divides_48d_and_both_roots_are_exact(self):
        torsion = rational_torsion()
        seen = {pair_gcd(k * GENERATOR + torsion[ti]) for k, ti in PINNED}
        assert seen == {4, 8, 12, 48}


def pair_gcd(w: WPoint) -> int:
    """G = gcd(F1*F3, d*q^2*F2) for the rational coordinate p/q of
    w_to_bary(w), checked to divide 48d, to equal gcd(F1*F3, d*F2) and to
    leave both square roots of the conjugate pair exact."""
    (d,), r = w.v.tower, w_to_bary(w).coords[rational_index(w)]
    p, q = r.num[0], r.den
    f1, f2 = q - p, q + 3 * p
    f13 = f1 * (f2 * f2 - 12 * p * p)
    g = gcd(f13, d * q * q * f2)
    assert 48 * d % g == 0 and g == gcd(f13, d * f2), w
    c1, e = isqrt(abs(f13) // g), isqrt(d * abs(f2) // g)
    assert c1 * c1 * g == abs(f13) and e * e * g == d * abs(f2), w
    return g


def conjugate(w: WPoint) -> WPoint:
    """w with sqrt(d) negated, for w over Q or over one depth-1 tower."""
    return WPoint(*(c if c.is_rational() else FieldElement(c.tower, (c.coeffs[0], -c.coeffs[1]))
                    for c in (w.u, w.v)))


class TestThreeTorsion:
    # for w over Q(sqrt(d)) but not over Q, the line through w and its
    # conjugate w' is rational and meets the curve again at -(w + w'), a
    # point of E(Q); a coordinate of w_to_bary(w) is rational exactly when
    # w + w' is O, (1, -2) or (1, 2), and it is x, y or z.  Conjugating
    # sqrt(2) negates k*G, so w = k*G + T has w + w' = 2T
    def test_w_plus_its_conjugate_names_the_rational_coordinate(self):
        torsion = rational_torsion()
        names = ((torsion[0], 0), (torsion[3], 1), (torsion[2], 2))
        counts = {}
        for k in (*range(-40, 0), *range(1, 41)):
            for t in torsion:
                w = k * GENERATOR + t
                total = w + conjugate(w)
                assert total == 2 * t, (k, t)
                index = rational_index(w)
                assert [i for s, i in names if s == total] == [index], (k, t)
                counts[index] = counts.get(index, 0) + 1
        assert counts == {0: 160, 1: 160, 2: 160}


# points of infinite order over Q(sqrt(7)) and Q(sqrt(26)), with their
# multiples k taken by the chord-tangent law
OTHER_TOWERS = (
    (WPoint(fe("-12/7"), fe("78/49") * FieldElement.root(7)), (1, -2, 3)),
    (WPoint(fe(2), FieldElement.root(26)), (1, 2, -3, 4)),
)


class TestOtherTowers:
    def test_w_to_bary_equals_the_inverse_form_exactly(self):
        # every rational index, the x-rational root sign, and G reaching
        # d's primes in the modulus 48d: 336 = 48*7, 208 = 8*26, 312 = 12*26
        indices, seen = set(), set()
        for base, ks in OTHER_TOWERS:
            (d,) = base.v.tower
            for k in ks:
                for t in rational_torsion():
                    w = k * base + t
                    assert exact_coords(w_to_bary(w)) == exact_coords(inverse_form(w)), (d, k, t)
                    assert w + conjugate(w) == 2 * t, (d, k, t)
                    indices.add(rational_index(w))
                    seen.add((d, pair_gcd(w)))
        assert indices == {0, 1, 2}
        assert seen == {(7, 4), (7, 28), (7, 48), (7, 336),
                        (26, 48), (26, 104), (26, 208), (26, 312)}


def twist_steps(k: int):
    """The kernel's steps for k*G', each with its input and output."""
    a, b, _ = curve_mod._weighted(GENERATOR)
    state, steps = (a, b, 1), []
    for bit in bin(k)[3:]:
        out = curve_mod._twist_double(*state)
        steps.append(("double", state, out))
        state = out
        if bit == "1":
            out = curve_mod._twist_add(*state, a, b)
            steps.append(("add", state, out))
            state = out
    return steps


class TestTwistKernel:
    def test_doubling_cancels_only_twos_and_threes(self):
        # the factor that a doubling strips is 2ns over the new s, and both
        # steps leave (m, n, s) in lowest terms
        ks = sorted({k for k, _ in PINNED})
        factors = set()
        for k in ks:
            for kind, (m, n, s), (m2, n2, s2) in twist_steps(k):
                assert s2 > 0 and gcd(m2, s2) == 1, (k, kind)
                if kind == "double":
                    factor, rest = divmod(2 * abs(n) * s, s2)
                    assert rest == 0, k
                    factors.add(factor)
        # measured: a doubling strips 2^4 * 3 or nothing
        assert len(ks) == 60 and factors == {1, 48}


class TestHeightLaw:
    def test_heights_of_generator_multiples_follow_the_law(self):
        # the largest integer of u has 0.4712*k^2 bits and that of v
        # 0.7068*k^2, each to within 4 bits (2.7 and 3.3 at worst); a kernel
        # that stops reducing its weighted coordinates leaves the law
        for k in range(1, MULTIPLE_BOUND + 1):
            w = k * GENERATOR
            u_bits = max(abs(w.u.num[0]), w.u.den).bit_length()
            v_bits = max(abs(w.v.num[-1]), w.v.den).bit_length()
            assert abs(u_bits - 0.4712 * k * k) <= 4, k
            assert abs(v_bits - 0.7068 * k * k) <= 4, k


class TestRationalCoordinate:
    # index of the rational coordinate of w_to_bary(k*G + T), by T's index in
    # rational_torsion(): x at rational u (T = O, (0, 0)), y at (1, 2) and
    # (-3, 6), z at (1, -2) and (-3, -6)
    BRANCH = (0, 0, 1, 2, 1, 2)

    def test_pinned_pairs_take_the_branch_of_their_torsion(self):
        torsion = rational_torsion()
        taken = {}
        for k, ti in PINNED:
            w = k * GENERATOR + torsion[ti]
            index = rational_index(w)
            assert index == self.BRANCH[ti], (k, ti)
            assert w.u.is_rational() == (index == 0), (k, ti)
            value = curve_mod._rational_triple(w.u, w.v)[index]
            got = w_to_bary(w).coords[index]
            assert value.is_rational()
            assert (value.tower, value.num, value.den) == (got.tower, got.num, got.den)
            taken[ti] = taken.get(ti, 0) + 1
        assert taken == {ti: 60 for ti in range(6)}

    def test_sqrt3_torsion_points_take_the_slope_form(self):
        # (3 +- 2sqrt(3), 12 +- 6sqrt(3)) have no rational coordinate, and
        # (-3 +- 2sqrt(3), 0) has v on the rational tower
        for w in torsion_points()[6:]:
            assert not w.u.is_rational()
            assert curve_mod._rational_triple(w.u, w.v) is None
            assert not any(c.is_rational() for c in w_to_bary(w).coords[1:])


class TestTorsionEntries:
    NAMES = ("torsion translations equal the chord-tangent sum",
             "rational torsion acts by the triangle's symmetries")

    def failed(self, seed=0):
        report = run_suite("curve", seed=seed, n=2)
        names = [r.name for r in report.results]
        assert all(name in names for name in self.NAMES)
        return [r.name for r in report.results if not r.passed]

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_entries_pass(self, seed):
        assert self.failed(seed) == []

    @pytest.mark.parametrize("index,symmetry", [
        (2, (False, (1, 2, 0))),  # (1, 2) given the order of (1, -2)
        (5, (True, (2, 0, 1))),  # (-3, -6) given the order of (-3, 6)
        (1, (False, (0, 1, 2))),  # (0, 0) without the isotomic conjugation
    ])
    def test_a_wrong_symmetry_fails_exactly_its_entry(self, index, symmetry, monkeypatch):
        table = list(verify_mod._TORSION_SYMMETRIES)
        table[index] = symmetry
        monkeypatch.setattr(verify_mod, "_TORSION_SYMMETRIES", tuple(table))
        assert self.failed() == [self.NAMES[1]]

    def test_a_wrong_negation_fails_exactly_the_symmetry_entry(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "_NEGATION_SYMMETRY", (False, (0, 1, 2)))
        assert self.failed() == [self.NAMES[1]]

    def test_a_wrong_sign_fails_the_cross_check(self, monkeypatch):
        translate = curve_mod._translate

        def other_sign(p, t):
            # the closed form for -t in place of t: p - t is a curve point
            # too, so only the comparisons can see the flipped sign
            s = translate(p, t)
            return s if s is None or t.v.is_zero() else translate(p, -t)

        monkeypatch.setattr(curve_mod, "_translate", other_sign)
        failed = self.failed()
        assert self.NAMES[0] in failed
        assert "generator multiples lie on the curve" not in failed
