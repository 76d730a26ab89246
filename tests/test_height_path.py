"""The height-aware curve path: generator multiples on the quadratic twist,
unchecked group-law results and integral coordinates for the zero tests.

Each change keeps outputs identical, so these tests compare the fast route
with the generic one on the curve itself, exactly (tower, numerators and
denominator), and with the unscaled formulas on the points the benchmark
pins in perfbench/data/expected.json (only read here).
"""

import hashlib
import json
import time
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
    on_translation_locus,
    rational_torsion,
    sample_translation_points,
    torsion_points,
    translation_cubic,
    w_to_bary,
)
from ceviangeo.field import FieldElement
from ceviangeo.maps import classify_transfer
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
    return curve_mod._wpoint(curve_mod._chord_tangent(
        curve_mod._A2, curve_mod._A4, (p.u, p.v), (q.u, q.v)))


@pytest.fixture
def chord_calls(monkeypatch):
    """The argument pairs of every _chord_tangent call on the curve itself."""
    calls = []
    chord = curve_mod._chord_tangent

    def counting(a2, a4, p, q):
        if a2 is curve_mod._A2:
            calls.append((p, q))
        return chord(a2, a4, p, q)

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


class TestSlopeForm:
    def test_depth_one_points_equal_the_chain_exactly(self):
        torsion = rational_torsion()
        points = [k * GENERATOR + torsion[ti] for k, ti in PINNED[::9] if ti >= 2]
        points += [k * GENERATOR + t for k in (1, -2, 3) for t in torsion[2:]]
        assert len(points) > 40
        for w in points:
            assert not w.u.is_rational()
            got, want = w_to_bary(w), nf_to_bary(w_to_nf(w))
            assert [(c.tower, c.num, c.den) for c in got.coords] == [
                (c.tower, c.num, c.den) for c in want.coords]

    def test_sqrt3_torsion_points_equal_the_chain_exactly(self):
        for w in torsion_points()[6:]:
            got, want = w_to_bary(w), nf_to_bary(w_to_nf(w))
            assert [(c.tower, c.num, c.den) for c in got.coords] == [
                (c.tower, c.num, c.den) for c in want.coords]


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
