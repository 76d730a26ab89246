import pytest

from ceviangeo.curve import SampleTooLarge
from ceviangeo.verify import (
    SUITES,
    SuiteReport,
    random_valid_points,
    run_all,
    run_suite,
)


class TestPlumbing:
    def test_check_records_exception_as_failure(self):
        report = SuiteReport("demo")
        report.check("boom", lambda: 1 / 0)
        assert not report.passed
        assert "ZeroDivisionError" in report.results[0].detail

    def test_report_dict(self):
        report = SuiteReport("demo")
        report.add("ok", True)
        data = report.to_dict()
        assert data == {
            "suite": "demo",
            "passed": True,
            "results": [{"name": "ok", "passed": True}],
        }

    def test_repeated_names_get_a_suffix(self):
        report = SuiteReport("demo")
        for passed in (True, False, True):
            report.add("x", passed)
        report.add("x (2)", True)
        assert [r.name for r in report.results] == ["x", "x (2)", "x (3)", "x (2) (2)"]

    def test_suite_that_raises_is_one_failing_entry(self, monkeypatch):
        def broken(seed, n=0):
            raise ZeroDivisionError("injected")

        monkeypatch.setitem(SUITES, "curve", broken)
        report = run_suite("curve", n=2)
        assert report.to_dict() == {"suite": "curve", "passed": False, "results": [
            {"name": "suite ran to completion", "passed": False,
             "detail": "ZeroDivisionError: injected"}]}

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nope")

    def test_sampler_deterministic_and_valid(self):
        from ceviangeo.maps import is_valid_point

        a = random_valid_points(5, seed=3)
        b = random_valid_points(5, seed=3)
        assert all(x == y for x, y in zip(a, b))
        assert all(is_valid_point(p, off_medians=True) for p in a)

    def test_off_locus_filter(self):
        from ceviangeo.curve import on_translation_locus

        pts = random_valid_points(5, seed=4, off_locus=True)
        assert all(not on_translation_locus(p) for p in pts)


class TestSuitesPass:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_passes_fast(self, name):
        report = run_suite(name, seed=1, n=4)
        failures = [r for r in report.results if not r.passed]
        assert report.passed, failures

    def test_run_all_alternate_seed(self):
        reports = run_all(seed=2, n=3)
        assert all(r.passed for r in reports)


def test_hyperbola_check_can_fail(monkeypatch):
    import ceviangeo.verify as verify_mod

    def results():
        return {r.name: r.passed for r in run_suite("construction").results}

    assert results()["frame conic is a hyperbola"]
    monkeypatch.setattr(verify_mod, "affine_type", lambda conic: "ellipse")
    assert not results()["frame conic is a hyperbola"]


CROSS_CHECK_SWAPS = (
    (0, "h", "o"),
    (1, "o", "h"),
    (2, "circumconic", "inconic"),
    (3, "inconic", "circumconic"),
    (4, "cevian_conic", "circumconic"),
    (5, "transfer", "t_p"),
)


@pytest.mark.parametrize("index,member,source", CROSS_CHECK_SWAPS)
def test_construction_profile_entry_can_fail(index, member, source):
    from ceviangeo.maps import derive_configuration
    from ceviangeo.plane import point
    from ceviangeo.verify import construction_profile

    cfg = derive_configuration(point([1, 2, 3]))
    assert construction_profile(cfg) == (True,) * 6
    broken = construction_profile(cfg._replace(**{member: getattr(cfg, source)}))
    assert broken == tuple(i != index for i in range(6))


# one swap per frame identity; each moves members that only that identity
# reads, or moves them where the other identities still hold: q and q_iso
# stay on the conic, e and q_iso stand in for each other on one side of the
# diagonal u v, the secant ends h and p still have midpoint z and lie on
# either side of it, and z lies on it as v does
FRAME_SWAPS = (
    (0, {"z": "g"}),
    (1, {"v": "z"}),
    (2, {"q": "e"}),
    (3, {"q_iso": "e"}),
    (4, {"o": "g"}),
    (5, {"g": "z", "e": "h", "f": "p"}),
    (6, {"e": "q_iso"}),
    (7, {"p_iso": "z"}),
    (8, {"e": "f", "f": "e"}),
)


@pytest.fixture(scope="module")
def frame():
    from ceviangeo.locus import canonical_frame

    return canonical_frame()


@pytest.mark.parametrize("index,swap", FRAME_SWAPS)
def test_frame_profile_entry_can_fail(frame, index, swap):
    from ceviangeo.verify import frame_profile

    assert frame_profile(frame) == (True,) * 9
    broken = frame_profile(frame._replace(**{m: getattr(frame, s) for m, s in swap.items()}))
    assert broken == tuple(i != index for i in range(9))


def test_frame_identities_entry_can_fail(monkeypatch):
    import ceviangeo.locus as locus_mod

    canonical = locus_mod.canonical_frame
    monkeypatch.setattr(locus_mod, "canonical_frame",
                        lambda: canonical()._replace(q=canonical().e))
    results = run_suite("construction", seed=0, n=1).results
    assert [r.name for r in results[:2]] == ["canonical frame construction", "frame identities"]
    entry = results[1]
    assert not entry.passed and entry.detail == repr(tuple(i != 2 for i in range(9)))


def test_translation_cross_check_entries_can_fail(monkeypatch):
    import ceviangeo.verify as verify_mod

    derive = verify_mod.derive_configuration
    monkeypatch.setattr(
        verify_mod,
        "derive_configuration",
        lambda p: derive(p)._replace(circumconic=derive(p).inconic),
    )
    results = run_suite("translation", seed=0, n=2).results
    cross = [r for r in results if r.name.startswith("constructions ")]
    assert len(cross) == 4
    # an on-locus entry's detail goes on with " at <point>"
    want = repr((True, True, False, True, True, True))
    assert all(not r.passed and r.detail.partition(" at ")[0] == want for r in cross)


def test_translation_entries_fail_on_a_non_scalar_transfer(monkeypatch):
    import ceviangeo.verify as verify_mod

    # the cevian map of p is neither a homothety nor a translation, so
    # classifying it raises NotHomothetyOrTranslation inside each entry
    derive = verify_mod.derive_configuration
    monkeypatch.setattr(
        verify_mod,
        "derive_configuration",
        lambda p: derive(p)._replace(transfer=derive(p).t_p),
    )
    results = run_suite("translation", seed=0, n=2).results
    entries = [r for r in results if r.name.startswith(("on-locus ", "off-locus "))]
    assert len(entries) == 4
    assert all(not r.passed and r.detail.startswith("NotHomothetyOrTranslation")
               for r in entries)


def test_translation_entry_reports_the_failing_condition(monkeypatch):
    import ceviangeo.verify as verify_mod

    # every condition now claims p is off the locus: on-locus entries fail
    # on the six conditions but not on the map's kind
    monkeypatch.setattr(verify_mod, "translation_condition_profile",
                        lambda cfg: (False,) * 6)
    results = run_suite("translation", seed=0, n=2).results
    on = [r for r in results if r.name.startswith("on-locus ")]
    off = [r for r in results if r.name.startswith("off-locus ")]
    assert len(on) == 2
    for r in on:
        # the name cuts the point short; the detail goes on with all of it
        flags, _, literal = r.detail.partition(" at ")
        assert not r.passed and flags == repr((False,) * 6 + (True,))
        assert literal.startswith(r.name.removeprefix("on-locus "))
    assert all(r.passed for r in off)


def test_special_checks_can_fail(monkeypatch):
    import ceviangeo.locus as locus_mod
    from ceviangeo.plane import point

    def results():
        return {r.name: r.passed for r in run_suite("special").results}

    assert results()["variant +: circumcenter is the midpoint of BC"]
    monkeypatch.setattr(locus_mod, "special_point", lambda sign=1: point([1, 2, 3]))
    after = results()
    assert not after["variant +: circumcenter is the midpoint of BC"]
    assert not after["variant +: orthocenter is A"]


def test_torsion_closure_check_can_fail(monkeypatch):
    import ceviangeo.curve as curve_mod

    def closure():
        results = run_suite("curve", seed=0, n=2).results
        return next(r for r in results if r.name == "torsion closes under addition")

    assert closure().passed
    monkeypatch.setattr(curve_mod, "torsion_points", lambda: curve_mod.rational_torsion()[:5])
    failed = closure()
    assert not failed.passed and failed.detail.startswith("CurveError")


@pytest.mark.parametrize("name", ["vertex-locus", "construction"])
def test_run_suite_applies_the_suite_default(name):
    names = [r.name for r in SUITES[name](seed=0).results]
    assert [r.name for r in run_suite(name).results] == names


@pytest.mark.parametrize("n", [-1, 65, 129, 100000])
def test_run_all_refuses_a_count_before_any_suite_runs(monkeypatch, n):
    ran = []
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda seed, n, name=name: ran.append(name))
    with pytest.raises(SampleTooLarge):
        run_all(seed=0, n=n)
    assert ran == []


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("n", [-1, 129])
def test_run_suite_refuses_a_count_outside_the_bound(monkeypatch, name, n):
    monkeypatch.setitem(SUITES, name, lambda seed, n: pytest.fail("the suite ran"))
    with pytest.raises(SampleTooLarge):
        run_suite(name, seed=0, n=n)


@pytest.mark.parametrize("name,n", [("curve", 128), ("vertex-locus", 128), ("equivalences", 0)])
def test_run_suite_accepts_the_bound(name, n):
    assert run_suite(name, seed=0, n=n).passed


def test_centroid_cevian_center_and_v_are_collinear():
    # translation_condition_profile catches PlaneError only: G, the center Z
    # of the cevian conic and V = (P x Q) x (P' x Q') are collinear for every
    # base point, so displacement_ratio(G, Z, Z, V) never raises NotCollinear
    import sympy

    from ceviangeo.maps import derive_configuration
    from ceviangeo.plane import BaryPoint, point

    x, y, z = sympy.symbols("x y z")
    p = sympy.Matrix([x, y, z])
    p_iso = sympy.Matrix([y * z, x * z, x * y])
    q = sympy.Matrix([x * (y + z), y * (x + z), z * (x + y)])
    q_iso = sympy.Matrix([y + z, x + z, x + y])
    # the cevian conic is the isotomic image of the line through P' and the
    # isotomic conjugate of Q
    l, m, n = p_iso.cross(sympy.Matrix([q[1] * q[2], q[0] * q[2], q[0] * q[1]]))
    center = sympy.Matrix([[0, n, m], [n, 0, l], [m, l, 0]]).adjugate() * sympy.ones(3, 1)
    v = p.cross(q).cross(p_iso.cross(q_iso))
    assert sympy.expand(sympy.Matrix.hstack(sympy.ones(3, 1), center, v).det()) == 0
    cfg = derive_configuration(point([1, 2, 3]))
    at = {x: 1, y: 2, z: 3}
    assert cfg.z == BaryPoint(*(int(c) for c in center.subs(at)))
    assert cfg.v == BaryPoint(*(int(c) for c in v.subs(at)))


def test_translation_profile_lets_unexpected_errors_through(monkeypatch):
    import ceviangeo.verify as verify_mod

    def broken(*args):
        raise ZeroDivisionError("patched")

    # an error other than an undefined ratio fails every entry, off the
    # locus too, instead of reading as a False condition there
    monkeypatch.setattr(verify_mod, "displacement_ratio", broken)
    results = run_suite("translation", seed=0, n=2).results
    off = [r for r in results if r.name.startswith("off-locus ")]
    assert len(off) == 2
    assert all(not r.passed and r.detail.startswith("ZeroDivisionError") for r in off)


def test_curve_invariant_entries_fail_alone(monkeypatch):
    import ceviangeo.curve as curve_mod

    names = [r.name for r in run_suite("curve").results]

    def broken():
        raise RuntimeError("patched")

    monkeypatch.setattr(curve_mod, "curve_invariants", broken)
    report = run_suite("curve")
    assert [r.name for r in report.results] == names
    assert [r.name for r in report.results if not r.passed] == [
        "j invariant is 54000", "c4 is 720", "discriminant is 6912"]


def _raising(true):
    def broken(*args):
        raise ZeroDivisionError("injected")
    return broken


def _sheared(true):
    from ceviangeo.plane import BaryPoint

    def wrong(p):
        # (x : y+x : z) of the true point
        x, y, z = true(p).coords
        return BaryPoint(x, y + x, z)
    return wrong


def _shifted_center(true):
    def wrong(p):
        a, b, c = true(p)
        return a, b, c + a
    return wrong


def _transposed(true):
    from ceviangeo.maps import AffineMap

    return lambda p: AffineMap(tuple(zip(*true(p).rows)))


def _y_z_swapped(true):
    from ceviangeo.plane import BaryPoint

    def wrong(w):
        x, y, z = true(w).coords
        return BaryPoint(x, z, y)
    return wrong


def _never_a_vertex(true):
    return lambda p: None


def _vertices_swapped(true):
    def wrong(frame, a1):
        b1, c1 = true(frame, a1)
        return c1, b1
    return wrong


def _orientation_ignored(true):
    def wrong(frame, a1):
        p1, _ = true(frame, a1)
        return p1, p1
    return wrong


def _by_m_not_adjugate(true):
    import ceviangeo.locus as locus_mod
    from ceviangeo.linalg import matvec3
    from ceviangeo.plane import BaryPoint

    # M carries A, B, C onto the inscribed triangle: the inverse direction
    def wrong(frame, a1):
        def through_m(triangle):
            m = tuple(zip(*(q.normalized() for q in triangle)))
            return BaryPoint(*matvec3(m, frame.p.coords))

        b1, c1 = locus_mod.inscribed_triangle(frame, a1)
        return through_m((a1, b1, c1)), through_m((a1, c1, b1))
    return wrong


def _projected_from_q(true):
    return lambda frame, y: true(frame._replace(p=frame.q), y)


def _polar_of_complement(true):
    from ceviangeo.plane import BaryPoint
    from ceviangeo.verify import polar

    # the chord's direction without its shift by m.Cm: the polar of m
    def wrong(frame, m):
        _, qm = true(frame, m)
        return polar(frame.conic, BaryPoint(*m)).coords, qm
    return wrong


def _ratio_negated(true):
    def wrong(p):
        c = true(p)
        return c if c.ratio is None else c._replace(ratio=-c.ratio)
    return wrong


def _radicand_scaled(factor):
    # the chord's Q(m) scaled, so r = -Q(m)/Q(d) is scaled and L is not
    def fault(true):
        def wrong(frame, m):
            line, qm = true(frame, m)
            return line, factor * qm
        return wrong
    return fault


def _secant_doubled(true):
    from ceviangeo.plane import affine_combination

    # the secant's ends at g +- 2k*d: its radicand times 4
    def wrong(p):
        frame = true(p)
        e, f = (affine_combination([(x, 2), (frame.g, -1)]) for x in (frame.e, frame.f))
        return frame._replace(e=e, f=f)
    return wrong


def _secant_labels_swapped(true):
    def wrong(p):
        frame = true(p)
        return frame._replace(e=frame.f, f=frame.e)
    return wrong


def _negated_when_defined(true):
    return lambda *args: (lambda s: s if s is None else -s)(true(*args))


def _of_negative(true):
    return lambda w: true(-w)


def _triple_fault(change):
    """_rational_triple with ``change`` applied to the triple it returns,
    as a list with the index of its rational coordinate."""
    def fault(true):
        def wrong(u, v):
            triple = true(u, v)
            if triple is None:
                return None
            coords = list(triple)
            change(coords, [c.is_rational() for c in coords].index(True))
            return tuple(coords)
        return wrong
    return fault


def _value_negated(coords, index):
    # the index kept, the rational coordinate's sign flipped
    coords[index] = -coords[index]


def _minus_base_added(true):
    # the twist kernel's addition step adds -B where B is due: k*G' becomes
    # a wrong multiple that is still on the curve
    return lambda m, n, s, a, b: true(m, n, s, a, -b)


def _roots_swapped(coords, index):
    # each irrational coordinate given the other root of their quadratic:
    # the pair's sign flipped
    i, j = (n for n in range(3) if n != index)
    coords[i], coords[j] = coords[j], coords[i]


def _y_z_exchanged_where_slope_rational(coords, index):
    # y and z exchanged where one of them is the rational coordinate
    if index:
        coords[1], coords[2] = coords[2], coords[1]


def _conic_shifted(shift):
    """A named conic with its upper triangle (m00, m01, m02, m11, m12, m22)
    replaced by ``shift`` of the true one."""
    def fault(true):
        from ceviangeo.conics import Conic

        return lambda *args: Conic.from_upper(shift(true(*args).upper()))
    return fault


def _m01_plus_one(upper):
    return (upper[0], upper[1] + 1) + upper[2:]


def _m22_plus_m00(upper):
    return upper[:5] + (upper[5] + upper[0],)


def _plus_one(true):
    return lambda p: true(p) + 1


def _negated(true):
    return lambda *args: not true(*args)


DERIVED_POINT_SUITES = ["equivalences", "special", "translation", "consequences", "construction"]

# (module, function, fault, suites that must report a failing entry)
INJECTED_FAULTS = {
    # equivalences reads h, q and p_iso in closed form, never the transfer map;
    # construction builds frames, not configurations, so it reads none either
    # ("transposed cevian map" still fails it)
    "raising transfer map": ("maps", "transfer_map", _raising,
                             ["special", "translation", "consequences"]),
    "sheared orthocenter": ("maps", "orthocenter", _sheared,
                            ["equivalences", "vertex-locus", "special", "translation",
                             "consequences", "construction"]),
    "shifted transfer center": ("maps", "transfer_center_coords", _shifted_center,
                                ["translation", "curve", "construction"]),
    "transposed transfer map": ("maps", "transfer_map", _transposed,
                                ["special", "translation"]),
    "w_to_bary with y and z swapped": ("curve", "w_to_bary", _y_z_swapped, ["curve"]),
    "w_to_bary of -P": ("curve", "w_to_bary", _of_negative, ["curve"]),
    "torsion translation negated": ("curve", "_translate", _negated_when_defined, ["curve"]),
    # the sampled translation points move off the cubic
    "rational coordinate negated": ("curve", "_rational_triple", _triple_fault(_value_negated),
                                    ["translation", "consequences", "curve", "construction"]),
    # measured at seeds 0, 3 and 7: only the chord-tangent cross-check sees a
    # wrong multiple, only the round trip sees the pair's roots swapped, and
    # the round trip and the symmetries see y and z exchanged
    "twist kernel adds -G' at a set bit": ("curve", "_twist_add", _minus_base_added, ["curve"]),
    "conjugate pair's root sign flipped": ("curve", "_rational_triple",
                                           _triple_fault(_roots_swapped), ["curve"]),
    "y and z exchanged where the slope is rational": (
        "curve", "_rational_triple", _triple_fault(_y_z_exchanged_where_slope_rational),
        ["curve"]),
    "orthocenter never at a vertex": ("locus", "orthocenter_vertex", _never_a_vertex,
                                      ["vertex-locus"]),
    "classify_transfer ratio negated": ("maps", "classify_transfer", _ratio_negated,
                                        ["translation", "curve"]),
    "sheared isotomcomplement": ("maps", "isotom_complement", _sheared, DERIVED_POINT_SUITES),
    "sheared isotomic": ("maps", "isotomic", _sheared,
                         ["equivalences", "special", "translation", "consequences", "curve",
                          "construction"]),
    "inscribed vertices swapped": ("locus", "inscribed_triangle", _vertices_swapped,
                                   ["construction"]),
    "reconstruction ignores orientation": ("locus", "reconstruct_points", _orientation_ignored,
                                           ["construction"]),
    "reconstruction by M, not its adjugate": ("locus", "reconstruct_points", _by_m_not_adjugate,
                                              ["construction"]),
    "projectivity projects from q": ("locus", "half_turn_projectivity", _projected_from_q,
                                     ["construction"]),
    "chord is the polar of the complement": ("locus", "_chord", _polar_of_complement,
                                             ["construction"]),
    # inscribed chord ends twice as far from the midpoint
    "bisected chord radicand times 4": ("locus", "_chord", _radicand_scaled(4),
                                        ["construction"]),
    # no inscribed chord cuts the conic, so no vertex is admissible
    "bisected chord radicand negated": ("locus", "_chord", _radicand_scaled(-1),
                                        ["construction"]),
    "secant ends twice as far from g": ("locus", "construction_frame", _secant_doubled,
                                        ["construction"]),
    "secant labels swapped": ("locus", "construction_frame", _secant_labels_swapped,
                              ["construction"]),
    "sheared complement": ("maps", "complement", _sheared, DERIVED_POINT_SUITES),
    "transposed cevian map": ("maps", "cevian_map", _transposed,
                              ["special", "translation", "consequences", "construction"]),
    "inconic m22 plus m00": ("conics", "inconic", _conic_shifted(_m22_plus_m00), ["translation"]),
    "circumconic m01 plus one": ("conics", "circumconic_for", _conic_shifted(_m01_plus_one),
                                 ["special", "translation"]),
    "isotomic image of a line m01 plus one": ("conics", "circumconic_of_line",
                                              _conic_shifted(_m01_plus_one),
                                              ["special", "translation", "consequences",
                                               "construction"]),
    "sheared conic center": ("conics", "conic_center", _sheared,
                             ["vertex-locus", "translation", "consequences", "construction"]),
    "translation cubic plus one": ("curve", "translation_cubic", _plus_one,
                                   ["curve", "construction"]),
    "admissible negated": ("locus", "admissible", _negated, ["construction"]),
}


def _patch_everywhere(monkeypatch, module, name, fault):
    """Replace a package function in every module namespace that binds it:
    a name imported by name, such as ``verify.classify_transfer``, is a
    binding of its own."""
    import importlib
    import pkgutil

    import ceviangeo

    original = getattr(importlib.import_module(f"ceviangeo.{module}"), name)
    wrong = fault(original)
    namespaces = [ceviangeo] + [importlib.import_module(f"ceviangeo.{info.name}")
                                for info in pkgutil.iter_modules(ceviangeo.__path__)]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                monkeypatch.setattr(ns, attr, wrong)


@pytest.mark.parametrize("fault", INJECTED_FAULTS.values(), ids=list(INJECTED_FAULTS))
def test_injected_fault_fails_entries_of_a_full_report(monkeypatch, capsys, fault):
    import json

    from ceviangeo import cli

    module, name, wrong, must_fail = fault
    _patch_everywhere(monkeypatch, module, name, wrong)
    code = cli.main(["verify", "all", "--json", "--n", "2"])
    out, err = capsys.readouterr()
    reports = json.loads(out)
    assert code == 1 and err == ""
    assert [r["suite"] for r in reports] == list(SUITES)
    failing = {r["suite"] for r in reports if any(not e["passed"] for e in r["results"])}
    assert set(must_fail) <= failing, failing
    # a suite that raised is its one failing entry
    for r in reports:
        names = [e["name"] for e in r["results"]]
        assert "suite ran to completion" not in names or len(names) == 1, r


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("fault", ["shifted transfer center", "translation cubic plus one"])
def test_cubic_faults_fail_the_center_sum_entry(monkeypatch, fault, seed):
    # translation_cubic does not read the center: this entry compares them
    module, name, wrong, _ = INJECTED_FAULTS[fault]
    _patch_everywhere(monkeypatch, module, name, wrong)
    failing = [r.name for r in run_suite("curve", seed=seed, n=2).results if not r.passed]
    assert "the translation cubic is the coordinate sum of the transfer map's center" in failing


def test_secant_doubled_fails_the_frame_entries(monkeypatch):
    import ceviangeo.locus as locus_mod

    asymptotes = "lines from the center to the secant midpoints are the asymptotes"
    monkeypatch.setattr(locus_mod, "construction_frame",
                        _secant_doubled(locus_mod.construction_frame))
    failing = [r.name for r in run_suite("construction", seed=0, n=2).results if not r.passed]
    assert {"frame identities", asymptotes} <= set(failing)


def _counting(calls):
    """A fault that changes nothing and records each call's arguments."""
    def fault(true):
        def counted(*args):
            calls.append(args)
            return true(*args)
        return counted
    return fault


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_construction_suite_builds_one_frame(monkeypatch, seed):
    # the canonical one: each sample is pulled back through its h, G and p
    calls = []
    _patch_everywhere(monkeypatch, "locus", "construction_frame", _counting(calls))
    assert run_suite("construction", seed=seed).passed
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_construction_suite_builds_one_triangle_per_vertex(monkeypatch, seed):
    # A and the five samples: A's triangle once for the reference triangle
    # and once for both orientations, each sample's once for both
    calls = []
    _patch_everywhere(monkeypatch, "locus", "inscribed_triangle", _counting(calls))
    assert run_suite("construction", seed=seed).passed
    assert len(calls) == 7


def test_the_pullback_orthocenter_can_fail_the_sample_entries(monkeypatch):
    # only verify's binding: the canonical frame keeps its true h, and the
    # pulled-back vertices leave its conic
    import ceviangeo.verify as verify_mod

    monkeypatch.setattr(verify_mod, "orthocenter", _sheared(verify_mod.orthocenter))
    failing = {r.name for r in run_suite("construction", seed=0, n=2).results if not r.passed}
    assert failing == {
        "2 admissible samples reconstruct translation points",
        "the inscribed chord is the common chord of the conic and its half-turn image"}


@pytest.mark.parametrize("name,count", [("translation", 8), ("special", 29), ("construction", 15)])
def test_a_configuration_that_raises_fails_each_entry(monkeypatch, name, count):
    # the construction frame reads no transfer map, so it raises from the cevian map
    raising = "cevian_map" if name == "construction" else "transfer_map"
    _patch_everywhere(monkeypatch, "maps", raising, _raising)
    results = run_suite(name, seed=0, n=2).results
    assert len(results) == count
    # an on-locus entry's detail goes on with the point it failed at
    assert all(not r.passed and r.detail.startswith("ZeroDivisionError: injected")
               for r in results)


def test_a_failing_entry_names_its_whole_point(monkeypatch):
    import ceviangeo.maps as maps_mod
    from ceviangeo.curve import sample_translation_points
    from ceviangeo.plane import point

    monkeypatch.setattr(maps_mod, "transfer_map", _raising(maps_mod.transfer_map))
    results = run_suite("consequences", seed=0, n=32).results
    samples = sample_translation_points(32, seed=0)
    assert len(results) == len(samples) == 32
    for r, p in zip(results, samples):
        assert not r.passed
        detail, _, literal = r.detail.rpartition(" at ")
        assert detail == "ZeroDivisionError: injected" and point(literal) == p


def test_entry_names_are_unique_within_a_suite():
    # at seed 0 two sample points share their first 48 characters
    names = [r.name for r in run_suite("consequences", seed=0, n=32).results]
    assert len(set(names)) == len(names)
