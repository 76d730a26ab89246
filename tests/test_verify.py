import pytest

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
)


@pytest.mark.parametrize("index,member,source", CROSS_CHECK_SWAPS)
def test_construction_profile_entry_can_fail(index, member, source):
    from dataclasses import replace

    from ceviangeo.maps import derive_configuration
    from ceviangeo.plane import point
    from ceviangeo.verify import construction_profile

    cfg = derive_configuration(point([1, 2, 3]))
    assert construction_profile(cfg) == (True,) * 5
    broken = construction_profile(replace(cfg, **{member: getattr(cfg, source)}))
    assert broken == tuple(i != index for i in range(5))


def test_translation_cross_check_entries_can_fail(monkeypatch):
    from dataclasses import replace

    import ceviangeo.verify as verify_mod

    derive = verify_mod.derive_configuration
    monkeypatch.setattr(
        verify_mod,
        "derive_configuration",
        lambda p: replace(derive(p), circumconic=derive(p).inconic),
    )
    results = run_suite("translation", seed=0, n=2).results
    cross = [r for r in results if r.name.startswith("constructions ")]
    assert len(cross) == 4
    assert all(not r.passed and r.detail == repr((True, True, False, True, True))
               for r in cross)


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
