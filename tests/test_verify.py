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
