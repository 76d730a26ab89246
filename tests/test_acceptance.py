"""Acceptance suite: each test pins one criterion exactly (zero tolerance)
and prints a single pass/fail line for it."""

import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction


from ceviangeo.field import FieldElement, fe
from ceviangeo.plane import (
    A,
    B,
    C,
    D0,
    BaryLine,
    BaryPoint,
    point,
)
from ceviangeo.maps import classify_transfer
from ceviangeo.conics import conic_center
from ceviangeo import curve as curve_mod
from ceviangeo import locus as locus_mod
from ceviangeo import verify as verify_mod
from ceviangeo.verify import polar, signed_ratio, tangent_at

R2 = FieldElement.root(2)


def _report(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail and not passed else ""
    print(f"{status} {name}{suffix}")
    assert passed, f"{name}{suffix}"


def _suite(name: str, seed: int = 0, n: int | None = None):
    report = verify_mod.run_suite(name, seed=seed, n=n)
    failures = "; ".join(r.name for r in report.results if not r.passed)
    return report.passed, failures


class TestAcceptance:
    def test_criterion_vertex_locus_and_equivalences(self):
        ok1, why1 = _suite("vertex-locus", seed=0, n=20)
        ok2, why2 = _suite("equivalences", seed=0, n=20)
        _report(
            "criterion 1: vertex locus orthocenters and condition equivalences",
            ok1 and ok2,
            why1 + why2,
        )

    def test_criterion_conic_facts(self):
        vl = locus_mod.vertex_locus("A")
        checks = [
            tangent_at(vl.conic, B) == BaryLine(1, 0, 1),
            tangent_at(vl.conic, C) == BaryLine(1, 1, 0),
            conic_center(vl.conic) == BaryPoint(1, 3, 3),
            signed_ratio(A, conic_center(vl.conic), D0) == Fraction(6, 7),
            polar(vl.conic, A) == BaryLine(-2, 1, 1),
        ]
        _report("criterion 2: tangents, center and polar of the vertex conic", all(checks))

    def test_criterion_special_configuration(self):
        ok, why = _suite("special", seed=0)
        _report("criterion 3: special configuration relations", ok, why)

    def test_criterion_translation_equivalences(self):
        ok1, why1 = _suite("translation", seed=0, n=10)
        ok2, why2 = _suite("consequences", seed=0, n=10)
        _report(
            "criterion 4: translation criteria and consequences on 10+10 samples",
            ok1 and ok2,
            why1 + why2,
        )

    def test_criterion_curve_arithmetic(self):
        checks = []
        checks.append(curve_mod.curve_invariants()["j"] == 54000)
        gen = curve_mod.GENERATOR
        checks.append(2 * gen == curve_mod.WPoint.of(fe("1/2"), R2 / 4))
        checks.append(4 * gen == curve_mod.WPoint.of(fe("169/8"), fe("-2483/32") * R2))
        checks.append(curve_mod.torsion_order_census() == {1: 1, 2: 3, 3: 2, 6: 6})
        torsion = curve_mod.torsion_points()
        checks.append(
            all(any(p + q == t for t in torsion) for p in torsion for q in torsion)
        )
        checks.append(all(not verify_mod.is_torsion(n * gen) for n in range(1, 25)))
        xs = [Fraction(k, 7) for k in range(-10, 10)]
        checks.append(
            all(
                verify_mod.translation_y_discriminant(fe(x))
                == (fe(x) - 1) * (3 * fe(x) + 1) * (3 * fe(x) ** 2 - 6 * fe(x) - 1)
                for x in xs
            )
        )
        _report("criterion 5: curve invariants, multiples, torsion and discriminant", all(checks))

    def test_criterion_locus_conic_intersection(self):
        # the parameter polynomial of the cubic restricted to the vertex conic,
        # fixed by seven evaluations of the degree-six form
        def cubic_at(t: Fraction) -> FieldElement:
            p = BaryPoint(fe(1 + t), fe(1 - t), fe(t) * (1 + t))
            return curve_mod.translation_cubic(p)

        def target(t: Fraction) -> FieldElement:
            tt = fe(t)
            return -2 * (tt + 1) ** 2 * (tt * tt - 2 * tt - 1)

        checks = [cubic_at(Fraction(k)) == target(Fraction(k)) for k in range(-3, 4)]
        vl = locus_mod.vertex_locus("A")
        for t in (1 + R2, 1 - R2):
            p = vl.point_at(t)
            checks.append(curve_mod.on_translation_locus(p))
            checks.append(any(p == locus_mod.special_point(s) for s in (1, -1)))

        def cubic_tangent(v: BaryPoint) -> BaryLine:
            x, y, z = v.coords
            return BaryLine(
                (y + z) ** 2 + 2 * y * (x + z) + 2 * z * (x + y),
                2 * x * (y + z) + (x + z) ** 2 + 2 * z * (x + y),
                2 * x * (y + z) + 2 * y * (x + z) + (x + y) ** 2,
            )

        checks.append(tangent_at(vl.conic, B) == cubic_tangent(B))
        checks.append(tangent_at(vl.conic, C) == cubic_tangent(C))
        _report(
            "criterion 6: locus meets the vertex conic in B, C (doubly) and the two special points",
            all(checks),
        )

    def test_criterion_normal_form_family(self):
        ok = True
        detail = ""
        for a in (2, 5, -3):
            curve = verify_mod.NormalFormCurve(fe(a))
            want = fe(4) / (fe(a) + 1)
            found = 0
            attempt = 0
            while found < 5 and attempt < 80:
                attempt += 1
                for x, y in curve.sample(1, seed=1000 + 13 * attempt + a):
                    p = BaryPoint(x, y, 1 - x - y)
                    from ceviangeo.maps import is_valid_point

                    if not is_valid_point(p, off_medians=True):
                        continue
                    cls = classify_transfer(p)
                    if cls.kind != "homothety" or cls.ratio != want:
                        ok = False
                        detail = f"a={a} at x={x}"
                    found += 1
            if found < 5:
                ok = False
                detail = f"a={a}: only {found} samples"
        _report("criterion 7: family samples give homothety ratio 4/(a+1)", ok, detail)

    def test_criterion_inscribed_construction(self):
        ok, why = _suite("construction", seed=0, n=5)
        _report("criterion 8: inscribed-triangle construction round trip", ok, why)

    def test_criterion_cli(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ceviangeo.cli", "verify", "all"],
            capture_output=True,
            text=True,
        )
        ok = result.returncode == 0

        from ceviangeo.field import format_element, parse_element
        from ceviangeo.plane import point_to_literal

        for text in ("[6,3,2]", "[1,1+sqrt(2),1-sqrt(2)]", "[1/2,-3,sqrt(6)]"):
            p = point(text)
            ok = ok and point(point_to_literal(p)) == p
        x = parse_element("5/8-7/3*sqrt(6)")
        ok = ok and parse_element(format_element(x)) == x

        out_file = tmp_path / "locus.svg"
        render = subprocess.run(
            [sys.executable, "-m", "ceviangeo.cli", "render", "locus", "--out", str(out_file)],
            capture_output=True,
            text=True,
        )
        ok = ok and render.returncode == 0
        tree = ET.parse(out_file)
        paths = tree.getroot().findall("{http://www.w3.org/2000/svg}path")
        ok = ok and len(paths) == 4
        _report("criterion 9: CLI verify exits clean, round-trips, renders four conics", ok)
