import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from ceviangeo.cli import main
from ceviangeo.field import format_element, parse_element
from ceviangeo.plane import point, point_to_literal
from ceviangeo import svgfig

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_orthocenter_json(self, capsys):
        code, out, _ = run_cli(["compute", "[6,3,2]", "H"], capsys)
        assert code == 0
        assert json.loads(out) == {"H": ["1", "0", "0"]}

    def test_symmetric_point(self, capsys):
        code, out, _ = run_cli(["compute", "[1,1,1]", "S"], capsys)
        assert code == 0
        assert json.loads(out) == {"S": ["1", "1", "1"]}

    def test_translation_kind(self, capsys):
        code, out, _ = run_cli(
            ["compute", "[1,1+sqrt(2),1-sqrt(2)]", "M", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["M"]["kind"] == "translation"

    def test_all_names(self, capsys):
        code, out, _ = run_cli(["compute", "[6,3,2]"], capsys)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"P'", "Q", "Q'", "H", "O", "O'", "V", "Z", "U", "S", "M", "conics"}

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(["compute", "[1,2]", "H"], capsys)
        assert code == 2
        assert err

    def test_invalid_point_exit_code(self, capsys):
        code, _, err = run_cli(["compute", "[0,1,2]", "H"], capsys)
        assert code == 2

    def test_median_member_exit_code(self, capsys):
        code, _, err = run_cli(["compute", "[1,1,1]", "V"], capsys)
        assert code == 2
        assert "median" in err

    def test_oversized_radicand_refused_fast(self, capsys):
        import time

        semiprime = 211106232533047 * 211106233533017  # 96 bits
        start = time.perf_counter()
        code, _, err = run_cli(["compute", f"[1,1,sqrt({semiprime})]"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.count("\n") == 1 and "budget" in err

    def test_unknown_name(self, capsys):
        code, _, _ = run_cli(["compute", "[6,3,2]", "W"], capsys)
        assert code == 2


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(["verify", "special", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data[0]["passed"] is True

    def test_text_output_lines(self, capsys):
        code, out, _ = run_cli(["verify", "curve", "--n", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)
        assert lines[-1] == "PASS suite curve"

    def test_unknown_suite_exit(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "nonsense"], capsys)
        assert err.value.code == 2


class TestCurveLocusCommands:
    def test_invariants(self, capsys):
        code, out, _ = run_cli(["curve", "invariants"], capsys)
        assert code == 0
        assert json.loads(out)["j"] == "54000"

    def test_multiple(self, capsys):
        code, out, _ = run_cli(["curve", "multiple", "--k", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["point"] == ["1/2", "1/4*sqrt(2)"]

    def test_torsion(self, capsys):
        code, out, _ = run_cli(["curve", "torsion"], capsys)
        data = json.loads(out)
        assert len(data["points"]) == 12
        assert data["orders"] == {"1": 1, "2": 3, "3": 2, "6": 6}

    def test_sample_deterministic(self, capsys):
        code, out1, _ = run_cli(["curve", "sample", "--n", "3", "--seed", "4"], capsys)
        code, out2, _ = run_cli(["curve", "sample", "--n", "3", "--seed", "4"], capsys)
        assert out1 == out2

    def test_locus_param(self, capsys):
        code, out, _ = run_cli(["locus", "param", "--vertex", "A", "--t", "1/3"], capsys)
        assert code == 0
        assert json.loads(out)["point"] == ["1", "1/2", "1/3"]

    def test_locus_check(self, capsys):
        code, out, _ = run_cli(["locus", "check", "--point", "[6,3,2]"], capsys)
        assert json.loads(out)["orthocenter_vertex"] == "A"


class TestSerializationRoundTrip:
    def test_field_expressions(self):
        exprs = ["1", "-2/3", "1+sqrt(2)", "5/8-7/3*sqrt(6)", "sqrt(3)-sqrt(2)"]
        for text in exprs:
            x = parse_element(text)
            assert parse_element(format_element(x)) == x

    def test_point_literals(self):
        literals = ["[6,3,2]", "[1,1+sqrt(2),1-sqrt(2)]", "[1/2,-3,sqrt(6)]"]
        for text in literals:
            p = point(text)
            assert point(point_to_literal(p)) == p

    def test_field_json(self):
        from ceviangeo.field import element_from_json, element_to_json

        x = parse_element("5/8-7/3*sqrt(6)")
        assert element_from_json(json.loads(json.dumps(element_to_json(x)))) == x


class TestRender:
    def test_locus_svg(self, tmp_path, capsys):
        out_file = tmp_path / "locus.svg"
        code, _, _ = run_cli(["render", "locus", "--out", str(out_file)], capsys)
        assert code == 0
        tree = ET.parse(out_file)
        paths = tree.getroot().findall(f"{SVG_NS}path")
        assert len(paths) == 4
        assert all(p.get("class") == "conic" for p in paths)

    def test_deterministic_output(self, capsys):
        svg1 = svgfig.render_figure("locus")
        svg2 = svgfig.render_figure("locus")
        assert svg1 == svg2

    def test_other_figures_well_formed(self, capsys):
        for name in ("conics", "special", "construction"):
            svg = svgfig.render_figure(name)
            ET.fromstring(svg)

    def test_custom_placement(self, capsys):
        svg = svgfig.render_figure(
            "conics", svgfig.Placement(("0", "3", "-1.5", "0", "2", "0"))
        )
        ET.fromstring(svg)

    def test_degenerate_placement(self, capsys):
        code, _, err = run_cli(
            ["render", "locus", "--placement", "0,0,1,1,2,2"], capsys
        )
        assert code == 2
        assert "collinear" in err

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(["render", "special"], capsys)
        assert code == 0
        ET.fromstring(out)


class TestConsoleEntry:
    def test_installed_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "ceviangeo.cli", "compute", "[6,3,2]", "H", "--json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"H": ["1", "0", "0"]}
