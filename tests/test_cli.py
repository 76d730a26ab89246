import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ceviangeo import cli
from ceviangeo.cli import main
from ceviangeo.field import FieldElement, format_element, parse_element
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

    def test_unknown_name_is_refused_next_to_all(self, capsys):
        code, out, err = run_cli(["compute", "[1,2,3]", "all", "nope"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("unknown names: ['nope']; choose from")


# each degenerate input is refused by validation before any closed form
# divides by (a+b)(a+c)(b+c)
DEGENERATE_COMPUTE = (
    ["[0,1,2]"],  # on a sideline
    ["[1,-1,3]"],  # on a sideline of the anticomplementary triangle
    ["[2,2,-1]"],  # on the Steiner circumellipse
    ["[1,1,-2]"],  # an infinite point
    ["[1,1,2]", "V"],  # median-only members on a median
    ["[1,1,2]", "Z"],
    ["[1,1,2]", "U"],
    ["[sqrt(2),sqrt(3),sqrt(5)]"],  # a tower of depth three
    ["[1,1,sqrt(2**128+1)]"],  # a radicand past the factoring budget
    ["[1,2]"],  # two coordinates
    ["[1,2,3"],  # unbalanced bracket
)


@pytest.mark.parametrize("args", DEGENERATE_COMPUTE, ids=" ".join)
def test_degenerate_compute_input_exits_2(args, capsys):
    code, out, err = run_cli(["compute", *args], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["compute", "[1/0,1,2]", "H"],
    ["compute", "[1,1/(2-2),2]"],
    ["locus", "param", "--vertex", "A", "--t", "1/0"],
], ids=" ".join)
def test_division_by_zero_in_an_expression_exits_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "division by zero" in err


def test_every_package_exception_has_the_common_root():
    import importlib
    import pkgutil

    import ceviangeo
    from ceviangeo.field import CeviangeoError

    modules = [importlib.import_module(f"ceviangeo.{info.name}")
               for info in pkgutil.iter_modules(ceviangeo.__path__)]
    defined = {obj.__name__: obj for mod in modules for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == mod.__name__}
    assert {"FieldError", "PlaneError", "MapError", "ConicError", "CurveError", "LocusError",
            "DegeneratePlacement", "DigitLimitExceeded"} <= defined.keys()
    assert [n for n, c in defined.items() if not issubclass(c, CeviangeoError)] == []


def test_conic_error_in_compute_exits_2(monkeypatch, capsys):
    from ceviangeo.conics import DegenerateConic

    def broken(p):
        raise DegenerateConic("injected")

    monkeypatch.setattr(cli, "derive_configuration", broken)
    code, out, err = run_cli(["compute", "[6,3,2]", "H"], capsys)
    assert code == 2 and out == ""
    assert err == "error: injected\n"


def test_readme_library_example(capsys):
    """Run the README's Python block; each print line's trailing comment is
    the line it prints."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_command_line_block(tmp_path, capsys):
    """Run every line of the README's command-line block through ``main``;
    each exits 0, and an ``--out`` file is written under tmp_path."""
    import shlex

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```\n", 2)[1]
    lines = block.splitlines()
    assert lines and all(line.startswith("ceviangeo ") for line in lines)
    for line in lines:
        args = shlex.split(line, comments=True)[1:]
        out = None
        if "--out" in args:
            i = args.index("--out") + 1
            out = tmp_path / args[i]
            args[i] = str(out)
        assert main(args) == 0, line
        capsys.readouterr()
        assert out is None or out.stat().st_size > 0, line


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
        assert json.loads(out)["b8"] == "-9"

    def test_multiple(self, capsys):
        code, out, _ = run_cli(["curve", "multiple", "--k", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["point"] == ["1/2", "1/4*sqrt(2)"]

    # sha256[:16] of the printed point and its barycentric image at the
    # tallest multiples, near and at MULTIPLE_BOUND
    @pytest.mark.parametrize("k,expected", [
        (119, "760041084201f6d8"),
        (-119, "ab8615dd003a1e99"),
        (128, "86c160b68346c160"),
        (-128, "2f1ea27c9fb08834"),
    ])
    def test_tall_multiple_output_pinned(self, k, expected, capsys):
        code, out, _ = run_cli(["curve", "multiple", "--k", str(k)], capsys)
        assert code == 0 and json.loads(out)["k"] == k
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected

    def test_torsion(self, capsys):
        code, out, _ = run_cli(["curve", "torsion"], capsys)
        data = json.loads(out)
        assert len(data["points"]) == 12
        assert data["orders"] == {"1": 1, "2": 3, "3": 2, "6": 6}

    def test_sample_deterministic(self, capsys):
        code, out1, _ = run_cli(["curve", "sample", "--n", "3", "--seed", "4"], capsys)
        code, out2, _ = run_cli(["curve", "sample", "--n", "3", "--seed", "4"], capsys)
        assert out1 == out2

    # sha256[:16] of the printed samples, recorded before the sample bound existed
    @pytest.mark.parametrize("seed,n,expected", [
        (0, 1, "7f2288a244471f86"),
        (0, 5, "5187dcd846e67380"),
        (1, 17, "b334123034fce166"),
        (7, 40, "a41ac5b5f980a16f"),
        (3, 64, "ca2fc7b17ef1d1b7"),
        (2, 128, "72522f049ea6fa36"),
    ])
    def test_sample_output_pinned(self, seed, n, expected, capsys):
        code, out, _ = run_cli(["curve", "sample", "--n", str(n), "--seed", str(seed)], capsys)
        assert code == 0 and len(json.loads(out)) == n
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected

    def test_sample_count_defaults_only_when_absent(self, capsys):
        code, out, _ = run_cli(["curve", "sample"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "5187dcd846e67380"
        code, out, _ = run_cli(["curve", "sample", "--n", "0"], capsys)
        assert code == 0 and json.loads(out) == []

    @pytest.mark.parametrize("args", [
        ["curve", "sample", "--n", "129"],
        ["curve", "sample", "--n", "100000"],
        ["curve", "sample", "--n", "-1"],
        ["verify", "translation", "--n", "100000"],
        ["verify", "consequences", "--n", "129"],
        ["verify", "construction", "--n", "65"],
        ["verify", "equivalences", "--n", "2000"],
        ["verify", "vertex-locus", "--n", "-1"],
        ["verify", "curve", "--n", "129"],
        ["verify", "special", "--n", "129"],
        ["verify", "all", "--n", "100000"],
        ["verify", "all", "--n", "65"],
    ])
    def test_oversized_sample_refused_fast(self, args, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(args, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "sample size" in err

    @pytest.mark.parametrize("args,message", [
        (["verify", "all", "--n", "65"], "sample size 65 is outside 0..64"),
        (["verify", "construction", "--n", "65"], "sample size 65 is outside 0..64"),
        (["verify", "construction", "--n", "-1"], "sample size -1 is outside 0..64"),
        (["verify", "translation", "--n", "129"], "sample size 129 is outside 0..128"),
    ])
    def test_refused_count_names_the_given_n(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.strip().endswith(message)

    def test_locus_param(self, capsys):
        code, out, _ = run_cli(["locus", "param", "--vertex", "A", "--t", "1/3"], capsys)
        assert code == 0
        assert json.loads(out)["point"] == ["1", "1/2", "1/3"]

    def test_locus_check(self, capsys):
        code, out, _ = run_cli(["locus", "check", "--point", "[6,3,2]"], capsys)
        assert json.loads(out)["orthocenter_vertex"] == "A"


def run_any(args, capsys):
    """Exit code, stdout and stderr of a call that may end in SystemExit."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REUSE_CALLS = (
    ["compute", "[6,3,2]", "all", "--json"],
    ["verify", "special"],
    ["curve", "multiple", "--k", "3"],
    ["render", sorted(svgfig.FIGURES)[0]],
    ["compute"],
    ["--help"],
)


def test_parser_choices_match_the_modules_that_define_them():
    from ceviangeo import curve, verify

    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))
    assert cli.FIGURE_NAMES == tuple(sorted(svgfig.FIGURES))
    assert cli.MULTIPLE_BOUND == curve.MULTIPLE_BOUND


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, capsys):
        reused = [run_any(args, capsys) for args in REUSE_CALLS + REUSE_CALLS]
        fresh = []
        for args in REUSE_CALLS:
            cli._parser.cache_clear()
            fresh.append(run_any(args, capsys))
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0]
        assert reused == fresh + fresh

    def test_compute_builds_the_parser_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        counts = []
        for _ in range(2):
            before = len(built)
            assert main(["compute", "[6,3,2]", "all", "--json"]) == 0
            counts.append(len(built) - before)
        cli._parser.cache_clear()
        assert counts[0] > 0 and counts[1] == 0


EXPECTED_COMPUTE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "expected.json").read_text()
)["compute"]


@pytest.mark.parametrize("depth", ["d0", "d1", "d2"])
def test_compute_output_reads_no_fraction_coefficients(depth, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("FieldElement.coeffs read on the compute path")

    monkeypatch.setattr(FieldElement, "coeffs", property(refuse))
    pool = EXPECTED_COMPUTE[depth]
    for literal, expected in (pool[0], pool[-1]):
        code, out, err = run_cli(["compute", literal, "all", "--json"], capsys)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected


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

    @pytest.mark.parametrize("placement,reason", [
        ("0 0 1e400 0 0 1", "no finite float"),
        ("0 0 -1e400 0 0 1", "no finite float"),
        ("0 0 1/0 0 0 1", "zero denominator"),
        # exactly a triangle, but every float vertex underflows to the origin
        ("0 0 1e-400 0 0 1e-400", "zero area in floating point"),
    ])
    def test_unrepresentable_placement(self, placement, reason, capsys):
        code, out, err = run_cli(["render", "locus", "--placement", placement], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and reason in err

    @pytest.mark.parametrize("placement", [
        "-1.7e308 0 1.7e308 0 0 1.7e308",
        # the float area is finite, but the x extent 3.4e308 is not
        "0 0 1.7e308 0 -1.7e308 1e-300",
    ])
    def test_placement_with_an_infinite_extent(self, placement, capsys):
        code, out, err = run_cli(["render", "conics", f"--placement={placement}"], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "overflows a float" in err

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(["render", "special"], capsys)
        assert code == 0
        ET.fromstring(out)

    def test_empty_placement_is_refused(self, capsys):
        # an empty value was read as no option: the default placement
        code, out, err = run_cli(["render", "conics", "--placement", ""], capsys)
        assert (code, out, err) == (2, "", "error: placement needs six coordinates\n")

    def test_empty_out_path_is_refused(self, capsys):
        # an empty value was read as no option: the SVG went to stdout
        code, out, err = run_cli(["render", "conics", "--out", ""], capsys)
        assert code == 2 and out == ""
        assert err.startswith("io error: ") and len(err.splitlines()) == 1


class TestConsoleEntry:
    @pytest.mark.parametrize("args", [
        ["compute", "[6,3,2]", "all", "--json"],
        ["verify", "special", "--n", "1"],
        ["curve", "invariants"],
        ["curve", "multiple", "--k", "3"],
        ["curve", "sample", "--n", "2"],
        ["locus", "param"],
        ["locus", "check"],
        ["render", "conics"],
    ], ids=" ".join)
    def test_fresh_process_matches_in_process(self, args, capsys):
        """Each command's handler imports its modules itself; a cold process
        is the only place an import missing there shows."""
        package_root = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-S", "-m", "ceviangeo.cli", *args],
                                capture_output=True, text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": package_root})
        code, out, _ = run_cli(args, capsys)
        assert (result.returncode, result.stdout) == (code, out), result.stderr

    def test_installed_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "ceviangeo.cli", "compute", "[6,3,2]", "H", "--json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"H": ["1", "0", "0"]}
