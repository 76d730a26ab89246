"""Byte-identity against the outputs pinned in perfbench/data/expected.json.

The benchmark checks every operation against these sha256[:16] digests;
here a slice of each pool, spread over the pool's recorded cost order,
makes the same check part of the test suite: ``compute <literal> all
--json`` output, the curve-point description of ``k*GENERATOR + T``, and
every recorded placement of each SVG figure.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ceviangeo import cli, curve, maps, svgfig
from ceviangeo.plane import point_to_literal

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "expected.json").read_text()
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def spread(ordered: list, n: int) -> list:
    """n entries of a cost-ordered list, evenly spaced from cheapest to costliest."""
    return [ordered[i * (len(ordered) - 1) // (n - 1)] for i in range(n)]


COMPUTE = [pytest.param(lit, d, id=f"{depth}:{lit}")
           for depth, pool in sorted(EXPECTED["compute"].items())
           for lit, d in spread(pool, 8)]
CURVE = [pytest.param(k, ti, id=f"{k}:{ti}")
         for k, ti in spread(EXPECTED["curve"]["by_cost"], 6)]
FIGURES = sorted(EXPECTED["figures"]["digests"])


@pytest.mark.parametrize("literal,expected", COMPUTE)
def test_compute_output(literal, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["compute", literal, "all", "--json"]) == 0
    assert digest(out.getvalue()) == expected


@pytest.mark.parametrize("k,torsion", CURVE)
def test_curve_point(k, torsion):
    w = k * curve.GENERATOR + curve.rational_torsion()[torsion]
    p = curve.w_to_bary(w)
    text = f"{point_to_literal(p)} {curve.on_translation_locus(p)} {maps.classify_transfer(p).kind}"
    assert digest(text) == EXPECTED["curve"]["digests"][f"{k}:{torsion}"]


@pytest.mark.parametrize("figure", FIGURES)
def test_svg_figure(figure):
    expected = EXPECTED["figures"]["digests"][figure]
    got = []
    for coords in EXPECTED["figures"]["placements"]:
        placement = svgfig.Placement(coords) if coords is not None else None
        got.append(digest(svgfig.render_figure(figure, placement)))
    mismatched = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert len(got) == len(expected) and not mismatched, mismatched


# sha256[:16] of `verify all --json` stdout: (seed, digest, bytes); a change
# that adds or renames a verify entry re-pins these
VERIFY_ALL = [(0, "b29c1146c9ae69c3", 11047), (7, "5359460b1ecef14e", 11110)]


@pytest.mark.parametrize("seed,expected,size", VERIFY_ALL)
def test_verify_all_json(seed, expected, size):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "all", "--json", "--seed", str(seed)]) == 0
    assert (digest(out.getvalue()), len(out.getvalue().encode("utf-8"))) == (expected, size)
