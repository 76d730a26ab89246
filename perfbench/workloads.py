"""The four benchmark workloads.

Each workload turns its seed into the run's inputs (point literals, suite
names with seeds, ``(k, torsion index)`` pairs, figure names with placement
indices) during untimed set-up: one input from each band of a pool sorted
by recorded cost (``record.py``), so runs with different seeds measure a
similar mix of work.  ``run`` is the timed operation and ``check`` compares
its output with the digests recorded in ``data/expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "data" / "expected.json"


def package_present() -> bool:
    return (SRC / "ceviangeo" / "__init__.py").is_file()


def import_package():
    """Import the package from the checkout's ``src`` directory."""
    if not package_present():
        raise SystemExit(f"benchmark: no ceviangeo package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ceviangeo.cli  # noqa: F401  (the CLI imports every module)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def one_per_band(ordered: list, bands: int, rng: random.Random) -> list:
    """One entry from each of ``bands`` equal bands of ``ordered``, a pool
    sorted by cost: a stratified sample whose cost varies little by seed."""
    n = len(ordered)
    return [ordered[rng.randrange(b * n // bands, (b + 1) * n // bands)] for b in range(bands)]


class ComputeMix:
    name = "compute-mix"
    why = ("CLI compute of every derived point on small-height points, 60/30/10 "
           "over depths 0/1/2: the overhead-bound path through field, linalg, "
           "plane, maps, conics and cli")
    # inputs per run at tower depth 0, 1 and 2: one from each band of the pool
    MIX = (("d0", 24), ("d1", 12), ("d2", 4))

    def __init__(self, expected: dict, seed: int):
        rng = random.Random(seed)
        pools = expected["compute"]
        self.inputs = [lit for depth, bands in self.MIX
                       for lit in one_per_band([lit for lit, _ in pools[depth]], bands, rng)]
        self.digests = {lit: d for pool in pools.values() for lit, d in pool}
        self.depth = {lit: depth for depth, pool in pools.items() for lit, _ in pool}

    @staticmethod
    def run(literal: str) -> tuple[int, str]:
        from ceviangeo import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["compute", literal, "all", "--json"])
        return code, out.getvalue()

    def check(self, literal: str, output) -> bool:
        code, text = output
        return code == 0 and digest(text) == self.digests[literal]

    def oracle(self, samples) -> bool:
        """sympy confirms the orthocenter on one sampled point of each depth."""
        from oracle import orthocenter_parallels

        first = {}
        for literal, (_, text) in samples:
            first.setdefault(self.depth[literal], (literal, text))
        return all(orthocenter_parallels(lit, text) for lit, text in first.values())

    @classmethod
    def warm_up(cls):
        cls.run("[6,3,2]")


class VerifySuites:
    name = "verify-suites"
    why = ("all seven verification suites, as verify all runs them, each on suite seeds "
           "drawn from the run's seed; the only workload running locus and the curve "
           "samplers")
    BANDS = 4  # suite seeds per suite, one from each band of its cost order

    def __init__(self, expected: dict, seed: int):
        rng = random.Random(seed)
        self.checks = expected["suites"]["checks"]
        order = expected["suites"]["by_cost"]
        self.inputs = [(suite, s) for suite in sorted(self.checks)
                       for s in one_per_band(order[suite], self.BANDS, rng)]
        self.suite_seconds: dict[str, list[float]] = {suite: [] for suite in self.checks}

    def run(self, item: tuple[str, int]):
        from ceviangeo import verify

        start = time.perf_counter()
        report = verify.run_suite(item[0], seed=item[1])
        self.suite_seconds[item[0]].append(time.perf_counter() - start)
        return report

    def oracle(self, samples) -> bool:
        return True

    def check(self, item: tuple[str, int], report) -> bool:
        # checks may be added later; every recorded one must still be there
        suite, seed = item
        names = {r.name for r in report.results}
        return report.passed and all(n in names for n in self.checks[suite][str(seed)])

    @staticmethod
    def warm_up():
        from ceviangeo import verify

        verify.run_suite("special", seed=0)


class CurveHeight:
    name = "curve-height"
    why = ("k*GENERATOR + T for k in 60..119, mapped to the cubic and classified: "
           "coefficients reach thousands of bits, so it guards against field "
           "representations that are fast only at small heights")
    K_LOW, K_HIGH = 60, 119
    TORSION = 6
    BANDS = 48  # (k, torsion index) pairs per run, one from each band of their cost order

    def __init__(self, expected: dict, seed: int):
        rng = random.Random(seed)
        self.digests = expected["curve"]["digests"]
        order = [tuple(item) for item in expected["curve"]["by_cost"]]
        self.inputs = one_per_band(order, self.BANDS, rng)

    @staticmethod
    def run(item: tuple[int, int]):
        from ceviangeo import curve, maps

        k, ti = item
        w = k * curve.GENERATOR + curve.rational_torsion()[ti]
        p = curve.w_to_bary(w)
        return p, curve.on_translation_locus(p), maps.classify_transfer(p).kind

    @staticmethod
    def describe(output) -> str:
        from ceviangeo.plane import point_to_literal

        p, on_locus, kind = output
        return f"{point_to_literal(p)} {on_locus} {kind}"

    def check(self, item: tuple[int, int], output) -> bool:
        _, on_locus, kind = output
        return (on_locus and kind == "translation"
                and digest(self.describe(output)) == self.digests[f"{item[0]}:{item[1]}"])

    def oracle(self, samples) -> bool:
        """sympy confirms that two sampled points lie on the cubic."""
        from oracle import on_translation_cubic

        return all(on_translation_cubic(self.describe(output).split()[0])
                   for _, output in samples[:2])

    @classmethod
    def warm_up(cls):
        cls.run((cls.K_LOW, 0))


class RenderFigures:
    name = "render-figures"
    why = ("the four SVG figures under seeded exact placements: the only "
           "workload running svgfig, the output side of the program")
    BANDS = 6  # placements per figure, one from each band of its cost order

    def __init__(self, expected: dict, seed: int):
        rng = random.Random(seed)
        self.placements = expected["figures"]["placements"]
        self.digests = expected["figures"]["digests"]
        order = expected["figures"]["by_cost"]
        self.inputs = [(fig, i) for fig in sorted(self.digests)
                       for i in one_per_band(order[fig], self.BANDS, rng)]

    def run(self, item: tuple[str, int]) -> str:
        return self.render(item[0], self.placements[item[1]])

    @staticmethod
    def render(figure: str, coords) -> str:
        from ceviangeo import svgfig

        placement = svgfig.Placement(coords) if coords is not None else None
        return svgfig.render_figure(figure, placement)

    def oracle(self, samples) -> bool:
        return True

    def check(self, item: tuple[str, int], svg: str) -> bool:
        return digest(svg) == self.digests[item[0]][item[1]]

    @classmethod
    def warm_up(cls):
        cls.render("conics", None)


WORKLOADS = {w.name: w for w in (ComputeMix, VerifySuites, CurveHeight, RenderFigures)}
