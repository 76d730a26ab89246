"""Record the benchmark's input pools and expected-output digests.

    python3 perfbench/record.py

writes ``perfbench/data/expected.json``.  The file pins the outputs of the
commit it was recorded at, so that later changes are checked against them:
re-record only when an output is meant to change, and say so where the
change is described.

Pools are drawn from the package's own seeded samplers with fixed seeds; a
workload seed then picks its inputs from them.  Every pool is stored in
order of cost, cheapest first, each input's cost the median of three calls
timed at nominal machine speed (``speed.py``).  A workload picks one input
from each band of that order, so runs with different seeds measure a
similar mix of work.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from fractions import Fraction

from speed import SpeedMeter
from workloads import (
    EXPECTED, ComputeMix, CurveHeight, RenderFigures, VerifySuites, digest, import_package,
)

POOL_SEED = 20160816
DEPTH0_POINTS = 300
DEPTH1_SAMPLER_SEEDS = range(8)
DEPTH1_PER_SEED = 20
DEPTH2_POINTS = 40
SUITE_SEEDS = list(range(16))
PLACEMENTS = 16
COST_REPEATS = 3


def by_cost(run, inputs: list) -> list:
    """``inputs`` sorted by the median cost of COST_REPEATS calls of ``run``."""
    meter = SpeedMeter()
    costs = []
    try:
        for item in inputs:
            times = []
            for _ in range(COST_REPEATS):
                with meter:
                    run(item)
                times.append(meter.cost)
            costs.append(statistics.median(times))
    finally:
        meter.close()
    order = sorted(range(len(inputs)), key=costs.__getitem__)
    return [inputs[i] for i in order]


def _depth2_points(n: int, rng: random.Random) -> list[str]:
    """Points such as [1+sqrt(2),2+sqrt(3),1]: small integer parts over Q(sqrt(2), sqrt(3))."""
    from ceviangeo.field import FieldElement, fe
    from ceviangeo.maps import is_valid_point
    from ceviangeo.plane import BaryPoint

    def small():
        return rng.choice([v for v in range(-4, 5) if v])

    out: list[str] = []
    while len(out) < n:
        coords = [fe(small()) + small() * FieldElement.root(2),
                  fe(small()) + small() * FieldElement.root(3),
                  fe(small())]
        rng.shuffle(coords)
        p = BaryPoint(*coords)
        if is_valid_point(p, off_medians=True):
            literal = repr(p)
            if literal not in out:
                out.append(literal)
    return out


def record_compute() -> dict:
    from ceviangeo import curve, verify

    # literals keep the samplers' coordinates; they are not canonicalized
    d0 = [repr(p) for p in verify.random_valid_points(DEPTH0_POINTS, POOL_SEED)]
    d1: list[str] = []
    for s in DEPTH1_SAMPLER_SEEDS:
        for p in curve.sample_translation_points(DEPTH1_PER_SEED, seed=POOL_SEED + s):
            literal = repr(p)
            if literal not in d1:
                d1.append(literal)
    d2 = _depth2_points(DEPTH2_POINTS, random.Random(POOL_SEED))
    pools = {}
    for depth, literals in (("d0", d0), ("d1", d1), ("d2", d2)):
        entries = []
        for literal in by_cost(ComputeMix.run, literals):
            code, text = ComputeMix.run(literal)
            if code != 0:
                raise SystemExit(f"compute failed on pool point {literal}")
            entries.append([literal, digest(text)])
        pools[depth] = entries
    return pools


def record_suites() -> dict:
    checks: dict[str, dict[str, list[str]]] = {}
    order: dict[str, list[int]] = {}
    from ceviangeo import verify

    for suite in sorted(verify.SUITES):
        checks[suite] = {}
        for seed in SUITE_SEEDS:
            report = verify.run_suite(suite, seed=seed)
            if not report.passed:
                raise SystemExit(f"suite {suite} fails at seed {seed}")
            checks[suite][str(seed)] = [r.name for r in report.results]
        order[suite] = by_cost(lambda seed: verify.run_suite(suite, seed=seed), SUITE_SEEDS)
    return {"seeds": SUITE_SEEDS, "checks": checks, "by_cost": order}


def record_curve() -> dict:
    digests = {}
    items = [(k, ti) for k in range(CurveHeight.K_LOW, CurveHeight.K_HIGH + 1)
             for ti in range(CurveHeight.TORSION)]
    for k, ti in items:
        output = CurveHeight.run((k, ti))
        if not (output[1] and output[2] == "translation"):
            raise SystemExit(f"k={k}, torsion {ti} is not a translation point")
        digests[f"{k}:{ti}"] = digest(CurveHeight.describe(output))
    return {"digests": digests, "by_cost": [list(item) for item in by_cost(CurveHeight.run, items)]}


def record_figures() -> dict:
    from ceviangeo import svgfig

    rng = random.Random(POOL_SEED)
    placements = []
    while len(placements) < PLACEMENTS:
        coords = [str(Fraction(rng.randint(-12, 12), rng.randint(1, 6))) for _ in range(6)]
        try:
            svgfig.Placement(coords)
        except svgfig.DegeneratePlacement:
            continue
        placements.append(coords)
    digests = {fig: [digest(RenderFigures.render(fig, c)) for c in placements]
               for fig in sorted(svgfig.FIGURES)}
    order = {fig: by_cost(lambda i: RenderFigures.render(fig, placements[i]),
                          list(range(PLACEMENTS)))
             for fig in sorted(svgfig.FIGURES)}
    return {"placements": placements, "digests": digests, "by_cost": order}


def main() -> int:
    import_package()
    ComputeMix.warm_up()
    VerifySuites.warm_up()
    CurveHeight.warm_up()
    RenderFigures.warm_up()
    expected = {
        "compute": record_compute(),
        "suites": record_suites(),
        "curve": record_curve(),
        "figures": record_figures(),
    }
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
