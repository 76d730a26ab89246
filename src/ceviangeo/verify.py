"""Named verification suites: every theorem of the package run as data.

Each suite returns a report with one pass/fail entry per invariant and a
serialized counterexample on failure; the CLI exposes them and the
acceptance tests replay them.  All sampling is seeded and exact.

It also holds the cross-check helpers: second routes to the library's
closed forms (the normal-form chain behind ``curve.w_to_bary``, the generic
triangle map ``map_from_triangles`` behind ``locus.reconstruct_points``'s
adjugate), profiles of equivalent conditions, and samplers that feed only a
suite.  The tools that rebuild the paper's definitions are here too, since
only the checks run them: the map algebra (products, inverses as
adjugates, column normalization and line images), parallelism,
collinearity, displacement ratios, the degeneracy test, polars, tangents,
affine types, conic images and the interior test.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial

from .field import FieldElement, fe, sqrt_extending, ZERO, ONE
from .linalg import adjugate3, det3, matvec3
from .plane import (A, B, C, D0, E0, F0, G, BaryLine, BaryPoint, InfiniteLineArgument, PlaneError,
                    affine_combination, join, meet, midpoint, point_to_literal)
from .maps import (
    AffineMap,
    Configuration,
    MapError,
    MClassification,
    anticomplement,
    cevian_traces,
    classify_transfer,
    complement,
    derive_configuration,
    is_valid_point,
    isotom_complement,
    isotomic,
    orthocenter,
    transfer_center_coords,
)
from .conics import (
    Conic,
    ConicError,
    ConstructionError,
    DegenerateConic,
    circumconic_of_line,
    conic_center,
    conic_through,
    intersect_line,
    nine_point_conic,
    steiner_circumellipse,
)
from . import curve as curve_mod
from . import locus as locus_mod


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    __slots__ = ()

    def to_dict(self):
        out = {"name": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


class SuiteReport(namedtuple("SuiteReport", "suite results")):
    """The entries of one suite run, in order; ``add`` and ``check`` append."""

    __slots__ = ()

    def __new__(cls, suite: str, results: list[CheckResult] | None = None):
        return super().__new__(cls, suite, [] if results is None else results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name: str, passed: bool, detail: str = ""):
        """Record one entry.  Names are unique within a report: a name
        already taken gets the suffix " (2)", " (3)", and so on."""
        taken = {r.name for r in self.results}
        unique, k = name, 1
        while unique in taken:
            k += 1
            unique = f"{name} ({k})"
        self.results.append(CheckResult(unique, bool(passed), detail))

    def fail(self, name: str, exc: Exception):
        self.add(name, False, f"{type(exc).__name__}: {exc}")

    def check(self, name: str, fn, at: str = ""):
        """Run a predicate, recording exceptions as failures.  A tuple
        result passes when all its entries do and is the detail otherwise.
        A failing entry's detail ends with " at <at>" when ``at`` is given,
        so a point cut short in the name is still in the report whole."""
        try:
            value = fn()
        except Exception as exc:  # failures are data, not crashes
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        else:
            passed = all(value) if isinstance(value, tuple) else bool(value)
            detail = "" if passed or not isinstance(value, tuple) else repr(value)
        if at and not passed:
            detail = f"{detail} at {at}".lstrip()
        self.add(name, passed, detail)

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
        }


def _random_rational(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.randint(1, 9)
    return Fraction(num, den)


def random_valid_points(n: int, seed: int, off_locus: bool = False) -> list[BaryPoint]:
    """Seeded valid base points off the medians, with small rational
    coordinates."""
    rng = random.Random(seed)
    out: list[BaryPoint] = []
    while len(out) < n:
        coords = tuple(_random_rational(rng) for _ in range(3))
        try:
            p = BaryPoint(*coords)
        except ValueError:
            continue
        if not is_valid_point(p, off_medians=True):
            continue
        if off_locus and curve_mod.on_translation_locus(p):
            continue
        if any(p == q for q in out):
            continue
        out.append(p)
    return out


def _locus_parameters(rng: random.Random, count: int) -> list[Fraction]:
    params: list[Fraction] = []
    while len(params) < count:
        t = _random_rational(rng, -12, 12)
        if t in (0, 1, -1) or t in params:
            continue
        params.append(t)
    return params


# ---------------------------------------------------------------------------
# the incidence, ratio and conic tools that rebuild the paper's definitions


class NotCollinear(PlaneError):
    pass


class CoincidentBase(PlaneError):
    pass


class NotHomothetyOrTranslation(MapError):
    pass


class DegenerateTriangle(MapError):
    pass


class PointNotOnConic(ConicError):
    pass


class MapUndefined(curve_mod.CurveError):
    """The birational chain is not defined at this point; the reason names
    the exceptional locus."""


class BadParameter(curve_mod.CurveError):
    pass


ANTICOMPLEMENT = AffineMap.from_columns(((-1, 1, 1), (1, -1, 1), (1, 1, -1)))


def transpose3(m):
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def matmul3(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(3)), ZERO) for j in range(3))
        for i in range(3)
    )


def _normalized(m) -> AffineMap:
    """The map of a 3x3 matrix rescaled so every column sums to one."""
    sums = tuple(sum(col, ZERO) for col in zip(*m))
    if sums[0].is_zero() or sums[0] != sums[1] or sums[1] != sums[2]:
        raise MapError("matrix does not fix the infinite line")
    inv = sums[0].inverse()
    return AffineMap(tuple(tuple(x * inv for x in r) for r in m))


def collinear(p1: BaryPoint, p2: BaryPoint, p3: BaryPoint) -> bool:
    return det3((p1.coords, p2.coords, p3.coords)).is_zero()


def is_parallel(l1: BaryLine, l2: BaryLine) -> bool:
    if l1.is_infinite_line() or l2.is_infinite_line():
        raise InfiniteLineArgument("parallelism needs ordinary lines")
    if l1 == l2:
        return True
    return meet(l1, l2).is_infinite()


def _diff(p: BaryPoint, q: BaryPoint):
    pn, qn = p.normalized(), q.normalized()
    return tuple(a - b for a, b in zip(pn, qn))


def _vector_ratio(num, den):
    """num = t * den for parallel displacement vectors; returns t."""
    pivot = None
    for i in range(3):
        if not den[i].is_zero():
            pivot = i
            break
    if pivot is None:
        raise CoincidentBase("zero base displacement")
    t = num[pivot] / den[pivot]
    for i in range(3):
        if num[i] != den[i] * t:
            raise NotCollinear("displacements are not parallel")
    return t


def signed_ratio(x: BaryPoint, y: BaryPoint, z: BaryPoint) -> FieldElement:
    """The scalar t with Y - X = t*(Z - X) in absolute coordinates.

    This is the fixed convention used throughout the package: the ratio of
    the signed displacement XY to the signed displacement XZ along their
    common line.  Requires ordinary collinear arguments and Z != X.
    """
    return _vector_ratio(_diff(y, x), _diff(z, x))


def displacement_ratio(a: BaryPoint, b: BaryPoint, c: BaryPoint, d: BaryPoint) -> FieldElement:
    """(B - A)/(D - C) for parallel segments AB and CD."""
    return _vector_ratio(_diff(b, a), _diff(d, c))


def centroid(*points: BaryPoint) -> BaryPoint:
    w = fe(1) / len(points)
    return affine_combination([(p, w) for p in points])


def polar(c: Conic, p: BaryPoint) -> BaryLine:
    coords = matvec3(c.m, p.coords)
    if all(x.is_zero() for x in coords):
        raise DegenerateConic(f"{p} is a singular point of the conic")
    return BaryLine(*coords)


def tangent_at(c: Conic, p: BaryPoint) -> BaryLine:
    if not c.contains(p):
        raise PointNotOnConic(f"{p} is not on the conic")
    return polar(c, p)


def infinity_restriction(c: Conic) -> tuple[FieldElement, FieldElement, FieldElement]:
    """The binary quadratic form of the conic on the infinite line, on the
    basis (1,-1,0), (0,1,-1)."""
    v1 = BaryPoint(1, -1, 0)
    v2 = BaryPoint(0, 1, -1)
    return (c.evaluate(v1), c.pair(v1, v2), c.evaluate(v2))


def affine_type(c: Conic) -> str:
    """'ellipse', 'parabola' or 'hyperbola' by the number of real infinite points."""
    if det3(c.m).is_zero():
        raise DegenerateConic("affine type needs a nondegenerate conic")
    a, b, cc = infinity_restriction(c)
    sgn = (b * b - a * cc).sign()
    if sgn > 0:
        return "hyperbola"
    if sgn == 0:
        return "parabola"
    return "ellipse"


def conic_image(c: Conic, mapping) -> Conic:
    """The image conic under an affine map, by congruence with the inverse."""
    finv = adjugate3(mapping.rows)
    return Conic(matmul3(transpose3(finv), matmul3(c.m, finv)))


def is_interior(c: Conic, p: BaryPoint) -> bool:
    """Sign test relative to the center: true when the quadratic form has
    the same sign at p as at the center of the conic."""
    center = conic_center(c)
    sc = c.evaluate(center).sign() * center.coordinate_sum().sign() ** 2
    sp = c.evaluate(p).sign()
    if sc == 0:
        raise DegenerateConic("center lies on the conic")
    return sp == sc


# ---------------------------------------------------------------------------
# the vertex-orthocenter conditions


class VertexConditionProfile(namedtuple("VertexConditionProfile", (
        "orthocenter_at_a", "parallelogram_afqe", "f3_on_q_e0_line", "e3_on_q_f0_line"))):
    """The four equivalent characterizations of an orthocenter at vertex A,
    each a bool."""

    __slots__ = ()

    def all_equal(self) -> bool:
        return len(set(self)) == 1


def _four_collinear(p1, p2, p3, p4) -> bool:
    pts = [p1, p2, p3, p4]
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] != pts[j]:
                line = join(pts[i], pts[j])
                return all(line.contains(q) for q in pts)
    return True


def vertex_condition_profile(p: BaryPoint) -> VertexConditionProfile:
    """Evaluate the four orthocenter-at-A conditions exactly."""
    h = orthocenter(p)  # validates p first
    q = isotom_complement(p)
    _, e, f = cevian_traces(p)
    _, e3, f3 = cevian_traces(isotomic(p))
    an, en, fn, qn = (x.normalized() for x in (A, e, f, q))
    # AFQE is a parallelogram when F - A = Q - E, which is also E - A = Q - F
    para = all(fn[i] - an[i] == qn[i] - en[i] for i in range(3))
    return VertexConditionProfile(
        orthocenter_at_a=h == A,
        parallelogram_afqe=para,
        f3_on_q_e0_line=_four_collinear(f3, q, E0, complement(e3)),
        e3_on_q_f0_line=_four_collinear(e3, q, F0, complement(f3)),
    )


def verify_equivalences(seed: int = 0, n: int = 20) -> SuiteReport:
    """The four orthocenter-at-vertex conditions agree pairwise: all true on
    points of the vertex conic, identical (and false) on generic points."""
    report = SuiteReport("equivalences")
    rng = random.Random(seed)
    vl = locus_mod.vertex_locus("A")
    for t in _locus_parameters(rng, max(1, min(10, n))):
        report.check(f"on-conic t={t}",
                     lambda: vertex_condition_profile(vl.point_at(t)))
    for p in random_valid_points(n, seed + 1):
        report.check(f"generic {point_to_literal(p)}",
                     lambda: vertex_condition_profile(p).all_equal())
    return report


def verify_vertex_locus(seed: int = 0, n: int = 20) -> SuiteReport:
    """Parametrized points of each vertex conic have the right orthocenter;
    tangency, center, polar and containment facts for the vertex-A conic."""
    report = SuiteReport("vertex-locus")
    rng = random.Random(seed)
    for vertex in ("A", "B", "C"):
        vl = locus_mod.vertex_locus(vertex)
        params = _locus_parameters(rng, n)
        report.check(f"orthocenter at {vertex} on {n} conic points",
                     lambda: all(locus_mod.orthocenter_vertex(vl.point_at(t)) == vertex
                                 for t in params))
    vl = locus_mod.vertex_locus("A")
    report.check(
        "tangent at B is the anticomplement of line CA",
        lambda: tangent_at(vl.conic, B) == BaryLine(1, 0, 1),
    )
    report.check(
        "tangent at C is the anticomplement of line AB",
        lambda: tangent_at(vl.conic, C) == BaryLine(1, 1, 0),
    )
    report.check(
        "center at (1:3:3)", lambda: conic_center(vl.conic) == BaryPoint(1, 3, 3)
    )
    report.check(
        "center six sevenths along the median",
        lambda: signed_ratio(A, conic_center(vl.conic), D0) == Fraction(6, 7),
    )
    report.check(
        "polar of A is the parallel to BC through G",
        lambda: polar(vl.conic, A) == BaryLine(-2, 1, 1),
    )
    steiner = steiner_circumellipse()
    params = _locus_parameters(rng, n)
    report.check(
        f"{n} conic points interior to the Steiner circumellipse",
        lambda: all(is_interior(steiner, vl.point_at(t)) for t in params),
    )

    def trace_ratio_sq(t) -> FieldElement:
        # the trace on BC of the conic point at t, against the half side D0 C
        p = vl.point_at(t)
        r = displacement_ratio(D0, BaryPoint(ZERO, p.coords[1], p.coords[2]), D0, C)
        return r * r

    def ratio_bound():
        # strictly below 2, with equality only on the axis points
        r2 = FieldElement.root(2)
        return all((2 - trace_ratio_sq(t)).sign() > 0 for t in params) and all(
            trace_ratio_sq(t) == 2 for t in (1 + r2, 1 - r2))

    report.check("side-trace ratio bounded by sqrt(2), sharp on the axis", ratio_bound)

    def membership_iff_vertex():
        for p in random_valid_points(max(4, n // 4), seed + 3):
            if (locus_mod.orthocenter_vertex(p) == "A") != vl.conic.contains(p):
                return False
        for s in (1, -1):
            p = locus_mod.special_point(s)
            if locus_mod.orthocenter_vertex(p) != "A" or not vl.conic.contains(p):
                return False
        return True

    report.check("conic membership is equivalent to the vertex orthocenter",
                 membership_iff_vertex)
    return report


def doubled_anticomplementary_line() -> BaryLine:
    """The image of sideline BC under the anticomplement map applied twice:
    the line parallel to BC through the reflection of A in the centroid-side
    midpoint."""
    # a map M carries the line l to l adj(M)
    image = transpose3(adjugate3(ANTICOMPLEMENT.rows))
    return BaryLine(*matvec3(image, matvec3(image, (ONE, ZERO, ZERO))))


def equilateral_metric_checks():
    """(name, check) pairs: exact squared-distance checks of a special
    configuration in the Cartesian embedding with A=(0,sqrt(3)), B=(-1,0),
    C=(1,0), an equilateral triangle of side 2."""
    r3 = FieldElement.root(3)

    def cart(p: BaryPoint):
        pn = p.normalized()
        return (pn[2] - pn[1], r3 * pn[0])

    def dist2(p, q):
        pu, pv = cart(p)
        qu, qv = cart(q)
        return (pu - qu) ** 2 + (pv - qv) ** 2

    return (
        ("side_ab_sq_is_4", lambda cfg: dist2(A, B) == 4),
        ("side_bc_sq_is_4", lambda cfg: dist2(B, C) == 4),
        ("side_ca_sq_is_4", lambda cfg: dist2(C, A) == 4),
        ("d0_d_sq_is_2", lambda cfg: dist2(D0, cevian_traces(cfg.p)[0]) == 2),
        ("a_q_sq_is_2", lambda cfg: dist2(A, cfg.q) == 2),
        ("b_f3_sq_is_2", lambda cfg: dist2(B, cevian_traces(cfg.p_iso)[2]) == 2),
        ("p_iso_reflected_a_sq_is_8", lambda cfg: dist2(cfg.p_iso, anticomplement(A)) == 8),
    )


def special_configuration(sign: int = 1) -> Configuration:
    """The full derived configuration of the special point; the ``special``
    verification suite checks its defining relations."""
    return derive_configuration(locus_mod.special_point(sign))


def verify_special(seed: int = 0, n: int = 0) -> SuiteReport:
    """The two special translation points: every stated relation, plus the
    equilateral-embedding distance checks."""
    report = SuiteReport("special")
    doubled = doubled_anticomplementary_line()

    def trace_offset(cfg):
        dn = cevian_traces(cfg.p)[0].normalized()
        d0n, cn = D0.normalized(), C.normalized()
        return all((dn[i] - d0n[i]) ** 2 == 2 * (cn[i] - d0n[i]) ** 2 for i in range(3))

    def axis_line_meets_special_points(cfg):
        pts = intersect_line(cfg.circumconic, BaryLine(-2, 1, 1))
        return len(pts) == 2 and all(
            any(p == locus_mod.special_point(s) for s in (1, -1)) for p in pts
        )

    checks = (
        ("orthocenter is A", lambda cfg: cfg.h == A),
        ("circumcenter is the midpoint of BC", lambda cfg: cfg.o == D0),
        ("signed ratio of iso displacement is -3",
         lambda cfg: signed_ratio(cfg.o, cfg.p_iso, cfg.p) == -3),
        ("circumconic is the isotomic image of the doubled anticomplementary line",
         lambda cfg: doubled == BaryLine(2, 1, 1)
         and cfg.circumconic == circumconic_of_line(doubled)),
        ("transfer map is a translation",
         lambda cfg: classify_map(cfg.transfer).kind == "translation"),
        ("d3 is the midpoint of the segment to the isotomic point",
         lambda cfg: cevian_traces(cfg.p_iso)[0] == midpoint(A, cfg.p_iso)),
        ("base point is the centroid of o, d, q",
         lambda cfg: centroid(cfg.o, cevian_traces(cfg.p)[0], cfg.q) == cfg.p),
        ("image of d3 is the midpoint of o and d",
         lambda cfg: cfg.t_p.apply(cevian_traces(cfg.p_iso)[0])
         == midpoint(cfg.o, cevian_traces(cfg.p)[0])),
        ("squared trace offset doubles the squared half-side", trace_offset),
        ("o and its reflection lie on the iso line",
         lambda cfg: collinear(cfg.o, cfg.p, cfg.p_iso)
         and collinear(cfg.o_iso, cfg.p, cfg.p_iso)),
        ("the axis-parallel line meets the circumconic in the two special points",
         axis_line_meets_special_points),
    )
    # each variant is derived once, inside the first entry that reads it
    configs = {sign: cache(partial(special_configuration, sign)) for sign in (1, -1)}
    for sign, cfg in configs.items():
        tag = "+" if sign > 0 else "-"
        for name, fn in checks:
            report.check(f"variant {tag}: {name}", lambda: fn(cfg()))
    for name, fn in equilateral_metric_checks():
        report.check(f"equilateral embedding: {name}", lambda: fn(configs[1]()))
    return report


def translation_condition_profile(cfg) -> tuple[bool, ...]:
    """The six equivalent characterizations of a translation transfer map."""
    c1 = midpoint(cfg.o, cfg.q_iso) == midpoint(cfg.q, cfg.o_iso)
    c2 = cfg.circumconic.contains(cfg.p)
    line = join(cfg.p, cfg.p_iso)
    c3 = line.contains(cfg.o) and line.contains(cfg.o_iso)
    c4 = collinear(cfg.z, cfg.q, cfg.q_iso)
    try:
        c5 = displacement_ratio(G, cfg.z, cfg.z, cfg.v) == Fraction(1, 3)
    except PlaneError:  # z = v, or z or v infinite; G, z and v are always collinear
        c5 = False
    c6 = cfg.u == complement(cfg.v)
    return (c1, c2, c3, c4, c5, c6)


def translation_consequence_profile(cfg) -> tuple[bool, ...]:
    """Five consequences of a translation transfer map."""
    c1 = midpoint(cfg.h, cfg.p) == midpoint(cfg.u, cfg.v)
    c2 = cfg.t_p.apply(cfg.p) == midpoint(cfg.h, cfg.v)
    c3 = cfg.t_p.apply(cfg.p_iso) == cfg.o
    chain = (cfg.p_iso, cfg.o_iso, cfg.u, cfg.o, cfg.p)
    c4 = all(
        displacement_ratio(chain[i], chain[i + 1], chain[i + 1], chain[i + 2]) == 1
        for i in range(3)
    )
    c5 = tangent_at(cfg.cevian_conic, cfg.h) == join(cfg.o, cfg.h)
    return (c1, c2, c3, c4, c5)


def classify_map(m: AffineMap) -> MClassification:
    """Read the linear part of a homothety or translation off its matrix:
    the second route to ``maps.classify_transfer``."""
    n = m.rows
    # the images of the infinite points (1 : -1 : 0) and (0 : 1 : -1)
    w1 = tuple(r[0] - r[1] for r in n)
    w2 = tuple(r[1] - r[2] for r in n)
    k = w1[0]
    if w1[1] != -k or not w1[2].is_zero():
        raise NotHomothetyOrTranslation(f"linear part is not scalar: {m}")
    k2 = w2[1]
    if w2[2] != -k2 or not w2[0].is_zero():
        raise NotHomothetyOrTranslation(f"linear part is not scalar: {m}")
    if k != k2:
        raise NotHomothetyOrTranslation(f"linear part has two eigenvalues: {m}")
    col = (n[0][0] - k, n[1][0], n[2][0])
    if all(c.is_zero() for c in col):
        raise NotHomothetyOrTranslation("transfer map is the identity")
    center = BaryPoint(*col)
    if k == 1:
        return MClassification("translation", None, center)
    return MClassification("homothety", k, center)


def orthocenter_matches_definition(cfg) -> bool:
    """Independent check of the orthocenter: the line from each vertex to h
    is parallel to the line from q to the corresponding cevian trace.
    Pairs where either line degenerates are skipped."""
    traces = cevian_traces(cfg.p)
    checked = 0
    for vertex, trace in zip((A, B, C), traces):
        if cfg.h == vertex or cfg.q == trace:
            continue
        l1 = join(cfg.h, vertex)
        l2 = join(cfg.q, trace)
        if not is_parallel(l1, l2):
            return False
        checked += 1
    return checked > 0


def composed_transfer(t_p: AffineMap, t_p_iso: AffineMap) -> AffineMap:
    """The transfer map as its definition builds it: the cevian map of p
    after the anticomplement after the cevian map of the isotomic conjugate."""
    return _normalized(matmul3(matmul3(t_p.rows, ANTICOMPLEMENT.rows), t_p_iso.rows))


def transfer_matches_composition(cfg) -> bool:
    """The closed-form transfer map equals the composition entry by entry,
    and reading the composition's matrix gives the closed-form
    classification: the same kind, ratio and center."""
    m = composed_transfer(cfg.t_p, cfg.t_p_iso)
    return cfg.transfer.rows == m.rows and classify_map(m) == classify_transfer(cfg.p)


def construction_profile(cfg) -> tuple[bool, ...]:
    """The closed forms of a configuration against the constructions that
    define them: the parallels through the vertices for the orthocenter, the
    inverse cevian map of the isotomic conjugate for the circumcenter, the
    image of the nine-point conic for the circumconic, tangency at the
    traces and the center for the inconic, the five-point fit for the
    cevian conic, and the composition of cevian maps for the transfer map."""
    c1 = orthocenter_matches_definition(cfg)
    t_inv = AffineMap(adjugate3(cfg.t_p_iso.rows))
    c2 = cfg.o == t_inv.apply(complement(cfg.q))
    c3 = cfg.circumconic == conic_image(nine_point_conic(cfg.p_iso), t_inv)
    sides = (BaryLine(1, 0, 0), BaryLine(0, 1, 0), BaryLine(0, 0, 1))
    c4 = all(
        cfg.inconic.contains(t) and polar(cfg.inconic, t) == side
        for t, side in zip(cevian_traces(cfg.p), sides)
    ) and conic_center(cfg.inconic) == cfg.q
    c5 = cfg.cevian_conic == conic_through(A, B, C, cfg.p, cfg.q)
    c6 = transfer_matches_composition(cfg)
    return (c1, c2, c3, c4, c5, c6)


def verify_translation_criteria(seed: int = 0, n: int = 10) -> SuiteReport:
    """The six translation conditions evaluate identically at each point and
    hold exactly on the locus; at each point the closed forms also match
    their defining constructions."""
    report = SuiteReport("translation")
    samples = [(p, True) for p in curve_mod.sample_translation_points(n, seed=seed)]
    samples += [(p, False) for p in random_valid_points(n, seed + 1, off_locus=True)]
    for p, on_locus in samples:
        # one derivation per point, made inside the first entry that reads it
        cfg = cache(partial(derive_configuration, p))
        literal = point_to_literal(p)
        # an on-locus name cuts the point short; a failing entry carries it whole
        name = f"on-locus {literal[:48]}" if on_locus else f"off-locus {literal}"
        report.check(name, lambda: _translation_flags(cfg(), on_locus), literal)
        report.check(f"constructions {name}", lambda: construction_profile(cfg()), literal)
    return report


def _translation_flags(cfg, on_locus: bool) -> tuple[bool, ...]:
    """The six translation conditions, then whether the transfer map is a
    translation; each flag is True when it matches the side of the locus
    the base point is on.  A transfer map that is neither a homothety nor a
    translation raises, which the calling check records as a failure."""
    flags = translation_condition_profile(cfg) + (classify_map(cfg.transfer).kind == "translation",)
    return flags if on_locus else tuple(not f for f in flags)


def verify_translation_consequences(seed: int = 0, n: int = 10) -> SuiteReport:
    report = SuiteReport("consequences")
    for p in curve_mod.sample_translation_points(n, seed=seed):
        literal = point_to_literal(p)
        report.check(f"consequences at {literal[:48]}",
                     lambda: translation_consequence_profile(derive_configuration(p)), literal)
    return report


# ---------------------------------------------------------------------------
# the torsion table, and the normal-form chain behind ``curve.w_to_bary``


def torsion_addition_table() -> list[list[int]]:
    """The 12x12 group table of the torsion points, as indices into
    curve.torsion_points(); raises if the set were not closed under addition."""
    pts = curve_mod.torsion_points()
    table = []
    for p in pts:
        row = []
        for q in pts:
            s = p + q
            index = next((i for i, t in enumerate(pts) if t == s), None)
            if index is None:
                raise curve_mod.CurveError(f"{p} + {q} is not among the torsion points")
            row.append(index)
        table.append(row)
    return table


def is_torsion(p: curve_mod.WPoint) -> bool:
    return any(p == t for t in curve_mod._torsion_group())


def _nf_residual(a, x, y) -> FieldElement:
    """The left side of the member with parameter a, evaluated at (x, y)."""
    lead = a * x + 1
    return lead * y * y + lead * (x - 1) * y + x * x - x


def _nf_y_discriminant(a, x) -> FieldElement:
    """Discriminant in y of the member with parameter a at a given x."""
    lead = a * x + 1
    return lead * lead * (x - 1) * (x - 1) - 4 * lead * (x * x - x)


@cache
def _x_pool_size() -> int:
    """How many values x = p/q NormalFormCurve.sample can draw."""
    return len({Fraction(p, q) for p in range(-40, 41) for q in range(1, 13)} - {0, 1})


class NormalFormCurve:
    """The family (a*x+1)y^2 + (a*x+1)(x-1)y + x^2 - x = 0.

    Points of the member with parameter a, read as absolute barycentric
    coordinates (x, y, 1-x-y), are exactly the base points whose transfer
    map is a homothety with ratio 4/(a+1); parameters 3, 0, -1 and 9 are
    excluded.
    """

    EXCLUDED = (3, 0, -1, 9)

    def __init__(self, a):
        a = fe(a)
        if any(a == bad for bad in self.EXCLUDED):
            raise BadParameter(f"parameter {a} is excluded")
        self.a = a

    def residual(self, x, y) -> FieldElement:
        return _nf_residual(self.a, fe(x), fe(y))

    def contains(self, x, y) -> bool:
        return self.residual(x, y).is_zero()

    def y_discriminant(self, x) -> FieldElement:
        """Discriminant of the defining equation in y at a given x."""
        return _nf_y_discriminant(self.a, fe(x))

    def points_at(self, x) -> list[tuple[FieldElement, FieldElement]]:
        """The (up to two) real curve points above x, adjoining one square
        root when necessary."""
        x = fe(x)
        lead = self.a * x + 1
        if lead.is_zero():
            return []
        disc = self.y_discriminant(x)
        if disc.sign() < 0:
            return []
        root = sqrt_extending(disc)
        xr = x.in_tower(root.tower)
        out = []
        for sgn in (1, -1):
            y = (-(self.a * xr + 1) * (xr - 1) + sgn * root) / (2 * (self.a * xr + 1))
            out.append((xr, y))
        if root.is_zero():
            out = out[:1]
        return out

    def sample(self, n: int, seed: int = 0) -> list[tuple[FieldElement, FieldElement]]:
        """n seeded points with rational x, each over a tower of depth <= 1.
        Raises curve.SampleTooLarge once every x of the pool has been drawn
        and the points above them number fewer than n."""
        rng = random.Random(seed)
        out = []
        seen = set()
        while len(out) < n:
            if len(seen) == _x_pool_size():
                raise curve_mod.SampleTooLarge(
                    f"the {len(seen)} values of x give {len(out)} points, fewer than {n}")
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if x in seen or x in (0, 1):
                continue
            seen.add(x)
            for pt in self.points_at(x):
                if len(out) < n and not pt[1].is_zero():
                    out.append(pt)
        return out


def translation_y_discriminant(x) -> FieldElement:
    """Discriminant in y of the translation normal form at a given x."""
    return _nf_y_discriminant(3, fe(x))


class NFPoint(namedtuple("NFPoint", "x y")):
    """An affine point (x, y) of the translation-locus normal form, with
    FieldElement coordinates."""

    __slots__ = ()

    def __new__(cls, x: FieldElement, y: FieldElement):
        if not _nf_residual(3, x, y).is_zero():
            raise curve_mod.OffCurve(f"({x}, {y}) is not on the normal-form curve")
        return super().__new__(cls, x, y)

    @classmethod
    def of(cls, x, y) -> NFPoint:
        return cls(fe(x), fe(y))


def bary_to_nf(p: BaryPoint) -> NFPoint:
    if not curve_mod.on_translation_locus(p):
        raise curve_mod.OffCurve(f"{p} is not on the translation locus")
    if p.is_infinite():
        raise MapUndefined("infinite points have no absolute coordinates")
    x, y, _ = p.normalized()
    return NFPoint(x, y)


def nf_to_bary(p: NFPoint) -> BaryPoint:
    return BaryPoint(p.x, p.y, 1 - p.x - p.y)


def nf_to_w(p: NFPoint) -> curve_mod.WPoint:
    """Complete the square (Y = (3x+1)(2y+x-1), with Y^2 equal to the
    discriminant (x-1)(3x+1)(3x^2-6x-1)) and move the quartic to the
    Weierstrass model by u = (3x+1)/(1-x), v = Y(u+3)^2/8."""
    if p.x == 1:
        raise MapUndefined("x=1 corresponds to the point at infinity")
    big_y = (3 * p.x + 1) * (2 * p.y + p.x - 1)
    u = (3 * p.x + 1) / (1 - p.x)
    v = big_y * (u + 3) ** 2 / 8
    return curve_mod.WPoint(u, v)


def w_to_nf(w: curve_mod.WPoint) -> NFPoint:
    if w.is_infinity():
        raise MapUndefined("the base point maps to the vertex (1:0:0)")
    if w.u == -3:
        raise MapUndefined("u=-3 corresponds to an infinite barycentric point")
    if w.u.is_zero():
        raise MapUndefined("u=0 corresponds to an infinite barycentric point")
    x = (w.u - 1) / (w.u + 3)
    big_y = 8 * w.v / (w.u + 3) ** 2
    y = (big_y / (3 * x + 1) - (x - 1)) / 2
    return NFPoint(x, y)


def bary_to_w(p: BaryPoint) -> curve_mod.WPoint:
    for wp, bary in curve_mod._TORSION_BARY_LIMITS:
        if p == bary:
            return wp
    return nf_to_w(bary_to_nf(p))


def median_torsion_bary() -> list[BaryPoint]:
    """The six translation-locus points on the medians, in conjugate pairs."""
    r3 = FieldElement.root(3)
    lo = fe(-2) + r3
    hi = fe(-2) - r3
    return [
        BaryPoint(1, lo, lo),
        BaryPoint(1, hi, hi),
        BaryPoint(lo, 1, lo),
        BaryPoint(hi, 1, hi),
        BaryPoint(lo, lo, 1),
        BaryPoint(hi, hi, 1),
    ]


# P -> P + T on the cubic under w_to_bary, for T in rational_torsion() order:
# whether isotomic conjugation (yz : xz : xy) comes first, then the new
# coordinate order as indices into (x, y, z); P -> -P swaps y and z
_TORSION_SYMMETRIES = (
    (False, (0, 1, 2)),  # O: the identity
    (True, (0, 1, 2)),  # (0, 0)
    (False, (2, 0, 1)),  # (1, 2): (z, x, y)
    (False, (1, 2, 0)),  # (1, -2): (y, z, x)
    (True, (2, 0, 1)),  # (-3, 6) = (0, 0) + (1, 2)
    (True, (1, 2, 0)),  # (-3, -6) = (0, 0) + (1, -2)
)
_NEGATION_SYMMETRY = (False, (0, 2, 1))


def _triangle_symmetry(p: BaryPoint, symmetry) -> BaryPoint:
    iso, order = symmetry
    c = (isotomic(p) if iso else p).coords
    return BaryPoint(*(c[i] for i in order))


def verify_curve(seed: int = 0, n: int = 20) -> SuiteReport:
    """Curve arithmetic: invariants, named multiples, torsion structure,
    the discriminant identity, the birational chain, the cubic against the
    transfer map's center, the intersection with the vertex conic, and the
    homothety-ratio law of the normal-form family."""
    report = SuiteReport("curve")
    rng = random.Random(seed)
    report.check("j invariant is 54000", lambda: curve_mod.curve_invariants()["j"] == 54000)
    report.check("c4 is 720", lambda: curve_mod.curve_invariants()["c4"] == 720)
    report.check("discriminant is 6912", lambda: curve_mod.curve_invariants()["disc"] == 6912)
    r2 = FieldElement.root(2)
    gen = curve_mod.GENERATOR
    report.check(
        "double of the generator",
        lambda: 2 * gen == curve_mod.WPoint.of(fe("1/2"), r2 / 4),
    )
    report.check(
        "fourth multiple of the generator",
        lambda: 4 * gen == curve_mod.WPoint.of(fe("169/8"), fe("-2483/32") * r2),
    )

    def multiples_on_curve():
        # group-law results skip the constructor's check, so evaluate the
        # cubic on a seeded sample of k*G + T
        sample_rng = random.Random(seed + 3)
        torsion = curve_mod.rational_torsion()
        points = [sample_rng.choice((1, -1)) * sample_rng.randint(1, 40) * gen
                  + sample_rng.choice(torsion) for _ in range(8)]
        return tuple(curve_mod._rhs(w.u) == w.v * w.v for w in points)

    report.check("generator multiples lie on the curve", multiples_on_curve)
    report.check(
        "twist multiples equal chord-tangent multiples up to 24",
        lambda: all(k * gen == curve_mod.chord_tangent_multiple(gen, k) for k in range(1, 25)),
    )

    def translations_match_chords():
        # WPoint.__add__ translates a twist-image point by a rational torsion
        # point in closed form; the chord-tangent sum is the reference
        k = random.Random(seed + 5).randint(2, 12)
        out = []
        for p in (k * gen, -k * gen):
            for t in curve_mod.rational_torsion()[1:]:
                for a, b in ((p, t), (t, p)):
                    chord = curve_mod._chord_tangent((a.u, a.v), (b.u, b.v))
                    out.append(a + b == curve_mod._wpoint(chord))
        return tuple(out)

    report.check("torsion translations equal the chord-tangent sum", translations_match_chords)
    report.check("torsion order census {1:1, 2:3, 3:2, 6:6}",
                 lambda: curve_mod.torsion_order_census() == {1: 1, 2: 3, 3: 2, 6: 6})
    report.check("torsion closes under addition",
                 lambda: bool(torsion_addition_table()))
    report.check(
        "generator multiples up to 24 avoid the torsion group",
        lambda: all(not is_torsion(k * gen) for k in range(1, 25)),
    )

    def disc_identity():
        seen = set()
        while len(seen) < n:
            x = _random_rational(rng, -20, 20)
            if x in seen:
                continue
            seen.add(x)
            x_fe = fe(x)
            target = (x_fe - 1) * (3 * x_fe + 1) * (3 * x_fe * x_fe - 6 * x_fe - 1)
            if translation_y_discriminant(x_fe) != target:
                return False
        return True

    report.check(f"y-discriminant factors as stated at {n} rational x", disc_identity)

    report.check(
        "birational chain round-trips on samples",
        lambda: all(curve_mod.w_to_bary(bary_to_w(p)) == p
                    for p in curve_mod.sample_translation_points(8, seed=seed + 2)),
    )
    # translation_cubic evaluates the symmetric form (x+y+z)(xy+yz+zx) + 3xyz
    report.check(
        "the translation cubic is the coordinate sum of the transfer map's center",
        lambda: tuple(curve_mod.translation_cubic(p) == sum(transfer_center_coords(p), ZERO)
                      for p in random_valid_points(4, seed + 4, off_locus=True)
                      + curve_mod.sample_translation_points(4, seed=seed + 2)),
    )
    report.check(
        "rational torsion corresponds to the vertices and the side directions",
        lambda: [curve_mod.w_to_bary(t) for t in curve_mod.rational_torsion()]
        == [
            A,
            BaryPoint(0, 1, -1),
            B,
            C,
            BaryPoint(1, 0, -1),
            BaryPoint(1, -1, 0),
        ],
    )

    def torsion_symmetries():
        p = random.Random(seed + 6).randint(1, 12) * gen
        base = curve_mod.w_to_bary(p)
        out = []
        for q, image in ((p, base), (-p, _triangle_symmetry(base, _NEGATION_SYMMETRY))):
            for t, symmetry in zip(curve_mod.rational_torsion(), _TORSION_SYMMETRIES):
                out.append(curve_mod.w_to_bary(q + t) == _triangle_symmetry(image, symmetry))
        return tuple(out)

    report.check("rational torsion acts by the triangle's symmetries", torsion_symmetries)

    def median_correspondence():
        mt = median_torsion_bary()
        images = [curve_mod.w_to_bary(t) for t in curve_mod.torsion_points()[6:]]
        return all(any(i == m for m in mt) for i in images) and all(
            any(i == m for i in images) for m in mt
        )

    report.check("median torsion corresponds to the median points", median_correspondence)

    def vertex_conic_intersection():
        # restrict the cubic to the rational parametrization of the vertex-A
        # conic; the degree-6 parameter polynomial is determined by 7 values
        vl = locus_mod.vertex_locus("A")

        def cubic_at(t: Fraction) -> FieldElement:
            x = fe(1 + t)
            y = fe(1 - t)
            z = fe(t) * (1 + t)
            return curve_mod.translation_cubic(BaryPoint(x, y, z))

        def target(t: Fraction) -> FieldElement:
            tt = fe(t)
            return -2 * (tt + 1) ** 2 * (tt * tt - 2 * tt - 1)

        if not all(cubic_at(Fraction(k)) == target(Fraction(k)) for k in range(-3, 4)):
            return False
        # roots: a double point at t=-1 (vertex B), the two axis parameters
        # 1 +- sqrt(2), and a double degree drop at infinity (vertex C)
        r2 = FieldElement.root(2)
        for t in (1 + r2, 1 - r2):
            p = vl.point_at(t)
            if not curve_mod.on_translation_locus(p):
                return False
            if not any(p == locus_mod.special_point(s) for s in (1, -1)):
                return False
        # tangent agreement (multiplicity two) at B and C
        def cubic_tangent(v: BaryPoint) -> BaryLine:
            x, y, z = v.coords
            fx = (y + z) ** 2 + 2 * y * (x + z) + 2 * z * (x + y)
            fy = 2 * x * (y + z) + (x + z) ** 2 + 2 * z * (x + y)
            fz = 2 * x * (y + z) + 2 * y * (x + z) + (x + y) ** 2
            return BaryLine(fx, fy, fz)

        return tangent_at(vl.conic, B) == cubic_tangent(B) and tangent_at(
            vl.conic, C
        ) == cubic_tangent(C)

    report.check(
        "locus meets the vertex conic in the two vertices (doubly) and the special points",
        vertex_conic_intersection,
    )

    for a in (2, 5, -3):
        def homothety_law(a=a):
            nf = NormalFormCurve(fe(a))
            want = fe(4) / (fe(a) + 1)
            found = 0
            attempt = 0
            while found < 5 and attempt < 60:
                attempt += 1
                for x, y in nf.sample(1, seed=seed + attempt * 101 + a):
                    p = BaryPoint(x, y, 1 - x - y)
                    if not is_valid_point(p, off_medians=True):
                        continue
                    cls = classify_transfer(p)
                    if cls.kind != "homothety" or cls.ratio != want:
                        return False
                    found += 1
            return found >= 5

        report.check(f"family member a={a} gives homothety ratio 4/(a+1)", homothety_law)
    return report


def frame_profile(frame) -> tuple[bool, ...]:
    """The identities of the construction frame.  Each of the first eight
    names a member that no other entry reads, so changing one member fails
    one entry: z is the center of the parallelogram h-u-p-v, whose fourth
    vertex v = h + p - u; q, q_iso and o are the midpoints of its sides p v,
    h u and u p; g is the centroid of h, u and p (where the diagonal u v
    meets the line h o); e and f lie on the conic and g is their midpoint,
    which holds exactly when the secant's direction is conjugate to g; the
    conic is the five-point fit through p, q, h, q_iso and p_iso.  The last
    is the labelling e = g - k*d, which ``locus.construction_frame`` takes
    in closed form: e and q_iso lie on one side of the axis and f on the
    other, each normalized and signed on its own.  It reads the axis as the
    diagonal u v, through g and z, so exchanging e and f fails it alone."""
    h, u, p = frame.h, frame.u, frame.p
    fourth = affine_combination([(h, 1), (p, 1), (u, -1)])
    axis = join(u, frame.v).coords

    def side(x: BaryPoint) -> int:
        return sum((a * b for a, b in zip(axis, x.normalized())), ZERO).sign()

    return (
        frame.z == midpoint(h, p),
        frame.v == fourth,
        frame.q == midpoint(p, fourth),
        frame.q_iso == midpoint(h, u),
        frame.o == midpoint(u, p),
        frame.g == centroid(h, u, p),
        (frame.conic.contains(frame.e) and frame.conic.contains(frame.f)
         and frame.g == midpoint(frame.e, frame.f)),
        frame.conic == conic_through(p, frame.q, h, frame.q_iso, frame.p_iso),
        side(frame.e) == side(frame.q_iso) == -side(frame.f) != 0,
    )


def reflect_conic(c: Conic, center: BaryPoint) -> Conic:
    """The image of the conic under the half-turn about an ordinary point."""
    cn = center.normalized()
    # half-turn matrix 2*center*ones^T - identity: it is its own inverse and
    # has determinant 1, so it is its own adjugate
    half_turn = tuple(
        tuple(2 * cn[i] - (ONE if i == j else ZERO) for j in range(3)) for i in range(3)
    )
    return conic_image(c, AffineMap(half_turn))


def chord_matches_reflection(frame, a1: BaryPoint) -> bool:
    """``locus._chord`` against its definition: the frame conic minus its
    half-turn image about the complement of a1 is (x+y+z) times the chord
    as a quadratic form, entry by entry (both zero at the conic's center)."""
    c = frame.conic.m
    r = reflect_conic(frame.conic, complement(a1)).m
    chord, _ = locus_mod._chord(frame, complement(a1).normalized())
    return all(2 * (c[i][j] - r[i][j]) == chord[i] + chord[j]
               for i in range(3) for j in range(3))


def map_from_triangles(src, dst) -> AffineMap:
    """The unique affine map sending the first triangle onto the second."""
    s, d = (AffineMap.from_columns([p.normalized() for p in tri]).rows for tri in (src, dst))
    if det3(s).is_zero() or det3(d).is_zero():
        raise DegenerateTriangle("triangle vertices are collinear")
    return _normalized(matmul3(d, adjugate3(s)))


def admissible_vertex_samples(frame, n: int, seed: int = 0) -> list[BaryPoint]:
    """n admissible vertices on the frame conic over a depth-2 tower, pulled
    back from translation samples without building their frames: the map
    through the triangles h G p (orthocenter, centroid, sample) sends A to
    the vertex.  As every frame's g = G is the centroid of h, u and p, it is
    the map through the triangles h u p.  It fixes G, so it carries the
    sample frame's inscribed triangle ABC onto one inscribed in this conic
    with centroid G: every vertex is admissible and none is filtered."""
    out: list[BaryPoint] = []
    batch = max(2 * n, 6)
    for p2 in curve_mod.sample_translation_points(batch, seed=seed):
        if len(out) >= n:
            break
        if p2 == frame.p:
            continue
        pull = map_from_triangles((orthocenter(p2), G, p2), (frame.h, G, frame.p))
        a1 = pull.apply(A)
        if not frame.conic.contains(a1):
            raise ConstructionError("pullback vertex left the frame conic")
        if all(a1 != prev for prev in out):  # (k, T) and (-k, -T) give one vertex
            out.append(a1)
    if len(out) < n:
        raise locus_mod.LocusError(f"could only build {len(out)} admissible samples")
    return out


def verify_construction(seed: int = 0, n: int = 5) -> SuiteReport:
    """The inscribed-triangle construction on the canonical frame."""
    _check_count("construction", n)
    report = SuiteReport("construction")

    def projectivity_cycles(frame):
        return (locus_mod.half_turn_projectivity(frame, frame.u) == frame.z
                and locus_mod.half_turn_projectivity(frame, frame.z) == frame.v
                and locus_mod.half_turn_projectivity(frame, frame.v) == frame.u)

    def cycle_order_three(frame):
        y0 = midpoint(frame.g, frame.z)
        y = y0
        for _ in range(3):
            y = locus_mod.half_turn_projectivity(frame, y)
        return y == y0

    def asymptote_identity(frame):
        # each line meets the conic once, at one of its two infinite points
        points = []
        for mid in (midpoint(frame.e, frame.g), midpoint(frame.g, frame.f)):
            pts = intersect_line(frame.conic, join(frame.z, mid))
            if len(pts) != 1 or not pts[0].is_infinite():
                return False
            points += pts
        return points[0] != points[1]

    def reconstructs_reference(frame):
        b1, c1 = locus_mod.inscribed_triangle(frame, A)
        return (b1 == B and c1 == C) or (b1 == C and c1 == B)

    def orientations_at_a(frame):
        return locus_mod.reconstruct_points(frame, A) == (frame.p, locus_mod.special_point(-1))

    def reconstruction_lands_on_locus(frame):
        for a1 in samples():
            for p in locus_mod.reconstruct_points(frame, a1):
                if not curve_mod.on_translation_locus(p):
                    return False
                if classify_transfer(p).kind != "translation":
                    return False
        return True

    checks = (
        ("canonical frame construction", lambda frame: True),
        ("frame identities", frame_profile),
        ("projectivity cycles u -> z -> v -> u", projectivity_cycles),
        ("projectivity has order three on a fourth axis point", cycle_order_three),
        ("frame conic is a hyperbola", lambda frame: affine_type(frame.conic) == "hyperbola"),
        ("lines from the center to the secant midpoints are the asymptotes",
         asymptote_identity),
        ("inscribed triangle at A reconstructs the reference triangle",
         reconstructs_reference),
        ("orientation 1 at A gives back p, orientation 2 the other special point",
         orientations_at_a),
        ("A is admissible", lambda frame: locus_mod.admissible(frame, A)),
        ("q is not admissible", lambda frame: not locus_mod.admissible(frame, frame.q)),
        ("q_iso is not admissible",
         lambda frame: not locus_mod.admissible(frame, frame.q_iso)),
        ("p_iso is not admissible",
         lambda frame: not locus_mod.admissible(frame, frame.p_iso)),
        ("e is not admissible", lambda frame: not locus_mod.admissible(frame, frame.e)),
        (f"{n} admissible samples reconstruct translation points",
         reconstruction_lands_on_locus),
        ("the inscribed chord is the common chord of the conic and its half-turn image",
         lambda frame: all(chord_matches_reflection(frame, a1) for a1 in [A] + samples())),
    )
    # the frame and the samples are built once, inside the first entry that
    # reads them
    frame = cache(locus_mod.canonical_frame)
    samples = cache(lambda: admissible_vertex_samples(frame(), n, seed=seed))
    for name, fn in checks:
        report.check(name, lambda: fn(frame()))
    return report


SUITES = {
    "equivalences": verify_equivalences,
    "vertex-locus": verify_vertex_locus,
    "special": verify_special,
    "translation": verify_translation_criteria,
    "consequences": verify_translation_consequences,
    "curve": verify_curve,
    "construction": verify_construction,
}


def _check_count(name: str, n: int) -> None:
    """Refuse a sample count outside the suite's bound before the suite
    starts: curve.SAMPLE_BOUND, halved for construction, which pulls its
    admissible samples back from a batch of 2n translation points."""
    bound = curve_mod.SAMPLE_BOUND // (2 if name == "construction" else 1)
    if not 0 <= n <= bound:
        raise curve_mod.SampleTooLarge(f"sample size {n} is outside 0..{bound}")


def run_suite(name: str, seed: int = 0, n: int | None = None) -> SuiteReport:
    """Run one suite; an exception escaping it is the suite's one failing entry."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if n is not None:
        _check_count(name, n)
    try:
        return SUITES[name](seed=seed) if n is None else SUITES[name](seed=seed, n=n)
    except Exception as exc:  # failures are data, not crashes
        report = SuiteReport(name)
        report.fail("suite ran to completion", exc)
        return report


def run_all(seed: int = 0, n: int | None = None) -> list[SuiteReport]:
    """Every suite in order; a count that any suite refuses stops all of them
    before the first one runs."""
    if n is not None:
        for name in SUITES:
            _check_count(name, n)
    return [run_suite(name, seed=seed, n=n) for name in SUITES]
