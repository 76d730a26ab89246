"""Named verification suites: every theorem of the package run as data.

Each suite returns a report with one pass/fail entry per invariant and a
serialized counterexample on failure; the CLI exposes them and the
acceptance tests replay them.  All sampling is seeded and exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .field import FieldElement, fe, ZERO
from .plane import (
    A,
    B,
    C,
    D0,
    G,
    BaryLine,
    BaryPoint,
    PlaneError,
    affine_combination,
    centroid,
    collinear,
    displacement_ratio,
    join,
    midpoint,
    point_to_literal,
    signed_ratio,
)
from .maps import (
    ANTICOMPLEMENT,
    AffineMap,
    cevian_traces,
    classify_map,
    classify_transfer,
    complement,
    derive_configuration,
    is_valid_point,
    orthocenter_matches_definition,
)
from .conics import (
    affine_type,
    circumconic_of_line,
    conic_center,
    conic_image,
    conic_through,
    intersect_line,
    is_interior,
    nine_point_conic,
    polar,
    steiner_circumellipse,
    tangent_at,
)
from . import curve as curve_mod
from . import locus as locus_mod


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self):
        out = {"name": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    suite: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.results.append(CheckResult(name, bool(passed), detail))

    def check(self, name: str, fn):
        """Run a predicate, recording exceptions as failures.  A tuple
        result passes when all its entries do and is the detail otherwise."""
        try:
            value = fn()
        except Exception as exc:  # failures are data, not crashes
            self.add(name, False, f"{type(exc).__name__}: {exc}")
            return
        if isinstance(value, tuple):
            self.add(name, all(value), "" if all(value) else repr(value))
        else:
            self.add(name, bool(value))

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


def verify_equivalences(seed: int = 0, n: int = 20) -> SuiteReport:
    """The four orthocenter-at-vertex conditions agree pairwise: all true on
    points of the vertex conic, identical (and false) on generic points."""
    report = SuiteReport("equivalences")
    rng = random.Random(seed)
    vl = locus_mod.vertex_locus("A")
    for t in _locus_parameters(rng, max(1, min(10, n))):
        p = vl.point_at(t)
        prof = locus_mod.vertex_condition_profile(p)
        report.add(
            f"on-conic t={t}",
            prof.all_equal() and prof.orthocenter_at_a,
            "" if prof.all_equal() else point_to_literal(p),
        )
    for p in random_valid_points(n, seed + 1):
        prof = locus_mod.vertex_condition_profile(p)
        report.add(
            f"generic {point_to_literal(p)}",
            prof.all_equal(),
            repr(tuple(prof)) if not prof.all_equal() else "",
        )
    return report


def verify_vertex_locus(seed: int = 0, n: int = 20) -> SuiteReport:
    """Parametrized points of each vertex conic have the right orthocenter;
    tangency, center, polar and containment facts for the vertex-A conic."""
    report = SuiteReport("vertex-locus")
    rng = random.Random(seed)
    for vertex in ("A", "B", "C"):
        vl = locus_mod.vertex_locus(vertex)
        bad = next((t for t in _locus_parameters(rng, n)
                    if locus_mod.orthocenter_vertex(vl.point_at(t)) != vertex), None)
        report.add(f"orthocenter at {vertex} on {n} conic points", bad is None,
                   "" if bad is None else f"t={bad}")
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


def verify_special(seed: int = 0, n: int = 0) -> SuiteReport:
    """The two special translation points: every stated relation, plus the
    equilateral-embedding distance checks."""
    report = SuiteReport("special")
    doubled = locus_mod.doubled_anticomplementary_line()
    for sign in (1, -1):
        tag = "+" if sign > 0 else "-"
        try:
            cfg = locus_mod.special_configuration(sign)
        except Exception as exc:
            report.add(f"variant {tag} construction", False, str(exc))
            continue
        d = cevian_traces(cfg.p)[0]
        d3 = cevian_traces(cfg.p_iso)[0]

        def trace_offset():
            dn, d0n, cn = d.normalized(), D0.normalized(), C.normalized()
            return all((dn[i] - d0n[i]) ** 2 == 2 * (cn[i] - d0n[i]) ** 2 for i in range(3))

        def axis_line_meets_special_points():
            pts = intersect_line(cfg.circumconic, BaryLine(-2, 1, 1))
            return len(pts) == 2 and all(
                any(p == locus_mod.special_point(s) for s in (1, -1)) for p in pts
            )

        checks = (
            ("orthocenter is A", lambda: cfg.h == A),
            ("circumcenter is the midpoint of BC", lambda: cfg.o == D0),
            ("signed ratio of iso displacement is -3",
             lambda: signed_ratio(cfg.o, cfg.p_iso, cfg.p) == -3),
            ("circumconic is the isotomic image of the doubled anticomplementary line",
             lambda: doubled == BaryLine(2, 1, 1)
             and cfg.circumconic == circumconic_of_line(doubled)),
            ("transfer map is a translation",
             lambda: classify_map(cfg.transfer).is_translation()),
            ("d3 is the midpoint of the segment to the isotomic point",
             lambda: d3 == midpoint(A, cfg.p_iso)),
            ("base point is the centroid of o, d, q", lambda: centroid(cfg.o, d, cfg.q) == cfg.p),
            ("image of d3 is the midpoint of o and d",
             lambda: cfg.t_p.apply(d3) == midpoint(cfg.o, d)),
            ("squared trace offset doubles the squared half-side", trace_offset),
            ("o and its reflection lie on the iso line",
             lambda: collinear(cfg.o, cfg.p, cfg.p_iso)
             and collinear(cfg.o_iso, cfg.p, cfg.p_iso)),
            ("the axis-parallel line meets the circumconic in the two special points",
             axis_line_meets_special_points),
        )
        for name, fn in checks:
            report.check(f"variant {tag}: {name}", fn)
    for name, ok in locus_mod.equilateral_metric_checks(1).items():
        report.add(f"equilateral embedding: {name}", ok)
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


def composed_transfer(t_p: AffineMap, t_p_iso: AffineMap) -> AffineMap:
    """The transfer map as its definition builds it: the cevian map of p
    after the anticomplement after the cevian map of the isotomic conjugate."""
    return (t_p @ ANTICOMPLEMENT @ t_p_iso).normalized()


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
    t_inv = cfg.t_p_iso.inverse()
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
    on_points = curve_mod.sample_translation_points(n, seed=seed)
    off_points = random_valid_points(n, seed + 1, off_locus=True)
    for p in on_points:
        cfg = derive_configuration(p)
        report.check(f"on-locus {point_to_literal(p)[:48]}",
                     lambda: _translation_flags(cfg, on_locus=True))
        report.check(f"constructions on-locus {point_to_literal(p)[:48]}",
                     lambda: construction_profile(cfg))
    for p in off_points:
        cfg = derive_configuration(p)
        report.check(f"off-locus {point_to_literal(p)}",
                     lambda: _translation_flags(cfg, on_locus=False))
        report.check(f"constructions off-locus {point_to_literal(p)}",
                     lambda: construction_profile(cfg))
    return report


def _translation_flags(cfg, on_locus: bool) -> tuple[bool, ...]:
    """The six translation conditions, then whether the transfer map is a
    translation; each flag is True when it matches the side of the locus
    the base point is on.  A transfer map that is neither a homothety nor a
    translation raises, which the calling check records as a failure."""
    flags = translation_condition_profile(cfg) + (classify_map(cfg.transfer).is_translation(),)
    return flags if on_locus else tuple(not f for f in flags)


def verify_translation_consequences(seed: int = 0, n: int = 10) -> SuiteReport:
    report = SuiteReport("consequences")
    for p in curve_mod.sample_translation_points(n, seed=seed):
        cfg = derive_configuration(p)
        prof = translation_consequence_profile(cfg)
        report.add(
            f"consequences at {point_to_literal(p)[:48]}",
            all(prof),
            repr(prof) if not all(prof) else "",
        )
    return report


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
    x, y, z = p.coords
    c = (y * z, x * z, x * y) if iso else (x, y, z)
    return BaryPoint(*(c[i] for i in order))


def verify_curve(seed: int = 0, n: int = 20) -> SuiteReport:
    """Curve arithmetic: invariants, named multiples, torsion structure,
    the discriminant identity, the birational chain, the intersection with
    the vertex conic, and the homothety-ratio law of the normal-form family."""
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
                    chord = curve_mod._chord_tangent(
                        curve_mod._A2, curve_mod._A4, (a.u, a.v), (b.u, b.v))
                    out.append(a + b == curve_mod._wpoint(chord))
        return tuple(out)

    report.check("torsion translations equal the chord-tangent sum", translations_match_chords)
    report.check("torsion order census {1:1, 2:3, 3:2, 6:6}",
                 lambda: curve_mod.torsion_order_census() == {1: 1, 2: 3, 3: 2, 6: 6})
    report.check("torsion closes under addition",
                 lambda: bool(curve_mod.torsion_addition_table()))
    report.check(
        "generator multiples up to 24 avoid the torsion group",
        lambda: all(not curve_mod.is_torsion(k * gen) for k in range(1, 25)),
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
            if curve_mod.translation_y_discriminant(x_fe) != target:
                return False
        return True

    report.check(f"y-discriminant factors as stated at {n} rational x", disc_identity)

    report.check(
        "birational chain round-trips on samples",
        lambda: all(curve_mod.w_to_bary(curve_mod.bary_to_w(p)) == p
                    for p in curve_mod.sample_translation_points(8, seed=seed + 2)),
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
        mt = curve_mod.median_torsion_bary()
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
            nf = curve_mod.NormalFormCurve(fe(a))
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
    """The identities of the construction frame.  Each names a member that
    no other entry reads, so changing one member fails one entry: z is the
    center of the parallelogram h-u-p-v, whose fourth vertex v = h + p - u;
    q, q_iso and o are the midpoints of its sides p v, h u and u p; g is the
    centroid of h, u and p (where the diagonal u v meets the line h o) and
    bisects the secant e f; the conic is the five-point fit through p, q, h,
    q_iso and p_iso."""
    h, u, p = frame.h, frame.u, frame.p
    fourth = affine_combination([(h, 1), (p, 1), (u, -1)])
    return (
        frame.z == midpoint(h, p),
        frame.v == fourth,
        frame.q == midpoint(p, fourth),
        frame.q_iso == midpoint(h, u),
        frame.o == midpoint(u, p),
        frame.g == centroid(h, u, p),
        frame.g == midpoint(frame.e, frame.f),
        frame.conic == conic_through(p, frame.q, h, frame.q_iso, frame.p_iso),
    )


def verify_construction(seed: int = 0, n: int = 5) -> SuiteReport:
    """The inscribed-triangle construction on the canonical frame."""
    _check_count("construction", n)
    report = SuiteReport("construction")
    try:
        frame = locus_mod.canonical_frame()
    except Exception as exc:
        report.add("canonical frame construction", False, str(exc))
        return report
    report.add("canonical frame construction", True)
    report.check("frame identities", lambda: frame_profile(frame))
    report.check(
        "projectivity cycles u -> z -> v -> u",
        lambda: locus_mod.half_turn_projectivity(frame, frame.u) == frame.z
        and locus_mod.half_turn_projectivity(frame, frame.z) == frame.v
        and locus_mod.half_turn_projectivity(frame, frame.v) == frame.u,
    )

    def cycle_order_three():
        y0 = midpoint(frame.g, frame.z)
        y = y0
        for _ in range(3):
            y = locus_mod.half_turn_projectivity(frame, y)
        return y == y0

    report.check("projectivity has order three on a fourth axis point", cycle_order_three)
    report.check("frame conic is a hyperbola", lambda: affine_type(frame.conic) == "hyperbola")

    def asymptote_identity():
        for (mid, inf) in ((frame.e_mid, frame.asymptote_points[0]),
                           (frame.f_mid, frame.asymptote_points[1])):
            line = join(frame.z, mid)
            pts = intersect_line(frame.conic, line, extend=True)
            if len(pts) != 1 or not pts[0].is_infinite() or pts[0] != inf:
                return False
        return True

    report.check("lines from the center to the secant midpoints are the asymptotes",
                 asymptote_identity)

    def reconstructs_reference():
        b1, c1 = locus_mod.inscribed_triangle(frame, A)
        return (b1 == B and c1 == C) or (b1 == C and c1 == B)

    report.check("inscribed triangle at A reconstructs the reference triangle",
                 reconstructs_reference)
    report.check("A is admissible", lambda: locus_mod.admissible(frame, A))
    report.check("q is not admissible", lambda: not locus_mod.admissible(frame, frame.q))
    report.check("q_iso is not admissible", lambda: not locus_mod.admissible(frame, frame.q_iso))
    report.check("p_iso is not admissible", lambda: not locus_mod.admissible(frame, frame.p_iso))
    report.check("e is not admissible", lambda: not locus_mod.admissible(frame, frame.e))

    def reconstruction_lands_on_locus():
        samples = locus_mod.admissible_vertex_samples(frame, n, seed=seed)
        for a1 in samples:
            for orientation in (1, 2):
                p = locus_mod.reconstruct_point(frame, a1, orientation)
                if not curve_mod.on_translation_locus(p):
                    return False
                if not classify_transfer(p).is_translation():
                    return False
        return True

    report.check(
        f"{n} admissible samples reconstruct translation points",
        reconstruction_lands_on_locus,
    )
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
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if n is None:
        return SUITES[name](seed=seed)
    _check_count(name, n)
    return SUITES[name](seed=seed, n=n)


def run_all(seed: int = 0, n: int | None = None) -> list[SuiteReport]:
    """Every suite in order; a count that any suite refuses stops all of them
    before the first one runs."""
    if n is not None:
        for name in SUITES:
            _check_count(name, n)
    return [run_suite(name, seed=seed, n=n) for name in SUITES]
