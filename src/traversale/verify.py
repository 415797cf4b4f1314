"""Seeded verification suites driving the package's theorems at desk scale.

Every suite is deterministic in (seed, cases): case k draws its inputs from
a PRNG keyed by suite name, seed and k, so reports are byte-identical across
runs and cases are independent (they could run in any order).  On a failing
case the recorded draw genome is shrunk, halving integers toward zero while
the failure persists, and the minimal case's construction transcript is
embedded in the report.

The ten property suites cover the involution equivalences, ramee invariance,
duality, the traversale theorems, the pencil theorem, the two involutions,
the harmonic range, homography transport and the secant/tangent/missing
trichotomy; four more bundle the fixed worked example, diameters and
asymptotes, the self-polar diagonal triangle and SVG rendering, so that a
full run exercises the complete acceptance surface.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from .conic import (
    Conic,
    affine_features,
    classify,
    is_tangent_line,
    line_intersect,
    polar,
    polarity_involution_on_line,
    pole,
    rational_parametrize,
    second_intersection,
    tangent_at,
    transform,
)
from .errors import (
    EmptyViewport,
    GeometryError,
    InvalidCaseCount,
    SingularMatrix,
    TangentLine,
    UnknownSuite,
)
from .involution import (
    InvolutionKind,
    InvolutionOnLine,
    PointPair,
    arbre_check,
    classify_and_fixed_points,
    contains_pair,
    desargues_condition_check,
    in_single_involution,
    involution_from_two_pairs,
    ramee_project,
)
from .numbers import INF
from .projective import (
    LINE_AT_INFINITY,
    Homography,
    PLine,
    PPoint,
    canonical_chart,
    collinear,
    cross_ratio,
    harmonic_conjugate,
    join,
    meet,
)
from .render import FIGURES, build_figure, render_figure, render_svg
from .report import PropertyResult, VerificationReport
from .synthetic import (
    InscribedQuadrangle,
    PencilBase,
    central_projection_center_check,
    conjugate_diameters,
    diagonal_triangle,
    harmonic_range_FGXY_check,
    incidence_lemma_check,
    pencil_involution_on_line,
    pole_by_construction,
    secteur_identity_check,
    tangent_via_harmonic,
    traversale_from_quadrangle,
    two_involutions,
    worked_quadrangle,
)

X_AXIS = PLine(0, 1, 0)


class _ReplayExhausted(Exception):
    pass


class _CaseUnbuildable(Exception):
    pass


class Draws:
    """Recorded integer draws, replayable for shrinking."""

    def __init__(self, rng: random.Random | None = None, replay: list[int] | None = None):
        self.rng = rng
        self.replay = replay
        self.record: list[int] = []
        self._i = 0

    def draw_int(self, lo: int, hi: int) -> int:
        if self.replay is not None:
            if self._i >= len(self.replay):
                raise _ReplayExhausted()
            v = self.replay[self._i]
            self._i += 1
            return lo + (v - lo) % (hi - lo + 1)
        v = self.rng.randint(lo, hi)
        self.record.append(v)
        return v

    def fraction(self, lo: int = -9, hi: int = 9, dmax: int = 9) -> Fraction:
        return Fraction(self.draw_int(lo, hi), self.draw_int(1, dmax))


def _shrink(case_fn, genome: list[int], transcript: list[str]) -> str:
    best, best_tr = list(genome), transcript
    changed, guard = True, 0
    while changed and guard < 300:
        changed = False
        for i in range(len(best)):
            guard += 1
            v = best[i]
            nv = v // 2 if v > 0 else -((-v) // 2)
            if nv == v:
                continue
            cand = best[:i] + [nv] + best[i + 1 :]
            try:
                ok, tr = case_fn(Draws(replay=cand))
            except Exception:
                continue
            if not ok:
                best, best_tr = cand, tr
                changed = True
    return "\n".join(best_tr)


def _run_property(suite: str, prop: str, seed: int, cases: int, case_fn) -> PropertyResult:
    failures = 0
    counterexample = None
    for idx in range(cases):
        draws = Draws(random.Random(f"{suite}:{prop}:{seed}:{idx}"))
        try:
            ok, transcript = case_fn(draws)
        except _CaseUnbuildable:
            ok, transcript = True, []  # vacuous case; keep the count honest but green
        except Exception as exc:  # any crash is a failing case, not an aborted suite
            ok, transcript = False, [f"unexpected {type(exc).__name__}: {exc}"]
        if not ok:
            failures += 1
            if counterexample is None:
                counterexample = f"case {idx}\n" + _shrink(case_fn, draws.record, transcript)
    return PropertyResult(prop, cases - failures, cases, counterexample)


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def _draw_homography(d: Draws) -> Homography:
    for _ in range(60):
        rows = [[d.draw_int(-4, 4) for _ in range(3)] for _ in range(3)]
        try:
            return Homography(rows)
        except (SingularMatrix, ValueError):
            continue
    raise _CaseUnbuildable()


def _draw_conic_with_map(d: Draws) -> tuple[Conic, Homography]:
    h = _draw_homography(d)
    return transform(Conic.unit_circle(), h), h


def _draw_conic(d: Draws) -> Conic:
    return _draw_conic_with_map(d)[0]


def _draw_conic_points(d: Draws, c: Conic, n: int, attempts: int = 60) -> list[PPoint]:
    par = rational_parametrize(c, c.witness)
    pts: list[PPoint] = []
    for _ in range(attempts):
        t = d.fraction(-8, 8, 6)
        p = par.point(t)
        if p not in pts:
            pts.append(p)
        if len(pts) == n:
            return pts
    raise _CaseUnbuildable()


def _draw_exterior_point(d: Draws, c: Conic) -> PPoint:
    p1, p2 = _draw_conic_points(d, c, 2)
    return meet(tangent_at(c, p1), tangent_at(c, p2))


def _draw_finite_point(d: Draws) -> PPoint:
    return PPoint(d.fraction(), d.fraction(), 1)


def _draw_line(d: Draws) -> PLine:
    for _ in range(30):
        try:
            return join(_draw_finite_point(d), _draw_finite_point(d))
        except GeometryError:
            continue
    raise _CaseUnbuildable()


def _draw_involution(d: Draws, chart) -> InvolutionOnLine:
    for _ in range(40):
        a, b, c = (d.draw_int(-6, 6) for _ in range(3))
        if a * a + b * c != 0:
            return InvolutionOnLine(chart, ((a, b), (c, -a)))
    raise _CaseUnbuildable()


def _draw_involution_pairs(d: Draws, inv: InvolutionOnLine, n: int) -> list[PointPair]:
    pairs: list[PointPair] = []
    used: set = set()
    for _ in range(60):
        t = d.fraction(-9, 9, 5)
        img = inv.apply(t)
        if img is INF or t in used or img in used:
            continue
        used.update((t, img))
        pairs.append(PointPair(t, img))
        if len(pairs) == n:
            return pairs
    raise _CaseUnbuildable()


def _draw_quadrangle(d: Draws, c: Conic) -> InscribedQuadrangle:
    for _ in range(20):
        pts = _draw_conic_points(d, c, 4)
        try:
            return InscribedQuadrangle(c, *pts)
        except GeometryError:
            continue
    raise _CaseUnbuildable()


# ---------------------------------------------------------------------------
# the ten property suites
# ---------------------------------------------------------------------------

def _suite_involution_equivalence(seed, cases):
    chart = canonical_chart(X_AXIS)

    def case_equivalence(d: Draws):
        if d.draw_int(0, 1) == 0:
            inv = _draw_involution(d, chart)
            pairs = _draw_involution_pairs(d, inv, 3)
            genuine = True
        else:
            pairs = [PointPair(d.fraction(-6, 6, 4), d.fraction(-6, 6, 4)) for _ in range(3)]
            genuine = False
        lhs = desargues_condition_check(pairs)
        rhs = in_single_involution(pairs, chart)
        tr = [f"couples {pairs[0]} {pairs[1]} {pairs[2]}", f"rectangle identities: {lhs}", f"homographic membership: {rhs}"]
        ok = lhs == rhs and (lhs if genuine else True)
        return ok, tr

    def case_arbre(d: Draws):
        pairs = [PointPair(d.fraction(-6, 6, 4), d.fraction(-6, 6, 4)) for _ in range(3)]
        b, h = pairs[0].first, pairs[0].second
        c, g = pairs[1].first, pairs[1].second
        denom = c + g - b - h
        if denom == 0:
            raise _CaseUnbuildable()
        souche = (c * g - b * h) / denom
        nodes = [x for p in pairs for x in (p.first, p.second)]
        if souche in nodes:
            raise _CaseUnbuildable()
        lhs = arbre_check(souche, pairs)
        rhs = in_single_involution(pairs, chart)
        tr = [f"souche {souche}", f"couples {pairs[0]} {pairs[1]} {pairs[2]}", f"arbre: {lhs}", f"membership: {rhs}"]
        return lhs == rhs, tr

    def case_harmonic_bridge(d: Draws):
        # {a,a},{b,b},{c,x} in one involution iff (a,b;c,x) = -1
        vals = []
        for _ in range(30):
            v = d.fraction(-8, 8, 5)
            if v not in vals:
                vals.append(v)
            if len(vals) == 3:
                break
        if len(vals) < 3:
            raise _CaseUnbuildable()
        a, b, c = vals
        pa, pb, pc = (chart.point_at(v) for v in (a, b, c))
        x = harmonic_conjugate(pc, pa, pb, chart)
        tx = chart.coordinate(x)
        member = in_single_involution(
            [PointPair(a, a), PointPair(b, b), PointPair(c, tx)], chart
        )
        ratio = cross_ratio(pa, pb, pc, x, chart)
        off = c + Fraction(1, 3)
        member_off = (
            in_single_involution([PointPair(a, a), PointPair(b, b), PointPair(c, off)], chart)
            if off != tx and off != c
            else False
        )
        tr = [f"a={a} b={b} c={c}", f"conjugate={tx}", f"cross ratio {ratio}"]
        return member and ratio == -1 and not member_off, tr

    def case_midpoint_infinity(d: Draws):
        c = d.fraction(-8, 8, 5)
        g = d.fraction(-8, 8, 5)
        if c == g:
            raise _CaseUnbuildable()
        b = (c + g) / 2
        member = in_single_involution(
            [PointPair(b, INF), PointPair(c, c), PointPair(g, g)], chart
        )
        shifted = b + 1
        member_shifted = in_single_involution(
            [PointPair(shifted, INF), PointPair(c, c), PointPair(g, g)], chart
        )
        tr = [f"c={c} g={g} midpoint={b}", f"member: {member}", f"shifted member: {member_shifted}"]
        return member and not member_shifted, tr

    def case_agregativite(d: Draws):
        inv = _draw_involution(d, chart)
        pairs = _draw_involution_pairs(d, inv, 3)
        try:
            i12 = involution_from_two_pairs(pairs[0], pairs[1], chart)
            i13 = involution_from_two_pairs(pairs[0], pairs[2], chart)
            i23 = involution_from_two_pairs(pairs[1], pairs[2], chart)
        except GeometryError:
            raise _CaseUnbuildable() from None
        ok = i12 == i13 == i23 == inv
        return ok, [f"couples {pairs}", f"matrices {i12.matrix} {i13.matrix} {i23.matrix}"]

    return [
        _run_property("involution-equivalence", "rectangle-vs-homographic", seed, cases, case_equivalence),
        _run_property("involution-equivalence", "arbre-vs-involution", seed, cases, case_arbre),
        _run_property("involution-equivalence", "harmonic-bridge", seed, cases, case_harmonic_bridge),
        _run_property("involution-equivalence", "midpoint-infinity", seed, cases, case_midpoint_infinity),
        _run_property("involution-equivalence", "agregativite", seed, cases, case_agregativite),
    ]


def _suite_ramee(seed, cases):
    chart = canonical_chart(X_AXIS)

    def case(d: Draws):
        inv = _draw_involution(d, chart)
        for _ in range(30):
            target_line = _draw_line(d)
            if target_line != chart.line:
                break
        else:
            raise _CaseUnbuildable()
        target = canonical_chart(target_line)
        for _ in range(30):
            center = _draw_finite_point(d)
            if not chart.line.contains(center) and not target_line.contains(center):
                break
        else:
            raise _CaseUnbuildable()
        projected = ramee_project(inv, center, target)
        pairs = _draw_involution_pairs(d, inv, 3)
        ok = True
        tr = [f"involution {inv.matrix} on {chart.line}", f"center {center}", f"target {target_line}"]
        for p in pairs:
            imgs = []
            for t in (p.first, p.second):
                src_pt = chart.point_at(t)
                img_pt = meet(join(center, src_pt), target_line)
                imgs.append(target.coordinate(img_pt))
            image_pair = PointPair(imgs[0], imgs[1])
            member = contains_pair(projected, image_pair)
            tr.append(f"couple {p} -> {image_pair}: member {member}")
            ok = ok and member
        kind_src = classify_and_fixed_points(inv)[0]
        kind_dst = classify_and_fixed_points(projected)[0]
        hyper = {InvolutionKind.HYPERBOLIC, InvolutionKind.HYPERBOLIC_IRRATIONAL}
        kinds_match = (kind_src in hyper) == (kind_dst in hyper)
        tr.append(f"kinds {kind_src.value} -> {kind_dst.value}")
        return ok and kinds_match, tr

    return [_run_property("ramee", "membership-and-kind-preserved", seed, cases, case)]


def _suite_biduality(seed, cases):
    def case(d: Draws):
        c = _draw_conic(d)
        for _ in range(30):
            m = _draw_finite_point(d)
            if not c.contains(m):
                break
        else:
            raise _CaseUnbuildable()
        l = _draw_line(d)
        back_point = pole(c, polar(c, m))
        back_line = polar(c, pole(c, l))
        tr = [f"conic {c}", f"m {m} -> polar {polar(c, m)} -> pole {back_point}",
              f"l {l} -> pole {pole(c, l)} -> polar {back_line}"]
        return back_point == m and back_line == l, tr

    return [_run_property("biduality", "pole-of-polar-roundtrip", seed, cases, case)]


def _suite_incidence_duality(seed, cases):
    def case_collinear(d: Draws):
        c = _draw_conic(d)
        for _ in range(30):
            p1, p2 = _draw_finite_point(d), _draw_finite_point(d)
            if p1 == p2:
                continue
            l = join(p1, p2)
            p3 = canonical_chart(l).point_at(d.fraction(-8, 8, 5))
            if len({p1, p2, p3}) == 3 and not any(c.contains(p) for p in (p1, p2, p3)):
                break
        else:
            raise _CaseUnbuildable()
        polars = [polar(c, p) for p in (p1, p2, p3)]
        concur = meet(polars[0], polars[1])
        ok = polars[2].contains(concur)
        tr = [f"collinear {p1} {p2} {p3}", f"polars {polars[0]} {polars[1]} {polars[2]}"]
        return ok, tr

    def case_concurrent(d: Draws):
        c = _draw_conic(d)
        apex = _draw_finite_point(d)
        lines = []
        for _ in range(40):
            q = _draw_finite_point(d)
            if q == apex:
                continue
            l = join(apex, q)
            if l not in lines:
                lines.append(l)
            if len(lines) == 3:
                break
        else:
            raise _CaseUnbuildable()
        poles = [pole(c, l) for l in lines]
        ok = collinear(*poles)
        tr = [f"concurrent at {apex}", f"poles {poles[0]} {poles[1]} {poles[2]}"]
        return ok, tr

    return [
        _run_property("incidence-duality", "collinear-points-concurrent-polars", seed, cases, case_collinear),
        _run_property("incidence-duality", "concurrent-lines-collinear-poles", seed, cases, case_concurrent),
    ]


def _fixed_conics(seed: int, n: int = 5) -> list[Conic]:
    out = []
    for i in range(n):
        d = Draws(random.Random(f"conic-pool:{seed}:{i}"))
        out.append(_draw_conic(d))
    return out


def _suite_quadrangle_independence(seed, cases):
    conics = _fixed_conics(seed)

    def case_traversale(d: Draws):
        c = conics[d.draw_int(0, len(conics) - 1)]
        f = _draw_exterior_point(d, c)
        tau1 = traversale_from_quadrangle(c, f)
        tau2 = traversale_from_quadrangle(c, f, offset=2)
        expected = polar(c, f)
        tr = [f"conic {c}", f"f {f}", f"quadrangle line {tau1}", f"second quadrangle {tau2}", f"polar {expected}"]
        return tau1 == expected and tau2 == expected, tr

    def case_pole(d: Draws):
        c = conics[d.draw_int(0, len(conics) - 1)]
        p1, p2 = _draw_conic_points(d, c, 2)
        l = join(p1, p2)
        built = pole_by_construction(c, l)
        expected = pole(c, l)
        tr = [f"conic {c}", f"line {l}", f"constructed {built}", f"pole {expected}"]
        return built == expected, tr

    return [
        _run_property("quadrangle-independence", "traversale-equals-polar", seed, cases, case_traversale),
        _run_property("quadrangle-independence", "pole-by-construction-equals-pole", seed, cases, case_pole),
    ]


def _suite_pencil_theorem(seed, cases):
    def case(d: Draws):
        c = _draw_conic(d)
        for _ in range(20):
            pts = _draw_conic_points(d, c, 6)
            try:
                base = PencilBase(tuple(pts[:4]), member=c)
            except GeometryError:
                continue
            l = join(pts[4], pts[5])
            if any(l.contains(p) for p in base.points):
                continue
            break
        else:
            raise _CaseUnbuildable()
        inv = pencil_involution_on_line(base, l)
        chart = inv.chart
        third = base.degenerate_members()[2]
        third_pair = PointPair(
            chart.coordinate(meet(third[0], l)), chart.coordinate(meet(third[1], l))
        )
        conic_pair = PointPair(chart.coordinate(pts[4]), chart.coordinate(pts[5]))
        ok_third = contains_pair(inv, third_pair)
        ok_conic = contains_pair(inv, conic_pair)
        tr = [f"base {base.points}", f"line {l}",
              f"third couple {third_pair}: member {ok_third}",
              f"conic couple {conic_pair}: member {ok_conic}"]
        return ok_third and ok_conic, tr

    return [_run_property("pencil-theorem", "degenerate-and-conic-traces-members", seed, cases, case)]


def _suite_two_involutions(seed, cases):
    def case(d: Draws):
        c = _draw_conic(d)
        f = _draw_exterior_point(d, c)
        par = rational_parametrize(c, c.witness)
        for _ in range(30):
            p = par.point(d.fraction(-8, 8, 6))
            l = join(f, p) if p != f else None
            if l is None:
                continue
            try:
                pair = two_involutions(c, f, l)
                break
            except (TangentLine, GeometryError):
                continue
        else:
            raise _CaseUnbuildable()
        chart = pair.pencil.chart
        lpt, mpt = pair.conic_trace
        tf, th = chart.coordinate(f), chart.coordinate(pair.traversale_point)
        tl, tm = chart.coordinate(lpt), chart.coordinate(mpt)
        checks = {
            "pencil fixes f": pair.pencil.apply(tf) == tf,
            "pencil fixes H": pair.pencil.apply(th) == th,
            "pencil swaps L,M": contains_pair(pair.pencil, PointPair(tl, tm)),
            "polarity fixes L": pair.polarity.apply(tl) == tl,
            "polarity fixes M": pair.polarity.apply(tm) == tm,
            "polarity swaps f,H": contains_pair(pair.polarity, PointPair(tf, th)),
            "distinct": pair.pencil != pair.polarity,
            "harmonic": cross_ratio(lpt, mpt, f, pair.traversale_point, chart) == -1,
        }
        tr = [f"conic {c}", f"f {f}", f"line {chart.line}"] + [
            f"{k}: {v}" for k, v in checks.items()
        ]
        return all(checks.values()), tr

    return [_run_property("two-involutions", "pencil-vs-polarity", seed, cases, case)]


def _suite_harmonic_fgxy(seed, cases):
    def case(d: Draws):
        c = _draw_conic(d)
        quad = _draw_quadrangle(d, c)
        ok1 = harmonic_range_FGXY_check(quad)
        ok2 = secteur_identity_check(quad)
        tr = [f"bornes {quad.bornes}", f"harmonic: {ok1}", f"secteur identities: {ok2}"]
        return ok1 and ok2, tr

    return [_run_property("harmonic-FGXY", "diagonal-harmonic-range", seed, cases, case)]


def _suite_transport(seed, cases):
    def case(d: Draws):
        c = _draw_conic(d)
        h = _draw_homography(d)
        c2 = transform(c, h)
        for _ in range(20):
            m = _draw_finite_point(d)
            if not c.contains(m):
                break
        else:
            raise _CaseUnbuildable()
        l = _draw_line(d)
        checks = {
            "polar commutes": h.apply_line(polar(c, m)) == polar(c2, h.apply(m)),
            "pole commutes": h.apply(pole(c, l)) == pole(c2, h.apply_line(l)),
            "class preserved": classify(c).kind == classify(c2).kind,
        }
        p1, p2 = _draw_conic_points(d, c, 2)
        secant = join(p1, p2)
        inv1 = polarity_involution_on_line(c, secant)
        inv2 = polarity_involution_on_line(c2, h.apply_line(secant))
        sample = canonical_chart(secant).point_at(d.fraction(-8, 8, 5))
        img = inv1.apply_point(sample)
        checks["polarity involution commutes"] = h.apply(img) == inv2.apply_point(h.apply(sample))
        tr = [f"conic {c}", f"homography {h.matrix}"] + [f"{k}: {v}" for k, v in checks.items()]
        return all(checks.values()), tr

    return [_run_property("transport", "polarity-moves-with-homographies", seed, cases, case)]


def _suite_classification(seed, cases):
    def case(d: Draws):
        c, h = _draw_conic_with_map(d)
        p1, p2, p3 = _draw_conic_points(d, c, 3)
        secant = join(p1, p2)
        inv = polarity_involution_on_line(c, secant)
        kind, fixed = classify_and_fixed_points(inv)
        chart = inv.chart
        expected_fixed = tuple(sorted(
            (chart.coordinate(p1), chart.coordinate(p2)),
            key=lambda v: (1, Fraction(0)) if v is INF else (0, v),
        ))
        ok_secant = kind == InvolutionKind.HYPERBOLIC and fixed == expected_fixed
        # a line missing the conic: the polar of an interior point
        for _ in range(30):
            a, b = d.draw_int(-4, 4), d.draw_int(-4, 4)
            dd = d.draw_int(1, 6)
            if a * a + b * b < dd * dd:
                interior = h.apply(PPoint(Fraction(a, dd), Fraction(b, dd), 1))
                break
        else:
            raise _CaseUnbuildable()
        missing = polar(c, interior)
        ok_missing = (
            line_intersect(c, missing) == ()
            and classify_and_fixed_points(polarity_involution_on_line(c, missing))[0]
            == InvolutionKind.ELLIPTIC
        )
        tangent = tangent_at(c, p3)
        try:
            polarity_involution_on_line(c, tangent)
            ok_tangent = False
        except TangentLine:
            ok_tangent = len(line_intersect(c, tangent)) == 1
        tr = [
            f"conic {c}",
            f"secant {secant}: {kind.value}, fixed {fixed}",
            f"missing {missing}: elliptic {ok_missing}",
            f"tangent {tangent}: degenerates {ok_tangent}",
        ]
        return ok_secant and ok_missing and ok_tangent, tr

    return [_run_property("classification", "secant-missing-tangent-trichotomy", seed, cases, case)]


# ---------------------------------------------------------------------------
# fixed-example and bundled-acceptance suites
# ---------------------------------------------------------------------------

def _fixed_property(name: str, fn) -> PropertyResult:
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure with the exception as transcript
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return PropertyResult(name, 1 if ok else 0, 1, None if ok else detail)


def _suite_worked_example(seed, cases):
    quad = worked_quadrangle()
    circle = quad.conic
    f = PPoint(2, 0, 1)

    def diagonal():
        fpt, n, g = diagonal_triangle(quad)
        expect = (f, PPoint(Fraction(1, 2), Fraction(3, 4), 1), PPoint(Fraction(1, 2), 1, 1))
        return (fpt, n, g) == expect, f"got {(fpt, n, g)}"

    def traversale_line():
        tau = join(quad.diagonal_points()[2], quad.diagonal_points()[1])
        return tau == PLine(2, 0, -1) == polar(circle, f), f"got {tau}"

    def incidence():
        n = PPoint(Fraction(1, 2), 1, 1)
        d = PPoint(Fraction(3, 5), Fraction(4, 5), 1)
        b = PPoint(1, 0, 1)
        e = second_intersection(circle, d, f)
        p = meet(join(n, e), join(f, b))
        ok = (
            e == PPoint(Fraction(5, 13), Fraction(12, 13), 1)
            and p == PPoint(-1, 0, 1)
            and incidence_lemma_check(circle, f, n, d, b)
        )
        return ok, f"e={e} p={p}"

    def desargues_triple():
        pairs = [
            PointPair(Fraction(2), Fraction(1, 2)),
            PointPair(Fraction(3), Fraction(1, 3)),
            PointPair(Fraction(4), Fraction(1, 4)),
        ]
        g, c = Fraction(1, 3), Fraction(3)
        num = (Fraction(4) - g) * (Fraction(1, 4) - g)
        den = (Fraction(4) - c) * (Fraction(1, 4) - c)
        lhs = num / den
        num2 = (Fraction(2) - g) * (Fraction(1, 2) - g)
        den2 = (Fraction(2) - c) * (Fraction(1, 2) - c)
        rhs = num2 / den2
        ok = desargues_condition_check(pairs) and lhs == rhs == Fraction(1, 9)
        return ok, f"sides {lhs} {rhs}"

    def pencil_square():
        base = PencilBase(
            (PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1), PPoint(0, -1, 1)),
            member=circle,
        )
        l = PLine(5, 0, -3)
        inv = pencil_involution_on_line(base, l)
        ok = (
            inv.apply(Fraction(2, 5)) == Fraction(-8, 5)
            and contains_pair(inv, PointPair(Fraction(0), INF))
            and contains_pair(inv, PointPair(Fraction(4, 5), Fraction(-4, 5)))
        )
        return ok, f"matrix {inv.matrix}"

    def two_inv_axis():
        pair = two_involutions(circle, f, X_AXIS)
        kind_p, fixed_p = classify_and_fixed_points(pair.pencil)
        ok = (
            fixed_p == (Fraction(1, 2), Fraction(2))
            and pair.pencil.apply(Fraction(-1)) == 1
            and pair.polarity.apply(Fraction(2)) == Fraction(1, 2)
            and pair.polarity.apply(Fraction(-1)) == Fraction(-1)
            and pair.pencil != pair.polarity
        )
        return ok, f"pencil fixed {fixed_p}, polarity {pair.polarity.matrix}"

    def ordinale():
        inv = polarity_involution_on_line(circle, PLine(1, 0, -2))
        kind, _ = classify_and_fixed_points(inv)
        ok = inv.apply(Fraction(1)) == Fraction(-3) and kind == InvolutionKind.ELLIPTIC
        return ok, f"matrix {inv.matrix} kind {kind.value}"

    def midpoint_case():
        chart = canonical_chart(X_AXIS)
        conj = harmonic_conjugate(
            chart.point_at(Fraction(0)), chart.point_at(Fraction(-1)), chart.point_at(Fraction(1)), chart
        )
        return chart.coordinate(conj) is INF, f"got {conj}"

    def tangent_harmonic():
        t = tangent_via_harmonic(circle, PPoint(0, 1, 1), PPoint(Fraction(5, 3), 0, 1))
        return t == PLine(0, 1, -1), f"got {t}"

    props = [
        _fixed_property("diagonal-points", diagonal),
        _fixed_property("traversale-is-x-half", traversale_line),
        _fixed_property("incidence-lemma-meet", incidence),
        _fixed_property("desargues-triple-one-ninth", desargues_triple),
        _fixed_property("pencil-square-base", pencil_square),
        _fixed_property("two-involutions-x-axis", two_inv_axis),
        _fixed_property("ordinale-x-2-elliptic", ordinale),
        _fixed_property("midpoint-gives-infinity", midpoint_case),
        _fixed_property("tangent-via-harmonic", tangent_harmonic),
    ]
    return props


def _suite_affine_diameters(seed, cases):
    def asymptotes():
        hyp = Conic(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
        feats = affine_features(hyp)
        want = {PLine(1, 1, 0), PLine(1, -1, 0)}
        ok = (
            feats.center == PPoint(0, 0, 1)
            and set(feats.asymptotes or ()) == want
            and all(conjugate_diameters(hyp, LINE_AT_INFINITY, a) == a for a in want)
            and all(a.contains(feats.center) for a in want)
        )
        return ok, f"asymptotes {feats.asymptotes}"

    def perpendicular_circle(d: Draws):
        circle = Conic.unit_circle()
        center = PPoint(0, 0, 1)
        for _ in range(20):
            q = _draw_finite_point(d)
            if q != center:
                break
        else:
            raise _CaseUnbuildable()
        diam = join(center, q)
        conj = conjugate_diameters(circle, LINE_AT_INFINITY, diam)
        u1, v1, _ = diam.coeffs
        u2, v2, _ = conj.coeffs
        perpendicular = u1 * u2 + v1 * v2 == 0  # normals orthogonal
        symmetric = conjugate_diameters(circle, LINE_AT_INFINITY, conj) == diam
        ok = perpendicular and symmetric and conj.contains(center)
        return ok, [f"diameter {diam}", f"conjugate {conj}"]

    def center_from_diametrales(d: Draws):
        c = _draw_conic(d)
        feats = affine_features(c, LINE_AT_INFINITY)
        if feats.kind.value == "parabola":
            raise _CaseUnbuildable()
        dirs = []
        for _ in range(30):
            x = d.draw_int(-5, 5)
            y = d.draw_int(-5, 5)
            if (x, y) == (0, 0):
                continue
            p = PPoint(x, y, 0)
            if c.contains(p) or p in dirs:
                continue
            dirs.append(p)
            if len(dirs) == 2:
                break
        else:
            raise _CaseUnbuildable()
        d1 = traversale_from_quadrangle(c, dirs[0])
        d2 = traversale_from_quadrangle(c, dirs[1])
        built = meet(d1, d2) if d1 != d2 else None
        ok = built == feats.center == pole(c, LINE_AT_INFINITY)
        return ok, [f"conic {c}", f"diametrales {d1} {d2}", f"center {feats.center}"]

    def fig17(d: Draws):
        c = _draw_conic(d)
        for _ in range(40):
            lam = _draw_line(d)
            rows = [
                [d.draw_int(-3, 3) for _ in range(3)],
                [d.draw_int(-3, 3) for _ in range(3)],
                list(lam.coeffs),
            ]
            try:
                h = Homography(rows)
            except (SingularMatrix, ValueError):
                continue
            if is_tangent_line(c, lam):
                continue
            return central_projection_center_check(c, h, lam), [f"conic {c}", f"line {lam}", f"map {h.matrix}"]
        raise _CaseUnbuildable()

    return [
        _fixed_property("hyperbola-asymptotes-self-conjugate", asymptotes),
        _run_property("affine-diameters", "circle-diameters-perpendicular", seed, cases, perpendicular_circle),
        _run_property("affine-diameters", "center-is-pole-of-infinity", seed, cases, center_from_diametrales),
        _run_property("affine-diameters", "center-transport-through-projection", seed, cases, fig17),
    ]


def _suite_self_polar(seed, cases):
    def case(d: Draws):
        c = _draw_conic(d)
        quad = _draw_quadrangle(d, c)
        f, n, g = quad.diagonal_points()
        checks = (
            polar(c, f) == join(n, g),
            polar(c, n) == join(f, g),
            polar(c, g) == join(f, n),
        )
        tr = [f"bornes {quad.bornes}", f"diagonal {f} {n} {g}", f"self-polar {checks}"]
        return all(checks), tr

    return [_run_property("self-polar", "diagonal-triangle-self-polar", seed, cases, case)]


_FLOAT_RE = {
    "circle": re.compile(r'<circle [^>]*cx="([^"]+)" cy="([^"]+)"'),
    "line": re.compile(r'<line [^>]*x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"'),
}


def _svg_incidence_residuals(name: str) -> tuple[bool, str]:
    drawables, viewport = build_figure(name)
    svg = render_figure(name)
    pts = [(float(a), float(b)) for a, b in _FLOAT_RE["circle"].findall(svg)]
    segs = [tuple(map(float, m)) for m in _FLOAT_RE["line"].findall(svg)]
    exact_points = [d.obj for d in drawables if d.kind == "point"]
    exact_lines = [d.obj for d in drawables if d.kind in ("line", "accent-line")]
    if len(pts) != len(exact_points) or len(segs) != len(exact_lines):
        return False, f"{name}: emitted {len(pts)} pts / {len(segs)} lines, expected {len(exact_points)} / {len(exact_lines)}"
    worst = 0.0
    incident = 0
    for (px, py), p in zip(pts, exact_points):
        for (x1, y1, x2, y2), l in zip(segs, exact_lines):
            if not l.contains(p):
                continue
            ux, uy = px - x1, py - y1
            vx, vy = x2 - x1, y2 - y1
            num = abs(ux * vy - uy * vx)
            den = (ux * ux + uy * uy) ** 0.5 * (vx * vx + vy * vy) ** 0.5
            if den == 0:
                continue
            incident += 1
            worst = max(worst, num / den)
    ok = incident > 0 and worst <= 1e-9
    return ok, f"{name}: {incident} incidences, worst relative residual {worst!r}"


def _suite_rendering(seed, cases):
    def determinism():
        for name in sorted(FIGURES):
            a = render_figure(name)
            b = render_figure(name)
            if a != b:
                return False, f"{name} rendered differently on the second pass"
        return True, ""

    def incidences():
        details = []
        ok = True
        for name in sorted(FIGURES):
            good, detail = _svg_incidence_residuals(name)
            ok = ok and good
            details.append(detail)
        return ok, "; ".join(details)

    def empty_viewport():
        try:
            render_svg([], (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
        except EmptyViewport:
            return True, ""
        return False, "zero-width viewport did not raise"

    return [
        _fixed_property("figures-byte-identical", determinism),
        _fixed_property("float-incidences-within-1e-9", incidences),
        _fixed_property("empty-viewport-rejected", empty_viewport),
    ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CORE_SUITES = (
    "involution-equivalence",
    "ramee",
    "biduality",
    "incidence-duality",
    "quadrangle-independence",
    "pencil-theorem",
    "two-involutions",
    "harmonic-FGXY",
    "transport",
    "classification",
)

EXTRA_SUITES = ("worked-example", "affine-diameters", "self-polar", "rendering")

_SUITE_FNS = {
    "involution-equivalence": _suite_involution_equivalence,
    "ramee": _suite_ramee,
    "biduality": _suite_biduality,
    "incidence-duality": _suite_incidence_duality,
    "quadrangle-independence": _suite_quadrangle_independence,
    "pencil-theorem": _suite_pencil_theorem,
    "two-involutions": _suite_two_involutions,
    "harmonic-FGXY": _suite_harmonic_fgxy,
    "transport": _suite_transport,
    "classification": _suite_classification,
    "worked-example": _suite_worked_example,
    "affine-diameters": _suite_affine_diameters,
    "self-polar": _suite_self_polar,
    "rendering": _suite_rendering,
}

DEFAULT_CASES = {
    "involution-equivalence": 200,
    "self-polar": 50,
    "worked-example": 1,
    "rendering": 1,
}

ALL_SUITES = CORE_SUITES + EXTRA_SUITES


def verify_suite(name: str, seed: int = 1, cases: int | None = None) -> VerificationReport:
    """Run one named suite; deterministic in (seed, cases)."""
    if name not in _SUITE_FNS:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(ALL_SUITES)}")
    n = cases if cases is not None else DEFAULT_CASES.get(name, 100)
    if n < 1:
        raise InvalidCaseCount(f"case count must be at least 1, got {n}")
    props = _SUITE_FNS[name](seed, n)
    return VerificationReport(suite=name, seed=seed, cases=n, properties=tuple(props))


def verify_all(seed: int = 1, cases: int | None = None) -> list[VerificationReport]:
    return [verify_suite(name, seed, cases) for name in ALL_SUITES]
