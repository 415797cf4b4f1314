"""Seeded verification suites driving the package's theorems at desk scale.

Every suite is deterministic in (seed, cases): each property draws its
cases in order from one PRNG keyed by suite, property and seed, so reports
are byte-identical across runs, and a run with more cases repeats a shorter
run's cases as its first ones.  Cases are not independent: case k draws
where case k - 1 stopped, so it depends on the draws of cases 0 to k - 1
and cannot be run alone or out of order.  On a failing case the recorded
draw genome is shrunk, halving integers toward zero while the failure
persists, and the minimal case's construction transcript is embedded in
the report.  A case function returns ``(ok, transcript)`` with the
transcript as a thunk, so its points, lines and couples are formatted only
for a failing case; the shrunk counterexample text is the same as if every
case had formatted it.

Suites and properties live in one registry: ``_suite`` declares a suite and
its default case count, and the ``_property`` decorator registers each case
function under (suite, property), in report order.  A fixed property takes
no draws and runs once.  Redraws go through ``Draws.until`` and
``Draws.distinct``, which give up after a bounded number of tries; an
unbuildable case is a failure, never a pass.

The ten property suites cover the involution equivalences, ramee invariance,
duality, the traversale theorems, the pencil theorem, the two involutions,
the harmonic range, homography transport and the secant/tangent/missing
trichotomy; four more bundle the fixed worked example, diameters and
asymptotes, the self-polar diagonal triangle and SVG rendering, so that a
full run exercises the complete acceptance surface.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import cache, partial

from .conic import (
    Conic,
    affine_features,
    chord_parametrization,
    classify,
    is_tangent_line,
    line_intersect,
    polar,
    polarity_involution_on_line,
    pole,
    second_intersection,
    tangent_at,
    transform,
)
from .errors import (
    EmptyViewport,
    GeometryError,
    InvalidCaseCount,
    TangentLine,
    UnknownSuite,
)
from .involution import (
    InvolutionKind,
    InvolutionOnLine,
    PointPair,
    arbre_check_pair,
    classify_and_fixed_points,
    contains_pair,
    desargues_condition_check,
    fixed_pairs,
    in_single_involution,
    involution_from_two_pairs,
    ramee_project,
)
from .linalg import det3
from .numbers import INF, Pair, format_extended, format_int, format_pair, format_repr, lowest_terms, pair_cross
from .projective import (
    LINE_AT_INFINITY,
    Homography,
    PLine,
    PPoint,
    canonical_chart,
    collinear,
    cross_ratio_pair,
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
X_CHART = canonical_chart(X_AXIS)


class _ReplayExhausted(Exception):
    pass


class _CaseUnbuildable(Exception):
    pass


class Draws:
    """Recorded integer draws, replayable for shrinking.

    A fresh draw is the one ``rng.randint(lo, hi)`` makes, taken straight
    from ``rng.getrandbits`` by the rejection loop of CPython's
    ``Random._randbelow_with_getrandbits`` (3.10 to 3.13): k = n.bit_length()
    bits for n = hi - lo + 1 values, redrawn until below n.  Draws made
    with ``replay`` read that list instead, each value clamped into its
    range.  Only the shrinker replays: such an instance binds the
    replaying draw over the fresh one, so a fresh draw makes no replay test.
    """

    def __init__(self, rng: random.Random | None = None, replay: list[int] | None = None):
        self._bits = None if rng is None else rng.getrandbits
        self.record: list[int] = []
        if replay is not None:
            self.draw_int = _replaying(replay)

    def draw_int(self, lo: int, hi: int) -> int:
        n = hi - lo + 1
        k = n.bit_length()
        r = self._bits(k)
        while r >= n:
            r = self._bits(k)
        v = lo + r
        self.record.append(v)
        return v

    def rational(self, lo: int = -9, hi: int = 9, dmax: int = 9) -> Pair:
        """The pair of ``Fraction(draw_int(lo, hi), draw_int(1, dmax))``, in :func:`lowest_terms`.

        The denominator is at least 1, so dividing out the gcd leaves it positive.
        """
        num, den = self.draw_int(lo, hi), self.draw_int(1, dmax)
        g = math.gcd(num, den)
        return (num // g, den // g)

    def until(self, draw, accept=lambda v: v is not None, tries: int = 30, catch=()):
        """The first ``draw(self)`` that ``accept`` takes (by default: not None).

        A draw raising one of ``catch`` is rejected; ``tries`` rejections make the case unbuildable.
        """
        for _ in range(tries):
            try:
                v = draw(self)
            except catch:
                continue
            if accept(v):
                return v
        raise _CaseUnbuildable(f"no draw accepted in {tries} tries")

    def distinct(self, n: int, draw, tries: int = 30,
                 fresh=lambda v, kept: v is not None and v not in kept) -> list:
        """``n`` values of ``draw(self)`` that ``fresh`` takes against those kept (by default: new, not None).

        ``tries`` draws that leave fewer than ``n`` values make the case unbuildable.
        """
        kept: list = []
        for _ in range(tries):
            v = draw(self)
            if fresh(v, kept):
                kept.append(v)
                if len(kept) == n:
                    return kept
        raise _CaseUnbuildable(f"{len(kept)} of {n} distinct values in {tries} tries")


def _replaying(replay: list[int]):
    """The draw of :class:`Draws` that reads ``replay`` in turn, each value clamped into [lo, hi]."""
    values = iter(replay)

    def draw_int(lo: int, hi: int) -> int:
        try:
            v = next(values)
        except StopIteration:
            raise _ReplayExhausted() from None
        return lo + (v - lo) % (hi - lo + 1)

    return draw_int


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
                if not ok:
                    best, best_tr = cand, tr()
                    changed = True
            except Exception:
                continue
    return "\n".join(best_tr)


def _run_property(suite: str, prop: str, seed: int, cases: int, case_fn) -> PropertyResult:
    """Run ``case_fn(draws)`` for ``cases`` cases drawn in turn from one seeded stream; an unbuildable case fails.

    ``case_fn`` returns ``(ok, transcript)``, where ``transcript()`` gives the
    case's lines; it is called only when the case fails.
    """
    failures = 0
    counterexample = None
    rng = random.Random(f"{suite}:{prop}:{format_int(seed)}")
    for idx in range(cases):
        draws = Draws(rng)
        try:
            ok, transcript = case_fn(draws)
            if not ok:  # the transcript is formatted under the same guard as the case
                transcript = transcript()
        except _CaseUnbuildable as exc:  # a case that was never checked is not a pass
            ok, transcript = False, [f"unbuildable: {exc}"]
        except Exception as exc:  # any crash is a failing case, not an aborted suite
            ok, transcript = False, [f"unexpected {type(exc).__name__}: {exc}"]
        if not ok:
            failures += 1
            if counterexample is None:
                counterexample = f"case {idx}\n" + _shrink(case_fn, draws.record, transcript)
    return PropertyResult(prop, cases - failures, cases, counterexample)


def _run_fixed(prop: str, fn, *shared) -> PropertyResult:
    try:
        ok, detail = fn(*shared)
    except Exception as exc:  # a crash is a failure with the exception as transcript
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return PropertyResult(prop, 1 if ok else 0, 1, None if ok else detail)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# suite -> (default cases, setup or None, [(property, case function, fixed)])
_SUITES: dict[str, tuple] = {}


def _suite(name: str, cases: int = 100, setup=None) -> None:
    """Declare a suite; ``setup(seed)``, if any, builds what its cases share.

    Each case function of the suite gets the setup first, as a memoized thunk,
    so a crash in it fails the properties that use it, not the whole run.
    """
    _SUITES[name] = (cases, setup, [])


def _property(suite: str, name: str, fixed: bool = False):
    """Register the decorated case function as property ``name`` of ``suite``."""
    def register(fn):
        _SUITES[suite][2].append((name, fn, fixed))
        return fn
    return register


def verify_suite(name: str, seed: int = 1, cases: int | None = None) -> VerificationReport:
    """Run one named suite; deterministic in (seed, cases)."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(ALL_SUITES)}")
    default, setup, props = _SUITES[name]
    n = cases if cases is not None else default
    if n < 1:
        raise InvalidCaseCount(f"case count must be at least 1, got {n}")
    shared = () if setup is None else (cache(partial(setup, seed)),)
    results = tuple(
        _run_fixed(prop, fn, *shared) if fixed else _run_property(name, prop, seed, n, partial(fn, *shared))
        for prop, fn, fixed in props
    )
    return VerificationReport(suite=name, seed=seed, cases=n, properties=results)


def verify_all(seed: int = 1, cases: int | None = None) -> list[VerificationReport]:
    return [verify_suite(name, seed, cases) for name in ALL_SUITES]


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def _draw_homography(d: Draws) -> Homography:
    return Homography(d.until(lambda d: [[d.draw_int(-4, 4) for _ in range(3)] for _ in range(3)], det3, tries=60))


_UNIT_CIRCLE = Conic.unit_circle()


def _draw_conic(d: Draws) -> Conic:
    return transform(_UNIT_CIRCLE, _draw_homography(d))


def _draw_conic_points(d: Draws, c: Conic, n: int) -> list[PPoint]:
    par = chord_parametrization(c)
    return d.distinct(n, lambda d: par.point_from_pair(d.rational(-8, 8, 6)), tries=60)


def _draw_exterior_point(d: Draws, c: Conic) -> PPoint:
    p1, p2 = _draw_conic_points(d, c, 2)
    return meet(tangent_at(c, p1), tangent_at(c, p2))


def _draw_finite_point(d: Draws) -> PPoint:
    (x, xd), (y, yd) = d.rational(), d.rational()
    return PPoint(x * yd, y * xd, xd * yd)


def _draw_line(d: Draws) -> PLine:
    return d.until(lambda d: join(_draw_finite_point(d), _draw_finite_point(d)), catch=GeometryError)


def _draw_involution(d: Draws) -> InvolutionOnLine:
    a, b, c = d.until(
        lambda d: [d.draw_int(-6, 6) for _ in range(3)],
        lambda v: v[0] * v[0] + v[1] * v[2] != 0,
        tries=40,
    )
    return InvolutionOnLine(X_CHART, ((a, b), (c, -a)))


def _draw_involution_pairs(d: Draws, inv: InvolutionOnLine, n: int) -> list[PointPair]:
    def couple(d):
        t = d.rational(-9, 9, 5)
        return t, lowest_terms(inv.apply_pair(t))

    def fresh(v, kept):  # a finite couple sharing no node with the kept ones
        return v[1][1] != 0 and not {*v} & {x for pair in kept for x in pair}

    return [PointPair.from_pairs(t, img) for t, img in d.distinct(n, couple, tries=60, fresh=fresh)]


def _draw_quadrangle(d: Draws, c: Conic) -> InscribedQuadrangle:
    return d.until(
        lambda d: InscribedQuadrangle(c, *_draw_conic_points(d, c, 4)), tries=20, catch=GeometryError
    )


def _fixed_conics(seed: int, n: int = 5) -> list[Conic]:
    rng = random.Random(f"conic-pool:{format_int(seed)}")
    return [_draw_conic(Draws(rng)) for _ in range(n)]


def _render_figures(seed: int) -> dict:
    """Every figure built and rendered once: name -> (drawables, svg)."""
    figures = {}
    for name in sorted(FIGURES):
        drawables, viewport = build_figure(name)
        figures[name] = drawables, render_svg(drawables, viewport)
    return figures


# Suites in report order, with their default case count and the setup
# their cases share.
_suite("involution-equivalence", cases=200)
_suite("ramee")
_suite("biduality")
_suite("incidence-duality")
_suite("quadrangle-independence", setup=_fixed_conics)
_suite("pencil-theorem")
_suite("two-involutions")
_suite("harmonic-FGXY")
_suite("transport")
_suite("classification")
_suite("worked-example", cases=1)
_suite("affine-diameters")
_suite("self-polar", cases=50)
_suite("rendering", cases=1, setup=_render_figures)

ALL_SUITES = tuple(_SUITES)


# ---------------------------------------------------------------------------
# the ten property suites
# ---------------------------------------------------------------------------

@_property("involution-equivalence", "rectangle-vs-homographic")
def _rectangle_vs_homographic(d: Draws):
    genuine = d.draw_int(0, 1) == 0
    if genuine:
        pairs = _draw_involution_pairs(d, _draw_involution(d), 3)
    else:
        pairs = [PointPair.from_pairs(d.rational(-6, 6, 4), d.rational(-6, 6, 4)) for _ in range(3)]
    lhs = desargues_condition_check(pairs)
    rhs = in_single_involution(pairs)
    return lhs == rhs and (lhs or not genuine), lambda: [
        f"couples {pairs[0]} {pairs[1]} {pairs[2]}", f"rectangle identities: {lhs}", f"homographic membership: {rhs}"
    ]


def _couples_with_souche(d: Draws):
    """Three random couples and their souche (cg - bh)/(c + g - b - h), or None if it is undefined or a node."""
    pairs = [PointPair.from_pairs(d.rational(-6, 6, 4), d.rational(-6, 6, 4)) for _ in range(3)]
    ((b, bd), (h, hd)), ((c, cd), (g, gd)) = pairs[0].pairs, pairs[1].pairs
    bh, cg = bd * hd, cd * gd
    denom = (c * gd + g * cd) * bh - (b * hd + h * bd) * cg
    if denom != 0:
        souche = lowest_terms((c * g * bh - b * h * cg, denom))
        if souche not in [x for p in pairs for x in p.pairs]:
            return pairs, souche


@_property("involution-equivalence", "arbre-vs-involution")
def _arbre_vs_involution(d: Draws):
    pairs, souche = d.until(_couples_with_souche)
    lhs = arbre_check_pair(souche, pairs)
    rhs = in_single_involution(pairs)
    return lhs == rhs, lambda: [
        f"souche {format_pair(souche)}", f"couples {pairs[0]} {pairs[1]} {pairs[2]}", f"arbre: {lhs}", f"membership: {rhs}"
    ]


@_property("involution-equivalence", "harmonic-bridge")
def _harmonic_bridge(d: Draws):
    # {a,a},{b,b},{c,x} in one involution iff (a,b;c,x) = -1
    a, b, c = d.distinct(3, lambda d: d.rational(-8, 8, 5))
    pa, pb, pc = (X_CHART.point_from_pair(v) for v in (a, b, c))
    x = harmonic_conjugate(pc, pa, pb, X_CHART)
    tx = lowest_terms(X_CHART.pair_of(x))
    fixed_ab = [PointPair.from_pairs(a, a), PointPair.from_pairs(b, b)]
    member = in_single_involution([*fixed_ab, PointPair.from_pairs(c, tx)])
    ratio = cross_ratio_pair(pa, pb, pc, x, X_CHART)
    off = lowest_terms((3 * c[0] + c[1], 3 * c[1]))  # c + 1/3
    member_off = (
        in_single_involution([*fixed_ab, PointPair.from_pairs(c, off)])
        if off != tx and off != c
        else False
    )
    return member and ratio[0] == -ratio[1] and not member_off, lambda: [
        f"a={format_pair(a)} b={format_pair(b)} c={format_pair(c)}", f"conjugate={format_pair(tx)}", f"cross ratio {format_pair(ratio)}"
    ]


@_property("involution-equivalence", "midpoint-infinity")
def _midpoint_infinity(d: Draws):
    c, g = d.until(lambda d: (d.rational(-8, 8, 5), d.rational(-8, 8, 5)), lambda v: v[0] != v[1])
    b = lowest_terms((c[0] * g[1] + g[0] * c[1], 2 * c[1] * g[1]))  # (c + g)/2
    fixed_cg = [PointPair.from_pairs(c, c), PointPair.from_pairs(g, g)]
    member = in_single_involution([PointPair.from_pairs(b, (1, 0)), *fixed_cg])
    shifted = (b[0] + b[1], b[1])  # b + 1, still in lowest terms
    member_shifted = in_single_involution([PointPair.from_pairs(shifted, (1, 0)), *fixed_cg])
    return member and not member_shifted, lambda: [
        f"c={format_pair(c)} g={format_pair(g)} midpoint={format_pair(b)}", f"member: {member}", f"shifted member: {member_shifted}"
    ]


@_property("involution-equivalence", "agregativite")
def _agregativite(d: Draws):
    inv = _draw_involution(d)
    pairs = _draw_involution_pairs(d, inv, 3)
    i12 = involution_from_two_pairs(pairs[0], pairs[1], X_CHART)
    i13 = involution_from_two_pairs(pairs[0], pairs[2], X_CHART)
    i23 = involution_from_two_pairs(pairs[1], pairs[2], X_CHART)
    ok = i12 == i13 == i23 == inv
    return ok, lambda: [f"couples {pairs}", "matrices " + " ".join(format_repr(i.matrix) for i in (i12, i13, i23))]


@_property("ramee", "membership-and-kind-preserved")
def _ramee(d: Draws):
    inv = _draw_involution(d)
    target_line = d.until(_draw_line, lambda l: l != X_AXIS)
    target = canonical_chart(target_line)
    center = d.until(_draw_finite_point, lambda p: not X_AXIS.contains(p) and not target_line.contains(p))
    projected = ramee_project(inv, center, target)
    pairs = _draw_involution_pairs(d, inv, 3)
    rows = []  # (couple, its image, membership)
    for p in pairs:
        images = (meet(join(center, X_CHART.point_from_pair(t)), target_line) for t in p.pairs)
        image_pair = PointPair.of_points(target, *images)
        rows.append((p, image_pair, contains_pair(projected, image_pair)))
    kinds_match = (fixed_pairs(inv.matrix) != ()) == (fixed_pairs(projected.matrix) != ())  # hyperbolic or not
    return all(member for _, _, member in rows) and kinds_match, lambda: [
        f"involution {format_repr(inv.matrix)} on {X_AXIS}", f"center {center}", f"target {target_line}",
        *(f"couple {p} -> {image}: member {member}" for p, image, member in rows),
        f"kinds {classify_and_fixed_points(inv)[0].value} -> {classify_and_fixed_points(projected)[0].value}",
    ]


@_property("biduality", "pole-of-polar-roundtrip")
def _biduality(d: Draws):
    c = _draw_conic(d)
    m = d.until(_draw_finite_point, lambda m: not c.contains(m))
    l = _draw_line(d)
    polar_m = polar(c, m)
    back_point = pole(c, polar_m)
    pole_l = pole(c, l)
    back_line = polar(c, pole_l)
    return back_point == m and back_line == l, lambda: [
        f"conic {c}", f"m {m} -> polar {polar_m} -> pole {back_point}", f"l {l} -> pole {pole_l} -> polar {back_line}"
    ]


@_property("incidence-duality", "collinear-points-concurrent-polars")
def _collinear_points(d: Draws):
    c = _draw_conic(d)

    def collinear_triple(d):
        p1, p2 = _draw_finite_point(d), _draw_finite_point(d)
        if p1 != p2:
            p3 = canonical_chart(join(p1, p2)).point_from_pair(d.rational(-8, 8, 5))
            if len({p1, p2, p3}) == 3 and not any(c.contains(p) for p in (p1, p2, p3)):
                return p1, p2, p3

    p1, p2, p3 = d.until(collinear_triple)
    polars = [polar(c, p) for p in (p1, p2, p3)]
    concur = meet(polars[0], polars[1])
    return polars[2].contains(concur), lambda: [
        f"collinear {p1} {p2} {p3}", f"polars {polars[0]} {polars[1]} {polars[2]}"
    ]


@_property("incidence-duality", "concurrent-lines-collinear-poles")
def _concurrent_lines(d: Draws):
    c = _draw_conic(d)
    apex = _draw_finite_point(d)

    def line_through_apex(d):
        q = _draw_finite_point(d)
        return join(apex, q) if q != apex else None

    lines = d.distinct(3, line_through_apex, tries=40)
    poles = [pole(c, l) for l in lines]
    return collinear(*poles), lambda: [f"concurrent at {apex}", f"poles {poles[0]} {poles[1]} {poles[2]}"]


@_property("quadrangle-independence", "traversale-equals-polar")
def _traversale_equals_polar(conics, d: Draws):
    pool = conics()
    c = pool[d.draw_int(0, len(pool) - 1)]
    f = _draw_exterior_point(d, c)
    tau1 = traversale_from_quadrangle(c, f)
    tau2 = traversale_from_quadrangle(c, f, offset=2)
    expected = polar(c, f)
    return tau1 == expected and tau2 == expected, lambda: [
        f"conic {c}", f"f {f}", f"quadrangle line {tau1}", f"second quadrangle {tau2}", f"polar {expected}"
    ]


@_property("quadrangle-independence", "pole-by-construction-equals-pole")
def _pole_by_construction(conics, d: Draws):
    pool = conics()
    c = pool[d.draw_int(0, len(pool) - 1)]
    p1, p2 = _draw_conic_points(d, c, 2)
    l = join(p1, p2)
    built = pole_by_construction(c, l)
    expected = pole(c, l)
    return built == expected, lambda: [f"conic {c}", f"line {l}", f"constructed {built}", f"pole {expected}"]


@_property("pencil-theorem", "degenerate-and-conic-traces-members")
def _pencil_theorem(d: Draws):
    c = _draw_conic(d)

    def base_and_line(d):
        pts = _draw_conic_points(d, c, 6)
        base = PencilBase(tuple(pts[:4]), member=c)
        l = join(pts[4], pts[5])
        if not any(l.contains(p) for p in base.points):
            return pts, base, l

    pts, base, l = d.until(base_and_line, tries=20, catch=GeometryError)
    inv = pencil_involution_on_line(base, l)
    chart = inv.chart
    third = base.degenerate_members()[2]
    third_pair = PointPair.of_points(chart, meet(third[0], l), meet(third[1], l))
    conic_pair = PointPair.of_points(chart, pts[4], pts[5])
    ok_third = contains_pair(inv, third_pair)
    ok_conic = contains_pair(inv, conic_pair)
    return ok_third and ok_conic, lambda: [
        f"base {base.points}", f"line {l}",
        f"third couple {third_pair}: member {ok_third}",
        f"conic couple {conic_pair}: member {ok_conic}",
    ]


@_property("two-involutions", "pencil-vs-polarity")
def _two_involutions(d: Draws):
    c = _draw_conic(d)
    f = _draw_exterior_point(d, c)
    par = chord_parametrization(c)

    def through_f(d):
        p = par.point_from_pair(d.rational(-8, 8, 6))
        return two_involutions(c, f, join(f, p)) if p != f else None

    pair = d.until(through_f, catch=GeometryError)
    chart = pair.pencil.chart
    (lpt, mpt), h = pair.conic_trace, pair.traversale_point
    tf, th, tl, tm = (chart.pair_of(p) for p in (f, h, lpt, mpt))
    ratio = cross_ratio_pair(lpt, mpt, f, h, chart)
    checks = {  # an involution fixes t when it maps t to a multiple of itself
        "pencil fixes f": pair_cross(pair.pencil.apply_pair(tf), tf) == 0,
        "pencil fixes H": pair_cross(pair.pencil.apply_pair(th), th) == 0,
        "pencil swaps L,M": contains_pair(pair.pencil, PointPair.of_points(chart, lpt, mpt)),
        "polarity fixes L": pair_cross(pair.polarity.apply_pair(tl), tl) == 0,
        "polarity fixes M": pair_cross(pair.polarity.apply_pair(tm), tm) == 0,
        "polarity swaps f,H": contains_pair(pair.polarity, PointPair.of_points(chart, f, h)),
        "distinct": pair.pencil != pair.polarity,
        "harmonic": ratio[0] == -ratio[1],
    }
    return all(checks.values()), lambda: [
        f"conic {c}", f"f {f}", f"line {chart.line}", *(f"{k}: {v}" for k, v in checks.items())
    ]


@_property("harmonic-FGXY", "diagonal-harmonic-range")
def _harmonic_fgxy(d: Draws):
    c = _draw_conic(d)
    quad = _draw_quadrangle(d, c)
    ok2 = secteur_identity_check(quad)
    ok1 = ok2 or harmonic_range_FGXY_check(quad)  # the secteur check holds only on a harmonic range
    return ok1 and ok2, lambda: [f"bornes {quad.bornes}", f"harmonic: {ok1}", f"secteur identities: {ok2}"]


@_property("transport", "polarity-moves-with-homographies")
def _transport(d: Draws):
    c = _draw_conic(d)
    h = _draw_homography(d)
    c2 = transform(c, h)
    m = d.until(_draw_finite_point, lambda m: not c.contains(m), tries=20)
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
    sample = canonical_chart(secant).point_from_pair(d.rational(-8, 8, 5))
    img = inv1.apply_point(sample)
    checks["polarity involution commutes"] = h.apply(img) == inv2.apply_point(h.apply(sample))
    return all(checks.values()), lambda: [
        f"conic {c}", f"homography {format_repr(h.matrix)}", *(f"{k}: {v}" for k, v in checks.items())
    ]


@_property("classification", "secant-missing-tangent-trichotomy")
def _classification(d: Draws):
    h = _draw_homography(d)
    c = transform(_UNIT_CIRCLE, h)
    p1, p2, p3 = _draw_conic_points(d, c, 3)
    secant = join(p1, p2)
    inv = polarity_involution_on_line(c, secant)
    ok_secant = fixed_pairs(inv.matrix) == PointPair.of_points(inv.chart, p1, p2).pairs  # hyperbolic, fixing p1 and p2
    # a line missing the conic: the polar of an interior point
    a, b, dd = d.until(
        lambda d: (d.draw_int(-4, 4), d.draw_int(-4, 4), d.draw_int(1, 6)),
        lambda v: v[0] * v[0] + v[1] * v[1] < v[2] * v[2],
    )
    interior = h.apply(PPoint(a, b, dd))
    missing = polar(c, interior)
    ok_missing = line_intersect(c, missing) == () and fixed_pairs(polarity_involution_on_line(c, missing).matrix) == ()
    tangent = tangent_at(c, p3)
    try:
        polarity_involution_on_line(c, tangent)
        ok_tangent = False
    except TangentLine:
        ok_tangent = len(line_intersect(c, tangent)) == 1

    def transcript():
        kind, fixed = classify_and_fixed_points(inv)
        return [f"conic {c}", f"secant {secant}: {kind.value}, fixed {format_repr(fixed)}",
                f"missing {missing}: elliptic {ok_missing}", f"tangent {tangent}: degenerates {ok_tangent}"]

    return ok_secant and ok_missing and ok_tangent, transcript


# ---------------------------------------------------------------------------
# fixed-example and bundled-acceptance suites
# ---------------------------------------------------------------------------

_WORKED_F = PPoint(2, 0, 1)


@_property("worked-example", "diagonal-points", fixed=True)
def _diagonal_points():
    fpt, n, g = worked_quadrangle().diagonal_points()
    expect = (_WORKED_F, PPoint(Fraction(1, 2), Fraction(3, 4), 1), PPoint(Fraction(1, 2), 1, 1))
    return (fpt, n, g) == expect, f"got {(fpt, n, g)}"


@_property("worked-example", "traversale-is-x-half", fixed=True)
def _traversale_is_x_half():
    quad = worked_quadrangle()
    _, n, g = quad.diagonal_points()
    tau = join(g, n)
    return tau == PLine(2, 0, -1) == polar(quad.conic, _WORKED_F), f"got {tau}"


@_property("worked-example", "incidence-lemma-meet", fixed=True)
def _incidence_lemma_meet():
    quad = worked_quadrangle()
    b, _, d, _ = quad.bornes
    n = PPoint(Fraction(1, 2), 1, 1)
    e = second_intersection(quad.conic, d, _WORKED_F)
    p = meet(join(n, e), join(_WORKED_F, b))
    ok = (
        e == PPoint(Fraction(5, 13), Fraction(12, 13), 1)
        and p == PPoint(-1, 0, 1)
        and incidence_lemma_check(quad.conic, _WORKED_F, n, d, b)
    )
    return ok, f"e={e} p={p}"


@_property("worked-example", "desargues-triple-one-ninth", fixed=True)
def _desargues_triple():
    pairs = [
        PointPair(Fraction(2), Fraction(1, 2)),
        PointPair(Fraction(3), Fraction(1, 3)),
        PointPair(Fraction(4), Fraction(1, 4)),
    ]
    g, c = Fraction(1, 3), Fraction(3)

    def sides(p):  # the rectangle ratio of the couple p seen from g and c
        return ((p.first - g) * (p.second - g)) / ((p.first - c) * (p.second - c))

    lhs, rhs = sides(pairs[2]), sides(pairs[0])
    ok = desargues_condition_check(pairs) and lhs == rhs == Fraction(1, 9)
    return ok, f"sides {format_extended(lhs)} {format_extended(rhs)}"


@_property("worked-example", "pencil-square-base", fixed=True)
def _pencil_square_base():
    base = PencilBase(
        (PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1), PPoint(0, -1, 1)),
        member=Conic.unit_circle(),
    )
    l = PLine(5, 0, -3)
    inv = pencil_involution_on_line(base, l)
    ok = (
        inv.apply(Fraction(2, 5)) == Fraction(-8, 5)
        and contains_pair(inv, PointPair(Fraction(0), INF))
        and contains_pair(inv, PointPair(Fraction(4, 5), Fraction(-4, 5)))
    )
    return ok, f"matrix {format_repr(inv.matrix)}"


@_property("worked-example", "two-involutions-x-axis", fixed=True)
def _two_involutions_x_axis():
    pair = two_involutions(Conic.unit_circle(), _WORKED_F, X_AXIS)
    kind_p, fixed_p = classify_and_fixed_points(pair.pencil)
    ok = (
        fixed_p == (Fraction(1, 2), Fraction(2))
        and pair.pencil.apply(Fraction(-1)) == 1
        and pair.polarity.apply(Fraction(2)) == Fraction(1, 2)
        and pair.polarity.apply(Fraction(-1)) == Fraction(-1)
        and pair.pencil != pair.polarity
    )
    return ok, f"pencil fixed {format_repr(fixed_p)}, polarity {format_repr(pair.polarity.matrix)}"


@_property("worked-example", "ordinale-x-2-elliptic", fixed=True)
def _ordinale():
    inv = polarity_involution_on_line(Conic.unit_circle(), PLine(1, 0, -2))
    kind, _ = classify_and_fixed_points(inv)
    ok = inv.apply(Fraction(1)) == Fraction(-3) and kind == InvolutionKind.ELLIPTIC
    return ok, f"matrix {format_repr(inv.matrix)} kind {kind.value}"


@_property("worked-example", "midpoint-gives-infinity", fixed=True)
def _midpoint_gives_infinity():
    conj = harmonic_conjugate(
        X_CHART.point_at(Fraction(0)), X_CHART.point_at(Fraction(-1)), X_CHART.point_at(Fraction(1)), X_CHART
    )
    return X_CHART.coordinate(conj) is INF, f"got {conj}"


@_property("worked-example", "tangent-via-harmonic", fixed=True)
def _tangent_via_harmonic():
    t = tangent_via_harmonic(Conic.unit_circle(), PPoint(0, 1, 1), PPoint(Fraction(5, 3), 0, 1))
    return t == PLine(0, 1, -1), f"got {t}"


@_property("affine-diameters", "hyperbola-asymptotes-self-conjugate", fixed=True)
def _asymptotes():
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


@_property("affine-diameters", "circle-diameters-perpendicular")
def _perpendicular_circle(d: Draws):
    circle = Conic.unit_circle()
    center = PPoint(0, 0, 1)
    q = d.until(_draw_finite_point, lambda q: q != center, tries=20)
    diam = join(center, q)
    conj = conjugate_diameters(circle, LINE_AT_INFINITY, diam)
    u1, v1, _ = diam.coeffs
    u2, v2, _ = conj.coeffs
    perpendicular = u1 * u2 + v1 * v2 == 0  # normals orthogonal
    symmetric = conjugate_diameters(circle, LINE_AT_INFINITY, conj) == diam
    ok = perpendicular and symmetric and conj.contains(center)
    return ok, lambda: [f"diameter {diam}", f"conjugate {conj}"]


def _central_conic(d: Draws):
    """A random conic with its affine features, or None for a parabola."""
    c = _draw_conic(d)
    feats = affine_features(c, LINE_AT_INFINITY)
    return (c, feats) if feats.kind.value != "parabola" else None


@_property("affine-diameters", "center-is-pole-of-infinity")
def _center_from_diametrales(d: Draws):
    c, feats = d.until(_central_conic)

    def direction(d):  # a point at infinity off the conic
        x, y = d.draw_int(-5, 5), d.draw_int(-5, 5)
        if (x, y) != (0, 0):
            p = PPoint(x, y, 0)
            return None if c.contains(p) else p

    dirs = d.distinct(2, direction)
    d1 = traversale_from_quadrangle(c, dirs[0])
    d2 = traversale_from_quadrangle(c, dirs[1])
    built = meet(d1, d2) if d1 != d2 else None
    ok = built == feats.center == pole(c, LINE_AT_INFINITY)
    return ok, lambda: [f"conic {c}", f"diametrales {d1} {d2}", f"center {feats.center}"]


@_property("affine-diameters", "center-transport-through-projection")
def _fig17(d: Draws):
    c = _draw_conic(d)

    def line_and_rows(d):  # the rows of a map sending the line to infinity
        lam = _draw_line(d)
        return lam, [[d.draw_int(-3, 3) for _ in range(3)] for _ in range(2)] + [list(lam.coeffs)]

    lam, rows = d.until(line_and_rows, lambda v: det3(v[1]) != 0 and not is_tangent_line(c, v[0]), tries=40)
    h = Homography(rows)
    return central_projection_center_check(c, h, lam), lambda: [f"conic {c}", f"line {lam}", f"map {format_repr(h.matrix)}"]


@_property("self-polar", "diagonal-triangle-self-polar")
def _self_polar(d: Draws):
    c = _draw_conic(d)
    quad = _draw_quadrangle(d, c)
    f, n, g = quad.diagonal_points()
    checks = (
        polar(c, f) == join(n, g),
        polar(c, n) == join(f, g),
        polar(c, g) == join(f, n),
    )
    return all(checks), lambda: [f"bornes {quad.bornes}", f"diagonal {f} {n} {g}", f"self-polar {checks}"]


_FLOAT_RE = {
    "circle": re.compile(r'<circle [^>]*cx="([^"]+)" cy="([^"]+)"'),
    "line": re.compile(r'<line [^>]*x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"'),
}


def _svg_incidence_residuals(name: str, drawables, svg: str) -> tuple[bool, str]:
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


@_property("rendering", "figures-byte-identical", fixed=True)
def _figures_byte_identical(figures):
    for name, (_, svg) in figures().items():
        if render_figure(name) != svg:
            return False, f"{name} rendered differently on the second pass"
    return True, ""


@_property("rendering", "float-incidences-within-1e-9", fixed=True)
def _float_incidences(figures):
    results = [_svg_incidence_residuals(name, *figure) for name, figure in figures().items()]
    return all(ok for ok, _ in results), "; ".join(detail for _, detail in results)


@_property("rendering", "empty-viewport-rejected", fixed=True)
def _empty_viewport_rejected(figures):
    try:
        render_svg([], (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
    except EmptyViewport:
        return True, ""
    return False, "zero-width viewport did not raise"
