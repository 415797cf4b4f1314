"""Ruler constructions against the algebraic operators, exactly."""

import math
import random
from collections import Counter
from fractions import Fraction
import itertools
from itertools import combinations, islice

import pytest

from traversale import (
    INF,
    CoincidentLines,
    CoincidentPoints,
    Conic,
    ConjugateUndefined,
    DegenerateConic,
    DegenerateQuadrangle,
    FramedLine,
    FramedPoint,
    GeometryError,
    Homography,
    InvolutionKind,
    InvolutionOnLine,
    LINE_AT_INFINITY,
    LineMissesConic,
    NoRationalSecants,
    NotADiameter,
    NotOnConic,
    OnConic,
    PLine,
    PPoint,
    PointPair,
    RationalParametrization,
    TangentLine,
    VertexOnTransversal,
    canonical_chart,
    classify_and_fixed_points,
    contains_pair,
    cross_ratio,
    is_tangent_line,
    join,
    meet,
    polar,
    pole,
    rational_parametrize,
    second_intersection,
    tangent_at,
    transform,
)
from traversale import cli, projective, synthetic
from traversale.conic import _FRAME_BITS, chord_parametrization, find_rational_point
from traversale.linalg import cross, det2, det3, dot, mat2_mul, mat2_vec, primitive
from traversale.numbers import from_pair, small_pairs, to_pair
from traversale.render import Drawable, render_svg
from traversale.synthetic import (
    _SWEEP_PAIRS,
    InscribedQuadrangle,
    PencilBase,
    central_projection_center_check,
    conjugate_diameters,
    harmonic_range_FGXY_check,
    incidence_lemma_check,
    inscribed_quadrangle_through,
    menelaus_check,
    pencil_involution_on_line,
    pole_by_construction,
    quadrangle_transcript,
    secteur_identity_check,
    tangent_via_harmonic,
    traversale_from_quadrangle,
    two_involutions,
)


def F(*args):
    return Fraction(*args)


def _random_conic(rng):
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        try:
            h = Homography(rows)
        except Exception:
            continue
        return transform(Conic.unit_circle(), h), h


def _random_quadrangle(rng, c):
    par = rational_parametrize(c, c.witness)
    while True:
        ts = set()
        while len(ts) < 4:
            ts.add(F(rng.randint(-9, 9), rng.randint(1, 7)))
        pts = [par.point(t) for t in ts]
        try:
            return InscribedQuadrangle(c, *pts)
        except Exception:
            continue


def _random_exterior(rng, c):
    par = rational_parametrize(c, c.witness)
    while True:
        t1 = F(rng.randint(-9, 9), rng.randint(1, 7))
        t2 = F(rng.randint(-9, 9), rng.randint(1, 7))
        p1, p2 = par.point(t1), par.point(t2)
        if p1 != p2:
            return meet(tangent_at(c, p1), tangent_at(c, p2))


# -- diagonal triangle -------------------------------------------------------

def test_diagonal_triangle_worked(worked_quadrangle):
    f, n, g = worked_quadrangle.diagonal_points()
    assert f == PPoint(2, 0, 1)
    assert n == PPoint(F(1, 2), F(3, 4), 1)
    assert g == PPoint(F(1, 2), 1, 1)


def test_diagonal_triangle_square(circle):
    quad = InscribedQuadrangle(
        circle, PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1), PPoint(0, -1, 1)
    )
    f, n, g = quad.diagonal_points()
    assert f == PPoint(1, -1, 0)
    assert n == PPoint(1, 1, 0)
    assert g == PPoint(0, 0, 1)


def test_quadrangle_rejects_collinear(circle):
    with pytest.raises(DegenerateQuadrangle):
        InscribedQuadrangle(
            circle, PPoint(1, 0, 1), PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(0, -1, 1)
        )


def _circle_image(seed, steps):
    """The unit circle (witness included) under `steps` seeded random homographies, with their composite."""
    rng = random.Random(seed)
    h = Homography.identity()
    for _ in range(steps):
        h = _random_conic(rng)[1].compose(h)
    return transform(Conic.unit_circle(), h), h


_SWEEP_CONICS = {
    "circle": (Conic.unit_circle(), Homography.identity()),
    "twin": (Conic(Conic.unit_circle().matrix, witness=PPoint(1, 0, 1)), Homography.identity()),
    **{f"small-{seed}": _circle_image(seed, steps) for seed, steps in ((81, 1), (82, 1), (83, 2))},
    # matrix entries of about 300 bits
    **{f"deep-{seed}": _circle_image(seed, 60) for seed in (84, 85)},
}


def _sweep_points(c, h, par):
    """An exterior f whose tangent contacts are the points of 0 and 1, an interior f and an f at infinity."""
    contacts = (par.point(F(0)), par.point(F(1)))  # swept points, so the sweep meets both tangents from f
    return {
        "exterior": meet(*(tangent_at(c, p) for p in contacts)),
        "interior": h.apply(PPoint(0, 0, 1)),
        "infinity": next(f for f in (PPoint(1, k, 0) for k in range(2, 9)) if not c.contains(f)),
    }


@pytest.mark.parametrize("name", list(_SWEEP_CONICS))
def test_quadrangle_sweep_matches_second_intersection_reference(name):
    # the parameter sweep and the closed-form bornales against the
    # point-by-point chord construction and the joins they replace
    c, h = _SWEEP_CONICS[name]
    par = chord_parametrization(c)

    def reference_bornes(f, offset):
        seen, secants = set(), []
        for s in ((0, 1), (1, 0), *islice(small_pairs(), 1, 63)):
            p = par.point_from_pair(s)
            if p in seen:
                continue
            q = second_intersection(c, p, f)
            if q == p or q in seen:
                continue
            seen.update((p, q))
            secants.append((p, q))
            if len(secants) == offset + 2:
                return (*secants[offset], *secants[offset + 1])
        raise AssertionError(f"reference sweep found {len(secants)} secants through {f}")

    for kind, f in _sweep_points(c, h, par).items():
        assert not c.contains(f)
        for offset in range(4):
            b, c2, d, e = reference_bornes(f, offset)
            quad = inscribed_quadrangle_through(c, f, offset=offset)
            assert quad.bornes == (b, c2, d, e), (kind, offset)
            # the unchecked sweep quadrangle passes the checked constructor and equals what it builds
            checked = InscribedQuadrangle(c, *quad.bornes)
            fields = lambda q: (q.conic, q.bornes, repr(q), q.bornale_couples, q.diagonal_points())
            assert fields(quad) == fields(checked), (kind, offset)
            n = meet(join(c2, d), join(b, e))
            g = meet(join(b, d), join(c2, e))
            assert traversale_from_quadrangle(c, f, offset=offset) == join(g, n), (kind, offset)


_HUB_CONICS = {
    **_SWEEP_CONICS,
    **{f"chain-{steps}": _circle_image(300 + steps, steps) for steps in (1, 16, 64, 256)},
}


@pytest.mark.parametrize("name", list(_HUB_CONICS))
def test_known_secant_sweeps_name_inscribed_quadrangles(name):
    # pole_by_construction hands each frame cut g its secant (hub, s)
    # through g; the quadrangle the sweep then completes is never built by
    # the traversale, so every one is built and checked here
    c, h = _HUB_CONICS[name]
    par = chord_parametrization(c)
    for kind, f in _sweep_points(c, h, par).items():
        l = polar(c, f)
        cuts = list(synthetic._frame_cuts(par.frame_of_line(l)))
        assert len(cuts) >= 60, kind
        for x, known in cuts:
            g = par.point_from_frame(x)
            assert l.contains(g) and not c.contains(g), (kind, known)
            assert join(*map(par.point_from_pair, known)).contains(g), (kind, known)
            pairs = synthetic._sweep(par, x, 0, known)
            assert pairs[:2] == known, (kind, known)
            b, c2, d, e = bornes = tuple(map(par.point_from_pair, pairs))
            assert all(c.contains(p) for p in bornes), (kind, known)
            assert len(set(bornes)) == 4, (kind, known)
            InscribedQuadrangle(c, *bornes)
            n = meet(join(c2, d), join(b, e))
            g_pt = meet(join(b, d), join(c2, e))
            assert par.line_from_frame(synthetic._frame_traversale(par, x, known=known)) == join(g_pt, n), (kind, known)


def _tangent_parameter(c, par):
    """The chart pair naming the base point: the tangent direction at the base."""
    ref = join(par.direction(F(0)), par.direction(INF))
    chart = canonical_chart(ref)
    pair = to_pair(chart.coordinate(meet(ref, tangent_at(c, par.base))))
    assert par.point_from_pair(pair) == par.base
    return pair


def _frame_pairs(c, par, rng, count=10, top=60):
    """INF, 0, the pair of the base point and random pairs, two of them large, naming distinct points."""
    small = [(rng.randint(-top, top), rng.randint(0, top)) for _ in range(4 * count)]
    large = [(rng.getrandbits(200) - 2**199, rng.getrandbits(200) + 1) for _ in range(2)]
    pairs = []
    for pair in [(1, 0), (0, 1), _tangent_parameter(c, par), *small]:
        if pair != (0, 0) and len(pairs) < count and all(pair[0] * q[1] != pair[1] * q[0] for q in pairs):
            pairs.append(pair)
    return pairs + large


@pytest.mark.parametrize("name", list(_HUB_CONICS))
def test_chord_form_crosses_back_to_the_frame(name):
    # UxV = rA, UxW = rB and VxW = rC with one r = det(A, B, C)/g^2, g the
    # content that the chord form (AxB, AxC, BxC)/g divides out
    c, _ = _HUB_CONICS[name]
    par = RationalParametrization(c, chord_parametrization(c).base)
    assert par._chord_form is None  # built on first use, not with the parametrization
    a, b, cc = par._quadratic
    u, v, w = par._chords()
    g = math.gcd(*cross(a, b), *cross(a, cc), *cross(b, cc))
    det = det3((a, b, cc))
    assert det != 0
    for product, vector in ((cross(u, v), a), (cross(u, w), b), (cross(v, w), cc)):
        assert [x * g * g for x in product] == [det * y for y in vector], name


@pytest.mark.parametrize("name", list(_HUB_CONICS))
def test_frame_maps_points_and_lines_one_to_one(name):
    c, h = _HUB_CONICS[name]
    par = chord_parametrization(c)
    rng = random.Random(name)
    pairs = _frame_pairs(c, par, rng)
    for s in pairs:
        x = synthetic._borne(s)
        assert synthetic._on_model_conic(x), s
        assert par.frame_of_point(par.point_from_pair(s)) == primitive(x), s
        assert par.point_from_frame(x) == par.point_from_pair(s), s
    points = [*map(par.point_from_pair, pairs[:4]), *_sweep_points(c, h, par).values()]
    points += [PPoint(*(rng.randint(-9, 9) for _ in range(2)), rng.randint(1, 9)) for _ in range(4)]
    lines = [LINE_AT_INFINITY, *(PLine(*(rng.randint(-9, 9) for _ in range(2)), rng.randint(1, 9)) for _ in range(4))]
    lines += [polar(c, p) for p in points[4:7]]
    for p in points:
        x = par.frame_of_point(p)
        assert par.point_from_frame(x) == p
        assert synthetic._on_model_conic(x) == c.contains(p), p
        for l in lines:
            assert (dot(par.frame_of_line(l), x) == 0) == l.contains(p), (p, l)
    for l in lines:
        assert par.line_from_frame(par.frame_of_line(l)) == l, l


@pytest.mark.parametrize("name", list(_HUB_CONICS))
def test_chord_closed_form_matches_join(name):
    # the frame chord through two bornes, mapped into the plane, is the join
    # of their points; the tangent when the pairs are equal
    c, _ = _HUB_CONICS[name]
    par = chord_parametrization(c)
    pairs = _frame_pairs(c, par, random.Random(name))
    for s in pairs:
        ps = par.point_from_pair(s)
        assert par.line_from_frame(synthetic._chord(s, s)) == tangent_at(c, ps)
        assert par.line_from_frame(synthetic._chord(s, (3 * s[0], 3 * s[1]))) == tangent_at(c, ps)  # scale-free
        for t in pairs:
            pt = par.point_from_pair(t)
            chord = synthetic._chord(s, t)
            assert chord == synthetic._chord(t, s)
            assert dot(chord, synthetic._borne(s)) == dot(chord, synthetic._borne(t)) == 0
            if pt != ps:
                assert par.line_from_frame(chord) == join(ps, pt), (s, t)
                assert par.frame_of_line(join(ps, pt)) == primitive(chord), (s, t)


@pytest.mark.parametrize("name", list(_HUB_CONICS))
def test_frame_meets_and_cuts_match_the_plane(name):
    # the meet of two frame chords, and the cut of a frame line by the chord
    # from the hub, are the plane meets they replace
    c, h = _HUB_CONICS[name]
    par = chord_parametrization(c)
    rng = random.Random(name)
    pairs = _frame_pairs(c, par, rng, count=6, top=9)
    point = lambda s: par.point_from_pair(s)
    plane_chord = lambda s, t: tangent_at(c, point(s)) if s == t else join(point(s), point(t))
    for s, t, q, r in (rng.sample(pairs, 4) for _ in range(6)):
        for first, second in (((s, t), (q, r)), ((s, s), (q, r)), ((s, s), (t, t)), ((s, t), (s, q))):
            x = cross(synthetic._chord(*first), synthetic._chord(*second))
            assert par.point_from_frame(x) == meet(plane_chord(*first), plane_chord(*second)), (first, second)
    lines = [LINE_AT_INFINITY, polar(c, h.apply(PPoint(0, 0, 1))), join(point(pairs[0]), point(pairs[1]))]
    lines += [PLine(*(rng.randint(-9, 9) for _ in range(2)), rng.randint(1, 9)) for _ in range(2)]
    for l in lines:
        lam = par.frame_of_line(l)
        for hub in pairs:
            if l.contains(point(hub)):
                continue
            for s in pairs:
                if s == hub:
                    continue
                x = cross(lam, synthetic._chord(hub, s))
                g = meet(l, join(point(hub), point(s)))
                assert par.point_from_frame(x) == g, (l, hub, s)
                assert synthetic._on_model_conic(x) == c.contains(g) == (g == point(s)), (l, hub, s)


@pytest.mark.parametrize("name", list(_HUB_CONICS))
def test_parameter_involution_of_the_lines_through_f(name):
    c, h = _HUB_CONICS[name]
    par = chord_parametrization(c)
    chart = canonical_chart(join(par.direction(F(0)), par.direction(INF)))
    rng = random.Random(name)
    params = [(1, 0), (0, 1), _tangent_parameter(c, par)]
    params += [(rng.randint(-30, 30), rng.randint(1, 20)) for _ in range(6)]
    for kind, f in _sweep_points(c, h, par).items():
        m = synthetic._involution(par.frame_of_point(f))
        m2 = mat2_mul(m, m)
        assert m2[0][1] == m2[1][0] == 0 and m2[0][0] == m2[1][1] != 0, kind  # M^2 is scalar
        for s in params:
            ps = par.point_from_pair(s)
            assert par.point_from_pair(mat2_vec(m, s)) == second_intersection(c, ps, f), (kind, s)
        fixed = classify_and_fixed_points(InvolutionOnLine(chart, m))
        if kind == "exterior":  # fixed at the contacts of the tangents from f
            assert fixed == (InvolutionKind.HYPERBOLIC, (F(0), F(1)))
        if kind == "interior":  # no tangent through f
            assert fixed == (InvolutionKind.ELLIPTIC, None)
    # the involution degenerates exactly when f is on the conic
    on = [par.point_from_pair(s) for s in params]
    off = [PPoint(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)]
    for f in on + [p for p in off if not c.contains(p)]:
        assert (det2(synthetic._involution(par.frame_of_point(f))) == 0) == c.contains(f), f


@pytest.mark.parametrize("seed, steps", [(0, 0), (91, 1), (92, 2), (93, 60)])
def test_distinct_points_on_a_nondegenerate_conic_are_never_collinear(seed, steps):
    # the theorem that lets InscribedQuadrangle skip the trio determinants
    c, _ = _circle_image(seed, steps)
    assert c.is_nondegenerate
    par = chord_parametrization(c)
    rng = random.Random(seed)
    for _ in range(10):
        pts = set()
        while len(pts) < 4:
            pts.add(par.point(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))))
        for trio in combinations(pts, 3):
            assert det3([p.coords for p in trio]) != 0
        InscribedQuadrangle(c, *pts)


def test_inscribed_quadrangle_checks_bornes_then_distinctness(circle):
    on = (PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1))
    off = PPoint(3, 0, 1)  # off the circle, and collinear with (1, 0) and (-1, 0)
    for pts in ((off, *on), (on[0], on[0], on[1], off), (on[0], on[1], on[1], off)):
        with pytest.raises(NotOnConic) as info:
            InscribedQuadrangle(circle, *pts)
        assert str(info.value) == f"borne {off} is not on the conic"
    for pts in ((on[0], on[0], on[1], on[2]), (*on, on[2])):
        with pytest.raises(DegenerateQuadrangle) as info:
            InscribedQuadrangle(circle, *pts)
        assert str(info.value) == "bornes must be pairwise distinct"


# on the two-line conic xy = 0, three bornes on the x-axis and one on the y-axis
_AXIS = [PPoint(1, 0, 1), PPoint(2, 0, 1), PPoint(3, 0, 1)]
_OFF_AXIS = PPoint(0, 1, 1)


@pytest.mark.parametrize("position", range(4))
def test_general_position_names_the_collinear_trio(position):
    pts = list(_AXIS)
    pts.insert(position, _OFF_AXIS)
    trio = "[PPoint(1, 0, 1), PPoint(2, 0, 1), PPoint(3, 0, 1)]"
    two_lines = Conic(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(DegenerateQuadrangle) as bornes:
        InscribedQuadrangle(two_lines, *pts)
    assert str(bornes.value) == f"three bornes are collinear: {trio}"
    with pytest.raises(DegenerateQuadrangle) as base:
        PencilBase(tuple(pts))
    assert str(base.value) == f"three base points are collinear: {trio}"


def test_general_position_reports_first_trio_of_a_collinear_four():
    pts = (*_AXIS, PPoint(4, 0, 1))
    with pytest.raises(DegenerateQuadrangle) as info:
        PencilBase(pts)
    assert str(info.value) == (
        "three base points are collinear: [PPoint(2, 0, 1), PPoint(3, 0, 1), PPoint(4, 0, 1)]"
    )
    with pytest.raises(DegenerateQuadrangle) as info:
        PencilBase((_AXIS[0], _AXIS[0], _AXIS[1], _OFF_AXIS))
    assert str(info.value) == "base points must be pairwise distinct"


# -- traversale --------------------------------------------------------------

def test_traversale_worked_example(circle):
    tau = traversale_from_quadrangle(circle, PPoint(2, 0, 1))
    assert tau == PLine(2, 0, -1)
    assert tau == polar(circle, PPoint(2, 0, 1))


def test_traversale_and_pole_build_no_quadrangle(circle, monkeypatch):
    # the swept parameters name an inscribed quadrangle by construction, which
    # test_known_secant_sweeps_name_inscribed_quadrangles proves instead
    built = []
    real_init = InscribedQuadrangle.__init__
    monkeypatch.setattr(InscribedQuadrangle, "__init__", lambda self, *args: built.append(args) or real_init(self, *args))
    for c, _ in (_SWEEP_CONICS["circle"], _SWEEP_CONICS["deep-84"]):
        f = _random_exterior(random.Random(5), c)
        assert traversale_from_quadrangle(c, f, offset=1) == polar(c, f)
        l = polar(c, PPoint(3, 5, 7))
        assert pole_by_construction(c, l) == pole(c, l)
    assert built == []
    quad = inscribed_quadrangle_through(circle, PPoint(2, 0, 1))  # the sweep's quadrangle, unchecked
    assert type(quad) is InscribedQuadrangle and built == []
    InscribedQuadrangle(circle, *quad.bornes)  # the counter sees the checked path
    assert len(built) == 1


def test_traversale_at_infinity_is_diametrale(circle):
    f = PPoint(1, -1, 0)
    tau = traversale_from_quadrangle(circle, f)
    assert tau == polar(circle, f) == PLine(1, -1, 0)


def test_traversale_rejects_point_on_conic(circle):
    for build in (traversale_from_quadrangle, inscribed_quadrangle_through):
        with pytest.raises(OnConic) as exc:
            build(circle, PPoint(1, 0, 1))
        assert type(exc.value) is OnConic
        assert str(exc.value) == "(1, 0, 1) lies on the conic; no traversale quadrangle exists"


@pytest.mark.parametrize("coefficients", [(1, -1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)], ids=["line-pair", "double-line"])
def test_traversale_rejects_a_degenerate_conic_before_any_borne(coefficients):
    # the parametrization refuses the conic, so no sweep can put three bornes on a line
    for build in (traversale_from_quadrangle, inscribed_quadrangle_through):
        with pytest.raises(DegenerateConic) as exc:
            build(Conic.from_coefficients(*coefficients), PPoint(2, 0, 1))
        assert str(exc.value) == "rational parametrization needs a nondegenerate conic"


def test_a_point_on_a_degenerate_conic_gets_the_conic_error():
    # (0, 0, 1) is the double point of the line pair x^2 = y^2: the
    # parametrization refuses the conic before f is tested against it
    line_pair = Conic.from_coefficients(1, -1, 0, 0, 0, 0)
    assert line_pair.contains(PPoint(0, 0, 1))
    for build in (traversale_from_quadrangle, inscribed_quadrangle_through):
        with pytest.raises(DegenerateConic) as exc:
            build(line_pair, PPoint(0, 0, 1))
        assert str(exc.value) == "rational parametrization needs a nondegenerate conic"


def test_a_missed_rational_point_is_named_before_the_point_or_line_test():
    # the circle image keeps its witness; its bare twin's bounded search
    # finds no rational point, so a point on it or a tangent to it cannot
    # be tested in the frame
    c, _ = _circle_image(84, 4)
    bare = Conic(c.matrix)
    assert find_rational_point(bare) is None
    tangent = polar(c, c.witness)
    for call in (
        lambda: traversale_from_quadrangle(bare, c.witness),
        lambda: inscribed_quadrangle_through(bare, c.witness),
        lambda: pole_by_construction(bare, tangent),
    ):
        with pytest.raises(NoRationalSecants) as exc:
            call()
        assert str(exc.value) == "no rational point found on the conic within the search budget"
    with pytest.raises(OnConic):
        traversale_from_quadrangle(c, c.witness)
    with pytest.raises(TangentLine):
        pole_by_construction(c, tangent)


def test_chord_parametrization_is_built_once_per_conic(circle):
    par = chord_parametrization(circle)
    assert par.base == circle.witness
    assert chord_parametrization(circle) is par
    inscribed_quadrangle_through(circle, PPoint(2, 0, 1))
    assert chord_parametrization(circle) is par


def test_equal_conics_with_other_witnesses_keep_their_own_base():
    # equal conics, different witnesses: a memo keyed on equality would
    # hand the second conic the first one's base
    circle = Conic.unit_circle()
    twin = Conic(circle.matrix, witness=PPoint(1, 0, 1))
    assert twin == circle
    f = PPoint(3, 1, 1)
    quads = {}
    for c in (circle, twin, circle, twin):
        assert chord_parametrization(c).base == c.witness
        quad = inscribed_quadrangle_through(c, f)
        expected_first = rational_parametrize(c, c.witness).point(0)
        assert quad.b == expected_first
        assert traversale_from_quadrangle(c, f) == polar(c, f)
        quads.setdefault(id(c), quad.bornes)
        assert quads[id(c)] == quad.bornes
    assert quads[id(circle)] != quads[id(twin)]


def test_no_rational_point_gives_one_message_from_every_caller(monkeypatch):
    from traversale import conic

    searches = []
    real_search = conic.find_rational_point
    monkeypatch.setattr(conic, "find_rational_point", lambda c: searches.append(c) or real_search(c))
    no_point = Conic.from_coefficients(1, 1, -3, 0, 0, 0)  # x^2 + y^2 = 3 z^2
    viewport = (Fraction(-2), Fraction(-2), Fraction(2), Fraction(2))
    for _ in range(2):
        for call in (
            lambda: chord_parametrization(no_point),
            lambda: traversale_from_quadrangle(no_point, PPoint(2, 0, 1)),
            lambda: pole_by_construction(no_point, PLine(1, 0, -2)),
            lambda: render_svg([Drawable("conic", no_point)], viewport),
        ):
            with pytest.raises(NoRationalSecants) as exc:
                call()
            assert str(exc.value) == "no rational point found on the conic within the search budget"
    # the failed search is remembered on the object, so it runs once
    assert searches == [no_point]


def test_degenerate_conic_with_a_point_is_searched_once(monkeypatch):
    from traversale import conic

    searches = []
    real_search = conic.find_rational_point
    monkeypatch.setattr(conic, "find_rational_point", lambda c: searches.append(c) or real_search(c))
    line_pair = Conic.from_coefficients(1, -1, 0, 0, 0, 0)  # x^2 = y^2
    raised = []
    for _ in range(5):
        with pytest.raises(DegenerateConic) as exc:
            traversale_from_quadrangle(line_pair, PPoint(2, 0, 1))
        assert type(exc.value) is DegenerateConic
        assert str(exc.value) == "rational parametrization needs a nondegenerate conic"
        raised.append(exc.value)
    # each call raises its own error, so no traceback grows on the remembered one
    assert len(set(map(id, raised))) == 5
    # the search found a point, and the refused parametrization is remembered
    assert searches == [line_pair] and real_search(line_pair) is not None


def test_point_search_transcript_and_cli_build_fractions_only_for_literals(fraction_count, monkeypatch, tmp_path):
    # the search sweeps integer pairs, the transcript prints integer entries,
    # and a witness-less CLI conic builds Fractions only in its parsed literals
    no_point = Conic.from_coefficients(1, 1, -3, 0, 0, 0)  # x^2 + y^2 = 3 z^2
    quad = synthetic.worked_quadrangle()
    fraction_count.label = "search"
    assert find_rational_point(no_point) is None
    fraction_count.label = "transcript"
    quadrangle_transcript(quad)
    for module in (cli, projective):
        monkeypatch.setattr(module, "parse_rational", fraction_count.uncounted(module.parse_rational))
    fraction_count.label = "cli"
    argv = ["traversale", "--conic", "1 4 -9 0 0 0", "--point", "(5, 1, 3)", "--transcript", str(tmp_path / "t.scene")]
    assert cli.main(argv) == 0
    fraction_count.label = None
    # linalg reads each literal's Fractions once: the conic's six in primitive, the point's three in primitive_triple
    assert fraction_count.counts == {("cli", "primitive"): 2}


def test_secant_budget_ends_the_offsets(circle):
    f = PPoint(2, 0, 1)
    assert traversale_from_quadrangle(circle, f, offset=45) == polar(circle, f)
    with pytest.raises(NoRationalSecants) as exc:
        traversale_from_quadrangle(circle, f, offset=46)
    assert str(exc.value) == "found 47 usable rational secants through (1, 0, 1/2) within the budget"


def test_traversale_quadrangle_independence_randomized():
    rng = random.Random(61)
    for _ in range(25):
        c, _ = _random_conic(rng)
        f = _random_exterior(rng, c)
        tau = traversale_from_quadrangle(c, f)
        tau2 = traversale_from_quadrangle(c, f, offset=2)
        assert tau == tau2 == polar(c, f)


def test_independent_quadrangles_are_disjoint(circle):
    f = PPoint(2, 0, 1)
    q0 = inscribed_quadrangle_through(circle, f)
    q2 = inscribed_quadrangle_through(circle, f, offset=2)
    assert set(q0.bornes).isdisjoint(q2.bornes)
    assert q0.diagonal_points()[0] == f == q2.diagonal_points()[0]


def test_construction_transcript_runs_and_renders(circle, tmp_path):
    from traversale.scene import run_scene_text
    from traversale.synthetic import quadrangle_transcript

    text = quadrangle_transcript(inscribed_quadrangle_through(circle, PPoint(2, 0, 1)))
    report = run_scene_text(text, name="transcript")
    assert report.passed and report.cases == 3
    # the renderer consumes the same transcript
    renderable = text + "render scene out=t.svg viewport=-2,-2,3,2\n"
    report2 = run_scene_text(renderable, name="transcript", base_dir=str(tmp_path))
    assert report2.passed and (tmp_path / "t.svg").exists()
    # transcripts are deterministic
    assert text == quadrangle_transcript(inscribed_quadrangle_through(circle, PPoint(2, 0, 1)))


def test_pole_by_construction_worked(circle):
    l = PLine(2, 0, -1)
    assert pole_by_construction(circle, l) == pole(circle, l) == PPoint(2, 0, 1)
    # the two traversales named in the construction
    assert polar(circle, PPoint(F(1, 2), F(3, 4), 1)) == PLine(2, 3, -4)
    assert polar(circle, PPoint(F(1, 2), 1, 1)) == PLine(1, 2, -2)
    assert meet(PLine(2, 3, -4), PLine(1, 2, -2)) == PPoint(2, 0, 1)


def test_pole_by_construction_infinity_line(circle):
    assert pole_by_construction(circle, LINE_AT_INFINITY) == PPoint(0, 0, 1)


def test_pole_by_construction_tangent_rejected(circle):
    with pytest.raises(TangentLine):
        pole_by_construction(circle, PLine(1, 0, -1))


def _pole_lines(c, h, par, rng):
    """Lines through no swept point, through the point of s0, and through those of s0 and s1."""
    (s0, s1), p0 = _SWEEP_PAIRS[:2], par.point_from_pair(_SWEEP_PAIRS[0])
    lines = {
        "chord of contact": join(par.point(F(2, 3)), par.point(F(-5, 4))),
        "polar of the interior point": polar(c, h.apply(PPoint(0, 0, 1))),
        "infinity": LINE_AT_INFINITY,
        "random": PLine(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)),
        "through P(s0)": join(p0, h.apply(PPoint(rng.randint(-9, 9), rng.randint(-9, 9), 0))),
        "through P(s0) and P(s1)": join(p0, par.point_from_pair(s1)),
    }
    return {name: l for name, l in lines.items() if not is_tangent_line(c, l)}


@pytest.mark.parametrize("steps", [1, 2, 4, 16, 64, 256])
def test_pole_by_construction_equals_pole_on_deep_conics(steps):
    # deep chains carry coefficients of up to about 1,300 bits; lines through
    # one or two swept points send the hub past the first parameters
    c, h = _circle_image(1400 + steps, steps)
    par = chord_parametrization(c)
    lines = _pole_lines(c, h, par, random.Random(steps))
    assert {"through P(s0)", "through P(s0) and P(s1)"} <= set(lines)
    for name, l in lines.items():
        assert pole_by_construction(c, l) == pole(c, l), name


@pytest.mark.parametrize("steps", [0, 6, 64])
def test_pole_by_construction_tests_each_cut_against_the_conic_once(steps, monkeypatch):
    # the hub sweep tests every frame cut g on the model conic; the
    # traversale of g, handed its secant, does not test it again
    c, _ = _circle_image(80 + steps, steps)
    l = polar(c, PPoint(3, 5, 7))
    tested = []
    real = synthetic._on_model_conic

    def recording(x):
        on = real(x)
        tested.append((x, on))
        return on

    monkeypatch.setattr(synthetic, "_on_model_conic", recording)
    assert pole_by_construction(c, l) == pole(c, l)
    monkeypatch.undo()
    off = Counter(x for x, on in tested if not on)
    assert len(off) >= 2 and set(off.values()) == {1}


@pytest.mark.parametrize("steps", [0, 1, 64])
def test_pole_by_construction_meets_at_most_nine_lines(steps, monkeypatch):
    # in the frame: two cuts of l, two meets per traversale and the final
    # meet, plus at most two cuts skipped on the conic; each traversale
    # also takes one join, its third cross product
    c, h = _circle_image(1500 + steps, steps)
    par = chord_parametrization(c)
    lams, firsts = [], []
    real_cuts, real_cross = synthetic._frame_cuts, synthetic.cross
    monkeypatch.setattr(synthetic, "_frame_cuts", lambda lam: lams.append(lam) or real_cuts(lam))
    monkeypatch.setattr(synthetic, "cross", lambda a, b: firsts.append(a) or real_cross(a, b))
    for name, l in _pole_lines(c, h, par, random.Random(steps)).items():
        lams.clear()
        firsts.clear()
        pole_by_construction(c, l)
        # a cut of l is a cross whose first operand is l's frame line itself
        # (a chord of the sweep may equal it)
        cuts = sum(first is lams[0] for first in firsts)
        meets = len(firsts) - 2
        assert len(firsts) - cuts == 7 and meets <= 9, name
        if name == "through P(s0) and P(s1)":
            assert meets == 9


@pytest.mark.parametrize("steps", [0, 1, 6, 64])
def test_each_construction_builds_one_plane_object_after_its_gate(steps, monkeypatch):
    # the OnConic test of f (traversale) and the TangentLine test of l (pole)
    # are made in the parametrization's frame, like the construction: no
    # plane meet, join, pole or Conic.contains.  Below the size gate the
    # result is one PLine or PPoint, whose triple the frame maps once.
    # Above it (steps = 64) the result is a FramedLine or FramedPoint and
    # no triple is mapped until the first read of coeffs or coords; a
    # second read maps nothing.
    c, h = _circle_image(1500 + steps, steps)
    par = chord_parametrization(c)
    f = _random_exterior(random.Random(steps), c)
    lines = _pole_lines(c, h, par, random.Random(steps))
    expected = {"traversale": polar(c, f), **{name: pole(c, l) for name, l in lines.items()}}
    framed = steps == 64
    events = []

    def after(name, real):
        return lambda *args: (real(*args), events.append(name))[0]

    for owner, name, event in (
        (PPoint, "__init__", "PPoint"),
        (PLine, "__init__", "PLine"),
        (RationalParametrization, "_point_triple", "point map"),
        (RationalParametrization, "_line_triple", "line map"),
        (Conic, "contains", "contains"),
        (synthetic, "meet", "meet"),
        (synthetic, "join", "join"),
        (synthetic, "pole", "pole"),
    ):
        monkeypatch.setattr(owner, name, after(event, getattr(owner, name)))
    built = {}
    for name, construct, arg, kind, read in (
        ("traversale", traversale_from_quadrangle, f, "line", "coeffs"),
        *((name, pole_by_construction, l, "point", "coords") for name, l in lines.items()),
    ):
        events.clear()
        built[name] = construct(c, arg)
        map_event, plain_event = f"{kind} map", "PLine" if kind == "line" else "PPoint"
        assert events == ([] if framed else [map_event, plain_event]), name
        events.clear()
        first = getattr(built[name], read)
        assert events == ([map_event] if framed else []), name
        assert getattr(built[name], read) is first and events == ([map_event] if framed else []), name
    monkeypatch.undo()
    assert built == expected
    assert {isinstance(v, (FramedLine, FramedPoint)) for v in built.values()} == {framed}
    assert (max(map(abs, chord_parametrization(c)._quadratic[0])).bit_length() > _FRAME_BITS) is framed


@pytest.mark.parametrize(
    "c, l, error, message",
    [
        (Conic.from_coefficients(1, 1, -3, 0, 0, 0), PLine(1, 2, 3), NoRationalSecants,
         "no rational point found on the conic within the search budget"),
        (Conic.from_coefficients(1, -1, 0, 0, 0, 0), PLine(1, 2, 3), DegenerateConic,
         "rational parametrization needs a nondegenerate conic"),
        (Conic.from_coefficients(1, 0, 0, 0, 0, 0), PLine(1, 2, 3), DegenerateConic,
         "rational parametrization needs a nondegenerate conic"),
        (Conic.from_coefficients(1, 1, 1, 0, 0, 0), PLine(1, 2, 3), NoRationalSecants,
         "no rational point found on the conic within the search budget"),
        (Conic.unit_circle(), PLine(1, 0, -1), TangentLine,
         "[1, 0, -1] is tangent; its pole lies on it and the construction degenerates"),
    ],
    ids=["no-rational-point", "line-pair", "double-line", "empty", "tangent"],
)
def test_pole_by_construction_errors(c, l, error, message):
    with pytest.raises(error) as exc:
        pole_by_construction(c, l)
    assert type(exc.value) is error and str(exc.value) == message


# -- incidence lemma ---------------------------------------------------------

def test_incidence_lemma_worked(circle):
    f = PPoint(2, 0, 1)
    n = PPoint(F(1, 2), 1, 1)
    d = PPoint(F(3, 5), F(4, 5), 1)
    b = PPoint(1, 0, 1)
    assert incidence_lemma_check(circle, f, n, d, b)


def test_incidence_lemma_perturbed_fails(circle):
    f = PPoint(2, 0, 1)
    n_off = PPoint(F(1, 2), F(9, 10), 1)
    d = PPoint(F(3, 5), F(4, 5), 1)
    b = PPoint(1, 0, 1)
    assert not incidence_lemma_check(circle, f, n_off, d, b)


def test_incidence_lemma_requires_conic_points(circle):
    from traversale import NotOnConic

    with pytest.raises(NotOnConic):
        incidence_lemma_check(circle, PPoint(2, 0, 1), PPoint(0, 0, 1), PPoint(2, 2, 1), PPoint(1, 0, 1))


# -- pencil theorem ----------------------------------------------------------

def test_pencil_square_base_example(circle):
    base = PencilBase(
        (PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1), PPoint(0, -1, 1)),
        member=circle,
    )
    inv = pencil_involution_on_line(base, PLine(5, 0, -3))
    # y * y' = -16/25 from the traces {2/5, -8/5} and {8/5, -2/5}
    for t in (F(2, 5), F(8, 5), F(1)):
        assert t * inv.apply(t) == F(-16, 25)
    assert contains_pair(inv, PointPair(F(0), INF))  # third couple's trace
    assert contains_pair(inv, PointPair(F(4, 5), F(-4, 5)))  # the circle's trace


def test_pencil_line_through_diagonal_point(circle, worked_quadrangle):
    # a line through the diagonal point F: the involution fixes F and the
    # traversale point H
    base = PencilBase(worked_quadrangle.bornes, member=circle)
    l = join(PPoint(2, 0, 1), PPoint(0, 1, 1))
    inv = pencil_involution_on_line(base, l)
    chart = inv.chart
    tf = chart.coordinate(PPoint(2, 0, 1))
    th = chart.coordinate(meet(l, PLine(2, 0, -1)))
    kind, fixed = classify_and_fixed_points(inv)
    assert kind == InvolutionKind.HYPERBOLIC
    assert set(fixed) == {tf, th}
    # the conic's own trace is a couple of the involution
    lpt, mpt = PPoint(0, 1, 1), PPoint(F(4, 5), F(3, 5), 1)
    assert circle.contains(lpt) and circle.contains(mpt) and l.contains(mpt)
    assert contains_pair(inv, PointPair(chart.coordinate(lpt), chart.coordinate(mpt)))


def test_pencil_base_point_on_line_rejected(circle):
    base = PencilBase(
        (PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1), PPoint(0, -1, 1)),
        member=circle,
    )
    from traversale import BasePointOnLine

    with pytest.raises(BasePointOnLine):
        pencil_involution_on_line(base, PLine(0, 1, 0))


def test_pencil_theorem_randomized():
    rng = random.Random(67)
    done = 0
    while done < 25:
        c, _ = _random_conic(rng)
        par = rational_parametrize(c, c.witness)
        ts = set()
        while len(ts) < 6:
            ts.add(F(rng.randint(-9, 9), rng.randint(1, 7)))
        pts = [par.point(t) for t in sorted(ts)]
        try:
            base = PencilBase(tuple(pts[:4]), member=c)
        except Exception:
            continue
        l = join(pts[4], pts[5])
        if any(l.contains(p) for p in base.points):
            continue
        inv = pencil_involution_on_line(base, l)
        chart = inv.chart
        m1, m2 = base.degenerate_members()[2]
        third = PointPair(chart.coordinate(meet(m1, l)), chart.coordinate(meet(m2, l)))
        conic_trace = PointPair(chart.coordinate(pts[4]), chart.coordinate(pts[5]))
        assert contains_pair(inv, third)
        assert contains_pair(inv, conic_trace)
        done += 1


# -- the two involutions ------------------------------------------------------

def test_two_involutions_x_axis(circle):
    pair = two_involutions(circle, PPoint(2, 0, 1), PLine(0, 1, 0))
    kind, fixed = classify_and_fixed_points(pair.pencil)
    assert kind == InvolutionKind.HYPERBOLIC and fixed == (F(1, 2), F(2))
    assert pair.pencil.apply(F(-1)) == F(1)
    # the polarity involution is x -> 1/x
    for t in (F(2), F(5), F(-3)):
        assert pair.polarity.apply(t) == 1 / t
    assert classify_and_fixed_points(pair.polarity)[1] == (F(-1), F(1))
    assert pair.pencil != pair.polarity
    assert pair.traversale_point == PPoint(F(1, 2), 0, 1)


def test_two_involutions_other_exterior_point(circle):
    pair = two_involutions(circle, PPoint(F(5, 3), 0, 1), PLine(0, 1, 0))
    assert pair.polarity.apply(F(5, 3)) == F(3, 5)
    kind, fixed = classify_and_fixed_points(pair.pencil)
    assert fixed == (F(3, 5), F(5, 3))


def test_two_involutions_harmonic(circle):
    pair = two_involutions(circle, PPoint(2, 0, 1), PLine(0, 1, 0))
    lpt, mpt = pair.conic_trace
    chart = pair.pencil.chart
    value = cross_ratio(lpt, mpt, PPoint(2, 0, 1), pair.traversale_point, chart)
    assert value == -1


def test_two_involutions_composition_swaps_crosswise(circle):
    # composing the two involutions exchanges L with M and f with H: the
    # two special couples are preserved as sets
    pair = two_involutions(circle, PPoint(2, 0, 1), PLine(0, 1, 0))
    chart = pair.pencil.chart
    coords = {
        "L": chart.coordinate(pair.conic_trace[0]),
        "M": chart.coordinate(pair.conic_trace[1]),
        "f": chart.coordinate(PPoint(2, 0, 1)),
        "H": chart.coordinate(pair.traversale_point),
    }
    comp = lambda t: pair.polarity.apply(pair.pencil.apply(t))
    assert comp(coords["L"]) == coords["M"] and comp(coords["M"]) == coords["L"]
    assert comp(coords["f"]) == coords["H"] and comp(coords["H"]) == coords["f"]


def test_two_involutions_errors(circle):
    with pytest.raises(TangentLine):
        two_involutions(circle, PPoint(1, 5, 1), PLine(1, 0, -1))
    with pytest.raises(LineMissesConic):
        two_involutions(circle, PPoint(2, 0, 1), PLine(1, 0, -2))


def test_two_involutions_takes_the_polarity_involution_errors(circle):
    for c, f, l, error, message in (
        (circle, PPoint(1, 5, 1), PLine(1, 0, -1), TangentLine,
         "[1, 0, -1] is tangent; the polarity involution degenerates"),
        (Conic.from_coefficients(1, -1, 0, 0, 0, 0), PPoint(2, 0, 1), PLine(0, 1, 0), DegenerateConic,
         "the polarity involution needs a nondegenerate conic"),
    ):
        with pytest.raises(error) as exc:
            two_involutions(c, f, l)
        assert type(exc.value) is error and str(exc.value) == message


def test_two_involutions_builds_one_chart(circle, monkeypatch):
    # the pencil involution is read in the chart of the polarity involution
    import traversale.conic as conic_module

    charts = []
    for module in (synthetic, conic_module):
        real = module.canonical_chart
        monkeypatch.setattr(module, "canonical_chart", lambda l, real=real: charts.append(l) or real(l))
    pair = two_involutions(circle, PPoint(2, 0, 1), PLine(0, 1, 0))
    assert charts == [PLine(0, 1, 0)]
    assert pair.pencil.chart == pair.polarity.chart == canonical_chart(PLine(0, 1, 0))


# -- tangent via harmonic conjugate -------------------------------------------

def test_tangent_via_harmonic_worked(circle):
    t = tangent_via_harmonic(circle, PPoint(0, 1, 1), PPoint(F(5, 3), 0, 1))
    assert t == PLine(0, 1, -1) == tangent_at(circle, PPoint(0, 1, 1))


def test_tangent_via_harmonic_through_center_case(circle):
    # ordonnee through (1,0) and (5/3,0) is the x-axis; H = (3/5, 0) and its
    # conjugate is the infinite point of the traversale, so the tangent is
    # vertical
    t = tangent_via_harmonic(circle, PPoint(1, 0, 1), PPoint(F(5, 3), 0, 1))
    assert t == PLine(1, 0, -1) == tangent_at(circle, PPoint(1, 0, 1))


def test_tangent_via_harmonic_contact_point_rejected(circle):
    with pytest.raises(ConjugateUndefined):
        tangent_via_harmonic(circle, PPoint(F(3, 5), F(4, 5), 1), PPoint(F(5, 3), 0, 1))


def test_tangent_via_harmonic_randomized(circle):
    rng = random.Random(71)
    par = rational_parametrize(circle, PPoint(-1, 0, 1))
    done = 0
    while done < 25:
        a = par.point(F(rng.randint(-9, 9), rng.randint(1, 7)))
        f = _random_exterior(rng, circle)
        try:
            t = tangent_via_harmonic(circle, a, f)
        except GeometryError:
            continue
        assert t == tangent_at(circle, a)
        done += 1


# -- conjugate diameters -------------------------------------------------------

def test_conjugate_diameters_circle(circle):
    assert conjugate_diameters(circle, LINE_AT_INFINITY, PLine(0, 1, 0)) == PLine(1, 0, 0)
    d = join(PPoint(0, 0, 1), PPoint(3, 2, 1))
    conj = conjugate_diameters(circle, LINE_AT_INFINITY, d)
    # circle: conjugate diameters are perpendicular
    assert d.coeffs[0] * conj.coeffs[0] + d.coeffs[1] * conj.coeffs[1] == 0
    assert conjugate_diameters(circle, LINE_AT_INFINITY, conj) == d


def test_asymptotes_self_conjugate():
    hyp = Conic(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    for asym in (PLine(1, -1, 0), PLine(1, 1, 0)):
        assert conjugate_diameters(hyp, LINE_AT_INFINITY, asym) == asym


def test_conjugate_diameters_computes_one_pole(circle, monkeypatch):
    # the center is built once, and tested on the infinity line for a parabola
    import traversale.conic as conic_module

    poles = []
    for module in (synthetic, conic_module):
        monkeypatch.setattr(module, "pole", lambda c, l: poles.append(l) or pole(c, l))
    assert conjugate_diameters(circle, LINE_AT_INFINITY, PLine(0, 1, 0)) == PLine(1, 0, 0)
    assert poles == [LINE_AT_INFINITY, PLine(0, 1, 0)]
    poles.clear()
    parabola = Conic.from_coefficients(1, 0, 0, 0, 0, -1)  # x^2 = y z
    with pytest.raises(TangentLine) as exc:
        conjugate_diameters(parabola, LINE_AT_INFINITY, PLine(1, 0, 0))
    assert str(exc.value) == "the infinity line is tangent: a parabola has no center at finite distance"
    assert poles == [LINE_AT_INFINITY]


def test_conjugate_diameter_requires_center(circle):
    with pytest.raises(NotADiameter):
        conjugate_diameters(circle, LINE_AT_INFINITY, PLine(2, 0, -1))


# -- Menelaus ------------------------------------------------------------------

def test_menelaus_worked():
    tri = (PPoint(0, 0, 1), PPoint(1, 0, 1), PPoint(0, 1, 1))
    ok, ratios = menelaus_check(tri, PLine(2, -2, -1))  # y = x - 1/2
    assert ok
    assert sorted(ratios) == [F(-3), F(1, 3), F(1)]
    assert ratios[0] * ratios[1] * ratios[2] == -1


def test_menelaus_vertex_rejected():
    tri = (PPoint(0, 0, 1), PPoint(1, 0, 1), PPoint(0, 1, 1))
    with pytest.raises(VertexOnTransversal):
        menelaus_check(tri, PLine(1, -1, 0))  # passes through (0,0)


def test_menelaus_randomized():
    rng = random.Random(73)
    done = 0
    while done < 40:
        pts = [PPoint(rng.randint(-6, 6), rng.randint(-6, 6), 1) for _ in range(3)]
        l = PLine(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)) if rng.random() < 0.8 else LINE_AT_INFINITY
        try:
            if l == LINE_AT_INFINITY:
                continue
            ok, ratios = menelaus_check(tuple(pts), l)
        except Exception:
            continue
        assert ok and ratios[0] * ratios[1] * ratios[2] == -1
        done += 1


def _section_ratio_by_decomposition(p, x, q):
    """The signed ratio px/xq from x = alpha*p + beta*q, solved by Cramer's rule: (beta*qz)/(alpha*pz)."""
    for v in (p, q):
        if v.is_infinite:
            raise ValueError(f"{v} is at infinity")
    pc, qc, xc = p.coords, q.coords, x.coords
    i, j = next((i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if pc[i] * qc[j] != pc[j] * qc[i])
    alpha, beta = xc[i] * qc[j] - xc[j] * qc[i], pc[i] * xc[j] - pc[j] * xc[i]
    if alpha == 0:
        raise VertexOnTransversal(f"section point coincides with {q}")
    if beta == 0:
        raise VertexOnTransversal(f"section point coincides with {p}")
    return F(beta * qc[2], alpha * pc[2])


def _menelaus_by_decomposition(triangle, transversal):
    a, b, c = triangle
    ratios = tuple(
        _section_ratio_by_decomposition(p, meet(transversal, join(p, q)), q) for p, q in ((a, b), (b, c), (c, a))
    )
    return ratios[0] * ratios[1] * ratios[2] == -1, ratios


def _outcome_text(call, *args):
    """The result of call(*args), or the name and message of the error it raised."""
    try:
        return call(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_menelaus_matches_the_decomposition_reference():
    rng = random.Random(79)
    points = [PPoint(x, y, z) for x in range(-4, 5) for y in range(-4, 5) for z in (1, 1, 1, 2, 3, 0) if x or y or z]
    lines = [PLine(*t) for t in itertools.product(range(-3, 4), repeat=3) if any(t)]
    outcomes = Counter()
    for _ in range(3000):
        tri = tuple(rng.choice(points) for _ in range(3))
        l = rng.choice(lines)
        expected = _outcome_text(_menelaus_by_decomposition, tri, l)
        assert _outcome_text(menelaus_check, tri, l) == expected, (tri, l)
        if isinstance(expected[0], bool):
            assert expected[0]
            outcomes["cut at infinity" if -1 in expected[1] else "finite cuts"] += 1
        else:
            outcomes[expected[0]] += 1
        # both coincidences of a side's section point with its vertices
        p, q = tri[:2]
        if p != q and not (p.is_infinite or q.is_infinite):
            for x in (p, q):
                expected = _outcome_text(_section_ratio_by_decomposition, p, x, q)
                assert _outcome_text(lambda *a: from_pair(synthetic._section_ratio(*a)), p, x, q) == expected
                outcomes[expected[1].replace(str(p), "p").replace(str(q), "q")] += 1
    assert set(outcomes) == {
        "finite cuts", "cut at infinity", "VertexOnTransversal", "ValueError", "CoincidentPoints", "CoincidentLines",
        "section point coincides with p", "section point coincides with q",
    }, outcomes


def test_menelaus_cut_at_infinity():
    # transversal parallel to one side: that side's ratio is exactly -1
    tri = (PPoint(0, 0, 1), PPoint(1, 0, 1), PPoint(0, 1, 1))
    ok, ratios = menelaus_check(tri, PLine(0, 1, -2))  # y = 2, parallel to AB
    assert ok and ratios[0] == -1


# -- harmonic range F, G, X, Y -------------------------------------------------

def test_fgxy_worked(worked_quadrangle):
    assert harmonic_range_FGXY_check(worked_quadrangle)
    assert secteur_identity_check(worked_quadrangle)


def test_fgxy_square(circle):
    quad = InscribedQuadrangle(
        circle, PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1), PPoint(0, -1, 1)
    )
    assert harmonic_range_FGXY_check(quad)
    assert secteur_identity_check(quad)


def test_fgxy_randomized():
    rng = random.Random(79)
    for _ in range(30):
        c, _ = _random_conic(rng)
        quad = _random_quadrangle(rng, c)
        assert harmonic_range_FGXY_check(quad)
        assert secteur_identity_check(quad)


# Reference checks on Fraction coordinates: the harmonic and secteur checks
# as they read on chart coordinates, against which the pair-based checks are
# compared.

def _ref_harmonic_range(q):
    f, _, g, fg, x, y = synthetic.fgxy_points(q)
    return cross_ratio(x, y, f, g, canonical_chart(fg)) == -1


def _ref_secteur_identity(q):
    f, n, g, fg, x, y = synthetic.fgxy_points(q)
    chart_fg = canonical_chart(fg)
    if cross_ratio(x, y, f, g, chart_fg) != -1:
        return False
    if any(p.is_infinite for p in (f, n, g, x, y, *q.bornes)):
        return True
    tx, ty, tf, tg = map(chart_fg.coordinate, (x, y, f, g))
    dx, dn, dd = map(canonical_chart(join(q.d, q.c)).coordinate, (x, n, q.d))
    bn, by, bb, be = map(canonical_chart(join(q.b, q.e)).coordinate, (n, y, q.b, q.e))
    d_ratio = (dx - dd) / (dn - dd)
    first = (tx - tg) / (ty - tg) == d_ratio * ((bn - bb) / (by - bb))
    second = (tx - tf) / (ty - tf) == d_ratio * ((bn - be) / (by - be))
    return first and second


_FGXY_CHECKS = ((harmonic_range_FGXY_check, _ref_harmonic_range), (secteur_identity_check, _ref_secteur_identity))


def _outcome(fn, *args):
    """The result of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except (GeometryError, ZeroDivisionError) as exc:
        return type(exc)


def _unchecked_quadrangle(c, pts):
    """A quadrangle record on any four points, skipping the constructor's checks."""
    q = InscribedQuadrangle.__new__(InscribedQuadrangle)
    q._set(c, *pts)
    return q


@pytest.mark.parametrize("steps", [0, 1, 2, 16, 64, 256])
def test_fgxy_checks_match_the_fraction_reference(steps, monkeypatch):
    # drawn quadrangles on small conics (steps 0: one small homography each)
    # and on the circle moved by up to 256 homographies; the segment ratios
    # must be reached, not only the projective cross-ratio
    rng = random.Random(700 + steps)
    conics = [_random_conic(rng)[0] for _ in range(12)] if steps == 0 else [_circle_image(700 + steps, steps)[0]] * 6
    ratios = []
    real_ratio = synthetic._segment_ratio
    monkeypatch.setattr(synthetic, "_segment_ratio", lambda *v: ratios.append(v) or real_ratio(*v))
    for c in conics:
        for _ in range(3):
            q = _random_quadrangle(rng, c)
            for check, reference in _FGXY_CHECKS:
                assert _outcome(check, q) is _outcome(reference, q) is True, q
    assert len(ratios) >= 3 * len(conics)


def test_secteur_identity_reads_every_segment_ratio(worked_quadrangle, circle, monkeypatch):
    # DX/DN, then GX/GY with BN/BY, then FX/FY with EN/EY: moving any one
    # of the five ratios by 1 breaks an identity, so each one is read
    quads = [worked_quadrangle] + [_random_quadrangle(random.Random(k), circle) for k in range(3)]
    real_ratio = synthetic._segment_ratio
    for k in range(5):
        calls = []

        def shifted(*v):
            calls.append(v)
            num, den = real_ratio(*v)
            return (num + den, den) if len(calls) == k + 1 else (num, den)

        monkeypatch.setattr(synthetic, "_segment_ratio", shifted)
        for q in quads:
            calls.clear()
            assert not secteur_identity_check(q) and len(calls) == (3 if k < 3 else 5), (k, q)
    monkeypatch.setattr(synthetic, "_segment_ratio", real_ratio)
    assert all(secteur_identity_check(q) for q in quads)


def test_fgxy_checks_match_the_fraction_reference_on_degenerate_layouts(circle):
    # any four of nine grid points and three points at infinity, in two
    # orders: both answers agree, and so do the errors of the collinear ones
    grid = [PPoint(x, y, 1) for x in (-1, 0, 1) for y in (-1, 0, 1)] + [PPoint(1, 0, 0), PPoint(0, 1, 0), PPoint(1, 1, 0)]
    outcomes = Counter()
    for pts in combinations(grid, 4):
        for order in (pts, pts[::-1]):
            q = _unchecked_quadrangle(circle, order)
            for check, reference in _FGXY_CHECKS:
                got = _outcome(check, q)
                assert got == _outcome(reference, q), order
                outcomes[got] += 1
    assert set(outcomes) == {True, CoincidentLines, CoincidentPoints}, outcomes


# finite chart pairs in and out of lowest terms, some with a negative den
_RATIO_NODES = ((0, 1), (1, 1), (-1, 2), (3, -2), (4, 2), (-5, 3), (2, -4), (0, -3))


def test_segment_ratio_is_the_fraction_ratio_on_every_ordered_triple():
    outcomes = Counter()
    for x, y, o in itertools.product(_RATIO_NODES, repeat=3):
        fx, fy, fo = (F(*v) for v in (x, y, o))
        got = _outcome(lambda: F(*synthetic._segment_ratio(x, y, o)))
        assert got == _outcome(lambda: (fx - fo) / (fy - fo)), (x, y, o)
        outcomes[got] += 1
    assert outcomes[ZeroDivisionError] > 50 and len(outcomes) > 20, outcomes


# -- self-polar diagonal triangle ----------------------------------------------

def test_self_polar_diagonal_triangle_randomized():
    rng = random.Random(83)
    for _ in range(25):
        c, _ = _random_conic(rng)
        quad = _random_quadrangle(rng, c)
        f, n, g = quad.diagonal_points()
        assert polar(c, f) == join(n, g)
        assert polar(c, n) == join(f, g)
        assert polar(c, g) == join(f, n)


# -- center transport (the cone picture, flattened) -----------------------------

def test_central_projection_center_transport(circle):
    lam = PLine(1, 0, -1)
    h = Homography(((1, 0, 0), (0, 1, 0), (1, 0, -1)))
    assert h.apply_line(lam) == LINE_AT_INFINITY
    assert central_projection_center_check(circle, h, lam)


def test_central_projection_randomized():
    rng = random.Random(89)
    done = 0
    while done < 20:
        c, _ = _random_conic(rng)
        r1 = [rng.randint(-3, 3) for _ in range(3)]
        r2 = [rng.randint(-3, 3) for _ in range(3)]
        lam_coeffs = [rng.randint(-3, 3) for _ in range(3)]
        try:
            lam = PLine(*lam_coeffs)
            h = Homography((r1, r2, lam_coeffs))
        except Exception:
            continue
        from traversale import is_tangent_line

        if is_tangent_line(c, lam):
            continue
        assert central_projection_center_check(c, h, lam)
        done += 1
