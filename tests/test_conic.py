"""Quadratic-form conics: polarity, intersections, inertia, affine features."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from traversale import (
    INF,
    AffineKind,
    BasePointNotOnConic,
    Conic,
    ConicClass,
    DegenerateConic,
    DegeneratePointSet,
    Homography,
    InteriorPoint,
    InvolutionKind,
    IrrationalIntersection,
    LINE_AT_INFINITY,
    LineOnConic,
    PLine,
    PPoint,
    RationalParametrization,
    TangentLine,
    TotallyIsotropicPoint,
    ZeroForm,
    affine_features,
    canonical_basis,
    canonical_chart,
    classify,
    classify_and_fixed_points,
    collinear,
    concurrent,
    conic_from_five_points,
    find_rational_point,
    fixed_pairs,
    is_tangent_line,
    join,
    line_intersect,
    meet,
    polar,
    polarity_involution_on_line,
    pole,
    rational_parametrize,
    second_intersection,
    tangent_at,
    tangents_from,
    transform,
)
from traversale import conic as conic_module
from traversale.linalg import adjugate, cross, det3, dot, mat_mul, mat_vec, primitive_rows, primitive_rows2, transpose
from traversale.numbers import lowest_terms, parse_rational
from traversale.projective import canonical_pair

from oracles import homography_chain, random_homography


def solve2(a, b, rhs):
    """The reference Cramer solve of [a b] (x, y) = rhs for 2-vectors a, b: (x, y, d) for (x/d, y/d), None when d = 0."""
    d = a[0] * b[1] - a[1] * b[0]
    if d == 0:
        return None
    return (rhs[0] * b[1] - rhs[1] * b[0], a[0] * rhs[1] - a[1] * rhs[0], d)


def F(*args):
    return Fraction(*args)


# -- construction -----------------------------------------------------------

def test_conic_from_five_points_gives_circle(circle):
    pts = [
        PPoint(1, 0, 1),
        PPoint(0, 1, 1),
        PPoint(-1, 0, 1),
        PPoint(0, -1, 1),
        PPoint(F(3, 5), F(4, 5), 1),
    ]
    c = conic_from_five_points(*pts)
    assert c == circle
    # oracle: every input point satisfies the returned form exactly
    assert all(c.contains(p) for p in pts)


def test_conic_from_five_points_second_example():
    pts = [
        PPoint(1, 0, 1),
        PPoint(0, 1, 1),
        PPoint(-1, 0, 1),
        PPoint(0, -1, 1),
        PPoint(1, 1, 1),
    ]
    c = conic_from_five_points(*pts)
    assert all(c.contains(p) for p in pts)
    assert c.is_nondegenerate


def test_conic_from_five_points_degenerate():
    four_collinear = [PPoint(t, 0, 1) for t in (0, 1, 2, 3)] + [PPoint(0, 1, 1)]
    repeated = [PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1), PPoint(0, 1, 1), PPoint(2, 3, 1)]
    for pts in (four_collinear, repeated):
        with pytest.raises(DegeneratePointSet, match="^the five points lie on more than one conic$"):
            conic_from_five_points(*pts)
    # three collinear points still give one conic: the line pair through them
    pair = conic_from_five_points(PPoint(0, 0, 1), PPoint(1, 0, 1), PPoint(2, 0, 1), PPoint(0, 1, 1), PPoint(0, 2, 1))
    assert pair == Conic(((0, 1, 0), (1, 0, 0), (0, 0, 0)))


def _five_point_outcome(pts):
    try:
        return conic_from_five_points(*pts)
    except DegeneratePointSet:
        return DegeneratePointSet


def test_conic_from_five_points_recovers_circle_images():
    rng = random.Random(71)
    for _ in range(12):
        h = random_homography(rng)
        c = transform(Conic.unit_circle(), h)
        ts = rng.sample(range(-9, 10), 5)
        pts = [h.apply(PPoint(1 - t * t, 2 * t, 1 + t * t)) for t in ts]
        # the pencil takes p1..p4 as base points, so every ordering is a different computation
        assert {conic_from_five_points(*perm) for perm in permutations(pts)} == {c}


def test_conic_from_five_points_ignores_the_order():
    rng = random.Random(73)
    unique = degenerate = 0
    for _ in range(60):
        pts = [PPoint(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(5)]
        outcomes = {_five_point_outcome(perm) for perm in permutations(pts)}
        assert len(outcomes) == 1
        (outcome,) = outcomes
        if outcome is DegeneratePointSet:
            degenerate += 1
        else:
            assert all(outcome.contains(p) for p in pts)
            unique += 1
    assert unique > 10 and degenerate > 10


def test_conic_from_five_points_degenerate_layouts():
    a, b, c, d = (PPoint(1 - t * t, 2 * t, 1 + t * t) for t in (0, 1, 2, 3))
    for i, j in combinations(range(5), 2):  # each repeat position
        rest = iter((b, c, d))
        pts = [a if k in (i, j) else next(rest) for k in range(5)]
        with pytest.raises(DegeneratePointSet):
            conic_from_five_points(*pts)
    for odd in range(5):  # four collinear points; odd = 4 puts p5 on the line of p1, p2, p3
        rest = iter(PPoint(t, 0, 1) for t in (0, 1, 2, 3))
        pts = [PPoint(0, 1, 1) if k == odd else next(rest) for k in range(5)]
        with pytest.raises(DegeneratePointSet, match="^the five points lie on more than one conic$"):
            conic_from_five_points(*pts)


def test_conic_from_five_points_three_collinear_give_a_line_pair():
    rng = random.Random(79)
    checked = 0
    while checked < 40:
        a, b = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
        if not any(cross(a, b)):
            continue
        s, t = rng.randint(1, 3), rng.choice((-2, -1, 1, 2))
        on = [PPoint(*a), PPoint(*b), PPoint(*(s * x + t * y for x, y in zip(a, b)))]
        l = join(on[0], on[1])
        off = [PPoint(rng.randint(-3, 3), rng.randint(-3, 3), 1) for _ in range(2)]
        if off[0] == off[1] or any(l.contains(p) for p in off):
            continue
        lc, mc = l.coeffs, join(*off).coeffs
        pair = Conic(tuple(tuple(lc[i] * mc[j] + mc[i] * lc[j] for j in range(3)) for i in range(3)))
        for positions in combinations(range(5), 3):  # L through p1, p2, p3 and every other choice
            rest_on, rest_off = iter(on), iter(off)
            pts = [next(rest_on) if k in positions else next(rest_off) for k in range(5)]
            assert conic_from_five_points(*pts) == pair
        checked += 1


def test_conic_coefficient_round_trip(circle):
    assert circle.coefficients() == (1, 1, -1, 0, 0, 0)
    rebuilt = Conic.from_coefficients(*circle.coefficients())
    assert rebuilt == circle


@pytest.mark.parametrize("coeffs", [(1, 1, -1, 1, 0, 0), (1, 1, -1, 0, 1, 0), (1, 1, -1, 0, 0, 1), (3, -2, 5, 4, -6, 7)])
def test_cross_term_coefficients_round_trip(coeffs):
    # each cross term is twice its off-diagonal matrix entry; a factor lost on
    # one of xy, xz, yz changes that coefficient and no other
    c = Conic.from_coefficients(*coeffs)
    assert c.coefficients() == coeffs
    assert Conic.from_coefficients(*c.coefficients()) == c
    assert Conic.from_coefficients(*map(parse_rational, str(c).split())) == c


def test_from_coefficients_matches_the_fraction_rows():
    # the reference: the matrix (2a, d, e; d, 2b, f; e, f, 2c) built on the
    # Fractions themselves, against one primitive pass over the coefficients
    rng = random.Random(26)
    for _ in range(300):
        coeffs = [rng.choice((rng.randint(-6, 6), F(rng.randint(-6, 6), rng.randint(1, 6)))) for _ in range(6)]
        if not any(coeffs):
            continue
        a, b, c, d, e, f = (F(x) for x in coeffs)
        assert Conic.from_coefficients(*coeffs) == Conic(((2 * a, d, e), (d, 2 * b, f), (e, f, 2 * c)))


def test_zero_form_rejected():
    with pytest.raises(ZeroForm):
        Conic(((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ZeroForm):
        Conic.from_coefficients(0, 0, F(0), 0, 0, 0)


# -- polar / pole -----------------------------------------------------------

def test_polar_examples(circle):
    assert polar(circle, PPoint(2, 0, 1)) == PLine(2, 0, -1)
    assert polar(circle, PPoint(1, 0, 1)) == PLine(1, 0, -1)  # tangent at the point


def test_polar_point_double_rejected():
    degenerate = Conic(((1, 0, 0), (0, 0, 0), (0, 0, -1)))  # x^2 = z^2
    with pytest.raises(TotallyIsotropicPoint):
        polar(degenerate, PPoint(0, 1, 0))


def test_pole_examples(circle):
    assert pole(circle, LINE_AT_INFINITY) == PPoint(0, 0, 1)  # the center
    assert pole(circle, PLine(2, 0, -1)) == PPoint(2, 0, 1)


def test_pole_tangency_and_center_apply_the_dual_form():
    ellipse = Conic.from_coefficients(1, 4, -1, 0, 0, 0)  # x^2 + 4y^2 = 1
    chord = PLine(2, 0, -1)
    assert pole(ellipse, chord) == pole(ellipse, chord) == PPoint(2, 0, 1)
    assert not is_tangent_line(ellipse, chord) and is_tangent_line(ellipse, PLine(1, 0, -1))
    assert affine_features(ellipse).center == PPoint(0, 0, 1)
    fresh = Conic(ellipse.matrix)
    assert fresh == ellipse and hash(fresh) == hash(ellipse)


def test_pole_needs_rank_three():
    degenerate = Conic(((1, 0, 0), (0, 0, 0), (0, 0, -1)))
    with pytest.raises(DegenerateConic):
        pole(degenerate, PLine(0, 1, 0))


@pytest.mark.parametrize("seed, steps", [(90, 0), (91, 1), (92, 16), (93, 64), (94, 256)])
def test_is_tangent_line_is_its_definition(seed, steps, monkeypatch):
    # l.adj(M).l = 0 against the definition: l contains its pole
    c, h = homography_chain(seed, steps)
    rng = random.Random(seed)
    par = rational_parametrize(c, c.witness)
    tangents = [tangent_at(c, par.point(F(rng.randint(-9, 9), rng.randint(1, 7)))) for _ in range(4)]
    lines = tangents + [h.apply_line(PLine(1, 0, -1)), LINE_AT_INFINITY]
    lines += [PLine(*(rng.randint(-9, 9) for _ in range(2)), rng.randint(1, 9)) for _ in range(8)]
    expected = [l.contains(pole(c, l)) for l in lines]
    assert expected[:5] == [True] * 5 and not all(expected)
    monkeypatch.setattr(PPoint, "__init__", lambda *args: pytest.fail("is_tangent_line built a point"))
    assert [is_tangent_line(c, l) for l in lines] == expected


@pytest.mark.parametrize("rows", [((1, 0, 0), (0, -1, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 0), (0, 0, 0))], ids=["rank-2", "rank-1"])
def test_is_tangent_line_needs_rank_three(rows):
    with pytest.raises(DegenerateConic) as exc:
        is_tangent_line(Conic(rows), PLine(1, 2, 3))
    assert str(exc.value) == "pole needs a nondegenerate conic"


def test_biduality_randomized():
    rng = random.Random(29)
    for _ in range(100):
        c = transform(Conic.unit_circle(), random_homography(rng))
        m = PPoint(F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9)), 1)
        if c.contains(m):
            continue
        assert pole(c, polar(c, m)) == m
        l = polar(c, m)
        assert polar(c, pole(c, l)) == l


def test_incidence_duality_randomized():
    rng = random.Random(31)
    for _ in range(100):
        c = transform(Conic.unit_circle(), random_homography(rng))
        p1 = PPoint(rng.randint(-5, 5), rng.randint(-5, 5), 1)
        p2 = PPoint(rng.randint(-5, 5), rng.randint(-5, 5), 1)
        if p1 == p2:
            continue
        l = join(p1, p2)
        p3 = PPoint(*(a + b for a, b in zip(p1.coords, p2.coords)))
        polars = [polar(c, p) for p in (p1, p2, p3)]
        assert concurrent(*polars)
        poles = [pole(c, m) for m in polars]
        assert collinear(*poles)


# -- intersections ----------------------------------------------------------

def test_line_intersect_secant(circle):
    assert line_intersect(circle, PLine(0, 1, 0)) == (PPoint(1, 0, -1), PPoint(1, 0, 1))
    for p in line_intersect(circle, PLine(0, 1, 0)):
        assert circle.contains(p) and PLine(0, 1, 0).contains(p)


def test_line_intersect_missing(circle):
    assert line_intersect(circle, PLine(1, 0, -2)) == ()


def test_line_intersect_irrational(circle):
    with pytest.raises(IrrationalIntersection) as exc:
        line_intersect(circle, PLine(0, 2, -1))  # y = 1/2: x^2 = 3/4
    # phi^2 - qo*qi on the basis o = (0, 1, 2), i = (2, 0, 0): 0 - (-3)(4)
    assert exc.value.discriminant == 12


def test_line_intersect_tangent_single(circle):
    assert line_intersect(circle, PLine(1, 0, -1)) == (PPoint(1, 0, 1),)


def test_line_on_degenerate_conic():
    two_lines = Conic(((1, 0, 0), (0, 0, 0), (0, 0, -1)))  # x = z and x = -z
    with pytest.raises(LineOnConic):
        line_intersect(two_lines, PLine(1, 0, -1))


def _unreduced_line_intersect(c, l):
    """The intersection with each root pair mapped onto the line as it stands, not reduced first.

    The roots of alpha*lam^2 + beta*lam*mu + gamma*mu^2 on the canonical
    basis, with the full discriminant beta^2 - 4*alpha*gamma.
    """
    p0, p1 = canonical_basis(l)
    m = c.matrix
    alpha, beta, gamma = dot(mat_vec(m, p1), p1), 2 * dot(mat_vec(m, p0), p1), dot(mat_vec(m, p0), p0)
    if alpha == 0:
        if beta == 0:
            return (PPoint(*p1),)
        pts = [PPoint(*p1), PPoint(*(beta * a - gamma * b for a, b in zip(p0, p1)))]
    else:
        disc = beta * beta - 4 * alpha * gamma
        if disc < 0:
            return ()
        root = math.isqrt(disc)
        if root * root != disc:
            raise IrrationalIntersection(disc)
        pts = {PPoint(*(2 * alpha * a + (-beta + r) * b for a, b in zip(p0, p1))) for r in (root, -root)}
    return tuple(sorted(pts, key=lambda p: p.coords))


@pytest.mark.parametrize("steps", [0, 1, 16, 64, 256])
def test_line_intersect_reduced_roots_match_the_unreduced_formula(steps, monkeypatch):
    # each line twice: on the plane path, then read in the frame of the
    # conic's chord parametrization once the conic carries it
    c, h = homography_chain(300 + steps, steps)
    par = RationalParametrization(c, c.witness)  # a frame of its own, so the conic's memo stays empty
    on = [par.point(t) for t in (F(0), F(1, 3), F(-2), INF)]
    lines = {
        "infinity": LINE_AT_INFINITY,
        "missing": polar(c, h.apply(PPoint(0, 0, 1))),
        **{f"secant-{i}": join(on[i], on[i + 1]) for i in range(3)},
        **{f"tangent-{i}": tangent_at(c, p) for i, p in enumerate(on)},
        # on the circle itself these take the branches alpha = 0 (beta = 0 or not)
        **{f"image-{n}": h.apply_line(PLine(*n)) for n in ((1, 0, -1), (1, 1, -1), (0, 1, -1), (3, 4, -5))},
    }
    rng = random.Random(steps)
    for n in range(6):
        lines[f"random-{n}"] = PLine(*(rng.randint(-9, 9) for _ in range(3)))
    bases = []
    monkeypatch.setattr(conic_module, "canonical_basis", lambda l: bases.append(l) or canonical_basis(l))
    runs = []
    for frame in (False, True):
        if frame:
            conic_module.chord_parametrization(c)
        assert (c._parametrization is not None) is frame
        results = {}
        for name, l in lines.items():
            bases.clear()
            try:
                expected = _unreduced_line_intersect(c, l)
            except IrrationalIntersection as exc:
                with pytest.raises(IrrationalIntersection) as info:
                    line_intersect(c, l)
                assert info.value.discriminant == exc.discriminant // 4, name
                results[name] = info.value.discriminant
                continue
            results[name] = line_intersect(c, l)
            assert results[name] == expected, name
            assert all(c.contains(p) and l.contains(p) for p in expected), name
            if name.startswith("tangent"):
                assert len(expected) == 1, name
            assert (bases == []) is frame, name  # a rational trace in the frame needs no canonical basis
        runs.append(results)
    assert runs[0] == runs[1]
    assert {type(r) for r in runs[0].values()} == {tuple, int}  # rational and irrational traces both met
    assert () in runs[0].values()


def test_second_intersection_vieta(circle):
    base = PPoint(-1, 0, 1)
    assert second_intersection(circle, base, PPoint(2, 0, 1)) == PPoint(1, 0, 1)
    # tangent direction returns the base itself
    assert second_intersection(circle, base, PPoint(-1, 5, 1)) == base


# -- polarity involution ----------------------------------------------------

def test_polarity_involution_secant(circle):
    inv = polarity_involution_on_line(circle, PLine(5, 0, -3))  # x = 3/5
    for t in (F(1), F(2), F(-4, 5)):
        assert inv.apply(t) == F(16, 25) / t
    kind, fixed = classify_and_fixed_points(inv)
    assert kind == InvolutionKind.HYPERBOLIC
    assert fixed == (F(-4, 5), F(4, 5))
    cuts = line_intersect(circle, PLine(5, 0, -3))
    assert {inv.chart.coordinate(p) for p in cuts} == set(fixed)


def test_polarity_involution_ordinale(circle):
    inv = polarity_involution_on_line(circle, PLine(1, 0, -2))  # x = 2
    for t in (F(1), F(3), F(-1)):
        assert inv.apply(t) == F(-3) / t
    assert classify_and_fixed_points(inv)[0] == InvolutionKind.ELLIPTIC
    # the couples (1,-3) and (3,-1) are interleaved
    from traversale import PointPair, interleaved

    assert interleaved(PointPair(F(1), F(-3)), PointPair(F(3), F(-1)))


def test_polarity_involution_irrational_secant(circle):
    # y = 1/2 cuts the circle in irrational points, but the induced
    # involution t -> 3/(4t) is perfectly rational; only its fixed nodes are
    # not materialized
    inv = polarity_involution_on_line(circle, PLine(0, 2, -1))
    assert inv.apply(F(1)) == F(3, 4)
    kind, fixed = classify_and_fixed_points(inv)
    assert kind == InvolutionKind.HYPERBOLIC_IRRATIONAL and fixed is None


def test_polarity_involution_tangent_rejected(circle):
    with pytest.raises(TangentLine):
        polarity_involution_on_line(circle, PLine(1, 0, -1))


def test_polarity_involution_is_involutive(circle):
    rng = random.Random(37)
    inv = polarity_involution_on_line(circle, PLine(1, 1, -4))
    for _ in range(20):
        t = F(rng.randint(-20, 20), rng.randint(1, 7))
        assert inv.apply(inv.apply(t)) == t


def test_polarity_harmonic_section(circle):
    # on a secant line, a point and its image divide the two conic points
    # harmonically
    from traversale import cross_ratio

    l = PLine(0, 1, 0)
    inv = polarity_involution_on_line(circle, l)
    chart = inv.chart
    lpt, mpt = line_intersect(circle, l)
    rng = random.Random(41)
    for _ in range(30):
        t = F(rng.randint(-20, 20), rng.randint(1, 7))
        f = chart.point_at(t)
        if f in (lpt, mpt):
            continue
        h = inv.apply_point(f)
        assert cross_ratio(lpt, mpt, f, h, chart) == -1


@pytest.mark.parametrize("seed, steps", [(0, 0), (76, 1), (77, 60), (78, 256)])
def test_polarity_involution_matrix_is_unchanged_by_reduced_representatives(seed, steps):
    # [[phi(o,i), phi(o,o)], [-phi(i,i), -phi(o,i)]] on the representatives
    # before the gcd of the chart weights was divided out, made primitive.
    # The involution reads the matrix on the canonical basis, which holds
    # because the chart's representatives are the basis times one common +-1
    c, h = homography_chain(seed, steps)
    rng = random.Random(seed)
    lines = [LINE_AT_INFINITY, PLine(1, 0, 0), PLine(2, 0, 5), PLine(0, 1, 0), PLine(0, 3, -7)]  # x = c, y = c
    lines += [PLine(*(rng.getrandbits(rng.choice((3, 40, 300))) * rng.choice((-1, 1)) for _ in range(3))) for _ in range(12)]
    # images of secants of the circle (w^2 < u^2 + v^2): deep lines on the deep images
    lines += [h.apply_line(PLine(rng.randint(3, 9), rng.randint(-9, 9), rng.randint(-2, 2))) for _ in range(4)]
    for l in lines:
        chart = canonical_chart(l)
        (bo, bi), (ro, ri) = canonical_basis(l), chart.representatives
        sign = next(r // b for r, b in zip(ro, bo) if b)
        assert sign in (1, -1) and ro == tuple(sign * x for x in bo) and ri == tuple(sign * x for x in bi), l
        o, u, i = chart.origin.coords, chart.unit.coords, chart.infinity_point.coords
        r0, r1 = chart._rows
        lam, mu, _ = solve2((o[r0], o[r1]), (i[r0], i[r1]), (u[r0], u[r1]))
        o, i = tuple(lam * x for x in o), tuple(mu * x for x in i)
        phi = lambda a, b: sum(a[j] * c.matrix[j][k] * b[k] for j in range(3) for k in range(3))
        old = primitive_rows2(((phi(o, i), phi(o, o)), (-phi(i, i), -phi(o, i))))
        assert polarity_involution_on_line(c, l).matrix == old


@pytest.mark.parametrize(
    "seed, steps",
    # the circle itself, small images, and images with entries of about 300 bits
    [(0, 0), (71, 1), (72, 1), (73, 2), (74, 60), (75, 60)],
)
def test_polarity_involution_matches_polar_meet(seed, steps):
    # the closed-form matrix against the geometric definition m -> polar(m) /\ l
    c, h = homography_chain(seed, steps)
    rng = random.Random(seed)
    par = rational_parametrize(c, c.witness)
    on_conic = [par.point(t) for t in (F(1, 3), F(-2), F(5, 7))]
    lines = {
        "secant": join(on_conic[0], on_conic[1]),
        "missing": polar(c, h.apply(PPoint(0, 0, 1))),  # polar of an interior point
        "vertical": PLine(1, 0, -3),
        "x-axis": PLine(0, 1, 0),
        "infinity": LINE_AT_INFINITY,
    }
    for n in range(8):
        lines[f"random-{n}"] = PLine(*(rng.randint(-5, 5) for _ in range(2)), rng.randint(1, 5))
    for name, l in lines.items():
        if is_tangent_line(c, l):
            with pytest.raises(TangentLine):
                polarity_involution_on_line(c, l)
            continue
        inv = polarity_involution_on_line(c, l)
        assert inv.chart == canonical_chart(l)
        params = [INF, F(0), F(1), F(-1)]
        params += [F(rng.randint(-10**k, 10**k), rng.randint(1, 10**k)) for k in (1, 3, 30) for _ in range(3)]
        for t in params:
            p = inv.chart.point_at(t)
            assert inv.apply_point(p) == meet(polar(c, p), l), (name, t)
    kinds = {
        name: classify_and_fixed_points(polarity_involution_on_line(c, lines[name]))[0]
        for name in ("secant", "missing")
    }
    assert kinds == {"secant": InvolutionKind.HYPERBOLIC, "missing": InvolutionKind.ELLIPTIC}
    with pytest.raises(TangentLine):
        polarity_involution_on_line(c, tangent_at(c, on_conic[2]))


def _plane_twin(l):
    """The plain line of l's triple: it takes the plane route wherever l could take a frame route."""
    return PLine(*l.coeffs)


@pytest.mark.parametrize("steps", [0, 1, 64, 256])
def test_polarity_involution_secant_route_matches_the_plane_route(steps):
    # chords of the conic's own frames, through pairs with den = 0 among others:
    # a framed chord is built from its bornes, a plain one takes the plane route
    framed = 0
    for seed in (3100, 3101):
        c, _ = homography_chain(seed, steps)
        rng = random.Random(seed)
        own = rational_parametrize(c, c.witness)
        frames = (own, rational_parametrize(c, own.point_from_pair((3, 2))))
        pairs = [(1, 0), (0, 1), (1, 1), (-1, 1), (5, 0)] + [(rng.randint(-9, 9), rng.randint(0, 4)) for _ in range(4)]
        for par in frames:
            points = {par.point_from_pair(s) for s in pairs if s != (0, 0)}
            for p, q in combinations(sorted(points, key=lambda p: p.coords), 2):
                l = join(p, q)
                inv, plane = polarity_involution_on_line(c, l), polarity_involution_on_line(c, _plane_twin(l))
                assert inv == plane and inv.matrix == plane.matrix and inv.chart == plane.chart
                assert plane._fixed is None
                if l.frame is not None:
                    framed += 1
                    assert inv._fixed == fixed_pairs(inv.matrix)
                assert classify_and_fixed_points(inv) == classify_and_fixed_points(plane)
    assert (framed > 0) == (steps >= 64)


def test_canonical_pair_reads_the_canonical_chart():
    # the three chart kinds: non-vertical, vertical and the line at infinity
    rng = random.Random(42)
    lines = [PLine(3, -7, 2), PLine(0, 5, -1), PLine(4, 0, -9), PLine(1, 0, 0), LINE_AT_INFINITY]
    lines += [PLine(rng.getrandbits(300), rng.getrandbits(300) - 2**299, rng.getrandbits(300)) for _ in range(3)]
    for l in lines:
        chart, basis = canonical_chart(l), canonical_basis(l)
        for _ in range(12):
            num, den = rng.randint(-50, 50), rng.randint(-50, 50) if rng.random() < 0.8 else 0
            if num == den == 0:
                continue
            scale = rng.choice((1, -3, 2**200))
            x = tuple(scale * (den * a + num * b) for a, b in zip(*basis))
            assert lowest_terms(canonical_pair(l, x)) == lowest_terms(chart.vector_pair(x)), (l, x)


def test_polarity_involution_framed_lines_off_the_secant_route():
    c, _ = homography_chain(3100, 256)
    par = rational_parametrize(c, c.witness)
    # a framed tangent raises TangentLine with the plane route's message
    tangent = par.line_from_frame(conic_module.model_chord((2, 1), (2, 1)))
    assert tangent.frame is par
    with pytest.raises(TangentLine) as framed_error:
        polarity_involution_on_line(c, tangent)
    with pytest.raises(TangentLine) as plane_error:
        polarity_involution_on_line(c, _plane_twin(tangent))
    assert str(framed_error.value) == str(plane_error.value) == f"{tangent} is tangent; the polarity involution degenerates"
    # frame lines s0^2 + s1^2 = 0 and s0^2 - 2*s1^2 = 0 have no rational meets
    for lam, kind in (((1, 0, 1), InvolutionKind.ELLIPTIC), ((1, 0, -2), InvolutionKind.HYPERBOLIC_IRRATIONAL)):
        l = par.line_from_frame(lam)
        inv = polarity_involution_on_line(c, l)
        assert l.frame is par and inv._fixed is None
        assert inv == polarity_involution_on_line(c, _plane_twin(l))
        assert classify_and_fixed_points(inv) == (kind, None)
    # a framed chord on an equal conic object that does not own the frame
    chord = join(par.point_from_pair((1, 2)), par.point_from_pair((-3, 1)))
    twin = Conic(c.matrix)
    inv = polarity_involution_on_line(twin, chord)
    assert inv._fixed is None and inv == polarity_involution_on_line(c, chord)


# -- tangents ---------------------------------------------------------------

def test_tangents_from_exterior(circle):
    result = tangents_from(circle, PPoint(F(5, 3), 0, 1))
    lines = {l for l, _ in result}
    contacts = {p for _, p in result}
    assert lines == {PLine(3, 4, -5), PLine(3, -4, -5)}
    assert contacts == {PPoint(F(3, 5), F(4, 5), 1), PPoint(F(3, 5), F(-4, 5), 1)}
    tau = polar(circle, PPoint(F(5, 3), 0, 1))
    for l, p in result:
        assert tau.contains(p)
        assert line_intersect(circle, l) == (p,)


def test_tangents_from_interior(circle):
    with pytest.raises(InteriorPoint):
        tangents_from(circle, PPoint(F(1, 2), 0, 1))


def test_tangents_from_point_on_conic(circle):
    result = tangents_from(circle, PPoint(1, 0, 1))
    assert result == ((PLine(1, 0, -1), PPoint(1, 0, 1)),)


# -- classification ---------------------------------------------------------

def test_classify_circle(circle):
    r = classify(circle)
    assert r.kind == ConicClass.NONDEGENERATE_REAL
    assert r.signature == (2, 1) and r.rank == 3
    # zero diagonals: the trace vanishes and the signs come from the minors
    for rows in (((0, 1, 0), (1, 0, 0), (0, 0, -2)), ((0, 1, 1), (1, 0, 1), (1, 1, 0))):
        r = classify(Conic(rows))
        assert r.kind == ConicClass.NONDEGENERATE_REAL
        assert r.signature == (2, 1) and r.rank == 3


def test_classify_empty():
    r = classify(Conic(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert r.kind == ConicClass.EMPTY and r.signature == (3, 0)


def test_classify_two_lines():
    r = classify(Conic(((1, 0, 0), (0, 0, 0), (0, 0, -1))))
    assert r.kind == ConicClass.DEGENERATE_TWO_LINES
    assert r.signature == (1, 1) and r.point_double == PPoint(0, 1, 0)
    # 2x(y - z) = 0: the kernel is off the coordinate axes
    r = classify(Conic(((0, 1, -1), (1, 0, 0), (-1, 0, 0))))
    assert r.kind == ConicClass.DEGENERATE_TWO_LINES
    assert r.signature == (1, 1) and r.rank == 2 and r.point_double == PPoint(0, 1, 1)


def test_classify_two_conjugate_lines():
    # x^2 + y^2 = 0: rank 2 but definite, the only real point is the double one
    r = classify(Conic(((1, 0, 0), (0, 1, 0), (0, 0, 0))))
    assert r.kind == ConicClass.DEGENERATE_TWO_LINES
    assert r.signature == (2, 0) and r.point_double == PPoint(0, 0, 1)


def test_classify_double_line():
    r = classify(Conic(((1, 0, 0), (0, 0, 0), (0, 0, 0))))
    assert r.kind == ConicClass.DEGENERATE_DOUBLE_LINE
    assert r.double_line == PLine(1, 0, 0)


@pytest.mark.parametrize("signs", [(e0, e1, e2) for e0 in (1, -1) for e1 in (1, -1) for e2 in (1, -1)])
def test_classify_inertia_sign_patterns(signs):
    r = classify(Conic(((signs[0], 0, 0), (0, signs[1], 0), (0, 0, signs[2]))))
    pos = signs.count(1)
    expected = (max(pos, 3 - pos), min(pos, 3 - pos))
    assert r.signature == expected and r.rank == 3
    assert r.kind == (ConicClass.EMPTY if expected == (3, 0) else ConicClass.NONDEGENERATE_REAL)


def _random_invertible(rng):
    while True:
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        if det3(m):
            return m


def test_classify_follows_sylvester_inertia_under_congruence():
    """P^T (k D) P has the rank, signature and class of D, however large its entries."""
    rng = random.Random(83)
    kinds = {3: ConicClass.NONDEGENERATE_REAL, 2: ConicClass.DEGENERATE_TWO_LINES, 1: ConicClass.DEGENERATE_DOUBLE_LINE}
    for diag in product((-1, 0, 1), repeat=3):
        rank, pos = 3 - diag.count(0), diag.count(1)
        if rank == 0:
            continue
        signature = (max(pos, rank - pos), min(pos, rank - pos))
        kind = ConicClass.EMPTY if signature == (3, 0) else kinds[rank]
        for k in (1, -1, 3, -3):
            for steps in (1, rng.randint(2, 63), 64):
                p = _random_invertible(rng)
                for _ in range(steps - 1):
                    p = mat_mul(p, _random_invertible(rng))
                d = tuple(tuple(k * diag[i] if i == j else 0 for j in range(3)) for i in range(3))
                c = Conic(mat_mul(mat_mul(transpose(p), d), p))
                r = classify(c)
                assert (r.rank, r.signature, r.kind) == (rank, signature, kind), (diag, k, steps)
                if rank == 2:
                    assert mat_vec(c.matrix, r.point_double.coords) == (0, 0, 0)
                if rank == 1:
                    assert c == Conic(tuple(tuple(u * v for v in r.double_line.coeffs) for u in r.double_line.coeffs))


def test_classify_congruence_invariant():
    rng = random.Random(43)
    for _ in range(40):
        c = transform(Conic.unit_circle(), random_homography(rng))
        assert classify(c).kind == ConicClass.NONDEGENERATE_REAL
        assert classify(c).signature == (2, 1)


# -- affine features --------------------------------------------------------

def test_affine_features_ellipse(circle):
    feats = affine_features(circle)
    assert feats.kind == AffineKind.ELLIPSE
    assert feats.center == PPoint(0, 0, 1)
    assert feats.asymptotes is None


def test_affine_features_hyperbola():
    hyp = Conic(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    feats = affine_features(hyp)
    assert feats.kind == AffineKind.HYPERBOLA
    assert feats.center == PPoint(0, 0, 1)
    assert set(feats.points_at_infinity) == {PPoint(1, 1, 0), PPoint(1, -1, 0)}
    assert set(feats.asymptotes) == {PLine(1, -1, 0), PLine(1, 1, 0)}
    for a in feats.asymptotes:
        assert a.contains(feats.center)


def test_affine_features_parabola_chart(circle):
    feats = affine_features(circle, PLine(1, 0, -1))
    assert feats.kind == AffineKind.PARABOLA
    assert feats.points_at_infinity == (PPoint(1, 0, 1),)


def test_affine_features_irrational_infinite_points():
    # x^2 - 2 y^2 = z^2 meets z = 0 where x^2 = 2 y^2: real but irrational
    c = Conic(((1, 0, 0), (0, -2, 0), (0, 0, -1)))
    feats = affine_features(c)
    assert feats.kind == AffineKind.HYPERBOLA
    assert feats.points_at_infinity == () and feats.asymptotes is None


# -- transport --------------------------------------------------------------

def test_transform_scaling(circle):
    stretched = transform(circle, Homography.scaling(2, 1))
    assert stretched == Conic.from_coefficients(1, 4, -4, 0, 0, 0)  # x^2/4 + y^2 = 1
    assert stretched.contains(PPoint(2, 0, 1))


def test_transform_polar_commutes(circle):
    rng = random.Random(47)
    for _ in range(50):
        h = random_homography(rng)
        c2 = transform(circle, h)
        m = PPoint(rng.randint(-6, 6), rng.randint(-6, 6), 1)
        if circle.contains(m):
            continue
        assert h.apply_line(polar(circle, m)) == polar(c2, h.apply(m))


def test_transform_carries_witness(circle):
    h = Homography(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    c2 = transform(circle, h)
    assert c2.witness is not None and c2.contains(c2.witness)


def test_witness_is_a_cache_not_part_of_identity(circle):
    relabeled = Conic(circle.matrix, witness=PPoint(0, 1, 1))
    assert relabeled == circle and hash(relabeled) == hash(circle)
    assert relabeled.witness == PPoint(0, 1, 1)
    with pytest.raises(BasePointNotOnConic):
        Conic(circle.matrix, witness=PPoint(2, 0, 1))


# -- closed forms against the expressions they replaced ----------------------

def _random_forms(rng, bits):
    """Random symmetric forms of entries up to ``bits`` bits: one with each set of cross terms, then rank 2 and rank 1."""
    def entry():
        return rng.randint(-(2**bits), 2**bits)

    forms = []
    for mask in product((0, 1), repeat=3):
        d01, d02, d12 = (entry() if on else 0 for on in mask)
        forms.append(((entry(), d01, d02), (d01, entry(), d12), (d02, d12, entry())))
    u, v = (entry(), 1, 0), (entry(), entry(), 1)
    forms.append(tuple(tuple(u[i] * v[j] + v[i] * u[j] for j in range(3)) for i in range(3)))  # the line pair u, v
    forms.append(tuple(tuple(u[i] * u[j] for j in range(3)) for i in range(3)))  # the double line u
    return forms


def _ref_transform_rows(c, h):
    """The image form as the parent's two products: adj(H)^T M adj(H), reduced."""
    adj = adjugate(h.matrix)
    return primitive_rows(mat_mul(mat_mul(transpose(adj), c.matrix), adj))


def _ref_inertia(m):
    """The numbers of positive and negative eigenvalues, with the minors' squares written as powers."""
    t = m[0][0] + m[1][1] + m[2][2]
    s = m[0][0] * m[1][1] + m[0][0] * m[2][2] + m[1][1] * m[2][2] - m[0][1] ** 2 - m[0][2] ** 2 - m[1][2] ** 2
    d = det3(m)
    return conic_module._sign_changes((1, -t, s, -d)), conic_module._sign_changes((1, t, s, d))


@pytest.mark.parametrize("bits", [2, 40, 600])
def test_transform_and_inertia_match_their_reference_expressions(bits):
    rng = random.Random(bits)
    _, deep = homography_chain(71, 256)
    homographies = [random_homography(rng) for _ in range(4)] + [deep]
    forms = _random_forms(rng, bits)
    assert [classify(Conic(rows)).rank for rows in forms[-2:]] == [2, 1]
    for rows in forms + [homography_chain(72, 256)[0].matrix]:
        c = Conic(rows)
        assert conic_module._inertia(c.matrix) == _ref_inertia(c.matrix), rows
        for h in homographies:
            image = transform(c, h)
            assert image.matrix == _ref_transform_rows(c, h), (rows, h)
            assert conic_module._inertia(image.matrix) == _ref_inertia(image.matrix)


def _ref_quadratic(conic, base):
    """The parent's (A, B, C) and basis: the reference line found by search, its canonical basis, and tuples built by generators."""
    ref = next(l for l in (LINE_AT_INFINITY, PLine(1, 0, 0), PLine(0, 1, 0)) if not l.contains(base))
    m, b, (o, i) = conic.matrix, base.coords, canonical_basis(ref)
    qo, qi, phi_oi = dot(mat_vec(m, o), o), dot(mat_vec(m, i), i), dot(mat_vec(m, o), i)
    mb = mat_vec(m, b)
    phi_bo, phi_bi = dot(mb, o), dot(mb, i)
    quadratic = (
        tuple(qi * bk - 2 * phi_bi * ik for bk, ik in zip(b, i)),
        tuple(2 * (phi_oi * bk - phi_bi * ok - phi_bo * ik) for bk, ok, ik in zip(b, o, i)),
        tuple(qo * bk - 2 * phi_bo * ok for bk, ok in zip(b, o)),
    )
    return (o, i), quadratic


def _conics_through(rng, base, bits):
    """Nondegenerate forms through ``base``: random forms scaled so one diagonal entry can cancel q(base)."""
    j = next(k for k, x in enumerate(base.coords) if x)
    bj = base.coords[j]
    for rows in _random_forms(rng, bits)[:8]:
        q = dot(mat_vec(rows, base.coords), base.coords)
        m = [[bj * bj * x for x in row] for row in rows]
        m[j][j] -= q
        if det3(m):
            yield Conic(m)


@pytest.mark.parametrize("bits", [2, 40, 600])
def test_parametrization_setup_matches_its_reference_expression_on_each_reference_line(bits):
    rng = random.Random(bits)
    bases = {
        "z != 0": [PPoint(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)],
        "z = 0, x != 0": [PPoint(rng.randint(1, 9), rng.randint(-9, 9), 0) for _ in range(3)],
        "(0, 1, 0)": [PPoint(0, 1, 0)],
    }
    deep, _ = homography_chain(73, 256)
    cases = {branch: [(c, b) for b in points for c in _conics_through(rng, b, bits)] for branch, points in bases.items()}
    cases["z != 0"].append((deep, deep.witness))
    for branch, pairs in cases.items():
        assert len(pairs) >= 6, branch
        for conic, base in pairs:
            par = RationalParametrization(conic, base)
            assert (par._basis, par._quadratic) == _ref_quadratic(conic, base), (branch, conic, base)


# -- rational parametrization ------------------------------------------------

def test_parametrization_slope_formula(circle):
    par = rational_parametrize(circle, PPoint(-1, 0, 1))
    for t in (F(1, 2), F(0), F(3), F(-2, 7)):
        p = par.point(t)
        expect = PPoint((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t), 1)
        assert p == expect
        assert circle.contains(p)
    assert par.point(F(1, 2)) == PPoint(F(3, 5), F(4, 5), 1)
    assert par.point(INF) == PPoint(-1, 0, 1)  # the tangent direction


@pytest.mark.parametrize(
    "conic, base",
    [
        (Conic.unit_circle(), PPoint(-1, 0, 1)),
        # matrix entries of about 6, 35 and 300 bits
        *((c, c.witness) for c in (homography_chain(s, k)[0] for s, k in ((61, 1), (62, 6), (63, 60)))),
        (Conic(((1, 0, 0), (0, -1, 0), (0, 0, -1)), witness=PPoint(1, 0, 1)), PPoint(1, 0, 1)),
        (Conic(((0, 1, 0), (1, 0, 0), (0, 0, -2))), PPoint(1, 0, 0)),  # xy = z^2, base at infinity
        (Conic(((2, 0, 0), (0, 0, -1), (0, -1, 0))), PPoint(0, 0, 1)),  # parabola x^2 = yz
        (Conic(((2, 0, 0), (0, 0, -1), (0, -1, 0))), PPoint(0, 1, 0)),  # its point at infinity
    ],
)
def test_parametrization_matches_second_intersection(conic, base):
    # the precomputed quadratic map against the chord construction it replaces
    par = rational_parametrize(conic, base)
    ref = join(par.direction(F(0)), par.direction(F(1)))
    tangent_direction = meet(polar(conic, base), ref)
    t_tangent = canonical_chart(ref).coordinate(tangent_direction)
    assert par.direction(t_tangent) == tangent_direction
    assert par.point(t_tangent) == base
    rng = random.Random(sum(base.coords))
    params = [INF, F(0), t_tangent]
    params += [F(rng.randint(-10**k, 10**k), rng.randint(1, 10**k)) for k in (1, 3, 30) for _ in range(4)]
    for t in params:
        expect = second_intersection(conic, base, par.direction(t))
        assert par.point(t) == expect
        assert conic.contains(expect)
        num, den = (1, 0) if t is INF else (t.numerator, t.denominator)
        assert par.point_from_pair((-3 * num, -3 * den)) == expect
    with pytest.raises(ValueError):
        par.point_from_pair((0, 0))


def test_parametrization_base_must_be_on_conic(circle):
    with pytest.raises(BasePointNotOnConic):
        rational_parametrize(circle, PPoint(2, 0, 1))


def test_parametrization_covers_random_rationals(circle):
    rng = random.Random(53)
    par = rational_parametrize(circle, PPoint(-1, 0, 1))
    seen = set()
    for _ in range(100):
        t = F(rng.randint(-40, 40), rng.randint(1, 23))
        p = par.point(t)
        assert circle.contains(p)
        seen.add(p)
    assert len(seen) > 60  # injective away from the tangent direction


def test_find_rational_point_search():
    c = Conic.from_coefficients(1, 1, -25, 0, 0, 0)  # radius-5 circle, no witness
    p = find_rational_point(c)
    assert p is not None and c.contains(p)
    empty = Conic(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert find_rational_point(empty) is None
