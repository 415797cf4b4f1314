"""Projective core: incidence, cross-ratio, harmonic conjugates, homographies.

Expected values are frozen from an independent cross-product / determinant
oracle written out here in the tests.
"""

import random
from fractions import Fraction

import pytest

from traversale import (
    INF,
    LINE_AT_INFINITY,
    CoincidentLines,
    CoincidentPoints,
    ConjugateUndefined,
    DegenerateQuadruple,
    Homography,
    LineChart,
    NotOnLine,
    PLine,
    PPoint,
    SingularMatrix,
    canonical_chart,
    collinear,
    concurrent,
    cross_ratio,
    harmonic_conjugate,
    join,
    meet,
)
from traversale.projective import canonical_basis


def solve2(a, b, rhs):
    """The reference Cramer solve of [a b] (x, y) = rhs for 2-vectors a, b: (x, y, d) for (x/d, y/d), None when d = 0."""
    d = a[0] * b[1] - a[1] * b[0]
    if d == 0:
        return None
    return (rhs[0] * b[1] - rhs[1] * b[0], a[0] * rhs[1] - a[1] * rhs[0], d)


def _cross(a, b):
    # the oracle: raw cross product of homogeneous triples
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _det3(a, b, c):
    # the oracle: the determinant of three homogeneous triples
    return sum(x * y for x, y in zip(a, _cross(b, c)))


def test_join_matches_cross_product_oracle():
    p, q = PPoint(1, 0, 1), PPoint(0, 1, 1)
    assert join(p, q) == PLine(*_cross((1, 0, 1), (0, 1, 1)))
    assert join(p, q) == PLine(1, 1, -1)


def test_join_of_two_infinite_points_is_line_at_infinity():
    assert join(PPoint(1, 0, 0), PPoint(0, 1, 0)) == PLine(0, 0, 1)


def test_join_coincident_points_raises():
    with pytest.raises(CoincidentPoints):
        join(PPoint(1, 0, 1), PPoint(2, 0, 2))


def test_meet_matches_cross_product_oracle():
    l, m = PLine(1, 1, -1), PLine(1, -1, 0)
    assert meet(l, m) == PPoint(*_cross((1, 1, -1), (1, -1, 0)))
    assert meet(l, m) == PPoint(Fraction(1, 2), Fraction(1, 2), 1)


def test_parallel_lines_meet_at_infinity():
    assert meet(PLine(1, 1, -1), PLine(1, 1, 1)) == PPoint(1, -1, 0)


def test_meet_coincident_lines_raises():
    with pytest.raises(CoincidentLines):
        meet(PLine(1, 0, 0), PLine(2, 0, 0))


def test_meet_of_join_against_another_line_through_p():
    p, q = PPoint(2, 3, 1), PPoint(-1, 4, 1)
    through_p = join(p, PPoint(0, 0, 1))
    assert meet(join(p, q), through_p) == p


def test_join_meet_duality():
    # coefficients of join(p,q) equal coordinates of meet(p*,q*) after swap
    p, q = (2, 3, 5), (7, -1, 4)
    line = join(PPoint(*p), PPoint(*q))
    point = meet(PLine(*p), PLine(*q))
    assert line.coeffs == point.coords


def test_collinear_and_concurrent_agree_on_the_same_triples():
    # duality: a set of triples spans at most a plane whether it is read as
    # points or as lines, which is also every 3x3 determinant vanishing
    assert not concurrent(PLine(1, 0, 0), PLine(1, 0, 0), PLine(0, 1, 0), PLine(0, 1, -1))
    assert not collinear(PPoint(1, 0, 0), PPoint(1, 0, 0), PPoint(0, 1, 0), PPoint(0, 1, -1))
    rng = random.Random(41)
    pool = [t for t in ((a, b, c) for a in (-1, 0, 1, 2) for b in (-1, 0, 1) for c in (-1, 0, 1)) if any(t)]
    seen = set()
    for _ in range(3000):
        triples = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        expected = all(_det3(a, b, c) == 0 for a in triples for b in triples for c in triples)
        points, lines = [PPoint(*t) for t in triples], [PLine(*t) for t in triples]
        assert collinear(*points) == concurrent(*lines) == expected, triples
        seen.add((len(set(points)), expected))
    assert {(2, True), (3, True), (3, False), (4, False)} <= seen


def test_canonical_equality_is_a_congruence():
    assert PPoint(2, 4, 6) == PPoint(1, 2, 3) == PPoint(Fraction(1, 3), Fraction(2, 3), 1)
    assert PPoint(-1, -2, -3) == PPoint(1, 2, 3)
    assert hash(PPoint(2, 4, 6)) == hash(PPoint(1, 2, 3))
    assert PLine(2, 0, -1) == PLine(-4, 0, 2)


def test_zero_triple_rejected():
    with pytest.raises(CoincidentPoints):
        PPoint(0, 0, 0)
    with pytest.raises(CoincidentLines):
        PLine(0, 0, 0)


def test_point_and_line_text_round_trip():
    p = PPoint(Fraction(2, 3), -5, 1)
    assert PPoint.parse(str(p)) == p
    l = PLine(Fraction(1, 7), 0, -2)
    assert PLine.parse(str(l)) == l
    assert str(PPoint(2, 0, 1)) == "(1, 0, 1/2)"


def test_cross_ratio_harmonic_example(x_axis_chart):
    # oracle: ((a-c)(b-d)) / ((a-d)(b-c)) = ((-3)(1/2)) / ((-3/2)(-1)) = -1
    pts = [x_axis_chart.point_at(Fraction(t)) for t in (-1, 1, 2, Fraction(1, 2))]
    assert cross_ratio(*pts, x_axis_chart) == -1


def test_cross_ratio_normalization(x_axis_chart):
    # under the fixed convention ((a-c)(b-d))/((a-d)(b-c)), the b = infinity
    # factors cancel and (0, inf; 1, t) = (0-1)/(0-t) = 1/t
    a = x_axis_chart.point_at(Fraction(0))
    b = x_axis_chart.point_at(INF)
    c = x_axis_chart.point_at(Fraction(1))
    for t in (Fraction(5, 3), Fraction(-7, 2), Fraction(4)):
        d = x_axis_chart.point_at(t)
        assert cross_ratio(a, b, c, d, x_axis_chart) == 1 / t
    # d free: d = c gives 1, d = a gives INF, d = b gives 0
    assert cross_ratio(a, b, c, c, x_axis_chart) == 1
    assert cross_ratio(a, b, c, a, x_axis_chart) is INF
    assert cross_ratio(a, b, c, b, x_axis_chart) == 0
    finite = [x_axis_chart.point_at(Fraction(t)) for t in (2, -1, 5)]
    assert cross_ratio(*finite, finite[0], x_axis_chart) is INF
    assert cross_ratio(*finite, finite[1], x_axis_chart) == 0


def test_cross_ratio_degenerate_quadruple(x_axis_chart):
    a = x_axis_chart.point_at(Fraction(1))
    b = x_axis_chart.point_at(Fraction(2))
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(a, b, a, b, x_axis_chart)


def test_cross_ratio_requires_incidence(x_axis_chart):
    off = PPoint(0, 1, 1)
    a, b, c = (x_axis_chart.point_at(Fraction(t)) for t in (0, 1, 2))
    with pytest.raises(NotOnLine):
        cross_ratio(a, b, c, off, x_axis_chart)


def test_cross_ratio_invariant_under_chart_change_and_homography():
    rng = random.Random(11)
    line = PLine(0, 1, 0)
    chart = canonical_chart(line)
    for _ in range(50):
        ts = set()
        while len(ts) < 4:
            ts.add(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        a, b, c, d = (chart.point_at(t) for t in ts)
        value = cross_ratio(a, b, c, d, chart)
        # a different chart on the same line
        other = LineChart(line, chart.point_at(Fraction(5)), chart.point_at(Fraction(-2)), chart.point_at(Fraction(1, 3)))
        assert cross_ratio(a, b, c, d, other) == value
        # a random homography moves the whole configuration
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            try:
                h = Homography(rows)
                break
            except (SingularMatrix, ValueError):
                continue
        img_line = h.apply_line(line)
        img_chart = canonical_chart(img_line)
        imgs = [h.apply(p) for p in (a, b, c, d)]
        assert cross_ratio(*imgs, img_chart) == value


def test_harmonic_conjugate_midpoint_goes_to_infinity(x_axis_chart):
    a = x_axis_chart.point_at(Fraction(-1))
    b = x_axis_chart.point_at(Fraction(1))
    conj = harmonic_conjugate(x_axis_chart.point_at(Fraction(0)), a, b, x_axis_chart)
    assert x_axis_chart.coordinate(conj) is INF


def test_harmonic_conjugate_solves_cross_ratio(x_axis_chart):
    a = x_axis_chart.point_at(Fraction(-1))
    b = x_axis_chart.point_at(Fraction(1))
    c = x_axis_chart.point_at(Fraction(2))
    d = harmonic_conjugate(c, a, b, x_axis_chart)
    assert x_axis_chart.coordinate(d) == Fraction(1, 2)
    assert cross_ratio(a, b, c, d, x_axis_chart) == -1


def test_harmonic_conjugate_is_involutive(x_axis_chart):
    rng = random.Random(3)
    a = x_axis_chart.point_at(Fraction(-3, 2))
    b = x_axis_chart.point_at(Fraction(7, 3))
    for _ in range(30):
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        c = x_axis_chart.point_at(t)
        if c in (a, b):
            continue
        d = harmonic_conjugate(c, a, b, x_axis_chart)
        assert harmonic_conjugate(d, a, b, x_axis_chart) == c


def test_harmonic_conjugate_of_base_point_rejected(x_axis_chart):
    a = x_axis_chart.point_at(Fraction(-1))
    b = x_axis_chart.point_at(Fraction(1))
    with pytest.raises(ConjugateUndefined):
        harmonic_conjugate(a, a, b, x_axis_chart)


def test_homography_identity_and_scaling():
    assert Homography.identity().apply(PPoint(2, 0, 1)) == PPoint(2, 0, 1)
    assert Homography.scaling(2, 1).apply(PPoint(1, 0, 1)) == PPoint(2, 0, 1)


def test_homography_singular_rejected():
    with pytest.raises(SingularMatrix, match=r"^matrix \(\(1, 0, 0\), \(0, 1, 0\), \(1, 1, 0\)\) is singular$"):
        Homography(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_homography_preserves_incidence():
    h = Homography(((1, 2, 0), (0, 1, -1), (3, 0, 1)))
    p, q = PPoint(1, 4, 1), PPoint(-2, 5, 3)
    l = join(p, q)
    assert h.apply_line(l) == join(h.apply(p), h.apply(q))
    assert h.apply_line(l).contains(h.apply(p))


def test_homography_inverse_round_trip():
    h = Homography(((1, 2, 0), (0, 1, -1), (3, 0, 1)))
    p = PPoint(Fraction(5, 7), -2, 1)
    assert h.inverse().apply(h.apply(p)) == p
    assert h.compose(h.inverse()) == Homography.identity()


def test_chart_reference_points():
    chart = canonical_chart(PLine(5, 0, -3))  # the vertical line x = 3/5
    assert chart.coordinate(PPoint(Fraction(3, 5), 0, 1)) == 0
    assert chart.coordinate(PPoint(Fraction(3, 5), Fraction(-8, 5), 1)) == Fraction(-8, 5)
    assert chart.coordinate(PPoint(0, 1, 0)) is INF
    assert chart.point_at(Fraction(2, 5)) == PPoint(Fraction(3, 5), Fraction(2, 5), 1)


def _random_line(rng, bits):
    return PLine(*(rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(3)))


def _unreduced_representatives(chart):
    """The chart representatives before the gcd of their weights was divided out."""
    o, u, i = chart.origin.coords, chart.unit.coords, chart.infinity_point.coords
    r0, r1 = next((a, b) for a, b in ((0, 1), (0, 2), (1, 2)) if o[a] * i[b] != o[b] * i[a])
    lam, mu, _ = solve2((o[r0], o[r1]), (i[r0], i[r1]), (u[r0], u[r1]))
    return tuple(lam * c for c in o), tuple(mu * c for c in i)


@pytest.mark.parametrize("bits", [4, 64, 512, 2086])
def test_canonical_chart_representatives_stay_the_size_of_the_line(bits):
    rng = random.Random(bits)
    for l in [_random_line(rng, bits) for _ in range(20)] + [PLine(rng.getrandbits(bits) + 1, 0, rng.getrandbits(bits))]:
        n = max(abs(x).bit_length() for x in l.coeffs)
        chart = canonical_chart(l)
        assert max(abs(x).bit_length() for rep in chart.representatives for x in rep) <= n + 2


@pytest.mark.parametrize("bits", [4, 64, 512])
def test_reduced_chart_pairs_keep_their_ratio(bits):
    # dividing out gcd(lam, mu) scales both representatives by one factor,
    # so every chart pair keeps its ratio, and points and coordinates stay put
    rng = random.Random(100 + bits)
    for _ in range(20):
        l = _random_line(rng, bits)
        chart = canonical_chart(l)
        o, i = _unreduced_representatives(chart)
        r0, r1 = chart._rows
        for _ in range(5):
            t = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            p = chart.point_at(t)
            v = p.coords
            old = (o[r0] * v[r1] - o[r1] * v[r0], v[r0] * i[r1] - v[r1] * i[r0])
            new = chart.pair_of(p)
            assert old[0] * new[1] == old[1] * new[0] and any(new)
            assert chart.coordinate(p) == t
            assert PPoint(*(new[1] * a + new[0] * b for a, b in zip(o, i))) == p


def test_chart_requires_distinct_collinear_references():
    line = PLine(0, 1, 0)
    with pytest.raises(NotOnLine):
        LineChart(line, PPoint(0, 0, 1), PPoint(1, 1, 1), PPoint(1, 0, 0))
    with pytest.raises(ValueError):
        LineChart(line, PPoint(0, 0, 1), PPoint(0, 0, 1), PPoint(1, 0, 0))


def _canonical_references(l):
    """The canonical chart's origin, unit and infinity point: o, o + i and i of the canonical basis."""
    o, i = canonical_basis(l)
    return PPoint(*o), PPoint(*(a + b for a, b in zip(o, i))), PPoint(*i)


@pytest.mark.parametrize("bits", [4, 64, 512, 2086])
def test_canonical_chart_is_the_chart_on_its_reference_points(bits):
    # the canonical chart stores the basis; the three-point constructor
    # solves for the representatives of the same reference points
    rng = random.Random(300 + bits)
    lines = [_random_line(rng, bits) for _ in range(20)]
    lines += [PLine(rng.getrandbits(bits) + 1, 0, rng.getrandbits(bits) * rng.choice((-1, 1))) for _ in range(4)]
    lines += [LINE_AT_INFINITY, PLine(0, 1, 0), PLine(1, 0, 0), PLine(-3, 0, 7), PLine(0, -2, 5)]
    for l in lines:
        chart, built = canonical_chart(l), LineChart(l, *_canonical_references(l))
        assert chart == built and hash(chart) == hash(built) and repr(chart) == repr(built), l
        assert chart._rows == built._rows
        assert (chart.origin, chart.unit, chart.infinity_point) == _canonical_references(l)
        assert next(filter(None, chart.representatives[0])) > 0
        pairs = [(rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(8) + 1) for _ in range(4)]
        for pair in [(1, 0), (0, 1), (1, 1), *pairs]:
            p = chart.point_from_pair(pair)
            u, v = chart.pair_of(p), built.pair_of(p)
            assert u[0] * v[1] == u[1] * v[0] and u[0] * pair[1] == u[1] * pair[0] and any(u)
        o, u, i = _canonical_references(l)
        assert LineChart(l, i, u, o) != chart and LineChart(l, o, chart.point_from_pair((2, 1)), i) != chart


def test_canonical_chart_builds_no_point_and_solves_nothing(monkeypatch):
    rng = random.Random(7)
    lines = [_random_line(rng, bits) for bits in (4, 64, 1900)] + [LINE_AT_INFINITY, PLine(5, 0, -3)]
    origins = [_canonical_references(l)[0] for l in lines]
    calls = []
    real_init = PPoint.__init__
    monkeypatch.setattr(PPoint, "__init__", lambda self, *v: calls.append("PPoint") or real_init(self, *v))
    charts = [canonical_chart(l) for l in lines]
    assert calls == []
    assert [c.origin for c in charts] == origins  # the count sees the points a chart builds on demand
    assert calls == ["PPoint"] * len(lines)


def test_point_and_line_text_is_the_fraction_text():
    # the triple is scaled so its first nonzero entry is 1 and each entry
    # printed as str(Fraction) prints it: "p/q" in lowest terms or plain "p"
    rng = random.Random(5)
    for bits in (3, 40, 300):
        for _ in range(30):
            t = [rng.choice((0, 1, -1)) * rng.getrandbits(bits) for _ in range(3)]
            if not any(t):
                continue
            p, l = PPoint(*t), PLine(*t)
            lead = next(filter(None, p.coords))
            text = ", ".join(str(Fraction(x, lead)) for x in p.coords)
            assert str(p) == f"({text})" and str(l) == f"[{text}]"
            assert PPoint.parse(str(p)) == p and PLine.parse(str(l)) == l
