"""Involutions: the homographic view against Desargues' own conditions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from traversale import (
    INF,
    CenterOnLine,
    GeometryError,
    InfiniteNode,
    InvalidSouche,
    InvolutionKind,
    InvolutionOnLine,
    LineChart,
    PLine,
    PPoint,
    PointPair,
    UnderdeterminedInvolution,
    arbre_check,
    canonical_chart,
    classify_and_fixed_points,
    contains_pair,
    cross_ratio,
    desargues_condition_check,
    fixed_pairs,
    interleaved,
    involution_from_two_pairs,
    join,
    meet,
    ramee_project,
    souche_of,
)
from traversale.involution import in_single_involution
from traversale.linalg import primitive_rows2


def F(*args):
    return Fraction(*args)


def harmonic_conjugate_oracle(t, a, b):
    # conjugate of t with respect to {a, b}: ((a+b)t - 2ab) / (2t - (a+b))
    return ((a + b) * t - 2 * a * b) / (2 * t - (a + b))


def test_pair_is_unordered_and_parses():
    assert PointPair(F(1), F(2)) == PointPair(F(2), F(1))
    assert hash(PointPair(F(1), F(2))) == hash(PointPair(F(2), F(1)))
    p = PointPair.parse("{3/5, inf}")
    assert p.first == F(3, 5) and p.second is INF
    assert PointPair.parse(str(p)) == p
    # INF given first, negatives, equal nodes and int nodes
    q = PointPair(INF, F(-4, 6))
    assert q == PointPair(F(-2, 3), INF) and q.pairs == ((-2, 3), (1, 0))
    assert (q.first, q.second) == (F(-2, 3), INF) and str(q) == "{-2/3, inf}"
    r = PointPair(F(-1, 2), F(-7, 3))
    assert (r.first, r.second) == (F(-7, 3), F(-1, 2)) and r.pairs == ((-7, 3), (-1, 2))
    assert PointPair(-3, 2) == PointPair(F(2), F(-3)) and str(PointPair(-3, 2)) == "{-3, 2}"
    assert hash(PointPair(-3, 2)) == hash(PointPair(F(2), F(-3)))
    assert PointPair(0, F(0)).pairs == ((0, 1), (0, 1)) and PointPair(0, F(0)).is_degenerate
    assert PointPair(INF, INF).is_degenerate and PointPair(INF, INF).first is INF
    assert not PointPair(F(5), INF).is_degenerate


def test_from_two_pairs_swap_pair_and_fixed_pair(x_axis_chart):
    # {0, inf} and {1, -1} force t -> -1/t (solving the 2x2 system by hand:
    # the first couple kills the diagonal, the second gives b = -c)
    inv = involution_from_two_pairs(PointPair(F(0), INF), PointPair(F(1), F(-1)), x_axis_chart)
    assert inv.apply(F(2)) == F(-1, 2)
    assert inv.apply(F(0)) is INF
    kind, fixed = classify_and_fixed_points(inv)
    assert kind == InvolutionKind.ELLIPTIC and fixed is None


def test_from_two_pairs_product_involution(x_axis_chart):
    inv = involution_from_two_pairs(
        PointPair(F(2, 5), F(-8, 5)), PointPair(F(8, 5), F(-2, 5)), x_axis_chart
    )
    # x * x' = -16/25 exactly
    for t in (F(2, 5), F(8, 5), F(4, 5), F(1), F(-3, 7)):
        assert t * inv.apply(t) == F(-16, 25)
    assert contains_pair(inv, PointPair(F(4, 5), F(-4, 5)))
    assert contains_pair(inv, PointPair(F(0), INF))
    assert not contains_pair(inv, PointPair(F(1), F(2)))


def test_from_two_degenerate_pairs_is_harmonic_conjugation(x_axis_chart):
    inv = involution_from_two_pairs(
        PointPair(F(2), F(2)), PointPair(F(1, 2), F(1, 2)), x_axis_chart
    )
    kind, fixed = classify_and_fixed_points(inv)
    assert kind == InvolutionKind.HYPERBOLIC
    assert fixed == (F(1, 2), F(2))
    for t in (F(-1), F(1), F(3), F(5, 7)):
        assert inv.apply(t) == harmonic_conjugate_oracle(t, F(2), F(1, 2))


def test_from_two_pairs_underdetermined(x_axis_chart):
    shared = PointPair(F(0), F(1))
    with pytest.raises(UnderdeterminedInvolution):
        involution_from_two_pairs(shared, shared, x_axis_chart)
    with pytest.raises(UnderdeterminedInvolution):
        involution_from_two_pairs(PointPair(F(0), F(1)), PointPair(F(0), F(2)), x_axis_chart)


def test_no_parabolic_involution(x_axis_chart):
    # trace zero but nilpotent: not an involution
    with pytest.raises(UnderdeterminedInvolution):
        InvolutionOnLine(x_axis_chart, ((0, 0), (1, 0)))
    with pytest.raises(UnderdeterminedInvolution):
        InvolutionOnLine(x_axis_chart, ((1, 1), (1, 1)))


def test_involutivity_randomized(x_axis_chart):
    rng = random.Random(5)
    built = 0
    while built < 40:
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if a * a + b * c == 0:
            continue
        inv = InvolutionOnLine(x_axis_chart, ((a, b), (c, -a)))
        built += 1
        for _ in range(5):
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            assert inv.apply(inv.apply(t)) == t


def test_classification_reciprocal_map(x_axis_chart):
    inv = involution_from_two_pairs(PointPair(F(2), F(1, 2)), PointPair(F(3), F(1, 3)), x_axis_chart)
    # x -> 1/x
    kind, fixed = classify_and_fixed_points(inv)
    assert kind == InvolutionKind.HYPERBOLIC and fixed == (F(-1), F(1))
    assert souche_of(inv) == 0


def test_classification_irrational_fixed_points(x_axis_chart):
    # x -> 2/x has fixed points +-sqrt(2), real but not rational
    inv = InvolutionOnLine(x_axis_chart, ((0, 2), (1, 0)))
    kind, fixed = classify_and_fixed_points(inv)
    assert kind == InvolutionKind.HYPERBOLIC_IRRATIONAL and fixed is None


def test_classification_infinity_fixed(x_axis_chart):
    # x -> -x + 3 fixes infinity and 3/2
    inv = InvolutionOnLine(x_axis_chart, ((1, -3), (0, -1)))
    kind, fixed = classify_and_fixed_points(inv)
    assert kind == InvolutionKind.HYPERBOLIC
    assert fixed == (F(3, 2), INF)


def _fixed_points_by_fractions(a, b, c):
    """The kind and fixed points of [[a, b], [c, -a]], solved directly in Fraction."""
    if c == 0:
        return (InvolutionKind.HYPERBOLIC, (F(-b, 2 * a), INF))
    disc = a * a + b * c
    if disc < 0:
        return (InvolutionKind.ELLIPTIC, None)
    s = math.isqrt(disc)
    if s * s != disc:
        return (InvolutionKind.HYPERBOLIC_IRRATIONAL, None)
    return (InvolutionKind.HYPERBOLIC, tuple(sorted((F(a + s, c), F(a - s, c)))))


def test_fixed_pairs_over_every_small_trace_zero_matrix(x_axis_chart):
    with pytest.raises(ValueError):
        fixed_pairs(((0, 0), (0, 0)))
    for a, b, c in itertools.product(range(-6, 7), repeat=3):
        if a == b == c == 0:
            continue
        pairs = fixed_pairs(((a, b), (c, -a)))
        disc = a * a + b * c
        if disc > 0 and math.isqrt(disc) ** 2 != disc:
            assert pairs is None, (a, b, c)
            continue
        assert len(pairs) == (disc > 0) - (disc < 0) + 1, (a, b, c)
        for num, den in pairs:
            assert c * num * num - 2 * a * num * den - b * den * den == 0, (a, b, c)
            assert math.gcd(num, den) == 1 and den >= 0 and (den or num == 1), (a, b, c)
        if len(pairs) == 2:
            (n1, d1), (n2, d2) = pairs
            assert d1 > 0 and (d2 == 0 or F(n1, d1) < F(n2, d2)), (a, b, c)
        if disc != 0:  # -det: the invertible matrices are involutions
            inv = InvolutionOnLine(x_axis_chart, ((a, b), (c, -a)))
            assert classify_and_fixed_points(inv) == _fixed_points_by_fractions(a, b, c), (a, b, c)


def _lowest_terms_pairs(rng, n):
    """(1, 0), (0, 1), (1, 1), (-1, 1) and n random coprime pairs with den > 0, of 3, 8 or 200 bits."""
    pairs = {(1, 0), (0, 1), (1, 1), (-1, 1)}
    while len(pairs) < n + 4:
        bits = rng.choice((3, 8, 200))
        num, den = rng.getrandbits(bits) * rng.choice((-1, 1)), rng.getrandbits(bits)
        if den > 0 and math.gcd(num, den) == 1:
            pairs.add((num, den))
    return sorted(pairs)


def test_from_fixed_pairs_is_the_primitive_matrix_of_its_fixed_pairs(x_axis_chart):
    # content 1 or 2 in closed form against primitive_rows2 of the same formula
    parities = set()
    for u, v in itertools.permutations(_lowest_terms_pairs(random.Random(40), 14), 2):
        (n1, d1), (n2, d2) = u, v
        t = n1 * d2 + n2 * d1
        parities.add(t % 2 if t else "zero")
        expected = primitive_rows2(((t, -2 * n1 * n2), (2 * d1 * d2, -t)))
        inv = InvolutionOnLine.from_fixed_pairs(x_axis_chart, u, v)
        assert inv.matrix == expected, (u, v)
        checked = InvolutionOnLine(x_axis_chart, expected)
        assert checked._fixed is None and inv._fixed == fixed_pairs(expected), (u, v)
        # the cache is invisible to equality, hashing and text
        assert inv == checked and hash(inv) == hash(checked), (u, v)
        assert (repr(inv), str(inv)) == (repr(checked), str(checked)), (u, v)
        assert classify_and_fixed_points(inv) == classify_and_fixed_points(checked), (u, v)
    assert parities == {0, 1, "zero"}


def test_desargues_condition_explicit_triple():
    pairs = [PointPair(F(2), F(1, 2)), PointPair(F(3), F(1, 3)), PointPair(F(4), F(1, 4))]
    assert desargues_condition_check(pairs)
    # first identity, both sides must be exactly 1/9
    g, c = F(1, 3), F(3)
    left = ((F(4) - g) * (F(1, 4) - g)) / ((F(4) - c) * (F(1, 4) - c))
    right = ((F(2) - g) * (F(1, 2) - g)) / ((F(2) - c) * (F(1, 2) - c))
    assert left == right == F(1, 9)


def test_desargues_condition_fails_off_involution():
    pairs = [PointPair(F(2), F(1, 2)), PointPair(F(3), F(1, 3)), PointPair(F(4), F(1, 5))]
    assert not desargues_condition_check(pairs)


def test_desargues_condition_refuses_infinity():
    pairs = [PointPair(F(0), INF), PointPair(F(1), F(-1)), PointPair(F(2), F(-2))]
    with pytest.raises(InfiniteNode):
        desargues_condition_check(pairs)


def test_three_fixed_nodes_are_in_no_involution():
    # the three products are all zero, so only the coincidence rule answers
    pairs = [PointPair(F(1), F(1)), PointPair(F(2), F(2)), PointPair(F(3), F(3))]
    assert not desargues_condition_check(pairs)
    assert not in_single_involution(pairs)
    # two fixed nodes and a couple that they separate harmonically: one involution
    pairs = [PointPair(F(1), F(1)), PointPair(F(3), F(3)), PointPair(F(0), F(3, 2))]
    assert desargues_condition_check(pairs)
    assert in_single_involution(pairs)


def test_interleaving():
    assert interleaved(PointPair(F(-1), F(1)), PointPair(F(0), F(2)))
    assert not interleaved(PointPair(F(1, 2), F(2)), PointPair(F(1, 3), F(3)))


def test_arbre_explicit():
    pairs = [PointPair(F(2), F(1, 2)), PointPair(F(3), F(1, 3)), PointPair(F(4), F(1, 4))]
    assert arbre_check(F(0), pairs)
    assert {(F(0) - p.first) * (F(0) - p.second) for p in pairs} == {1}
    # souche at 1: (1-2)(1-1/2) = -1/2 while (1-3)(1-1/3) = -4/3
    assert not arbre_check(F(1), pairs)
    with pytest.raises(InvalidSouche):
        arbre_check(F(2), pairs)


# Reference segment tests on Fraction coordinates: the direct reading of
# Desargues' signed segments, against which the pair-based tests are checked.

def _ref_finite(values):
    out = []
    for v in values:
        if v is INF:
            raise InfiniteNode("segment products need finite coordinates")
        out.append(Fraction(v))
    return out


def _ref_strictly_between(x, a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    return lo < x < hi


def _ref_interleaved(p, q):
    a, b = _ref_finite((p.first, p.second))
    c, d = _ref_finite((q.first, q.second))
    in_p = sum(1 for x in (c, d) if _ref_strictly_between(x, a, b))
    in_q = sum(1 for x in (a, b) if _ref_strictly_between(x, c, d))
    return in_p == 1 or in_q == 1


def _ref_desargues(pairs):
    p_bh, p_cg, p_df = pairs
    bigb, h = _ref_finite((p_bh.first, p_bh.second))
    c, g = _ref_finite((p_cg.first, p_cg.second))
    d, f = _ref_finite((p_df.first, p_df.second))
    for i in range(3):
        for j in range(i + 1, 3):
            if pairs[i] != pairs[j] and set(pairs[i].pairs) & set(pairs[j].pairs):
                return False
    if all(p.is_degenerate for p in pairs) and len({p_bh, p_cg, p_df}) == 3:
        return False

    def q_bh(x):
        return (x - bigb) * (x - h)

    def q_cg(x):
        return (x - c) * (x - g)

    def q_df(x):
        return (x - d) * (x - f)

    identities = (
        q_df(g) * q_bh(c) == q_bh(g) * q_df(c),
        q_cg(f) * q_bh(d) == q_bh(f) * q_cg(d),
        q_cg(h) * q_df(bigb) == q_df(h) * q_cg(bigb),
    )
    if not all(identities):
        return False
    statuses = {_ref_interleaved(pairs[i], pairs[j]) for i in range(3) for j in range(i + 1, 3) if pairs[i] != pairs[j]}
    return len(statuses) <= 1


def _ref_arbre(souche, pairs):
    a = _ref_finite((souche,))[0]
    products = []
    for p in pairs:
        x, y = _ref_finite((p.first, p.second))
        if a == x or a == y:
            raise InvalidSouche(f"souche {a} coincides with a node of {p}")
        products.append((a - x) * (a - y))
    return products[0] == products[1] == products[2] and len({prod < 0 for prod in products}) == 1


def _outcome(fn, *args):
    """The result of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except (InfiniteNode, InvalidSouche) as exc:
        return type(exc)


# INF, 0 and its reciprocal partner, nodes of t -> 1/t, t -> -t and t -> -1/t
_NODES = (INF, F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 2))


def test_segment_tests_match_the_fraction_reference_on_every_small_layout():
    couples = [PointPair(s, t) for s, t in itertools.combinations_with_replacement(_NODES, 2)]
    assert len(couples) == 28
    outcomes = {}
    for p, q in itertools.product(couples, repeat=2):
        got = _outcome(interleaved, p, q)
        assert got == _outcome(_ref_interleaved, p, q), (p, q)
        outcomes[got] = outcomes.get(got, 0) + 1
    for triple in itertools.combinations_with_replacement(couples, 3):
        for pairs in {triple, triple[::-1], triple[1:] + triple[:1]}:
            got = _outcome(desargues_condition_check, pairs)
            assert got == _outcome(_ref_desargues, pairs), pairs
            outcomes[got] = outcomes.get(got, 0) + 1
            if got is not InfiniteNode:
                assert got == in_single_involution(pairs), pairs
        for souche in (INF, F(0), F(1), F(-1, 2), F(3), F(-3, 4)):
            got = _outcome(arbre_check, souche, triple)
            assert got == _outcome(_ref_arbre, souche, triple), (souche, triple)
            outcomes[got] = outcomes.get(got, 0) + 1
    # every outcome is reached many times: both answers and both refusals
    assert min(outcomes.get(k, 0) for k in (True, False, InfiniteNode, InvalidSouche)) > 100, outcomes


def test_equivalence_rectangle_vs_homographic():
    """Desargues' conditions agree with membership, coincidences included."""
    rng = random.Random(17)
    checked = 0
    for _ in range(800):
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        if rng.random() < 0.3:
            i, j = rng.randrange(6), rng.randrange(6)
            vals[i] = vals[j]
        pairs = [PointPair(vals[0], vals[1]), PointPair(vals[2], vals[3]), PointPair(vals[4], vals[5])]
        assert desargues_condition_check(pairs) == in_single_involution(pairs)
        checked += 1
    assert checked == 800


def test_agregativite(x_axis_chart):
    rng = random.Random(23)
    done = 0
    while done < 50:
        a, b, c = (rng.randint(-6, 6) for _ in range(3))
        if a * a + b * c == 0:
            continue
        inv = InvolutionOnLine(x_axis_chart, ((a, b), (c, -a)))
        ts = []
        while len(ts) < 3:
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            img = inv.apply(t)
            if img is INF or any(t in (p.first, p.second) or img in (p.first, p.second) for p in ts):
                continue
            ts.append(PointPair(t, img))
        i12 = involution_from_two_pairs(ts[0], ts[1], x_axis_chart)
        i13 = involution_from_two_pairs(ts[0], ts[2], x_axis_chart)
        assert i12 == i13 == inv
        done += 1


def test_harmonic_bridge(x_axis_chart):
    # {a,a}, {b,b}, {c,d} in one involution iff (a,b; c,d) = -1
    a, b, c = F(-1), F(1), F(2)
    d = harmonic_conjugate_oracle(c, a, b)
    assert d == F(1, 2)
    assert in_single_involution([PointPair(a, a), PointPair(b, b), PointPair(c, d)])
    pts = [x_axis_chart.point_at(t) for t in (a, b, c, d)]
    assert cross_ratio(*pts, x_axis_chart) == -1
    assert not in_single_involution([PointPair(a, a), PointPair(b, b), PointPair(c, F(3, 4))])


def test_midpoint_iff_partner_at_infinity():
    c, g = F(1), F(5)
    assert in_single_involution([PointPair(F(3), INF), PointPair(c, c), PointPair(g, g)])
    assert not in_single_involution([PointPair(F(2), INF), PointPair(c, c), PointPair(g, g)])


def test_ramee_projection_example(x_axis_chart):
    # x -> -x on the x-axis, projected from (0,1,1) onto y = -1, doubles: u = 2t
    inv = involution_from_two_pairs(PointPair(F(1), F(-1)), PointPair(F(2), F(-2)), x_axis_chart)
    assert inv.apply(F(3)) == F(-3)
    target = canonical_chart(PLine(0, 1, 1))
    projected = ramee_project(inv, PPoint(0, 1, 1), target)
    assert projected.apply(F(4)) == F(-4)
    # couples {1,-1}, {2,-2} land on {2,-2}, {4,-4}; the fixed nodes 0 and
    # infinity stay put
    for pair in (PointPair(F(2), F(-2)), PointPair(F(4), F(-4)), PointPair(F(0), F(0))):
        assert contains_pair(projected, pair)
    kind, fixed = classify_and_fixed_points(projected)
    assert kind == InvolutionKind.HYPERBOLIC and fixed == (F(0), INF)


def _random_point(rng, bound):
    while True:
        try:
            return PPoint(*(rng.randint(-bound, bound) for _ in range(3)))
        except GeometryError:
            continue


def _random_chart(rng, bound):
    """A chart on a random line, with random reference points on it."""
    while True:
        try:
            o, i = _random_point(rng, bound), _random_point(rng, bound)
            a, b = rng.randint(1, bound), rng.choice((-1, 1)) * rng.randint(1, bound)
            unit = PPoint(*(a * x + b * y for x, y in zip(o.coords, i.coords)))
            return LineChart(join(o, i), o, unit, i)
        except GeometryError:
            continue


@pytest.mark.parametrize("bound", [3, 2**300], ids=["small", "300-bit"])
def test_ramee_carries_each_couple_by_projection(bound):
    # the closed-form perspectivity against the geometric one, p -> (center p) /\ target
    rng = random.Random(bound)
    checked = 0
    while checked < 60:
        source, target = _random_chart(rng, bound), _random_chart(rng, bound)
        if rng.random() < 0.25:
            target = canonical_chart(target.line)
        center = _random_point(rng, bound)
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if source.line.contains(center) or target.line.contains(center) or a * a + b * c == 0:
            continue
        inv = InvolutionOnLine(source, ((a, b), (c, -a)))
        projected = ramee_project(inv, center, target)
        assert projected.chart == target

        def image(p):
            return meet(join(center, p), target.line)

        for t in (INF, F(0), F(1), F(rng.randint(-bound, bound), rng.randint(1, bound))):
            p = source.point_at(t)
            assert projected.apply_point(image(p)) == image(inv.apply_point(p))
        checked += 1


def test_ramee_center_on_line_rejected(x_axis_chart):
    inv = involution_from_two_pairs(PointPair(F(1), F(-1)), PointPair(F(2), F(-2)), x_axis_chart)
    with pytest.raises(CenterOnLine):
        ramee_project(inv, PPoint(3, 0, 1), canonical_chart(PLine(0, 1, 1)))


def test_ramee_preserves_elliptic_kind(x_axis_chart):
    inv = involution_from_two_pairs(
        PointPair(F(2, 5), F(-8, 5)), PointPair(F(8, 5), F(-2, 5)), x_axis_chart
    )
    assert classify_and_fixed_points(inv)[0] == InvolutionKind.ELLIPTIC
    target = canonical_chart(PLine(1, 1, -4))
    projected = ramee_project(inv, PPoint(1, 2, 1), target)
    assert classify_and_fixed_points(projected)[0] == InvolutionKind.ELLIPTIC


def test_involution_text_form(x_axis_chart):
    inv = involution_from_two_pairs(PointPair(F(1), F(-1)), PointPair(F(2), F(-2)), x_axis_chart)
    assert str(inv) == "[[1, 0], [0, -1]] on [0, 1, 0]"
