"""Acceptance criteria, one test per criterion.

Everything is exact rational equality except criterion 12, whose stated
tolerance is 1e-9 relative on the float coordinates emitted into SVG.
Each test prints a single verdict line (visible with `pytest -s` or on
failure).
"""

import time
from fractions import Fraction

from traversale import (
    INF,
    Conic,
    InvolutionKind,
    LINE_AT_INFINITY,
    PLine,
    PPoint,
    PointPair,
    classify_and_fixed_points,
    contains_pair,
    desargues_condition_check,
    join,
    meet,
    polar,
    polarity_involution_on_line,
    pole,
)
from traversale.render import FIGURES, render_figure
from traversale.synthetic import (
    InscribedQuadrangle,
    PencilBase,
    conjugate_diameters,
    incidence_lemma_check,
    pencil_involution_on_line,
    two_involutions,
)
from traversale.verify import verify_suite


def F(*args):
    return Fraction(*args)


def _verdict(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _passes(reports, name, prop=None):
    """Whether suite ``name`` (or only its property ``prop``) passed in ``reports``."""
    report = next(r for r in reports if r.suite == name)
    if prop is None:
        return report.passed
    return next(p for p in report.properties if p.name == prop).passed


def test_criterion_01_traversale_equals_polar_100x5():
    start = time.time()
    report = verify_suite("quadrangle-independence", seed=1, cases=100)
    ok = _passes([report], "quadrangle-independence", "traversale-equals-polar")
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _verdict(1, f"traversale equals polar: 100 exterior points on 5 conics, two quadrangles each, exact ({elapsed:.2f}s)", ok)


def test_criterion_02_pole_by_construction(seed_1_reports):
    ok = _passes(seed_1_reports, "quadrangle-independence", "pole-by-construction-equals-pole")
    _verdict(2, "constructed pole equals algebraic pole on 100 non-tangent lines, exact", ok)


def test_criterion_03_worked_example_fidelity():
    circle = Conic.unit_circle()
    f = PPoint(2, 0, 1)
    quad = InscribedQuadrangle(
        circle,
        PPoint(1, 0, 1),
        PPoint(-1, 0, 1),
        PPoint(F(3, 5), F(4, 5), 1),
        PPoint(F(5, 13), F(12, 13), 1),
    )
    fpt, n, g = quad.diagonal_points()
    gn = join(g, n)
    ok = (
        fpt == f
        and g == PPoint(F(1, 2), 1, 1)
        and n == PPoint(F(1, 2), F(3, 4), 1)
        and gn == PLine(2, 0, -1)
        and gn == polar(circle, f)
    )
    # the incidence lemma's meeting point lands exactly on (-1, 0, 1); here
    # the lemma's point on the traversale is (1/2, 1)
    from traversale.conic import second_intersection

    lemma_n = PPoint(F(1, 2), 1, 1)
    d = PPoint(F(3, 5), F(4, 5), 1)
    b = PPoint(1, 0, 1)
    e = second_intersection(circle, d, f)
    p = meet(join(lemma_n, e), join(f, b))
    ok = (
        ok
        and e == PPoint(F(5, 13), F(12, 13), 1)
        and p == PPoint(-1, 0, 1)
        and incidence_lemma_check(circle, f, lemma_n, d, b)
    )
    _verdict(3, "worked example: G=(1/2,1), N=(1/2,3/4), GN: x=1/2, lemma meet at (-1,0,1)", ok)


def test_criterion_04_involution_equivalence(seed_1_reports):
    pairs = [PointPair(F(2), F(1, 2)), PointPair(F(3), F(1, 3)), PointPair(F(4), F(1, 4))]
    g, c = F(1, 3), F(3)
    left = ((F(4) - g) * (F(1, 4) - g)) / ((F(4) - c) * (F(1, 4) - c))
    right = ((F(2) - g) * (F(1, 2) - g)) / ((F(2) - c) * (F(1, 2) - c))
    explicit_ok = desargues_condition_check(pairs) and left == right == F(1, 9)
    ok = _passes(seed_1_reports, "involution-equivalence", "rectangle-vs-homographic")
    _verdict(4, "rectangle conditions equal homographic membership on 200 triples; explicit triple 1/9", ok and explicit_ok)


def test_criterion_05_ramee_invariance(seed_1_reports):
    ok = _passes(seed_1_reports, "ramee")
    _verdict(5, "involution membership and kind survive 100 random perspectivities", ok)


def test_criterion_06_pencil_theorem(seed_1_reports):
    circle = Conic.unit_circle()
    base = PencilBase(
        (PPoint(1, 0, 1), PPoint(0, 1, 1), PPoint(-1, 0, 1), PPoint(0, -1, 1)),
        member=circle,
    )
    inv = pencil_involution_on_line(base, PLine(5, 0, -3))
    example_ok = (
        inv.apply(F(2, 5)) == F(-8, 5)
        and contains_pair(inv, PointPair(F(0), INF))
        and contains_pair(inv, PointPair(F(4, 5), F(-4, 5)))
    )
    ok = _passes(seed_1_reports, "pencil-theorem")
    _verdict(6, "square base on x=3/5 gives y*y' = -16/25 with {0,inf} and {4/5,-4/5}; 100 random cases", ok and example_ok)


def test_criterion_07_two_involutions(seed_1_reports):
    circle = Conic.unit_circle()
    pr = two_involutions(circle, PPoint(2, 0, 1), PLine(0, 1, 0))
    kind, fixed = classify_and_fixed_points(pr.pencil)
    example_ok = (
        kind == InvolutionKind.HYPERBOLIC
        and fixed == (F(1, 2), F(2))
        and all(pr.polarity.apply(t) == 1 / t for t in (F(2), F(3), F(-5)))
        and pr.pencil != pr.polarity
    )
    ok = _passes(seed_1_reports, "two-involutions")
    _verdict(7, "pencil involution fixes {2,1/2}, polarity is x->1/x; distinct in 100/100 cases", ok and example_ok)


def test_criterion_08_classification_trichotomy(seed_1_reports):
    circle = Conic.unit_circle()
    inv = polarity_involution_on_line(circle, PLine(1, 0, -2))
    ordinale_ok = (
        all(inv.apply(t) == F(-3) / t for t in (F(1), F(2), F(-7, 3)))
        and classify_and_fixed_points(inv)[0] == InvolutionKind.ELLIPTIC
    )
    ok = _passes(seed_1_reports, "classification")
    _verdict(8, "secant/missing/tangent give hyperbolic/elliptic/TangentLine on 100 lines; x=2 is t->-3/t elliptic", ok and ordinale_ok)


def test_criterion_09_duality(seed_1_reports):
    ok1 = _passes(seed_1_reports, "biduality")
    ok2 = _passes(seed_1_reports, "incidence-duality")
    _verdict(9, "biduality and incidence duality on 100 random cases each, exact", ok1 and ok2)


def test_criterion_10_asymptotes_diameters(seed_1_reports):
    hyp = Conic(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    asym_ok = all(
        conjugate_diameters(hyp, LINE_AT_INFINITY, a) == a
        for a in (PLine(1, 1, 0), PLine(1, -1, 0))
    )
    circle = Conic.unit_circle()
    perp_ok = True
    for x, y in ((1, 0), (1, 1), (2, -3), (5, 7)):
        d = join(PPoint(0, 0, 1), PPoint(x, y, 1))
        conj = conjugate_diameters(circle, LINE_AT_INFINITY, d)
        perp_ok = perp_ok and d.coeffs[0] * conj.coeffs[0] + d.coeffs[1] * conj.coeffs[1] == 0
    center_ok = pole(circle, LINE_AT_INFINITY) == PPoint(0, 0, 1)
    ok = _passes(seed_1_reports, "affine-diameters")
    _verdict(10, "asymptotes x+-y=0 self-conjugate; circle diameters perpendicular; center = pole(infinity)", asym_ok and perp_ok and center_ok and ok)


def test_criterion_11_self_polar_diagonal_triangle(seed_1_reports):
    ok = _passes(seed_1_reports, "self-polar")
    _verdict(11, "diagonal triangle self-polar for 50 random inscribed quadrangles, exact", ok)


def test_criterion_12_rendering(seed_1_reports):
    deterministic = all(render_figure(name) == render_figure(name) for name in sorted(FIGURES))
    ok = _passes(seed_1_reports, "rendering")
    _verdict(12, "figures 8/10/13/14/16 byte-identical, float incidences within 1e-9 relative", deterministic and ok)
