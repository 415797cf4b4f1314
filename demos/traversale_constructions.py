"""The traversale with ruler alone, and why it equals the polar.

Walks the worked configuration: the quadrangle construction of the
traversale, its independence from the chosen quadrangle, the dual pole
construction, the incidence lemma, and the two involutions living on an
ordonnee.

Run: python demos/traversale_constructions.py
"""

from fractions import Fraction as F

from traversale import (
    Conic,
    PLine,
    PPoint,
    classify_and_fixed_points,
    cross_ratio,
    join,
    polar,
    pole,
)
from traversale.synthetic import (
    InscribedQuadrangle,
    incidence_lemma_check,
    inscribed_quadrangle_through,
    pole_by_construction,
    tangent_via_harmonic,
    traversale_from_quadrangle,
    two_involutions,
)

circle = Conic.unit_circle()
f = PPoint(2, 0, 1)

print("== traversale of F = (2, 0) from an inscribed quadrangle ==")
quad = InscribedQuadrangle(
    circle,
    PPoint(1, 0, 1),
    PPoint(-1, 0, 1),
    PPoint(F(3, 5), F(4, 5), 1),
    PPoint(F(5, 13), F(12, 13), 1),
)
fpt, n, g = quad.diagonal_points()
print("bornes:", *(str(p) for p in quad.bornes))
print("diagonal points: F =", fpt, " N =", n, " G =", g)
tau = join(g, n)
print("the line GN:", tau)
print("the algebraic polar of F:", polar(circle, f))
print("they agree exactly:", tau == polar(circle, f))

print()
print("== independence from the quadrangle ==")
q2 = inscribed_quadrangle_through(circle, f, offset=2)
print("a disjoint quadrangle:", *(str(p) for p in q2.bornes))
print("same traversale:", traversale_from_quadrangle(circle, f, offset=2) == tau)

print()
print("== the dual: a line's pole from two traversales ==")
built = pole_by_construction(circle, tau)
print(f"meet of the traversales of two points of {tau}: {built}")
print("equals the algebraic pole:", built == pole(circle, tau) == f)

print()
print("== the incidence lemma behind it all ==")
lemma_n = PPoint(F(1, 2), 1, 1)
d = PPoint(F(3, 5), F(4, 5), 1)
b = PPoint(1, 0, 1)
print("with N =", lemma_n, "on the traversale and the chord N-D-B:",
      incidence_lemma_check(circle, f, lemma_n, d, b))

print()
print("== the two involutions on the x-axis through F ==")
pair = two_involutions(circle, f, PLine(0, 1, 0))
print("conic trace L, M:", *(str(p) for p in pair.conic_trace))
print("traversale point H:", pair.traversale_point)
print("pencil involution fixes:", classify_and_fixed_points(pair.pencil)[1])
print("polarity involution fixes:", classify_and_fixed_points(pair.polarity)[1])
chart = pair.pencil.chart
print("harmonic: (L, M; F, H) =", cross_ratio(*pair.conic_trace, f, pair.traversale_point, chart))

print()
print("== a tangent by one harmonic conjugation ==")
a = PPoint(0, 1, 1)
t = tangent_via_harmonic(circle, a, PPoint(F(5, 3), 0, 1))
print(f"tangent at {a} built through the traversale of (5/3, 0): {t}")
print("equals the polar of the contact point:", t == polar(circle, a))
