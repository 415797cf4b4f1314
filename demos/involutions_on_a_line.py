"""Involutions on a line: rectangle identities, arbres, ramee invariance.

Run: python demos/involutions_on_a_line.py
"""

from fractions import Fraction as F

from traversale import (
    INF,
    PLine,
    PPoint,
    PointPair,
    arbre_check,
    canonical_chart,
    classify_and_fixed_points,
    contains_pair,
    desargues_condition_check,
    involution_from_two_pairs,
    join,
    meet,
    ramee_project,
    souche_of,
)

chart = canonical_chart(PLine(0, 1, 0))  # the x-axis, coordinate = x

print("== three couples in involution ==")
couples = [PointPair(F(2), F(1, 2)), PointPair(F(3), F(1, 3)), PointPair(F(4), F(1, 4))]
print("couples:", *couples)
print("rectangle-ratio conditions hold:", desargues_condition_check(couples))

inv = involution_from_two_pairs(couples[0], couples[1], chart)
print("matrix from the first two couples:", inv.matrix)
print("third couple is exchanged too:", contains_pair(inv, couples[2]))
kind, fixed = classify_and_fixed_points(inv)
print(f"kind: {kind.value}, fixed nodes: {fixed}")  # x -> 1/x, fixed -1 and 1

print()
print("== the arbre view: equal products from a souche ==")
souche = souche_of(inv)
print("souche (the node coupled with infinity):", souche)
product = (souche - couples[0].first) * (souche - couples[0].second)
print(f"equal signed products from {souche}: {arbre_check(souche, couples)}, common value {product}")

print()
print("== an elliptic involution has no fixed node ==")
ell = involution_from_two_pairs(PointPair(F(2, 5), F(-8, 5)), PointPair(F(8, 5), F(-2, 5)), chart)
print("matrix:", ell.matrix, "-> x * x' =", F(2, 5) * ell.apply(F(2, 5)))
print("kind:", classify_and_fixed_points(ell)[0].value)
print("0 is coupled with infinity:", contains_pair(ell, PointPair(F(0), INF)))

print()
print("== ramee: involutions survive central projection ==")
target = canonical_chart(PLine(0, 1, 1))  # the line y = -1, coordinate = x
center = PPoint(0, 1, 1)
projected = ramee_project(inv, center, target)
print("projected matrix on y=-1:", projected.matrix)
for c in couples:
    img = PointPair(
        *(
            target.coordinate(meet(join(center, chart.point_at(t)), target.line))
            for t in (c.first, c.second)
        )
    )
    print(f"  {c} projects to {img}: member of the image involution: {contains_pair(projected, img)}")
