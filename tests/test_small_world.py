"""The small world: every small conic, point and line, checked exhaustively.

The world is every conic a x^2 + b y^2 + c z^2 + d xy + e xz + f yz = 0
with coefficients in {-1, 0, 1} up to scale (364 conics), and the 13
points and 13 lines with entries in {-1, 0, 1}.  The seeded suites draw
only images of the unit circle; this world adds conics typed as six
coefficients, degenerate conics and conics with no rational point.
"""

from collections import Counter
from itertools import product

from traversale import Conic, PLine, PPoint
from traversale.conic import (
    affine_features,
    classify,
    find_rational_point,
    is_tangent_line,
    line_intersect,
    polar,
    polarity_involution_on_line,
    pole,
    tangent_at,
    tangents_from,
)
from traversale.errors import BasePointNotOnConic, GeometryError
from traversale.linalg import primitive
from traversale.projective import LINE_AT_INFINITY
from traversale.synthetic import (
    conjugate_diameters,
    inscribed_quadrangle_through,
    pole_by_construction,
    traversale_from_quadrangle,
    two_involutions,
)

from oracles import search_digest

VALUES = (-1, 0, 1)
COEFFICIENTS = [v for v in product(VALUES, repeat=6) if any(v) and primitive(v) == v]
TRIPLES = [v for v in product(VALUES, repeat=3) if any(v) and primitive(v) == v]
POINTS = [PPoint(*v) for v in TRIPLES]
LINES = [PLine(*v) for v in TRIPLES]

# The one-object entry points, by the object each takes besides the conic,
# with the GeometryError classes each raises somewhere in the world.
CONIC_ONLY = {
    "classify": (classify, set()),
    "affine_features": (affine_features, {"DegenerateConic"}),
    "find_rational_point": (find_rational_point, set()),
}
WITH_POINT = {
    "polar": (polar, {"TotallyIsotropicPoint"}),
    "tangent_at": (tangent_at, {"BasePointNotOnConic", "TotallyIsotropicPoint"}),
    "tangents_from": (tangents_from, {"DegenerateConic", "InteriorPoint", "IrrationalIntersection"}),
    "traversale_from_quadrangle": (traversale_from_quadrangle, {"DegenerateConic", "NoRationalSecants", "OnConic"}),
    "inscribed_quadrangle_through": (inscribed_quadrangle_through, {"DegenerateConic", "NoRationalSecants", "OnConic"}),
}
WITH_LINE = {
    "pole": (pole, {"DegenerateConic"}),
    "is_tangent_line": (is_tangent_line, {"DegenerateConic"}),
    "line_intersect": (line_intersect, {"IrrationalIntersection", "LineOnConic"}),
    "polarity_involution_on_line": (polarity_involution_on_line, {"DegenerateConic", "TangentLine"}),
    "pole_by_construction": (pole_by_construction, {"DegenerateConic", "NoRationalSecants", "TangentLine"}),
    "conjugate_diameters": (
        lambda c, d: conjugate_diameters(c, LINE_AT_INFINITY, d),
        {"DegenerateConic", "NotADiameter", "TangentLine"},
    ),
}


def _conics():
    """The world's conics, built fresh so that no memo from another test is read."""
    return [Conic.from_coefficients(*v) for v in COEFFICIENTS]


def test_the_world_has_its_stated_size():
    assert (len(COEFFICIENTS), len(set(POINTS)), len(set(LINES))) == (364, 13, 13)


def test_find_rational_point_results_are_pinned():
    conics = _conics()
    found = [find_rational_point(c) for c in conics]
    assert all(p is None or c.contains(p) for c, p in zip(conics, found))
    assert sum(p is None for p in found) == 47
    # the oracle CI runs at bound 2, here at the size of this world
    assert search_digest(1) == "364 d566c49d0b5a9c48227e3b845330db95607155e8b1be85d03db14945b44ca049"


def test_constructions_equal_polar_and_pole_on_every_pointed_conic():
    traversales = poles = 0
    for c in _conics():
        if not c.is_nondegenerate or find_rational_point(c) is None:
            continue
        for f in POINTS:
            if not c.contains(f):
                assert traversale_from_quadrangle(c, f) == polar(c, f), (c, f)
                traversales += 1
        for l in LINES:
            if not is_tangent_line(c, l):
                assert pole_by_construction(c, l) == pole(c, l), (c, l)
                poles += 1
    assert (traversales, poles) == (2287, 2551)


def _raised(call, *args) -> str | None:
    """The name of the GeometryError the call raises, None for a result; any other exception escapes."""
    try:
        call(*args)
    except GeometryError as exc:
        return type(exc).__name__
    return None


def test_one_object_entry_points_end_in_a_result_or_a_geometry_error():
    # A conic remembers a failed search, so on the 47 conics where it finds
    # no point the constructions search once, not once per point and line.
    raised = {name: set() for name in (*CONIC_ONLY, *WITH_POINT, *WITH_LINE)}
    for c in _conics():
        for name, (call, _) in CONIC_ONLY.items():
            raised[name].add(_raised(call, c))
        for table, objects in ((WITH_POINT, POINTS), (WITH_LINE, LINES)):
            for name, (call, _) in table.items():
                for x in objects:
                    raised[name].add(_raised(call, c, x))
    for name, (_, errors) in (*CONIC_ONLY.items(), *WITH_POINT.items(), *WITH_LINE.items()):
        assert raised[name] - {None} == errors, name


def _outcome(call, *args):
    """The result, or the class and message of the GeometryError raised."""
    try:
        return call(*args)
    except GeometryError as exc:
        return type(exc).__name__, str(exc)


def _tangent_by_definition(c, p):
    if not c.contains(p):
        raise BasePointNotOnConic(f"{p} is not on the conic")
    return polar(c, p)


def test_tangent_at_is_its_definition_on_every_conic_and_point():
    # the polar of p passes through p exactly when p is on the conic, so
    # taking the polar first raises what testing the form first raises
    outcomes = [(_outcome(tangent_at, c, p), _outcome(_tangent_by_definition, c, p)) for c in _conics() for p in POINTS]
    assert all(new == old for new, old in outcomes)
    kinds = Counter(new[0] if isinstance(new, tuple) else type(new).__name__ for new, _ in outcomes)
    assert kinds == {"PLine": 1128, "BasePointNotOnConic": 3525, "TotallyIsotropicPoint": 79}


def test_two_involutions_ends_in_a_result_or_a_geometry_error_on_a_fixed_sample():
    # Conic i takes the (point, line) pairs whose index in the 169 pairs is
    # congruent to i mod 4, so each pair meets a quarter of the conics.
    pairs = list(product(POINTS, LINES))
    raised = set()
    for i, c in enumerate(_conics()):
        for f, l in pairs[i % 4 :: 4]:
            raised.add(_raised(two_involutions, c, f, l))
    assert raised == {
        None, "DegenerateConic", "IrrationalIntersection", "LineMissesConic", "NotOnLine", "OnConic", "TangentLine"
    }
