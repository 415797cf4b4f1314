"""Exhaustive oracles over the small world of conics, points and lines.

    PYTHONPATH=src python tests/oracles.py

The world at bound b is every conic a x^2 + b y^2 + c z^2 + d xy + e xz +
f yz = 0 with integer coefficients in [-b, b] up to scale, and the 13
points and 13 lines with entries in {-1, 0, 1}.  The conics are the
coefficient vectors ``v`` with ``primitive(v) == v``, so the world also
guards the generic ``linalg.primitive``: 364 conics at bound 1, 7,448 at
bound 2 (the bounded search finds no point on 47 and 1,459 of them).  The
seeded suites draw only images of the unit circle; this world adds conics
typed as six coefficients, degenerate conics and conics with no rational
point.  Three oracles run on it, each a function of the bound:

- :func:`search_digest` hashes the bounded search's answer on each conic;
- :func:`one_object` calls each entry point of the tables below on each
  conic with each point or line it takes, and ``two_involutions`` with each
  (point, line) pair: a call ends in a result or a GeometryError, or fails;
- :func:`equality_run` checks the traversale against the polar, and the
  pole by construction against the pole, on every nondegenerate conic the
  search finds a point on, as given and moved far above the frame gate.

tests/test_small_world.py runs each oracle at bound 1.  Run with no
arguments, this script runs each at bound 2, prints the results and exits
with a message for each oracle whose result differs from :data:`PINNED`.
"""

import hashlib
import random
import sys
from collections import Counter
from itertools import product

from traversale import Conic, FramedLine, FramedPoint, GeometryError, Homography, PLine, PPoint, SingularMatrix, transform
from traversale.conic import (
    affine_features,
    chord_parametrization,
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
from traversale.linalg import primitive
from traversale.projective import LINE_AT_INFINITY
from traversale.synthetic import (
    conjugate_diameters,
    inscribed_quadrangle_through,
    pole_by_construction,
    traversale_from_quadrangle,
    two_involutions,
)

# The oracles' results at bound 2.  The equality run checks 246,356 cases.
PINNED = {
    "search_digest": "7448 e70ef7ccf4688adf9dd1855868c4bd7550dfc2ee0f106983906342a5f707973e",
    "two_involutions": {
        "result": 78960, "NotOnLine": 901208, "LineMissesConic": 97548, "IrrationalIntersection": 92352,
        "OnConic": 53184, "DegenerateConic": 19680, "TangentLine": 15780,
    },
    "equality_run": {"conics": 5411, "traversale": 116782, "pole": 129574, "framed": 123178, "twins": 123178},
}


def _vectors(bound: int, length: int) -> list[tuple[int, ...]]:
    """One primitive representative of each nonzero integer vector with entries in [-bound, bound], up to scale."""
    return [v for v in product(range(-bound, bound + 1), repeat=length) if any(v) and primitive(v) == v]


def coefficients(bound: int) -> list[tuple[int, ...]]:
    """The coefficient vectors of the world's conics."""
    return _vectors(bound, 6)


def conics(bound: int) -> list[Conic]:
    """The world's conics, built fresh so that no memo from another caller is read."""
    return [Conic.from_coefficients(*v) for v in coefficients(bound)]


POINTS = [PPoint(*v) for v in _vectors(1, 3)]
LINES = [PLine(*v) for v in _vectors(1, 3)]

# The one-object entry points, by the object each takes besides the conic,
# with the GeometryError classes each raises somewhere in the world (at bounds 1 and 2).
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


def search_digest(bound: int) -> str:
    """``"<count> <sha256>"`` of one line per conic: its coefficients and find_rational_point's witness, or None."""
    world = coefficients(bound)
    text = "".join(f"{v} {find_rational_point(Conic.from_coefficients(*v))!r}\n" for v in world)
    return f"{len(world)} {hashlib.sha256(text.encode()).hexdigest()}"


def _outcome(call, *args) -> str:
    """The name of the GeometryError the call raises, or "result"; any other exception escapes."""
    try:
        call(*args)
    except GeometryError as exc:
        return type(exc).__name__
    return "result"


def one_object(bound: int) -> tuple[dict[str, set[str]], Counter]:
    """Each entry point's set of raised GeometryError names, and the ``two_involutions`` outcome counts."""
    # A conic remembers a failed search, so on the conics where it finds no
    # point the constructions search once, not once per point and line.
    arguments = ((CONIC_ONLY, [()]), (WITH_POINT, [(p,) for p in POINTS]), (WITH_LINE, [(l,) for l in LINES]))
    calls = [(name, call, args) for table, args in arguments for name, (call, _) in table.items()]
    pairs = list(product(POINTS, LINES))
    raised = {name: set() for name, _, _ in calls}
    outcomes = Counter()
    for c in conics(bound):
        for name, call, args in calls:
            raised[name].update(_outcome(call, c, *a) for a in args)
        outcomes.update(_outcome(two_involutions, c, f, l) for f, l in pairs)
    return {name: names - {"result"} for name, names in raised.items()}, outcomes


def equality_run(bound: int) -> dict[str, int]:
    """The traversale equals the polar and the pole by construction the pole, as given and moved; the case counts.

    The conics are the nondegenerate ones the search finds a point on, each
    with every point not on it and every line not tangent to it.  One seeded
    64-fold homography moves them: its entries have about 450 bits, above
    the size gate, so the moved constructions return framed values.  Each
    framed result is also compared with the framed twin of its expected
    value in the conic's frame, an == on frame vectors that maps no plane
    triple; ``twins`` counts the twins that hold the very frame object of
    the result.
    """
    rng, h, steps = random.Random("equality run"), Homography.identity(), 0
    while steps < 64:
        try:
            h = Homography([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]).compose(h)
        except SingularMatrix:
            continue
        steps += 1
    given = (POINTS, LINES)
    moved = ([h.apply(p) for p in POINTS], [h.apply_line(l) for l in LINES])
    counts = {"conics": 0, "traversale": 0, "pole": 0, "framed": 0, "twins": 0}
    for v in coefficients(bound):
        c = Conic.from_coefficients(*v)
        base = find_rational_point(c) if c.is_nondegenerate else None
        if base is None:
            continue
        counts["conics"] += 1
        for conic, (points, lines) in ((c, given), (transform(Conic(c.matrix, witness=base), h), moved)):
            for f in points:
                if not conic.contains(f):
                    built = traversale_from_quadrangle(conic, f)
                    expected = polar(conic, f)
                    assert built == expected, (v, conic is c, f)
                    counts["traversale"] += 1
                    if isinstance(built, FramedLine):
                        par = chord_parametrization(conic)
                        twin = par.line_from_frame(par.frame_of_line(expected))
                        assert built == twin, (v, f)
                        counts["framed"] += 1
                        counts["twins"] += twin.frame is built.frame
            for l in lines:
                if not is_tangent_line(conic, l):
                    built = pole_by_construction(conic, l)
                    expected = pole(conic, l)
                    assert built == expected, (v, conic is c, l)
                    counts["pole"] += 1
                    if isinstance(built, FramedPoint):
                        par = chord_parametrization(conic)
                        twin = par.point_from_frame(par.frame_of_point(expected))
                        assert built == twin, (v, l)
                        counts["framed"] += 1
                        counts["twins"] += twin.frame is built.frame
    return counts


def main() -> None:
    oracles = {
        "search_digest": search_digest,
        "two_involutions": lambda bound: dict(one_object(bound)[1]),
        "equality_run": equality_run,
    }
    failures = []
    for name, oracle in oracles.items():
        result = oracle(2)
        print(f"{name}: {result}", flush=True)
        if result != PINNED[name]:
            failures.append(f"{name} at bound 2: {result}, pinned {PINNED[name]}")
    sys.exit("\n".join(failures) or None)


if __name__ == "__main__":
    main()
