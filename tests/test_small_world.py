"""The small world at bound 1: every small conic, point and line, checked exhaustively.

The 364 conics with coefficients in {-1, 0, 1} up to scale, and the 13
points and 13 lines with entries in {-1, 0, 1}.  tests/oracles.py builds
the world and owns its oracles; run as a script, it runs them at bound 2.
"""

from collections import Counter

import pytest

from traversale.conic import find_rational_point, polar, tangent_at
from traversale.errors import BasePointNotOnConic, GeometryError

from oracles import CONIC_ONLY, LINES, POINTS, WITH_LINE, WITH_POINT, coefficients, conics, equality_run, one_object, search_digest


def test_the_world_has_its_stated_size():
    assert (len(coefficients(1)), len(set(POINTS)), len(set(LINES))) == (364, 13, 13)


def test_find_rational_point_results_are_pinned():
    world = conics(1)
    found = [find_rational_point(c) for c in world]
    assert all(p is None or c.contains(p) for c, p in zip(world, found))
    assert sum(p is None for p in found) == 47
    assert search_digest(1) == "364 d566c49d0b5a9c48227e3b845330db95607155e8b1be85d03db14945b44ca049"


def test_constructions_equal_polar_and_pole_on_every_pointed_conic():
    # incidence is projectively invariant, so the moved cases double the given ones
    assert equality_run(1) == {"conics": 235, "traversale": 4574, "pole": 5102, "framed": 4838, "twins": 4838}


@pytest.fixture(scope="module")
def one_object_run():
    """one_object at bound 1, run once for the two tests that read it."""
    return one_object(1)


def test_one_object_entry_points_end_in_a_result_or_a_geometry_error(one_object_run):
    raised, _ = one_object_run
    assert raised == {name: errors for name, (_, errors) in (*CONIC_ONLY.items(), *WITH_POINT.items(), *WITH_LINE.items())}


def test_two_involutions_ends_in_a_result_or_a_geometry_error_on_a_fixed_sample(one_object_run):
    # the fixed sample is the whole world at bound 1: every conic with each of the 169 (point, line) pairs
    _, outcomes = one_object_run
    assert outcomes == {
        "result": 3204, "NotOnLine": 44044, "LineMissesConic": 3432, "IrrationalIntersection": 2604,
        "OnConic": 4548, "DegenerateConic": 2292, "TangentLine": 1392,
    }


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
    outcomes = [(_outcome(tangent_at, c, p), _outcome(_tangent_by_definition, c, p)) for c in conics(1) for p in POINTS]
    assert all(new == old for new, old in outcomes)
    kinds = Counter(new[0] if isinstance(new, tuple) else type(new).__name__ for new, _ in outcomes)
    assert kinds == {"PLine": 1128, "BasePointNotOnConic": 3525, "TotallyIsotropicPoint": 79}
