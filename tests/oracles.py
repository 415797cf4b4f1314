"""Exhaustive oracles over small conics, runnable outside the test suite.

    PYTHONPATH=src python tests/oracles.py search-digest
    PYTHONPATH=src python tests/oracles.py one-object

``search-digest`` prints the number of conics with coefficients in
[-2, 2] up to scale, and the sha256 of one line per conic: its
coefficients and the bounded search's witness, or None.  CI pins the
line, ``7448 e70ef7cc...973e``, and tests/test_small_world.py pins the
[-1, 1] size.  The conics are enumerated as the coefficient vectors ``v``
with ``primitive(v) == v``, so the digest also guards the generic
``linalg.primitive``.

``one-object`` calls each entry point of tests/test_small_world.py's
tables on each of the 7,448 conics, with each of the 13 points or 13
lines with entries in {-1, 0, 1} (1,087,408 calls), then
``two_involutions`` on each conic with each of the 169 (point, line)
pairs (1,258,712 calls).  Every call must end in a result or a
GeometryError, any other exception escapes, and the ``two_involutions``
outcome counts must equal :data:`TWO_INVOLUTIONS_OUTCOMES`; otherwise the
command exits with a message.  Standard library only.
"""

import argparse
import hashlib
import sys
from collections import Counter
from itertools import product

from traversale import Conic, GeometryError
from traversale.conic import find_rational_point
from traversale.linalg import primitive
from traversale.synthetic import two_involutions

# two_involutions on the [-2, 2] conics and the 169 (point, line) pairs
TWO_INVOLUTIONS_OUTCOMES = {
    "result": 78960, "NotOnLine": 901208, "LineMissesConic": 97548, "IrrationalIntersection": 92352,
    "OnConic": 53184, "DegenerateConic": 19680, "TangentLine": 15780,
}


def _coefficients(bound: int) -> list[tuple[int, ...]]:
    values = range(-bound, bound + 1)
    return [v for v in product(values, repeat=6) if any(v) and primitive(v) == v]


def search_digest(bound: int) -> str:
    """``"<count> <sha256>"`` of find_rational_point's answer on each conic with coefficients in [-bound, bound]."""
    coefficients = _coefficients(bound)
    text = "".join(f"{v} {find_rational_point(Conic.from_coefficients(*v))!r}\n" for v in coefficients)
    return f"{len(coefficients)} {hashlib.sha256(text.encode()).hexdigest()}"


def one_object(bound: int) -> tuple[int, int, Counter]:
    """Conics, entry point calls and ``two_involutions`` outcomes over the conics with coefficients in [-bound, bound].

    A call may end in a result or a GeometryError; any other exception escapes.
    """
    # imported here: tests/test_small_world.py imports this module
    from test_small_world import CONIC_ONLY, LINES, POINTS, WITH_LINE, WITH_POINT

    coefficients = _coefficients(bound)
    pairs = list(product(POINTS, LINES))
    calls = 0
    outcomes = Counter()
    for v in coefficients:
        c = Conic.from_coefficients(*v)
        runs = [(call, ()) for call, _ in CONIC_ONLY.values()]
        for table, objects in ((WITH_POINT, POINTS), (WITH_LINE, LINES)):
            runs += [(call, (x,)) for call, _ in table.values() for x in objects]
        for call, args in runs:
            try:
                call(c, *args)
            except GeometryError:
                pass
        calls += len(runs)
        for f, l in pairs:
            try:
                two_involutions(c, f, l)
                outcomes["result"] += 1
            except GeometryError as exc:
                outcomes[type(exc).__name__] += 1
    return len(coefficients), calls, outcomes


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="oracle", required=True)
    sub.add_parser("search-digest", help="count and sha256 of the rational-point search over the [-2, 2] conics")
    sub.add_parser("one-object", help="every one-object entry point and two_involutions on the [-2, 2] conics")
    if parser.parse_args(argv).oracle == "search-digest":
        print(search_digest(2))
        return
    conics, calls, outcomes = one_object(2)
    print(conics, "conics,", calls, "calls")
    print("two_involutions:", sum(outcomes.values()), "calls,", dict(sorted(outcomes.items())))
    if outcomes != TWO_INVOLUTIONS_OUTCOMES:
        sys.exit(f"two_involutions outcomes {dict(outcomes)}, pinned {TWO_INVOLUTIONS_OUTCOMES}")


if __name__ == "__main__":
    main()
