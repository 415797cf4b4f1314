"""Exhaustive oracles over small conics, runnable outside the test suite.

    PYTHONPATH=src python tests/oracles.py search-digest

``search-digest`` prints the number of conics with coefficients in
[-2, 2] up to scale, and the sha256 of one line per conic: its
coefficients and the bounded search's witness, or None.  CI pins the
line, ``7448 e70ef7cc...973e``.  The conics are enumerated as the
coefficient vectors ``v`` with ``primitive(v) == v``, so the digest also
guards the generic ``linalg.primitive``.  Standard library only.
"""

import argparse
import hashlib
from itertools import product

from traversale import Conic
from traversale.conic import find_rational_point
from traversale.linalg import primitive


def search_digest(bound: int) -> str:
    """``"<count> <sha256>"`` of find_rational_point's answer on each conic with coefficients in [-bound, bound]."""
    values = range(-bound, bound + 1)
    coefficients = [v for v in product(values, repeat=6) if any(v) and primitive(v) == v]
    text = "".join(f"{v} {find_rational_point(Conic.from_coefficients(*v))!r}\n" for v in coefficients)
    return f"{len(coefficients)} {hashlib.sha256(text.encode()).hexdigest()}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="oracle", required=True)
    sub.add_parser("search-digest", help="count and sha256 of the rational-point search over the [-2, 2] conics")
    parser.parse_args(argv)
    print(search_digest(2))


if __name__ == "__main__":
    main()
