"""Exact scalar arithmetic: rationals, the extended rational line, and the text boundary.

The kernel computes on integers; ``fractions.Fraction`` appears only at the
boundary, for values parsed from text, printed, or handed back to callers
as rational coordinates.  A projective line needs one extra value, the point
at infinity, represented by the singleton :data:`INF`.  Inside the kernel a
point of a line is a homogeneous integer pair ``(num, den)`` with
``t = num/den`` and ``INF = (1, 0)``, so computations stay total;
:func:`to_pair` and :func:`from_pair` convert at the boundary.  For finite
pairs with den > 0 the segment x - y is pair_cross(x, y) / (x_den * y_den),
so its sign is the sign of :func:`pair_cross`.  The bounded searches sweep
the pairs of :func:`small_pairs` in height order, so they build no Fraction
either.

This module is the package's one text boundary.  Every integer, pair,
Fraction and matrix that becomes text goes through a formatter here
(:func:`format_int`, :func:`format_pair`, :func:`format_extended`,
:func:`format_repr`), and every literal is read here (:func:`parse_rational`,
:func:`parse_extended`, and :func:`parse_literal` for the bracketed point,
line and couple literals).  An integer longer than Python converts to or
from text raises :class:`~traversale.errors.TooManyDigits`, never Python's
own ValueError; the interpreter's limit itself stays in place.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import TooManyDigits
from .value import Value


class _Infinity(Value):
    """The single point at infinity of a projective line."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinity()

# A coordinate on a projective line: a rational number or INF.
ExtRat = Fraction | _Infinity

# Homogeneous integer pair (num, den) for a point of the projective line.
Pair = tuple[int, int]

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into an exact Fraction.

    Raises ValueError on malformed input or a zero denominator, so scene
    parsing can report the offending token; an integer with more digits
    than Python reads raises TooManyDigits, a ValueError too.
    """
    token = text.strip()
    if not _RAT_RE.match(token):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = token.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # the pattern matched, so only the digit limit is left
        limit = sys.get_int_max_str_digits()
        raise TooManyDigits(f"a literal integer of more than {limit} digits is too long to read") from None
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_extended(text: str) -> ExtRat:
    """Parse a rational literal or ``"inf"``."""
    if text.strip() == "inf":
        return INF
    return parse_rational(text)


def parse_literal(text: str, kind: str, shape: str, entries: str, read) -> list:
    """The entries of a bracketed literal such as ``(x, y, z)`` or ``{t1, t2}``, each read by ``read``.

    ``shape`` gives the brackets and, by its commas, the number of entries;
    ``kind`` and ``entries`` name them in the ValueError for a malformed literal.
    """
    inner = text.strip()
    if not (inner.startswith(shape[0]) and inner.endswith(shape[-1])):
        raise ValueError(f"{kind} literal must look like {shape}: {text!r}")
    parts = inner[1:-1].split(",")
    if len(parts) != shape.count(",") + 1:
        raise ValueError(f"{kind} literal needs {entries}: {text!r}")
    return [read(p) for p in parts]


def format_pair(pair: Pair) -> str:
    """Render the pair (num, den) as ``p/q`` in lowest terms, plain ``p`` for integers, ``inf`` for den = 0."""
    num, den = lowest_terms(pair)
    if den == 0:
        return "inf"
    return format_int(num) if den == 1 else f"{format_int(num)}/{format_int(den)}"


def format_int(n: int) -> str:
    """The decimal text of n; TooManyDigits when it has more digits than Python prints."""
    return format_repr(n)


def format_repr(value) -> str:
    """The text ``repr`` gives for an int, a Fraction, INF, None or a nested tuple of these.

    A matrix prints as its tuple of rows, ``((a, b), (c, d))``.  An integer
    with more digits than Python prints raises TooManyDigits in place of
    Python's own ValueError.
    """
    try:
        return repr(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise TooManyDigits(f"an integer of more than {limit} digits is too long to print") from None


def format_extended(value: ExtRat) -> str:
    return format_pair(to_pair(value))


def to_pair(value: ExtRat) -> Pair:
    """Homogeneous pair of an extended rational; INF becomes (1, 0)."""
    if value is INF:
        return (1, 0)
    return (value.numerator, value.denominator)


def from_pair(pair: Pair) -> ExtRat:
    num, den = pair
    if den == 0:
        if num == 0:
            raise ValueError("zero homogeneous pair")
        return INF
    return Fraction(num, den)


def lowest_terms(pair: Pair) -> Pair:
    """A nonzero pair in lowest terms with den >= 0, so INF is (1, 0), the form :func:`to_pair` gives."""
    num, den = pair
    g = math.gcd(num, den)
    if den < 0 or (den == 0 and num < 0):
        g = -g
    return (num // g, den // g)


def pair_cross(p: Pair, q: Pair) -> int:
    """Determinant |p q|; zero iff the pairs name the same point."""
    return p[0] * q[1] - p[1] * q[0]


def small_pairs():
    """Yield every finite pair (num, den) in lowest terms, den > 0, by height max(|num|, den).

    (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), ...  Deterministic;
    the bounded searches (rational points on a conic, secant directions and
    points on a line) run on it, so repeated runs pick identical witnesses.
    """
    yield (0, 1)
    height = 1
    while True:
        for num, den in [(height, q) for q in range(1, height + 1)] + [(p, height) for p in range(1, height)]:
            if math.gcd(num, den) == 1:
                yield (num, den)
                yield (-num, den)
        height += 1
