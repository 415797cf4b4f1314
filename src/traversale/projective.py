"""Exact projective plane over the rationals.

Points and lines are homogeneous triples, built from ints or Fractions and
stored in primitive integer form (coprime entries, first nonzero entry
positive) so that equality up to scale is plain tuple equality and hashing
is free.  All computation and printing is on those integers; `Fraction`
appears only at the boundary, in parsed literals, affine coordinates and
chart coordinates handed back to callers.  Points with third coordinate
zero are the points at infinity; the line ``[0, 0, 1]`` is the default line
at infinity.  Everything here is an immutable value and every operation is
a pure function.

A point or line may also carry a frame.  A :class:`FramedPoint` or
:class:`FramedLine` holds only ``frame``, the object that maps small frame
vectors onto the plane (a conic's chord parametrization, see
:class:`traversale.conic.RationalParametrization`), and its own primitive
``frame_vector``.  Its plane triple is mapped by the frame and reduced on
first read, then stored.  Two framed values of one frame (one frame
object, as each conic object has one) compare their frame vectors, and
every other comparison compares triples; hashing and text read the
triple, so a framed value equals and hashes like the plain value of its
triple.  :func:`join` and :func:`meet` of two values with one frame cross
the small frame vectors and hand the result back framed, which on a deep
conic costs far less than crossing the plane triples.  Plain points and
lines read ``frame`` as None.  A parametrization hands out framed values
only above a size gate on its entries, where the frame route pays.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    CoincidentLines,
    CoincidentPoints,
    ConjugateUndefined,
    DegenerateChart,
    DegenerateQuadruple,
    NotOnLine,
    SingularMatrix,
)
from .linalg import Vec3, adjugate, cross, det3, dot, mat_mul, mat_vec, primitive_rows, primitive_triple, transpose
from .numbers import ExtRat, Pair, format_pair, format_repr, from_pair, pair_cross, parse_literal, parse_rational, to_pair
from .value import Value


def canonical_entries(triple: Vec3) -> tuple[str, str, str]:
    """The entries of the triple scaled so the first nonzero entry is 1, as text."""
    lead = next(filter(None, triple))
    return tuple([format_pair((a, lead)) for a in triple])


def _format_triple(triple: Vec3, brackets: str) -> str:
    """The :func:`canonical_entries` of the triple as ``(x, y, z)`` or ``[u, v, w]``."""
    return f"{brackets[0]}{', '.join(canonical_entries(triple))}{brackets[1]}"


class PPoint(Value):
    """A point of the projective plane, equal up to nonzero scale."""

    __slots__ = ("coords",)
    frame = None

    def __init__(self, x, y, z):
        try:
            self._set(primitive_triple(x, y, z))
        except ValueError:
            raise CoincidentPoints("(0, 0, 0) is not a projective point") from None

    def __eq__(self, other):
        return self.coords == other.coords if isinstance(other, PPoint) else NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "PPoint" + format_repr(self.coords)

    def __str__(self):
        return _format_triple(self.coords, "()")

    @property
    def is_infinite(self) -> bool:
        return self.coords[2] == 0

    def affine(self) -> tuple[Fraction, Fraction]:
        """Affine (x, y) in the chart z = 1; raises for points at infinity."""
        x, y, z = self.coords
        if z == 0:
            raise ValueError(f"{self} is at infinity")
        return (Fraction(x, z), Fraction(y, z))

    @classmethod
    def parse(cls, text: str) -> "PPoint":
        """Inverse of str(): ``(x, y, z)`` with rational entries."""
        return cls(*parse_literal(text, "point", "(x, y, z)", "three coordinates", parse_rational))


class PLine(Value):
    """A line ux + vy + wz = 0, equal up to nonzero scale."""

    __slots__ = ("coeffs",)
    frame = None

    def __init__(self, u, v, w):
        try:
            self._set(primitive_triple(u, v, w))
        except ValueError:
            raise CoincidentLines("[0, 0, 0] is not a line") from None

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, PLine) else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "PLine" + format_repr(self.coeffs)

    def __str__(self):
        return _format_triple(self.coeffs, "[]")

    def contains(self, point: PPoint) -> bool:
        return dot(self.coeffs, point.coords) == 0

    @classmethod
    def parse(cls, text: str) -> "PLine":
        return cls(*parse_literal(text, "line", "[u, v, w]", "three coefficients", parse_rational))


class _Framed:
    """A value held as its frame and its primitive vector there; its plane triple is mapped on first read.

    It equals and hashes like the plain value of its triple.  A value of the
    same frame is compared by frame vector: both are primitive and the frame
    map is a bijection, so the vectors agree exactly when the values do.  A
    subclass names its plain base, its triple's slot and the frame's map.
    """

    __slots__ = ()

    def __init__(self, frame, frame_vector: Vec3):
        self._set(frame, frame_vector)

    def __getattr__(self, name):
        # called only while a slot is empty: the first read of the triple maps the frame vector
        if name != self._triple:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        triple = primitive_triple(*getattr(self.frame, self._map)(self.frame_vector))
        self._memo(name, triple)
        return triple

    def __eq__(self, other):
        if isinstance(other, self._plain) and other.frame is self.frame:
            return self.frame_vector == other.frame_vector
        return super().__eq__(other)

    def __hash__(self):
        return super().__hash__()


class FramedPoint(_Framed, PPoint):
    """A point held as its frame and its primitive vector there; ``coords`` is mapped on first read."""

    __slots__ = ("frame", "frame_vector")
    _plain, _triple, _map = PPoint, "coords", "_point_triple"


class FramedLine(_Framed, PLine):
    """A line held as its frame and its primitive vector there; ``coeffs`` is mapped on first read."""

    __slots__ = ("frame", "frame_vector")
    _plain, _triple, _map = PLine, "coeffs", "_line_triple"


LINE_AT_INFINITY = PLine(0, 0, 1)


def join(p: PPoint, q: PPoint) -> PLine:
    """The unique line through two distinct points.

    Two points with one frame are joined there: the frame line is the cross
    product of their frame vectors, returned framed.
    """
    if p == q:
        raise CoincidentPoints(f"join needs distinct points, got {p} twice")
    frame = p.frame
    if frame is not None and q.frame is frame:
        return frame.line_from_frame(cross(p.frame_vector, q.frame_vector))
    return PLine(*cross(p.coords, q.coords))


def meet(l: PLine, m: PLine) -> PPoint:
    """The unique common point of two distinct lines (possibly at infinity); in their frame when they share one."""
    if l == m:
        raise CoincidentLines(f"meet needs distinct lines, got {l} twice")
    frame = l.frame
    if frame is not None and m.frame is frame:
        return frame.point_from_frame(cross(l.frame_vector, m.frame_vector))
    return PPoint(*cross(l.coeffs, m.coeffs))


def _rank_at_most_two(triples) -> bool:
    """True when the triples span at most a plane (trivially true for < 3).

    The first nonzero cross product of the first triple with another spans
    the plane's normal; with none, all the triples are multiples of one.
    """
    if len(triples) < 3:
        return True
    base = next((c for c in (cross(triples[0], t) for t in triples[1:]) if any(c)), None)
    return base is None or all(dot(base, t) == 0 for t in triples)


def collinear(*points: PPoint) -> bool:
    """True when all the points lie on one line (trivially true for < 3)."""
    return _rank_at_most_two([p.coords for p in points])


def concurrent(*lines: PLine) -> bool:
    """True when all the lines pass through one point (trivially true for < 3)."""
    return _rank_at_most_two([l.coeffs for l in lines])


class LineChart(Value):
    """A projective coordinate on a line, held as its representatives.

    The points of the line are s*O + t*I for ``representatives`` = (O, I),
    two independent integer vectors on it, and the chart coordinate is t/s,
    kept as the integer pair (t, s); O, O + I and I are the ``origin``,
    ``unit`` and ``infinity_point``.  From three reference points O and I
    are lam*o and mu*i, with coprime weights for which O + I represents the
    unit, and a canonical chart holds the line's :func:`canonical_basis`,
    both up to the common sign that makes O's first nonzero entry positive;
    so equal charts have equal representatives.  A map of the line that is
    linear in the point's vector has its chart matrix read off O and I.
    """

    __slots__ = ("line", "representatives", "_rows")

    def __init__(self, line: PLine, origin: PPoint, unit: PPoint, infinity_point: PPoint):
        if len({origin, unit, infinity_point}) != 3:
            raise DegenerateChart("chart reference points must be pairwise distinct")
        for p in (origin, unit, infinity_point):
            if not line.contains(p):
                raise NotOnLine(f"chart reference {p} is not on {line}")
        o, i, u = origin.coords, infinity_point.coords, unit.coords
        # unit = lam*o + mu*i up to scale, so u x i and o x u are lam and mu times o x i, a nonzero multiple of the line
        lam, mu = dot(cross(u, i), line.coeffs), dot(cross(o, u), line.coeffs)
        g = math.gcd(lam, mu)
        self._store(line, tuple(lam // g * c for c in o), tuple(mu // g * c for c in i))

    def _store(self, line: PLine, o: Vec3, i: Vec3):
        """Set the fields from the representatives o, i, scaled by the sign that makes o's lead positive."""
        if next(filter(None, o)) < 0:
            o, i = tuple(-c for c in o), tuple(-c for c in i)
        self._set(line, (o, i), _independent_rows(o, i))

    def __eq__(self, other):
        return self.representatives == other.representatives if type(other) is LineChart else NotImplemented

    def __hash__(self):
        return hash(self.representatives)

    def __repr__(self):
        return f"LineChart(line={self.line}, origin={self.origin}, unit={self.unit}, inf={self.infinity_point})"

    @property
    def origin(self) -> PPoint:
        return PPoint(*self.representatives[0])

    @property
    def unit(self) -> PPoint:
        return PPoint(*map(sum, zip(*self.representatives)))

    @property
    def infinity_point(self) -> PPoint:
        return PPoint(*self.representatives[1])

    def pair_of(self, point: PPoint) -> Pair:
        """Homogeneous chart pair (num, den), coordinate = num/den."""
        if not self.line.contains(point):
            raise NotOnLine(f"{point} is not on {self.line}")
        return self.vector_pair(point.coords)

    def vector_pair(self, v: Vec3) -> Pair:
        """The pair (t, s) with d*v = s*O + t*I, for a vector v on the line.

        Cramer's numerators on two independent coordinate rows; d is a
        fixed nonzero determinant of the chart, so the pair is linear in v.
        Nothing is rescaled and v is not checked against the line.
        """
        r0, r1 = self._rows
        o, i = self.representatives
        return (o[r0] * v[r1] - o[r1] * v[r0], v[r0] * i[r1] - v[r1] * i[r0])

    def coordinate(self, point: PPoint) -> ExtRat:
        return from_pair(self.pair_of(point))

    def point_from_pair(self, pair: Pair) -> PPoint:
        return basis_point(self.representatives, pair)

    def point_at(self, t: ExtRat) -> PPoint:
        return self.point_from_pair(to_pair(t))


def _independent_rows(a, b) -> tuple[int, int]:
    """The first two coordinate indices where the 3x2 matrix [a b] of independent a, b has full rank."""
    return next((r0, r1) for r0, r1 in ((0, 1), (0, 2), (1, 2)) if a[r0] * b[r1] != a[r1] * b[r0])


def basis_point(basis: tuple[Vec3, Vec3], pair: Pair) -> PPoint:
    """The point den*o + num*i of the pair (num, den) on the basis (o, i) of a line."""
    (o, i), (num, den) = basis, pair
    if num == 0 and den == 0:
        raise ValueError("zero pair")
    return PPoint(*(den * a + num * b for a, b in zip(o, i)))


def canonical_basis(line: PLine) -> tuple[Vec3, Vec3]:
    """The integer vectors o, i of the canonical chart's origin and infinity point.

    o + i is the unit point, so the chart's representatives are o and i up
    to one common factor (it is +-1: the line's coefficients are coprime).
    Non-vertical affine lines are charted by x, vertical ones by y, and the
    line at infinity by the slope y/x; i is always the line's own point at
    infinity.
    """
    u, v, w = line.coeffs
    if v != 0:
        return (0, -w, v), (v, -u, 0)
    if u != 0:
        return (-w, 0, u), (0, u, 0)
    return (1, 0, 0), (0, 1, 0)


def canonical_pair(line: PLine, x: Vec3) -> Pair:
    """The canonical chart's pair of the vector x on the line, up to scale, read off two of its entries.

    On the :func:`canonical_basis` o, i the point den*o + num*i has x0 : x2
    = num : den on a non-vertical line, x1 : x2 on a vertical one and
    x1 : x0 on the line at infinity.  x is not checked against the line.
    """
    u, v, _ = line.coeffs
    if v != 0:
        return (x[0], x[2])
    if u != 0:
        return (x[1], x[2])
    return (x[1], x[0])


def canonical_chart(line: PLine) -> LineChart:
    """The chart on :func:`canonical_basis`, giving the everyday coordinate on the line."""
    chart = LineChart.__new__(LineChart)
    chart._store(line, *canonical_basis(line))
    return chart


def cross_ratio(a: PPoint, b: PPoint, c: PPoint, d: PPoint, chart: LineChart) -> ExtRat:
    """(a, b; c, d) = ((a-c)(b-d)) / ((a-d)(b-c)) in chart coordinates.

    Extended projectively through the chart's homogeneous pairs, so any of
    the points may sit at the chart's infinity.  The value is independent of
    the chart chosen on the same line.  Requires a, b, c pairwise distinct;
    d is free (d = c gives 1, d = a gives INF, d = b gives 0).
    """
    return from_pair(cross_ratio_pair(a, b, c, d, chart))


def cross_ratio_pair(a: PPoint, b: PPoint, c: PPoint, d: PPoint, chart: LineChart) -> Pair:
    """:func:`cross_ratio` as a homogeneous pair (num, den), not reduced and never (0, 0)."""
    pa, pb, pc, pd = (chart.pair_of(p) for p in (a, b, c, d))
    if pair_cross(pa, pb) == 0 or pair_cross(pa, pc) == 0 or pair_cross(pb, pc) == 0:
        raise DegenerateQuadruple("cross-ratio needs a, b, c pairwise distinct")
    return (pair_cross(pa, pc) * pair_cross(pb, pd), pair_cross(pa, pd) * pair_cross(pb, pc))


def harmonic_conjugate(c: PPoint, a: PPoint, b: PPoint, chart: LineChart) -> PPoint:
    """The point d with (a, b; c, d) = -1; involutive in c <-> d."""
    pa, pb, pc = (chart.pair_of(p) for p in (a, b, c))
    if pair_cross(pa, pb) == 0:
        raise ConjugateUndefined("base points of the harmonic pair coincide")
    ac, bc = pair_cross(pa, pc), pair_cross(pb, pc)
    if ac == 0 or bc == 0:
        raise ConjugateUndefined(f"{c} is a base point of the pair")
    d = (ac * pb[0] + bc * pa[0], ac * pb[1] + bc * pa[1])
    return chart.point_from_pair(d)


class Homography(Value):
    """An invertible projective map, stored as a primitive integer matrix.

    Acts on points by the matrix and on lines by the inverse transpose
    (realized with the adjugate so everything stays integral).
    """

    __slots__ = ("matrix",)

    def __init__(self, rows):
        m = primitive_rows(rows)
        if det3(m) == 0:
            raise SingularMatrix(f"matrix {format_repr(m)} is singular")
        self._set(m)

    def __eq__(self, other):
        return self.matrix == other.matrix if type(other) is Homography else NotImplemented

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "Homography" + format_repr(self.matrix)

    def apply(self, p: PPoint) -> PPoint:
        return PPoint(*mat_vec(self.matrix, p.coords))

    def apply_line(self, l: PLine) -> PLine:
        return PLine(*mat_vec(transpose(adjugate(self.matrix)), l.coeffs))

    def inverse(self) -> "Homography":
        return Homography(adjugate(self.matrix))

    def compose(self, other: "Homography") -> "Homography":
        """self after other: (self.compose(other))(p) = self(other(p))."""
        return Homography(mat_mul(self.matrix, other.matrix))

    @classmethod
    def identity(cls) -> "Homography":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def scaling(cls, sx, sy) -> "Homography":
        return cls(((sx, 0, 0), (0, sy, 0), (0, 0, 1)))
