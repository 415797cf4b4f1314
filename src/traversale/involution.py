"""Involutions on a projective line, Desargues style and homographic style.

An involution is carried by a trace-zero invertible 2x2 matrix acting on the
homogeneous chart pairs of a :class:`~traversale.projective.LineChart`; that
is the modern "involutive homography" view.  Couples are stored as integer
chart pairs, and the perspectivity of the ramee is read off the chart
representatives in closed form.  :func:`fixed_pairs` is the package's one
exact solver of a binary quadratic: the fixed points here, and through the
polarity involution a conic's meet with a line.  The classical
characterisations are implemented independently alongside: the three
rectangle-ratio identities on signed segment products together with the
interleaving clause (:func:`desargues_condition_check`), and the
equal-products arbre form with its souche (:func:`arbre_check`).  They run
on the node pairs: the segment x - y is pair_cross(x, y) / (x_den * y_den),
and every identity clears to one between products of pair_cross values.  The
equivalence of the three views is a theorem, and the test suite treats it
as one rather than assuming it.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import CenterOnLine, InfiniteNode, InvalidSouche, UnderdeterminedInvolution
from .linalg import Mat2, adjugate2, cross, det2, mat2_mul, mat2_vec, primitive_rows2
from .numbers import (
    INF, ExtRat, Pair, format_int, format_pair, format_repr, from_pair, lowest_terms, pair_cross, parse_extended, parse_literal, to_pair,
)
from .projective import LineChart, PPoint
from .value import Value


class PointPair(Value):
    """An unordered couple of nodes on a line, in chart coordinates.

    A repeated coordinate is allowed and represents a fixed node (a "noeud
    moyen double").  Coordinates may be INF.  Each node is stored as its
    homogeneous integer pair in lowest terms with den >= 0 (INF is (1, 0)),
    the smaller node first and INF last; ``first`` and ``second`` give them
    back as extended rationals.
    """

    __slots__ = ("pairs",)

    def __init__(self, first: ExtRat, second: ExtRat):
        self._order(to_pair(first), to_pair(second))

    @classmethod
    def from_pairs(cls, u: Pair, v: Pair) -> PointPair:
        """The couple of two nodes given as pairs already in :func:`lowest_terms`."""
        couple = cls.__new__(cls)
        couple._order(u, v)
        return couple

    @classmethod
    def of_points(cls, chart: LineChart, p: PPoint, q: PPoint) -> PointPair:
        """The couple of the chart coordinates of the points p and q of the chart's line."""
        return cls.from_pairs(lowest_terms(chart.pair_of(p)), lowest_terms(chart.pair_of(q)))

    def _order(self, u: Pair, v: Pair):  # with den >= 0 the sign of pair_cross(u, v) orders them, INF last
        self._set((v, u) if u[0] * v[1] - u[1] * v[0] > 0 else (u, v))

    def __eq__(self, other):
        return self.pairs == other.pairs if type(other) is PointPair else NotImplemented

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return "PointPair" + format_repr((self.first, self.second))

    def __str__(self):
        return "{" + format_pair(self.pairs[0]) + ", " + format_pair(self.pairs[1]) + "}"

    @property
    def first(self) -> ExtRat:
        return from_pair(self.pairs[0])

    @property
    def second(self) -> ExtRat:
        return from_pair(self.pairs[1])

    @property
    def is_degenerate(self) -> bool:
        return self.pairs[0] == self.pairs[1]

    @classmethod
    def parse(cls, text: str) -> "PointPair":
        return cls(*parse_literal(text, "pair", "{t1, t2}", "two coordinates", parse_extended))


class InvolutionKind(Enum):
    HYPERBOLIC = "hyperbolic"
    HYPERBOLIC_IRRATIONAL = "hyperbolic-irrational"
    ELLIPTIC = "elliptic"


class InvolutionOnLine(Value):
    """An involutive homography of a line, in a fixed chart.

    The matrix is primitive integer, has trace zero (the matrix form of
    being equal to its own inverse) and nonzero determinant; a nilpotent
    "involution" is rejected, matching the classical position that there is
    no parabolic involution.

    ``_fixed`` is a cache of the involution's two rational fixed pairs, in
    the order :func:`fixed_pairs` gives them, held by an involution built
    from them (:meth:`from_fixed_pairs`) and read by
    :func:`classify_and_fixed_points`; it is None from ``__init__``.
    Equality, hashing and text ignore it.
    """

    __slots__ = ("chart", "matrix", "_fixed")

    def __init__(self, chart: LineChart, matrix):
        m = primitive_rows2(matrix)
        if m[0][0] + m[1][1] != 0:
            raise UnderdeterminedInvolution(f"matrix {format_repr(m)} is not involutive (trace != 0)")
        if det2(m) == 0:
            raise UnderdeterminedInvolution(f"matrix {format_repr(m)} is degenerate, not an involution")
        self._set(chart, m, None)

    @classmethod
    def from_fixed_pairs(cls, chart: LineChart, u: Pair, v: Pair) -> InvolutionOnLine:
        """The involution of the chart with the distinct fixed pairs u, v, given in :func:`lowest_terms`.

        Its fixed pairs are the zeros of (d1*num - n1*den)(d2*num - n2*den)
        for u = (n1, d1), v = (n2, d2), so its matrix is [[t, -2*n1*n2],
        [2*d1*d2, -t]] with t = n1*d2 + n2*d1.  A prime p dividing n1*n2
        and d1*d2 divides the num of one coprime pair and the den of the
        other, say n1 and d2, and then t = n2*d1 mod p is not 0.  So the
        content is 2 when t is even and 1 when it is odd, and no gcd runs.
        The trace is 0 and the determinant -(n1*d2 - n2*d1)^2 is not, as
        ``__init__`` would check.
        """
        (n1, d1), (n2, d2) = u, v
        t = n1 * d2 + n2 * d1
        if t & 1:
            a, b, c = t, -2 * n1 * n2, 2 * d1 * d2
        else:
            a, b, c = t >> 1, -n1 * n2, d1 * d2
        if a < 0:  # the first nonzero entry positive: with both dens >= 0, t = 0 makes n1*n2 negative
            a, b, c = -a, -b, -c
        inv = cls.__new__(cls)
        inv._set(chart, ((a, b), (c, -a)), (v, u) if pair_cross(u, v) > 0 else (u, v))
        return inv

    def __eq__(self, other):
        return (self.chart, self.matrix) == (other.chart, other.matrix) if type(other) is InvolutionOnLine else NotImplemented

    def __hash__(self):
        return hash((self.chart, self.matrix))

    def __repr__(self):
        return f"InvolutionOnLine(matrix={format_repr(self.matrix)}, line={self.chart.line})"

    def __str__(self):
        (a, b), (c, d) = (map(format_int, row) for row in self.matrix)
        return f"[[{a}, {b}], [{c}, {d}]] on {self.chart.line}"

    def apply_pair(self, pair: Pair) -> Pair:
        return mat2_vec(self.matrix, pair)

    def apply(self, t: ExtRat) -> ExtRat:
        return from_pair(self.apply_pair(to_pair(t)))

    def apply_point(self, p: PPoint) -> PPoint:
        return self.chart.point_from_pair(self.apply_pair(self.chart.pair_of(p)))


def involution_from_two_pairs(p1: PointPair, p2: PointPair, chart: LineChart) -> InvolutionOnLine:
    """The unique involution exchanging both given couples.

    Each unordered couple imposes one linear condition on the trace-zero
    matrix [[a, b], [c, -a]]; the two conditions are crossed to get the
    solution.  Raises UnderdeterminedInvolution when the couples share too
    many nodes to determine a unique invertible involution.
    """
    a, b, c = cross(_pair_row(p1), _pair_row(p2))
    if a == 0 and b == 0 and c == 0:
        raise UnderdeterminedInvolution(f"{p1} and {p2} impose dependent conditions")
    return InvolutionOnLine(chart, ((a, b), (c, -a)))


def _pair_row(p: PointPair) -> tuple[int, int, int]:
    (x, y), (x2, y2) = p.pairs
    return (x * y2 + x2 * y, y * y2, -x * x2)


def contains_pair(inv: InvolutionOnLine, p: PointPair) -> bool:
    """Does the involution exchange the two nodes of the couple (exactly)?"""
    u, v = p.pairs
    return pair_cross(inv.apply_pair(u), v) == 0


def fixed_pairs(matrix: Mat2) -> tuple[Pair, ...] | None:
    """The pairs (num, den) fixed by the trace-zero matrix [[a, b], [c, -a]].

    They are the zeros of c*num^2 - 2a*num*den - b*den^2, with quarter
    discriminant a^2 + bc = -det: () when it is negative, None when it is
    a positive non-square (irrational zeros, not materialized), one double
    pair when it is zero.  With s^2 the discriminant the zeros are
    num/den = (a + r)/c = -b/(a - r) for r = +-s, each named by whichever
    form is not 0/0.  The pairs are in :func:`lowest_terms`, the smaller
    first and INF last.
    """
    (a, b), (c, _) = matrix
    if a == b == c == 0:
        raise ValueError("the zero matrix fixes every pair")
    disc = a * a + b * c
    if disc < 0:
        return ()
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    u, v = (lowest_terms((a + r, c) if a + r or c else (-b, a - r)) for r in (s, -s))
    if u == v:
        return (u,)
    return (v, u) if pair_cross(u, v) > 0 else (u, v)


def classify_and_fixed_points(
    inv: InvolutionOnLine,
) -> tuple[InvolutionKind, tuple[ExtRat, ExtRat] | None]:
    """Kind of the involution, with both fixed points (its :func:`fixed_pairs`) when they are rational.

    Two real fixed points for a negative determinant, none for a positive
    one; irrational ones are reported as HYPERBOLIC_IRRATIONAL.  An
    involution built from its fixed pairs (a secant's polarity involution,
    see :func:`~traversale.conic.polarity_involution_on_line`) hands them
    back from its ``_fixed`` cache, with no square root of the discriminant.
    """
    pairs = inv._fixed
    if pairs is None:
        pairs = fixed_pairs(inv.matrix)
    if pairs is None:
        return (InvolutionKind.HYPERBOLIC_IRRATIONAL, None)
    if not pairs:
        return (InvolutionKind.ELLIPTIC, None)
    return (InvolutionKind.HYPERBOLIC, tuple(map(from_pair, pairs)))


# ---------------------------------------------------------------------------
# Desargues' own characterisations
# ---------------------------------------------------------------------------

def _finite_nodes(*nodes: Pair) -> tuple[Pair, ...]:
    """The node pairs, which segment products need finite (den != 0)."""
    for _, den in nodes:
        if den == 0:
            raise InfiniteNode("segment products need finite coordinates; use the homographic route")
    return nodes


def _rectangle(x: Pair, nodes: tuple[Pair, Pair]) -> int:
    """(x - u)(x - v) for the nodes u, v, times the positive x_den^2 * u_den * v_den."""
    u, v = nodes
    return pair_cross(x, u) * pair_cross(x, v)


def interleaved(p: PointPair, q: PointPair) -> bool:
    """Are two finite couples meles (interleaved on the line)?

    Exactly one endpoint x of one couple falls strictly between the ends a, b
    of the other, (x - a)(x - b) < 0.  For four distinct finite nodes this is
    symmetric and agrees with separation on the projective circle.
    """
    ab, cd = _finite_nodes(*p.pairs), _finite_nodes(*q.pairs)
    in_p = sum(_rectangle(x, ab) < 0 for x in cd)
    in_q = sum(_rectangle(x, cd) < 0 for x in ab)
    return in_p == 1 or in_q == 1


def desargues_condition_check(
    pairs: tuple[PointPair, PointPair, PointPair] | list[PointPair],
) -> bool:
    """The rectangle-ratio test for three couples to be in involution.

    With couples B,H; C,G; D,F the three ratio identities

        GD.GF / CD.CF = GB.GH / CB.CH
        FC.FG / DC.DG = FB.FH / DB.DH
        HC.HG / BC.BG = HD.HF / BD.BF

    are evaluated on signed segment products (cross-multiplied, so vanishing
    denominators need no special case), and all the couples must be pairwise
    meles or pairwise demeles.  Both sides of an identity share one positive
    denominator, so each is compared as a product of four pair_cross values.
    Two coincidence rules keep the test in exact agreement with homographic
    membership, where the products alone go blind: two different couples
    sharing a node can never be exchanged by one involution, and neither
    can three distinct fixed nodes.  Raises InfiniteNode on any infinite
    coordinate; the homographic membership test covers those.
    """
    bh, cg, df = (_finite_nodes(*p.pairs) for p in pairs)
    (b, h), (c, g), (d, f) = bh, cg, df

    for i in range(3):
        for j in range(i + 1, 3):
            if pairs[i] != pairs[j] and set(pairs[i].pairs) & set(pairs[j].pairs):
                return False
    if all(p.is_degenerate for p in pairs) and len(set(pairs)) == 3:
        return False  # an involution has at most two fixed nodes

    if not (
        _rectangle(g, df) * _rectangle(c, bh) == _rectangle(g, bh) * _rectangle(c, df)
        and _rectangle(f, cg) * _rectangle(d, bh) == _rectangle(f, bh) * _rectangle(d, cg)
        and _rectangle(h, cg) * _rectangle(b, df) == _rectangle(h, df) * _rectangle(b, cg)
    ):
        return False
    statuses = {
        interleaved(pairs[i], pairs[j])
        for i in range(3)
        for j in range(i + 1, 3)
        if pairs[i] != pairs[j]
    }
    return len(statuses) <= 1


def in_single_involution(pairs) -> bool:
    """Homographic membership: do the couples belong to one involution?

    Decides it for any three couples, including the degenerate layouts
    where no two of them pin the involution down (then a whole family
    exists and the answer is yes) or where some two are outright
    incompatible (no).  A couple u, v is exchanged when the image of u
    crosses v to zero, which holds for the matrix at any scale, so the
    couples are tested on the unreduced trace-zero matrix of
    :func:`involution_from_two_pairs` and no involution is built.
    """
    rows = [_pair_row(p) for p in pairs]
    crosses = [cross(rows[i], rows[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    for a, b, c in crosses:
        if a * a + b * c != 0:  # two couples pin down one invertible involution
            m = ((a, b), (c, -a))
            return all(pair_cross(mat2_vec(m, u), v) == 0 for u, v in (p.pairs for p in pairs))
    return not any(map(any, crosses))


def arbre_check(souche: ExtRat, pairs) -> bool:
    """The arbre test: equal signed products from the souche.

    A souche A and couples B,H; C,G; D,F form an arbre when the signed
    products (A-B)(A-H), (A-C)(A-G), (A-D)(A-F) agree exactly and A has the
    same engaged/disengaged situation against every couple.  Equal signed
    products force equal signs, so the engagement clause is checked
    explicitly only to mirror the classical statement.
    """
    return arbre_check_pair(to_pair(souche), pairs)


def arbre_check_pair(a: Pair, pairs) -> bool:
    """:func:`arbre_check` for a souche given as its pair (a, a_den), a_den > 0.

    (A-X)(A-Y) is P/(a_den^2 * D), with P the :func:`_rectangle` of A on the
    couple and D = x_den * y_den > 0: products P_i/D_i compare by cross-multiplying.
    """
    _finite_nodes(a)
    products = []
    for p in pairs:
        (x, y) = nodes = _finite_nodes(*p.pairs)
        prod = _rectangle(a, nodes)
        if prod == 0:
            raise InvalidSouche(f"souche {format_pair(a)} coincides with a node of {p}")
        products.append((prod, x[1] * y[1]))
    (p0, d0), (p1, d1), (p2, d2) = products[:3]
    equal = p0 * d1 == p1 * d0 and p1 * d2 == p2 * d1
    engaged = {prod < 0 for prod, _ in products}
    return equal and len(engaged) == 1


def souche_of(inv: InvolutionOnLine) -> ExtRat:
    """The souche of the involution: the node coupled with infinity."""
    return inv.apply(INF)


# ---------------------------------------------------------------------------
# Ramee: involutions are invariant under perspectivities
# ---------------------------------------------------------------------------

def perspectivity(source: LineChart, center: PPoint, target: LineChart) -> Mat2:
    """The chart matrix of projection from `center`, source line to target.

    The map v -> (center x v) x target.line is linear in v, so its columns
    are the target pairs of the images of the source representatives I and
    O, the points with source pairs (1, 0) and (0, 1).
    """
    if source.line.contains(center) or target.line.contains(center):
        raise CenterOnLine(f"center {center} lies on one of the lines")
    o, i = source.representatives
    (a, c), (b, d) = (
        target.vector_pair(cross(cross(center.coords, v), target.line.coeffs)) for v in (i, o)
    )
    return ((a, b), (c, d))


def ramee_project(inv: InvolutionOnLine, center: PPoint, target: LineChart) -> InvolutionOnLine:
    """Transport an involution to another line by central projection.

    The perspectivity from `center` carries every couple of the involution
    to a couple of the result, and the kind (hyperbolic/elliptic) is
    preserved; this is the ramee theorem.
    """
    t = perspectivity(inv.chart, center, target)
    return InvolutionOnLine(target, mat2_mul(mat2_mul(t, inv.matrix), adjugate2(t)))
