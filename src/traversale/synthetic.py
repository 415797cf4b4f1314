"""Desargues' ruler constructions and the theorems tying them to polarity.

The central objects are inscribed quadrangles: four points on a conic whose
three couples of bornales (the six joining lines, paired) meet in the
diagonal triangle.  From a quadrangle with one bornale couple crossing at a
point f, the line through the other two diagonal points is f's traversale,
and the package's central checks assert that this constructed line equals
the algebraic polar, exactly, for every choice of quadrangle.

Everything works over the rationals: secants are produced by the chord
trick through a known rational point of the conic, so the constructions
never run into irrational intersections.

The traversale and the pole by construction run in the frame (A, B, C) of
the conic's chord parametrization (see RationalParametrization).  There the
conic is the model conic, whose bornes, chords and parameter involutions
are the formulas of its section in :mod:`traversale.conic`, and joins and
meets are cross products of small frame vectors.  A construction maps its
input into the frame once, decides its precondition there (f off the
conic, l not tangent) and maps only its result into the plane.
"""

from __future__ import annotations

from itertools import islice

from .conic import (
    Conic,
    RationalParametrization,
    affine_features,
    chord_parametrization,
    line_intersect,
    model_chord,
    model_involution,
    model_point,
    model_pole,
    on_model_conic,
    polar,
    polarity_involution_on_line,
    pole,
    second_intersection,
    transform,
)
from .errors import (
    BasePointOnLine,
    DegenerateQuadrangle,
    InteriorPoint,
    LineMissesConic,
    NoRationalSecants,
    NotADiameter,
    NotOnConic,
    NotOnLine,
    OnConic,
    TangentLine,
    VertexOnTransversal,
)
from .involution import InvolutionOnLine, PointPair, involution_from_two_pairs
from .linalg import Vec3, cross, det3, dot
from .numbers import ExtRat, Pair, from_pair, lowest_terms, pair_cross, small_pairs
from .projective import (
    LINE_AT_INFINITY,
    Homography,
    PLine,
    PPoint,
    canonical_chart,
    canonical_entries,
    cross_ratio_pair,
    harmonic_conjugate,
    join,
    meet,
)
from .value import Value


def _check_general_position(pts: tuple[PPoint, ...], noun: str) -> None:
    """Four points pairwise distinct with no three collinear.

    Three distinct points are collinear exactly when the determinant of
    their coordinates vanishes.
    """
    if len(set(pts)) != 4:
        raise DegenerateQuadrangle(f"{noun} must be pairwise distinct")
    for skip in range(4):
        trio = [p for i, p in enumerate(pts) if i != skip]
        if det3([p.coords for p in trio]) == 0:
            raise DegenerateQuadrangle(f"three {noun} are collinear: {trio}")


def _opposite_sides(a: PPoint, b: PPoint, c: PPoint, d: PPoint) -> tuple[tuple[PLine, PLine], ...]:
    """The opposite-side couples ({ab, cd}, {bc, ad}, {ac, bd}) of the quadrangle abcd."""
    return (
        (join(a, b), join(c, d)),
        (join(b, c), join(a, d)),
        (join(a, c), join(b, d)),
    )


class InscribedQuadrangle(Value):
    """Four bornes on a conic with their bornale couples and diagonal points.

    Labels follow the fixed convention: F is the meet of the couple
    {BC, DE}, N of {CD, BE} and G of {BD, CE}.  The bornes must be distinct
    with no three collinear; the diagonal points then form a genuine
    triangle, any vertex of which may be at infinity.
    """

    __slots__ = ("conic", "b", "c", "d", "e")

    def __init__(self, conic: Conic, b: PPoint, c: PPoint, d: PPoint, e: PPoint):
        pts = (b, c, d, e)
        for p in pts:
            if not conic.contains(p):
                raise NotOnConic(f"borne {p} is not on the conic")
        _check_general_position(pts, "bornes")
        self._set(conic, b, c, d, e)

    def __repr__(self):
        return f"InscribedQuadrangle({self.b}, {self.c}, {self.d}, {self.e})"

    @property
    def bornes(self) -> tuple[PPoint, PPoint, PPoint, PPoint]:
        return (self.b, self.c, self.d, self.e)

    @property
    def bornale_couples(self) -> tuple[tuple[PLine, PLine], ...]:
        """The three couples ({BC, DE}, {CD, BE}, {BD, CE})."""
        return _opposite_sides(*self.bornes)

    def diagonal_points(self) -> tuple[PPoint, PPoint, PPoint]:
        couples = self.bornale_couples
        return tuple(meet(l1, l2) for l1, l2 in couples)


def worked_quadrangle() -> InscribedQuadrangle:
    """The worked configuration: B, C, D, E on the unit circle.

    B = (1, 0), C = (-1, 0), D = (3/5, 4/5), E = (5/13, 12/13); the bornale
    couple {BC, DE} crosses at F = (2, 0), whose traversale is x = 1/2.
    """
    return InscribedQuadrangle(
        Conic.unit_circle(),
        PPoint(1, 0, 1),
        PPoint(-1, 0, 1),
        PPoint(3, 4, 5),
        PPoint(5, 12, 13),
    )


class PencilBase(Value):
    """Four base points of a pencil of conics, with an optional member.

    The three degenerate members of the pencil are the bornale couples of
    the base quadrangle.
    """

    __slots__ = ("points", "member")

    def __init__(self, points: tuple[PPoint, PPoint, PPoint, PPoint], member: Conic | None = None):
        _check_general_position(points, "base points")
        if member is not None:
            for p in points:
                if not member.contains(p):
                    raise NotOnConic(f"member conic misses base point {p}")
        self._set(points, member)

    def degenerate_members(self) -> tuple[tuple[PLine, PLine], ...]:
        return _opposite_sides(*self.points)


# 0, INF, then the next 62 pairs of small_pairs(): the fixed sweep of
# secant directions and of points on a line.
_SWEEP_PAIRS = ((0, 1), (1, 0), *islice(small_pairs(), 1, 63))


def _sweep(
    par: RationalParametrization, x: Vec3, offset: int, known: tuple[Pair, Pair] | None = None
) -> tuple[Pair, Pair, Pair, Pair]:
    """The chart pairs of the bornes B, C, D, E of the quadrangle through the frame point x.

    The partner of a swept pair s is its image t under the involution of
    x, in the :func:`lowest_terms` form of the swept pairs.  The line
    through x and the borne of s is tangent there exactly when t = s.  The
    pairs name the bornes one to one, so `seen` tells the same chords apart
    as the points would.  `seen` is closed under the involution, so a
    partner is never seen before its pair.  A secant through x that the
    caller already knows, ``known`` = (s, t) with s != t in that form, is
    the first secant and is not swept again.

    The four pairs name an inscribed quadrangle with no check run: their
    bornes are on the conic, distinct because `seen` keeps the pairs
    distinct, and never three collinear, because RationalParametrization
    accepts only a nondegenerate conic.
    """
    (m00, m01), (m10, m11) = model_involution(x)
    seen: set[Pair] = set()
    secants: list[tuple[Pair, Pair]] = []
    if known is not None:
        seen.update(known)
        secants.append(known)
    for s in _SWEEP_PAIRS:
        if s in seen:
            continue  # a chord already swept, revisited from its far end
        a, b = s
        t = lowest_terms((m00 * a + m01 * b, m10 * a + m11 * b))
        if t == s:
            continue  # the line through x is tangent at the borne of s
        seen.update((s, t))
        secants.append((s, t))
        if len(secants) == offset + 2:
            return (*secants[offset], *secants[offset + 1])
    raise NoRationalSecants(
        f"found {len(secants)} usable rational secants through {par.point_from_frame(x)} within the budget"
    )


def _frame_traversale(
    par: RationalParametrization, x: Vec3, offset: int = 0, known: tuple[Pair, Pair] | None = None
) -> Vec3:
    """The frame line joining N = CD /\\ BE and G = BD /\\ CE of the quadrangle :func:`_sweep` names."""
    sb, sc, sd, se = _sweep(par, x, offset, known)
    n = cross(model_chord(sc, sd), model_chord(sb, se))
    g = cross(model_chord(sb, sd), model_chord(sc, se))
    return cross(g, n)


def _frame_of_point_off_conic(c: Conic, f: PPoint) -> tuple[RationalParametrization, Vec3]:
    """The conic's parametrization and the frame point x of f, raising OnConic when x is on the model conic.

    A conic the parametrization refuses names that error first, even for an f on it.
    """
    par = chord_parametrization(c)
    x = par.frame_of_point(f)
    if on_model_conic(x):
        raise OnConic(f"{f} lies on the conic; no traversale quadrangle exists")
    return par, x


def inscribed_quadrangle_through(c: Conic, f: PPoint, *, offset: int = 0) -> InscribedQuadrangle:
    """An inscribed quadrangle with one bornale couple crossing at f.

    Two distinct rational secants through f are produced by sweeping the
    parameters of the conic's rational parametrization: the line through f
    and the point of a parameter s meets the conic again at the point of
    its image under f's parameter involution, rational by construction.
    `offset` skips that many usable secants first, which is how independent
    quadrangles for the same point are generated.  The four bornes are
    mapped into the plane and returned as an InscribedQuadrangle without
    the constructor's checks: :func:`_sweep` has already proven them on
    the conic and distinct.
    """
    par, x = _frame_of_point_off_conic(c, f)
    quad = InscribedQuadrangle.__new__(InscribedQuadrangle)
    quad._set(c, *map(par.point_from_pair, _sweep(par, x, offset)))
    return quad


def traversale_from_quadrangle(c: Conic, f: PPoint, *, offset: int = 0) -> PLine:
    """The traversale of f, built with ruler alone from an inscribed quadrangle.

    A quadrangle B, C, D, E on the conic is chosen with BC and DE crossing
    at f; the returned line joins the two other diagonal points
    N = CD /\\ BE and G = BD /\\ CE.  The third diagonal point, BC /\\ DE,
    is f itself, so it is not built.  The whole construction runs in the
    frame of the conic's parametrization, on the bornes' parameters, and
    only the finished line is mapped into the plane; no borne and no
    quadrangle is built, see :func:`_sweep`.  The independence of this line
    from the quadrangle, and its equality with the algebraic polar of f,
    are the theorems the test suites drive.
    """
    par, x = _frame_of_point_off_conic(c, f)
    return par.line_from_frame(_frame_traversale(par, x, offset))


def quadrangle_transcript(quad: InscribedQuadrangle) -> str:
    """The traversale construction on a quadrangle as a structured, auditable scene text.

    F is the meet of the bornale couple {BC, DE}.  Every join and meet of
    the construction appears as one line with exact coordinates; the text
    is executable by the scene runner (which re-checks the construction
    against the algebraic polar) and consumable by the renderer through
    its ``render scene`` command.
    """
    f = meet(join(quad.b, quad.c), join(quad.d, quad.e))

    def coords(p: PPoint) -> str:
        return " ".join(canonical_entries(p.coords))

    lines = [
        "# traversale construction transcript",
        f"conic k {quad.conic}",
        f"point F {coords(f)}",
    ]
    for name, p in zip("BCDE", quad.bornes):
        lines.append(f"point {name} {coords(p)}")
    lines += [
        "quadrangle quad conic=k B C D E",
        "construct join bc B C",
        "construct join de D E",
        "construct join cd C D",
        "construct join be B E",
        "construct join bd B D",
        "construct join ce C E",
        "construct meet N cd be",
        "construct meet G bd ce",
        "construct join tau G N",
        "construct polar tau2 k F",
        "check incident F bc",
        "check incident F de",
        "check equal tau tau2",
    ]
    return "\n".join(lines) + "\n"


def pole_by_construction(c: Conic, l: PLine) -> PPoint:
    """The pole of l, built as the meet of the traversales of two points of l.

    The points of l are cut by the chords from one borne, the hub P(h): h
    is the first swept parameter whose borne is not on l, and the chord to
    P(s), for each other swept parameter s, meets l in
    g = l /\\ chord(P(h), P(s)).  Such a g is on the conic only when it is
    P(s) itself, so at most two of them are skipped; distinct chords
    through the hub cut l in distinct points, whose traversales are
    distinct lines.  The quadrangle of each g takes (h, s) as its first
    secant, so every quadrangle has one secant with small parameters.  The
    sweep never runs out: among its 64 parameters at most two bornes lie on
    l and at most two of the g are on the conic.  Like the traversale, the
    construction runs in the frame of the conic's parametrization and maps
    only the pole into the plane.  Tangency is decided there first: l's
    frame line lam is tangent when its :func:`model_pole` is on the model
    conic.
    """
    par = chord_parametrization(c)
    lam = par.frame_of_line(l)
    if on_model_conic(model_pole(lam)):
        raise TangentLine(f"{l} is tangent; its pole lies on it and the construction degenerates")
    (g1, known1), (g2, known2) = islice(_frame_cuts(lam), 2)
    tau1, tau2 = _frame_traversale(par, g1, known=known1), _frame_traversale(par, g2, known=known2)
    return par.point_from_frame(cross(tau1, tau2))


def _frame_cuts(lam: Vec3):
    """The cuts g of the frame line lam off the conic, in sweep order, each with its secant (hub, s) through g."""
    hub = next(h for h in _SWEEP_PAIRS if dot(lam, model_point(h)))
    cuts = ((cross(lam, model_chord(hub, s)), (hub, s)) for s in _SWEEP_PAIRS if s != hub)
    return ((g, known) for g, known in cuts if not on_model_conic(g))


def incidence_lemma_check(c: Conic, f: PPoint, n: PPoint, d: PPoint, c_pt: PPoint) -> bool:
    """The fundamental incidence lemma behind quadrangle independence.

    With d and c_pt on the conic, e is the second intersection of the chord
    through f and d; the claim is that the lines n-e and f-c_pt cross on the
    conic whenever n sits on f's traversale and n, d, c_pt are aligned.  The
    check evaluates the meeting point's form value exactly, so perturbed
    configurations simply return False.
    """
    for p in (d, c_pt):
        if not c.contains(p):
            raise NotOnConic(f"{p} must be on the conic")
    e = second_intersection(c, d, f)
    p = meet(join(n, e), join(f, c_pt))
    return c.contains(p)


def pencil_involution_on_line(base: PencilBase, l: PLine) -> InvolutionOnLine:
    """Desargues' involution theorem: the pencil's traces on l are in involution.

    The three degenerate members of the pencil cut l in three point couples;
    the involution is spanned by the first two, and the theorem (tested, not
    assumed) is that the third couple and the trace of every conic through
    the base points belong to it too.
    """
    for p in base.points:
        if l.contains(p):
            raise BasePointOnLine(f"base point {p} lies on {l}")
    chart = canonical_chart(l)
    traces = [PointPair.of_points(chart, meet(m1, l), meet(m2, l)) for m1, m2 in base.degenerate_members()]
    return involution_from_two_pairs(traces[0], traces[1], chart)


class TwoInvolutions(Value):
    """The two involutions on an ordonnee through f.

    `pencil` is the involution of Desargues' pencil theorem, with f and the
    traversale point H as fixed nodes, exchanging the conic trace L, M.
    `polarity` is the involution induced by the conic itself, fixing L and M
    and exchanging f with H.  They are distinct involutions built from the
    same four points.
    """

    __slots__ = ("pencil", "polarity", "conic_trace", "traversale_point")

    def __init__(
        self, pencil: InvolutionOnLine, polarity: InvolutionOnLine, conic_trace: tuple[PPoint, PPoint], traversale_point: PPoint
    ):
        self._set(pencil, polarity, conic_trace, traversale_point)


def two_involutions(c: Conic, f: PPoint, l: PLine) -> TwoInvolutions:
    """Both involutions living on a secant ordonnee l through f."""
    if not l.contains(f):
        raise NotOnLine(f"{f} is not on {l}")
    if c.contains(f):
        raise OnConic(f"{f} lies on the conic")
    polarity = polarity_involution_on_line(c, l)  # DegenerateConic, TangentLine
    pts = line_intersect(c, l)
    if len(pts) != 2:
        raise LineMissesConic(f"{l} does not cut the conic in two points")
    h = meet(l, polar(c, f))
    pencil = involution_from_two_pairs(*(PointPair.of_points(polarity.chart, p, p) for p in (f, h)), polarity.chart)
    return TwoInvolutions(pencil, polarity, pts, h)


def tangent_via_harmonic(c: Conic, a: PPoint, f: PPoint) -> PLine:
    """The tangent at a conic point, drawn through one harmonic conjugation.

    The traversale of the exterior point f cuts the conic in R and S; the
    ordonnee through a and f crosses the traversale at H, whose harmonic
    conjugate I with respect to {R, S} is joined back to a.  The result is
    tangent at a (it equals the polar of a, which the tests check).  When a
    is R or S, H is that contact point and :func:`harmonic_conjugate`
    raises ConjugateUndefined.
    """
    if not c.contains(a):
        raise NotOnConic(f"{a} must be on the conic")
    if c.contains(f):
        raise OnConic(f"{f} must not be on the conic")
    tau = polar(c, f)
    contacts = line_intersect(c, tau)
    if len(contacts) == 0:
        raise InteriorPoint(f"{f} is interior; its traversale misses the conic")
    r, s = contacts
    h = meet(join(a, f), tau)
    i = harmonic_conjugate(h, r, s, canonical_chart(tau))
    return join(a, i)


def conjugate_diameters(c: Conic, infinity: PLine, d: PLine) -> PLine:
    """The diameter conjugate to d, relative to a chosen line at infinity.

    Joins the center (pole of the infinity line) to the pole of d, which
    lies on the infinity line.  Conjugacy is symmetric, and a hyperbola's
    asymptotes are exactly the self-conjugate diameters.
    """
    center = pole(c, infinity)
    if infinity.contains(center):
        raise TangentLine("the infinity line is tangent: a parabola has no center at finite distance")
    if not d.contains(center):
        raise NotADiameter(f"{d} does not pass through the center {center}")
    return join(center, pole(c, d))


def _section_ratio(p: PPoint, x: PPoint, q: PPoint) -> Pair:
    """Signed ratio px/xq for collinear p, x, q with p, q finite, as the pair (num, den).

    On the canonical chart of pq, an affine coordinate on the line, the
    ratio is (x - p)/(q - x): the pair pair_cross(x, p)*q_den /
    (pair_cross(q, x)*p_den), in which x's own den cancels.  It is -1
    exactly when x is at infinity, the chart's infinity point.
    """
    for v in (p, q):
        if v.is_infinite:
            raise ValueError(f"{v} is at infinity")
    pp, px, pq = map(canonical_chart(join(p, q)).pair_of, (p, x, q))
    xp, qx = pair_cross(px, pp), pair_cross(pq, px)
    if qx == 0:
        raise VertexOnTransversal(f"section point coincides with {q}")
    if xp == 0:
        raise VertexOnTransversal(f"section point coincides with {p}")
    return (xp * pq[1], qx * pp[1])


def menelaus_check(
    triangle: tuple[PPoint, PPoint, PPoint], transversal: PLine
) -> tuple[bool, tuple[ExtRat, ExtRat, ExtRat]]:
    """Menelaus: a transversal cuts the sides in ratios multiplying to -1.

    Returns the verdict together with the three signed section ratios, in
    side order (A, B), (B, C), (C, A).  A cut at infinity contributes -1.
    Vertices must be at finite distance; a transversal through a vertex
    raises VertexOnTransversal.  The verdict is decided on the ratios'
    integer pairs, n0*n1*n2 == -d0*d1*d2.
    """
    a, b, c = triangle
    (n0, d0), (n1, d1), (n2, d2) = ratios = [
        _section_ratio(p, meet(transversal, join(p, q)), q) for p, q in ((a, b), (b, c), (c, a))
    ]
    return (n0 * n1 * n2 == -d0 * d1 * d2, tuple(map(from_pair, ratios)))


def fgxy_points(q: InscribedQuadrangle) -> tuple[PPoint, PPoint, PPoint, PLine, PPoint, PPoint]:
    """F, N, G, the line FG and its cuts X = FG /\\ NC and Y = FG /\\ NB."""
    f, n, g = q.diagonal_points()
    fg = join(f, g)
    x = meet(fg, join(n, q.c))
    y = meet(fg, join(n, q.b))
    return f, n, g, fg, x, y


def harmonic_range_FGXY_check(q: InscribedQuadrangle) -> bool:
    """F, G and the cuts X, Y of the side lines through N form a harmonic range.

    X = FG /\\ NC and Y = FG /\\ NB; the statement is the squared-ratio
    identity XG^2/YG^2 = XF^2/YF^2, which projectively is the cross-ratio
    (X, Y; F, G) = -1.  True for every valid inscribed quadrangle.
    """
    f, _, g, fg, x, y = fgxy_points(q)
    num, den = cross_ratio_pair(x, y, f, g, canonical_chart(fg))
    return num == -den


def _segment_ratio(x: Pair, y: Pair, o: Pair) -> Pair:
    """(x - o)/(y - o) for finite chart pairs, as the pair pair_cross(x, o)*y_den / (pair_cross(y, o)*x_den)."""
    return (pair_cross(x, o) * y[1], pair_cross(y, o) * x[1])


def secteur_identity_check(q: InscribedQuadrangle) -> bool:
    """The sector identities carrying the harmonic range F, G, X, Y.

    Checks the squared-ratio identity projectively, and, whenever every
    involved point is at finite distance, also the two segment-product
    identities GX/GY = (DX/DN)(BN/BY) and FX/FY = (DX/DN)(EN/EY) from which
    it follows.  The segment ratios are chart pairs, compared cross-multiplied.
    """
    f, n, g, fg, x, y = fgxy_points(q)
    chart_fg = canonical_chart(fg)
    num, den = cross_ratio_pair(x, y, f, g, chart_fg)
    if num != -den:
        return False
    if any(p.is_infinite for p in (f, n, g, x, y, *q.bornes)):
        return True
    tx, ty, tf, tg = map(chart_fg.pair_of, (x, y, f, g))
    dx, dn, dd = map(canonical_chart(join(q.d, q.c)).pair_of, (x, n, q.d))
    bn, by, bb, be = map(canonical_chart(join(q.b, q.e)).pair_of, (n, y, q.b, q.e))
    d_num, d_den = _segment_ratio(dx, dn, dd)

    def holds(t: Pair, b: Pair) -> bool:  # (tx - t)/(ty - t) == (DX/DN) * (bn - b)/(by - b)
        (t_num, t_den), (b_num, b_den) = _segment_ratio(tx, ty, t), _segment_ratio(bn, by, b)
        return t_num * d_den * b_den == t_den * d_num * b_num

    return holds(tg, bb) and holds(tf, be)


def central_projection_center_check(c: Conic, h: Homography, designated: PLine) -> bool:
    """Transporting the center through a central projection.

    For a homography sending the designated line to the line at infinity,
    the image conic's center must be the image of the designated line's
    pole; this is the plane model of reading one section's center off
    another section of the same cone.
    """
    if h.apply_line(designated) != LINE_AT_INFINITY:
        raise NotOnLine(f"{designated} is not sent to the line at infinity")
    image_center = affine_features(transform(c, h), LINE_AT_INFINITY).center
    return image_center == h.apply(pole(c, designated))
