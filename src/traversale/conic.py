"""Conics as classes of rational quadratic forms.

A conic is a symmetric 3x3 matrix up to scale; its zero set in the projective
plane is the curve.  The polar of a point, the pole of a line, tangency,
classification by the exact inertia of the form (Descartes' rule of signs
on its characteristic polynomial), the polarity involution induced on every
non-tangent line and its fixed points (the conic's meet with the line, by
Desargues' involution theorem), both read off one restricted form (q(o),
q(i), phi(o, i)) on the line's canonical basis o, i (the fixed points are
read in the chord parametrization's frame instead once the conic carries
it, see :func:`line_intersect`), affine features (center, asymptotes, the
ellipse/hyperbola/parabola trichotomy) and transport under homographies
are all computed without ever leaving the rationals.  When an
intersection exists over the reals but not over Q the operation says so
exactly (IrrationalIntersection with the offending discriminant) instead
of approximating.  A conic without a witness gets its first rational point
from :func:`find_rational_point`, a bounded sweep of small-height lines
built from integer pairs; every form here has integer entries.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import (
    BasePointNotOnConic,
    CoincidentPoints,
    DegenerateConic,
    DegeneratePointSet,
    GeometryError,
    InteriorPoint,
    IrrationalIntersection,
    LineOnConic,
    NoRationalSecants,
    TangentLine,
    TotallyIsotropicPoint,
    ZeroForm,
)
from .involution import InvolutionOnLine, fixed_pairs
from .linalg import (
    Mat2, Mat3, Vec3, adjugate, cross, det3, dot, mat_mul, mat_vec, primitive, primitive_rows, primitive_triple, transpose,
)
from .numbers import ExtRat, Pair, format_int, format_repr, small_pairs, to_pair
from .projective import (
    LINE_AT_INFINITY,
    FramedLine,
    FramedPoint,
    Homography,
    PLine,
    PPoint,
    basis_point,
    canonical_basis,
    canonical_chart,
    join,
)
from .value import Value


class Conic(Value):
    """A conic, i.e. a nonzero symmetric rational 3x3 form up to scale.

    ``q(v) = v^T M v`` and the associated symmetric bilinear form
    ``phi(v, w) = v^T M w`` are exposed through :meth:`evaluate` and
    :meth:`bilinear`; only their zero-or-sign pattern is meaningful since the
    matrix is stored up to scale.  A conic may carry a ``witness`` point,
    a known rational point on the curve used to seed rational secant
    searches; it is a cache, ignored by equality and hashing.  The chord
    parametrization that :func:`chord_parametrization` builds from the
    conic's first rational point is memoized on the object, and so is the
    error when it cannot be built (no point found, or a degenerate conic);
    it too is a cache, ignored by equality and hashing, and it is the
    object's one frame (see :class:`RationalParametrization`).
    ``is_nondegenerate`` (a nonzero determinant) is computed once, when the
    conic is built.
    """

    __slots__ = ("matrix", "witness", "is_nondegenerate", "_parametrization")

    def __init__(self, rows, witness: PPoint | None = None):
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("conic needs a 3x3 matrix")
        try:
            mat = primitive_rows(rows)
        except ValueError:
            raise ZeroForm("the zero form defines no conic") from None
        if mat[0][1] != mat[1][0] or mat[0][2] != mat[2][0] or mat[1][2] != mat[2][1]:
            raise ValueError(f"conic matrix must be symmetric, got {format_repr(mat)}")
        if witness is not None and dot(mat_vec(mat, witness.coords), witness.coords) != 0:
            raise BasePointNotOnConic(f"witness {witness} is not on the conic")
        self._set(mat, witness, det3(mat) != 0, None)

    def __eq__(self, other):
        return self.matrix == other.matrix if type(other) is Conic else NotImplemented

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "Conic" + format_repr(self.matrix)

    def __str__(self):
        return " ".join(map(format_int, self.coefficients()))

    def evaluate(self, p: PPoint) -> int:
        """q(p) on the stored representative; only sign and zero matter."""
        return dot(mat_vec(self.matrix, p.coords), p.coords)

    def bilinear(self, p: PPoint, q: PPoint) -> int:
        return dot(mat_vec(self.matrix, p.coords), q.coords)

    def contains(self, p: PPoint) -> bool:
        return self.evaluate(p) == 0

    def coefficients(self) -> tuple[int, ...]:
        """(a, b, c, d, e, f) with a x^2 + b y^2 + c z^2 + d xy + e xz + f yz = 0."""
        m = self.matrix
        raw = (m[0][0], m[1][1], m[2][2], 2 * m[0][1], 2 * m[0][2], 2 * m[1][2])
        return primitive(raw)

    @classmethod
    def from_coefficients(cls, a, b, c, d, e, f, witness: PPoint | None = None) -> "Conic":
        """The conic a x^2 + b y^2 + c z^2 + d xy + e xz + f yz = 0 from ints and Fractions."""
        coeffs = (a, b, c, d, e, f)
        a, b, c, d, e, f = primitive(coeffs) if any(coeffs) else coeffs
        return cls(((2 * a, d, e), (d, 2 * b, f), (e, f, 2 * c)), witness=witness)

    @classmethod
    def unit_circle(cls) -> "Conic":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, -1)), witness=PPoint(-1, 0, 1))


class ConicClass(Enum):
    NONDEGENERATE_REAL = "nondegenerate-real"
    EMPTY = "empty"
    DEGENERATE_TWO_LINES = "two-lines"
    DEGENERATE_DOUBLE_LINE = "double-line"


class AffineKind(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    PARABOLA = "parabola"


class Classification(Value):
    """Class, normalized signature and rank of a conic, with its singular part."""

    __slots__ = ("kind", "signature", "rank", "point_double", "double_line")

    def __init__(
        self, kind: ConicClass, signature: tuple[int, int], rank: int, point_double: PPoint | None = None, double_line: PLine | None = None
    ):
        self._set(kind, signature, rank, point_double, double_line)


class AffineFeatures(Value):
    """Affine kind, center, points at infinity and asymptotes of a conic."""

    __slots__ = ("kind", "center", "points_at_infinity", "asymptotes")

    def __init__(
        self, kind: AffineKind, center: PPoint, points_at_infinity: tuple[PPoint, ...], asymptotes: tuple[PLine, ...] | None
    ):
        self._set(kind, center, points_at_infinity, asymptotes)


def conic_from_five_points(p1: PPoint, p2: PPoint, p3: PPoint, p4: PPoint, p5: PPoint) -> Conic:
    """The conic through five points, unique when they are in general position.

    It is the member through p5 of Desargues' pencil on p1..p4, spanned by
    the line pairs {p1p2, p3p4} and {p1p3, p2p4}.  The line pair u, v has
    the form Q = u v^T + v u^T, whose value at p is twice q(p) = (u.p)(v.p),
    so q2(p5) Q1 - q1(p5) Q2 vanishes at p5.  The lines are raw cross
    products, zero for a repeated point; the form is zero exactly when the
    points lie on more than one conic (a repeat, four collinear points, p5
    on the line of three) and DegeneratePointSet is raised.
    """
    a, b, c, d, e = (p.coords for p in (p1, p2, p3, p4, p5))
    u1, v1, u2, v2 = cross(a, b), cross(c, d), cross(a, c), cross(b, d)
    k1, k2 = dot(u2, e) * dot(v2, e), -dot(u1, e) * dot(v1, e)
    rows = tuple(
        tuple(k1 * (u1[i] * v1[j] + v1[i] * u1[j]) + k2 * (u2[i] * v2[j] + v2[i] * u2[j]) for j in range(3))
        for i in range(3)
    )
    if not any(map(any, rows)):
        raise DegeneratePointSet("the five points lie on more than one conic")
    return Conic(rows, witness=p1)


def polar(c: Conic, m: PPoint) -> PLine:
    """The polar line of m: coefficient triple M*m.

    If m lies on the conic this is the tangent at m.  The only excluded
    points are those annihilated by the form (the point double of a
    degenerate conic).  A point that carries a frame of this conic (see
    :class:`RationalParametrization`) takes the :func:`model_polar` of its
    frame vector, as a framed line.
    """
    frame = m.frame
    if frame is not None and frame.conic is c:
        return frame.line_from_frame(model_polar(m.frame_vector))
    coeffs = mat_vec(c.matrix, m.coords)
    if all(x == 0 for x in coeffs):
        raise TotallyIsotropicPoint(f"{m} annihilates the form; no polar")
    return PLine(*coeffs)


def _pole_coords(c: Conic, l: PLine) -> Vec3:
    """adj(M).l, the unreduced coordinates of the pole of l; needs a rank-3 form."""
    if not c.is_nondegenerate:
        raise DegenerateConic("pole needs a nondegenerate conic")
    return mat_vec(adjugate(c.matrix), l.coeffs)


def pole(c: Conic, l: PLine) -> PPoint:
    """The point whose polar is l; needs a rank-3 form.

    A line that carries a frame of this conic takes the :func:`model_pole`
    of its frame vector, as a framed point.
    """
    frame = l.frame
    if frame is not None and frame.conic is c:
        return frame.point_from_frame(model_pole(l.frame_vector))
    return PPoint(*_pole_coords(c, l))


def tangent_at(c: Conic, p: PPoint) -> PLine:
    """Tangent line at a point of the conic: its polar, which passes through p exactly when p is on the conic."""
    t = polar(c, p)
    if not t.contains(p):
        raise BasePointNotOnConic(f"{p} is not on the conic")
    return t


def is_tangent_line(c: Conic, l: PLine) -> bool:
    """l contains its pole, read as l.adj(M).l = 0 with no point built; needs a rank-3 form."""
    return dot(_pole_coords(c, l), l.coeffs) == 0


def _restricted_form(m: Mat3, o: Vec3, i: Vec3) -> tuple[int, int, int]:
    """(qo, qi, phi) = (q(o), q(i), phi(o, i)), so q(den*o + num*i) = qo*den^2 + 2*phi*num*den + qi*num^2."""
    mo = mat_vec(m, o)
    return dot(mo, o), dot(mat_vec(m, i), i), dot(mo, i)


def line_intersect(c: Conic, l: PLine) -> tuple[PPoint, ...]:
    """Exact intersection of a conic and a line: zero, one, or two points.

    On the :func:`canonical_basis` o, i of l these are the fixed pairs of
    the polarity involution's matrix [[phi, qo], [-qi, -phi]] (Desargues'
    involution theorem), which is defined for degenerate conics too.  A
    multiplicity-two contact is returned as a single point.  Irrational
    points raise IrrationalIntersection carrying the discriminant
    phi^2 - qo*qi, never an approximation; a line on which the form
    vanishes raises LineOnConic.

    A conic that already carries its :func:`chord_parametrization` is read
    in that frame first: the points of l on the conic are the bornes of
    the fixed pairs of the :func:`model_involution` of the
    :func:`model_pole` of l's frame line lam.  For a line through points of
    small parameter, lam is small while the plane form is deep.  The
    parametrization is a bijection over Q and over R, so both paths see
    the same points, rational or not; an irrational trace is still
    reported by the plane path, with its canonical-basis discriminant.
    """
    par = c._parametrization
    if isinstance(par, RationalParametrization):
        pairs = fixed_pairs(model_involution(model_pole(par.frame_of_line(l))))
        if pairs is not None:
            return tuple(sorted(map(par.point_from_pair, pairs), key=lambda p: p.coords))
    basis = canonical_basis(l)
    qo, qi, phi = _restricted_form(c.matrix, *basis)
    if qo == 0 and qi == 0 and phi == 0:
        raise LineOnConic(f"{l} is a component of the conic")
    pairs = fixed_pairs(((phi, qo), (-qi, -phi)))
    if pairs is None:
        raise IrrationalIntersection(phi * phi - qo * qi)
    return tuple(sorted((basis_point(basis, p) for p in pairs), key=lambda p: p.coords))


def polarity_involution_on_line(c: Conic, l: PLine) -> InvolutionOnLine:
    """The involution m -> polar(m) /\\ l induced by the conic on l.

    Hyperbolic with the conic/line intersections as fixed points on a secant
    line, elliptic on a line missing the conic; on a tangent line the map
    degenerates and TangentLine is raised instead.  The chart is the
    canonical chart of l.

    With o, i the :func:`canonical_basis` of l, the image of den*o + num*i
    is the point of l conjugate to it, phi(den*o + num*i, den'*o + num'*i)
    = 0, which is linear in (num, den): the matrix is [[phi(o,i), phi(o,o)],
    [-phi(i,i), -phi(o,i)]], and its vanishing determinant is tangency.  The
    chart's representatives are o and i up to a sign, which q and phi drop.
    """
    if not c.is_nondegenerate:
        raise DegenerateConic("the polarity involution needs a nondegenerate conic")
    qo, qi, phi_oi = _restricted_form(c.matrix, *canonical_basis(l))
    if qo * qi == phi_oi * phi_oi:
        raise TangentLine(f"{l} is tangent; the polarity involution degenerates")
    return InvolutionOnLine(canonical_chart(l), ((phi_oi, qo), (-qi, -phi_oi)))


def tangents_from(c: Conic, f: PPoint) -> tuple[tuple[PLine, PPoint], ...]:
    """Tangent lines through f with their contact points.

    The contacts are the intersections of polar(f) with the conic.  A point
    on the conic yields its single tangent as a one-element result; an
    interior point (polar missing the conic) raises InteriorPoint, and
    irrational contacts propagate IrrationalIntersection.
    """
    if not c.is_nondegenerate:
        raise DegenerateConic("tangents_from needs a nondegenerate conic")
    tau = polar(c, f)
    if tau.contains(f):
        return ((tau, f),)
    contacts = line_intersect(c, tau)
    if not contacts:
        raise InteriorPoint(f"{f} is interior: {tau} misses the conic")
    return tuple((join(f, p), p) for p in contacts)


def _sign_changes(coeffs) -> int:
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _inertia(m) -> tuple[int, int]:
    """The numbers of positive and negative eigenvalues of a symmetric matrix.

    Its eigenvalues are all real, so Descartes' rule of signs is exact on
    the characteristic polynomial x^3 - t x^2 + s x - d (t the trace, s the
    sum of the principal 2x2 minors, d the determinant): the positive ones
    are the sign changes of (1, -t, s, -d), the negative ones those of
    (1, t, s, d), zeros skipped.
    """
    t = m[0][0] + m[1][1] + m[2][2]
    s = m[0][0] * m[1][1] + m[0][0] * m[2][2] + m[1][1] * m[2][2] - m[0][1] ** 2 - m[0][2] ** 2 - m[1][2] ** 2
    d = det3(m)
    return _sign_changes((1, -t, s, -d)), _sign_changes((1, t, s, d))


def classify(c: Conic) -> Classification:
    """Rank and inertia of the form, computed exactly, plus the class.

    Signature is normalized to (larger, smaller) since the form is only
    defined up to a global sign.  Rank 2 reports the point double (the
    totally isotropic direction); with inertia (1,1) the two lines are real,
    with (2,0) they are a conjugate pair and only the point double is real.
    Rank 1 reports the (real) double line.
    """
    npos, nneg = _inertia(c.matrix)
    rank = npos + nneg
    signature = (max(npos, nneg), min(npos, nneg))
    if rank == 3:
        kind = ConicClass.EMPTY if signature == (3, 0) else ConicClass.NONDEGENERATE_REAL
        return Classification(kind, signature, rank)
    if rank == 2:
        # adj(M) of a rank-2 symmetric M is a multiple of k k^T, k spanning the kernel
        double = PPoint(*next(r for r in adjugate(c.matrix) if any(r)))
        return Classification(ConicClass.DEGENERATE_TWO_LINES, signature, rank, point_double=double)
    row = next(r for r in c.matrix if any(r))
    return Classification(
        ConicClass.DEGENERATE_DOUBLE_LINE, signature, rank, double_line=PLine(*row)
    )


def affine_features(c: Conic, infinity: PLine = LINE_AT_INFINITY) -> AffineFeatures:
    """Center, affine kind and asymptotes relative to a chosen infinity line.

    The center is the pole of the infinity line; the kind is decided by how
    the conic meets that line (0 points: ellipse, 1: parabola, 2: hyperbola).
    A hyperbola's asymptotes are the tangents at its two infinite points and
    pass through the center.  Irrational infinite points still decide the
    kind (only the discriminant's sign is needed) but the asymptotes are
    withheld.
    """
    if not c.is_nondegenerate:
        raise DegenerateConic("affine features need a nondegenerate conic")
    center = pole(c, infinity)
    try:
        pts = line_intersect(c, infinity)
    except IrrationalIntersection:
        return AffineFeatures(AffineKind.HYPERBOLA, center, (), None)
    if len(pts) == 0:
        return AffineFeatures(AffineKind.ELLIPSE, center, (), None)
    if len(pts) == 1:
        return AffineFeatures(AffineKind.PARABOLA, center, pts, None)
    asymptotes = tuple(tangent_at(c, p) for p in pts)
    return AffineFeatures(AffineKind.HYPERBOLA, center, pts, asymptotes)


def transform(c: Conic, h: Homography) -> Conic:
    """Image conic under a homography: the form H^-T M H^-1 up to scale.

    Membership and all incidence-flavoured structure (polars, poles, the
    polarity involutions) move along with it.
    """
    hinv = adjugate(h.matrix)
    rows = mat_mul(mat_mul(transpose(hinv), c.matrix), hinv)
    witness = h.apply(c.witness) if c.witness is not None else None
    return Conic(rows, witness=witness)


# ---------------------------------------------------------------------------
# The model conic x1^2 = x0*x2
# ---------------------------------------------------------------------------
# Every RationalParametrization maps the model conic onto its conic, so a
# frame vector is a point or a line of the model, and a ruler construction
# on the conic's points runs on these formulas.  The model's form has the
# matrix [[0, 0, -1], [0, 2, 0], [-1, 0, 0]], whose adjugate is
# [[0, 0, -2], [0, 1, 0], [-2, 0, 0]] up to sign.

def model_point(s: Pair) -> Vec3:
    """The borne (s0^2, s0*s1, s1^2) of the chart pair s, the frame point of s."""
    s0, s1 = s
    return (s0 * s0, s0 * s1, s1 * s1)


def model_chord(s: Pair, t: Pair) -> Vec3:
    """The frame line (s1*t1, -(s0*t1 + s1*t0), s0*t0) through the bornes of s and t; the tangent when s = t."""
    (s0, s1), (t0, t1) = s, t
    return (s1 * t1, -(s0 * t1 + s1 * t0), s0 * t0)


def on_model_conic(x: Vec3) -> bool:
    """Whether the frame point x is on the model conic: x1^2 = x0*x2."""
    return x[1] * x[1] == x[0] * x[2]


def model_polar(y: Vec3) -> Vec3:
    """The polar (-y2, 2*y1, -y0) of the frame point y."""
    y0, y1, y2 = y
    return (-y2, 2 * y1, -y0)


def model_pole(lam: Vec3) -> Vec3:
    """The pole (-2*lam2, lam1, -2*lam0) of the frame line lam.

    lam meets the model conic in the bornes of the pairs s with
    lam0*s0^2 + lam1*s0*s1 + lam2*s1^2 = 0, so it is tangent when that
    root is double, lam1^2 = 4*lam0*lam2: when its pole is on the conic.
    """
    lam0, lam1, lam2 = lam
    return (-2 * lam2, lam1, -2 * lam0)


def model_involution(x: Vec3) -> Mat2:
    """The parameter involution [[-x1, x0], [-x2, x1]] of the frame point x.

    It maps a pair s to the pair of the second borne on the line through x
    and the borne of s.  Its trace is zero, which is Desargues' involution
    theorem read in the parameter; its fixed pairs are the contacts of the
    tangents from x, and it degenerates (determinant x0*x2 - x1^2) exactly
    when x is on the model conic.
    """
    x0, x1, x2 = x
    return ((-x1, x0), (-x2, x1))


class RationalParametrization(Value):
    """All rational points of a conic from one of them, by the chord trick.

    The parameter t names the direction of the chord through ``base`` (the
    canonical basis of a fixed reference line not through the base), and the
    value is the chord's second intersection, always rational by Vieta.  The
    tangent direction at the base maps back to the base point itself; away
    from it the map is injective.

    With that basis o, i the direction of the pair (num, den) is
    d = den*o + num*i, and its second intersection q(d)*base - 2*phi(base, d)*d
    is the quadratic form P(num, den) = A*num^2 + B*num*den + C*den^2 in the
    pair, whose integer vectors A, B, C are computed once here.

    (A, B, C) is the conic's own frame.  The homography x -> x0*A + x1*B +
    x2*C maps the model conic x1^2 = x0*x2 onto the conic, the borne
    :func:`model_point` of the pair s onto P(s).  It carries joins to
    joins and meets to meets, so a ruler construction on points of the
    conic can run on small frame vectors, with the model conic's formulas
    above, and enter the plane once (see :mod:`traversale.synthetic`).
    With the chord form (U, V, W) = (AxB, AxC, BxC) divided by its
    content, UxV = rA, UxW = rB and VxW = rC for one
    r = det(A, B, C)/content^2, which gives the four maps:

    - a plane point p has frame coordinates (W.p, -V.p, U.p)
      (:meth:`frame_of_point`), and a frame point x is x0*A + x1*B + x2*C
      (:meth:`point_from_frame`);
    - a plane line l is the frame line (l.A, l.B, l.C) (:meth:`frame_of_line`),
      and a frame line lam is lam2*U - lam1*V + lam0*W
      (:meth:`line_from_frame`).

    The frame vectors come back in lowest terms.  The chord form is built
    on first use.

    When A's entries are wider than ``_FRAME_BITS``, the points and lines
    handed out (:meth:`point_from_pair`, :meth:`point_from_frame`,
    :meth:`line_from_frame`) are a :class:`~traversale.projective.FramedPoint`
    or :class:`~traversale.projective.FramedLine` holding this frame and
    their primitive frame vector, and no plane triple: the first read of
    its ``coords`` or ``coeffs`` maps it (:meth:`_point_triple`,
    :meth:`_line_triple`).  Then :func:`join`,
    :func:`~traversale.projective.meet`, :func:`polar`, :func:`pole` and
    equality within the frame work on small frame vectors, and
    :meth:`frame_of_point` and :meth:`frame_of_line` read the recorded
    vector.  Below the gate they are plain values.  The frame is this
    object, and :func:`polar` and :func:`pole` read it only on
    ``self.conic``; values of other parametrizations, even with equal
    (A, B, C), take the plane route to the same result.
    """

    __slots__ = ("conic", "base", "_basis", "_quadratic", "_framed", "_chord_form")

    def __init__(self, conic: Conic, base: PPoint):
        if not conic.is_nondegenerate:
            raise DegenerateConic("rational parametrization needs a nondegenerate conic")
        if not conic.contains(base):
            raise BasePointNotOnConic(f"{base} is not on the conic")
        ref = next(
            l
            for l in (LINE_AT_INFINITY, PLine(1, 0, 0), PLine(0, 1, 0))
            if not l.contains(base)
        )
        m, b, (o, i) = conic.matrix, base.coords, canonical_basis(ref)
        qo, qi, phi_oi = _restricted_form(m, o, i)
        mb = mat_vec(m, b)
        phi_bo, phi_bi = dot(mb, o), dot(mb, i)
        quadratic = (
            tuple(qi * bk - 2 * phi_bi * ik for bk, ik in zip(b, i)),
            tuple(2 * (phi_oi * bk - phi_bi * ok - phi_bo * ik) for bk, ok, ik in zip(b, o, i)),
            tuple(qo * bk - 2 * phi_bo * ok for bk, ok in zip(b, o)),
        )
        a0, a1, a2 = quadratic[0]
        # the widest of A's entries has the bit length of their absolute values' or
        framed = (abs(a0) | abs(a1) | abs(a2)).bit_length() > _FRAME_BITS
        self._set(conic, base, (o, i), quadratic, framed, None)

    def direction(self, t: ExtRat) -> PPoint:
        return basis_point(self._basis, to_pair(t))

    def point(self, t: ExtRat) -> PPoint:
        return self.point_from_pair(to_pair(t))

    def point_from_pair(self, pair: Pair) -> PPoint:
        """The point of the homogeneous chart pair (num, den), t = num/den, at the frame vector :func:`model_point`."""
        if not self._framed:
            return PPoint(*self.triple_from_pair(pair))
        return FramedPoint(self, primitive_triple(*model_point(pair)))

    def triple_from_pair(self, pair: Pair) -> Vec3:
        """The unreduced coordinates A*num^2 + B*num*den + C*den^2 of the point of the pair.

        Never (0, 0, 0) for a nonzero pair: the direction of the pair lies on
        the reference line, which misses the base, and the tangent at the
        base meets the conic only there.
        """
        num, den = pair
        if num == 0 and den == 0:
            raise ValueError("zero pair")
        # model_point(pair), written out for speed: each plain point of a pair
        # and each sample the renderer refines is evaluated here
        nn, nd, dd = num * num, num * den, den * den
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = self._quadratic
        return (a0 * nn + b0 * nd + c0 * dd, a1 * nn + b1 * nd + c1 * dd, a2 * nn + b2 * nd + c2 * dd)

    def point_triples(self, xs) -> list[Vec3]:
        """:meth:`_point_triple` of each frame point of xs, in order.

        The frame point of the pair (num, den) is (num^2, num*den, den^2), so
        a caller that evaluates a fixed set of pairs for many conics can hold
        those vectors once and map them in one call.
        """
        return list(map(self._point_triple, xs))

    def _chords(self) -> tuple[Vec3, Vec3, Vec3]:
        form = self._chord_form
        if form is None:
            a, b, c = self._quadratic
            u, v, w = cross(a, b), cross(a, c), cross(b, c)
            g = math.gcd(*u, *v, *w)
            form = tuple([(x // g, y // g, z // g) for x, y, z in (u, v, w)])
            self._set(_chord_form=form)
        return form

    def frame_of_point(self, p: PPoint) -> Vec3:
        """The frame coordinates x of p, with p = x0*A + x1*B + x2*C up to scale."""
        if p.frame is self:
            return p.frame_vector
        u, v, w = self._chords()
        return primitive_triple(dot(w, p.coords), -dot(v, p.coords), dot(u, p.coords))

    def frame_of_line(self, l: PLine) -> Vec3:
        """The frame line of l: the frame points x with x0*A + x1*B + x2*C on l."""
        if l.frame is self:
            return l.frame_vector
        a, b, c = self._quadratic
        return primitive_triple(dot(l.coeffs, a), dot(l.coeffs, b), dot(l.coeffs, c))

    def point_from_frame(self, x: Vec3) -> PPoint:
        """The plane point x0*A + x1*B + x2*C."""
        if self._framed:
            return FramedPoint(self, primitive_triple(*x))
        return PPoint(*self._point_triple(x))

    def line_from_frame(self, lam: Vec3) -> PLine:
        """The plane line lam2*U - lam1*V + lam0*W of the frame line lam."""
        if self._framed:
            return FramedLine(self, primitive_triple(*lam))
        return PLine(*self._line_triple(lam))

    def _point_triple(self, x: Vec3) -> Vec3:
        """The unreduced triple x0*A + x1*B + x2*C of the frame point x."""
        x0, x1, x2 = x
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = self._quadratic
        return (a0 * x0 + b0 * x1 + c0 * x2, a1 * x0 + b1 * x1 + c1 * x2, a2 * x0 + b2 * x1 + c2 * x2)

    def _line_triple(self, lam: Vec3) -> Vec3:
        """The unreduced triple lam2*U - lam1*V + lam0*W of the frame line lam."""
        l0, l1, l2 = lam
        (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = self._chords()
        return (u0 * l2 - v0 * l1 + w0 * l0, u1 * l2 - v1 * l1 + w1 * l0, u2 * l2 - v2 * l1 + w2 * l0)


def second_intersection(c: Conic, base: PPoint, other: PPoint) -> PPoint:
    """Second meeting of the conic with the line joining base to other.

    ``base`` must be on the conic and ``other`` distinct from it.  If the
    line is tangent at base the second intersection is base itself; if
    ``other`` is also on the conic it is returned directly.  Rational by
    construction (Vieta), never raises IrrationalIntersection.
    """
    if not c.contains(base):
        raise BasePointNotOnConic(f"{base} is not on the conic")
    if base == other:
        raise CoincidentPoints(f"direction point equals the base {base}")
    qd = c.evaluate(other)
    if qd == 0:
        return other
    phi = c.bilinear(base, other)
    if phi == 0:
        return base
    coords = tuple(qd * b - 2 * phi * d for b, d in zip(base.coords, other.coords))
    return PPoint(*coords)


# A parametrization hands out framed points and lines only when A's entries
# are wider than this many bits.  Below it the frame route's fixed cost (a
# small cross product and gcd, and the framed value) outweighs what it saves.
# End to end, with framed values mapped lazily (perfbench, Python 3.11.7,
# 2 vCPU, 8 s runs, 4 alternating pairs): with no gate, every
# parametrization framed, `constructions` (entries of a few bits) read
# wall_s 1.22x (0/4 pairs lower) and `deep-chain` 1.005x; a gate at 100 or
# 400 bits read 1.006x and 0.996x on `deep-chain`, inside its spread.  So
# the runs keep small conics plain but do not place the gate more closely.
# 200 is the crossover of an earlier timeit of join, meet and polar, frame
# route over plane route on the unit circle under k random homographies,
# taken before framed values were lazy: 1.5-1.9x at 5-58 bits (k <= 8),
# 0.96-1.16x at 205-230 bits (k = 32), 0.31x at about 1,800 bits (k = 256).
_FRAME_BITS = 200


def rational_parametrize(c: Conic, base: PPoint) -> RationalParametrization:
    """The parametrization from ``base``; at the witness it is the conic's own, :func:`chord_parametrization`."""
    if base == c.witness:
        return chord_parametrization(c)
    return RationalParametrization(c, base)


def chord_parametrization(c: Conic) -> RationalParametrization:
    """The parametrization from :func:`find_rational_point`, built once per Conic object.

    Raises NoRationalSecants when the search finds no rational point, and
    DegenerateConic when it finds one on a degenerate conic.  The failure
    is memoized too, as that error, so the search runs once per object and
    each call raises a fresh copy.  The memo lives on the object, not in a
    cache keyed on the conic: equal conics may carry different witnesses,
    and so different bases.
    """
    par = c._parametrization
    if par is None:
        base = find_rational_point(c)
        if base is None:
            par = NoRationalSecants("no rational point found on the conic within the search budget")
        else:
            try:
                par = RationalParametrization(c, base)
            except DegenerateConic as exc:
                par = exc.with_traceback(None)
        c._set(_parametrization=par)
    if isinstance(par, GeometryError):
        raise type(par)(*par.args)
    return par


_SEARCH_LINES = 120  # lines find_rational_point sweeps before giving up


def find_rational_point(c: Conic) -> PPoint | None:
    """Bounded deterministic search for a rational point on the conic.

    Returns the carried witness if there is one (the Conic constructor
    has already checked it is on the curve), else sweeps small-height
    vertical, horizontal and through-origin lines, testing each restricted
    discriminant exactly.  The lines are read off the integer pairs (n, d)
    of :func:`small_pairs`, r = n/d, so the search builds no Fraction.
    Returns None after ``_SEARCH_LINES`` lines; this is a search, not a
    decision procedure.
    """
    if c.witness is not None:
        return c.witness
    tried = 0
    for n, d in small_pairs():
        for l in (
            PLine(d, 0, -n),  # x = n/d
            PLine(0, d, -n),  # y = n/d
            PLine(n, -d, 0),  # y = (n/d) x
        ):
            tried += 1
            if tried > _SEARCH_LINES:
                return None
            try:
                pts = line_intersect(c, l)
            except (IrrationalIntersection, LineOnConic):
                continue
            if pts:
                return pts[0]
