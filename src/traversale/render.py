"""Deterministic SVG rendering of exact configurations.

All geometry stays exact until the final coordinate emission.  A conic
sample is an unreduced integer triple (X, Y, Z), the value of the conic's
quadratic parametrization at an integer parameter pair with its sign
turned so that Z > 0; no point is built and no gcd is taken, because every
use below is unchanged by a positive scale.  The viewport is held as
integer bounds over one common denominator, so a containment test is a
few integer comparisons, and a line is clipped exactly at the cross
products of its coefficients with the borders'.

A conic is drawn in one pass over a fixed parameter sweep.  The frame
points of the sweep pairs and of the midpoints of their intervals are
built once per process, and the conic's parametrization maps them all in
one bulk call.  Each of those samples is tested against the margin box,
and divided into floats for the sag test, once; only an interval whose
midpoint sags more than a fraction of a pixel is bisected further.  The
polyline pass then maps each kept sample to SVG once.

Each emitted value is one correctly rounded ``int / int`` division, the
same float that the exact rational would round to, printed as its
shortest round-trip repr: deterministic, and precise enough that the
emitted coordinates keep exact incidences to well under 1e-9 relative.
The sag test uses such floats too.  Identical input yields byte-identical
SVG.  The five classical figure configurations shipped with the package
are built here as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .conic import Conic, chord_parametrization, polar, tangents_from
from .errors import EmptyViewport, UnknownReference, ViewportOutOfRange
from .linalg import Vec3, cross
from .numbers import Pair, format_extended, parse_rational
from .projective import PLine, PPoint, join, meet
from .synthetic import fgxy_points, worked_quadrangle
from .value import Value

Viewport = tuple[Fraction, Fraction, Fraction, Fraction]  # xmin, ymin, xmax, ymax
Box = tuple[int, int, int, int]  # xmin, ymin, xmax, ymax, each times the frame's denominator

_CONIC_STYLE = 'fill="none" stroke="#000000" stroke-width="1.6"'
_LINE_STYLE = 'stroke="#606060" stroke-width="1"'
_ACCENT_STYLE = 'stroke="#aa2222" stroke-width="1.4"'
_POINT_STYLE = 'fill="#aa2222"'
_TEXT_STYLE = 'font-family="serif" font-size="13"'


class Drawable(Value):
    """One exact object to draw, with its style kind ("conic", "line", "accent-line" or "point") and an optional label."""

    __slots__ = ("kind", "obj", "label")

    def __init__(self, kind: str, obj: object, label: str = ""):
        self._set(kind, obj, label)


def parse_viewport(text: str) -> Viewport:
    """The viewport literal ``xmin,ymin,xmax,ymax``, four rationals; ValueError if malformed."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("viewport must be xmin,ymin,xmax,ymax")
    return tuple(parse_rational(p) for p in parts)


def _sample(v: Vec3) -> Vec3 | None:
    """The triple v or -v, whichever has Z > 0; None for a point at infinity."""
    x, y, z = v
    if z == 0:
        return None
    return v if z > 0 else (-x, -y, -z)


class _Frame:
    """The viewport as integer bounds a/D <= x <= c/D, b/D <= y <= e/D.

    ``box`` holds (a, b, c, e) and ``margin_box`` the same for the viewport
    grown by twice its size on every side, the region where conic samples
    are kept.  ``borders`` holds the coefficient triples of the border lines
    x = a/D, x = c/D, y = b/D and y = e/D.  A sample (X, Y, Z), Z > 0, maps
    to the SVG point
    ((X*D - a*Z) * width / (Z*(c - a)), (e*Z - Y*D) * width / (Z*(c - a))).
    """

    def __init__(self, viewport: Viewport, width: int):
        bounds = [Fraction(v) for v in viewport]
        xmin, ymin, xmax, ymax = bounds
        if xmax <= xmin or ymax <= ymin:
            raise EmptyViewport(f"viewport {','.join(map(format_extended, bounds))} has no area")
        if width < 1:
            raise EmptyViewport(f"width {width} must be at least 1 pixel")
        den = math.lcm(*(v.denominator for v in bounds))
        a, b, c, e = (v.numerator * (den // v.denominator) for v in bounds)
        self.den = den
        self.width = width
        self.box: Box = (a, b, c, e)
        self.margin_box: Box = (3 * a - 2 * c, 3 * b - 2 * e, 3 * c - 2 * a, 3 * e - 2 * b)
        try:
            self.height = (e - b) * width / (c - a)
            self.pixel = (c - a) / den / width  # world units per pixel
        except OverflowError:
            raise ViewportOutOfRange("viewport size or aspect ratio is out of float range") from None
        self.borders = ((den, 0, -a), (den, 0, -c), (0, den, -b), (0, den, -e))

    def inside(self, s: Vec3, box: Box) -> bool:
        x, y, z = s
        xmin, ymin, xmax, ymax = box
        xd, yd = x * self.den, y * self.den
        return xmin * z <= xd <= xmax * z and ymin * z <= yd <= ymax * z

    def to_svg(self, s: Vec3) -> tuple[float, float]:
        x, y, z = s
        a, _, c, e = self.box
        width, den = self.width, self.den
        span = z * (c - a)
        return ((x * den - a * z) * width / span, (e * z - y * den) * width / span)


def _clip_line(l: PLine, frame: _Frame) -> tuple[Vec3, Vec3] | None:
    """Exact clip of a projective line against the viewport rectangle.

    Each border meets the line at the unreduced cross product of their
    coefficients.  A border equal to the line gives (0, 0, 0), and the line
    at infinity meets every border at infinity, so neither leaves a hit.
    Two hits are one point when their triples are proportional.
    """
    coeffs = l.coeffs
    hits = []
    for b in frame.borders:
        s = _sample(cross(coeffs, b))
        if s is not None and frame.inside(s, frame.box) and all(
            s[0] * h[2] != h[0] * s[2] or s[1] * h[2] != h[1] * s[2] for h in hits
        ):
            hits.append(s)
    if len(hits) < 2:
        return None
    # at most two distinct ends: a border line itself meets the other borders in two corners
    p, q = hits
    if (p[0] * q[2], p[1] * q[2]) > (q[0] * p[2], q[1] * p[2]):  # order by (x, y)
        p, q = q, p
    return (p, q)


def _midpoint(t1: Pair, t2: Pair) -> Pair:
    """The unreduced pair of the mean of the parameters t1 and t2, both with den >= 0."""
    (n1, d1), (n2, d2) = t1, t2
    return (n1 * d2 + n2 * d1, 2 * d1 * d2)


@cache
def _sweep() -> tuple[tuple[Pair, ...], tuple[Vec3, ...]]:
    """The fixed parameter sweep and the frame points of every pair it evaluates at level 0.

    The sweep is the sorted integer pairs (num, den), den > 0.  The frame
    points (num^2, num*den, den^2) are those of the sweep pairs, then of
    the midpoint of each interval between consecutive pairs, then of the
    wrap pair (1, 0).
    """
    params = {Fraction(k, 4) for k in range(-4 * 24, 4 * 24 + 1)}
    params |= {Fraction(96, k) for k in range(-23, 24) if k != 0}
    pairs = tuple((t.numerator, t.denominator) for t in sorted(params))
    mids = tuple(map(_midpoint, pairs, pairs[1:]))
    return pairs, tuple((n * n, n * d, d * d) for n, d in pairs + mids + ((1, 0),))


def _conic_samples(c: Conic, frame: _Frame) -> list[Vec3 | None]:
    """Samples around the whole conic, None marking breaks: a point at infinity or a sample outside the margin box.

    A fixed parameter sweep (dense in the chord-slope parameter, wrapping
    through the slope at infinity) is refined adaptively: between any two
    consecutive samples whose chord sags more than a fraction of a pixel,
    the parameter interval is bisected, exactly.  The sweep pairs and the
    midpoints of their intervals are mapped in one bulk call, and each of
    those samples is tested against the margin box and divided into floats
    once.  The loop below is the first bisection level; only the halves
    of an interval whose midpoint sags too far go on to :func:`_refine`.
    """
    par = chord_parametrization(c)
    pairs, vectors = _sweep()
    n = len(pairs)
    samples = [None if z == 0 else (x, y, z) if z > 0 else (-x, -y, -z) for x, y, z in par.point_triples(vectors)]
    den = frame.den
    xmin, ymin, xmax, ymax = frame.margin_box
    kept = [  # Frame.inside(s, margin_box) of each sweep sample
        s is not None and xmin * s[2] <= s[0] * den <= xmax * s[2] and ymin * s[2] <= s[1] * den <= ymax * s[2]
        for s in samples[:n]
    ]
    world = [None if s is None else _world(s) for s in samples]
    tol = frame.pixel * 0.75
    out = [samples[0] if kept[0] else None]
    for i in range(1, n):
        p1, p2 = samples[i - 1], samples[i]
        if p1 is not None and p2 is not None and (kept[i - 1] or kept[i]):
            pm = samples[n + i - 1]
            if pm is None:
                out.append(None)
            else:
                wm, w1, w2 = world[n + i - 1], world[i - 1], world[i]
                if _sag(wm, w1, w2) > tol:
                    t1, t2 = pairs[i - 1], pairs[i]
                    tm = _midpoint(t1, t2)
                    e1, e2 = (p1, w1, kept[i - 1]), (p2, w2, kept[i])
                    em = (pm, wm, frame.inside(pm, frame.margin_box))
                    out += _refine(par, t1, tm, e1, em, frame, tol, 5)
                    out.append(pm if em[2] else None)
                    out += _refine(par, tm, t2, em, e2, frame, tol, 5)
        out.append(p2 if kept[i] else None)
    wrap = samples[-1]  # the wrap point of the sweep
    out.append(wrap if wrap is not None and frame.inside(wrap, frame.margin_box) else None)
    out.append(out[0])  # close the loop
    return out


def _refine(par, t1, t2, e1, e2, frame, tol, depth):
    """Extra samples strictly between the pairs t1 and t2 where the chord is too flat, as :func:`_conic_samples` lists them.

    Each end e is its sample, the sample's float position (see
    :func:`_world`) and whether the sample lies in the margin box.
    """
    (p1, w1, k1), (p2, w2, k2) = e1, e2
    if depth == 0 or p1 is None or p2 is None or not (k1 or k2):
        return []
    tm = _midpoint(t1, t2)
    pm = _sample(par.triple_from_pair(tm))
    if pm is None:
        return [None]
    wm = _world(pm)
    if _sag(wm, w1, w2) <= tol:
        return []
    km = frame.inside(pm, frame.margin_box)
    em = (pm, wm, km)
    left = _refine(par, t1, tm, e1, em, frame, tol, depth - 1)
    right = _refine(par, tm, t2, em, e2, frame, tol, depth - 1)
    return left + [pm if km else None] + right


def _world(s: Vec3) -> tuple[float, float] | None:
    """The float world position of the sample s; None when a coordinate is out of float range."""
    try:
        return s[0] / s[2], s[1] / s[2]
    except OverflowError:  # such a sample lies far outside the viewport
        return None


def _sag(p, a, b) -> float:
    """The float distance of the position p from the segment ab; infinite when a position is None or the arithmetic overflows."""
    if p is None or a is None or b is None:
        return math.inf
    (px, py), (ax, ay), (bx, by) = p, a, b
    try:
        dx, dy = bx - ax, by - ay
        length2 = dx * dx + dy * dy
        if length2 == 0:
            return ((px - ax) ** 2 + (py - ay) ** 2) ** 0.5
        t = ((px - ax) * dx + (py - ay) * dy) / length2
        t = t if t < 1.0 else 1.0  # min(1.0, t), NaN included
        t = t if t > 0.0 else 0.0  # max(0.0, t)
        qx, qy = ax + t * dx, ay + t * dy
        return ((px - qx) ** 2 + (py - qy) ** 2) ** 0.5
    except OverflowError:
        return math.inf


def _polyline_runs(samples, frame: _Frame) -> list[list[tuple[float, float]]]:
    """The SVG points of the samples, split at breaks; a point equal to the one before it is dropped.

    Each point is :meth:`_Frame.to_svg`, written out on the frame's unpacked ints.
    """
    den, width = frame.den, frame.width
    a, _, c, e = frame.box
    ca = c - a
    runs: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for s in samples:
        if s is not None:
            x, y, z = s
            span = z * ca
            pt = ((x * den - a * z) * width / span, (e * z - y * den) * width / span)
            if not current or pt != current[-1]:
                current.append(pt)
        elif current:
            if len(current) >= 2:
                runs.append(current)
            current = []
    if len(current) >= 2:
        runs.append(current)
    return runs


def render_svg(drawables, viewport: Viewport, width: int = 640) -> str:
    """Render labeled exact objects to a deterministic SVG document."""
    frame = _Frame(viewport, width)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{frame.width}" '
        f'height="{frame.height!r}" viewBox="0 0 {frame.width} {frame.height!r}">',
        f'<rect width="{frame.width}" height="{frame.height!r}" fill="#ffffff"/>',
    ]
    labels = []
    for d in drawables:
        if d.kind == "conic":
            for run in _polyline_runs(_conic_samples(d.obj, frame), frame):
                pts = " ".join([f"{x!r},{y!r}" for x, y in run])
                parts.append(f'<polyline {_CONIC_STYLE} points="{pts}"/>')
        elif d.kind in ("line", "accent-line"):
            seg = _clip_line(d.obj, frame)
            if seg is None:
                continue
            (x1, y1), (x2, y2) = (frame.to_svg(seg[0]), frame.to_svg(seg[1]))
            style = _ACCENT_STYLE if d.kind == "accent-line" else _LINE_STYLE
            parts.append(
                f'<line {style} x1="{x1!r}" y1="{y1!r}" x2="{x2!r}" y2="{y2!r}"/>'
            )
        elif d.kind == "point":
            s = _sample(d.obj.coords)
            if s is None or not frame.inside(s, frame.box):
                continue
            cx, cy = frame.to_svg(s)
            parts.append(f'<circle {_POINT_STYLE} cx="{cx!r}" cy="{cy!r}" r="2.5"/>')
            if d.label:
                labels.append((cx, cy, d.label))
        else:
            raise ValueError(f"unknown drawable kind {d.kind!r}")
    for cx, cy, label in labels:
        parts.append(
            f'<text {_TEXT_STYLE} x="{cx + 5.0!r}" y="{cy - 5.0!r}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# The classical figure configurations
# ---------------------------------------------------------------------------

def _fig_quadrangle_harmonic():
    """Quadrangle, diagonal triangle and the harmonic range F, X, G, Y."""
    quad = worked_quadrangle()
    b, c, d, e = quad.bornes
    f, n, g, fg, x, y = fgxy_points(quad)
    drawables = [Drawable("conic", quad.conic)]
    drawables += [Drawable("line", l) for couple in quad.bornale_couples for l in couple]
    drawables.append(Drawable("accent-line", join(g, n)))
    drawables.append(Drawable("line", fg))
    for p, name in ((b, "B"), (c, "C"), (d, "D"), (e, "E"), (f, "F"), (n, "N"), (g, "G"), (x, "X"), (y, "Y")):
        drawables.append(Drawable("point", p, name))
    return drawables, (Fraction(-2), Fraction(-3, 2), Fraction(3), Fraction(3, 2))


def _fig_involutions_on_ordonnee():
    """The chain of involutions on a line through F."""
    quad = worked_quadrangle()
    b, c, d, e = quad.bornes
    f, n, g = quad.diagonal_points()
    gn = join(g, n)
    delta = join(f, PPoint(0, 1, 1))
    i = meet(delta, join(d, c))
    h = meet(delta, gn)
    k = meet(delta, join(e, b))
    q = meet(delta, join(d, b))
    p = meet(delta, join(e, c))
    o = meet(join(b, c), gn)
    lpt = PPoint(0, 1, 1)
    m = PPoint(Fraction(4, 5), Fraction(3, 5), 1)
    drawables = [Drawable("conic", quad.conic)]
    drawables += [Drawable("line", l) for couple in quad.bornale_couples for l in couple]
    drawables.append(Drawable("accent-line", gn))
    drawables.append(Drawable("accent-line", delta))
    for pt, name in (
        (b, "B"), (c, "C"), (d, "D"), (e, "E"), (f, "F"), (n, "N"), (g, "G"),
        (i, "I"), (h, "H"), (k, "K"), (q, "Q"), (p, "P"), (o, "O"), (lpt, "L"), (m, "M"),
    ):
        drawables.append(Drawable("point", pt, name))
    return drawables, (Fraction(-2), Fraction(-3, 2), Fraction(3), Fraction(3, 2))


def _fig_pole_construction():
    """The pole of a line as the meet of two traversales."""
    quad = worked_quadrangle()
    circle = quad.conic
    _, n, g = quad.diagonal_points()
    tau = join(g, n)
    mu = polar(circle, n)
    nu = polar(circle, g)
    f = meet(mu, nu)
    drawables = [
        Drawable("conic", circle),
        Drawable("accent-line", tau),
        Drawable("line", mu),
        Drawable("line", nu),
        Drawable("point", n, "N"),
        Drawable("point", g, "G"),
        Drawable("point", f, "F"),
    ]
    return drawables, (Fraction(-2), Fraction(-3, 2), Fraction(3), Fraction(3, 2))


def _fig_tangents():
    """Tangents from an exterior point; the traversale joins the contacts."""
    circle = Conic.unit_circle()
    f = PPoint(Fraction(5, 3), 0, 1)
    pairs = tangents_from(circle, f)
    drawables = [Drawable("conic", circle), Drawable("accent-line", polar(circle, f))]
    names = iter(("S", "R"))
    for line, contact in pairs:
        drawables.append(Drawable("line", line))
        drawables.append(Drawable("point", contact, next(names)))
    drawables.append(Drawable("point", f, "F"))
    return drawables, (Fraction(-3, 2), Fraction(-3, 2), Fraction(5, 2), Fraction(3, 2))


def _fig_polarity_involution():
    """Couples of the polarity involution on a traversale, drawn from a conic point."""
    quad = worked_quadrangle()
    circle = quad.conic
    b, c, d, e = quad.bornes
    f = quad.diagonal_points()[0]
    tau = polar(circle, f)
    a = PPoint(0, 1, 1)
    g1 = meet(join(a, b), tau)
    n1 = meet(join(a, c), tau)
    g2 = meet(join(a, d), tau)
    n2 = meet(join(a, e), tau)
    drawables = [
        Drawable("conic", circle),
        Drawable("accent-line", tau),
        Drawable("line", join(b, c)),
        Drawable("line", join(d, e)),
        Drawable("line", join(a, b)),
        Drawable("line", join(a, c)),
        Drawable("line", join(a, d)),
        Drawable("line", join(a, e)),
        Drawable("point", a, "A"),
        Drawable("point", f, "F"),
        Drawable("point", b, "B"),
        Drawable("point", c, "C"),
        Drawable("point", d, "D"),
        Drawable("point", e, "E"),
        Drawable("point", g1, "G"),
        Drawable("point", n1, "N"),
        Drawable("point", g2, "G'"),
        Drawable("point", n2, "N'"),
    ]
    return drawables, (Fraction(-2), Fraction(-3, 2), Fraction(3), Fraction(2))


FIGURES = {
    "fig8": _fig_quadrangle_harmonic,
    "fig10": _fig_involutions_on_ordonnee,
    "fig13": _fig_pole_construction,
    "fig14": _fig_tangents,
    "fig16": _fig_polarity_involution,
}


def build_figure(name: str) -> tuple[list[Drawable], Viewport]:
    try:
        builder = FIGURES[name]
    except KeyError:
        raise UnknownReference(
            f"unknown figure {name!r}; available: {', '.join(sorted(FIGURES))}"
        ) from None
    return builder()


def render_figure(name: str, viewport: Viewport | None = None, width: int = 640) -> str:
    drawables, default_viewport = build_figure(name)
    return render_svg(drawables, viewport or default_viewport, width)
