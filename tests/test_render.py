"""SVG output: determinism, exact-to-float incidence, viewport handling."""

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest

from traversale import Conic, EmptyViewport, Homography, PLine, PPoint, SingularMatrix, transform
from traversale.conic import RationalParametrization, chord_parametrization
from traversale.linalg import cross, dot, mat_vec
from traversale.projective import LINE_AT_INFINITY
from traversale.render import FIGURES, Drawable, _conic_samples, _Frame, _sample, _sweep, build_figure, render_figure, render_svg

from oracles import homography_chain

F = Fraction

CIRCLE_RE = re.compile(r'<circle [^>]*cx="([^"]+)" cy="([^"]+)"')
LINE_RE = re.compile(r'<line [^>]*x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"')
POLYLINE_RE = re.compile(r'<polyline [^>]*points="([^"]+)"')


def test_figure8_has_required_labels():
    svg = render_figure("fig8")
    labels = set(re.findall(r"<text [^>]*>([^<]+)</text>", svg))
    assert {"F", "G", "N", "X", "Y"} <= labels


def test_empty_viewport_rejected():
    with pytest.raises(EmptyViewport):
        render_svg([], (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
    with pytest.raises(EmptyViewport):
        render_svg([], (Fraction(1), Fraction(0), Fraction(0), Fraction(1)))
    with pytest.raises(EmptyViewport):
        render_svg([], (Fraction(0), Fraction(0), Fraction(1), Fraction(1)), width=0)


def _sine_residual(p, a, b):
    ux, uy = p[0] - a[0], p[1] - a[1]
    vx, vy = b[0] - a[0], b[1] - a[1]
    num = abs(ux * vy - uy * vx)
    den = (ux * ux + uy * uy) ** 0.5 * (vx * vx + vy * vy) ** 0.5
    return 0.0 if den == 0 else num / den


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_emitted_incidences_hold_to_1e9(name):
    drawables, _ = build_figure(name)
    svg = render_figure(name)
    pts = [(float(a), float(b)) for a, b in CIRCLE_RE.findall(svg)]
    segs = [tuple(map(float, m)) for m in LINE_RE.findall(svg)]
    exact_points = [d.obj for d in drawables if d.kind == "point"]
    exact_lines = [d.obj for d in drawables if d.kind in ("line", "accent-line")]
    assert len(pts) == len(exact_points)
    assert len(segs) == len(exact_lines)
    checked = 0
    for (px, py), p in zip(pts, exact_points):
        for (x1, y1, x2, y2), l in zip(segs, exact_lines):
            if not l.contains(p):
                continue
            checked += 1
            assert _sine_residual((px, py), (x1, y1), (x2, y2)) <= 1e-9
    assert checked > 0


def test_conic_polyline_points_satisfy_equation():
    # sampled polyline vertices come from exact conic points, so they satisfy
    # the (float) circle equation to machine precision after the frame map
    svg = render_svg(
        [Drawable("conic", Conic.unit_circle())],
        (Fraction(-2), Fraction(-2), Fraction(2), Fraction(2)),
        width=400,
    )
    (points_attr,) = POLYLINE_RE.findall(svg)
    # frame: x = (wx + 2) * 100, y = (2 - wy) * 100
    worst = 0.0
    count = 0
    for token in points_attr.split():
        sx, sy = (float(v) for v in token.split(","))
        wx, wy = sx / 100 - 2, 2 - sy / 100
        worst = max(worst, abs(wx * wx + wy * wy - 1))
        count += 1
    assert count >= 200  # dense sampling, adaptivity included
    assert worst < 1e-9


def test_hyperbola_renders_in_branches():
    hyp = Conic(((1, 0, 0), (0, -1, 0), (0, 0, -1)), witness=PPoint(1, 0, 1))
    svg = render_svg(
        [Drawable("conic", hyp)],
        (Fraction(-4), Fraction(-4), Fraction(4), Fraction(4)),
    )
    assert len(POLYLINE_RE.findall(svg)) >= 2  # separate branch polylines


def _clipped(line, viewport):
    svg = render_svg([Drawable("line", line)], tuple(map(Fraction, viewport)), width=100)
    return [{(x1, y1), (x2, y2)} for x1, y1, x2, y2 in (tuple(map(float, m)) for m in LINE_RE.findall(svg))]


def test_lines_clipped_exactly():
    # the diagonal y = x meets both borders at each corner at the same scale
    assert _clipped(PLine(1, -1, 0), (0, 0, 1, 1)) == [{(0.0, 100.0), (100.0, 0.0)}]
    # x = 2y meets x = 0 and y = 0 at (0, 0, 2) and (0, 0, 1), and x = 2 and
    # y = 1 at (4, 2, 2) and (2, 1, 1): one corner each, however scaled
    assert _clipped(PLine(1, -2, 0), (0, 0, 2, 1)) == [{(0.0, 50.0), (100.0, 0.0)}]
    # a border line is drawn along its edge
    assert _clipped(PLine(1, 0, 0), (0, 0, 2, 1)) == [{(0.0, 50.0), (0.0, 0.0)}]
    assert _clipped(PLine(0, 1, -1), (0, 0, 2, 1)) == [{(0.0, 0.0), (100.0, 0.0)}]
    # the line at infinity meets no border inside the viewport
    assert _clipped(LINE_AT_INFINITY, (0, 0, 2, 1)) == []


def _exact_svg(x, y, viewport, width):
    xmin, _, xmax, ymax = viewport
    scale = Fraction(width) / (xmax - xmin)
    return (float((x - xmin) * scale), float((ymax - y) * scale))


def _exact_inside(x, y, viewport, margin):
    xmin, ymin, xmax, ymax = viewport
    mx, my = (xmax - xmin) * margin, (ymax - ymin) * margin
    return xmin - mx <= x <= xmax + mx and ymin - my <= y <= ymax + my


def test_integer_frame_matches_exact_fractions():
    # the integer frame against the rational formulas it replaces, including
    # points on both box edges, points at infinity and ~1,000-bit coordinates
    rng = random.Random(71)
    viewport = (F(-7, 3), F(-5, 4), F(11, 6), F(9, 7))
    width = 333
    frame = _Frame(viewport, width)
    xmin, ymin, xmax, ymax = viewport
    dx, dy = xmax - xmin, ymax - ymin
    xs = [xmin, xmax, 3 * xmin - 2 * xmax, 3 * xmax - 2 * xmin, F(0), F(1, 3)]
    ys = [ymin, ymax, 3 * ymin - 2 * ymax, 3 * ymax - 2 * ymin, F(0), F(-2, 9)]
    big = 2**1000
    for _ in range(10):
        xs.append(xmin + dx * F(rng.randrange(-3 * big, 4 * big), big))
        ys.append(ymin + dy * F(rng.randrange(-3 * big, 4 * big), big))
    for vs in (xs, ys):
        vs += [edge + sign * F(1, big) for edge in vs[:4] for sign in (1, -1)]
    checked = {True: 0, False: 0}
    for x in xs:
        for y in ys:
            for sign in (1, -1):
                # PPoint keeps the first nonzero entry positive, so negative x gives a negative Z
                s = _sample(PPoint(sign * x, sign * y, sign).coords)
                assert s[2] > 0 and F(s[0], s[2]) == x and F(s[1], s[2]) == y
                assert frame.to_svg(s) == _exact_svg(x, y, viewport, width)
                for margin, box in ((0, frame.box), (2, frame.margin_box)):
                    inside = frame.inside(s, box)
                    assert inside == _exact_inside(x, y, viewport, margin)
                    checked[inside] += 1
    assert min(checked.values()) > 100
    assert frame.height == float(dy * width / dx)
    assert _sample(PPoint(3, -4, 0).coords) is None


def test_points_render_at_exact_positions():
    viewport = (F(-7, 3), F(-5, 4), F(11, 6), F(9, 7))
    pts = [PPoint(F(-7, 3), F(9, 7), 1), PPoint(-1, 1, -3), PPoint(2**1000 + 1, 3, 2**1000), PPoint(1, 1, 0)]
    svg = render_svg([Drawable("point", p) for p in pts], viewport, width=333)
    got = [(float(a), float(b)) for a, b in CIRCLE_RE.findall(svg)]
    expect = [_exact_svg(*p.affine(), viewport, 333) for p in pts[:3]]
    assert got == expect


# -- conic samples as unreduced triples ----------------------------------------

# the deep conic is a speck far below a pixel: every sample lands on one SVG
# point, from triples of about 480 bits
_DEEP, _ = homography_chain(1, 64)
_DEEP_VIEWPORT = (F(-9, 8), F(-5, 8), F(7, 8), F(11, 8))
_HYPERBOLA = Conic(((1, 0, 0), (0, -1, 0), (0, 0, -1)), witness=PPoint(1, 0, 1))


def _sampled_conics():
    for name in sorted(FIGURES):
        drawables, viewport = build_figure(name)
        for d in drawables:
            if d.kind == "conic":
                yield name, d.obj, viewport
    yield "deep", _DEEP, _DEEP_VIEWPORT
    yield "hyperbola", _HYPERBOLA, (F(-4), F(-4), F(4), F(4))


_SAMPLED = list(_sampled_conics())


def _pair_of_frame_point(x):
    """The pair (num, den), den >= 0, whose frame point (num^2, num*den, den^2) is x."""
    nn, nd, dd = x
    num, den = math.isqrt(nn), math.isqrt(dd)
    if nd < 0:
        num = -num
    assert (num * num, num * den, den * den) == x
    return (num, den)


@pytest.mark.parametrize("name, conic, viewport", _SAMPLED, ids=[name for name, *_ in _SAMPLED])
def test_sample_triples_are_scaled_points_of_the_conic(name, conic, viewport, monkeypatch):
    # every pair the sweep and its refinement evaluate, in the bulk
    # point_triples call (through _point_triple) or one at a time: the
    # unreduced triple is nonzero, on the conic, and a multiple of the
    # reduced point
    evaluated = []
    single, from_pair = RationalParametrization._point_triple, RationalParametrization.triple_from_pair

    def recording_single(self, x):
        triple = single(self, x)
        evaluated.append((_pair_of_frame_point(x), triple))
        return triple

    def recording_pair(self, pair):
        triple = from_pair(self, pair)
        evaluated.append((pair, triple))
        return triple

    monkeypatch.setattr(RationalParametrization, "_point_triple", recording_single)
    monkeypatch.setattr(RationalParametrization, "triple_from_pair", recording_pair)
    samples = _conic_samples(conic, _Frame(viewport, 640))
    monkeypatch.undo()
    par = chord_parametrization(conic)
    assert len(evaluated) > len(_sweep()[1]) or name == "deep"  # the refinement ran
    for pair, triple in evaluated:
        v = par.triple_from_pair(pair)
        assert v == triple
        assert v != (0, 0, 0)
        assert dot(mat_vec(conic.matrix, v), v) == 0
        assert cross(v, par.point_from_pair(pair).coords) == (0, 0, 0)
    kept = [s for s in samples if s is not None]
    assert kept and all(s[2] > 0 for s in kept)


@pytest.mark.parametrize("name, conic, viewport", _SAMPLED, ids=[name for name, *_ in _SAMPLED])
def test_polylines_repeat_no_point(name, conic, viewport):
    svg = render_svg([Drawable("conic", conic)], viewport)
    for points in POLYLINE_RE.findall(svg):
        pts = points.split()
        assert len(pts) >= 2
        assert all(p != q for p, q in zip(pts, pts[1:])), name
    # the speck's samples all land on one SVG point, which draws nothing
    assert (name == "deep") == ("<polyline" not in svg)


def test_render_bytes_pinned_for_deep_conic_and_hyperbola():
    # pinned bytes: a sample's scale must not reach any emitted float; the
    # speck's repeated point is dropped, so it leaves no polyline
    deep = render_svg([Drawable("conic", _DEEP)], _DEEP_VIEWPORT)
    hyperbola = render_svg([Drawable("conic", _HYPERBOLA)], (F(-4), F(-4), F(4), F(4)))
    assert hashlib.sha256(deep.encode()).hexdigest() == "4aff5d4f1d07836b4c57458602cc4cf5ee20f98acbf293ab416dd9e1fa353cda"
    assert hashlib.sha256(hyperbola.encode()).hexdigest() == "22af72f92595be294c5d47df5ca7a51a4003d0bc246054a8de53a3dbf10c421d"


# -- the single-pass sampler against the recursive one it replaced --------------

def _reference_sweep():
    params = {F(k, 4) for k in range(-4 * 24, 4 * 24 + 1)}
    params |= {F(96, k) for k in range(-23, 24) if k != 0}
    return [(t.numerator, t.denominator) for t in sorted(params)]


def _reference_samples(c, frame, seen):
    """The recursive sampler: each interval of the sweep refined on its own, every pair mapped alone.

    ``seen`` collects the rare paths taken: "depth 6" (a sixth bisection
    level sagged too far), "infinite sag" and "midpoint at infinity".
    """
    triple = chord_parametrization(c).triple_from_pair
    tol = frame.pixel * 0.75
    out = []
    prev_t = prev_pt = None
    for t in _reference_sweep():
        pt = _sample(triple(t))
        if prev_t is not None:
            out.extend(_reference_refine(triple, prev_t, t, prev_pt, pt, frame, tol, 6, seen))
        out.append(pt)
        prev_t, prev_pt = t, pt
    out.append(_sample(triple((1, 0))))  # the wrap point of the sweep
    out.append(out[0])  # close the loop
    return out


def _reference_refine(triple, t1, t2, p1, p2, frame, tol, depth, seen):
    if depth == 0:
        seen.add("depth 6")
        return []
    if p1 is None or p2 is None:
        return []
    if not (frame.inside(p1, frame.margin_box) or frame.inside(p2, frame.margin_box)):
        return []
    (n1, d1), (n2, d2) = t1, t2
    tm = (n1 * d2 + n2 * d1, 2 * d1 * d2)
    pm = _sample(triple(tm))
    if pm is None:
        seen.add("midpoint at infinity")
        return [None]
    sag = _reference_distance(pm, p1, p2)
    if sag == math.inf:
        seen.add("infinite sag")
    if sag <= tol:
        return []
    left = _reference_refine(triple, t1, tm, p1, pm, frame, tol, depth - 1, seen)
    right = _reference_refine(triple, tm, t2, pm, p2, frame, tol, depth - 1, seen)
    return left + [pm] + right


def _reference_distance(p, a, b):
    try:
        px, py = p[0] / p[2], p[1] / p[2]
        ax, ay = a[0] / a[2], a[1] / a[2]
        bx, by = b[0] / b[2], b[1] / b[2]
        dx, dy = bx - ax, by - ay
        length2 = dx * dx + dy * dy
        if length2 == 0:
            return ((px - ax) ** 2 + (py - ay) ** 2) ** 0.5
        t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length2))
        qx, qy = ax + t * dx, ay + t * dy
        return ((px - qx) ** 2 + (py - qy) ** 2) ** 0.5
    except OverflowError:
        return math.inf


_PARABOLA = Conic(((2, 0, 0), (0, 0, -1), (0, -1, 0)), witness=PPoint(0, 0, 1))  # y = x^2


def _steep_parabola(k):
    """y = x^2 / k: from the vertex, every other sweep sample lies about k away."""
    return Conic(((2, 0, 0), (0, 0, -k), (0, -k, 0)), witness=PPoint(0, 0, 1))


_BIG = 2**1100  # past float range
_EX, _EY = chord_parametrization(Conic.unit_circle()).point(F(1)).affine()  # the sample of the sweep pair (1, 1)
_EDGE_CASES = [
    ("parabola", _PARABOLA, (F(-3), F(-1), F(3), F(5))),
    # the vertex's neighbours have coordinates whose squares, or themselves, overflow a float
    ("square past float range", _steep_parabola(2**600), (F(-1), F(-1), F(1), F(1))),
    ("sample past float range", _steep_parabola(_BIG), (F(-1), F(-1), F(1), F(1))),
    # the circle's point (1, 0) goes to (_BIG, 0); every other sample stays near the viewport
    ("one sample past float range", transform(Conic.unit_circle(), Homography(((_BIG, 0, 0), (0, _BIG, 0), (-_BIG, 0, _BIG + 1)))), (F(-2), F(-2), F(2), F(2))),
    ("far viewport", Conic.unit_circle(), (F(1000), F(1000), F(1001), F(1001))),
    ("tiny viewport", Conic.unit_circle(), (F(3, 5), F(4, 5), F(3, 5) + F(1, 2**24), F(4, 5) + F(1, 2**24))),
    # asymptote slopes 1/8 and 1/16 from the vertex (1, 0): the midpoint of
    # the sweep pairs 0 and 1/4, and of its left half, is at infinity
    ("asymptote at a midpoint", Conic(((1, 0, 0), (0, -64, 0), (0, 0, -1)), witness=PPoint(1, 0, 1)), (F(-4), F(-4), F(4), F(4))),
    ("asymptote at a bisection", Conic(((1, 0, 0), (0, -256, 0), (0, 0, -1)), witness=PPoint(1, 0, 1)), (F(-4), F(-4), F(4), F(4))),
    # unit viewports whose margin box (grown by 2 on every side) has one
    # edge through a sweep sample, which is kept
    *[
        (f"sample on the margin {side}", Conic.unit_circle(), (x0, y0, x0 + 1, y0 + 1))
        for side, x0, y0 in (("left", _EX + 2, _EY), ("right", _EX - 3, _EY), ("bottom", _EX, _EY + 2), ("top", _EX, _EY - 3))
    ],
]


def _random_cases(seed, count):
    """Circles, parabolas and hyperbolas under up to six homographies, each seen through a viewport at a conic point, 1 to 2^-24 wide."""
    rng = random.Random(seed)
    bases = (Conic.unit_circle(), _PARABOLA, _HYPERBOLA)
    for i in range(count):
        c = bases[i % 3]
        for _ in range(rng.randint(0, 6)):
            try:
                c = transform(c, Homography([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]))
            except SingularMatrix:
                pass
        par = chord_parametrization(c)
        p = par.point(F(rng.randint(-50, 50), rng.randint(1, 9)))
        while p.coords[2] == 0:
            p = par.point(F(rng.randint(-50, 50), rng.randint(1, 9)))
        x, y = p.affine()
        size = F(rng.randint(1, 9), 2 ** rng.randint(0, 24))
        x += size * F(rng.randint(-8, 8), 8)
        y += size * F(rng.randint(-8, 8), 8)
        yield f"random {i}", c, (x - size, y - size, x + size, y + size * F(rng.randint(1, 4), 2))


_ORACLE_CASES = _SAMPLED + _EDGE_CASES + list(_random_cases(37, 30))


def test_single_pass_sampler_matches_the_recursive_reference():
    paths = {}
    for name, conic, viewport in _ORACLE_CASES:
        frame = _Frame(viewport, 640)
        paths[name] = set()
        expect = _reference_samples(conic, frame, paths[name])
        # the single pass lists a sample outside the margin box as a break
        kept = [s if s is not None and frame.inside(s, frame.margin_box) else None for s in expect]
        assert _conic_samples(conic, frame) == kept, name
        if name == "far viewport":
            assert kept == [None] * len(expect)
        if name.startswith("sample on the margin"):
            assert _sample(chord_parametrization(conic).triple_from_pair((1, 1))) in kept
    # the edge cases reach the rare paths of the refinement
    assert "depth 6" in paths["tiny viewport"]
    assert "infinite sag" in paths["square past float range"] & paths["sample past float range"]
    assert "midpoint at infinity" in paths["asymptote at a midpoint"] & paths["asymptote at a bisection"]
