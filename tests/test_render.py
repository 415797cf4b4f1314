"""SVG output: determinism, exact-to-float incidence, viewport handling."""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from traversale import Conic, EmptyViewport, Homography, PLine, PPoint, transform
from traversale.conic import RationalParametrization, chord_parametrization
from traversale.linalg import cross, dot, mat_vec
from traversale.render import FIGURES, Drawable, _conic_samples, _Frame, _sample, _sweep, build_figure, render_figure, render_svg

F = Fraction

CIRCLE_RE = re.compile(r'<circle [^>]*cx="([^"]+)" cy="([^"]+)"')
LINE_RE = re.compile(r'<line [^>]*x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"')
POLYLINE_RE = re.compile(r'<polyline [^>]*points="([^"]+)"')


def test_all_figures_render_identically_twice():
    for name in FIGURES:
        assert render_figure(name) == render_figure(name)


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


def test_lines_clipped_exactly():
    svg = render_svg(
        [Drawable("line", PLine(1, -1, 0))],  # the diagonal y = x
        (Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        width=100,
    )
    ((x1, y1, x2, y2),) = [tuple(map(float, m)) for m in LINE_RE.findall(svg)]
    assert {(x1, y1), (x2, y2)} == {(0.0, 100.0), (100.0, 0.0)}


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

def _deep_circle(seed, steps):
    """The unit circle under `steps` seeded random homographies with entries in [-4, 4]."""
    rng = random.Random(seed)
    c = Conic.unit_circle()
    while steps:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        try:
            h = Homography(rows)
        except Exception:
            continue
        c = transform(c, h)
        steps -= 1
    return c


# the deep conic is a speck far below a pixel: every sample lands on one SVG
# point, from triples of about 480 bits
_DEEP = _deep_circle(1, 64)
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


@pytest.mark.parametrize("name, conic, viewport", _SAMPLED, ids=[name for name, *_ in _SAMPLED])
def test_sample_triples_are_scaled_points_of_the_conic(name, conic, viewport, monkeypatch):
    # every pair the sweep and its refinement evaluate: the unreduced triple
    # is nonzero, on the conic, and a multiple of the reduced point
    pairs = []
    real = RationalParametrization.triple_from_pair

    def recording(self, pair):
        pairs.append(pair)
        return real(self, pair)

    monkeypatch.setattr(RationalParametrization, "triple_from_pair", recording)
    samples = _conic_samples(conic, _Frame(viewport, 640))
    monkeypatch.undo()
    par = chord_parametrization(conic)
    assert len(pairs) > len(_sweep()) + 1 or name == "deep"  # the refinement ran
    for pair in pairs:
        v = par.triple_from_pair(pair)
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
