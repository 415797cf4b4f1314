"""Points and lines that keep their frame coordinates: the frame route against the plane route."""

from fractions import Fraction

import pytest

from traversale import (
    BasePointNotOnConic,
    CoincidentLines,
    CoincidentPoints,
    Conic,
    FramedLine,
    FramedPoint,
    PLine,
    PPoint,
    RationalParametrization,
    classify,
    join,
    line_intersect,
    meet,
    polar,
    polarity_involution_on_line,
    pole,
    rational_parametrize,
    tangent_at,
)
from traversale import conic, projective
from traversale.conic import chord_parametrization
from traversale.synthetic import inscribed_quadrangle_through, pole_by_construction, traversale_from_quadrangle

from oracles import homography_chain

PARAMETERS = [Fraction(n, d) for n, d in ((2, 3), (-5, 4), (1, 5), (7, 2), (-3, 7))]


def _plain(value):
    """The plain point or line with the same triple."""
    return PPoint(*value.coords) if isinstance(value, PPoint) else PLine(*value.coeffs)


def _triple(value):
    return value.coords if isinstance(value, PPoint) else value.coeffs


@pytest.fixture
def every_frame_recorded(monkeypatch):
    """Parametrizations built in the test hand out framed values at every size."""
    monkeypatch.setattr(conic, "_FRAME_BITS", -1)


@pytest.fixture
def maps(monkeypatch):
    """The frame vectors that the two frame maps turn into plane triples, as they are mapped."""
    mapped = []
    for name in ("_point_triple", "_line_triple"):
        real = getattr(RationalParametrization, name)
        monkeypatch.setattr(RationalParametrization, name, lambda par, v, real=real: mapped.append(v) or real(par, v))
    return mapped


@pytest.mark.parametrize("steps", [1, 2, 4, 16, 64, 256])
def test_frame_route_gives_the_plane_route_triple(steps, every_frame_recorded):
    c, _ = homography_chain(2800 + steps, steps)
    par = chord_parametrization(c)
    pts = [par.point(t) for t in PARAMETERS]
    chords = [join(pts[0], pts[1]), join(pts[2], pts[3]), join(pts[1], pts[4])]
    off = meet(chords[0], chords[1])  # a framed point off the conic
    framed = {
        **{f"join {i}": l for i, l in enumerate(chords)},
        "meet": off,
        "meet of polars": meet(polar(c, pts[0]), polar(c, pts[2])),
        **{f"polar {i}": polar(c, p) for i, p in enumerate((*pts, off))},
        **{f"pole {i}": pole(c, l) for i, l in enumerate(chords)},
        "traversale": traversale_from_quadrangle(c, off),
        **{f"pole_by_construction {i}": pole_by_construction(c, l) for i, l in enumerate(chords)},
    }
    pp = [_plain(p) for p in pts]
    pl = [_plain(l) for l in chords]
    plane = {
        **{f"join {i}": join(pp[a], pp[b]) for i, (a, b) in enumerate(((0, 1), (2, 3), (1, 4)))},
        "meet": meet(pl[0], pl[1]),
        "meet of polars": meet(polar(c, pp[0]), polar(c, pp[2])),
        **{f"polar {i}": polar(c, p) for i, p in enumerate((*pp, _plain(off)))},
        **{f"pole {i}": pole(c, l) for i, l in enumerate(pl)},
        "traversale": traversale_from_quadrangle(c, _plain(off)),
        **{f"pole_by_construction {i}": pole_by_construction(c, l) for i, l in enumerate(pl)},
    }
    for name, value in framed.items():
        assert isinstance(value, (FramedPoint, FramedLine)) and value.frame is par, name
        assert _triple(value) == _triple(plane[name]), name
        # the constructions map their result through the conic's frame on both routes
        if not name.startswith(("traversale", "pole_by_construction")):
            assert type(plane[name]) in (PPoint, PLine), name
    # the recorded frame vector is the one the plane triple gives
    for name, value in framed.items():
        read = par.frame_of_point if isinstance(value, PPoint) else par.frame_of_line
        assert read(_plain(value)) == value.frame_vector, name
    # line_intersect reads the recorded frame line; a conic without the memo takes the plane path
    bare = Conic(c.matrix)
    for framed_chord, plain_chord in zip(chords, pl):
        cut = line_intersect(c, framed_chord)
        assert [p.coords for p in cut] == [p.coords for p in line_intersect(c, plain_chord)]
        assert [p.coords for p in cut] == [p.coords for p in line_intersect(bare, plain_chord)]


def test_rational_parametrize_at_the_witness_is_the_conic_frame(every_frame_recorded):
    c, _ = homography_chain(2900, 8)
    par = rational_parametrize(c, c.witness)
    assert par is chord_parametrization(c) is c._parametrization
    p, q = par.point(PARAMETERS[0]), par.point(PARAMETERS[1])
    line = join(p, q)
    assert type(line) is FramedLine and line.frame is par and line == join(_plain(p), _plain(q))
    assert polar(c, p).frame is par and pole(c, line).frame is par
    # any other base is a frame of its own
    assert rational_parametrize(c, _plain(p)) is not par


def test_equal_but_distinct_frames_and_conics_take_the_plane_route(every_frame_recorded):
    # twin has the maps of the conic's frame, built on an equal but distinct conic object
    c, _ = homography_chain(2900, 8)
    same = Conic(c.matrix, witness=c.witness)
    par, twin = chord_parametrization(c), RationalParametrization(same, same.witness)
    assert same == c and same is not c and twin._quadratic == par._quadratic
    p, q = par.point(PARAMETERS[0]), par.point(PARAMETERS[1])
    r, s = twin.point(PARAMETERS[1]), twin.point(PARAMETERS[2])
    assert r == q and r.frame is twin
    assert type(join(p, r)) is PLine and join(p, r) == join(p, q)
    line, other = join(p, q), join(r, s)
    assert type(meet(line, other)) is PPoint and meet(line, other) == meet(_plain(line), _plain(other))
    assert par.frame_of_point(r) == q.frame_vector
    assert par.frame_of_line(other) == join(q, par.point(PARAMETERS[2])).frame_vector
    # polar and pole read a frame only with the frame's own conic object
    assert type(polar(c, r)) is PLine and polar(c, r) == polar(c, q)
    assert type(polar(same, p)) is PLine and polar(same, p) == polar(c, p)
    assert type(pole(same, line)) is PPoint and pole(same, line) == pole(c, line)
    assert type(pole(c, other)) is PPoint and pole(c, other) == pole(same, other)
    assert polar(same, r).frame is twin and pole(same, other).frame is twin


def test_parametrizations_with_different_bases_fall_back_to_the_plane(every_frame_recorded):
    c, _ = homography_chain(2901, 64)
    first = rational_parametrize(c, c.witness)
    second = rational_parametrize(c, first.point(Fraction(3)))
    assert second is not first
    p, q = first.point(PARAMETERS[0]), second.point(PARAMETERS[1])
    assert type(join(p, q)) is PLine and join(p, q) == join(_plain(p), _plain(q))
    l, m = join(p, first.point(PARAMETERS[2])), join(q, second.point(PARAMETERS[3]))
    assert type(meet(l, m)) is PPoint and meet(l, m) == meet(_plain(l), _plain(m))
    # a recorded vector is read only in its own frame
    assert second.frame_of_point(p) == second.frame_of_point(_plain(p)) != p.frame_vector
    assert second.frame_of_line(l) == second.frame_of_line(_plain(l)) != l.frame_vector
    # a frame of another conic is not read by polar or pole
    other = Conic(((1, 0, 0), (0, 1, 0), (0, 0, -4)))
    assert type(polar(other, p)) is PLine and polar(other, p) == polar(other, _plain(p))
    assert type(pole(other, l)) is PPoint and pole(other, l) == pole(other, _plain(l))


def test_coincident_frame_operands_raise_the_plane_message(every_frame_recorded):
    c, _ = homography_chain(2902, 64)
    par = chord_parametrization(c)
    p = par.point(PARAMETERS[0])
    l = join(p, par.point(PARAMETERS[1]))
    for call, a, error in ((join, p, CoincidentPoints), (meet, l, CoincidentLines)):
        messages = []
        for b in (a, _plain(a)):
            with pytest.raises(error) as exc:
                call(a, b)
            messages.append(str(exc.value))
        with pytest.raises(error) as exc:
            call(_plain(a), _plain(a))
        assert messages == [str(exc.value)] * 2


@pytest.mark.parametrize("steps, framed", [(1, False), (16, False), (64, True), (256, True)])
def test_a_parametrization_under_the_gate_hands_out_plain_values(steps, framed):
    c, _ = homography_chain(3000 + steps, steps)
    par = rational_parametrize(c, c.witness)
    assert (max(map(abs, par._quadratic[0])).bit_length() > conic._FRAME_BITS) is framed
    point_type, line_type = (FramedPoint, FramedLine) if framed else (PPoint, PLine)
    values = [
        par.point(PARAMETERS[0]),
        par.point_from_pair((2, 5)),
        par.point_from_frame((1, 2, 3)),
        par.line_from_frame((1, 2, 3)),
        join(par.point(PARAMETERS[0]), par.point(PARAMETERS[1])),
        polar(c, par.point(PARAMETERS[0])),
    ]
    assert [type(v) for v in values] == [point_type] * 3 + [line_type] * 3


def test_deep_frame_joins_meets_and_polars_cross_no_plane_vector(monkeypatch):
    # k = 256: the conic's entries have about 1,800 bits and its points
    # about 1,700; the frame vectors of the points and chords stay small
    c, _ = homography_chain(3100, 256)
    par = chord_parametrization(c)
    p, q, r, s = (par.point(t) for t in PARAMETERS[:4])
    par.line_from_frame((1, 2, 3))  # the chord form, built once per parametrization
    assert min(x.bit_length() for x in p.coords if x) > 1000
    widths = []

    def recording(a, b):
        widths.append(max(abs(x).bit_length() for x in (*a, *b)))
        return real(a, b)

    real = projective.cross
    for module in (projective, conic):
        monkeypatch.setattr(module, "cross", recording)
    first, second = join(p, q), join(r, s)
    meet(first, second)
    polar(c, p)
    pole(c, first)
    assert len(widths) == 3 and max(widths) < 64


def test_tangent_at_a_deep_framed_point_evaluates_no_plane_form(monkeypatch):
    c, _ = homography_chain(3100, 256)
    par = chord_parametrization(c)
    p, q, r, s = (par.point(t) for t in PARAMETERS[:4])
    off = meet(join(p, q), join(r, s))
    expected = polar(c, _plain(p))
    evaluated = []
    real = Conic.evaluate
    monkeypatch.setattr(Conic, "evaluate", lambda *args: evaluated.append(1) or real(*args))
    tangent = tangent_at(c, p)
    assert isinstance(tangent, FramedLine) and tangent.frame is par
    assert tangent.coeffs == expected.coeffs
    with pytest.raises(BasePointNotOnConic) as exc:
        tangent_at(c, off)
    assert str(exc.value) == f"{off} is not on the conic"
    assert evaluated == []


def _frame_values(c, pars):
    """Framed points and lines built on the conic in the given parametrizations, no triple read.

    Each parameter's point is built once per parametrization, and so are the
    joins (in both orders), meets, polars and poles, so equal values of
    distinct objects occur in one parametrization and across them.  A point
    and a line share one frame vector, and must still differ.
    """
    values = []
    for par in pars:
        p = [par.point(t) for t in PARAMETERS[:4]]
        chords = [join(p[0], p[1]), join(p[1], p[0]), join(p[2], p[3])]
        values += [*p, *chords, meet(chords[0], chords[2]), meet(polar(c, p[0]), polar(c, p[1]))]
        values += [polar(c, p[2]), pole(c, chords[0]), pole(c, chords[2]), par.line_from_frame((1, -5, 6))]
        values.append(par.point_from_frame((1, -5, 6)))
    return values


@pytest.mark.parametrize("steps", [1, 2, 4, 16, 64, 256])
def test_equality_in_one_frame_maps_no_triple_and_agrees_with_the_triples(steps, every_frame_recorded, maps):
    c, _ = homography_chain(3200 + steps, steps)
    par = chord_parametrization(c)
    values = _frame_values(c, (par, par))
    assert all(isinstance(v, (FramedPoint, FramedLine)) for v in values) and maps == []
    equal = [[a == b for b in values] for a in values]
    unequal = [[a != b for b in values] for a in values]
    assert maps == []
    by_triple = [[type(a) is type(b) and _triple(a) == _triple(b) for b in values] for a in values]
    assert equal == by_triple and unequal == [[not e for e in row] for row in by_triple]
    # the two passes give equal values of distinct objects, and so does one pass
    assert values[:len(values) // 2] == values[len(values) // 2:]
    assert values[4] == values[5] and values[4] is not values[5]
    assert values[8] == values[10] and values[8] is not values[10]


def test_framed_values_of_different_frames_compare_by_triple(every_frame_recorded, maps):
    c, _ = homography_chain(3300, 64)
    first = chord_parametrization(c)
    ours = _frame_values(c, (first,))
    # an equal but distinct object with the maps of the first, then a frame from another base
    for second in (RationalParametrization(c, c.witness), RationalParametrization(c, first.point(Fraction(3)))):
        theirs = [
            (second.point_from_frame if isinstance(v, PPoint) else second.line_from_frame)(
                (second.frame_of_point if isinstance(v, PPoint) else second.frame_of_line)(_plain(v))
            )
            for v in ours
        ]
        maps.clear()
        equal = [[a == b for b in theirs] for a in ours]
        assert maps  # the triples were mapped to be compared
        assert equal == [[type(a) is type(b) and _triple(a) == _triple(b) for b in theirs] for a in ours]
        assert all(row[i] for i, row in enumerate(equal))
        assert all(a.frame is first and b.frame is second for a, b in zip(ours, theirs))


def test_a_construction_task_builds_one_parametrization(monkeypatch):
    # the steps of one construction task of the benchmark on a k = 64 circle
    # image: the parametrization at the witness is the frame that the ruler
    # constructions and line_intersect read, so it is built once
    c, _ = homography_chain(3400, 64)
    built = []
    real = RationalParametrization.__init__
    monkeypatch.setattr(RationalParametrization, "__init__", lambda *args: built.append(args[0]) or real(*args))
    par = rational_parametrize(c, c.witness)
    p1, p2 = par.point(PARAMETERS[0]), par.point(PARAMETERS[1])
    f = meet(polar(c, p1), polar(c, p2))
    tau = polar(c, f)
    b, c2, d, e = inscribed_quadrangle_through(c, f).bornes
    assert meet(join(b, c2), join(d, e)) == f
    assert join(meet(join(b, d), join(c2, e)), meet(join(c2, d), join(b, e))) == tau
    chord = join(p1, p2)
    assert traversale_from_quadrangle(c, f) == tau == chord
    assert pole_by_construction(c, chord) == pole(c, chord) == f
    polarity_involution_on_line(c, chord)
    assert set(line_intersect(c, chord)) == {p1, p2}
    classify(c)
    assert built == [par] and isinstance(tau, FramedLine) and tau.frame is par
