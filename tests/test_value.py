"""The immutable-value contract of every class built on ``Value``, and a lean cold start."""

import subprocess
import sys
from pathlib import Path

import pytest

from traversale import (
    INF,
    Conic,
    FramedLine,
    FramedPoint,
    Homography,
    PLine,
    PointPair,
    PPoint,
    RationalParametrization,
    affine_features,
    canonical_chart,
    classify,
    polarity_involution_on_line,
    transform,
)
from traversale.render import Drawable
from traversale.report import PropertyResult, VerificationReport
from traversale.scene import _Command, _Token
from traversale.synthetic import PencilBase, two_involutions, worked_quadrangle
from traversale.value import Value

_CIRCLE = Conic.unit_circle()
# a circle image with 600-bit frame entries, above the size gate, so its parametrization hands out framed values
_DEEP_CONIC = transform(_CIRCLE, Homography(((2**200 + 1, 1, 0), (1, 1, 0), (0, 0, 1))))
_DEEP = RationalParametrization(_DEEP_CONIC, _DEEP_CONIC.witness)

SAMPLES = {
    "PPoint": lambda: PPoint(1, 2, 3),
    "PLine": lambda: PLine(1, 2, 3),
    "FramedPoint": lambda: _DEEP.point_from_pair((2, 3)),
    "FramedLine": lambda: _DEEP.line_from_frame((1, -5, 6)),
    "LineChart": lambda: canonical_chart(PLine(0, 1, 0)),
    "Homography": lambda: Homography.scaling(2, 3),
    "Conic": lambda: Conic.unit_circle(),
    "RationalParametrization": lambda: RationalParametrization(_CIRCLE, PPoint(-1, 0, 1)),
    "PointPair": lambda: PointPair(INF, 0),
    "InvolutionOnLine": lambda: polarity_involution_on_line(_CIRCLE, PLine(0, 1, 0)),
    "InscribedQuadrangle": worked_quadrangle,
    "PencilBase": lambda: PencilBase(worked_quadrangle().bornes, member=_CIRCLE),
    "Classification": lambda: classify(_CIRCLE),
    "AffineFeatures": lambda: affine_features(_CIRCLE),
    "TwoInvolutions": lambda: two_involutions(_CIRCLE, PPoint(2, 0, 1), PLine(0, 1, 0)),
    "Drawable": lambda: Drawable("point", PPoint(0, 0, 1), "O"),
    "PropertyResult": lambda: PropertyResult("p", 1, 1),
    "VerificationReport": lambda: VerificationReport("s", 1, 1, (PropertyResult("p", 1, 1),)),
    "_Token": lambda: _Token("point", 1),
    "_Command": lambda: _Command(1, (_Token("point", 1),)),
    "_Infinity": lambda: INF,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_has_a_sample():
    assert {cls.__name__ for cls in _subclasses(Value)} == set(SAMPLES)


def _fields(value):
    """Every slot of the value's class and of its bases."""
    return [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_setting_or_deleting_any_name_raises(name):
    value = SAMPLES[name]()
    assert type(value).__name__ == name and isinstance(value, Value)
    assert not hasattr(value, "__dict__")
    before = {field: getattr(value, field) for field in _fields(value)}
    for field in (*_fields(value), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert {field: getattr(value, field) for field in _fields(value)} == before
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("name, plain", [("FramedPoint", PPoint), ("FramedLine", PLine)])
def test_a_framed_value_is_the_plain_value_of_its_triple(name, plain):
    framed = SAMPLES[name]()
    assert framed.frame is _DEEP and isinstance(framed, plain)
    twin = plain(*(framed.coords if plain is PPoint else framed.coeffs))
    assert type(twin) is plain and twin.frame is None
    assert framed == twin and twin == framed and not (framed != twin)
    assert framed == SAMPLES[name]() and len({framed, SAMPLES[name](), twin}) == 1
    assert hash(framed) == hash(twin) and len({framed, twin}) == 1
    assert (repr(framed), str(framed)) == (repr(twin), str(twin))
    assert repr(framed).startswith(f"{plain.__name__}(")


def _unread(value, plain):
    """True while the framed value's plane triple slot is empty; reading the slot descriptor maps nothing."""
    try:
        (plain.coords if plain is PPoint else plain.coeffs).__get__(value)
    except AttributeError:
        return True
    return False


@pytest.mark.parametrize("name, plain", [("FramedPoint", PPoint), ("FramedLine", PLine)])
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_a_framed_value_equals_and_hashes_like_its_twin_before_and_after_its_triple_is_read(name, plain, read_first):
    triple = "coords" if plain is PPoint else "coeffs"
    twin = plain(*getattr(SAMPLES[name](), triple))
    checks = (
        lambda v: v == twin,
        lambda v: twin == v,
        lambda v: not (v != twin) and not (twin != v),
        lambda v: hash(v) == hash(twin),
        lambda v: len({v, twin}) == 1 and {twin: 1}[v] == 1,
    )
    for check in checks:
        value = SAMPLES[name]()
        assert _unread(value, plain)
        if read_first:
            getattr(value, triple)
            assert not _unread(value, plain)
        assert check(value)


@pytest.mark.parametrize("name, plain", [("FramedPoint", PPoint), ("FramedLine", PLine)])
def test_the_unread_triple_of_a_framed_value_cannot_be_set_or_deleted(name, plain):
    triple = "coords" if plain is PPoint else "coeffs"
    value = SAMPLES[name]()
    for field in (triple, "frame", "frame_vector"):
        with pytest.raises(AttributeError):
            setattr(value, field, (1, 2, 3))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert _unread(value, plain)
    assert getattr(value, triple) == getattr(SAMPLES[name](), triple)
    with pytest.raises(AttributeError, match="object has no attribute 'extra'"):
        value.extra


def test_cold_polar_call_does_not_import_dataclasses():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from traversale import cli\n"
        'cli.main(["polar", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)"])\n'
        'print("dataclasses" in sys.modules)\n'
        'layers = ("synthetic", "verify", "render", "scene", "report")\n'
        'print([m for m in layers if "traversale." + m in sys.modules])\n'
    )
    run = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, check=True)
    # the construction, verify, render, scene and report layers are loaded only by the verbs that use them
    assert run.stdout.splitlines() == ["[1, 0, -1/2]", "False", "[]"]


def test_set_fills_the_slots_in_order_and_a_memo_by_name():
    c = Conic(((1, 0, 0), (0, 1, 0), (0, 0, -1)), witness=PPoint(-1, 0, 1))
    fields = {name: getattr(c, name) for name in Conic.__slots__}
    assert fields == {
        "matrix": ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
        "witness": PPoint(-1, 0, 1),
        "is_nondegenerate": True,
        "_parametrization": None,
    }
    c._set(_parametrization="memo")
    assert (c.matrix, c._parametrization) == (fields["matrix"], "memo")
