"""The immutable-value contract of every class built on ``Value``, and a lean cold start."""

import gc
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
    TooManyDigits,
    affine_features,
    canonical_chart,
    classify,
    polarity_involution_on_line,
    transform,
)
from traversale.render import Drawable
from traversale.report import PropertyResult, VerificationReport
from traversale.scene import _Command, _Token
from traversale.synthetic import InscribedQuadrangle, PencilBase, two_involutions, worked_quadrangle
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


# an integer of 6,001 digits, over the 4,300 that Python converts to text
_BIG = (10**3000) ** 2
# the unit circle about (_BIG, 0), (x - _BIG z)^2 + y^2 = z^2, and four of its points
_BIG_CIRCLE = Conic.from_coefficients(1, 1, _BIG * _BIG - 1, 0, -2 * _BIG, 0, witness=PPoint(_BIG + 1, 0, 1))
_BIG_BORNES = (PPoint(_BIG + 1, 0, 1), PPoint(_BIG, 1, 1), PPoint(_BIG - 1, 0, 1), PPoint(_BIG, -1, 1))
_BIG_FRAME = RationalParametrization(_BIG_CIRCLE, _BIG_CIRCLE.witness)

# one sample of each Value class that holds integers, with an integer over the digit limit
OVER_LIMIT = {
    "PPoint": lambda: PPoint(_BIG, 1, 1),
    "PLine": lambda: PLine(_BIG, 1, 1),
    "FramedPoint": lambda: _BIG_FRAME.point_from_pair((2, 3)),
    "FramedLine": lambda: _BIG_FRAME.line_from_frame((1, -5, 6)),
    "LineChart": lambda: canonical_chart(PLine(0, 1, -_BIG)),
    "Homography": lambda: Homography.scaling(_BIG, 1),
    "Conic": lambda: _BIG_CIRCLE,
    "RationalParametrization": lambda: _BIG_FRAME,
    "PointPair": lambda: PointPair(_BIG, 1),
    "InvolutionOnLine": lambda: polarity_involution_on_line(_BIG_CIRCLE, PLine(0, 1, 0)),
    "InscribedQuadrangle": lambda: InscribedQuadrangle(_BIG_CIRCLE, *_BIG_BORNES),
    "PencilBase": lambda: PencilBase(_BIG_BORNES, member=_BIG_CIRCLE),
    # the line pair y (x - _BIG z) = 0, whose lines cross at (_BIG, 0, 1)
    "Classification": lambda: classify(Conic.from_coefficients(0, 0, 0, 1, 0, -_BIG)),
    "AffineFeatures": lambda: affine_features(_BIG_CIRCLE),
    "TwoInvolutions": lambda: two_involutions(_BIG_CIRCLE, PPoint(_BIG + 2, 0, 1), PLine(0, 1, 0)),
    "Drawable": lambda: Drawable("point", PPoint(_BIG, 1, 1), "O"),
    "PropertyResult": lambda: PropertyResult("p", _BIG, _BIG),
    "VerificationReport": lambda: VerificationReport("s", _BIG, _BIG, (PropertyResult("p", _BIG, _BIG),)),
    "_Token": lambda: _Token("point", _BIG),
    "_Command": lambda: _Command(_BIG, (_Token("point", _BIG),)),
}
HOLDS_NO_INTS = {"_Infinity"}


def _ints(obj, seen):
    """Every int the object holds, through tuples and the slots of nested values."""
    if isinstance(obj, int):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _ints(item, seen)
    elif isinstance(obj, Value) and id(obj) not in seen:
        seen.add(id(obj))
        for field in _fields(obj):
            yield from _ints(getattr(obj, field), seen)


def test_every_value_class_holding_integers_has_an_over_limit_sample():
    assert {cls.__name__ for cls in _subclasses(Value)} == set(OVER_LIMIT) | HOLDS_NO_INTS


@pytest.mark.parametrize("name", sorted(OVER_LIMIT))
def test_the_text_of_a_value_over_the_digit_limit_prints_or_raises_the_named_error(name):
    # a class whose repr or str printed a raw int would raise Python's plain ValueError here
    value = OVER_LIMIT[name]()
    assert type(value).__name__ == name
    for text in (repr, str):
        try:
            assert isinstance(text(value), str)
        except ValueError as exc:
            assert isinstance(exc, TooManyDigits), f"{text.__name__} of {name} raised {exc!r}"
    limit = sys.get_int_max_str_digits()
    assert any(abs(n) >= 10**limit for n in _ints(value, set()))


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


def _filled(value, cls):
    """The slots of ``cls`` and its bases that hold a value, read through their descriptors (no lazy mapping)."""
    names = []
    for klass in cls.__mro__:
        for name in vars(klass).get("__slots__", ()):
            try:
                vars(klass)[name].__get__(value)
            except AttributeError:
                continue
            names.append(name)
    return names


def _check_setter(cls):
    """``_set`` fills exactly the class's own slots, in order; a wrong count fills none; ``_memo`` fills one."""
    names = cls.__slots__
    fields = [object() for _ in names]
    value = cls.__new__(cls)
    value._set(*fields)
    assert [getattr(value, name) for name in names] == fields, cls
    assert _filled(value, cls) == list(names), cls
    for wrong in (fields[:-1], [*fields, object()]):
        value = cls.__new__(cls)
        with pytest.raises(TypeError):
            value._set(*wrong)
        assert _filled(value, cls) == [], cls
    value = cls.__new__(cls)
    value._memo(names[-1], fields[-1])
    assert _filled(value, cls) == [names[-1]] and getattr(value, names[-1]) is fields[-1], cls


def test_each_class_sets_its_own_slots_in_order_and_memos_one_by_name():
    classes = [cls for cls in _subclasses(Value) if cls.__slots__]
    assert {cls.__name__ for cls in classes} == set(SAMPLES) - {"_Infinity"}
    assert {1, 2, 3, 4} <= {len(cls.__slots__) for cls in classes}  # the three direct setters and the loop
    for cls in classes:
        _check_setter(cls)

    # a class made after import gets its own setter too, and a subclass does not reuse its base's
    class Late(Value):
        __slots__ = ("x", "y", "z")

    class Later(Late):
        __slots__ = ("w",)

    try:
        _check_setter(Late)
        _check_setter(Later)
        assert Later._set is not Late._set
    finally:
        # drop them from Value's subclasses, which the sample tests above walk
        del Late, Later
        gc.collect()
