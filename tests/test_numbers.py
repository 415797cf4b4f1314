"""Scalar layer: exact parsing/formatting, enumerations, primitive vectors."""

import math
import random
import sys
from fractions import Fraction
from itertools import islice, product

import pytest

from traversale import (
    Conic,
    GeometryError,
    Homography,
    IrrationalIntersection,
    PLine,
    PPoint,
    PointPair,
    TooManyDigits,
)
from traversale.involution import arbre_check_pair
from traversale.linalg import primitive
from traversale.numbers import (
    INF,
    format_extended,
    format_int,
    format_pair,
    format_repr,
    from_pair,
    lowest_terms,
    parse_extended,
    parse_rational,
    small_pairs,
    to_pair,
)
from traversale.synthetic import InscribedQuadrangle, PencilBase


def test_rational_text_round_trip():
    for text, value in (("3/4", Fraction(3, 4)), ("-7", Fraction(-7)), ("+2/6", Fraction(1, 3))):
        assert parse_rational(text) == value
    assert format_extended(Fraction(-3, 4)) == "-3/4"
    assert format_extended(Fraction(8, 2)) == "4"
    assert parse_rational(format_extended(Fraction(-22, 7))) == Fraction(-22, 7)


@pytest.mark.parametrize("bad", ["1/0", "a", "1.5", "1/ 2", ""])
def test_rational_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_integers_over_the_digit_limit_raise_the_named_error():
    # Python converts ints of at most `limit` digits to and from text, and the limit stays in place
    limit = sys.get_int_max_str_digits()
    assert issubclass(TooManyDigits, GeometryError) and issubclass(TooManyDigits, ValueError)
    assert parse_rational("-" + "7" * limit) == -int("7" * limit)
    for text in ("7" * (limit + 1), "1/" + "7" * (limit + 1), "-" + "0" * (limit + 1) + "/3"):
        with pytest.raises(TooManyDigits, match=f"^a literal integer of more than {limit} digits is too long to read$"):
            parse_rational(text)
    assert format_int(-(10 ** (limit - 1))) == "-1" + "0" * (limit - 1)
    over = 10**limit
    big = (10**3000) ** 2  # an entry the messages below must print
    singular, asymmetric = ((big, 1, 0), (big, 1, 0), (0, 0, 1)), ((big, 1, 0), (0, 1, 0), (0, 0, 1))
    # three points on the line x = 0 of the line pair xy = 0: the quadrangle's and the pencil's messages name them
    collinear = (PPoint(0, big, 1), PPoint(0, 1, 1), PPoint(0, 2, 1), PPoint(1, 0, 1))
    line_pair = Conic.from_coefficients(0, 0, 0, 1, 0, 0)
    for call, value in (
        (format_int, over),
        (format_pair, (1, over)),
        (Homography, singular),
        (Conic, asymmetric),
        (PencilBase, collinear),
        (lambda pts: InscribedQuadrangle(line_pair, *pts), collinear),
        (lambda souche: arbre_check_pair(souche, [PointPair(big, 1)] * 3), (big, 1)),
    ):
        with pytest.raises(TooManyDigits, match=f"^an integer of more than {limit} digits is too long to print$"):
            call(value)
    # an exception's own message never raises: the search that meets it goes on
    assert str(IrrationalIntersection(over + 1)) == f"irrational intersection, discriminant of {over.bit_length()} bits"
    assert str(IrrationalIntersection(12)) == "irrational intersection, discriminant 12"
    assert sys.get_int_max_str_digits() == limit


def test_format_repr_is_repr_or_the_named_error():
    values = (0, -7, True, Fraction(-3, 4), Fraction(5), INF, None, (), (1,), ((1, -2), (3, 4)), (Fraction(1, 2), INF))
    for value in (*values, values, (PPoint(1, 0, 1),)):
        assert format_repr(value) == repr(value)
    over = 10 ** sys.get_int_max_str_digits()
    for value in (over, Fraction(1, over), ((1, 0), (0, over))):
        with pytest.raises(TooManyDigits):
            format_repr(value)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (PPoint.parse, "1, 2, 3", "point literal must look like (x, y, z): '1, 2, 3'"),
        (PPoint.parse, " (1, 2) ", "point literal needs three coordinates: ' (1, 2) '"),
        (PPoint.parse, "(1, x, 3)", "not a rational literal: ' x'"),
        (PLine.parse, "(1, 2, 3)", "line literal must look like [u, v, w]: '(1, 2, 3)'"),
        (PLine.parse, "[1, 2, 3, 4]", "line literal needs three coefficients: '[1, 2, 3, 4]'"),
        (PointPair.parse, "[0, 1]", "pair literal must look like {t1, t2}: '[0, 1]'"),
        (PointPair.parse, "{0, 1, 2}", "pair literal needs two coordinates: '{0, 1, 2}'"),
        (PointPair.parse, "{}", "pair literal needs two coordinates: '{}'"),
        (PointPair.parse, "{0, 1/0}", "zero denominator in ' 1/0'"),
    ],
)
def test_a_malformed_bracketed_literal_names_its_fault(parse, text, message):
    with pytest.raises(ValueError) as raised:
        parse(text)
    assert str(raised.value) == message


def test_extended_round_trip():
    assert parse_extended("inf") is INF
    assert format_extended(INF) == "inf"
    assert parse_extended("5/3") == Fraction(5, 3)
    assert to_pair(INF) == (1, 0)
    assert to_pair(Fraction(-6, 8)) == (-3, 4) and to_pair(Fraction(5)) == (5, 1)


def test_lowest_terms_is_the_form_to_pair_gives():
    for pair in product(range(-6, 7), repeat=2):
        if any(pair):
            assert lowest_terms(pair) == to_pair(from_pair(pair)), pair
    assert lowest_terms((-3 * 2**200, 0)) == (1, 0)


def test_small_pairs_order_is_deterministic_by_height():
    first = list(islice(small_pairs(), 13))
    assert first == [
        (0, 1), (1, 1), (-1, 1),
        (2, 1), (-2, 1), (1, 2), (-1, 2),
        (3, 1), (-3, 1), (3, 2), (-3, 2),
        (1, 3), (-1, 3),
    ]
    assert first == list(islice(small_pairs(), 13))


def test_primitive_normalization():
    assert primitive((Fraction(1, 2), Fraction(-3, 4), 0)) == (2, -3, 0)
    assert primitive((-2, -4, -6)) == (1, 2, 3)
    assert primitive((0, Fraction(-5), 0)) == (0, 1, 0)
    assert primitive((2**1000 * 3, 2**1000 * 6, 0)) == (1, 2, 0)
    assert primitive((Fraction(1, 3), 2, Fraction(-1, 6))) == (2, 12, -1)
    assert primitive((0, Fraction(-2, 9), Fraction(4, 3))) == (0, 1, -6)
    with pytest.raises(ValueError):
        primitive((0, 0, 0))


def _primitive_reference(values):
    """Clear denominators with their lcm, divide by the gcd, make the first nonzero positive."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*ints)
    lead = next(n for n in ints if n != 0)
    return tuple(n // g if lead > 0 else -n // g for n in ints)


def test_primitive_matches_lcm_gcd_formula():
    # the all-int gcd path and the Fraction fallback against the formula written out;
    # the fallback must still run if math.gcd ever accepts a Fraction
    rng = random.Random(29)
    entry = {
        "int": lambda: rng.randint(-50, 50),
        "zero": lambda: 0,
        "fraction": lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 40)),
        "huge": lambda: rng.randint(-9, 9) * 2**1000,
    }
    kinds = list(entry)
    checked = 0
    for _ in range(2000):
        size = rng.choice((2, 3, 6, 9))
        values = [entry[rng.choice(kinds)]() for _ in range(size)]
        if rng.random() < 0.3:
            values = [v * -(2**1000) for v in values]  # a negative multiple of a 2^1000 scale
        if not any(values):
            with pytest.raises(ValueError):
                primitive(values)
            continue
        got = primitive(values)
        assert got == _primitive_reference(values)
        assert all(type(n) is int for n in got)
        checked += 1
    assert checked > 1500

