"""Scalar layer: exact parsing/formatting, enumerations, primitive vectors."""

from fractions import Fraction
from itertools import islice

import pytest

from traversale.linalg import primitive
from traversale.numbers import (
    INF,
    format_extended,
    format_rational,
    parse_extended,
    parse_rational,
    small_extended,
    small_rationals,
    to_pair,
)


def test_rational_text_round_trip():
    for text, value in (("3/4", Fraction(3, 4)), ("-7", Fraction(-7)), ("+2/6", Fraction(1, 3))):
        assert parse_rational(text) == value
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 2)) == "4"
    assert parse_rational(format_rational(Fraction(-22, 7))) == Fraction(-22, 7)


@pytest.mark.parametrize("bad", ["1/0", "a", "1.5", "1/ 2", ""])
def test_rational_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_extended_round_trip():
    assert parse_extended("inf") is INF
    assert format_extended(INF) == "inf"
    assert parse_extended("5/3") == Fraction(5, 3)
    assert to_pair(INF) == (1, 0)
    assert to_pair(Fraction(-6, 8)) == (-3, 4) and to_pair(Fraction(5)) == (5, 1)


def test_small_rationals_order_is_deterministic_by_height():
    first = list(islice(small_rationals(), 13))
    assert first == [
        Fraction(0), Fraction(1), Fraction(-1),
        Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2),
        Fraction(3), Fraction(-3), Fraction(3, 2), Fraction(-3, 2),
        Fraction(1, 3), Fraction(-1, 3),
    ]
    assert first == list(islice(small_rationals(), 13))


def test_small_extended_puts_infinity_second():
    seq = list(islice(small_extended(), 4))
    assert seq[0] == 0 and seq[1] is INF and seq[2] == 1


def test_primitive_normalization():
    assert primitive((Fraction(1, 2), Fraction(-3, 4), 0)) == (2, -3, 0)
    assert primitive((-2, -4, -6)) == (1, 2, 3)
    assert primitive((0, Fraction(-5), 0)) == (0, 1, 0)
    assert primitive((2**1000 * 3, 2**1000 * 6, 0)) == (1, 2, 0)
    assert primitive((Fraction(1, 3), 2, Fraction(-1, 6))) == (2, 12, -1)
    assert primitive((0, Fraction(-2, 9), Fraction(4, 3))) == (0, 1, -6)
    with pytest.raises(ValueError):
        primitive((0, 0, 0))
