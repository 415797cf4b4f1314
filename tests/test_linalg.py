"""The closed-form 3x3 algebra against its index-sum definitions, and each shape's reduction against `primitive`."""

import random
from fractions import Fraction
from itertools import product

import pytest

from traversale import CoincidentLines, CoincidentPoints, Conic, Homography, PLine, PPoint, ZeroForm
from traversale.linalg import (
    adjugate, congruence, det3, mat_mul, mat_vec, primitive, primitive_rows, primitive_rows2, primitive_triple, transpose,
)

R = range(3)


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in R) for j in R) for i in R)


def _transpose(m):
    return tuple(tuple(m[j][i] for j in R) for i in R)


def _minor(m, i, j):
    (a, b), (c, d) = [[m[r][s] for s in R if s != j] for r in R if r != i]
    return a * d - b * c


def _adjugate(m):  # the transposed cofactor matrix
    return tuple(tuple((-1) ** (i + j) * _minor(m, j, i) for j in R) for i in R)


def _det3(m):  # Laplace expansion along the first row
    return sum((-1) ** j * m[0][j] * _minor(m, 0, j) for j in R)


def _matrices(bits, n=60, seed=0):
    rng = random.Random(f"linalg:{bits}:{seed}")
    top = 1 << bits
    for _ in range(n):
        yield tuple(tuple(rng.randint(-top, top) for _ in R) for _ in R)


@pytest.mark.parametrize("bits", [2, 8, 64, 1000])
def test_closed_forms_match_the_index_sums(bits):
    ms = list(_matrices(bits))
    for a, b in zip(ms, ms[1:]):
        assert mat_mul(a, b) == _mat_mul(a, b)
        assert transpose(a) == _transpose(a)
        assert adjugate(a) == _adjugate(a)
        assert det3(a) == _det3(a)
        v = b[0]
        assert mat_vec(a, v) == tuple(sum(a[i][k] * v[k] for k in R) for i in R)
        sym = tuple(tuple(a[i][j] + a[j][i] for j in R) for i in R)
        assert congruence(sym, b) == _mat_mul(_mat_mul(_transpose(b), sym), b)


@pytest.mark.parametrize("bits", [2, 8, 64, 1000])
def test_adjugate_times_matrix_is_det_times_identity(bits):
    for m in _matrices(bits, seed=1):
        d = det3(m)
        identity_times_d = tuple(tuple(d if i == j else 0 for j in R) for i in R)
        assert mat_mul(adjugate(m), m) == identity_times_d == mat_mul(m, adjugate(m))


def test_singular_and_list_inputs():
    singular = ((1, 2, 3), (2, 4, 6), (0, 1, 5))
    assert det3(singular) == 0
    assert mat_mul(adjugate(singular), singular) == ((0, 0, 0),) * 3
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert transpose(rows) == ((1, 4, 7), (2, 5, 8), (3, 6, 10))
    assert mat_mul(rows, rows) == _mat_mul(rows, rows)


def _flat(m):
    return tuple(x for row in m for x in row)


def test_reductions_match_primitive_on_every_small_entry():
    # triples and 2x2 matrices with entries in [-2, 2], 3x3 matrices with entries in [-1, 1]
    for v in product(range(-2, 3), repeat=3):
        if any(v):
            assert primitive_triple(*v) == primitive(v), v
    for shape, values, reduce in (((2, 2), range(-2, 3), primitive_rows2), ((3, 3, 3), range(-1, 2), primitive_rows)):
        for flat in product(values, repeat=len(shape) ** 2):
            if any(flat):
                m = tuple(flat[i : i + len(shape)] for i in range(0, len(flat), len(shape)))
                got = reduce(m)
                assert _flat(got) == primitive(flat) and tuple(map(len, got)) == shape, m


@pytest.mark.parametrize("top, cases", [(3, 2000), (1 << 1236, 200)], ids=["small", "1300-bit"])
def test_3x3_reduction_matches_primitive_on_a_seeded_sample(top, cases):
    # entries in [-3, 3], or of about 1,300 bits, times a common factor of up to 64 bits and either sign
    rng = random.Random(f"primitive_rows:{top.bit_length()}")
    for _ in range(cases):
        scale = rng.choice((1, -1)) * rng.randint(1, 1 << 64 if top > 3 else 3)
        m = tuple(tuple(scale * rng.randint(-top, top) for _ in R) for _ in R)
        if any(_flat(m)):
            got = primitive_rows(m)
            assert _flat(got) == primitive(_flat(m)) and tuple(map(len, got)) == (3, 3, 3), m


def test_fraction_entries_are_read_once(fraction_count):
    # each reduction with its arguments, built before counting starts, and its result
    cases = {
        "triple": (primitive_triple, (Fraction(1, 2), -3, Fraction(-5, 4)), (2, -12, -5)),
        "2x2": (primitive_rows2, (((Fraction(-1, 3), 1), (0, Fraction(1, 6))),), ((2, -6), (0, -1))),
        "3x3": (
            primitive_rows,
            (((0, 0, Fraction(-2, 9)), (0, 1, 0), (Fraction(4, 3), 0, 0)),),
            ((0, 0, 2), (0, -9, 0), (-12, 0, 0)),
        ),
    }
    for label, (reduce, args, expected) in cases.items():
        fraction_count.label = label
        assert reduce(*args) == expected, label
    fraction_count.label = None
    # one gcd TypeError per call, and no Fraction built: the denominators are cleared once
    assert fraction_count.counts == {(label, "primitive"): 1 for label in cases}


def test_bool_entries_are_stored_as_int():
    stored = [
        primitive_triple(True, False, True),
        primitive_triple(False, -True, True),
        *primitive_rows2(((True, False), (False, -True))),
        *primitive_rows(((True, False, False), (False, True, False), (False, False, True))),
        PPoint(True, 0, 1).coords,
        PLine(False, True, -True).coeffs,
        *Conic(((True, False, False), (False, True, False), (False, False, -True))).matrix,
        *Homography(((True, False, False), (False, True, False), (False, False, True))).matrix,
    ]
    assert all(type(x) is int for entries in stored for x in entries), stored
    assert repr(PPoint(True, 0, 1)) == "PPoint(1, 0, 1)"
    assert stored[1] == (0, 1, -1)


def test_the_zero_vector_keeps_its_named_errors():
    zeros = (
        lambda: primitive_triple(0, 0, 0),
        lambda: primitive_rows2(((0, 0), (0, 0))),
        lambda: primitive_rows(((0, 0, 0),) * 3),
        lambda: primitive((0,) * 6),
    )
    for reduce in zeros:
        with pytest.raises(ValueError, match="^zero vector has no primitive form$"):
            reduce()
    with pytest.raises(CoincidentPoints, match=r"^\(0, 0, 0\) is not a projective point$"):
        PPoint(0, 0, Fraction(0))
    with pytest.raises(CoincidentLines, match=r"^\[0, 0, 0\] is not a line$"):
        PLine(False, 0, 0)
    with pytest.raises(ZeroForm, match="^the zero form defines no conic$"):
        Conic(((0, 0, 0),) * 3)
