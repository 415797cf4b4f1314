"""The closed-form 3x3 algebra against its index-sum definitions."""

import random

import pytest

from traversale.linalg import adjugate, det3, mat_mul, mat_vec, transpose

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
