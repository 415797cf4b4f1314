"""Small exact linear algebra on integer homogeneous vectors and matrices.

Projective objects are stored as primitive integer vectors and matrices
(coprime entries, first nonzero entry positive), which makes equality up to
scale a plain tuple comparison.  Every entry the kernel computes with is an
`int`.  Rational input becomes integer in one place, :func:`primitive`, which
reads the numerator and denominator of each `int` or `Fraction` entry and
clears denominators with integer lcm/gcd.  `Fraction` appears only at the
boundary: in :func:`nullspace`, the one rational solver, and in values that
are rational by nature and handed back to callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

Vec3 = tuple[int, int, int]
Mat3 = tuple[Vec3, Vec3, Vec3]
Mat2 = tuple[tuple[int, int], tuple[int, int]]


def primitive(values) -> tuple[int, ...]:
    """Scale a sequence of ints and Fractions to coprime integers, first nonzero positive.

    Reads each entry's numerator and denominator; builds no Fraction.
    Raises ValueError on the zero vector.
    """
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    ints = [v.numerator * (den // d) for v, d in zip(values, dens)]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(filter(None, ints)) < 0:
        g = -g
    return tuple([n // g for n in ints])


def cross(a, b) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def transpose(m):
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate(m) -> Mat3:
    """Adjugate matrix: adj(m) @ m = det(m) * I, all integer."""
    c = lambda i, j: m[i][j]
    return (
        (
            c(1, 1) * c(2, 2) - c(1, 2) * c(2, 1),
            c(0, 2) * c(2, 1) - c(0, 1) * c(2, 2),
            c(0, 1) * c(1, 2) - c(0, 2) * c(1, 1),
        ),
        (
            c(1, 2) * c(2, 0) - c(1, 0) * c(2, 2),
            c(0, 0) * c(2, 2) - c(0, 2) * c(2, 0),
            c(0, 2) * c(1, 0) - c(0, 0) * c(1, 2),
        ),
        (
            c(1, 0) * c(2, 1) - c(1, 1) * c(2, 0),
            c(0, 1) * c(2, 0) - c(0, 0) * c(2, 1),
            c(0, 0) * c(1, 1) - c(0, 1) * c(1, 0),
        ),
    )


def primitive_rows(rows) -> tuple[tuple[int, ...], ...]:
    """:func:`primitive` applied to a whole matrix, keeping its row shape."""
    flat = iter(primitive([x for row in rows for x in row]))
    return tuple(tuple(islice(flat, len(row))) for row in rows)


def mat2_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def adjugate2(m):
    """Adjugate of a 2x2 matrix: adjugate2(m) @ m = det2(m) * I."""
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def solve2(a, b, rhs):
    """Solve [a b] (x, y) = rhs for 2-vectors a, b (columns), by Cramer's rule.

    Returns integers (x, y, d) meaning the solution (x/d, y/d), d nonzero,
    or None when the columns are dependent.
    """
    d = a[0] * b[1] - a[1] * b[0]
    if d == 0:
        return None
    return (rhs[0] * b[1] - rhs[1] * b[0], a[0] * rhs[1] - a[1] * rhs[0], d)


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the nullspace of a rational matrix, by Gaussian elimination."""
    mat = [list(map(Fraction, row)) for row in rows]
    nrows = len(mat)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis
