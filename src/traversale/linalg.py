"""Small exact linear algebra over the integers and rationals.

Projective objects are stored as primitive integer vectors and matrices
(coprime entries, first nonzero entry positive), which makes equality up to
scale a plain tuple comparison.  The stored entries are `int`, but
:func:`primitive` reaches them through `Fraction`: every entry is lifted to a
Fraction, scaled by the common denominator and divided by the gcd, even when
the input is already integral.  Anything returned to callers that is
genuinely rational uses Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

Vec3 = tuple[int, int, int]
Mat3 = tuple[Vec3, Vec3, Vec3]
Mat2 = tuple[tuple[int, int], tuple[int, int]]


def primitive(values) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero positive.

    Raises ValueError on the zero vector.
    """
    fracs = [Fraction(v) for v in values]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive form")
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for n in ints:
        g = math.gcd(g, n)
    ints = [n // g for n in ints]
    for n in ints:
        if n != 0:
            if n < 0:
                ints = [-m for m in ints]
            break
    return tuple(ints)


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


def primitive_mat3(rows) -> Mat3:
    flat = [x for row in rows for x in row]
    p = primitive(flat)
    return (tuple(p[0:3]), tuple(p[3:6]), tuple(p[6:9]))


def primitive_mat2(rows) -> Mat2:
    flat = [x for row in rows for x in row]
    p = primitive(flat)
    return (tuple(p[0:2]), tuple(p[2:4]))


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
    """Solve [a b] x = rhs for 2-vectors a, b (columns); exact Fractions.

    Returns None when the columns are dependent.
    """
    d = a[0] * b[1] - a[1] * b[0]
    if d == 0:
        return None
    x = Fraction(rhs[0] * b[1] - rhs[1] * b[0], d)
    y = Fraction(a[0] * rhs[1] - a[1] * rhs[0], d)
    return (x, y)


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
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
