"""Small exact linear algebra on integer homogeneous vectors and matrices.

Projective objects are stored as primitive integer vectors and matrices
(coprime entries, first nonzero entry positive), which makes equality up to
scale a plain tuple comparison.  Every entry the kernel computes with is an
`int`, and this module builds no `Fraction`.  Rational input becomes integer
in one place, :func:`primitive`: an all-`int` vector costs one gcd, and only
a vector holding a `Fraction` (on which `math.gcd` raises TypeError) has its
denominators cleared with integer lcm/gcd.  Matrices are 3x3 or 2x2, and
every operation on them is a closed form: cross products, determinants and
adjugates.
"""

from __future__ import annotations

import math
from itertools import islice

Vec3 = tuple[int, int, int]
Mat3 = tuple[Vec3, Vec3, Vec3]
Mat2 = tuple[tuple[int, int], tuple[int, int]]


def primitive(values) -> tuple[int, ...]:
    """Scale a sequence of ints and Fractions to coprime integers, first nonzero positive.

    All-int input takes one gcd; otherwise each entry's numerator and
    denominator are read, and no Fraction is built.  Raises ValueError on
    the zero vector.
    """
    try:
        g = math.gcd(*values)
        ints = values
    except TypeError:
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
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def mat_mul(m, n):
    (a, b, c), (d, e, f), (g, h, i) = m
    (p, q, r), (s, t, u), (v, w, x) = n
    return (
        (a * p + b * s + c * v, a * q + b * t + c * w, a * r + b * u + c * x),
        (d * p + e * s + f * v, d * q + e * t + f * w, d * r + e * u + f * x),
        (g * p + h * s + i * v, g * q + h * t + i * w, g * r + h * u + i * x),
    )


def transpose(m):
    return tuple(zip(*m))


def det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate(m) -> Mat3:
    """Adjugate matrix: adj(m) @ m = det(m) * I, all integer."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
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

