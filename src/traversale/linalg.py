"""Small exact linear algebra on integer homogeneous vectors and matrices.

Projective objects are stored as primitive integer vectors and matrices
(coprime entries, first nonzero entry positive), which makes equality up to
scale a plain tuple comparison.  Every entry the kernel computes with is an
`int`, and this module builds no `Fraction`.  Rational input becomes integer
in one place: an entry list holding a `Fraction` (on which `math.gcd`
raises TypeError) has its denominators cleared with integer lcm/gcd, once.
Each shape the kernel stores has its own closed-form reduction, one gcd and
one tuple of floor divisions over unpacked entries: :func:`primitive_triple`
for points, lines and frame vectors, :func:`primitive_rows2` for the 2x2
involution matrices and :func:`primitive_rows` for the 3x3 conic and
homography matrices.  The generic :func:`primitive` serves other lengths,
such as a conic's six coefficients.  Matrices are 3x3 or 2x2, and every
operation on them is a closed form: cross products, determinants,
adjugates and the congruence N^T M N of a symmetric form.
"""

from __future__ import annotations

import math

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
    except TypeError:
        return primitive(_cleared(values))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(filter(None, values)) < 0:
        g = -g
    return tuple([n // g for n in values])


def _cleared(values) -> list[int]:
    """Entries holding a Fraction times the lcm of their denominators: integers in the same ratio."""
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)]


def primitive_triple(a, b, c) -> Vec3:
    """:func:`primitive` of the triple (a, b, c), in closed form."""
    try:
        g = math.gcd(a, b, c)
    except TypeError:
        a, b, c = _cleared((a, b, c))
        g = math.gcd(a, b, c)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if (a or b or c) < 0:
        g = -g
    return (a // g, b // g, c // g)


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


def congruence(m, n) -> Mat3:
    """N^T M N for a symmetric m, itself symmetric: six entries from the columns of n and of M N."""
    (n00, n01, n02), (n10, n11, n12), (n20, n21, n22) = n
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = mat_mul(m, n)
    r01 = n00 * p01 + n10 * p11 + n20 * p21
    r02 = n00 * p02 + n10 * p12 + n20 * p22
    r12 = n01 * p02 + n11 * p12 + n21 * p22
    return (
        (n00 * p00 + n10 * p10 + n20 * p20, r01, r02),
        (r01, n01 * p01 + n11 * p11 + n21 * p21, r12),
        (r02, r12, n02 * p02 + n12 * p12 + n22 * p22),
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


def primitive_rows(rows) -> Mat3:
    """:func:`primitive` of a 3x3 matrix's nine entries, in closed form, keeping its row shape."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    try:
        n = math.gcd(a, b, c, d, e, f, g, h, i)
    except TypeError:
        a, b, c, d, e, f, g, h, i = _cleared((a, b, c, d, e, f, g, h, i))
        n = math.gcd(a, b, c, d, e, f, g, h, i)
    if n == 0:
        raise ValueError("zero vector has no primitive form")
    if (a or b or c or d or e or f or g or h or i) < 0:
        n = -n
    return ((a // n, b // n, c // n), (d // n, e // n, f // n), (g // n, h // n, i // n))


def primitive_rows2(rows) -> Mat2:
    """:func:`primitive` of a 2x2 matrix's four entries, in closed form, keeping its row shape."""
    (a, b), (c, d) = rows
    try:
        n = math.gcd(a, b, c, d)
    except TypeError:
        a, b, c, d = _cleared((a, b, c, d))
        n = math.gcd(a, b, c, d)
    if n == 0:
        raise ValueError("zero vector has no primitive form")
    if (a or b or c or d) < 0:
        n = -n
    return ((a // n, b // n), (c // n, d // n))


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

