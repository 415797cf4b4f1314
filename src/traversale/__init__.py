"""Exact-rational projective geometry around Desargues' theory of polarity.

Synthetic ruler constructions (traversales from inscribed quadrangles,
involutions from rectangle identities) and the algebraic quadratic-form
operators (polars, poles, polarity involutions) live side by side and are
verified against each other, exactly, over the rationals.
"""

from fractions import Fraction

from .numbers import INF, ExtRat, parse_extended, parse_rational
from .errors import *  # noqa: F401,F403 -- the error names are part of the API
from .projective import (
    LINE_AT_INFINITY,
    FramedLine,
    FramedPoint,
    Homography,
    LineChart,
    PLine,
    PPoint,
    canonical_basis,
    canonical_chart,
    collinear,
    concurrent,
    cross_ratio,
    harmonic_conjugate,
    join,
    meet,
)
from .involution import (
    InvolutionKind,
    InvolutionOnLine,
    PointPair,
    arbre_check,
    classify_and_fixed_points,
    contains_pair,
    desargues_condition_check,
    fixed_pairs,
    interleaved,
    involution_from_two_pairs,
    ramee_project,
    souche_of,
)
from .conic import (
    AffineFeatures,
    AffineKind,
    Classification,
    Conic,
    ConicClass,
    RationalParametrization,
    affine_features,
    classify,
    conic_from_five_points,
    find_rational_point,
    is_tangent_line,
    line_intersect,
    polar,
    polarity_involution_on_line,
    pole,
    rational_parametrize,
    second_intersection,
    tangent_at,
    tangents_from,
    transform,
)

__version__ = "0.1.0"
