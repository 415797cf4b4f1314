"""Exception hierarchy.

Every geometric precondition violation raises a named subclass of
:class:`GeometryError`, so callers (and the CLI) can distinguish a bad
input from a failed theorem check.  Scene-file problems get their own
branch under :class:`SceneError`.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


# numbers -------------------------------------------------------------------

class TooManyDigits(GeometryError, ValueError):
    """An integer has more decimal digits than Python converts to or from text.

    The limit is ``sys.get_int_max_str_digits()`` (4300 by default); it
    guards against quadratic-time conversion and is left in place.  Also a
    ValueError, so that a literal over the limit is a malformed literal.
    """


# projective core -----------------------------------------------------------

class CoincidentPoints(GeometryError):
    """join() needs two distinct points."""


class CoincidentLines(GeometryError):
    """meet() needs two distinct lines."""


class NotOnLine(GeometryError):
    """A point expected to be incident to a line is not."""


class DegenerateQuadruple(GeometryError):
    """Cross-ratio needs a, b, c pairwise distinct."""


class ConjugateUndefined(GeometryError):
    """Harmonic conjugate of a base point of the pair is undefined."""


class SingularMatrix(GeometryError):
    """A homography matrix must be invertible."""


class DegenerateChart(GeometryError, ValueError):
    """A line chart needs three pairwise distinct reference points.

    Also a ValueError, since a repeated reference point is a bad argument
    value to the chart constructor.
    """


# involutions ---------------------------------------------------------------

class UnderdeterminedInvolution(GeometryError):
    """The given pairs do not pin down a unique involutive homography."""


class InfiniteNode(GeometryError):
    """The segment-product checkers only accept finite coordinates."""


class InvalidSouche(GeometryError):
    """The souche of an arbre must differ from all six nodes."""


class CenterOnLine(GeometryError):
    """A perspectivity center may not lie on either line."""


# conics --------------------------------------------------------------------

class ZeroForm(GeometryError):
    """The zero matrix does not define a conic."""


class DegeneratePointSet(GeometryError):
    """Five points that fail to determine a unique conic."""


class TotallyIsotropicPoint(GeometryError):
    """The point annihilates the form; it has no polar."""


class DegenerateConic(GeometryError):
    """Operation requires a rank-3 form."""


class IrrationalIntersection(GeometryError):
    """Real intersection points exist but are not rational.

    The exact discriminant of the restricted quadratic is carried in
    :attr:`discriminant`; it is positive and not a rational square.
    """

    def __init__(self, discriminant, message: str = ""):
        self.discriminant = discriminant
        if not message:
            try:
                message = f"irrational intersection, discriminant {discriminant}"
            except ValueError:  # too many digits to print; the search that raised it may go on
                message = f"irrational intersection, discriminant of {discriminant.bit_length()} bits"
        super().__init__(message)


class LineOnConic(GeometryError):
    """The line is a component of the (degenerate) conic."""


class TangentLine(GeometryError):
    """Tangent lines carry no polarity involution."""


class LineMissesConic(GeometryError):
    """Operation requires the line to meet the conic."""


class InteriorPoint(GeometryError):
    """No real tangents pass through an interior point."""


class OnConic(GeometryError):
    """The point lies on the conic, where the construction degenerates."""


class NotOnConic(GeometryError):
    """A point expected on the conic is not."""


class BasePointNotOnConic(GeometryError):
    """Rational parametrization needs its base point on the conic."""


class NoRationalSecants(GeometryError):
    """A bounded search found no rational point, or too few rational secants."""


# synthetic constructions ---------------------------------------------------

class DegenerateQuadrangle(GeometryError):
    """Four bornes must be distinct with no three collinear."""


class BasePointOnLine(GeometryError):
    """The pencil theorem needs a line avoiding the four base points."""


class VertexOnTransversal(GeometryError):
    """A Menelaus transversal may not pass through a vertex."""


class NotADiameter(GeometryError):
    """A conjugate diameter is only defined for lines through the center."""


# harness -------------------------------------------------------------------

class SceneError(Exception):
    """Base class for scene-file and harness errors."""


class ParseError(SceneError):
    """Malformed scene input, with 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class UnknownReference(SceneError):
    """A command referenced a name that was never defined."""


class UnknownSuite(SceneError):
    """verify was asked for a suite id it does not know."""


class InvalidCaseCount(SceneError):
    """verify was asked for fewer than one case per property."""


class EmptyViewport(SceneError):
    """Rendering viewport has zero or negative area."""


class ViewportOutOfRange(SceneError):
    """Rendering viewport whose size or aspect ratio overflows a float."""
