"""Exception hierarchy shared by all mongekit modules.

Every error raised on bad geometry or bad input derives from GeometryError,
so callers (the CLI in particular) can distinguish domain failures from bugs.
Errors that concern one shape pair carry the 1-based ``pair`` attribute.
"""


class GeometryError(ValueError):
    """Base class for all domain errors."""

    def __init__(self, message, pair=None):
        if pair is not None:
            message = f"pair {pair}: {message}"
        super().__init__(message)
        self.pair = pair


class InvalidInput(GeometryError):
    """A precondition on an argument was violated."""


class DimensionMismatch(GeometryError):
    """Inputs disagree on dimension or cardinality."""


class BackendMixError(GeometryError):
    """Exact (Fraction) and approximate (float) scalars mixed in one input."""


class DegenerateConfiguration(GeometryError):
    """Points span too low an affine dimension for the requested operation."""

    def __init__(self, message, span_dim=None, pair=None):
        super().__init__(message, pair=pair)
        self.span_dim = span_dim


class NonCoplanar(GeometryError):
    """Exact mode only: the points do not lie in any common hyperplane."""


class NotOnLine(GeometryError):
    """A point expected on a given line is off it beyond tolerance."""


class CoincidesWithVertex(GeometryError):
    """A division point coincides with one of the defining vertices."""


class EqualWeights(GeometryError):
    """Weight vector entries must be pairwise distinct (and positive)."""


class NotHomothetic(GeometryError):
    """No homothety maps the source shape onto the target."""


class RatioNotGreaterThanOne(GeometryError):
    """Detected ratio is 1 (translation) or below 1 (shrinking order)."""


class NonUniqueHomothety(GeometryError):
    """The shape pair does not pin down a unique homothety."""


class UnboundedShape(GeometryError):
    """Size is undefined because the shape is unbounded."""


class DegenerateShape(GeometryError):
    """Shape has zero diameter (or otherwise no usable extent)."""


class InfeasibleRegion(GeometryError):
    """Half-space constraints have empty intersection."""


class AntipodalPoints(GeometryError):
    """Spherical points are antipodal (or too close to it) for arc work."""


class ArcOrderViolation(GeometryError):
    """Required geodesic betweenness (a_j on the arc a_i..b) fails."""


class NotTimelike(GeometryError):
    """Hyperbolic point combination is not timelike, no hyperboloid image."""


class NotSpacelike(GeometryError):
    """Hyperbolic hyperplane normal must be spacelike."""


class GenerationError(GeometryError):
    """Random scenario generation exhausted its retry budget."""


class ScenarioError(GeometryError):
    """Scenario or report JSON violates the documented schema."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where

    def as_object(self):
        out = {"code": type(self).__name__, "message": str(self)}
        if self.where is not None:
            out["where"] = self.where
        return out
