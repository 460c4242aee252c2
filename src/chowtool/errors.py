"""Exception types shared across the package."""


class ChowToolError(Exception):
    """Base class for all package-specific errors."""


class NotFullDimensional(ChowToolError):
    """The point set does not affinely span the ambient space."""

    def __init__(self, ambient_dim, actual_dim):
        self.ambient_dim = ambient_dim
        self.actual_dim = actual_dim
        super().__init__(
            f"affine hull has dimension {actual_dim} < ambient {ambient_dim}"
        )


class NotReflexive(ChowToolError):
    """Operation requires all facet offsets to equal 1."""


class OriginNotInterior(ChowToolError):
    """Operation requires the origin in the interior of the polytope."""


class UnknownName(ChowToolError, KeyError):
    """Catalog lookup with a name that is not registered."""


class CoverageError(ChowToolError):
    """A triangulation does not cover its target region exactly."""


class NoStrategy(ChowToolError):
    """No built-in triangulation strategy applies and none was supplied."""


class NonIntegralCut(ChowToolError):
    """The unit vertex cut does not have an integral base."""


class OriginMissing(ChowToolError):
    """The polytope must contain the origin as a lattice point."""


class DegenerateSimplex(ChowToolError):
    """A simplex's vertices are affinely dependent, so it has no barycentric coordinates."""


class NoTriangulation(ChowToolError):
    """A carrier triangulation is required but unavailable."""


class ParseError(ChowToolError, ValueError):
    """Malformed JSON input."""


class CoefficientMismatch(ChowToolError):
    """Interpolated Ehrhart coefficients disagree with direct geometry."""


class LPUnbounded(ChowToolError):
    """The linear program is unbounded (impossible with box constraints)."""
