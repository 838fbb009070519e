"""Exception types shared across the package."""


class CD2DError(Exception):
    """Base class for all package-specific errors."""


class MalformedSpec(CD2DError):
    """Problem data violates a structural requirement (epsilon range, d in
    (0,1)) or, sampled on a mesh, the hypotheses on a, b and f."""


class BadN(CD2DError):
    """Mesh parameter N is not a multiple of 8 or is too small."""


class GeometryError(CD2DError):
    """Layer pieces of the fitted mesh would overlap or collapse."""


class SingularMatrix(CD2DError):
    """Direct factorization broke down."""


class NonFiniteSolution(CD2DError):
    """Solve produced NaN or Inf entries."""


class DimensionMismatch(CD2DError):
    """Operands refer to different grid sizes."""


class MeshMismatch(CD2DError):
    """Fine mesh does not fit the coarse one: not 2N intervals or not
    spanning its axes."""
