"""Exception types shared across the package."""


class CD2DError(Exception):
    """Base class for all package-specific errors."""


class MalformedSpec(CD2DError):
    """Problem data violates a structural requirement (epsilon range, d in
    (0,1)) or, sampled on a mesh, the hypotheses on a, b and f."""


class GeometryError(CD2DError):
    """No fitted mesh exists for these parameters: N is not a multiple of 8
    of at least 8, or the layer pieces would overlap or collapse."""


class SingularMatrix(CD2DError):
    """Direct factorization broke down, or its solution holds NaN or Inf."""


class MeshMismatch(CD2DError):
    """Operands do not fit one mesh: a vector of the wrong size for its
    system, axes of different lengths, or a fine mesh that does not have
    2N intervals or does not span the coarse one."""


# what a sweep cell records and solve or verify report as a solver failure
CONTAINED_FAILURES = (CD2DError, MemoryError)
