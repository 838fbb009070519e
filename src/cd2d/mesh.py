"""Fitted piecewise-uniform tensor meshes.

The x-axis is split into four pieces

    [0, d1-sigma_x], [d1-sigma_x, d1], [d1, 1-sigma_x], [1-sigma_x, 1]

with N/4 intervals each, so the fine pieces resolve the exponential layers
ahead of x = d1 and x = 1.  The y-axis is split into six pieces

    [0, s], [s, d2-s], [d2-s, d2], [d2, d2+s], [d2+s, 1-s], [1-s, 1],
    s = sigma_y,

with N/8, N/4, N/8, N/8, N/4, N/8 intervals, resolving the characteristic
layers along y = 0, y = 1 and both sides of y = d2.  Transition widths:

    sigma_x = min(d1/2, (2 eps^2 / alpha) ln N)
    sigma_y = min(d2/4, (2 eps / beta) ln N)

Breakpoints (in particular d1 and d2 at index N/2) are assigned exactly,
never accumulated, because row selection in the discretization keys on the
interface indices.  ``build_tensor_mesh`` is the one place that computes
the widths and builds the axes; a mesh is the two sorted point arrays plus
sigma_x and sigma_y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GeometryError
from .problems import ProblemSpec, check_mesh_parameter


@dataclass(frozen=True, eq=False)
class TensorMesh:
    """Sorted point arrays of both axes, each with n + 1 entries."""
    x: np.ndarray
    y: np.ndarray
    sigma_x: float
    sigma_y: float

    def __post_init__(self):
        if self.x.size != self.y.size:
            raise DimensionMismatch(f"axes disagree: {self.x.size - 1} x-intervals"
                                    f" vs {self.y.size - 1} y-intervals")

    @property
    def n(self) -> int:
        """Mesh intervals per axis (points are (n+1) x (n+1))."""
        return self.x.size - 1


def _piecewise_uniform(breakpoints: tuple[float, ...], counts: tuple[int, ...],
                       axis: str) -> np.ndarray:
    """Uniform points inside each piece; piece endpoints assigned exactly."""
    for left, right in zip(breakpoints[:-1], breakpoints[1:]):
        if not right > left:
            raise GeometryError(f"{axis}-pieces out of order: {left} >= {right}")
    total = sum(counts)
    pts = np.empty(total + 1)
    pos = 0
    for (left, right), cnt in zip(zip(breakpoints[:-1], breakpoints[1:]), counts):
        width = (right - left) / cnt
        pts[pos:pos + cnt] = left + width * np.arange(cnt)
        pts[pos] = left
        pos += cnt
    pts[total] = breakpoints[-1]
    if not np.all(np.diff(pts) > 0):
        raise GeometryError(f"{axis}-mesh is not strictly increasing")
    return pts


def build_mesh_x(N: int, sx: float, d1: float) -> np.ndarray:
    """Four-piece x-mesh with N/4 intervals per piece."""
    if sx <= 0.0 or sx > d1 / 2.0 + 1e-15:
        raise GeometryError(f"sigma_x = {sx} outside (0, d1/2] for d1 = {d1}")
    if 1.0 - sx <= d1:
        raise GeometryError(
            f"layer piece [1-sigma_x, 1] with sigma_x = {sx} overlaps d1 = {d1}")
    quarter = N // 4
    breakpoints = (0.0, d1 - sx, d1, 1.0 - sx, 1.0)
    return _piecewise_uniform(breakpoints, (quarter,) * 4, "x")


def build_mesh_y(N: int, sy: float, d2: float) -> np.ndarray:
    """Six-piece y-mesh with counts (N/8, N/4, N/8, N/8, N/4, N/8)."""
    if sy <= 0.0 or sy > d2 / 4.0 + 1e-15:
        raise GeometryError(f"sigma_y = {sy} outside (0, d2/4] for d2 = {d2}")
    if 1.0 - sy <= d2 + sy:
        raise GeometryError(
            f"layer pieces around y = {d2} and y = 1 overlap for sigma_y = {sy}")
    eighth, quarter = N // 8, N // 4
    breakpoints = (0.0, sy, d2 - sy, d2, d2 + sy, 1.0 - sy, 1.0)
    counts = (eighth, quarter, eighth, eighth, quarter, eighth)
    return _piecewise_uniform(breakpoints, counts, "y")


# Every coordinate lies in [0, 1], where one ulp is at most 2^-53.  A point
# left + w*k carries a rounding error below 1.5 ulp, so a piece of spacing
# w > 5 ulp gives computed neighbours at least 2 ulp apart, and the midpoint
# that bisection inserts still falls strictly between them.  The fine
# pieces keep w >= _MIN_SPACING = 8 ulp, which leaves room for the rounding
# of the breakpoints and of w itself.
_MIN_SPACING = 4.0 * float(np.spacing(1.0))


def build_tensor_mesh(spec: ProblemSpec, N: int) -> TensorMesh:
    """Fitted mesh with the min-formula transition widths; N a multiple of 8."""
    check_mesh_parameter(N)
    log_n = math.log(N)
    sx = min(spec.d1 / 2.0, (2.0 * spec.epsilon ** 2 / spec.alpha) * log_n)
    sy = min(spec.d2 / 4.0, (2.0 * spec.epsilon / spec.beta) * log_n)
    if sx < (N // 4) * _MIN_SPACING or sy < (N // 8) * _MIN_SPACING:
        eps_min = max(
            math.sqrt(spec.alpha * (N // 4) * _MIN_SPACING / (2.0 * log_n)),
            spec.beta * (N // 8) * _MIN_SPACING / (2.0 * log_n))
        raise GeometryError(
            f"eps = {spec.epsilon:g} is below {eps_min:.3g}, the smallest eps "
            f"whose layer pieces a mesh with N = {N} can resolve in double "
            f"precision (d1 = {spec.d1:g}, alpha = {spec.alpha:g})")
    return TensorMesh(x=build_mesh_x(N, sx, spec.d1),
                      y=build_mesh_y(N, sy, spec.d2), sigma_x=sx, sigma_y=sy)


def bisect(mesh: TensorMesh) -> TensorMesh:
    """Midpoint refinement: old points land at even indices bitwise, and
    the transition widths of ``mesh`` are kept."""
    x, y = np.empty(2 * mesh.n + 1), np.empty(2 * mesh.n + 1)
    for out, pts in ((x, mesh.x), (y, mesh.y)):
        out[0::2] = pts
        out[1::2] = 0.5 * (pts[:-1] + pts[1:])
    return TensorMesh(x=x, y=y, sigma_x=mesh.sigma_x, sigma_y=mesh.sigma_y)
