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
interface indices.  ``build_tensor_mesh`` is the one place that builds a
mesh, and this module owns its rules: the N rule (``check_mesh_parameter``),
the size rule (every ``TensorMesh`` has N <= ``MAX_N``, since assembly's CSR
indices are int32; ``build_tensor_mesh`` checks it before either axis
exists), the floor below which double precision cannot resolve a
layer piece (d1/2, d2/4 or eps too small) and the overlap rules
(1 - sigma_x > d1, 1 - sigma_y > d2 + sigma_y).  A mesh is the two sorted
point arrays plus sigma_x and sigma_y.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import GeometryError, MeshMismatch

if TYPE_CHECKING:   # problems imports this module
    from .problems import ProblemSpec

# the largest N (a multiple of 8) whose 7 (N+1)^2 CSR slots fit int32
MAX_N = 17512


@dataclass(frozen=True, eq=False)
class TensorMesh:
    """Sorted point arrays of both axes, each with n + 1 <= MAX_N + 1."""
    x: np.ndarray
    y: np.ndarray
    sigma_x: float
    sigma_y: float

    def __post_init__(self):
        if self.x.size != self.y.size:
            raise MeshMismatch(f"axes disagree: {self.x.size - 1} x-intervals"
                               f" vs {self.y.size - 1} y-intervals")
        _check_mesh_size(self.n)

    @property
    def n(self) -> int:
        """Mesh intervals per axis (points are (n+1) x (n+1))."""
        return self.x.size - 1


def _piecewise_uniform(breakpoints: tuple[float, ...], counts: tuple[int, ...],
                       axis: str) -> np.ndarray:
    """Uniform points inside each piece; piece endpoints assigned exactly."""
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


def _check_mesh_size(N: int) -> None:
    if N > MAX_N:
        raise GeometryError(f"N = {N} overflows the int32 CSR indices")


def check_mesh_parameter(N: int) -> None:
    if not isinstance(N, numbers.Integral) or N < 8 or N % 8 != 0:
        raise GeometryError(
            f"N must be a multiple of 8 and at least 8, got {N}")


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
    eighth, quarter = N // 8, N // 4
    d1, d2 = spec.d1, spec.d2
    # sigma_x <= d1/2 spans N/4 spacings and sigma_y <= d2/4 spans N/8, so
    # whatever eps is, d1 and d2 need N/2 spacings
    d_min = (N // 2) * _MIN_SPACING
    for label, d in (("d1", d1), ("d2", d2)):
        if d < d_min:
            raise GeometryError(
                f"{label} = {d:g} is below {d_min:.3g}, the smallest {label} "
                f"whose layer pieces a mesh with N = {N} can resolve in "
                "double precision at any eps")
    sx = min(d1 / 2.0, (2.0 * spec.epsilon ** 2 / spec.alpha) * log_n)
    sy = min(d2 / 4.0, (2.0 * spec.epsilon / spec.beta) * log_n)
    if sx < quarter * _MIN_SPACING or sy < eighth * _MIN_SPACING:
        eps_min = max(
            math.sqrt(spec.alpha * quarter * _MIN_SPACING / (2.0 * log_n)),
            spec.beta * eighth * _MIN_SPACING / (2.0 * log_n))
        raise GeometryError(
            f"eps = {spec.epsilon:g} is below {eps_min:.3g}, the smallest eps "
            f"whose layer pieces a mesh with N = {N} can resolve in double "
            f"precision (d1 = {d1:g}, alpha = {spec.alpha:g})")
    if 1.0 - sx <= d1:
        raise GeometryError(
            f"layer piece [1-sigma_x, 1] with sigma_x = {sx} overlaps d1 = {d1}")
    if 1.0 - sy <= d2 + sy:
        raise GeometryError(
            f"layer pieces around y = {d2} and y = 1 overlap for sigma_y = {sy}")
    _check_mesh_size(N)   # before the axes, which take 24 bytes an interval
    x = _piecewise_uniform((0.0, d1 - sx, d1, 1.0 - sx, 1.0), (quarter,) * 4, "x")
    y = _piecewise_uniform((0.0, sy, d2 - sy, d2, d2 + sy, 1.0 - sy, 1.0),
                           (eighth, quarter, eighth, eighth, quarter, eighth), "y")
    return TensorMesh(x=x, y=y, sigma_x=sx, sigma_y=sy)


def bisect(mesh: TensorMesh) -> TensorMesh:
    """Midpoint refinement: old points land at even indices bitwise, and
    the transition widths of ``mesh`` are kept."""
    x, y = np.empty(2 * mesh.n + 1), np.empty(2 * mesh.n + 1)
    for out, pts in ((x, mesh.x), (y, mesh.y)):
        out[0::2] = pts
        out[1::2] = 0.5 * (pts[:-1] + pts[1:])
    return TensorMesh(x=x, y=y, sigma_x=mesh.sigma_x, sigma_y=mesh.sigma_y)
