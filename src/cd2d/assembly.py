"""Sparse assembly of the hybrid upwind scheme.

Row shapes, with n mesh intervals per axis and half = n/2:

* interior points: standard 5-point upwind row from the nonuniform
  second-difference operators plus a backward first difference
  (a > 0 fixes the upwind direction),

    -eps^2 (d2_xx + d2_yy) U + a Dx^- U + b U = f;

* the vertical interface x = d1 (i = half): by default the transformed
  3-point transmission row obtained by eliminating U at i = half -+ 2 from
  the one-sided derivative-matching condition; its coefficients couple only
  (half-1, j), (half, j), (half+1, j) and its right-hand side carries the
  weighted one-sided source values.  The raw variant keeps the 5-point
  derivative-matching row (one-sided three-point first derivatives from
  both sides, equal right-hand sides, so rhs 0);

* the horizontal line y = d2 (j = half): midpoint upwind row whose
  coefficients a, b and source f are averaged over the two y-neighbours
  (f is two-valued on the line itself, the neighbours are off the line);

* the cross point (half, half) takes the interface-x row of the active
  variant, with the two one-sided source values replaced by their
  y-neighbour averages in the transformed case;

* boundary points: Dirichlet identity rows with the edge traces; the four
  points where a discontinuity line meets the boundary use the trace of
  the edge they sit on (west/east win at corners).

Interior, midpoint, raw-interface and Dirichlet rows are oriented with a
positive diagonal coefficient.  The transformed row keeps its derived
orientation; its center coefficient is positive for Example 1 but is not
positive in general (Example 2 drives it negative), which m_matrix_check
reports.  Unknowns are ordered row-major, flat = j*(n+1) + i.

``assemble_system`` is the only assembly path: it samples the problem once
(``sample_problem`` checks the hypotheses), lays every row class into a
table through the coefficient kernels below and emits it as CSR in place.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import MeshMismatch
from .mesh import TensorMesh
from .problems import ProblemSpec, sample_problem


class Variant(enum.Enum):
    TRANSFORMED = "transformed"
    RAW = "raw"


@dataclass(eq=False)
class LinearSystem:
    """The scheme on one mesh.  ``bound`` is the stability bound
    (1/alpha) max|f| + max|q| of the problem data ``assemble_system``
    sampled on the mesh (NaN for a system built without problem data).
    ``separable`` is the operator I (x) X + Y (x) D on the interior
    unknowns that the solver diagonalizes, read off the interior rows'
    coefficients as the flat (X, y_south, y_north, coupled): X's diagonals
    at offsets -2 to 2 (the rows' mean x-stencil, centre less the y-part),
    Y's entries down column i = 1 and D's diagonal, False only on x = d1
    (no y-coupling).  X[1, 0], X[3, -1], y_south[0] and y_north[-1] couple
    to the boundary.  It is None, and the solver takes the sparse LU,
    unless ``assemble_system`` found a and b within ``_MAX_Y_SPREAD`` of
    their means along y; a system built by hand has none.  A matrix or rhs
    that does not fit the mesh's (n+1)^2 unknowns raises ``MeshMismatch``."""
    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: TensorMesh
    bound: float = float("nan")
    separable: Optional[tuple] = None

    def __post_init__(self):
        dim = self.dimension
        if self.matrix.shape != (dim, dim) or np.shape(self.rhs) != (dim,):
            raise MeshMismatch(
                f"matrix {self.matrix.shape} and rhs {np.shape(self.rhs)} do "
                f"not fit the {dim} unknowns of the N = {self.mesh.n} mesh")

    @property
    def dimension(self) -> int:
        return (self.mesh.n + 1) ** 2


# ---------------------------------------------------------------------------
# Coefficient kernels, applied elementwise to arrays of mesh widths and
# coefficient samples.

def _upwind_coeffs(eps2, hL, hR, kB, kT, a_val, b_val):
    """Center, west, east, south, north coefficients of the 5-point row."""
    hbar = 0.5 * (hL + hR)
    kbar = 0.5 * (kB + kT)
    west = -(eps2 / (hbar * hL) + a_val / hL)
    east = -(eps2 / (hbar * hR))
    south = -(eps2 / (kbar * kB))
    north = -(eps2 / (kbar * kT))
    center = (eps2 * (1.0 / (hbar * hL) + 1.0 / (hbar * hR)
                      + 1.0 / (kbar * kB) + 1.0 / (kbar * kT))
              + a_val / hL + b_val)
    return center, west, east, south, north


def _transformed_coeffs(eps2, h1, H2, a_m, a_p, b_m, b_p):
    """3-point transmission row; returns (center, west, east, E_minus).

    E_minus = eps^2 + h1*a_m is the pivot of the elimination on the fine
    side; the rhs weights are h1/(4 E_minus) and H2/(4 eps^2).
    """
    e_minus = eps2 + h1 * a_m
    center = (3.0 / (2.0 * h1) + 1.0 / H2
              - eps2 / (2.0 * h1 * e_minus) - a_p / (2.0 * eps2))
    west = (-2.0 / h1
            + (h1 / (2.0 * e_minus))
            * (2.0 * eps2 / h1 ** 2 + a_m / h1 + b_m / 2.0))
    east = -1.0 / H2 + a_p / (2.0 * eps2) + H2 * b_p / (4.0 * eps2)
    return center, west, east, e_minus


def _raw_interface_coeffs(h1, H2):
    """5-point derivative-matching row, entries at offsets -2..+2."""
    return (1.0 / (2.0 * h1),
            -2.0 / h1,
            3.0 / (2.0 * h1) + 3.0 / (2.0 * H2),
            -2.0 / H2,
            1.0 / (2.0 * H2))


# ---------------------------------------------------------------------------
# Full-system assembly.

_MAX_Y_SPREAD = 0.015   # largest y-spread given a separable part (solve.py)


def assemble_system(spec: ProblemSpec, mesh: TensorMesh,
                    variant: Variant = Variant.TRANSFORMED) -> LinearSystem:
    """CSR matrix (int32 sorted indices) and rhs of the scheme on mesh.

    Row j*m + i keeps one coefficient per column offset (-m, -2, -1, 0, 1,
    2, m) in ``table[j, i]``: Ellpack-Itpack rows (Y. Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., SIAM 2003, 3.4).  Their
    buffer is the CSR data, with columns flat + offset clipped into range
    (only zero slots fall outside), and ``eliminate_zeros`` drops 0.0 and
    -0.0 in place, in order.  The 7 m^2 slots fit int32 because a mesh has
    N <= ``mesh.MAX_N``.  Bad problem data raises ``MalformedSpec``, a
    ``variant`` not a member or its value ``ValueError``.
    """
    variant = Variant(variant)
    n, half, m = mesh.n, mesh.n // 2, mesh.n + 1
    hx, hy = np.diff(mesh.x), np.diff(mesh.y)
    eps2 = spec.epsilon ** 2
    offsets = np.array([-m, -2, -1, 0, 1, 2, m], dtype=np.int32)
    slot = {int(d): k for k, d in enumerate(offsets)}
    table = np.zeros((m, m, offsets.size))
    rhs = np.zeros((m, m))

    def put(rows, values, *stencil):
        """Rows (index tuple), rhs values, (offset, coefficients) pairs."""
        rhs[rows] = values
        for offset, coeffs in stencil:
            table[rows + (slot[offset],)] = coeffs

    # f off the lines comes from its quadrant's block; the values left on
    # the lines are never read.  Row y = d2 of a, b and f becomes the
    # y-neighbour average used by the midpoint rows; the cross point takes
    # its one-sided f from that row too, but a and b at their own points.
    a, b, sources, traces = sample_problem(spec, mesh)
    f_max, q_max = (max(float(np.max(np.abs(vals))) for vals in group)
                    for group in (sources, traces))
    q1, q2, q3, q4 = sources
    f = np.block([[q1[:half, :half], q2[:half]], [q3[:, :half], q4]])
    a_up, b_up = a.copy(), b.copy()
    for g in (a_up, b_up, f):
        g[half] = 0.5 * (g[half - 1] + g[half + 1])

    # Upwind rows at every point off the boundary and off x = d1.
    for lo, hi in ((1, half), (half + 1, n)):
        rows = (slice(1, n), slice(lo, hi))
        put(rows, f[rows], *zip((0, -1, 1, -m, m), _upwind_coeffs(
            eps2, hx[lo - 1:hi - 1], hx[lo:hi], hy[:n - 1, None],
            hy[1:n, None], a_up[rows], b_up[rows])))

    # Transmission rows on x = d1, cross point included.
    j = slice(1, n)
    h1, H2 = hx[half - 1], hx[half]
    if variant is Variant.RAW:
        put((j, half), 0.0, *zip(range(-2, 3), _raw_interface_coeffs(h1, H2)))
    else:
        center, west, east, e_minus = _transformed_coeffs(
            eps2, h1, H2, a[j, half - 1], a[j, half + 1],
            b[j, half - 1], b[j, half + 1])
        put((j, half), (h1 / (4.0 * e_minus)) * f[j, half - 1]
            + (H2 / (4.0 * eps2)) * f[j, half + 1],
            (-1, west), (0, center), (1, east))

    # Dirichlet rows; west and east win at the corners.
    west_q, south_q, east_q, north_q = traces
    rhs[-1], rhs[0], rhs[:, -1], rhs[:, 0] = north_q, south_q, east_q, west_q
    table[[0, -1], :, slot[0]] = table[:, [0, -1], slot[0]] = 1.0

    # The separable part, if |v - mean_y v| / |mean_y v| (largest at v's
    # extremes along y) is within _MAX_Y_SPREAD for v = a and v = b, read
    # before eliminate_zeros compacts the table: all column means in one
    # pass (x = d1's -+2 entries summed pairwise, as a 1-D mean is).
    spread = max(float(np.max(np.maximum(v.max(0) - mu, mu - v.min(0))
                              / np.abs(mu)))
                 for v, mu in ((a, a.mean(0)), (b, b.mean(0))))
    separable = None
    if spread <= _MAX_Y_SPREAD:
        inner = table[1:-1, 1:-1]
        means = inner.mean(axis=0).T    # row k: slot k
        x_bar = means[slot[-2]:slot[2] + 1]     # offsets -2 ... 2
        x_bar[2] += means[slot[-m]] + means[slot[m]]
        x_bar[[0, -1], half - 1] = [inner[:, half - 1, slot[d]].mean()
                                    for d in (-2, 2)]
        separable = (x_bar, inner[:, 0, slot[-m]].copy(),
                     inner[:, 0, slot[m]].copy(), means[slot[-m]] != 0.0)

    cols = (np.arange(m * m, dtype=np.int32)[:, None] + offsets).ravel()
    indptr = np.arange(0, cols.size + 1, offsets.size, dtype=np.int32)
    matrix = sp.csr_matrix((table.ravel(), cols.clip(0, m * m - 1, out=cols),
                            indptr), shape=(m * m, m * m))
    matrix.eliminate_zeros()
    return LinearSystem(matrix=matrix, rhs=rhs.ravel(), mesh=mesh,
                        bound=f_max / spec.alpha + q_max, separable=separable)


# ---------------------------------------------------------------------------
# Diagnostics.

@dataclass
class MMatrixReport:
    """``m_matrix_check``'s findings; ``violating_rows`` is computed from
    ``sign_violations`` whenever a report is built."""
    dimension: int
    sign_violations: list[tuple[int, int, float]] = field(default_factory=list)
    violating_rows: list[int] = field(init=False)
    nonpositive_diagonal_rows: list[int] = field(default_factory=list)
    min_inverse_entry: Optional[float] = None

    def __post_init__(self):
        self.violating_rows = sorted({r for r, _, _ in self.sign_violations})

    @property
    def n_sign_violations(self) -> int:
        return len(self.sign_violations)

    @property
    def sign_ok(self) -> bool:
        return not self.sign_violations and not self.nonpositive_diagonal_rows

    def summary(self) -> str:
        inv = ("not computed" if self.min_inverse_entry is None
               else f"{self.min_inverse_entry:.3e}")
        return (f"dim {self.dimension}: {self.n_sign_violations} positive "
                f"off-diagonal entries in {len(self.violating_rows)} rows, "
                f"{len(self.nonpositive_diagonal_rows)} nonpositive diagonals, "
                f"min inverse entry {inv}")


_DENSE_INVERSE_LIMIT = 289   # (16+1)^2


def m_matrix_check(system: LinearSystem) -> MMatrixReport:
    """Sign-structure check; dense inverse positivity on small systems.

    A monotone (M-matrix) discretization needs positive diagonal entries,
    nonpositive off-diagonal entries and a nonnegative inverse.  The dense
    inverse is only formed when the dimension is small (N <= 16), else its
    minimum is None; a singular matrix gives nan.
    """
    coo = system.matrix.tocoo()
    bad = (coo.row != coo.col) & (coo.data > 0.0)
    order = np.lexsort((coo.col[bad], coo.row[bad]))
    violations = [(int(r), int(c), float(v)) for r, c, v in zip(
        coo.row[bad][order], coo.col[bad][order], coo.data[bad][order])]
    nonpositive = [int(r) for r in np.flatnonzero(system.matrix.diagonal() <= 0.0)]
    inverse_min = None
    if system.dimension <= _DENSE_INVERSE_LIMIT:
        try:
            inverse_min = float(np.linalg.inv(system.matrix.toarray()).min())
        except np.linalg.LinAlgError:
            inverse_min = float("nan")
    return MMatrixReport(system.dimension, violations, nonpositive, inverse_min)
