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

``assemble_system`` is the only assembly path.  It takes a and b on the
grid, each quadrant source on its closed block and the edge traces from
``sample_problem``, which checks them against the problem hypotheses, then
lays down every row class as arrays through the coefficient kernels below.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import SingularStructure
from .mesh import TensorMesh
from .problems import ProblemSpec, sample_problem


class Variant(enum.Enum):
    TRANSFORMED = "transformed"
    RAW = "raw"


@dataclass(eq=False)
class LinearSystem:
    """The scheme on one mesh.  ``bound`` is the stability bound
    (1/alpha) max|f| + max|q| of the problem data ``assemble_system``
    sampled on the mesh (NaN for a system built without problem data)."""
    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: TensorMesh
    variant: Variant
    bound: float = float("nan")

    @property
    def dimension(self) -> int:
        return self.rhs.size


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

def assemble_system(spec: ProblemSpec, mesh: TensorMesh,
                    variant: Variant = Variant.TRANSFORMED) -> LinearSystem:
    """CSR matrix (int32 sorted indices) and rhs of the scheme on mesh.

    Row j*m + i keeps one coefficient per column offset (-m, -2, -1, 0, 1,
    2, m) in ``table[j, i]``, and ``stored`` marks the ones it uses.  Each
    row class fills its block by slices (mesh widths broadcast): the upwind
    rows either side of x = d1, the x = d1 rows of the variant and the
    Dirichlet edge.  The offsets ascend, so ``table[stored]`` is the CSR
    data with sorted columns.  Bad problem data raises ``MalformedSpec``.
    """
    n, half, m = mesh.n, mesh.n // 2, mesh.n + 1
    hx, hy = np.diff(mesh.x), np.diff(mesh.y)
    eps2 = spec.epsilon ** 2
    offsets = np.array([-m, -2, -1, 0, 1, 2, m], dtype=np.int32)
    slot = {int(d): k for k, d in enumerate(offsets)}
    table = np.zeros((m, m, offsets.size))
    stored = np.zeros(table.shape, dtype=bool)
    rhs = np.zeros(m * m)

    def put(rows, values, *stencil):
        """Rows (index tuple), rhs values, (offset, coefficients) pairs."""
        rhs.reshape(m, m)[rows] = values
        for offset, coeffs in stencil:
            table[rows + (slot[offset],)] = coeffs
            stored[rows + (slot[offset],)] = True

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
        center, west, east, south, north = _upwind_coeffs(
            eps2, hx[lo - 1:hi - 1], hx[lo:hi], hy[:n - 1, None],
            hy[1:n, None], a_up[rows], b_up[rows])
        put(rows, f[rows], (0, center), (-1, west), (1, east),
            (-m, south), (m, north))

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
    q = np.empty((m, m))
    west_q, south_q, east_q, north_q = traces
    q[-1], q[0], q[:, -1], q[:, 0] = north_q, south_q, east_q, west_q
    edge = np.pad(np.zeros((m - 2, m - 2), bool), 1, constant_values=True)
    put((edge,), q[edge], (0, 1.0))

    counts = stored.sum(axis=2, dtype=np.int32).ravel()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise SingularStructure(f"empty matrix rows at flat indices {empty[:10]}")
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:], dtype=np.int32)
    flat = np.arange(m * m, dtype=np.int32).reshape(m, m, 1)
    matrix = sp.csr_matrix((table[stored], (flat + offsets)[stored], indptr),
                           shape=(m * m, m * m))
    return LinearSystem(matrix=matrix, rhs=rhs, mesh=mesh, variant=variant,
                        bound=f_max / spec.alpha + q_max)


# ---------------------------------------------------------------------------
# Diagnostics.

@dataclass
class MMatrixReport:
    dimension: int
    sign_violations: list[tuple[int, int, float]] = field(default_factory=list)
    violating_rows: list[int] = field(default_factory=list)
    nonpositive_diagonal_rows: list[int] = field(default_factory=list)
    min_inverse_entry: Optional[float] = None

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


_DENSE_INVERSE_LIMIT = 1089   # (32+1)^2


def m_matrix_check(system: LinearSystem,
                   compute_inverse: Optional[bool] = None) -> MMatrixReport:
    """Sign-structure check; optionally dense inverse positivity.

    A monotone (M-matrix) discretization needs positive diagonal entries,
    nonpositive off-diagonal entries and a nonnegative inverse.  The dense
    inverse is only formed when the dimension is small (N <= 32) unless
    explicitly requested.
    """
    report = MMatrixReport(dimension=system.dimension)
    coo = system.matrix.tocoo()
    off = coo.row != coo.col
    bad = off & (coo.data > 0.0)
    order = np.lexsort((coo.col[bad], coo.row[bad]))
    report.sign_violations = [
        (int(r), int(c), float(v))
        for r, c, v in zip(coo.row[bad][order], coo.col[bad][order],
                           coo.data[bad][order])
    ]
    report.violating_rows = sorted({r for r, _, _ in report.sign_violations})
    diag = system.matrix.diagonal()
    report.nonpositive_diagonal_rows = [int(r) for r in np.flatnonzero(diag <= 0.0)]
    if compute_inverse is None:
        compute_inverse = system.dimension <= _DENSE_INVERSE_LIMIT
    if compute_inverse:
        try:
            inv = np.linalg.inv(system.matrix.toarray())
            report.min_inverse_entry = float(inv.min())
        except np.linalg.LinAlgError:
            report.min_inverse_entry = float("nan")
    return report
