"""Direct sparse solve of the assembled system: factor once, then solve.

``factorize(system)`` returns a :class:`Factorization` whose ``solve(rhs)``
takes any right-hand side of that system; ``solve_direct`` does both for the
system's own rhs.

Equilibration.  The transmission-row coefficients grow like 1/h1 and the fine
width h1 shrinks like eps^2, so for the smallest eps the matrix entries span
~26 orders of magnitude.  Rows are rescaled to unit max-magnitude before the
LU factorization; without this the factorization loses enough accuracy at
eps <= 1e-5 to pollute the double-mesh error estimates.  The row maxima
are one ``np.maximum.reduceat`` over |data|, ``data`` times each row's
factor becomes the scaled CSR, zeros are dropped and one ``tocsc()`` gives
SuperLU its input.  The residual contract is checked against the original,
unscaled system.

Ordering and pivoting.  Apart from the interface rows the 5-point matrix is
structurally symmetric, so SuperLU orders the columns by minimum degree on
the pattern of A^T + A (``MMD_AT_PLUS_A``) and pivots by threshold: the
diagonal entry is kept unless it is below 0.1 times the largest entry left in
its column.  This is SuperLU's setting for nearly symmetric matrices
(X. S. Li, "An overview of SuperLU", ACM TOMS 31(3), 2005); on these grids it
has half the fill of COLAMD with partial pivoting.

Supernode blocking.  SuperLU's ``relax`` (the largest subtree merged into
one relaxed supernode) and ``panel_size`` (columns factored together) are
the blocking parameters of Demmel, Eisenstat, Gilbert, Li & Liu, "A
supernodal approach to sparse partial pivoting" (SIAM J. Matrix Anal.
Appl. 20(3), 1999).  The library defaults suit wide supernodes; the factors
of these 5-point grid systems have narrow ones, and ``relax = 5``,
``panel_size = 2`` factor them in 0.70-0.80 of the default time up to
257^2 and 0.90 at 513^2, with the same fill and, at 513^2, a fifth less
memory.  Much larger pairs are unsafe: relax = panel_size = 40 crashes
SciPy 1.17.1 at interpreter exit.

Subnormal flush.  After equilibration the entries reach down to ~1e-15, and
the factors then hold tens of thousands of subnormal numbers, on which x86
arithmetic is many times slower.  Factorization and triangular solves
therefore run with the FTZ and DAZ bits of the calling thread's MXCSR
register set, so that subnormal results and inputs count as zero; they are
hundreds of orders of magnitude below the rounding error of the entries they
meet.  The previous floating-point environment is restored on exit, also
when SuperLU raises.  The flush applies on x86-64 Linux with glibc only;
elsewhere it does nothing and results differ only by rounding.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import platform
import sys
from dataclasses import dataclass
from typing import IO, Iterator, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import LinearSystem
from .errors import DimensionMismatch, NonFiniteSolution, SingularMatrix
from .mesh import TensorMesh


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Scalar field on the tensor mesh, flat row-major values (j*(n+1)+i)."""
    mesh: TensorMesh
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.mesh.n

    def grid(self) -> np.ndarray:
        """(n+1, n+1) view, first axis y (row j), second axis x (column i)."""
        m = self.n + 1
        return self.values.reshape(m, m)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


_ORDERING = "MMD_AT_PLUS_A"
_DIAG_PIVOT_THRESH = 0.1
_RELAX = 5
_PANEL_SIZE = 2
_FTZ_DAZ = 0x8040       # MXCSR bits 15 (flush to zero), 6 (denormals are zero)


class _FenvT(ctypes.Structure):
    """glibc's x86-64 ``fenv_t``: the 28-byte x87 environment, then MXCSR."""
    _fields_ = [("x87", ctypes.c_ubyte * 28), ("mxcsr", ctypes.c_uint32)]


@functools.cache
def _libm() -> Optional[ctypes.CDLL]:
    """libm with ``fegetenv``/``fesetenv`` declared, on x86-64 glibc only."""
    if (platform.machine() != "x86_64" or sys.maxsize <= 2 ** 32
            or platform.libc_ver()[0] != "glibc"):
        return None
    try:
        libm = ctypes.CDLL("libm.so.6")
    except OSError:
        return None
    for fn in (libm.fegetenv, libm.fesetenv):
        fn.argtypes = [ctypes.POINTER(_FenvT)]
        fn.restype = ctypes.c_int
    return libm


@contextlib.contextmanager
def _flush_subnormals() -> Iterator[None]:
    """Zero subnormal inputs and results in this thread until exit."""
    libm = _libm()
    saved = _FenvT()
    if libm is None or libm.fegetenv(ctypes.byref(saved)) != 0:
        yield
        return
    flushed = _FenvT.from_buffer_copy(saved)
    flushed.mxcsr |= _FTZ_DAZ
    libm.fesetenv(ctypes.byref(flushed))    # on failure, restoring is a no-op
    try:
        yield
    finally:
        libm.fesetenv(ctypes.byref(saved))


@dataclass(frozen=True, eq=False)
class Factorization:
    """Sparse LU of the row-equilibrated matrix of one system;
    ``row_max_range`` is (min, max) of the row maxima |A| was divided by."""
    lu: spla.SuperLU
    row_scale: np.ndarray
    mesh: TensorMesh
    ordering: str
    row_max_range: tuple[float, float]

    def solve(self, rhs: np.ndarray) -> GridFunction:
        """Solution of A U = rhs for the factored A."""
        if np.shape(rhs) != self.row_scale.shape:
            raise DimensionMismatch(
                f"rhs has shape {np.shape(rhs)}, "
                f"system has {self.row_scale.shape[0]} unknowns")
        try:
            with _flush_subnormals():
                values = self.lu.solve(self.row_scale * rhs)
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from exc
        if not np.all(np.isfinite(values)):
            raise NonFiniteSolution("solution contains NaN or Inf")
        return GridFunction(mesh=self.mesh, values=values)


def factorize(system: LinearSystem) -> Factorization:
    """Row-equilibrated sparse LU; deterministic for identical inputs."""
    a = system.matrix
    counts = np.diff(a.indptr)
    # reduceat reads an empty row as its successor's first entry
    if not counts.all() or not (row_max := np.maximum.reduceat(
            np.abs(a.data), a.indptr[:-1])).all():
        raise SingularMatrix("zero row in matrix")
    d = 1.0 / row_max
    # zeros are dropped from tocsc's fresh arrays, not the system's own
    scaled = sp.csr_matrix((a.data * np.repeat(d, counts), a.indices,
                            a.indptr), shape=a.shape).tocsc()
    scaled.eliminate_zeros()
    try:
        with _flush_subnormals():
            lu = spla.splu(scaled, permc_spec=_ORDERING,
                           diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                           relax=_RELAX, panel_size=_PANEL_SIZE)
    # a factorization that runs out of memory can end in SystemError
    # ("gstrf was called with invalid arguments")
    except (RuntimeError, SystemError) as exc:
        raise SingularMatrix(str(exc)) from exc
    return Factorization(lu=lu, row_scale=d, mesh=system.mesh,
                         ordering=_ORDERING,
                         row_max_range=(float(row_max.min()),
                                        float(row_max.max())))


def solve_direct(system: LinearSystem) -> GridFunction:
    """Factor the system matrix and solve for the system's rhs."""
    return factorize(system).solve(system.rhs)


def residual_norm(system: LinearSystem, solution: GridFunction) -> float:
    """Scaled residual ||A U - rhs||_inf / (||A||_inf ||U||_inf + ||rhs||_inf)."""
    if solution.values.shape[0] != system.dimension:
        raise DimensionMismatch(
            f"solution has {solution.values.shape[0]} values, "
            f"system has {system.dimension}")
    num = float(np.max(np.abs(system.matrix @ solution.values - system.rhs)))
    if num == 0.0:
        return 0.0
    a = system.matrix
    starts = a.indptr[:-1][np.diff(a.indptr) > 0]  # no empty segments
    a_norm = float(np.add.reduceat(np.abs(a.data), starts).max(initial=0.0))
    den = a_norm * solution.max_norm() + float(np.max(np.abs(system.rhs)))
    if den == 0.0:
        return float("inf")
    return num / den


def write_grid_dump(solution: GridFunction, stream: IO[str]) -> None:
    """Three ``.16e`` columns x y U, x varying fastest, one blank line between
    y-rows and none after the last.

    Each axis is formatted once; a y-row is filled into a template holding
    its x and y strings and written in one call, so memory stays one row.
    """
    xs = [f"{x:.16e}" for x in solution.mesh.x.tolist()]
    grid = solution.grid()
    lead = ""
    for j, y in enumerate(solution.mesh.y.tolist()):
        sep = f" {y:.16e} %.16e\n"
        stream.write((lead + sep.join(xs) + sep) % tuple(grid[j].tolist()))
        lead = "\n"
