"""Direct solve of the assembled system: ``solve_direct(system)``.

It picks the inner solve in one place.  An assembled system starts on the
fast diagonalization of its ``separable`` part; a ``SingularMatrix`` from
its build or from its refinement restarts the system on the sparse LU,
which a system built by hand takes at once.  ``GridFunction.solver`` names
the path taken: "tensor", "MMD_AT_PLUS_A" (the LU's ordering) or
"tensor>MMD_AT_PLUS_A".  When both paths fail, the error names both
failures.

Fast diagonalization.  When a and b do not vary with y, the matrix on the
interior unknowns of the tensor mesh is A = I (x) X + Y (x) D: X is the
x-stencil of any grid row (its centre less the row's y-part), Y = -eps^2 D_yy
the y-stencil of one column, and D is the identity except on x = d1, whose
transmission rows have no y-coupling.  ``assemble_system`` reads them off its
coefficient table as the system's ``separable`` part (laid out in
``LinearSystem``), whose own boundary entries move the Dirichlet values to
the right-hand side F.  Y, made symmetric by a diagonal similarity S
(s_{j+1} / s_j = sqrt(north_j / south_{j+1})), is W diag(lam) W^-1 with
W = S^-1 Q for the eigenvectors Q of ``scipy.linalg.eigh_tridiagonal``; in
that basis the system splits into the n-1 systems (X + lam_k D) v_k =
(W^-1 F)_k (R. E. Lynch, J. R. Rice & D. H. Thomas, Numer. Math. 6, 1964).
Their tridiagonal parts are stacked, factored once by LAPACK ``dgttrf``
(partial pivoting) and solved by ``dgttrs``; the raw variant's x = d1 row,
which also couples to its second neighbours, is a Sherman-Morrison rank-one
update (J. Sherman & W. J. Morrison, Ann. Math. Statist. 21(1), 1950).  A
solve costs two dense (n-1)^2 products and O(n^2) besides.  When a or b
varies with y, so does X from row to row, and the fast solver of the mean X
is the inner solve of the refinement loop below, which runs against A, so the
answer is the LU's to rounding (P. Concus & G. H. Golub, SIAM J. Numer.
Anal. 10(6), 1973).  Each step cuts the error by a factor that grows with the
y-variation, until refinement stalls and the solve restarts on the LU (README
"Solver" gives the counts).  A breakdown (``LinAlgError``, a zero pivot in
``dgttrf``, or a zero or non-finite Sherman-Morrison denominator) is
``SingularMatrix``.

Equilibration.  The transmission-row coefficients grow like 1/h1 and the fine
width h1 shrinks like eps^2, so for the smallest eps the matrix entries span
~26 orders of magnitude.  The LU factors D A, each row divided by its
largest entry; without this the float32 factor is too inaccurate for
refinement, which stalls at its first step for eps <= 1e-4.  The row
maxima are one ``np.maximum.reduceat`` over |data|, ``data`` times each
row's factor, rounded once to float32, becomes the scaled CSR, zeros are
dropped and one ``tocsc()`` gives SuperLU its input.  The scaled entries
stay above ~1e-23 at eps = 1e-6, far above float32's least normal, 1.2e-38.

Mixed precision.  Both inner solves return c with A c = r for the system's
own A, inside one float64 loop of iterative refinement (C. B. Moler, J. ACM
14(2), 1967), whose mixed-precision form Carson & Higham analyse (SIAM J.
Sci. Comput. 40(2), 2018).  ``_refine`` starts from x = 0; each step forms
r = b - A x from the system's own CSR A and adds the correction c to x (norms
are max-norms).  The LU's factors are single precision, which holds a float64
factor's fill in half the bytes and factors it faster; it solves for
D r / |D r|, which keeps the float32 right-hand side clear of underflow as r
shrinks, and scales c back up by |D r|.  A correction c_k that does not halve
c_{k-1} is a stall: it ends refinement if already at most 1e-12 |x|, or if
x's ``residual_norm`` (a normwise backward error) is at most 64u, 8 times the
up to 8u of rounding in a float64 residual over 7-entry rows, which no step
undercuts; else it fails with ``SingularMatrix``.  Then refinement stops when
c_k^2 / (c_{k-1} - c_k), the tail a geometric run of further corrections
would add, is at most 4u|x|, u = 2^-53 being float64's unit roundoff; the two
imply a stop on c_k <= 4u|x|, so a zero correction (a D r that underflowed
gives one) ends refinement from step 1 on.  Corrections that each halve the
last fall from |x| to 4u|x| within log2(1/4u) = 51 steps, so refinement fails
after 51 steps: a solve never returns a half-refined answer.

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
Appl. 20(3), 1999).  The factors of these 5-point grid systems have narrow
supernodes, and ``relax = 5``, ``panel_size = 2`` factor in 0.5-0.9 of the
default time with 12-21% less peak memory (README "Sparse LU").  Much
larger pairs are unsafe: relax = panel_size = 40 crashes SciPy 1.17.1 at
interpreter exit.

Subnormal flush.  After equilibration the entries reach down to ~1e-23, and
the factors can then hold subnormal numbers, on which x86 arithmetic is slow:
unflushed, L + U held 16k-34k of them at 129^2 and took 1.1-2.6 times as long
to factor, for bitwise equal solutions, and column equilibration does not
remove them (README "Sparse LU").  So the LU's factorization and triangular
solves run with the FTZ and DAZ bits of the calling thread's MXCSR set:
subnormal results and inputs count as zero, tens of orders of magnitude below
the rounding error of the entries they meet.  Refinement's float64 residuals
are not flushed.  The previous floating-point environment is restored on exit,
also when SuperLU raises.  The flush applies on x86-64 Linux with glibc only;
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
from scipy.linalg import LinAlgError, eigh_tridiagonal, lapack

from .assembly import LinearSystem
from .errors import MeshMismatch, SingularMatrix
from .mesh import TensorMesh


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Scalar field on the tensor mesh, flat row-major values (j*(n+1)+i),
    and the solver path that produced it (None for values not solved for).
    Values that do not fit the mesh's (n+1)^2 points raise ``MeshMismatch``."""
    mesh: TensorMesh
    values: np.ndarray
    solver: Optional[str] = None

    def __post_init__(self):
        if np.shape(self.values) != ((self.n + 1) ** 2,):
            raise MeshMismatch(f"values {np.shape(self.values)} do not fit the "
                               f"{(self.n + 1) ** 2} points of N = {self.n}")

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
_STOP = 4 * np.finfo(np.float64).epsneg     # 4u, u = 2^-53
_STALL_OK = 1e-12       # a stalled correction this small (times |x|) is kept
_STALL_RESIDUAL = 64 * np.finfo(np.float64).epsneg  # see Mixed precision
_MAX_STEPS = round(-np.log2(_STOP))     # 51: see Mixed precision


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
class _TensorSolve:
    """Fast diagonalization of a system's ``separable`` operator
    I (x) X + Y (x) D (laid out in ``LinearSystem``): W^-1 Y W = diag(lam)
    and the LU (LAPACK ``dgttrf``) of the tridiagonal parts T_k of the n-1
    systems X + lam_k D, stacked with zero coupling between them.  The raw
    variant's x = d1 row r, the one where D is 0, also has X[r, r -+ 2],
    the entries of ``raw_row`` (w), so there X + lam_k D = T_k + e_r w^T,
    and ``update`` holds the rows z_k / s_k of the Sherman-Morrison
    correction, z_k = T_k^-1 e_r and s_k = 1 + w^T z_k (None when w = 0).
    ``lift`` couples the operator to the south, north, west and east
    Dirichlet values: Y's end entries times D, then X's."""
    w: np.ndarray
    w_inv: np.ndarray
    factors: tuple
    lift: tuple
    raw_row: np.ndarray
    update: Optional[np.ndarray]

    @classmethod
    def build(cls, part: tuple) -> "_TensorSolve":
        x_bar, south, north, coupled = part
        p = south.size
        # Y from column i = 1 (never x = d1), symmetrized by
        # sigma_{j+1} / sigma_j = sqrt(north_j / south_{j+1})
        sigma = np.r_[1.0, np.cumprod(np.sqrt(north[:-1] / south[1:]))]
        try:
            lam, q = eigh_tridiagonal(-(south + north),
                                      -np.sqrt(north[:-1] * south[1:]))
        except LinAlgError as exc:
            raise SingularMatrix(f"tensor solve: {exc}") from exc
        # System k is rows k p ... k p + p - 1 of the stacked tridiagonal,
        # whose coupling to its neighbours, the last entry of each block, is 0
        dl = np.tile(np.r_[x_bar[1, 1:], 0.0], p)[:-1]
        du = np.tile(np.r_[x_bar[3, :-1], 0.0], p)[:-1]
        d = (x_bar[2] + lam[:, None] * coupled).ravel()
        *factors, info = lapack.dgttrf(dl, d, du, overwrite_dl=1,
                                       overwrite_d=1, overwrite_du=1)
        if info != 0:
            raise SingularMatrix("tensor solve: tridiagonal factor failed "
                                 f"(dgttrf info {info})")
        # w, X's x = d1 row at offsets -+2 (N >= 8 keeps them off the edge)
        r, raw_row = int(np.argmin(coupled)), np.zeros(p)
        raw_row[[r - 2, r + 2]] = x_bar[[0, 4], r]
        update = None
        if raw_row.any():
            e_r = np.zeros((p, p))
            e_r[:, r] = 1.0
            z, _ = lapack.dgttrs(*factors, e_r.reshape(p * p, 1),
                                 overwrite_b=1)
            z = z.reshape(p, p)
            with np.errstate(over="ignore", invalid="ignore"):
                s = 1.0 + z @ raw_row
            if not np.all(np.isfinite(s) & (s != 0.0)):
                raise SingularMatrix(
                    "tensor solve: rank-one update of the x = d1 row "
                    "breaks down (1 + w^T T^-1 e_r is 0 or not finite)")
            update = np.divide(z, s[:, None], out=z)
        return cls(w=q / sigma[:, None], w_inv=q.T * sigma,
                   factors=tuple(factors), raw_row=raw_row, update=update,
                   lift=(south[0] * coupled, north[-1] * coupled,
                         x_bar[1, 0], x_bar[3, -1]))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solution c of the separable system for the right-hand side r."""
        p = self.w.shape[0]
        c = np.array(r, dtype=np.float64).reshape(p + 2, p + 2)
        # c holds the Dirichlet values, the boundary's solution; the
        # interior rows next to the boundary take them to the right-hand side
        f = c[1:-1, 1:-1].copy()
        south, north, west, east = self.lift
        f[0] -= south * c[0, 1:-1]
        f[-1] -= north * c[-1, 1:-1]
        f[:, 0] -= west * c[1:-1, 0]
        f[:, -1] -= east * c[1:-1, -1]
        v, _ = lapack.dgttrs(*self.factors,
                             (self.w_inv @ f).reshape(p * p, 1),
                             overwrite_b=1)
        v = v.reshape(p, p)
        if self.update is not None:
            v -= self.update * (v @ self.raw_row)[:, None]
        c[1:-1, 1:-1] = self.w @ v
        return c.ravel()


@dataclass(frozen=True, eq=False)
class _LUSolve:
    """Single-precision SuperLU ``factors`` of D A, D = ``row_scale`` the
    reciprocal row maxima of |A|."""
    factors: spla.SuperLU
    row_scale: np.ndarray

    @classmethod
    def build(cls, a: sp.csr_matrix) -> "_LUSolve":
        counts = np.diff(a.indptr)
        # reduceat reads an empty row as its successor's first entry
        if not counts.all() or not (row_max := np.maximum.reduceat(
                np.abs(a.data), a.indptr[:-1])).all():
            raise SingularMatrix("zero row in matrix")
        d = 1.0 / row_max
        # scaled in float64, rounded once to float32; zeros are dropped
        # from tocsc's fresh arrays, not the system's own
        scaled = sp.csr_matrix(
            ((a.data * np.repeat(d, counts)).astype(np.float32),
             a.indices, a.indptr), shape=a.shape).tocsc()
        scaled.eliminate_zeros()
        try:
            with _flush_subnormals():
                factors = spla.splu(scaled, permc_spec=_ORDERING,
                                    diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                                    relax=_RELAX, panel_size=_PANEL_SIZE)
        # a factorization that runs out of memory can end in SystemError
        # ("gstrf was called with invalid arguments")
        except (RuntimeError, SystemError) as exc:
            raise SingularMatrix(str(exc)) from exc
        return cls(factors, d)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solution c of A c = r: (D A) c = D r in float32, flushed."""
        s = self.row_scale * r
        # a zero D r, also one that underflowed, solves to c = 0, not 0/0
        s_max = float(np.max(np.abs(s))) or 1.0
        with _flush_subnormals():
            c = self.factors.solve((s / s_max).astype(np.float32))
        return c.astype(np.float64) * s_max


def _refine(system: LinearSystem, inner) -> np.ndarray:
    """x with A x = rhs for the system's float64 CSR A and rhs, refined on
    ``inner``, whose ``solve(r)`` returns c with A c = r (see Mixed
    precision); a failed refinement raises ``SingularMatrix``."""
    x = np.zeros(system.dimension)
    r = system.rhs
    last = np.inf       # the previous correction's max-norm
    for step in range(_MAX_STEPS + 1):
        try:
            c = inner.solve(r)
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from exc
        c_max = float(np.max(np.abs(c)))   # NaN or inf if any c is
        if not np.isfinite(c_max):
            raise SingularMatrix("solution contains NaN or Inf")
        x += c
        x_max = float(np.max(np.abs(x)))
        if c_max > 0.5 * last:
            if c_max <= _STALL_OK * x_max or residual_norm(
                    system, GridFunction(system.mesh, x)) <= _STALL_RESIDUAL:
                return x
            raise SingularMatrix(
                f"iterative refinement stalled at step {step}: "
                f"correction {c_max:.3e} after {last:.3e}, "
                f"|x| {x_max:.3e}")
        # stop when c^2 / (last - c), the tail of a geometric run of
        # further corrections, is at most 4u |x|
        if step and c_max * c_max <= _STOP * x_max * (last - c_max):
            return x
        last = c_max
        r = system.rhs - system.matrix @ x
    raise SingularMatrix(
        f"iterative refinement did not converge in {_MAX_STEPS} "
        f"steps: last correction {last:.3e}, |x| {x_max:.3e}")


def solve_direct(system: LinearSystem) -> GridFunction:
    """Solution of A U = rhs for the system's A and rhs, refined to float64
    on the fast diagonalization of its ``separable`` part, or on the
    row-equilibrated single-precision sparse LU for a system without one or
    whose fast diagonalization fails; deterministic for identical inputs."""
    tensor_failure = None
    if system.separable is not None:
        try:
            return GridFunction(system.mesh, _refine(
                system, _TensorSolve.build(system.separable)), "tensor")
        except SingularMatrix as exc:
            # the message only: the exception's traceback holds the tensor
            # factor, which is freed before the LU is built
            tensor_failure = str(exc)
    try:
        x = _refine(system, _LUSolve.build(system.matrix))
    except SingularMatrix as exc:
        if tensor_failure is None:
            raise
        raise SingularMatrix(
            f"{exc} (after the tensor path: {tensor_failure})") from exc
    solver = _ORDERING if tensor_failure is None else "tensor>" + _ORDERING
    return GridFunction(system.mesh, x, solver)


def residual_norm(system: LinearSystem, solution: GridFunction) -> float:
    """Scaled residual ||A U - rhs||_inf / (||A||_inf ||U||_inf + ||rhs||_inf)."""
    if solution.values.shape[0] != system.dimension:
        raise MeshMismatch(
            f"solution has {solution.values.shape[0]} values, "
            f"system has {system.dimension}")
    num = float(np.max(np.abs(system.matrix @ solution.values - system.rhs)))
    if num == 0.0:
        return 0.0
    a = system.matrix   # ||A||_inf is the largest entry of |A| 1
    a_norm = float(np.max(sp.csr_matrix((np.abs(a.data), a.indices, a.indptr),
                                        shape=a.shape) @ np.ones(a.shape[1])))
    # num > 0 gives den > 0: each |a_ij u_j| is at most ||A|| ||U||
    return num / (a_norm * solution.max_norm()
                  + float(np.max(np.abs(system.rhs))))


_SPLIT = 134217729.0    # 2^27 + 1, Dekker's splitting constant
_E16_MIN, _E16_MAX = 1e-280, 1e280  # |v| the exact products cover
_E16_TIE = 1e-6         # a product this close to a rounding tie falls back
_DUMP_BLOCK = 1 << 12   # values of U formatted at once by write_grid_dump


@functools.cache
def _pow10(k: int) -> tuple[float, float]:
    """10^k as the double-double hi + lo, hi the nearest double to it; both
    are rounded from exact integer ratios."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    h_num, h_den = hi.as_integer_ratio()
    return hi, (num * h_den - h_num * den) / (den * h_den)


@functools.cache
def _e16_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts "00".."99", "0000".."9999" and "e-300".."e+300" (NUL
    padded) as little-endian integers, to be shifted into 8-byte words."""
    def digits(width: int) -> np.ndarray:
        n = np.arange(10 ** width, dtype=np.uint64)
        text = np.zeros_like(n)
        for c in range(width):          # character c is byte c
            text |= (n // 10 ** (width - 1 - c) % 10 + ord("0")) << 8 * c
        return text
    exponent = np.frombuffer(b"".join((b"e%+03d" % e).ljust(8, b"\0")
                                      for e in range(-300, 301)), "<u8")
    return digits(2), digits(4), exponent.astype(np.uint64)


def _times_pow10(a: np.ndarray,
                 k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^k as p + t: p = fl(a hi), t the exact error of that product
    plus a lo, for 10^k = hi + lo (T. J. Dekker, Numer. Math. 18, 1971)."""
    k0 = int(k.min())
    hi, lo = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)]).T
    hi, lo = hi[k - k0], lo[k - k0]
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * hi
    bh = c - (c - hi)
    bl = hi - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo


def _format_e16(values: np.ndarray) -> list[bytes]:
    """``b"%.16e" % v`` for each float64 v of ``values``, computed in numpy.

    CPython's ``%.16e`` runs D. M. Gay's correctly rounded dtoa, which for
    17 digits leaves floating point for bignum arithmetic.  Here, with e the
    guess floor(log10 |v|), |v| 10^(16-e) is p + t to within 1e-14
    (``_times_pow10``); e moves by one where the unrounded p + t is outside
    [1e16, 1e17), and the 17 digits are p + rint(t), p being an integer
    there, with a carry to 1e17 moved into the exponent.  The digits, the
    exponent and a '.' are laid out as three 8-byte words per value; a
    minus sign shifts the text right by one byte.  NaN, +-inf, |v| outside
    [1e-280, 1e280] other than +-0, and products within 1e-6 of a rounding
    tie are formatted by ``%.16e`` itself.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if not v.size:
        return []
    a = np.abs(v)
    zero = a == 0.0
    fast = zero | ((a >= _E16_MIN) & (a <= _E16_MAX))
    a[zero | ~fast] = 1.0   # placeholder, overwritten below
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = _times_pow10(a, 16 - e)
    shift = (((p > 1e17) | ((p == 1e17) & (t >= 0))).astype(np.int64)
             - ((p < 1e16) | ((p == 1e16) & (t < 0))))
    if shift.any():
        i = np.flatnonzero(shift)
        e[i] += shift[i]
        p[i], t[i] = _times_pow10(a[i], 16 - e[i])
    fast &= np.abs(t - np.floor(t) - 0.5) >= _E16_TIE
    m = p.astype(np.int64) + np.rint(t).astype(np.int64)
    carry = m == 10 ** 17
    m[carry] = 10 ** 16
    e += carry
    m[zero] = 0             # and e = 0, from a = 1

    d2, d4, exponent = _e16_tables()
    lead, r = np.divmod(m, 10 ** 16)
    q1, r = np.divmod(r, 10 ** 10)      # digits 1-6
    q2, q3 = np.divmod(r, 100)          # digits 7-14 and 15-16
    words = np.empty((v.size, 3), "<u8")
    words[:, 0] = ((lead.astype(np.uint64) + np.uint64(0x2E30))    # "d."
                   | d2[q1 // 10000] << 16 | d4[q1 % 10000] << 32)
    words[:, 1] = d4[q2 // 10000] | d4[q2 % 10000] << 32
    words[:, 2] = d2[q3] | exponent[e + 300] << 16
    neg = np.flatnonzero(np.signbit(v))
    if neg.size:
        text = words.view(np.uint8)
        text[neg, 1:] = text[neg, :-1]  # the last byte is a NUL pad
        text[neg, 0] = ord("-")
    out = words.view("S24").ravel().tolist()    # trailing NULs dropped
    for i in np.flatnonzero(~fast).tolist():
        out[i] = b"%.16e" % float(v[i])
    return out


def write_grid_dump(solution: GridFunction, stream: IO[bytes]) -> None:
    """Three ``.16e`` columns x y U, x varying fastest, one blank line between
    y-rows and none after the last, as ASCII bytes on the binary ``stream``.

    ``_format_e16`` writes the numbers: x and y once each, U in blocks of
    whole rows of at most ``_DUMP_BLOCK`` values (or one row), so memory
    stays one block.  Each y-row fills a bytes template holding its x and y
    texts, and each block's rows are written in one call.
    """
    xs = _format_e16(solution.mesh.x)
    ys = _format_e16(solution.mesh.y)
    grid = solution.grid()
    m = grid.shape[1]
    rows = max(1, _DUMP_BLOCK // m)
    lead = b""
    for j0 in range(0, len(ys), rows):
        block = _format_e16(grid[j0:j0 + rows])
        text = []
        for j, y in enumerate(ys[j0:j0 + rows]):
            sep = b" " + y + b" %s\n"
            text.append((sep.join(xs) + sep) % tuple(block[j * m:(j + 1) * m]))
        stream.write(lead + b"\n".join(text))
        lead = b"\n"
