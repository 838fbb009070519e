"""Double-mesh error estimation, convergence sweeps and the smooth oracle.

The double-mesh estimate for a computed solution U on the N-mesh is

    D(N, eps) = max over coarse points |U2(x_i, y_j) - U(x_i, y_j)|

where U2 solves the same problem on a mesh with 2N intervals per axis.
Two conventions for the 2N mesh are supported:

* bisect (default): insert interval midpoints into the N-mesh, keeping the
  transition widths of N.  Coarse points then exist bitwise in the fine
  mesh.
* regenerate: build a fresh fitted mesh with parameter 2N, so the
  transition widths use ln(2N).  Coarse points need not be fine-mesh
  points.

Both are estimated by ``double_mesh_error``, which reads the fine solution
bilinearly in the fine cell holding each coarse point.  A coarse point that
is a fine point reads that point's value exactly, so in bisect mode no
interpolation is involved.

The uniform error is D(N) = max over eps of D(N, eps) and the estimated
order E(N) = log2(D(N) / D(2N)), given only where the next column is 2N.

In regenerate mode the 2N mesh of cell (eps, N) is the N-mesh of cell
(eps, 2N), so a sweep runs each eps row as chains of cells whose N doubles
from one to the next; the chain loop hands each cell's companion solve on
as the next cell's coarse solve, and ``run_cell`` is the chain of one.
"""
from __future__ import annotations

import enum
import math
import pickle
import time
from dataclasses import dataclass, field, fields, replace
from typing import IO, Iterator, Optional, Sequence

import numpy as np

from . import mesh as mesh_mod
from .assembly import LinearSystem, Variant, assemble_system
from .errors import CONTAINED_FAILURES, MalformedSpec, MeshMismatch
from .problems import ProblemSpec, _make_example1, validate
from .solve import GridFunction, residual_norm, solve_direct, solver_name


class DoubleMeshMode(enum.Enum):
    BISECT = "bisect"
    REGENERATE = "regenerate"


def _cells(f: np.ndarray, p: np.ndarray, axis: str):
    """Fine cell k holding each coarse point p (f[k] <= p <= f[k + 1]) of
    the named axis and the weights (1 - t, t) of the cell's two ends."""
    if not (f[0] <= p[0] and p[-1] <= f[-1]):
        raise MeshMismatch(f"fine {axis} axis [{f[0]}, {f[-1]}] "
                           f"does not span coarse [{p[0]}, {p[-1]}]")
    k = np.clip(np.searchsorted(f, p, side="right") - 1, 0, f.size - 2)
    t = (p - f[k]) / (f[k + 1] - f[k])
    return k, 1.0 - t, t


def double_mesh_error(coarse: GridFunction, fine: GridFunction) -> float:
    """Max difference at coarse points, fine solution read bilinearly.

    The fine mesh must have 2N intervals and span the coarse mesh.  A
    coarse point that is a fine point reads that point's value exactly.
    """
    if fine.n != 2 * coarse.n:
        raise MeshMismatch(f"fine mesh has {fine.n} intervals, expected {2 * coarse.n}")
    i, wx0, wx1 = _cells(fine.mesh.x, coarse.mesh.x, "x")
    j, wy0, wy1 = (a[:, None] for a in _cells(fine.mesh.y, coarse.mesh.y, "y"))
    u = fine.grid()
    read = (u[j, i] * wy0 * wx0 + u[j, i + 1] * wy0 * wx1
            + u[j + 1, i] * wy1 * wx0 + u[j + 1, i + 1] * wy1 * wx1)
    return float(np.max(np.abs(read - coarse.grid())))


@dataclass(frozen=True)
class MeshSolve:
    """A solution, its scaled residual and the solver path (``solver_name``
    of its system) that produced it."""
    solution: GridFunction
    residual: float
    solver: str


_STAGES = ("mesh_s", "assemble_s", "solve_s", "residual_s", "estimate_s")


@dataclass
class CellResult:
    """One (eps, N) cell.

    ``timings`` holds the seconds of each stage (``mesh_s``, ``assemble_s``,
    ``solve_s``, ``residual_s``, ``estimate_s``) summed over both meshes; a
    reused coarse solve adds nothing.  ``solver`` is the solver path of
    both solves, "coarse+fine" if they differ, None before the coarse one.
    """
    epsilon: float
    N: int
    D_eps: float = float("nan")
    sigma_x: float = float("nan")
    sigma_y: float = float("nan")
    residual_coarse: float = float("nan")
    residual_fine: float = float("nan")
    max_u_coarse: float = float("nan")
    max_u_fine: float = float("nan")
    wall_time: float = 0.0
    timings: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(_STAGES, 0.0))
    coarse_reused: bool = False
    solver: Optional[str] = None
    warnings: list[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and math.isfinite(self.D_eps)


def timed(timings: dict[str, float], stage: str, fn, *args):
    """``fn(*args)``, adding its wall time to ``timings[stage]``."""
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        timings[stage] += time.perf_counter() - start


def solve_on(system: LinearSystem, timings: dict[str, float]) -> MeshSolve:
    """Solve ``system`` and take the residual, adding each step's seconds to
    ``timings`` (``solve_s``, ``residual_s``)."""
    solution = timed(timings, "solve_s", solve_direct, system)
    return MeshSolve(solution,
                     timed(timings, "residual_s", residual_norm, system, solution),
                     solver_name(system))


def run_cell(spec: ProblemSpec, N: int,
             variant: Variant = Variant.TRANSFORMED,
             mode: DoubleMeshMode = DoubleMeshMode.BISECT) -> CellResult:
    """Solve one (eps, N) cell, the chain of one: coarse solve, companion
    solve, estimate.  An unknown ``variant`` or ``mode`` raises
    ``ValueError`` before any mesh work."""
    return _chain_worker((spec, [N], Variant(variant), DoubleMeshMode(mode)))[0]


def _cell(spec: ProblemSpec, N: int, variant: Variant, mode: DoubleMeshMode,
          coarse: Optional[MeshSolve]) -> tuple[CellResult, Optional[MeshSolve]]:
    """The cell (eps, N), and in regenerate mode its companion's solve, the
    coarse solve of the cell of 2N.  ``coarse``, if given, is the solve on
    this cell's N-mesh; the cell then solves only its companion."""
    cell = CellResult(epsilon=spec.epsilon, N=N)
    t = cell.timings
    start = time.perf_counter()
    fine = None
    try:
        coarse_mesh = (timed(t, "mesh_s", mesh_mod.build_tensor_mesh, spec, N)
                       if coarse is None else coarse.solution.mesh)
        cell.sigma_x, cell.sigma_y = coarse_mesh.sigma_x, coarse_mesh.sigma_y
        # both meshes up front, so an infeasible companion costs no solve
        if mode is DoubleMeshMode.BISECT:
            fine_mesh = timed(t, "mesh_s", mesh_mod.bisect, coarse_mesh)
        else:
            fine_mesh = timed(t, "mesh_s", mesh_mod.build_tensor_mesh,
                               spec, 2 * N)
        cell.warnings = validate(spec, coarse_mesh)
        # both systems up front, so data bad on the companion costs no solve
        meshes = [coarse_mesh, fine_mesh] if coarse is None else [fine_mesh]
        systems = [timed(t, "assemble_s", assemble_system, spec, tm, variant)
                   for tm in meshes]
        if coarse is None:
            coarse = solve_on(systems.pop(0), t)
        else:
            cell.coarse_reused = True
        cell.residual_coarse = coarse.residual
        cell.max_u_coarse = coarse.solution.max_norm()
        cell.solver = coarse.solver

        fine = solve_on(systems.pop(), t)
        if fine.solver != coarse.solver:
            cell.solver += "+" + fine.solver
        cell.residual_fine = fine.residual
        cell.max_u_fine = fine.solution.max_norm()
        cell.D_eps = timed(t, "estimate_s", double_mesh_error,
                           coarse.solution, fine.solution)
    except CONTAINED_FAILURES as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    cell.wall_time = time.perf_counter() - start
    return cell, fine if mode is DoubleMeshMode.REGENERATE else None


def _chains(Ns: Sequence[int], mode: DoubleMeshMode) -> list[list[int]]:
    """Ns split into the runs a worker solves in order: in regenerate mode
    each N that doubles the one before joins its run, else every N is alone."""
    chains: list[list[int]] = []
    for N in Ns:
        if chains and mode is DoubleMeshMode.REGENERATE and N == 2 * chains[-1][-1]:
            chains[-1].append(N)
        else:
            chains.append([N])
    return chains


def _chain_worker(args) -> list[CellResult]:
    """The cells of one chain, each reusing the last one's companion solve."""
    spec, Ns, variant, mode = args
    cells, shared = [], None
    for N in Ns:
        cell, shared = _cell(spec, N, variant, mode, shared)
        cells.append(cell)
    return cells


def _run_pooled(jobs: list, workers: int) -> list[list[CellResult]]:
    """``_chain_worker`` over the jobs in a process pool.  If a worker dies,
    the chains finished by then keep their cells and every other chain runs
    again in a one-worker pool of its own, one after another, so a second
    crash is confined to (and names) its chain and memory pressure from the
    other workers is gone; a chain that crashes again records the crash as
    its cells' error."""
    # imported here: multiprocessing is start-up cost a serial sweep skips
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # a fork pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [pool.submit(_chain_worker, job) for job in jobs]
    results = []
    for job, future in zip(jobs, futures):
        try:
            results.append(future.result())
        except BrokenProcessPool:
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    results.append(pool.submit(_chain_worker, job).result())
            except BrokenProcessPool as exc:
                spec, Ns = job[0], job[1]
                results.append([CellResult(epsilon=spec.epsilon, N=N,
                                           error=f"BrokenProcessPool: {exc}")
                                for N in Ns])
    return results


@dataclass
class ConvergenceTable:
    """D(N, eps) per cell and the rows computed from it whenever a table is
    built: D_uniform, each column's max over its finite D_eps, and E_uniform,
    log2(D(N) / D(2N)) where the next N doubles and both D are positive."""
    epsilons: list[float]
    Ns: list[int]
    D_eps: np.ndarray          # shape (len(epsilons), len(Ns)), nan = missing
    D_uniform: np.ndarray = field(init=False)   # shape (len(Ns),)
    E_uniform: np.ndarray = field(init=False)   # shape (len(Ns) - 1,)

    def __post_init__(self):
        self.epsilons, self.Ns = list(self.epsilons), list(self.Ns)
        D_eps = self.D_eps = np.asarray(self.D_eps, dtype=float)
        n_cols = len(self.Ns)
        D_uniform = self.D_uniform = np.full(n_cols, np.nan)
        for k in range(n_cols):
            col = D_eps[:, k]
            finite = col[np.isfinite(col)]
            if finite.size:
                D_uniform[k] = finite.max()
        self.E_uniform = np.full(max(n_cols - 1, 0), np.nan)
        for k in range(n_cols - 1):
            if (self.Ns[k + 1] == 2 * self.Ns[k]
                    and D_uniform[k] > 0.0 and D_uniform[k + 1] > 0.0):
                self.E_uniform[k] = math.log2(D_uniform[k] / D_uniform[k + 1])


@dataclass
class SweepResult:
    table: ConvergenceTable
    cells: list[CellResult]
    variant: Variant
    mode: DoubleMeshMode
    problem: str


def run_sweep(spec: ProblemSpec, epsilons: Sequence[float], Ns: Sequence[int],
              variant: Variant = Variant.TRANSFORMED,
              mode: DoubleMeshMode = DoubleMeshMode.BISECT,
              workers: int = 1) -> SweepResult:
    """Fill the (eps, N) error table; failed cells are missing, not fatal.

    Work is split into chains (see ``_chains``); with ``workers > 1`` they
    run in a process pool, and a crashed worker costs only its own chain.
    ``variant`` and ``mode`` may be members or their values; anything else
    raises ``ValueError`` before any mesh work.
    """
    variant, mode = Variant(variant), DoubleMeshMode(mode)
    jobs = [(spec.with_epsilon(eps), chain, variant, mode)
            for eps in epsilons for chain in _chains(Ns, mode)]
    if workers > 1 and len(jobs) > 1:
        try:
            pickle.dumps(spec)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise MalformedSpec(f"problem {spec.name!r} cannot be sent to worker "
                                f"processes ({type(exc).__name__}: {exc}); its "
                                "fields must be module-level functions") from exc
        chains = _run_pooled(jobs, workers)
    else:
        chains = [_chain_worker(job) for job in jobs]
    cells = [cell for chain in chains for cell in chain]
    D = np.full((len(epsilons), len(Ns)), np.nan)
    for idx, cell in enumerate(cells):
        r, c = divmod(idx, len(Ns))
        if cell.ok:
            D[r, c] = cell.D_eps
    table = ConvergenceTable(epsilons, Ns, D)
    return SweepResult(table=table, cells=cells, variant=variant, mode=mode,
                       problem=spec.name)


# ---------------------------------------------------------------------------
# Smooth manufactured oracle: u*(x,y) = x sin(pi x) sin(pi y) solves Example 1
# (from its own factory: a registered "example1" must not change the oracle)
# with one continuous source f = -eps^2 lap u* + a u*_x + b u* on all quadrants.

_EXAMPLE1 = _make_example1()


def mms_exact(x, y):
    return x * np.sin(np.pi * x) * np.sin(np.pi * y)


def _mms_f(x, y):
    pi = np.pi
    sx, cx, sy = np.sin(pi * x), np.cos(pi * x), np.sin(pi * y)
    lap = 2.0 * pi * cx * sy - 2.0 * pi ** 2 * x * sx * sy
    ux = sx * sy + pi * x * cx * sy
    return (-_EXAMPLE1.epsilon ** 2 * lap + _EXAMPLE1.a_field(x, y) * ux
            + _EXAMPLE1.b_field(x, y) * x * sx * sy)


def manufactured_problem() -> ProblemSpec:
    return replace(_EXAMPLE1, f_quadrants=(_mms_f,) * 4, name="manufactured")


def manufactured_solution_study(Ns: Sequence[int],
                                variant: Variant = Variant.TRANSFORMED
                                ) -> ConvergenceTable:
    """Exact max-norm errors against u* on the fitted mesh, per N."""
    spec = manufactured_problem()
    errors = np.full((1, len(Ns)), np.nan)
    for k, N in enumerate(Ns):
        tm = mesh_mod.build_tensor_mesh(spec, N)
        system = assemble_system(spec, tm, variant)
        solution = solve_direct(system)
        X, Y = np.meshgrid(tm.x, tm.y)
        exact = mms_exact(X, Y).ravel()
        errors[0, k] = float(np.max(np.abs(solution.values - exact)))
    return ConvergenceTable([spec.epsilon], Ns, errors)


# ---------------------------------------------------------------------------
# Report writers.  The CSV layout mirrors the reference tables: one header
# row of Ns, one row per eps, then the uniform D row and the E row (one
# fewer entry; the last column stays empty).

def _table_rows(table: ConvergenceTable, missing: str) -> Iterator[list[str]]:
    """The header, eps, D and E rows as strings, ``missing`` for a value
    that is not finite."""
    def fmt(spec: str, values) -> list[str]:
        return [format(v, spec) if math.isfinite(v) else missing
                for v in values]

    yield ["eps"] + [str(n) for n in table.Ns]
    # eps as .1e, or as its shortest round-trip text where .1e collides
    labels = [f"{eps:.1e}" for eps in table.epsilons]
    for eps, label, row in zip(table.epsilons, labels, table.D_eps):
        yield ([label if labels.count(label) == 1 else repr(float(eps))]
               + fmt(".3e", row))
    yield ["D"] + fmt(".3e", table.D_uniform)
    yield ["E"] + fmt(".3f", table.E_uniform)


def write_table_csv(table: ConvergenceTable, stream: IO[str]) -> None:
    width = len(table.Ns) + 1
    for row in _table_rows(table, ""):
        stream.write(",".join(row + [""] * (width - len(row))) + "\n")


def format_table_text(table: ConvergenceTable) -> str:
    """Aligned plain-text rendering for terminal output."""
    return "\n".join(row[0].ljust(10) + "".join(c.rjust(11) for c in row[1:])
                     for row in _table_rows(table, "-"))


def _clean(v):
    """``v``, or None for a float that is not finite (JSON has no NaN)."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _record_dict(record) -> dict:
    """A dataclass's fields by name, non-finite floats as None."""
    return {f.name: _clean(getattr(record, f.name)) for f in fields(record)}


def sweep_to_dict(result: SweepResult) -> dict:
    return {
        "problem": result.problem,
        "variant": result.variant.value,
        "double_mesh": result.mode.value,
        "epsilons": result.table.epsilons,
        "Ns": result.table.Ns,
        "D_eps": [[_clean(v) for v in row] for row in result.table.D_eps],
        "D": [_clean(v) for v in result.table.D_uniform],
        "E": [_clean(v) for v in result.table.E_uniform],
        "cells": [_record_dict(c) for c in result.cells],
    }
