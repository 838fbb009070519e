"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Each test prints ``ACCEPTANCE <k>: PASS/FAIL - <detail>`` before asserting,
so a red criterion still reports its measured numbers.  The reference
error-table values used by criteria 1 and 2 are the published figures the
solver is checked against; deviations are reported relative to them.
"""
import dataclasses
import itertools
import time

import numpy as np
import pytest

from cd2d import (
    DoubleMeshMode,
    Variant,
    assemble_system,
    build_tensor_mesh,
    builtin_problem,
    m_matrix_check,
    manufactured_solution_study,
    run_sweep,
    solve_direct,
)
from cd2d.analysis import format_table_text

from mesh_invariants import check_mesh_invariants

DESK_EPSILONS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
DESK_NS = [32, 64, 128, 256]

# reference double-mesh errors for Example 1 (rows follow DESK_EPSILONS)
REFERENCE_D_EX1 = np.array([
    [6.145e-3, 3.221e-3, 1.630e-3, 8.111e-4],
    [6.797e-3, 3.667e-3, 1.908e-3, 9.740e-4],
    [6.806e-3, 3.672e-3, 1.911e-3, 9.758e-4],
    [6.807e-3, 3.672e-3, 1.912e-3, 9.758e-4],
    [6.807e-3, 3.672e-3, 1.912e-3, 9.758e-4],
    [6.807e-3, 3.672e-3, 1.912e-3, 9.758e-4],
])
REFERENCE_E_EX1 = np.array([0.890, 0.942, 0.970])

# reference uniform error and order for Example 2 at N = 32
REFERENCE_D32_EX2 = 1.298e-2
REFERENCE_E32_EX2 = 0.740

RUNTIME_BUDGET = 180.0          # seconds for the criterion-1 sweep
ORDER_BAND = (0.90, 1.15)       # frozen before the first convergence run


def _criterion(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def desk_run():
    spec = builtin_problem("example1")
    start = time.perf_counter()
    result = run_sweep(spec, DESK_EPSILONS, DESK_NS,
                       Variant.TRANSFORMED, DoubleMeshMode.BISECT)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def ex2_runs():
    spec = builtin_problem("example2")
    return {
        mode: run_sweep(spec, DESK_EPSILONS, [32, 64],
                        Variant.TRANSFORMED, mode)
        for mode in (DoubleMeshMode.BISECT, DoubleMeshMode.REGENERATE)
    }


def test_acceptance_1_example1_reference_table(desk_run):
    """Every desk-size D and E entry within 5% / 0.05 of the reference."""
    result, elapsed = desk_run
    table = result.table
    complete = bool(np.isfinite(table.D_eps).all())
    d_dev = float(np.max(np.abs(table.D_eps - REFERENCE_D_EX1)
                         / REFERENCE_D_EX1)) if complete else float("inf")
    e_dev = float(np.max(np.abs(table.E_uniform - REFERENCE_E_EX1)))
    in_time = elapsed <= RUNTIME_BUDGET
    ok = complete and d_dev <= 0.05 and e_dev <= 0.05 and in_time
    detail = (f"max |D-ref|/ref {d_dev:.1%} (allowed 5%), "
              f"max |E-ref| {e_dev:.3f} (allowed 0.05), "
              f"wall {elapsed:.0f}s (budget {RUNTIME_BUDGET:.0f}s)")
    assert _criterion(1, ok, detail), detail


def test_acceptance_2_example2_reference_point(ex2_runs):
    """D(32) and E(32) in band for at least one companion-mesh convention."""
    parts = []
    ok = False
    for mode, result in ex2_runs.items():
        d32 = float(result.table.D_uniform[0])
        e32 = float(result.table.E_uniform[0])
        d_dev = abs(d32 - REFERENCE_D32_EX2) / REFERENCE_D32_EX2
        e_dev = abs(e32 - REFERENCE_E32_EX2)
        mode_ok = d_dev <= 0.05 and e_dev <= 0.05
        ok = ok or mode_ok
        parts.append(f"{mode.value}: D32={d32:.3e} ({d_dev:+.1%}), "
                     f"E32={e32:.3f} (dev {e_dev:.3f})")
    detail = "; ".join(parts)
    assert _criterion(2, ok, detail), detail


def test_acceptance_3_epsilon_robustness(desk_run):
    """D(N=128, eps) varies by at most 1% across eps = 1e-3 .. 1e-6."""
    result, _ = desk_run
    col = result.table.D_eps[2:, DESK_NS.index(128)]
    spread = float((col.max() - col.min()) / col.min())
    ok = bool(np.all(np.isfinite(col))) and spread <= 0.01
    detail = f"relative spread {spread:.2%} over eps 1e-3..1e-6 (allowed 1%)"
    assert _criterion(3, ok, detail), detail


def test_acceptance_4_transformed_sign_structure():
    """Transformed rows: no positive off-diagonals, inverse >= -1e-12."""
    total_violations = 0
    worst_inverse = 0.0
    for name, N, eps in itertools.product(("example1", "example2"),
                                          (16, 32), (1e-1, 1e-3, 1e-6)):
        spec = builtin_problem(name).with_epsilon(eps)
        tm = build_tensor_mesh(spec, N)
        report = m_matrix_check(assemble_system(spec, tm, Variant.TRANSFORMED))
        total_violations += report.n_sign_violations
        total_violations += len(report.nonpositive_diagonal_rows)
        if report.min_inverse_entry is not None:
            worst_inverse = min(worst_inverse, report.min_inverse_entry)
    ok = total_violations == 0 and worst_inverse >= -1e-12
    detail = (f"{total_violations} sign defects over 12 systems, "
              f"min inverse entry {worst_inverse:.3e} (allowed -1e-12)")
    assert _criterion(4, ok, detail), detail


def test_acceptance_4_raw_reports_violations():
    """Raw variant: the diagnostic localizes its defects to the i=N/2 rows."""
    ok = True
    counts = []
    for name, N in itertools.product(("example1", "example2"), (16, 32)):
        spec = builtin_problem(name).with_epsilon(1e-3)
        tm = build_tensor_mesh(spec, N)
        report = m_matrix_check(assemble_system(spec, tm, Variant.RAW))
        counts.append(report.n_sign_violations)
        on_interface = all(r % (N + 1) == N // 2
                           for r in report.violating_rows)
        ok = ok and report.n_sign_violations > 0 and on_interface
    detail = (f"violations {counts} across the four raw systems, "
              "all located in interface rows")
    assert _criterion(4, ok, detail), detail


def test_acceptance_5_stability_bound(desk_run, ex2_runs):
    """Every computed solution obeys |U| <= max|f|/alpha + max|q|."""
    bound1 = assemble_system(builtin_problem("example1"), build_tensor_mesh(
        builtin_problem("example1"), 32)).bound
    bound2 = assemble_system(builtin_problem("example2"), build_tensor_mesh(
        builtin_problem("example2"), 32)).bound
    assert bound1 == pytest.approx(0.3)
    assert bound2 == pytest.approx(1.5)
    worst = 0.0
    ok = True
    result, _ = desk_run
    runs = [(result, bound1)] + [(r, bound2) for r in ex2_runs.values()]
    n_solves = 0
    for run, bound in runs:
        for cell in run.cells:
            for value in (cell.max_u_coarse, cell.max_u_fine):
                if np.isfinite(value):
                    n_solves += 1
                    worst = max(worst, value / bound)
                    ok = ok and value <= bound
    detail = f"max |U|/bound = {worst:.4f} over {n_solves} solves (allowed 1)"
    assert _criterion(5, ok, detail), detail


def test_acceptance_6_variant_agreement():
    """Raw and transformed solutions differ by at most 1e-9 in max norm."""
    worst = 0.0
    where = None
    for name, N, eps in itertools.product(("example1", "example2"),
                                          (8, 16, 32), (1e-1, 1e-3)):
        spec = builtin_problem(name).with_epsilon(eps)
        tm = build_tensor_mesh(spec, N)
        u_t = solve_direct(assemble_system(spec, tm, Variant.TRANSFORMED))
        u_r = solve_direct(assemble_system(spec, tm, Variant.RAW))
        diff = float(np.max(np.abs(u_t.values - u_r.values)))
        if diff > worst:
            worst, where = diff, (name, N, eps)
    ok = worst <= 1e-9
    detail = f"max difference {worst:.3e} at {where} (allowed 1e-9)"
    assert _criterion(6, ok, detail), detail


def test_acceptance_7_smooth_oracle_convergence():
    """Errors against the smooth exact solution decay at first order."""
    table = manufactured_solution_study([32, 64, 128, 256],
                                        Variant.TRANSFORMED)
    errs = table.D_eps[0]
    orders = table.E_uniform
    monotone = bool(np.all(np.diff(errs) < 0.0))
    in_band = bool(np.all((orders >= ORDER_BAND[0]) & (orders <= ORDER_BAND[1])))
    ok = monotone and in_band
    detail = (f"errors {[f'{e:.3e}' for e in errs]}, "
              f"orders {[f'{o:.3f}' for o in orders]}, band {ORDER_BAND}")
    assert _criterion(7, ok, detail), detail


def test_acceptance_8_mesh_property_runtime():
    """The mesh invariant battery clears in under a second."""
    spec0 = builtin_problem("example1")
    cases = list(itertools.product(
        (0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
        (8, 16, 32),
        ((0.5, 0.5), (0.4, 0.6), (0.25, 0.75)),
    ))
    start = time.perf_counter()
    feasible = 0
    for eps, N, (d1, d2) in cases:
        spec = dataclasses.replace(spec0, epsilon=eps, d1=d1, d2=d2)
        if check_mesh_invariants(spec, N):
            feasible += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    detail = (f"{len(cases)} parameter sets ({feasible} feasible) "
              f"in {elapsed:.3f}s (allowed 1s)")
    assert _criterion(8, ok, detail), detail


@pytest.mark.slow
def test_full_error_tables_slow():
    """Six-epsilon sweeps up to N = 512 complete with decaying uniform error.

    Both examples take the fast diagonalization, so the N = 1024 columns
    fit in about 1.1 GB, but they add some two and a half minutes; the
    sweeps stop at 512.
    """
    for name in ("example1", "example2"):
        spec = builtin_problem(name)
        result = run_sweep(spec, DESK_EPSILONS, [32, 64, 128, 256, 512],
                           Variant.TRANSFORMED, DoubleMeshMode.BISECT)
        print(f"\n{name}:")
        print(format_table_text(result.table))
        assert np.isfinite(result.table.D_eps).all()
        assert np.all(np.diff(result.table.D_uniform) < 0.0)
