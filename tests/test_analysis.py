import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import RegularGridInterpolator

import cd2d
from cd2d import (
    Axis,
    ConvergenceTable,
    DoubleMeshMode,
    GridFunction,
    Mesh1D,
    TensorMesh,
    Variant,
    bisect,
    builtin_problem,
    build_tensor_mesh,
    double_mesh_error,
    double_mesh_error_bilinear,
    manufactured_problem,
    manufactured_solution_study,
    mms_exact,
    order_estimate,
    run_cell,
    run_sweep,
    write_table_csv,
)
from cd2d import analysis, mesh as mesh_mod
from cd2d.analysis import format_table_text, sweep_to_dict
from cd2d.assembly import assemble_system
from cd2d.cli import EXIT_INCOMPLETE, main
from cd2d.errors import GeometryError, MeshMismatch, NonPositiveError
from cd2d.problems import _REGISTRY, register_problem
from cd2d.solve import solve_direct

REL = 1e-6   # frozen double-mesh regression values
REGENERATE = DoubleMeshMode.REGENERATE


def test_order_estimate_values():
    assert order_estimate(6.807e-3, 3.672e-3) == pytest.approx(0.8905, abs=1e-3)
    assert order_estimate(5e-3, 5e-3) == 0.0
    assert order_estimate(4e-2, 1e-2) == pytest.approx(2.0, rel=1e-12)


def test_order_estimate_rejects_nonpositive():
    with pytest.raises(NonPositiveError):
        order_estimate(0.0, 1e-3)
    with pytest.raises(NonPositiveError):
        order_estimate(1e-3, -1e-3)
    with pytest.raises(NonPositiveError):
        order_estimate(float("nan"), 1e-3)


def test_double_mesh_error_hand_values(ex1):
    tm = build_tensor_mesh(ex1, 8)
    fine_mesh = bisect(tm)
    coarse = GridFunction(mesh=tm, values=np.ones(81))
    fine_vals = np.ones((17, 17))
    assert double_mesh_error(coarse, GridFunction(
        mesh=fine_mesh, values=fine_vals.ravel().copy())) == 0.0
    bumped = fine_vals.copy()
    bumped[6, 4] += 0.25          # coarse point (2, 3)
    assert double_mesh_error(coarse, GridFunction(
        mesh=fine_mesh, values=bumped.ravel())) == 0.25
    odd = fine_vals.copy()
    odd[5, 3] += 9.0              # midpoint, invisible to the estimate
    assert double_mesh_error(coarse, GridFunction(
        mesh=fine_mesh, values=odd.ravel())) == 0.0


def test_double_mesh_error_mismatch(ex1):
    tm8 = build_tensor_mesh(ex1, 8)
    tm32 = build_tensor_mesh(ex1, 32)
    with pytest.raises(MeshMismatch):
        double_mesh_error(GridFunction(mesh=tm8, values=np.zeros(81)),
                          GridFunction(mesh=tm32, values=np.zeros(33 ** 2)))
    # a regenerated 2N mesh has different transition widths, so it does
    # not nest even though the interval count matches
    tm16 = build_tensor_mesh(ex1, 16)
    with pytest.raises(MeshMismatch):
        double_mesh_error(GridFunction(mesh=tm8, values=np.zeros(81)),
                          GridFunction(mesh=tm16, values=np.zeros(17 ** 2)))


def test_bilinear_estimate_matches_on_nested_pair(ex1):
    spec = ex1.with_epsilon(1e-2)
    tm = build_tensor_mesh(spec, 16)
    coarse = solve_direct(assemble_system(spec, tm))
    fine_mesh = bisect(tm)
    fine = solve_direct(assemble_system(spec, fine_mesh))
    exact = double_mesh_error(coarse, fine)
    interpolated = double_mesh_error_bilinear(coarse, fine)
    assert interpolated == pytest.approx(exact, rel=1e-9, abs=1e-14)


def oracle_read(fine, xs, ys):
    """The fine solution at the points (ys x xs) through scipy's bilinear read."""
    interp = RegularGridInterpolator(
        (fine.mesh.y.points, fine.mesh.x.points), fine.grid(), method="linear")
    X, Y = np.meshgrid(xs, ys)
    return interp(np.stack([Y.ravel(), X.ravel()], axis=1)).reshape(X.shape)


def grid_function(xs, ys, values):
    """GridFunction on the tensor mesh of arbitrary axes xs, ys."""
    n = len(xs) - 1
    mesh = TensorMesh(x=Mesh1D(np.asarray(xs), (0.0, 1.0), (n,), Axis.X),
                      y=Mesh1D(np.asarray(ys), (0.0, 1.0), (n,), Axis.Y),
                      sigma_x=math.nan, sigma_y=math.nan)
    return GridFunction(mesh=mesh, values=np.asarray(values, dtype=float).ravel())


@pytest.mark.parametrize("name", ["Example1", "Example2"])
def test_bilinear_estimate_matches_oracle_on_regenerate_pairs(name):
    base = builtin_problem(name)
    for eps in (1e-1, 1e-4, 1e-6):
        spec = base.with_epsilon(eps)
        for N in (8, 16, 64):
            coarse = solve_direct(assemble_system(spec, build_tensor_mesh(spec, N)))
            fine = solve_direct(assemble_system(spec, build_tensor_mesh(spec, 2 * N)))
            read = oracle_read(fine, coarse.mesh.x.points, coarse.mesh.y.points)
            expect = float(np.max(np.abs(read - coarse.grid())))
            got = double_mesh_error_bilinear(coarse, fine)
            assert got == pytest.approx(expect, rel=1e-13, abs=0.0), (eps, N)


def _fine_axis(draw, n):
    inner = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=2 * n - 1,
                          max_size=2 * n - 1, unique=True))
    return np.array([0.0, *sorted(inner), 1.0])


def _coarse_axis(draw, fine):
    """0, 1 and n - 1 interior fine nodes or fine interval midpoints."""
    n = (fine.size - 1) // 2
    mids = 0.5 * (fine[:-1] + fine[1:])
    candidates = np.unique(np.concatenate([fine[1:-1], mids]))
    candidates = candidates[(candidates > 0.0) & (candidates < 1.0)]
    picks = draw(st.lists(st.integers(0, candidates.size - 1), min_size=n - 1,
                          max_size=n - 1, unique=True))
    return np.array([0.0, *sorted(candidates[picks]), 1.0])


@given(data=st.data(), n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_bilinear_read_matches_oracle_on_random_axes(data, n, seed):
    fine_x, fine_y = _fine_axis(data.draw, n), _fine_axis(data.draw, n)
    xs, ys = _coarse_axis(data.draw, fine_x), _coarse_axis(data.draw, fine_y)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, (2 * n + 1, 2 * n + 1))
    fine = grid_function(fine_x, fine_y, u)
    # coarse values equal to the oracle's read make D the read-back error
    coarse = grid_function(xs, ys, oracle_read(fine, xs, ys))
    assert double_mesh_error_bilinear(coarse, fine) <= 4 * np.finfo(float).eps


def test_bilinear_read_is_exact_at_fine_nodes():
    rng = np.random.default_rng(7)
    n = 6
    fine_x = np.array([0.0, *np.sort(rng.uniform(0, 1, 2 * n - 1)), 1.0])
    fine_y = np.array([0.0, *np.sort(rng.uniform(0, 1, 2 * n - 1)), 1.0])
    u = rng.uniform(-1.0, 1.0, (2 * n + 1, 2 * n + 1))
    fine = grid_function(fine_x, fine_y, u)
    # odd and even fine nodes, both ends included
    ix = np.array([0, 1, 4, 5, 7, 10, 12])
    iy = np.array([0, 3, 5, 6, 8, 11, 12])
    coarse = grid_function(fine_x[ix], fine_y[iy], u[np.ix_(iy, ix)])
    assert double_mesh_error_bilinear(coarse, fine) == 0.0


def test_bilinear_estimate_mismatch(ex1):
    tm8 = build_tensor_mesh(ex1, 8)
    coarse = GridFunction(mesh=tm8, values=np.zeros(81))
    for N in (8, 32):
        with pytest.raises(MeshMismatch, match="intervals"):
            double_mesh_error_bilinear(coarse, GridFunction(
                mesh=build_tensor_mesh(ex1, N), values=np.zeros((N + 1) ** 2)))
    tm16 = build_tensor_mesh(ex1, 16)
    short_x = dataclasses.replace(
        tm16, x=dataclasses.replace(tm16.x, points=0.9 * tm16.x.points))
    late_y = dataclasses.replace(
        tm16, y=dataclasses.replace(tm16.y, points=0.1 + 0.9 * tm16.y.points))
    for mesh, axis in ((short_x, "x"), (late_y, "y")):
        with pytest.raises(MeshMismatch, match=f"fine {axis} axis"):
            double_mesh_error_bilinear(coarse, GridFunction(
                mesh=mesh, values=np.zeros(17 ** 2)))


def test_run_cell_metadata(ex1):
    cell = run_cell(ex1.with_epsilon(1e-2), 16)
    assert cell.ok and cell.error is None
    assert cell.epsilon == 1e-2 and cell.N == 16
    tm = build_tensor_mesh(ex1.with_epsilon(1e-2), 16)
    assert cell.sigma_x == tm.sigma_x and cell.sigma_y == tm.sigma_y
    assert 0.0 < cell.d_eps < 1.0
    assert cell.residual_coarse <= 1e-10 and cell.residual_fine <= 1e-10
    assert cell.max_u_coarse <= 0.3 and cell.max_u_fine <= 0.3
    assert cell.wall_time > 0.0
    assert cell.warnings == []


def test_run_cell_warning_passthrough(ex1):
    cell = run_cell(ex1.with_epsilon(0.5), 16)
    assert cell.ok
    assert any("classical regime" in w for w in cell.warnings)


def test_run_cell_infeasible_geometry(ex1):
    spec = dataclasses.replace(ex1, d2=0.9, epsilon=0.5)
    cell = run_cell(spec, 8)
    assert not cell.ok
    assert "GeometryError" in cell.error
    assert math.isnan(cell.d_eps)
    # eps 4e-8 is above the eps floor at N = 16 but below it at N = 32, so
    # the regenerated companion fails the cell before the coarse solve
    cell = run_cell(ex1.with_epsilon(4e-8), 16, mode=DoubleMeshMode.REGENERATE)
    assert "GeometryError" in cell.error and "N = 32" in cell.error
    assert math.isnan(cell.residual_coarse)


def test_run_cell_scalar_only_field(ex2):
    # math.sin rejects arrays; the field is then sampled point by point
    scalar = dataclasses.replace(ex2, epsilon=1e-3,
                                 b_field=lambda x, y: 25.0 + math.sin(x))
    twin = dataclasses.replace(ex2, epsilon=1e-3,
                               b_field=lambda x, y: 25.0 + np.sin(x))
    cell = run_cell(scalar, 16)
    assert cell.ok, cell.error
    assert cell.d_eps == pytest.approx(run_cell(twin, 16).d_eps, rel=1e-12)


def test_run_cell_nan_source_is_a_validation_error(ex1):
    spec = dataclasses.replace(
        ex1, f_quadrants=(lambda x, y: np.nan * x, *ex1.f_quadrants[1:]))
    cell = run_cell(spec, 16)
    assert not cell.ok
    assert "f on Q1 is not finite" in cell.error
    assert "NonFiniteSolution" not in cell.error


def test_run_sweep_missing_cells_not_fatal(ex1):
    spec = dataclasses.replace(ex1, d2=0.9)
    result = run_sweep(spec, [0.5, 1e-3], [8, 16])
    D = result.table.D_eps
    assert np.all(np.isnan(D[0]))
    assert np.all(np.isfinite(D[1]))
    assert not result.table.complete
    # uniform row falls back to the finite entries
    assert np.array_equal(result.table.D_uniform, D[1])
    assert len(result.cells) == 4
    assert result.cells[0].error and result.cells[3].ok


def test_run_sweep_ordering_and_shape(ex1):
    result = run_sweep(ex1, [1e-1, 1e-2], [8, 16], Variant.TRANSFORMED,
                       DoubleMeshMode.BISECT)
    assert result.table.D_eps.shape == (2, 2)
    assert [ (c.epsilon, c.N) for c in result.cells ] == [
        (1e-1, 8), (1e-1, 16), (1e-2, 8), (1e-2, 16)]
    assert result.problem == "Example1"
    # every D entry matches its cell
    for idx, cell in enumerate(result.cells):
        r, c = divmod(idx, 2)
        assert result.table.D_eps[r, c] == cell.d_eps


def test_serial_sweep_imports_no_interpolation_or_process_pool():
    # a fresh interpreter, so modules loaded by other tests do not count
    src = os.path.dirname(os.path.dirname(os.path.abspath(cd2d.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import cd2d, cd2d.cli\n"
        "from cd2d import DoubleMeshMode, builtin_problem, run_sweep\n"
        "r = run_sweep(builtin_problem('Example2'), [1e-2], [8, 16],\n"
        "              mode=DoubleMeshMode.REGENERATE, workers=1)\n"
        "assert r.table.complete\n"
        "print([m for m in ('scipy.interpolate', 'concurrent.futures.process')\n"
        "       if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_run_sweep_worker_count_invariant(ex1):
    for mode in DoubleMeshMode:
        serial = run_sweep(ex1, [1e-1, 1e-2], [8, 16], mode=mode, workers=1)
        parallel = run_sweep(ex1, [1e-1, 1e-2], [8, 16], mode=mode, workers=2)
        assert np.array_equal(serial.table.D_eps, parallel.table.D_eps), mode
        assert ([c.coarse_reused for c in serial.cells]
                == [c.coarse_reused for c in parallel.cells]), mode


def count_solves(monkeypatch):
    """A list that grows by one for every solve a sweep makes."""
    calls = []

    def counting(system):
        calls.append(system.n)
        return solve_direct(system)

    monkeypatch.setattr(analysis, "solve_direct", counting)
    return calls


def test_regenerate_sweep_solves_each_mesh_once(ex2, monkeypatch):
    calls = count_solves(monkeypatch)
    result = run_sweep(ex2, [1e-1, 1e-3], [8, 16, 32], mode=REGENERATE)
    # per eps row: 8 and 16 for the first cell, then only each companion
    assert sorted(calls) == [8, 8, 16, 16, 32, 32, 64, 64]
    assert [c.coarse_reused for c in result.cells] == [False, True, True] * 2
    assert result.table.complete
    calls.clear()
    result = run_sweep(ex2, [1e-1, 1e-3], [8, 32], mode=REGENERATE)
    assert len(calls) == 8                 # no N doubles: nothing shared
    assert not any(c.coarse_reused for c in result.cells)


def test_regenerate_reuse_is_bitwise_standalone(ex2):
    result = run_sweep(ex2, [1e-1, 1e-3], [8, 16, 32], mode=REGENERATE)
    for cell in result.cells:
        alone = run_cell(ex2.with_epsilon(cell.epsilon), cell.N,
                         mode=REGENERATE)
        for name in ("d_eps", "sigma_x", "sigma_y", "residual_coarse",
                     "residual_fine", "max_u_coarse", "max_u_fine"):
            assert getattr(cell, name) == getattr(alone, name), (cell.N, name)
        assert cell.warnings == alone.warnings
        assert cell.fine is None           # the sweep keeps no solutions
        assert set(cell.timings) == set(alone.timings) == {
            "mesh_s", "assemble_s", "solve_s", "residual_s", "estimate_s"}
        assert all(math.isfinite(v) and v >= 0.0 for v in cell.timings.values())
    assert [c.coarse_reused for c in result.cells] == [False, True, True] * 2
    assert alone.fine.solution.n == 64     # alone is (1e-3, 32)
    wrong = run_cell(ex2.with_epsilon(1e-3), 16, mode=REGENERATE,
                     coarse=alone.fine)
    assert wrong.error.startswith("MeshMismatch: reused coarse solve has 64")


def test_regenerate_chain_after_failed_companion(ex1, monkeypatch):
    # eps 4e-8 is above the eps floor at N = 16 and below it at N = 32:
    # both cells fail as they do alone, and nothing is solved
    spec = ex1.with_epsilon(4e-8)
    calls = count_solves(monkeypatch)
    result = run_sweep(ex1, [4e-8], [16, 32], mode=REGENERATE)
    assert calls == []
    for cell in result.cells:
        assert "GeometryError" in cell.error
        assert cell.error == run_cell(spec, cell.N, mode=REGENERATE).error
    # a companion that fails once: the next cell solves its own coarse mesh
    build = mesh_mod.build_tensor_mesh
    failed = []

    def first_16_fails(spec, N):
        if N == 16 and not failed:
            failed.append(N)
            raise GeometryError("eps below the floor at N = 16")
        return build(spec, N)

    monkeypatch.setattr(mesh_mod, "build_tensor_mesh", first_16_fails)
    result = run_sweep(ex1, [1e-2], [8, 16, 32], mode=REGENERATE)
    assert sorted(calls) == [16, 32, 64]
    assert "GeometryError" in result.cells[0].error
    assert [c.coarse_reused for c in result.cells] == [False, False, True]
    assert result.cells[1].ok and result.cells[2].ok


def _a_crashes_on_thin_x_layer(x, y):
    """Example1's a = 2, but the process dies on a mesh with points inside
    [d1 - 1e-4, d1) = [0.4999, 0.5), which only small eps put there."""
    x = np.asarray(x)
    if np.any((x >= 0.4999) & (x < 0.5)):
        os._exit(1)
    return 2.0 + 0.0 * x


def test_crashed_worker_loses_only_its_chain(ex1, tmp_path, capsys):
    spec = dataclasses.replace(ex1, a_field=_a_crashes_on_thin_x_layer,
                               name="crash_probe")
    result = run_sweep(spec, [1e-1, 1e-3], [8, 16], mode=REGENERATE,
                       workers=2)
    good, bad = result.cells[:2], result.cells[2:]
    expect = run_sweep(ex1, [1e-1], [8, 16], mode=REGENERATE)
    assert [c.d_eps for c in good] == [c.d_eps for c in expect.cells]
    for cell in bad:
        assert cell.error.startswith("BrokenProcessPool: ")
        assert math.isnan(cell.d_eps)
    assert np.all(np.isfinite(result.table.D_eps[0]))
    assert np.all(np.isnan(result.table.D_eps[1]))
    # the command line reports the lost cells and exits 1
    try:
        register_problem("crash_probe", lambda: spec)
        rc = main(["sweep", "--problem", "crash_probe", "--epsilon", "1e-1",
                   "--epsilon", "1e-3", "--N", "8", "--workers", "2",
                   "--out-dir", str(tmp_path)])
    finally:
        _REGISTRY.pop("crash_probe", None)
    assert rc == EXIT_INCOMPLETE
    assert "missing cell eps=0.001 N=8: BrokenProcessPool" in capsys.readouterr().err


def test_double_mesh_regression_example1(ex1):
    frozen = [
        (1e-1, 32, Variant.RAW, DoubleMeshMode.BISECT, 1.292687941e-3),
        (1e-2, 32, Variant.RAW, DoubleMeshMode.BISECT, 1.463513679e-3),
        (1e-2, 32, Variant.RAW, DoubleMeshMode.REGENERATE, 1.207273793e-3),
        (1e-4, 64, Variant.TRANSFORMED, DoubleMeshMode.BISECT, 8.896997079e-4),
    ]
    for eps, N, variant, mode, expect in frozen:
        cell = run_cell(ex1.with_epsilon(eps), N, variant, mode)
        assert cell.d_eps == pytest.approx(expect, rel=REL), (eps, N, variant)


def test_double_mesh_regression_example2(ex2):
    frozen = [
        (1e-1, 32, DoubleMeshMode.BISECT, 1.403407836e-2),
        (1e-4, 32, DoubleMeshMode.BISECT, 1.714229588e-2),
        (1e-4, 32, DoubleMeshMode.REGENERATE, 1.637559394e-2),
    ]
    for eps, N, mode, expect in frozen:
        cell = run_cell(ex2.with_epsilon(eps), N, Variant.TRANSFORMED, mode)
        assert cell.d_eps == pytest.approx(expect, rel=REL), (eps, N, mode)


def test_manufactured_exact_solution_boundary():
    for t in np.linspace(0.0, 1.0, 9):
        assert abs(mms_exact(0.0, t)) < 1e-15
        assert abs(mms_exact(1.0, t)) < 1e-15
        assert abs(mms_exact(t, 0.0)) < 1e-15
        assert abs(mms_exact(t, 1.0)) < 1e-15


def test_manufactured_problem_is_continuous_across_lines():
    spec = manufactured_problem()
    for y in (0.2, 0.8):
        left = spec.f_quadrants[0](spec.d1, y)
        right = spec.f_quadrants[1](spec.d1, y)
        assert left == right


def test_manufactured_errors_frozen():
    table = manufactured_solution_study([16, 32, 64], Variant.TRANSFORMED)
    errs = table.D_eps[0]
    assert errs[0] == pytest.approx(4.695255017e-2, rel=REL)
    assert errs[1] == pytest.approx(2.246188275e-2, rel=REL)
    assert errs[2] == pytest.approx(1.076484074e-2, rel=REL)
    assert table.E_uniform[0] == pytest.approx(1.0637, abs=1e-3)
    assert table.E_uniform[1] == pytest.approx(1.0612, abs=1e-3)
    raw = manufactured_solution_study([16, 32], Variant.RAW)
    assert raw.D_eps[0][0] == pytest.approx(4.456034453e-2, rel=REL)
    assert raw.D_eps[0][1] == pytest.approx(2.171497943e-2, rel=REL)


def test_convergence_table_reduction_with_missing():
    D = np.array([[1e-2, np.nan], [2e-2, 1e-2]])
    t = ConvergenceTable.from_errors([1e-1, 1e-2], [8, 16], D)
    assert t.D_uniform[0] == 2e-2 and t.D_uniform[1] == 1e-2
    assert t.E_uniform[0] == pytest.approx(1.0)
    assert not t.complete
    empty = ConvergenceTable.from_errors([1e-1], [8, 16],
                                         np.array([[np.nan, 1e-3]]))
    assert math.isnan(empty.D_uniform[0])
    assert math.isnan(empty.E_uniform[0])


def test_csv_golden():
    D = np.array([[1.234e-2, 6.17e-3], [2e-2, 1e-2]])
    t = ConvergenceTable.from_errors([1e-1, 1e-3], [8, 16], D)
    buf = io.StringIO()
    write_table_csv(t, buf)
    assert buf.getvalue() == (
        "eps,8,16\n"
        "1.0e-01,1.234e-02,6.170e-03\n"
        "1.0e-03,2.000e-02,1.000e-02\n"
        "D,2.000e-02,1.000e-02\n"
        "E,1.000,\n"
    )


def test_text_table_marks_missing():
    D = np.array([[np.nan, 1e-3]])
    t = ConvergenceTable.from_errors([1e-2], [8, 16], D)
    text = format_table_text(t)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("eps")
    assert "-" in lines[1]
    assert "-" in lines[3]       # E needs two finite uniform errors


def test_sweep_dict_json_round_trip(ex1):
    spec = dataclasses.replace(ex1, d2=0.9)   # one eps row will fail
    result = run_sweep(spec, [0.5, 1e-2], [8])
    payload = sweep_to_dict(result)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["problem"] == "Example1"
    assert back["variant"] == "transformed"
    assert back["D_eps"][0][0] is None
    assert back["D_eps"][1][0] == pytest.approx(result.cells[1].d_eps)
    assert back["cells"][0]["error"]
