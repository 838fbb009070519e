import dataclasses
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import RegularGridInterpolator

import cd2d
from cd2d import (
    ConvergenceTable,
    DoubleMeshMode,
    GridFunction,
    TensorMesh,
    Variant,
    bisect,
    builtin_problem,
    build_tensor_mesh,
    double_mesh_error,
    manufactured_solution_study,
    run_cell,
    run_sweep,
    write_table_csv,
)
from cd2d import analysis, errors, mesh as mesh_mod, problems
from cd2d.analysis import (format_table_text, manufactured_problem,
                           mms_exact, sweep_to_dict)
from cd2d.assembly import assemble_system
from cd2d.cli import EXIT_INCOMPLETE, main
from cd2d.errors import CD2DError, GeometryError, MeshMismatch
from cd2d.problems import _REGISTRY, register_problem
from cd2d.solve import solve_direct

REL = 1e-6   # frozen double-mesh regression values
REGENERATE = DoubleMeshMode.REGENERATE


def test_order_estimate_values():
    def order(d_n, d_2n, Ns=(8, 16)):
        table = ConvergenceTable([1e-1], Ns, [[d_n, d_2n]])
        return table.E_uniform[0]

    assert order(6.807e-3, 3.672e-3) == pytest.approx(0.8905, abs=1e-3)
    assert order(5e-3, 5e-3) == 0.0
    assert order(4e-2, 1e-2) == pytest.approx(2.0, rel=1e-12)
    # E is an order between N and 2N only: other neighbours give none
    assert math.isnan(order(4e-2, 1e-2, Ns=(16, 64)))
    assert math.isnan(order(1e-2, 4e-2, Ns=(64, 32)))
    assert math.isnan(order(4e-2, 1e-2, Ns=(16, 16)))
    mixed = ConvergenceTable([1e-1], [16, 32, 128], [[4e-2, 2e-2, 5e-3]])
    assert mixed.E_uniform[0] == pytest.approx(1.0, rel=1e-12)
    assert math.isnan(mixed.E_uniform[1])
    buf = io.StringIO()
    write_table_csv(mixed, buf)
    assert buf.getvalue().splitlines()[-1] == "E,1.000,,"
    assert format_table_text(mixed).splitlines()[-1].split() == ["E", "1.000", "-"]


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
    # a regenerated 2N mesh does not nest, but it spans the coarse one and
    # is read bilinearly
    tm16 = build_tensor_mesh(ex1, 16)
    regenerated = GridFunction(mesh=tm16, values=np.zeros(17 ** 2))
    assert double_mesh_error(GridFunction(mesh=tm8, values=np.zeros(81)),
                             regenerated) == 0.0


def test_bilinear_estimate_matches_on_nested_pair(ex1, ex2):
    # every coarse node is a fine node of the bisected companion, so the
    # read-back is the even-index slice of the fine solution, bitwise
    for base in (ex1, ex2):
        for eps in (1e-2, 1e-5):
            spec = base.with_epsilon(eps)
            tm = build_tensor_mesh(spec, 16)
            for variant in Variant:
                coarse = solve_direct(assemble_system(spec, tm, variant))
                fine = solve_direct(assemble_system(spec, bisect(tm), variant))
                sliced = np.max(np.abs(fine.grid()[::2, ::2] - coarse.grid()))
                assert double_mesh_error(coarse, fine) == float(sliced), (
                    base.name, eps, variant)


def oracle_read(fine, xs, ys):
    """The fine solution at the points (ys x xs) through scipy's bilinear read."""
    interp = RegularGridInterpolator(
        (fine.mesh.y, fine.mesh.x), fine.grid(), method="linear")
    X, Y = np.meshgrid(xs, ys)
    return interp(np.stack([Y.ravel(), X.ravel()], axis=1)).reshape(X.shape)


def grid_function(xs, ys, values):
    """GridFunction on the tensor mesh of arbitrary axes xs, ys."""
    mesh = TensorMesh(x=np.asarray(xs, dtype=float),
                      y=np.asarray(ys, dtype=float),
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
            read = oracle_read(fine, coarse.mesh.x, coarse.mesh.y)
            expect = float(np.max(np.abs(read - coarse.grid())))
            got = double_mesh_error(coarse, fine)
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
@settings(max_examples=60)
def test_bilinear_read_matches_oracle_on_random_axes(data, n, seed):
    fine_x, fine_y = _fine_axis(data.draw, n), _fine_axis(data.draw, n)
    xs, ys = _coarse_axis(data.draw, fine_x), _coarse_axis(data.draw, fine_y)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, (2 * n + 1, 2 * n + 1))
    fine = grid_function(fine_x, fine_y, u)
    # coarse values equal to the oracle's read make D the read-back error
    coarse = grid_function(xs, ys, oracle_read(fine, xs, ys))
    assert double_mesh_error(coarse, fine) <= 4 * np.finfo(float).eps


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
    assert double_mesh_error(coarse, fine) == 0.0


def test_bilinear_estimate_mismatch(ex1):
    tm8 = build_tensor_mesh(ex1, 8)
    coarse = GridFunction(mesh=tm8, values=np.zeros(81))
    for N in (8, 32):
        with pytest.raises(MeshMismatch, match="intervals"):
            double_mesh_error(coarse, GridFunction(
                mesh=build_tensor_mesh(ex1, N), values=np.zeros((N + 1) ** 2)))
    tm16 = build_tensor_mesh(ex1, 16)
    short_x = dataclasses.replace(tm16, x=0.9 * tm16.x)
    late_y = dataclasses.replace(tm16, y=0.1 + 0.9 * tm16.y)
    for mesh, axis in ((short_x, "x"), (late_y, "y")):
        with pytest.raises(MeshMismatch, match=f"fine {axis} axis"):
            double_mesh_error(coarse, GridFunction(
                mesh=mesh, values=np.zeros(17 ** 2)))


def test_run_cell_metadata(ex1):
    cell = run_cell(ex1.with_epsilon(1e-2), 16)
    assert cell.ok and cell.error is None
    assert cell.epsilon == 1e-2 and cell.N == 16
    tm = build_tensor_mesh(ex1.with_epsilon(1e-2), 16)
    assert cell.sigma_x == tm.sigma_x and cell.sigma_y == tm.sigma_y
    assert 0.0 < cell.D_eps < 1.0
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
    assert math.isnan(cell.D_eps)
    # eps 4e-8 is above the eps floor at N = 16 but below it at N = 32, so
    # the regenerated companion fails the cell before the coarse solve
    cell = run_cell(ex1.with_epsilon(4e-8), 16, mode=DoubleMeshMode.REGENERATE)
    assert "GeometryError" in cell.error and "N = 32" in cell.error
    assert math.isnan(cell.residual_coarse)


@pytest.mark.parametrize("mode", list(DoubleMeshMode))
def test_run_cell_past_the_companion_limit_fails_before_sampling(
        ex1, mode, monkeypatch):
    # N = 8760 is a valid N, but its 2N companion (bisected or built) is
    # past the int32 limit: the cell fails while its meshes are made, with
    # no more allocated than their point axes
    def must_not_run(*args):
        raise AssertionError("sampled or assembled a cell that cannot finish")

    monkeypatch.setattr(analysis, "assemble_system", must_not_run)
    monkeypatch.setattr(problems, "sample_problem", must_not_run)
    tracemalloc.start()
    try:
        cell = run_cell(ex1.with_epsilon(1e-2), 8760, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cell.error == ("GeometryError: N = 17520 overflows the int32 CSR "
                          "indices")
    assert math.isnan(cell.residual_coarse) and cell.solver is None
    assert peak < 2 ** 20


def test_run_cell_scalar_only_field(ex2):
    # math.sin rejects arrays; the field is then sampled point by point
    scalar = dataclasses.replace(ex2, epsilon=1e-3,
                                 b_field=lambda x, y: 25.0 + math.sin(x))
    twin = dataclasses.replace(ex2, epsilon=1e-3,
                               b_field=lambda x, y: 25.0 + np.sin(x))
    cell = run_cell(scalar, 16)
    assert cell.ok, cell.error
    assert cell.D_eps == pytest.approx(run_cell(twin, 16).D_eps, rel=1e-12)


def test_run_cell_records_memory_error_of_a_field(ex2):
    # a field that runs out of memory on the grid is called once, and the
    # cell records the MemoryError instead of sampling point by point
    calls = []

    def hungry_b(x, y):
        calls.append(np.shape(x))
        raise MemoryError("Unable to allocate 2.2 KiB")

    cell = run_cell(dataclasses.replace(ex2, epsilon=1e-3, b_field=hungry_b),
                    16)
    assert cell.error == "MemoryError: Unable to allocate 2.2 KiB"
    assert calls == [(1, 17)]
    assert cell.sigma_x == build_tensor_mesh(ex2.with_epsilon(1e-3), 16).sigma_x
    assert math.isnan(cell.residual_coarse) and cell.solver is None


def test_run_cell_nan_source_is_a_validation_error(ex1):
    spec = dataclasses.replace(
        ex1, f_quadrants=(lambda x, y: np.nan * x, *ex1.f_quadrants[1:]))
    cell = run_cell(spec, 16)
    assert not cell.ok
    assert cell.error.startswith("MalformedSpec: f on Q1 is not finite")
    assert "SingularMatrix" not in cell.error


@pytest.mark.parametrize("field, value", [("b_field", 1.0),
                                          ("a_field", np.nan)])
def test_run_cell_checks_the_companion_mesh(ex1, field, value):
    # bad data on an x line only the bisected companion has
    spec = ex1.with_epsilon(1e-2)
    coarse = build_tensor_mesh(spec, 16)
    line = bisect(coarse).x[3]
    assert line not in coarse.x
    default = getattr(spec, field)
    probe = dataclasses.replace(spec, **{field: lambda x, y: np.where(
        x == line, value, default(x, y))})
    cell = run_cell(probe, 16)
    assert cell.error.startswith("MalformedSpec: "), cell.error
    assert math.isnan(cell.D_eps)


def test_run_cell_assembles_the_companion_before_any_solve(ex1):
    # b = 1 on a line only the bisected companion has: the cell fails
    # before the coarse LU
    spec = ex1.with_epsilon(1e-2)
    line = bisect(build_tensor_mesh(spec, 64)).x[3]
    probe = dataclasses.replace(spec, b_field=lambda x, y: np.where(
        x == line, 1.0, 25.0))
    cell = run_cell(probe, 64)
    assert cell.error.startswith("MalformedSpec: b("), cell.error
    assert cell.timings["solve_s"] == 0.0
    assert math.isnan(cell.residual_coarse)


def _west_fails_inside(y):
    if 0.2 < y < 0.8:
        raise ValueError("no data inside")
    return 0.0


def _west_nan_inside(y):
    return math.nan if 0.2 < y < 0.8 else 0.0


@pytest.mark.parametrize("trace, error", [
    (_west_fails_inside, "MalformedSpec: west trace fails at 0.25: "
                         "ValueError: no data inside"),
    (_west_nan_inside, "MalformedSpec: west trace is not finite at 9 mesh "
                       "points")])
def test_run_cell_bad_trace_is_a_validation_error(ex1, trace, error):
    # the traces are sampled and checked with the rest of the data, so a
    # raising trace stays in its cell and a NaN one costs no LU
    spec = dataclasses.replace(ex1.with_epsilon(1e-2),
                               q_edges=(trace, *ex1.q_edges[1:]))
    cell = run_cell(spec, 16)
    assert cell.error == error
    assert cell.timings["solve_s"] == 0.0


@given(problem=st.sampled_from(["Example1", "Example2"]),
       variant=st.sampled_from(list(Variant)),
       mode=st.sampled_from(list(DoubleMeshMode)),
       log_eps=st.floats(math.log(1e-8), math.log(0.5)),
       d1=st.floats(0.02, 0.98),
       d2=st.floats(0.02, 0.98),
       N=st.sampled_from([8, 16, 32, 64]))
@settings(max_examples=40)
def test_run_cell_is_typed_or_finite_property(problem, variant, mode, log_eps,
                                              d1, d2, N):
    # every cell either meets the residual contract with a finite solution
    # or fails with a typed CD2DError; no silent NaN, no untyped failure
    spec = dataclasses.replace(builtin_problem(problem), d1=d1, d2=d2,
                               epsilon=math.exp(log_eps))
    cell = run_cell(spec, N, variant, mode)
    if cell.ok:
        assert cell.residual_coarse <= 1e-12 and cell.residual_fine <= 1e-12
        assert math.isfinite(cell.max_u_coarse)
        assert math.isfinite(cell.max_u_fine)
    else:
        assert cell.error is not None, "a cell failed without an error"
        name = cell.error.split(":", 1)[0]
        assert issubclass(getattr(errors, name, object), CD2DError), cell.error


@dataclasses.dataclass(frozen=True)
class LinearField:
    """c0 + cx x + cy y, a user coefficient that pickles."""
    c0: float
    cx: float
    cy: float

    def __call__(self, x, y):
        return self.c0 + self.cx * x + self.cy * y


@st.composite
def linear_fields(draw, floor):
    """A LinearField at least ``floor`` on the unit square: slopes of either
    sign up to 4 floor, and a constant that keeps 1% of floor to spare."""
    cx, cy = (draw(st.floats(-4.0, 4.0)) * floor for _ in range(2))
    spare = draw(st.floats(0.01, 1.0)) * floor
    return LinearField(floor + spare + max(0.0, -cx) + max(0.0, -cy), cx, cy)


@st.composite
def user_problems(draw):
    """Example 1's sources and traces with drawn eps, d1, d2, bounds and
    linear a >= alpha and b >= beta^2."""
    alpha, beta = draw(st.floats(0.1, 316.0)), draw(st.floats(0.1, 32.0))
    return dataclasses.replace(
        builtin_problem("Example1"), name="user",
        epsilon=10.0 ** draw(st.floats(-7.0, math.log10(0.3))),
        d1=draw(st.floats(0.01, 0.99)), d2=draw(st.floats(0.01, 0.99)),
        alpha=alpha, beta=beta, a_field=draw(linear_fields(alpha)),
        b_field=draw(linear_fields(beta ** 2)))


# the systems that once failed on the tensor path (ROADMAP item 2), and one
# on which it stalls, so the solve restarts on the LU
USER_EXAMPLES = [
    (dataclasses.replace(
        builtin_problem("Example1"), epsilon=7.14e-5, d1=0.436, d2=0.147,
        alpha=0.118, beta=5.93, a_field=LinearField(0.1468, 1.063, 0.00077),
        b_field=LinearField(45.68, 4.972, 0.0)), 32, DoubleMeshMode.BISECT),
    (dataclasses.replace(
        builtin_problem("Example1"), epsilon=3.21e-3, d1=0.230, d2=0.550,
        alpha=0.137, beta=1.79, a_field=LinearField(0.1895, 1.818, 0.0),
        b_field=LinearField(5.388, 0.5242, 0.1065)), 16, REGENERATE),
    (dataclasses.replace(
        builtin_problem("Example1"), epsilon=1e-4,
        b_field=LinearField(25.0, 0.0, 100.0)), 32, REGENERATE),
]


def _with_user_examples(test):
    for spec, N, mode in USER_EXAMPLES:
        test = example(spec=spec, N=N, variant=Variant.TRANSFORMED,
                       mode=mode)(test)
    return test


@given(spec=user_problems(), N=st.sampled_from([8, 16, 24, 32]),
       variant=st.sampled_from(list(Variant)),
       mode=st.sampled_from(list(DoubleMeshMode)))
@_with_user_examples
@settings(max_examples=50)
def test_user_problem_cells_solve_or_name_their_data(spec, N, variant, mode):
    # a cell of a user problem either solves both systems to the residual
    # contract, on whichever path, or fails on its mesh or its data: never
    # with SingularMatrix
    cell = run_cell(spec, N, variant, mode)
    if cell.ok:
        assert cell.residual_coarse <= 1e-12 and cell.residual_fine <= 1e-12
    else:
        assert cell.error.startswith(("GeometryError: ", "MalformedSpec: ")), (
            cell.error)


def test_user_examples_take_both_paths():
    # the reproducers end on the tensor path, b = 25 + 100y on the LU
    solvers = [run_cell(spec, N, mode=mode).solver
               for spec, N, mode in USER_EXAMPLES]
    assert solvers == ["tensor", "tensor", "tensor>MMD_AT_PLUS_A"]


def test_run_sweep_missing_cells_not_fatal(ex1):
    spec = dataclasses.replace(ex1, d2=0.9)
    result = run_sweep(spec, [0.5, 1e-3], [8, 16])
    D = result.table.D_eps
    assert np.all(np.isnan(D[0]))
    assert np.all(np.isfinite(D[1]))
    assert not np.isfinite(result.table.D_eps).all()
    # uniform row falls back to the finite entries
    assert np.array_equal(result.table.D_uniform, D[1])
    assert len(result.cells) == 4
    assert result.cells[0].error and result.cells[3].ok


@pytest.mark.parametrize("mode", list(DoubleMeshMode), ids=lambda m: m.value)
def test_run_sweep_non_integral_n_is_a_missing_cell(ex1, mode):
    # N = 16.0 is a GeometryError in its own cell; the N = 32 cell still
    # completes
    result = run_sweep(ex1, [0.1], [16.0, 32], mode=mode)
    bad, good = result.cells
    assert bad.error == ("GeometryError: N must be a multiple of 8 and at "
                         "least 8, got 16.0")
    assert good.ok and not good.coarse_reused


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
        assert result.table.D_eps[r, c] == cell.D_eps


def test_serial_sweep_imports_no_interpolation_or_process_pool():
    # a fresh interpreter, so modules loaded by other tests do not count
    src = os.path.dirname(os.path.dirname(os.path.abspath(cd2d.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import cd2d, cd2d.cli, numpy as np\n"
        "from cd2d import DoubleMeshMode, builtin_problem, run_sweep\n"
        "r = run_sweep(builtin_problem('Example2'), [1e-2], [8, 16],\n"
        "              mode=DoubleMeshMode.REGENERATE, workers=1)\n"
        "assert np.isfinite(r.table.D_eps).all()\n"
        "print([m for m in ('scipy.interpolate', 'concurrent.futures.process')\n"
        "       if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_run_sweep_worker_count_invariant(ex1):
    # [8, 32, 64] skips a doubling: 64 reuses 32's companion, 32 solves its
    # own coarse mesh, whatever the pool
    for mode in DoubleMeshMode:
        for Ns in ([8, 16], [8, 32, 64]):
            serial = run_sweep(ex1, [1e-1, 1e-2], Ns, mode=mode, workers=1)
            parallel = run_sweep(ex1, [1e-1, 1e-2], Ns, mode=mode, workers=2)
            assert np.array_equal(serial.table.D_eps,
                                  parallel.table.D_eps), (mode, Ns)
            assert ([c.coarse_reused for c in serial.cells]
                    == [c.coarse_reused for c in parallel.cells]), (mode, Ns)


def test_pool_is_capped_at_the_chain_count(ex1, monkeypatch):
    # a fork pool starts all of max_workers at its first submit; the fake
    # runs each chain inline, so no process is started
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    for result in (run_sweep(ex1, [1e-1, 1e-2], [8], workers=64),
                   run_sweep(ex1, [1e-1], [8, 16, 24], workers=2)):
        assert np.isfinite(result.table.D_eps).all()
    assert sizes == [2, 2]


def test_pooled_sweep_rejects_unpicklable_problem(ex1, monkeypatch):
    # a lambda field works serially; a pool could not send it, so the sweep
    # says why before starting one
    spec = dataclasses.replace(ex1, a_field=lambda x, y: 2.0)
    result = run_sweep(spec, [1e-1, 1e-2], [8], workers=1)
    assert np.isfinite(result.table.D_eps).all()

    def no_pool(*args):
        raise AssertionError("pool started")

    monkeypatch.setattr(analysis, "_run_pooled", no_pool)
    with pytest.raises(errors.MalformedSpec, match=(
            r"^problem 'Example1' cannot be sent to worker processes "
            r"\(\w+: .*\); its fields must be module-level "
            r"functions$")):
        run_sweep(spec, [1e-1, 1e-2], [8], workers=2)


def count_solves(monkeypatch):
    """A list that grows by one for every solve a sweep makes."""
    calls = []

    def counting(system):
        calls.append(system.mesh.n)
        return solve_direct(system)

    monkeypatch.setattr(analysis, "solve_direct", counting)
    return calls


def test_regenerate_sweep_solves_each_mesh_once(ex2, monkeypatch):
    calls = count_solves(monkeypatch)
    result = run_sweep(ex2, [1e-1, 1e-3], [8, 16, 32], mode=REGENERATE)
    # per eps row: 8 and 16 for the first cell, then only each companion
    assert sorted(calls) == [8, 8, 16, 16, 32, 32, 64, 64]
    assert [c.coarse_reused for c in result.cells] == [False, True, True] * 2
    assert np.isfinite(result.table.D_eps).all()
    calls.clear()
    result = run_sweep(ex2, [1e-1, 1e-3], [8, 32], mode=REGENERATE)
    assert len(calls) == 8                 # no N doubles: nothing shared
    assert not any(c.coarse_reused for c in result.cells)
    calls.clear()
    result = run_sweep(ex2, [1e-1, 1e-3], [8, 32, 64], mode=REGENERATE)
    # 8's companion is no cell's N-mesh; 64 takes 32's
    assert calls == [8, 16, 32, 64, 128] * 2
    assert [c.coarse_reused for c in result.cells] == [False, False, True] * 2
    assert np.isfinite(result.table.D_eps).all()


def test_untaken_companion_is_freed_before_the_next_solve(ex2, monkeypatch):
    # in the row 8, 32, 64 no cell takes cell 8's 16-mesh companion; the
    # chain must drop it before cell 32 solves, so a held solution adds
    # nothing to a later cell's peak memory
    refs, alive = {}, []

    def tracking(system):
        if system.mesh.n == 32:
            gc.collect()
            alive.append(refs[16]() is not None)
        solution = solve_direct(system)
        refs[solution.n] = weakref.ref(solution)
        return solution

    monkeypatch.setattr(analysis, "solve_direct", tracking)
    result = run_sweep(ex2, [1e-2], [8, 32, 64], mode=REGENERATE)
    assert alive == [False]
    assert [c.coarse_reused for c in result.cells] == [False, False, True]


def test_cells_name_their_solver_path(ex1, ex2):
    # each cell records the solver path of its solves, a reused coarse
    # solve's included, joined by "+" where the two differ; b = 25 + 25y
    # stays on the tensor path, and b = 25 + 100y varies too much with y
    # for it, so those solves restart on the LU
    tensor_spec = dataclasses.replace(ex2, b_field=lambda x, y: 25.0 + 25.0 * y)
    lu_spec = dataclasses.replace(ex2, b_field=lambda x, y: 25.0 + 100.0 * y)
    fallback = "tensor>MMD_AT_PLUS_A"
    for spec, path in ((ex1, "tensor"), (ex2, "tensor"),
                       (tensor_spec, "tensor"), (lu_spec, fallback)):
        result = run_sweep(spec, [1e-2], [8, 16], mode=REGENERATE)
        assert [c.coarse_reused for c in result.cells] == [False, True]
        assert [c.solver for c in result.cells] == [path, path]
    # a chain hands the companion's solve on whatever its path
    _, coarse = analysis._cell(lu_spec, 8, Variant.TRANSFORMED, REGENERATE,
                               None)
    assert coarse.solution.solver == fallback and coarse.solution.n == 16
    cell, _ = analysis._cell(ex1, 16, Variant.TRANSFORMED, REGENERATE, coarse)
    assert cell.ok and cell.coarse_reused
    assert cell.solver == fallback + "+tensor"


def test_sweep_choices_by_value_equal_members(ex2):
    # a member's value string means that member: the raw variant's table
    # (Example 2, eps 1e-3, N 8: D 0.01368, the transformed one's 0.2165)
    # and the regenerate chain's reuse, bitwise as with the members
    for variant, mode in ((Variant.RAW, DoubleMeshMode.BISECT),
                          (Variant.TRANSFORMED, REGENERATE)):
        by_member = run_sweep(ex2, [1e-3], [8, 16], variant, mode)
        by_value = run_sweep(ex2, [1e-3], [8, 16], variant.value, mode.value)
        assert (by_value.variant, by_value.mode) == (variant, mode)
        assert np.array_equal(by_value.table.D_eps, by_member.table.D_eps)
        assert ([c.coarse_reused for c in by_value.cells]
                == [c.coarse_reused for c in by_member.cells])
        assert sweep_to_dict(by_value)["variant"] == variant.value
    raw = run_sweep(ex2, [1e-3], [8], variant="raw").table.D_eps[0, 0]
    assert raw == pytest.approx(0.01368, rel=1e-3)
    spec = ex2.with_epsilon(1e-3)
    by_value = run_cell(spec, 8, "transformed", "regenerate")
    by_member = run_cell(spec, 8, Variant.TRANSFORMED, REGENERATE)
    assert by_value.ok and by_value.D_eps == by_member.D_eps


@pytest.mark.parametrize("kwargs", [{"mode": "bisection"}, {"mode": "nonsense"},
                                    {"variant": "Raw"}], ids=str)
def test_unknown_sweep_choice_raises_before_mesh_work(ex1, monkeypatch,
                                                      kwargs):
    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(mesh_mod, "build_tensor_mesh", no_mesh)
    with pytest.raises(ValueError):
        run_sweep(ex1, [1e-2], [8, 16], **kwargs)
    with pytest.raises(ValueError):
        run_cell(ex1, 8, **kwargs)


def test_regenerate_reuse_is_bitwise_standalone(ex2):
    result = run_sweep(ex2, [1e-1, 1e-3], [8, 16, 32], mode=REGENERATE)
    for cell in result.cells:
        alone = run_cell(ex2.with_epsilon(cell.epsilon), cell.N,
                         mode=REGENERATE)
        for name in ("D_eps", "sigma_x", "sigma_y", "residual_coarse",
                     "residual_fine", "max_u_coarse", "max_u_fine"):
            assert getattr(cell, name) == getattr(alone, name), (cell.N, name)
        assert cell.warnings == alone.warnings
        assert not alone.coarse_reused     # alone is a chain of one
        assert set(cell.timings) == set(alone.timings) == {
            "mesh_s", "assemble_s", "solve_s", "residual_s", "estimate_s"}
        assert all(math.isfinite(v) and v >= 0.0 for v in cell.timings.values())
    assert [c.coarse_reused for c in result.cells] == [False, True, True] * 2


def reachable(obj):
    """Every object reachable from ``obj`` through containers and instance
    attributes."""
    stack, seen = [obj], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        yield item
        if isinstance(item, dict):
            stack.extend(item.items())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())


def test_regenerate_cell_is_plain_data(ex2):
    # the companion solve is handed on by the chain loop, not by the cell:
    # a cell holds no solution, and the sweep JSON holds all of its fields
    cell = run_cell(ex2.with_epsilon(1e-3), 8, mode=REGENERATE)
    assert cell.ok
    assert not any(isinstance(item, (GridFunction, analysis.MeshSolve))
                   for item in reachable(cell))
    result = run_sweep(ex2, [1e-3], [8], mode=REGENERATE)
    record, = sweep_to_dict(result)["cells"]
    names = {f.name for f in dataclasses.fields(cell)}
    assert set(record) == names
    for name in names - {"wall_time", "timings"}:
        assert record[name] == getattr(cell, name), name
    json.dumps(record, allow_nan=False)


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
    assert [c.D_eps for c in good] == [c.D_eps for c in expect.cells]
    for cell in bad:
        assert cell.error.startswith("BrokenProcessPool: ")
        assert math.isnan(cell.D_eps)
    assert np.all(np.isfinite(result.table.D_eps[0]))
    assert np.all(np.isnan(result.table.D_eps[1]))
    # the command line reports the lost cells and exits 1
    try:
        register_problem("crash_probe", spec)
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
        assert cell.D_eps == pytest.approx(expect, rel=REL), (eps, N, variant)


def test_double_mesh_regression_example2(ex2):
    frozen = [
        (1e-1, 32, DoubleMeshMode.BISECT, 1.403407836e-2),
        (1e-4, 32, DoubleMeshMode.BISECT, 1.714229588e-2),
        (1e-4, 32, DoubleMeshMode.REGENERATE, 1.637559394e-2),
    ]
    for eps, N, mode, expect in frozen:
        cell = run_cell(ex2.with_epsilon(eps), N, Variant.TRANSFORMED, mode)
        assert cell.D_eps == pytest.approx(expect, rel=REL), (eps, N, mode)


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


def test_manufactured_problem_ignores_a_registered_example1(ex1):
    # the oracle is Example 1's own data, whatever the registry holds
    before = manufactured_problem()
    saved = _REGISTRY["example1"]
    try:
        register_problem("example1", dataclasses.replace(
            ex1, d1=0.3, alpha=1.0, a_field=lambda x, y: 1.0 + x))
        after = manufactured_problem()
    finally:
        _REGISTRY["example1"] = saved
    assert after == before
    assert after.name == "manufactured"
    assert (after.epsilon, after.d1, after.d2, after.alpha, after.beta) == (
        ex1.epsilon, ex1.d1, ex1.d2, ex1.alpha, ex1.beta)
    assert (after.a_field, after.b_field, after.q_edges) == (
        ex1.a_field, ex1.b_field, ex1.q_edges)


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
    t = ConvergenceTable([1e-1, 1e-2], [8, 16], D)
    assert t.D_uniform[0] == 2e-2 and t.D_uniform[1] == 1e-2
    assert t.E_uniform[0] == pytest.approx(1.0)
    assert not np.isfinite(t.D_eps).all()
    empty = ConvergenceTable([1e-1], [8, 16], np.array([[np.nan, 1e-3]]))
    assert math.isnan(empty.D_uniform[0])
    assert math.isnan(empty.E_uniform[0])
    # a zero error has no order on either side of it
    zero = ConvergenceTable([1e-1], [8, 16, 32], np.array([[1e-2, 0.0, 1e-3]]))
    assert zero.D_uniform[1] == 0.0
    assert np.all(np.isnan(zero.E_uniform))


def test_convergence_table_rows_follow_its_errors():
    # D and E are computed from D_eps whenever a table is built, so a
    # replaced D_eps brings its own rows, and neither row can be passed in
    table = ConvergenceTable([1e-1], [8, 16], [[2e-2, 1e-2]])
    replaced = dataclasses.replace(table, D_eps=[[4e-2, 1e-2]])
    assert list(replaced.D_uniform) == [4e-2, 1e-2]
    assert replaced.E_uniform[0] == 2.0
    assert list(table.D_uniform) == [2e-2, 1e-2] and table.E_uniform[0] == 1.0
    for row in ("D_uniform", "E_uniform"):
        with pytest.raises(TypeError, match=row):
            ConvergenceTable([1e-1], [8, 16], [[2e-2, 1e-2]], **{row: [0.0]})


def test_convergence_table_is_a_value():
    # the table keeps its own read-only copy of D_eps: neither the caller's
    # array nor an assignment can leave D and E behind their errors
    D = np.array([[2e-2, 1e-2]])
    table = ConvergenceTable([1e-1], [8, 16], D)
    D[0, 1] = 5e-3
    assert list(table.D_eps[0]) == [2e-2, 1e-2]
    assert list(table.D_uniform) == [2e-2, 1e-2] and table.E_uniform[0] == 1.0
    for row in (table.D_eps, table.D_uniform, table.E_uniform):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.D_eps = np.array([[4e-2, 1e-2]])
    assert list(table.D_uniform) == [2e-2, 1e-2]


def test_convergence_table_keeps_tuples_of_eps_and_ns():
    # eps and Ns are tuples: an appended N would head a CSV column with no
    # data, an appended eps a row the CSV drops, and the caller's lists are
    # the caller's; the JSON still writes them as lists
    epsilons, Ns = [1e-1], [8, 16]
    table = ConvergenceTable(epsilons, Ns, [[2e-2, 1e-2]])
    epsilons.append(1e-3)
    Ns.append(32)
    assert (table.epsilons, table.Ns) == ((1e-1,), (8, 16))
    for row in (table.epsilons, table.Ns):
        with pytest.raises(AttributeError):
            row.append(0)
    buf = io.StringIO()
    write_table_csv(table, buf)
    assert buf.getvalue().splitlines()[:2] == ["eps,8,16",
                                               "1.0e-01,2.000e-02,1.000e-02"]
    result = analysis.SweepResult(table, [], Variant.TRANSFORMED,
                                  DoubleMeshMode.BISECT, "Example1")
    record = json.loads(json.dumps(sweep_to_dict(result)))
    assert (record["epsilons"], record["Ns"]) == ([1e-1], [8, 16])


@pytest.mark.parametrize("D_eps, shape", [
    ([[1e-2]], r"\(1, 1\)"), ([[1e-2, 5e-3, 2e-3]], r"\(1, 3\)"),
    ([1e-2, 5e-3], r"\(2,\)")], ids=["narrow", "wide", "flat"])
def test_convergence_table_refuses_a_shape_off_its_lists(D_eps, shape):
    # a table must hold one row per eps and one column per N; a wide one
    # would write an eps row longer than its CSV header
    with pytest.raises(ValueError, match=(
            rf"^D_eps has shape {shape}, not the \(1, 2\) of its eps and Ns$")):
        ConvergenceTable([1e-1], [8, 16], D_eps)


def test_cell_result_is_frozen(ex1):
    cell = run_cell(ex1, 16)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cell.wall_time = 0.0
    assert cell.wall_time > 0.0
    assert dataclasses.replace(cell, error="injected").ok is False


def test_csv_golden():
    D = np.array([[1.234e-2, 6.17e-3], [2e-2, 1e-2]])
    t = ConvergenceTable([1e-1, 1e-3], [8, 16], D)
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
    t = ConvergenceTable([1e-2], [8, 16], D)
    text = format_table_text(t)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("eps")
    assert "-" in lines[1]
    assert "-" in lines[3]       # E needs two finite uniform errors


def test_sweep_json_takes_numpy_inputs(ex1):
    # numpy eps and Ns reach the table and the cells as numpy scalars; the
    # document is the one for lists, and json writes it
    def document(epsilons, Ns):
        payload = sweep_to_dict(run_sweep(ex1, epsilons, Ns))
        for cell in payload["cells"]:
            del cell["timings"], cell["wall_time"]
        return json.dumps(payload, allow_nan=False)

    assert (document(np.array([1e-2]), np.array([8, 16]))
            == document([1e-2], [8, 16]))


def test_sweep_dict_json_round_trip(ex1):
    spec = dataclasses.replace(ex1, d2=0.9)   # one eps row will fail
    result = run_sweep(spec, [0.5, 1e-2], [8])
    payload = sweep_to_dict(result)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["problem"] == "Example1"
    assert back["variant"] == "transformed"
    assert back["D_eps"][0][0] is None
    assert back["D_eps"][1][0] == pytest.approx(result.cells[1].D_eps)
    assert back["cells"][0]["error"]
