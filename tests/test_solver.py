import dataclasses
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import cd2d
from cd2d import (
    GridFunction,
    LinearSystem,
    RowKind,
    Variant,
    assemble_system,
    bisect,
    build_tensor_mesh,
    builtin_problem,
    residual_norm,
    solve_direct,
)
from cd2d.errors import DimensionMismatch, SingularMatrix
from cd2d.problems import ProblemSpec
from cd2d.solve import (_flush_subnormals, _libm, factorize,
                        write_grid_dump)


def identity_system(tm):
    dim = (tm.n + 1) ** 2
    return LinearSystem(
        matrix=sp.identity(dim, format="csr"), rhs=np.arange(dim, dtype=float),
        n=tm.n, mesh=tm, variant=Variant.TRANSFORMED,
        row_kinds=np.full(dim, int(RowKind.DIRICHLET), dtype=np.int8))


def test_identity_solve(ex1):
    tm = build_tensor_mesh(ex1, 8)
    system = identity_system(tm)
    u = solve_direct(system)
    assert np.array_equal(u.values, system.rhs)
    assert residual_norm(system, u) == 0.0


def test_zero_rhs_gives_zero(ex1):
    tm = build_tensor_mesh(ex1, 16)
    system = assemble_system(ex1, tm)
    system.rhs[:] = 0.0
    u = solve_direct(system)
    assert np.all(u.values == 0.0)


def test_solve_deterministic(ex2):
    spec = ex2.with_epsilon(1e-4)
    tm = build_tensor_mesh(spec, 32)
    a = solve_direct(assemble_system(spec, tm)).values
    b = solve_direct(assemble_system(spec, tm)).values
    assert np.array_equal(a, b)


def test_residual_contract(ex1, ex2):
    for spec in (ex1, ex2):
        for eps in (1e-1, 1e-4, 1e-6):
            for variant in (Variant.TRANSFORMED, Variant.RAW):
                s = spec.with_epsilon(eps)
                tm = build_tensor_mesh(s, 32)
                system = assemble_system(s, tm, variant)
                u = solve_direct(system)
                r = residual_norm(system, u)
                assert r <= 1e-10, (spec.name, eps, variant, r)


def test_residual_detects_perturbation(ex1):
    tm = build_tensor_mesh(ex1, 8)
    system = assemble_system(ex1, tm)
    u = solve_direct(system)
    k = system.flat_index(2, 2)
    bumped = GridFunction(mesh=tm, values=u.values + np.eye(81)[k])
    a_norm = float(np.abs(system.matrix).sum(axis=1).max())
    den = a_norm * bumped.max_norm() + float(np.max(np.abs(system.rhs)))
    # the diagonal entry alone contributes at least b >= beta^2 = 25
    bound = 25.0 * (1.0 - 1e-9) / den
    assert residual_norm(system, bumped) >= bound


def test_residual_dimension_mismatch(ex1):
    tm = build_tensor_mesh(ex1, 8)
    system = assemble_system(ex1, tm)
    short = GridFunction(mesh=tm, values=np.zeros(80))
    with pytest.raises(DimensionMismatch):
        residual_norm(system, short)


def test_solve_scales_linearly(ex1):
    spec = ex1.with_epsilon(1e-3)
    tm = build_tensor_mesh(spec, 16)
    system = assemble_system(spec, tm)
    u = solve_direct(system)
    scaled = dataclasses.replace(system, rhs=3.0 * system.rhs)
    v = solve_direct(scaled)
    assert np.allclose(v.values, 3.0 * u.values, rtol=1e-12, atol=1e-15)


def row_scaled(system):
    """Row-equilibrated CSC matrix and row scale, formed as the solver does."""
    d = 1.0 / np.abs(system.matrix).max(axis=1).toarray().ravel()
    return (sp.diags(d) @ system.matrix).tocsc(), d


def subnormals_survive():
    """True when this thread neither flushes nor zeroes subnormal numbers."""
    return bool(np.finfo(float).tiny / 2 > 0
                and np.nextafter(0.0, 1.0) * 1.0 > 0)


def test_factorization_stats_and_fill(ex1):
    # the 257^2 bisect companion of the N = 128 cell at eps = 1e-4
    spec = ex1.with_epsilon(1e-4)
    system = assemble_system(spec, bisect(build_tensor_mesh(spec, 128)))
    f = factorize(system)
    row_max = np.abs(system.matrix).max(axis=1).toarray().ravel()
    assert f.ordering == "MMD_AT_PLUS_A"
    assert f.row_max_range == (row_max.min(), row_max.max())
    scaled, _ = row_scaled(system)
    colamd = spla.splu(scaled)
    assert f.nnz_lu <= 0.7 * (colamd.L.nnz + colamd.U.nnz)
    u = f.solve(system.rhs)
    assert np.array_equal(u.values, solve_direct(system).values)
    assert residual_norm(system, u) <= 1e-12


def test_superlu_blocking_exits_cleanly():
    # A relax/panel_size pair SuperLU mishandles can corrupt the heap and
    # crash only at interpreter exit (relax = panel_size = 40 on a 65^2
    # system does), so factor and solve in a fresh interpreter and require
    # a clean exit.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cd2d.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "from cd2d import (Variant, assemble_system, build_tensor_mesh,\n"
        "                  builtin_problem, residual_norm)\n"
        "from cd2d.solve import factorize\n"
        "worst = 0.0\n"
        "for name in ('Example1', 'Example2'):\n"
        "    for variant in Variant:\n"
        "        for eps in (1e-1, 1e-4):\n"
        "            spec = builtin_problem(name).with_epsilon(eps)\n"
        "            for N in (16, 64):\n"
        "                system = assemble_system(\n"
        "                    spec, build_tensor_mesh(spec, N), variant)\n"
        "                u = factorize(system).solve(system.rhs)\n"
        "                worst = max(worst, residual_norm(system, u))\n"
        "print(repr(worst))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= 1e-12


def test_factorization_solves_other_rhs(ex1):
    tm = build_tensor_mesh(ex1, 8)
    system = assemble_system(ex1, tm)
    f = factorize(system)
    rhs = np.linspace(-1.0, 1.0, system.dimension)
    u = f.solve(rhs)
    assert residual_norm(dataclasses.replace(system, rhs=rhs), u) <= 1e-12
    with pytest.raises(DimensionMismatch):
        f.solve(rhs[:-1])


def test_float_environment_restored(ex1):
    assert subnormals_survive()
    tm = build_tensor_mesh(ex1, 16)
    solve_direct(assemble_system(ex1, tm))
    assert subnormals_survive()
    # two identical rows: no zero row, but SuperLU finds the factor singular
    dim = (tm.n + 1) ** 2
    mat = sp.identity(dim, format="lil")
    mat[1, 1] = 0.0
    mat[1, 0] = 1.0
    system = LinearSystem(matrix=mat.tocsr(), rhs=np.ones(dim), n=tm.n,
                          mesh=tm, variant=Variant.TRANSFORMED,
                          row_kinds=np.full(dim, int(RowKind.DIRICHLET),
                                            dtype=np.int8))
    with pytest.raises(SingularMatrix, match="singular"):
        solve_direct(system)
    assert subnormals_survive()


@pytest.mark.skipif(_libm() is None,
                    reason="the flush applies on x86-64 glibc only")
def test_flush_zeroes_subnormals():
    with _flush_subnormals():
        assert np.finfo(float).tiny / 2 == 0        # FTZ: results flushed
        assert np.nextafter(0.0, 1.0) * 1.0 == 0    # DAZ: inputs zeroed
    assert subnormals_survive()


@given(problem=st.sampled_from(["Example1", "Example2"]),
       variant=st.sampled_from(list(Variant)),
       log_eps=st.floats(math.log10(1e-6), math.log10(0.5)),
       N=st.sampled_from([8, 16, 32, 64]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_solve_matches_partial_pivoting_oracle(problem, variant, log_eps, N):
    spec = builtin_problem(problem).with_epsilon(10.0 ** log_eps)
    system = assemble_system(spec, build_tensor_mesh(spec, N), variant)
    u = solve_direct(system)
    assert residual_norm(system, u) <= 1e-12
    # oracle: SuperLU's default COLAMD ordering with plain partial pivoting
    scaled, d = row_scaled(system)
    u_ref = spla.splu(scaled, permc_spec="COLAMD",
                      diag_pivot_thresh=1.0).solve(d * system.rhs)
    scale = np.max(np.abs(u_ref))
    assert np.max(np.abs(u.values - u_ref)) <= 1e-10 * scale


def test_zero_row_rejected(ex1):
    tm = build_tensor_mesh(ex1, 8)
    mat = sp.lil_matrix((81, 81))
    for k in range(1, 81):
        mat[k, k] = 1.0
    system = LinearSystem(matrix=mat.tocsr(), rhs=np.zeros(81), n=8, mesh=tm,
                          variant=Variant.TRANSFORMED,
                          row_kinds=np.full(81, int(RowKind.DIRICHLET),
                                            dtype=np.int8))
    with pytest.raises(SingularMatrix):
        solve_direct(system)


def test_solution_bounded_example1(ex1):
    # |U| <= max|f|/alpha + max|q| = 0.6/2
    for eps in (1e-1, 1e-6):
        spec = ex1.with_epsilon(eps)
        tm = build_tensor_mesh(spec, 16)
        u = solve_direct(assemble_system(spec, tm))
        assert u.max_norm() <= 0.3


def test_solution_bounded_example2(ex2):
    # max f over the quadrant closures is 3, alpha = 2
    for eps in (1e-1, 1e-6):
        spec = ex2.with_epsilon(eps)
        tm = build_tensor_mesh(spec, 16)
        u = solve_direct(assemble_system(spec, tm))
        assert u.max_norm() <= 1.5


def test_positive_source_gives_nonnegative_solution(ex1):
    # with f = 0.5 everywhere and zero traces both variants stay >= 0;
    # the sign-structure defect does not bite at these parameters
    spec = ProblemSpec(
        epsilon=0.1, a_field=ex1.a_field, b_field=ex1.b_field,
        f_quadrants=(lambda x, y: 0.5,) * 4, q_edges=ex1.q_edges,
        d1=0.5, d2=0.5, alpha=2.0, beta=5.0)
    for eps in (1e-1, 1e-3, 1e-6):
        for variant in (Variant.TRANSFORMED, Variant.RAW):
            s = spec.with_epsilon(eps)
            tm = build_tensor_mesh(s, 16)
            u = solve_direct(assemble_system(s, tm, variant))
            assert u.values.min() == 0.0          # attained on the boundary
            interior = u.grid()[1:-1, 1:-1]
            assert interior.min() > 0.0


def test_grid_function_accessors(ex1):
    tm = build_tensor_mesh(ex1, 8)
    vals = np.arange(81.0)
    u = GridFunction(mesh=tm, values=vals)
    assert u.n == 8
    assert u.grid().shape == (9, 9)
    assert u.grid()[5, 3] == vals[5 * 9 + 3]
    assert u.max_norm() == 80.0


def test_grid_dump_format(tmp_path, ex1):
    tm = build_tensor_mesh(ex1, 8)
    u = solve_direct(assemble_system(ex1, tm))
    out = tmp_path / "u.dat"
    with out.open("w") as fh:
        write_grid_dump(u, fh)
    lines = out.read_text().splitlines()
    # 9 blocks of 9 data lines separated by 8 blank lines
    assert len(lines) == 9 * 9 + 8
    assert lines[9] == ""
    x, y, v = lines[0].split()
    assert float(x) == 0.0 and float(y) == 0.0 and float(v) == 0.0
    assert lines[-1] != ""


def oracle_grid_dump(solution, stream):
    """Reference dump: one line per grid point, each float formatted there."""
    xs = solution.mesh.x.points
    ys = solution.mesh.y.points
    grid = solution.grid()
    last = len(ys) - 1
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            stream.write(f"{x:.16e} {y:.16e} {grid[j, i]:.16e}\n")
        if j != last:
            stream.write("\n")


def dump_lines(solution, writer):
    """The dump split after each "\\n", so that a mismatch reports the first
    differing line instead of a diff of the whole text."""
    buf = io.StringIO()
    writer(solution, buf)
    return buf.getvalue().splitlines(keepends=True)


@pytest.mark.parametrize("problem", ["Example1", "Example2"])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("N", [8, 64])
def test_grid_dump_matches_oracle(problem, variant, N):
    spec = builtin_problem(problem).with_epsilon(1e-3)
    u = solve_direct(assemble_system(spec, build_tensor_mesh(spec, N),
                                     variant))
    lines = dump_lines(u, write_grid_dump)
    assert lines == dump_lines(u, oracle_grid_dump)
    assert lines[-1].endswith("\n") and lines[-1] != "\n"
    assert lines.count("\n") == N


def test_grid_dump_special_values(ex1):
    tm = build_tensor_mesh(ex1, 8)
    specials = [-0.0, 5e-324, -1e300, 1.0, 0.1]
    vals = np.resize(np.array(specials), 81)
    u = GridFunction(mesh=tm, values=vals)
    lines = dump_lines(u, write_grid_dump)
    assert lines == dump_lines(u, oracle_grid_dump)
    columns = [ln.split()[2] for ln in lines[:5]]
    assert columns == ["-0.0000000000000000e+00", "4.9406564584124654e-324",
                       "-1.0000000000000001e+300", "1.0000000000000000e+00",
                       "1.0000000000000001e-01"]
