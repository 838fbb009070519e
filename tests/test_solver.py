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
        mesh=tm, variant=Variant.TRANSFORMED)


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
    k = 2 * 9 + 2                   # point (2, 2), row-major
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
    """Row-equilibrated CSC matrix and row scale, formed by a diagonal
    product: the reference for the solver's scaling of the CSR arrays."""
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
    assert f.lu.L.nnz + f.lu.U.nnz <= 0.7 * (colamd.L.nnz + colamd.U.nnz)
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
    system = LinearSystem(matrix=mat.tocsr(), rhs=np.ones(dim), mesh=tm,
                          variant=Variant.TRANSFORMED)
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
    # an empty first, middle or last row, and a row that stores only zeros;
    # np.maximum.reduceat reads an empty segment as one element and fails on
    # an empty last one, so each must be caught before the row maxima
    tm = build_tensor_mesh(ex1, 8)
    for row, stored in ((0, ()), (40, ()), (80, ()), (40, (0.0, 0.0))):
        keep = np.arange(81) != row
        rows = np.r_[np.flatnonzero(keep), [row] * len(stored)]
        cols = np.r_[np.flatnonzero(keep), row + np.arange(len(stored))]
        vals = np.r_[np.ones(80), stored]
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(81, 81))
        assert mat.nnz == 80 + len(stored)
        system = LinearSystem(matrix=mat, rhs=np.zeros(81), mesh=tm,
                              variant=Variant.TRANSFORMED)
        with pytest.raises(SingularMatrix, match="zero row"):
            solve_direct(system)


SPLU_INPUT_CASES = [
    (problem, variant, eps, 16, False)
    for problem in ("Example1", "Example2") for variant in Variant
    for eps in (1e-1, 1e-6)
] + [("Example2", Variant.TRANSFORMED, 1e-4, 64, True)]


@pytest.fixture
def splu_inputs(monkeypatch):
    """The matrices handed to SuperLU, recorded around the real splu."""
    received = []
    real_splu = spla.splu

    def spy(matrix, **kwargs):
        received.append(matrix)
        return real_splu(matrix, **kwargs)

    monkeypatch.setattr(cd2d.solve.spla, "splu", spy)
    return received


@pytest.mark.parametrize("problem, variant, eps, N, companion",
                         SPLU_INPUT_CASES)
def test_splu_input_is_row_scaled_matrix(splu_inputs, problem, variant, eps,
                                         N, companion):
    # the CSR that assembly emits and the CSC that SuperLU receives are
    # bitwise those of a diagonal row scaling of a canonical CSR
    spec = builtin_problem(problem).with_epsilon(eps)
    mesh = build_tensor_mesh(spec, N)
    system = assemble_system(spec, bisect(mesh) if companion else mesh,
                             variant)
    a = system.matrix
    assert a.indices.dtype == a.indptr.dtype == np.int32
    row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    assert np.all(np.diff(row * a.shape[1] + a.indices) > 0)  # sorted, unique
    factorize(system)
    expected, _ = row_scaled(system)
    (given_csc,) = splu_inputs
    assert given_csc.format == "csc"
    for attr in ("data", "indices", "indptr"):
        got, want = getattr(given_csc, attr), getattr(expected, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want), attr


def test_stored_zero_left_out_of_splu_input(ex1, splu_inputs):
    # a stored 0.0 is dropped from the scaled copy handed to SuperLU, as a
    # diagonal product drops it, and stays in the system's own matrix
    tm = build_tensor_mesh(ex1, 8)
    mat = sp.csr_matrix((np.r_[np.ones(81), 0.0],
                         (np.r_[np.arange(81), 40], np.r_[np.arange(81), 41])),
                        shape=(81, 81))
    system = LinearSystem(matrix=mat, rhs=np.ones(81), mesh=tm,
                          variant=Variant.TRANSFORMED)
    assert np.array_equal(factorize(system).solve(system.rhs).values,
                          np.ones(81))
    (given_csc,) = splu_inputs
    assert given_csc.nnz == 81 and np.all(given_csc.data != 0.0)
    assert mat.nnz == 82 and mat.indices[41] == 41


def test_residual_norm_skips_empty_rows(ex1):
    # ||A||_inf over a matrix whose first and last rows are empty, which
    # np.add.reduceat alone would misread (first) or fail on (last)
    tm = build_tensor_mesh(ex1, 8)
    diag = np.r_[0.0, np.full(79, 2.0), 0.0]
    mat = sp.diags(diag, format="csr")
    mat.eliminate_zeros()
    system = LinearSystem(matrix=mat, rhs=np.ones(81), mesh=tm,
                          variant=Variant.TRANSFORMED)
    u = GridFunction(mesh=tm, values=np.full(81, 0.25))
    # ||A U - rhs|| = 1 (the empty rows), ||A|| = 2, ||U|| = 0.25, ||rhs|| = 1
    assert residual_norm(system, u) == 1.0 / (2.0 * 0.25 + 1.0)


@given(problem=st.sampled_from(["Example1", "Example2"]),
       log_eps=st.floats(math.log10(1e-6), math.log10(0.5)),
       N=st.sampled_from([8, 16, 32, 64]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_raw_solution_within_stability_bound(problem, log_eps, N):
    # the raw variant's defects are confined to the interface rows, and
    # |U| <= (1/alpha) max|f| + max|q| holds for it (worst ratio on a 9-eps
    # grid: 0.080 for Example1, 0.069 for Example2); the transformed variant
    # is not of positive type, so there the bound is measured, not claimed
    spec = builtin_problem(problem).with_epsilon(10.0 ** log_eps)
    system = assemble_system(spec, build_tensor_mesh(spec, N), Variant.RAW)
    assert solve_direct(system).max_norm() <= system.bound


def test_superlu_system_error_is_singular_matrix(ex1, monkeypatch):
    # an out-of-memory factorization can end in SystemError; it must be a
    # typed error confined to its cell, not an exception that ends the sweep
    def failing_splu(*args, **kwargs):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr(cd2d.solve.spla, "splu", failing_splu)
    spec = ex1.with_epsilon(1e-2)
    with pytest.raises(SingularMatrix, match="gstrf"):
        factorize(assemble_system(spec, build_tensor_mesh(spec, 16)))
    result = cd2d.run_sweep(ex1, [1e-2], [8, 16])
    assert [cell.error for cell in result.cells] == [
        "SingularMatrix: gstrf was called with invalid arguments"] * 2


# each record built from a fresh N = 8 system of Example1
ARRAY_RECORDS = {
    "TensorMesh": lambda system: system.mesh,
    "LinearSystem": lambda system: system,
    "Factorization": factorize,
    "GridFunction": solve_direct,
}


@pytest.mark.parametrize("record", sorted(ARRAY_RECORDS))
def test_array_records_compare_by_identity(ex1, record):
    build = ARRAY_RECORDS[record]
    a, b = (build(assemble_system(ex1, build_tensor_mesh(ex1, 8)))
            for _ in range(2))
    assert type(a).__name__ == record
    assert a == a and a != b            # equal values, distinct records
    assert len({a, b, a}) == 2


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
    xs = solution.mesh.x
    ys = solution.mesh.y
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
