import dataclasses
import gc
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

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
from cd2d.analysis import manufactured_problem
from cd2d.errors import MeshMismatch, SingularMatrix
from cd2d.problems import ProblemSpec
from cd2d.cli import main as cli_main
from cd2d.solve import (_DUMP_BLOCK, _LUSolve, _TensorSolve,
                        _flush_subnormals, _format_e16, _libm, _refine,
                        write_grid_dump)


def identity_system(tm):
    dim = (tm.n + 1) ** 2
    return LinearSystem(matrix=sp.identity(dim, format="csr"),
                        rhs=np.arange(dim, dtype=float), mesh=tm)


def b_varying_in_y(x, y):
    return 25.0 + 25.0 * y


def b_steep_in_y(x, y):
    return 25.0 + 100.0 * y


LU = "MMD_AT_PLUS_A"
FALLBACK = "tensor>MMD_AT_PLUS_A"


def y_varying(name):
    """The builtin problem with b = 25 + 25y (y-spread 1/3), which the fast
    diagonalization still solves, in about 25 refinement steps."""
    return dataclasses.replace(builtin_problem(name), b_field=b_varying_in_y)


def stalling(name):
    """The builtin problem with b = 25 + 100y: its fast diagonalization
    stalls within the first few steps, and the solve restarts on the LU."""
    return dataclasses.replace(builtin_problem(name), b_field=b_steep_in_y)


def on_the_lu(system):
    """``system`` without its separable part: it takes the sparse LU."""
    return dataclasses.replace(system, separable=None)


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
    system = assemble_system(ex1, build_tensor_mesh(ex1, 8))
    finer = GridFunction(mesh=build_tensor_mesh(ex1, 16), values=np.zeros(17 ** 2))
    with pytest.raises(MeshMismatch, match="solution has 289 values, system has 81"):
        residual_norm(system, finer)


@pytest.mark.parametrize("values", [np.zeros(80), np.zeros(82), np.zeros((9, 9))],
                         ids=["short", "long", "grid"])
def test_grid_function_values_must_fit_the_mesh(ex1, values):
    tm = build_tensor_mesh(ex1, 8)
    with pytest.raises(MeshMismatch, match=r"do not fit the 81 points of N = 8$"):
        GridFunction(mesh=tm, values=values)


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


def test_factorization_stats_and_fill():
    # the 257^2 bisect companion of the N = 128 cell at eps = 1e-4 (Example2
    # with b = 25 + 25y), without its separable part, so on the sparse LU
    spec = y_varying("Example2").with_epsilon(1e-4)
    system = on_the_lu(assemble_system(spec,
                                       bisect(build_tensor_mesh(spec, 128))))
    lu = _LUSolve.build(system.matrix)
    row_max = np.abs(system.matrix).max(axis=1).toarray().ravel()
    assert np.array_equal(lu.row_scale, 1.0 / row_max)
    scaled, d = row_scaled(system)
    colamd = spla.splu(scaled)
    assert (lu.factors.L.nnz + lu.factors.U.nnz
            <= 0.7 * (colamd.L.nnz + colamd.U.nnz))
    u = solve_direct(system)
    assert u.solver == LU
    assert np.array_equal(u.values, _refine(system, lu))
    assert residual_norm(system, u) <= 1e-12
    # the refined float32 factor agrees with a float64 LU of the same
    # ordering and blocking
    u64 = spla.splu(scaled, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                    relax=5, panel_size=2).solve(d * system.rhs)
    assert np.max(np.abs(u.values - u64)) <= 1e-12 * np.max(np.abs(u64))


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
        "import dataclasses\n"
        "from cd2d import (Variant, assemble_system, build_tensor_mesh,\n"
        "                  builtin_problem, residual_norm, solve_direct)\n"
        "worst = 0.0\n"
        "for name in ('Example1', 'Example2'):\n"
        "    for variant in Variant:\n"
        "        for eps in (1e-1, 1e-4):\n"
        "            spec = dataclasses.replace(\n"
        "                builtin_problem(name), epsilon=eps,\n"
        "                b_field=lambda x, y: 25.0 + 25.0 * y)\n"
        "            for N in (16, 64):\n"
        "                system = dataclasses.replace(assemble_system(\n"
        "                    spec, build_tensor_mesh(spec, N), variant),\n"
        "                    separable=None)\n"
        "                u = solve_direct(system)\n"
        "                assert u.solver == 'MMD_AT_PLUS_A'\n"
        "                worst = max(worst, residual_norm(system, u))\n"
        "print(repr(worst))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= 1e-12


def test_underflowing_row_scale_gives_zero(ex1):
    # D b = 1e-300 * 1e-100 underflows to zero, as does the solution
    # 1e-400: the LU returns a zero correction, not 0/0, and the solve
    # ends with U = 0 (a RuntimeWarning is an error here)
    tm = build_tensor_mesh(ex1, 8)
    system = LinearSystem(matrix=1e300 * sp.identity(81, format="csr"),
                          rhs=np.full(81, 1e-100), mesh=tm)
    u = solve_direct(system)
    assert u.solver == LU
    assert np.all(u.values == 0.0)


def test_system_must_fit_its_mesh(ex1):
    # matrix and rhs are checked against the N = 8 mesh's 81 unknowns when
    # the system is built, not later by a numpy shape error
    tm = build_tensor_mesh(ex1, 8)
    for matrix, rhs in ((sp.identity(81, format="csr"), np.zeros(80)),
                        (sp.identity(80, format="csr"), np.zeros(81)),
                        (sp.identity(81, format="csr"), np.zeros((81, 1)))):
        with pytest.raises(MeshMismatch, match="do not fit the 81 unknowns"):
            LinearSystem(matrix=matrix, rhs=rhs, mesh=tm)


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
    system = LinearSystem(matrix=mat.tocsr(), rhs=np.ones(dim), mesh=tm)
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


@pytest.fixture
def fresh_libm():
    """``_libm`` with its cache cleared, and cleared again after the test."""
    _libm.cache_clear()
    yield _libm
    _libm.cache_clear()


def test_no_libm_off_x86_64(fresh_libm, monkeypatch):
    monkeypatch.setattr(cd2d.solve.platform, "machine", lambda: "aarch64")
    assert fresh_libm() is None


def test_no_libm_where_it_does_not_load(fresh_libm, monkeypatch):
    # the platform is x86-64 glibc, but libm.so.6 cannot be opened
    def cannot_open(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(cd2d.solve.platform, "machine", lambda: "x86_64")
    monkeypatch.setattr(cd2d.solve.platform, "libc_ver",
                        lambda: ("glibc", "2.36"))
    monkeypatch.setattr(cd2d.solve.ctypes, "CDLL", cannot_open)
    assert fresh_libm() is None


def test_solve_without_flush_keeps_residual_contract(monkeypatch):
    # where no libm flush is available (say, off x86-64 glibc) the LU path
    # runs unflushed: the solve still meets the residual contract and the
    # float environment is never touched
    monkeypatch.setattr(cd2d.solve, "_libm", lambda: None)
    spec = y_varying("Example2").with_epsilon(1e-4)
    system = on_the_lu(assemble_system(spec, build_tensor_mesh(spec, 32)))
    with _flush_subnormals():
        assert subnormals_survive()
    u = solve_direct(system)
    assert u.solver == LU
    assert residual_norm(system, u) <= 1e-12
    assert subnormals_survive()


def a_steep_in_y(x, y):
    return 2.0 + 200.0 * y


def b_quadratic_in_y(x, y):
    return 25.0 + 1e4 * y * y


# oracle inputs on a builtin geometry: the problem and the path it takes
ORACLE_INPUTS = {
    "builtin": (builtin_problem, "tensor"),
    "b = 25 + 25y": (y_varying, "tensor"),
    "a = 2 + 200y": (lambda name: dataclasses.replace(
        builtin_problem(name), a_field=a_steep_in_y), FALLBACK),
    "b = 25 + 1e4 y^2": (lambda name: dataclasses.replace(
        builtin_problem(name), b_field=b_quadratic_in_y), FALLBACK),
}


@given(problem=st.sampled_from(["Example1", "Example2"]),
       coefficients=st.sampled_from(list(ORACLE_INPUTS)),
       variant=st.sampled_from(list(Variant)),
       log_eps=st.floats(math.log10(1e-6), math.log10(0.5)),
       N=st.sampled_from([8, 16, 24, 32, 40, 64, 96]))
@settings(max_examples=80)
def test_solve_matches_partial_pivoting_oracle(problem, coefficients, variant,
                                               log_eps, N):
    # the fast diagonalization solves the builtin problems (Example1's
    # exactly) and b = 25 + 25y, refined to the same answer; on the steeply
    # y-varying coefficients it stalls and the solve restarts on the LU
    make, path = ORACLE_INPUTS[coefficients]
    spec = make(problem).with_epsilon(10.0 ** log_eps)
    system = assemble_system(spec, build_tensor_mesh(spec, N), variant)
    u = solve_direct(system)
    assert u.solver == path
    assert residual_norm(system, u) <= 1e-12
    # oracle: SuperLU's default COLAMD ordering with plain partial pivoting
    scaled, d = row_scaled(system)
    u_ref = spla.splu(scaled, permc_spec="COLAMD",
                      diag_pivot_thresh=1.0).solve(d * system.rhs)
    scale = np.max(np.abs(u_ref))
    assert np.max(np.abs(u.values - u_ref)) <= 1e-10 * scale


def test_solver_path_follows_the_coefficients(ex1, ex2):
    # every assembled system starts on the fast diagonalization and keeps
    # it while refinement converges; one whose refinement stalls restarts
    # on the LU, and a system built without problem data takes the LU
    tensor = [(spec, v) for spec in (ex1, ex2) for v in Variant] + [
        (manufactured_problem(), Variant.TRANSFORMED)] + [
        (y_varying(name), v) for name in ("Example1", "Example2")
        for v in Variant]
    fallback = [(make(name), v) for make in (stalling, lambda name:
                dataclasses.replace(builtin_problem(name),
                                    a_field=a_steep_in_y))
                for name in ("Example1", "Example2") for v in Variant]
    for specs, path in ((tensor, "tensor"), (fallback, FALLBACK)):
        for spec, variant in specs:
            system = assemble_system(spec, build_tensor_mesh(spec, 16),
                                     variant)
            assert system.separable is not None
            u = solve_direct(system)
            assert u.solver == path, (spec.name, variant)
            assert residual_norm(system, u) <= 1e-12
    system = identity_system(build_tensor_mesh(ex1, 8))
    assert solve_direct(system).solver == LU


@pytest.mark.parametrize("variant", list(Variant))
def test_tensor_path_converges_at_the_nearest_spread(ex2, variant):
    # a = 4 + x + 0.1y has y-spread 0.0136 (|a - mean_y a| / |mean_y a|)
    # and a = 4 + x + 0.115y 0.0155, the nearest measured cases either side
    # of the bound that once sent systems to the LU: the refined tensor
    # solve meets the residual contract on both
    for slope in (0.1, 0.115):
        spec = dataclasses.replace(
            ex2, a_field=lambda x, y: 4.0 + x + slope * y)
        for eps in (1e-1, 1e-3, 1e-6):
            for N in (16, 64, 256):
                s = spec.with_epsilon(eps)
                system = assemble_system(s, bisect(build_tensor_mesh(s, N)),
                                         variant)
                u = solve_direct(system)
                assert u.solver == "tensor", (slope, eps, N)
                assert residual_norm(system, u) <= 1e-12, (slope, eps, N)


def test_tensor_factor_failure_is_confined_to_its_cell(ex1, monkeypatch):
    # a tridiagonal factor that reports a zero pivot on the N = 16 cell's
    # companion (33^2 nodes: 31 interior lines) restarts that system on the
    # LU, to the same estimate; only a companion on which the LU fails too
    # fails its cell
    healthy = cd2d.run_sweep(ex1, [1e-2], [8, 16])
    real_dgttrf, real_splu = cd2d.solve.lapack.dgttrf, spla.splu

    def failing_dgttrf(dl, d, du, **kwargs):
        *factors, info = real_dgttrf(dl, d, du, **kwargs)
        return (*factors, 3 if d.size == 31 * 31 else info)

    def failing_splu(matrix, **kwargs):
        if matrix.shape[0] == 33 * 33:
            raise RuntimeError("Factor is exactly singular")
        return real_splu(matrix, **kwargs)

    monkeypatch.setattr(cd2d.solve.lapack, "dgttrf", failing_dgttrf)
    result = cd2d.run_sweep(ex1, [1e-2], [8, 16])
    assert [cell.error for cell in result.cells] == [None, None]
    assert [cell.solver for cell in result.cells] == [
        "tensor", "tensor+tensor>MMD_AT_PLUS_A"]
    assert result.table.D_eps == pytest.approx(healthy.table.D_eps,
                                               rel=1e-10)
    monkeypatch.setattr(cd2d.solve.spla, "splu", failing_splu)
    result = cd2d.run_sweep(ex1, [1e-2], [8, 16])
    assert [cell.error for cell in result.cells] == [
        None, "SingularMatrix: Factor is exactly singular (after the tensor "
        "path: tensor solve: tridiagonal factor failed (dgttrf info 3))"]


def b_varying_in_x(x, y):
    return 25.0 + x / 2.0


# Example 2's geometry (x = d1 at 0.4) with b = 25 + x/2: X varies along x,
# and the system is still exactly separable
OFF_CENTRE = dataclasses.replace(builtin_problem("example2"),
                                 b_field=b_varying_in_x)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("problem, N", [
    pytest.param(builtin_problem("example1"), 8, id="8"),
    pytest.param(builtin_problem("example1"), 16, id="16"),
    pytest.param(OFF_CENTRE, 8, id="off-centre-8"),
    pytest.param(OFF_CENTRE, 16, id="off-centre-16"),
])
def test_tensor_inner_solve_matches_direct_solve(problem, N, variant):
    # Example 1 and the off-centre problem are exactly separable, so one
    # inner solve, without refinement, is the system's solution: the
    # tridiagonal stack, the raw row's elimination of its -+2 neighbours
    # (at grid column 2 for Example 1 at N = 8) and the Dirichlet lift
    # through X's and Y's boundary entries
    system = assemble_system(problem, build_tensor_mesh(problem, N), variant)
    inner = _TensorSolve.build(system.separable)
    _, f, g = inner.eliminate
    raw = variant is Variant.RAW
    assert (f != 0.0, g != 0.0) == (raw, raw)
    # random values on the boundary rows too: nonzero Dirichlet entries
    rhs = np.random.default_rng(N).standard_normal(system.dimension)
    u = inner.solve(rhs)
    u_ref = spla.spsolve(system.matrix.tocsc(), rhs)
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))


def held_bytes(inner):
    """Bytes of the ndarrays a ``_TensorSolve`` holds, in its tuples too."""
    total = 0
    for field in dataclasses.fields(inner):
        value = getattr(inner, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


def test_raw_tensor_factor_holds_what_the_transformed_holds(ex1):
    # the raw row is eliminated in place, so its factor holds no array
    # beyond the transformed variant's
    mesh = build_tensor_mesh(ex1, 16)
    raw, transformed = (held_bytes(_TensorSolve.build(
        assemble_system(ex1, mesh, variant).separable))
        for variant in (Variant.RAW, Variant.TRANSFORMED))
    assert raw == transformed > 0


def test_hand_built_system_takes_the_lu(ex1):
    # only assembly gives a system its separable part: Example 1's matrix
    # built by hand, or its system with the part dropped, takes the LU and
    # solves to the tensor path's answer
    system = assemble_system(ex1, build_tensor_mesh(ex1, 16))
    by_hand = LinearSystem(matrix=system.matrix, rhs=system.rhs,
                           mesh=system.mesh)
    u_ref = solve_direct(system).values
    for lu_system in (by_hand, on_the_lu(system)):
        assert lu_system.separable is None
        u = solve_direct(lu_system)
        assert u.solver == LU
        assert np.max(np.abs(u.values - u_ref)) <= 1e-12 * np.max(
            np.abs(u_ref))


@pytest.mark.parametrize("variant", list(Variant))
def test_tensor_factor_does_not_read_the_csr(ex2, variant, monkeypatch):
    # the tensor factor comes from the assembly's separable part; reading
    # diagonals or entries back out of the CSR would raise here
    system = assemble_system(ex2, bisect(build_tensor_mesh(ex2, 16)), variant)

    def no_read(*args, **kwargs):
        raise AssertionError("the tensor factor read the CSR")

    for name in ("diagonal", "__getitem__"):
        monkeypatch.setattr(sp.csr_matrix, name, no_read)
    u = solve_direct(system)
    assert u.solver == "tensor"
    assert residual_norm(system, u) <= 1e-12


def test_tensor_eigensolver_failure_is_singular_matrix(ex1, monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cd2d.solve, "eigh_tridiagonal", failing_eigh)
    system = assemble_system(ex1, build_tensor_mesh(ex1, 8))
    with pytest.raises(SingularMatrix,
                       match="^tensor solve: eigenvalues did not converge$"):
        _TensorSolve.build(system.separable)
    assert solve_direct(system).solver == FALLBACK


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
        system = LinearSystem(matrix=mat, rhs=np.zeros(81), mesh=tm)
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
    # the CSR that assembly emits is canonical, and the CSC that SuperLU
    # receives is bitwise its diagonal row scaling rounded to float32
    spec = y_varying(problem).with_epsilon(eps)
    mesh = build_tensor_mesh(spec, N)
    system = on_the_lu(assemble_system(
        spec, bisect(mesh) if companion else mesh, variant))
    a = system.matrix
    assert a.indices.dtype == a.indptr.dtype == np.int32
    row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    assert np.all(np.diff(row * a.shape[1] + a.indices) > 0)  # sorted, unique
    solve_direct(system)
    expected = row_scaled(system)[0].astype(np.float32)
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
    system = LinearSystem(matrix=mat, rhs=np.ones(81), mesh=tm)
    assert np.array_equal(solve_direct(system).values, np.ones(81))
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
    system = LinearSystem(matrix=mat, rhs=np.ones(81), mesh=tm)
    u = GridFunction(mesh=tm, values=np.full(81, 0.25))
    # ||A U - rhs|| = 1 (the empty rows), ||A|| = 2, ||U|| = 0.25, ||rhs|| = 1
    assert residual_norm(system, u) == 1.0 / (2.0 * 0.25 + 1.0)


@given(problem=st.sampled_from(["Example1", "Example2"]),
       log_eps=st.floats(math.log10(1e-6), math.log10(0.5)),
       N=st.sampled_from([8, 16, 32, 64]))
@settings(max_examples=30)
def test_raw_solution_within_stability_bound(problem, log_eps, N):
    # the raw variant's defects are confined to the interface rows, and
    # |U| <= (1/alpha) max|f| + max|q| holds for it (worst ratio on a 9-eps
    # grid: 0.080 for Example1, 0.069 for Example2); the transformed variant
    # is not of positive type, so there the bound is measured, not claimed
    spec = builtin_problem(problem).with_epsilon(10.0 ** log_eps)
    system = assemble_system(spec, build_tensor_mesh(spec, N), Variant.RAW)
    assert solve_direct(system).max_norm() <= system.bound


def test_superlu_system_error_is_singular_matrix(monkeypatch):
    # an out-of-memory factorization can end in SystemError; it must be a
    # typed error confined to its cell, not an exception that ends the sweep
    # (the tensor path stalls on these systems, so both paths fail, and the
    # cells name both failures)
    def failing_splu(*args, **kwargs):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr(cd2d.solve.spla, "splu", failing_splu)
    spec = stalling("Example2").with_epsilon(1e-2)
    with pytest.raises(SingularMatrix,
                       match="^gstrf was called with invalid arguments$"):
        solve_direct(on_the_lu(assemble_system(spec,
                                               build_tensor_mesh(spec, 16))))
    result = cd2d.run_sweep(spec, [1e-2], [8, 16])
    for cell in result.cells:
        assert re.fullmatch(
            r"SingularMatrix: gstrf was called with invalid arguments "
            r"\(after the tensor path: iterative refinement stalled at step "
            r"\d+: .*\)", cell.error), cell.error


class StubLU:
    """Stands in for a SuperLU whose triangular solve fails, overflows or
    returns a constant that is no correction at all."""

    def __init__(self, outcome):
        self.outcome = outcome

    def solve(self, rhs):
        # a fresh exception each call: raising the parametrized instance
        # would store on it a traceback that keeps the caller's factor alive
        if isinstance(self.outcome, Exception):
            raise type(self.outcome)(*self.outcome.args)
        return np.full_like(rhs, self.outcome)


@pytest.mark.parametrize("outcome, message", [
    (RuntimeError("Factor is exactly singular"), "Factor is exactly singular"),
    (np.nan, "solution contains NaN or Inf"),
    (np.inf, "solution contains NaN or Inf"),
    (1.0, r"iterative refinement (stalled|did not converge) .*")])
def test_factorization_solve_failures_are_singular_matrix(ex1, outcome,
                                                          message):
    # a finite but wrong correction is caught by refinement, not returned
    system = assemble_system(ex1, build_tensor_mesh(ex1, 8))
    with pytest.raises(SingularMatrix) as exc:
        _refine(system, StubLU(outcome))
    assert re.fullmatch(message, str(exc.value))


@pytest.mark.parametrize("outcome", [
    RuntimeError("Factor is exactly singular"), np.nan, np.inf, 1.0])
def test_tensor_solve_failures_restart_on_the_lu(ex2, outcome, monkeypatch):
    # the same failures of the fast diagonalization's solve, a breakdown,
    # a non-finite correction or a stall, restart the system on the LU,
    # whose answer the solve returns and names; no failure keeps the
    # tensor factor alive
    system = assemble_system(ex2, build_tensor_mesh(ex2, 16))
    expected = solve_direct(on_the_lu(system)).values
    factors, real_tensor = [], _TensorSolve.build

    def tensor(part):
        factor = real_tensor(part)
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(_TensorSolve, "build", tensor)
    monkeypatch.setattr(_TensorSolve, "solve",
                        lambda self, r: StubLU(outcome).solve(r))
    u = solve_direct(system)
    assert u.solver == FALLBACK
    assert np.array_equal(u.values, expected)
    gc.collect()
    assert len(factors) == 1 and factors[0]() is None


def record_builds(monkeypatch):
    """The inner solves built, "tensor" or "lu" in call order, recorded
    around the real builds."""
    built = []
    real_tensor, real_lu = _TensorSolve.build, _LUSolve.build

    def tensor(part):
        built.append("tensor")
        return real_tensor(part)

    def lu(matrix):
        built.append("lu")
        return real_lu(matrix)

    monkeypatch.setattr(_TensorSolve, "build", tensor)
    monkeypatch.setattr(_LUSolve, "build", lu)
    return built


def test_one_solve_builds_each_inner_solve_once(monkeypatch):
    # a system whose tensor refinement stalls builds the fast
    # diagonalization once and then the LU once; without a separable part
    # it builds only the LU
    built = record_builds(monkeypatch)
    spec = stalling("Example2").with_epsilon(1e-2)
    system = assemble_system(spec, build_tensor_mesh(spec, 16))
    assert solve_direct(system).solver == FALLBACK
    assert built == ["tensor", "lu"]
    built.clear()
    assert solve_direct(on_the_lu(system)).solver == LU
    assert built == ["lu"]


def test_tensor_factor_is_freed_before_the_lu_is_built(monkeypatch):
    # the failed tensor path keeps only its message, not the exception
    # whose traceback holds the tensor factor, so the factor is gone by the
    # time the fallback LU is built
    factors, live = [], []
    real_tensor, real_lu = _TensorSolve.build, _LUSolve.build

    def tensor(part):
        factor = real_tensor(part)
        factors.append(weakref.ref(factor))
        return factor

    def lu(matrix):
        live.extend(ref() is not None for ref in factors)
        return real_lu(matrix)

    monkeypatch.setattr(_TensorSolve, "build", tensor)
    monkeypatch.setattr(_LUSolve, "build", lu)
    spec = stalling("Example2").with_epsilon(1e-2)
    system = assemble_system(spec, build_tensor_mesh(spec, 16))
    assert solve_direct(system).solver == FALLBACK
    assert live == [False]


class GainLU:
    """Stands in for an inner solve that returns gain_k times the true
    correction on call k, so the error after call k is (1 - gain_k) times
    the error before it."""

    def __init__(self, lu, gains):
        self.lu, self.gains, self.calls = lu, iter(gains), 0

    def solve(self, rhs):
        self.calls += 1
        return next(self.gains) * self.lu.solve(rhs)


def gains_to(errors):
    """Gains that leave errors of ``errors`` times |x| after the first
    calls, then a gain of 2 on every call: each correction then reverses
    the error, so corrections stop halving at twice the last error."""
    ratios = np.array([1.0, *errors])
    return itertools.chain(1.0 - ratios[1:] / ratios[:-1],
                           itertools.repeat(2.0))


def gain_stub(ex1, gains):
    """Example 1's N = 8 system, its solution, and a ``GainLU`` of ``gains``
    on its fast diagonalization."""
    system = assemble_system(ex1, build_tensor_mesh(ex1, 8))
    stub = GainLU(_TensorSolve.build(system.separable), gains)
    return system, solve_direct(system), stub


def refined(system, inner):
    """The solution ``_refine`` reaches on ``inner``, as a grid function."""
    return GridFunction(system.mesh, _refine(system, inner))


def test_refinement_stall_below_rescue_returns(ex1):
    # corrections about 1e-7, 1e-11, then 1e-13 |x| twice: the last does
    # not halve, but it is below 1e-12 |x|, so the solve returns
    system, exact, stub = gain_stub(ex1, gains_to([1e-7, 1e-11, 5e-14]))
    u = refined(system, stub)
    assert stub.calls == 5
    diff = np.max(np.abs(u.values - exact.values)) / exact.max_norm()
    assert 1e-14 <= diff <= 1e-13
    assert residual_norm(system, u) <= 1e-12


def test_refinement_stall_above_rescue_raises(ex1):
    # corrections about 1e-3, 1e-8, then 1e-11 |x| twice: a stall above
    # 1e-12 |x| is a failure
    system, _, stub = gain_stub(ex1, gains_to([1e-3, 1e-8, 5e-12]))
    with pytest.raises(SingularMatrix,
                       match=r"^iterative refinement stalled at step 4: "):
        _refine(system, stub)
    assert stub.calls == 5


class RecordingLU:
    """Passes each solve on to ``lu`` and keeps its correction's max-norm."""

    def __init__(self, lu):
        self.lu, self.corrections = lu, []

    def solve(self, rhs):
        c = self.lu.solve(rhs)
        self.corrections.append(float(np.max(np.abs(c))))
        return c


def test_refinement_stall_at_the_float64_floor_returns(ex2):
    # a = 2 + 200y on Example 2's geometry, eps 0.1, N = 16, on the LU: the
    # corrections level off near 3.5e-12 |x|, above the 1e-12 |x| rescue,
    # once x's scaled residual is ~1e-16, so the stall ends refinement;
    # without the residual floor it raises "stalled at step 5"
    spec = dataclasses.replace(ex2, a_field=a_steep_in_y, epsilon=0.1)
    system = on_the_lu(assemble_system(spec, build_tensor_mesh(spec, 16)))
    stub = RecordingLU(_LUSolve.build(system.matrix))
    u = refined(system, stub)
    *_, before, last = stub.corrections
    assert last > 0.5 * before and last > 1e-12 * u.max_norm()
    assert residual_norm(system, u) <= 64 * np.finfo(np.float64).epsneg
    ref = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.max(np.abs(u.values - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("eps, max_u", [(1e-4, 13830.26), (1e-6, 5839.09)])
def test_float32_lu_stall_at_the_floor_returns(ex2, eps, max_u):
    # a = 2.2 + 2 sin 20y, alpha 0.2, on Example 2's geometry: the tensor
    # path stalls at once, and the float32 LU's refinement stalls near
    # 1e-10 |x|, where the scaled residual is ~1e-17, so the solve returns
    # instead of raising SingularMatrix
    spec = dataclasses.replace(
        ex2, a_field=lambda x, y: 2.2 + 2.0 * np.sin(20.0 * y),
        alpha=0.2).with_epsilon(eps)
    system = assemble_system(spec, build_tensor_mesh(spec, 32),
                             Variant.TRANSFORMED)
    assert solve_direct(system).solver == FALLBACK
    system = on_the_lu(system)
    stub = RecordingLU(_LUSolve.build(system.matrix))
    u = refined(system, stub)
    *_, before, last = stub.corrections
    assert last > 0.5 * before and last > 1e-12 * u.max_norm()
    assert residual_norm(system, u) <= 1e-12
    ref = np.max(np.abs(spla.spsolve(system.matrix.tocsc(), system.rhs)))
    assert u.max_norm() == pytest.approx(ref, rel=1e-9)
    assert u.max_norm() == pytest.approx(max_u, rel=1e-6)


def _a_fuzz1(x, y):
    return 0.1468 + 1.063 * x + 0.00077 * y


def _b_fuzz1(x, y):
    return 45.68 + 4.972 * x


def _a_fuzz2(x, y):
    return 0.1895 + 1.818 * x


def _b_fuzz2(x, y):
    return 5.388 + 0.5242 * x + 0.1065 * y


def tensor_failure(case):
    """A transformed system of Example 1's sources and traces with linear a
    and b that vary little with y, whose separable mean contracts slowly
    (about 5x and 10x a step) on the near-singular x = d1 rows, so
    refinement once ran past a cap of 10 steps: the bisect companion of
    N = 32 (n = 64), or the N = 16 mesh."""
    if case == "bisect-64":
        spec = dataclasses.replace(
            builtin_problem("Example1"), epsilon=7.14e-5, d1=0.436, d2=0.147,
            alpha=0.118, beta=5.93, a_field=_a_fuzz1, b_field=_b_fuzz1)
        tm = bisect(build_tensor_mesh(spec, 32))
    else:
        spec = dataclasses.replace(
            builtin_problem("Example1"), epsilon=3.21e-3, d1=0.230, d2=0.550,
            alpha=0.137, beta=1.79, a_field=_a_fuzz2, b_field=_b_fuzz2)
        tm = build_tensor_mesh(spec, 16)
    return assemble_system(spec, tm, Variant.TRANSFORMED)


@pytest.mark.parametrize("case", ["bisect-64", "N16"])
def test_tensor_failures_solve_on_the_lu(case):
    # the sparse LU solves both systems
    system = on_the_lu(tensor_failure(case))
    u = solve_direct(system)
    assert u.solver == LU
    assert residual_norm(system, u) <= 1e-12


@pytest.mark.parametrize("case, inner_solves",
                         [("bisect-64", 24), ("N16", 16)])
def test_tensor_failures_solve_by_default(case, inner_solves):
    # refinement keeps halving its corrections, so it ends on the tensor
    # path within the step cap
    system = tensor_failure(case)
    stub = GainLU(_TensorSolve.build(system.separable), itertools.repeat(1.0))
    x = _refine(system, stub)
    assert stub.calls == inner_solves
    u = solve_direct(system)
    assert u.solver == "tensor" and residual_norm(system, u) <= 1e-12
    assert np.array_equal(u.values, x)


class SequenceLU:
    """Returns the next of ``values`` at every unknown, whatever r is."""

    def __init__(self, values):
        self.values, self.calls = iter(values), 0

    def solve(self, rhs):
        self.calls += 1
        return np.full_like(rhs, next(self.values))


def test_refinement_step_cap(ex1):
    # each correction 0.4 times the last: the tail rule stops after about
    # 37 steps, inside the cap of log2(1 / 4u) = 51 steps, the most a run
    # of halving corrections needs to fall from |x| to 4u |x|
    system, _, stub = gain_stub(ex1, itertools.repeat(0.6))
    u = refined(system, stub)
    assert stub.calls == 38
    assert residual_norm(system, u) <= 1e-12
    # corrections 2^-k that halve at every step but cancel x as fast, so
    # x = 2^-k and the tail rule never holds: the solve fails after 51 steps
    stub = SequenceLU([1.0] + [-0.5 ** k for k in range(1, 60)])
    with pytest.raises(SingularMatrix, match=(
            r"^iterative refinement did not converge in 51 steps: ")):
        _refine(system, stub)
    assert stub.calls == 52


@pytest.mark.parametrize("problem, fewest, most",
                         [("Example1", 2, 2), ("Example2", 2, 8)])
@pytest.mark.parametrize("variant", list(Variant))
def test_tensor_inner_solve_counts(problem, fewest, most, variant):
    # the counts README states: Example 1 takes exactly 2 inner solves (one
    # refinement step absorbs the rounding of X), Example 2 at most 8; a
    # refinement on the fast diagonalization that returns is the tensor path
    for eps in (1e-1, 1e-4, 1e-6):
        for N in (16, 64, 256):
            spec = builtin_problem(problem).with_epsilon(eps)
            system = assemble_system(spec, bisect(build_tensor_mesh(spec, N)),
                                     variant)
            stub = GainLU(_TensorSolve.build(system.separable),
                          itertools.repeat(1.0))
            u = refined(system, stub)
            assert residual_norm(system, u) <= 1e-12, (eps, N)
            assert fewest <= stub.calls <= most, (eps, N)


@pytest.mark.parametrize("a_field", [None, lambda x, y: 4.0 + x + 0.1 * y],
                         ids=["example2", "a=4+x+0.1y"])
@pytest.mark.parametrize("variant", list(Variant))
def test_tensor_lift_of_nearly_separable_systems(ex2, a_field, variant):
    # nonzero Dirichlet data 0.3 + 0.2t on every edge of a system whose
    # coefficients vary with y (Example 2's y-spread is 0.011, the other
    # 0.0136): the tensor path lifts them through the separable operator's
    # boundary entries and refinement against the CSR gives the answer of
    # spsolve on the row-equilibrated system (unscaled, its own error at
    # eps = 1e-4 is about 1e-8)
    spec = dataclasses.replace(ex2, q_edges=(lambda t: 0.3 + 0.2 * t,) * 4)
    if a_field is not None:
        spec = dataclasses.replace(spec, a_field=a_field)
    for eps in (1e-1, 1e-4, 1e-6):
        for N in (16, 64):
            s = spec.with_epsilon(eps)
            system = assemble_system(s, bisect(build_tensor_mesh(s, N)),
                                     variant)
            stub = GainLU(_TensorSolve.build(system.separable),
                          itertools.repeat(1.0))
            u = refined(system, stub)
            assert residual_norm(system, u) <= 1e-12, (eps, N)
            scaled, d = row_scaled(system)
            u_ref = spla.spsolve(scaled, d * system.rhs)
            assert np.max(np.abs(u.values - u_ref)) <= 1e-10 * np.max(
                np.abs(u_ref)), (eps, N)
            assert stub.calls <= 10, (eps, N)


# each record built from a fresh N = 8 system of Example1
ARRAY_RECORDS = {
    "TensorMesh": lambda system: system.mesh,
    "LinearSystem": lambda system: system,
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
    with out.open("wb") as fh:
        write_grid_dump(u, fh)
    data = out.read_bytes()
    lines = data.splitlines()
    # 9 blocks of 9 data lines separated by 8 blank lines
    assert len(lines) == 9 * 9 + 8
    assert lines[9] == b""
    x, y, v = lines[0].split()
    assert float(x) == 0.0 and float(y) == 0.0 and float(v) == 0.0
    assert lines[-1] != b""
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")
    assert b"\r" not in data


def oracle_grid_dump(solution, stream):
    """Reference dump: one line per grid point, each float formatted there
    and the line written to the binary ``stream`` as ASCII."""
    xs = solution.mesh.x
    ys = solution.mesh.y
    grid = solution.grid()
    last = len(ys) - 1
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            stream.write(f"{x:.16e} {y:.16e} {grid[j, i]:.16e}\n"
                         .encode("ascii"))
        if j != last:
            stream.write(b"\n")


def dump_lines(solution, writer):
    """The dump split after each b"\\n", so that a mismatch reports the
    first differing line instead of a diff of the whole text."""
    buf = io.BytesIO()
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
    assert lines[-1].endswith(b"\n") and lines[-1] != b"\n"
    assert lines.count(b"\n") == N


def test_grid_dump_special_values(ex1):
    tm = build_tensor_mesh(ex1, 8)
    specials = [-0.0, 5e-324, -1e300, 1.0, 0.1]
    vals = np.resize(np.array(specials), 81)
    u = GridFunction(mesh=tm, values=vals)
    lines = dump_lines(u, write_grid_dump)
    assert lines == dump_lines(u, oracle_grid_dump)
    columns = [ln.split()[2] for ln in lines[:5]]
    assert columns == [b"-0.0000000000000000e+00", b"4.9406564584124654e-324",
                       b"-1.0000000000000001e+300", b"1.0000000000000000e+00",
                       b"1.0000000000000001e-01"]


@pytest.mark.parametrize("problem, variant, N", [
    ("Example2", Variant.RAW, 8), ("Example1", Variant.TRANSFORMED, 64)])
def test_solve_command_writes_the_oracle_dump(tmp_path, capsys, problem,
                                              variant, N):
    # the file cd2d solve writes, byte for byte, against the oracle's dump of
    # the same solution
    assert cli_main(["solve", "--problem", problem, "--epsilon", "1e-3",
                     "--N", str(N), "--variant", variant.value,
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / f"u_{problem.lower()}_{variant.value}"
            f"_eps0.001_N{N}.dat").read_bytes()
    spec = builtin_problem(problem).with_epsilon(1e-3)
    u = solve_direct(assemble_system(spec, build_tensor_mesh(spec, N),
                                     variant))
    oracle = io.BytesIO()
    oracle_grid_dump(u, oracle)
    assert data == oracle.getvalue()
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")
    assert data.splitlines().count(b"") == N


DUMP_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                 -1e-310, 1e300, -1e300]


@settings(max_examples=100)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(DUMP_SPECIALS)),
                min_size=81, max_size=81))
def test_grid_dump_property(values):
    spec = builtin_problem("Example2")
    u = GridFunction(mesh=build_tensor_mesh(spec, 8), values=np.array(values))
    assert dump_lines(u, write_grid_dump) == dump_lines(u, oracle_grid_dump)


def percent_e16(values):
    """The reference: CPython's ``%.16e`` of each value."""
    return [b"%.16e" % v for v in np.asarray(values, dtype=float).tolist()]


def test_format_e16_matches_percent_format():
    # raw bit patterns (NaNs, infinities and subnormals among them), normals
    # scaled over 1e-300..1e300, each power of ten and both its neighbours,
    # the edges of the exact range, ties and specials
    rng = np.random.default_rng(20261020)
    powers = np.array([10.0 ** k for k in range(-300, 300)])
    edges = np.array([1e-280, 1e280])
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 60_000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(40_000) * 10.0 ** rng.uniform(-300, 300, 40_000),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), -edges,
        [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan,
         1234567890123456.25, -1234567890123456.75, 0.5, 1.0, 0.1,
         9.999999999999999e22, 1e23]])
    assert values.size >= 100_000
    assert _format_e16(values) == percent_e16(values)
    assert _format_e16(np.array([])) == []


@settings(max_examples=200)
@given(st.lists(st.floats(), max_size=40))
def test_format_e16_property(values):
    assert _format_e16(np.array(values)) == percent_e16(values)


def test_grid_dump_memory_is_one_block(ex1):
    # the N = 512 grid has 263169 values: formatted at once they would take
    # tens of MB, in blocks of rows about 1 MB
    tm = build_tensor_mesh(ex1, 512)
    rng = np.random.default_rng(5)
    u = GridFunction(mesh=tm, values=rng.standard_normal(513 ** 2)
                     * 10.0 ** rng.uniform(-20, 5, 513 ** 2))

    class Sink:
        written = calls = 0

        def write(self, data):
            assert isinstance(data, bytes)
            self.written += len(data)
            self.calls += 1

    sink = Sink()
    tracemalloc.start()
    try:
        write_grid_dump(u, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written >= 513 ** 2 * 3 * 23
    assert peak < 4_000_000
    # one write per block of whole rows
    assert sink.calls == math.ceil(513 / (_DUMP_BLOCK // 513))
