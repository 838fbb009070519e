import dataclasses
import math
import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from cd2d import (
    LinearSystem,
    MMatrixReport,
    TensorMesh,
    Variant,
    assemble_system,
    bisect,
    build_tensor_mesh,
    builtin_problem,
    m_matrix_check,
)
from cd2d import assembly, mesh as mesh_mod, problems
from cd2d.assembly import _raw_interface_coeffs
from cd2d.cli import EXIT_CONFIG, main as cli_main
from cd2d.errors import GeometryError
from cd2d.problems import ProblemSpec

from scalar_rows import oracle_system, source_off_lines

REL = 1e-12
README = Path(__file__).resolve().parents[1] / "README.md"


def flat(system, i, j):
    """Row-major index of point (i, j)."""
    return j * (system.mesh.n + 1) + i


def assembled_row(spec, tm, i, j, variant=Variant.TRANSFORMED):
    """Row (i, j) of the assembled system: {(ci, cj): value}, rhs."""
    system = assemble_system(spec, tm, variant)
    k = flat(system, i, j)
    lo, hi = system.matrix.indptr[k], system.matrix.indptr[k + 1]
    entries = {divmod(int(c), tm.n + 1)[::-1]: float(v) for c, v in
               zip(system.matrix.indices[lo:hi], system.matrix.data[lo:hi])}
    return entries, float(system.rhs[k])


def uniform_mesh_8():
    """eps = 0.5 puts sigma at (d/2, d/4), so every piece is 0.125 wide."""
    return build_tensor_mesh(builtin_problem("example1").with_epsilon(0.5), 8)


# ---------------------------------------------------------------------------
# interior rows


def test_interior_row_uniform_frozen(ex1):
    # eps = 1e-2, a = 2, b = 25, h = k = 1/8 by hand:
    #   C = 4*64e-4 + 16 + 25, W = -(64e-4 + 16), E = S = N = -64e-4
    spec = ex1.with_epsilon(1e-2)
    m, rhs = assembled_row(spec, uniform_mesh_8(), 1, 1)
    assert m[(1, 1)] == pytest.approx(41.0256, rel=REL)
    assert m[(0, 1)] == pytest.approx(-16.0064, rel=REL)
    assert m[(2, 1)] == pytest.approx(-0.0064, rel=REL)
    assert m[(1, 0)] == pytest.approx(-0.0064, rel=REL)
    assert m[(1, 2)] == pytest.approx(-0.0064, rel=REL)
    assert rhs == 0.5


def test_interior_row_nonuniform_frozen(ex1):
    # point (2,1) of the N = 8 fitted mesh: hL coarse, hR fine, kB = sigma_y
    tm = build_tensor_mesh(ex1, 8)
    m, rhs = assembled_row(ex1, tm, 2, 1)
    assert m[(2, 1)] == pytest.approx(42.816756386153378, rel=REL)
    assert m[(1, 1)] == pytest.approx(-8.681034056851071, rel=REL)
    assert m[(3, 1)] == pytest.approx(-7.6943735514078048, rel=REL)
    assert m[(2, 0)] == pytest.approx(-0.9617966939259756, rel=REL)
    assert m[(2, 2)] == pytest.approx(-0.47955208396852656, rel=REL)
    assert rhs == 0.5


def test_interior_row_sum_is_b(ex1, ex2):
    for spec in (ex1, ex2.with_epsilon(1e-3)):
        tm = build_tensor_mesh(spec, 16)
        for i, j in ((1, 1), (3, 7), (12, 2), (7, 11), (15, 15)):
            m, _ = assembled_row(spec, tm, i, j)
            coeffs = list(m.values())
            b_val = spec.b_field(tm.x[i], tm.y[j])
            scale = sum(abs(c) for c in coeffs)
            assert abs(sum(coeffs) - b_val) <= 1e-12 * scale


def test_interior_row_signs(ex1, ex2):
    for spec in (ex1.with_epsilon(1e-4), ex2):
        tm = build_tensor_mesh(spec, 16)
        for i, j in ((1, 1), (5, 3), (12, 13), (9, 2)):
            m, _ = assembled_row(spec, tm, i, j)
            assert len(m) == 5
            center = m.pop((i, j))
            b_val = spec.b_field(tm.x[i], tm.y[j])
            assert center >= b_val
            assert all(v < 0 for v in m.values())


def test_interior_row_wrong_kind(ex1):
    # boundary, x-interface and y-line points do not get upwind rows: an
    # identity row, a 3-point transmission row, and a 5-point row whose
    # rhs averages the sources above and below y = d2
    tm = build_tensor_mesh(ex1, 8)
    assert assembled_row(ex1, tm, 0, 3) == ({(0, 3): 1.0}, 0.0)
    assert len(assembled_row(ex1, tm, 4, 3)[0]) == 3
    m, rhs = assembled_row(ex1, tm, 3, 4)
    assert len(m) == 5 and rhs == pytest.approx(-0.05)


# ---------------------------------------------------------------------------
# midpoint rows on y = d2


def test_midpoint_row_averages_example2(ex2):
    tm = build_tensor_mesh(ex2, 8)
    m, rhs = assembled_row(ex2, tm, 1, 4)
    assert m[(1, 4)] == pytest.approx(50.600747127469543, rel=REL)
    assert m[(0, 4)] == pytest.approx(-22.374905877214991, rel=REL)
    assert m[(2, 4)] == pytest.approx(-0.2781701611703948, rel=REL)
    assert m[(1, 3)] == pytest.approx(-1.4453951256983387, rel=REL)
    assert m[(1, 5)] == pytest.approx(-1.4453951256983387, rel=REL)
    assert rhs == pytest.approx(0.28844636917053048, rel=REL)


def test_midpoint_rhs_is_two_sided_average(ex1):
    tm = build_tensor_mesh(ex1, 8)
    system = assemble_system(ex1, tm)
    # source averages (0.5, -0.6) left of d1 and (0.6, -0.5) right of it
    for i in (1, 2, 3):
        assert system.rhs[flat(system, i, 4)] == pytest.approx(-0.05)
    for i in (5, 6, 7):
        assert system.rhs[flat(system, i, 4)] == pytest.approx(0.05)


def test_midpoint_row_sum_is_b_hat(ex2):
    tm = build_tensor_mesh(ex2, 16)
    ys = tm.y
    for i in (1, 5, 11):
        m, _ = assembled_row(ex2, tm, i, 8)
        x = tm.x[i]
        b_hat = 0.5 * (ex2.b_field(x, ys[7]) + ex2.b_field(x, ys[9]))
        coeffs = list(m.values())
        scale = sum(abs(c) for c in coeffs)
        assert abs(sum(coeffs) - b_hat) <= 1e-12 * scale


def test_midpoint_row_wrong_kind(ex1):
    # the cross point and the ends of the line y = d2 are not midpoint rows:
    # a 3-point transmission row and an identity row
    tm = build_tensor_mesh(ex1, 8)
    assert len(assembled_row(ex1, tm, 4, 4)[0]) == 3
    assert assembled_row(ex1, tm, 0, 4) == ({(0, 4): 1.0}, 0.0)


# ---------------------------------------------------------------------------
# transformed transmission rows on x = d1


def test_transformed_row_frozen(ex1):
    tm = build_tensor_mesh(ex1, 8)
    m, rhs = assembled_row(ex1, tm, 4, 2)
    assert len(m) == 3
    assert m[(4, 2)] == pytest.approx(32.826663929770055, rel=REL)
    assert m[(3, 2)] == pytest.approx(-126.54288425370686, rel=REL)
    assert m[(5, 2)] == pytest.approx(245.57817111645673, rel=REL)
    assert rhs == pytest.approx(3.6362459965794006, rel=REL)
    # above y = d2 only the one-sided source values change
    upper, upper_rhs = assembled_row(ex1, tm, 4, 6)
    assert upper[(4, 6)] == m[(4, 2)]
    assert upper_rhs == pytest.approx(-3.0456798382914762, rel=REL)


def test_transformed_cross_row_uses_neighbour_averages(ex1):
    tm = build_tensor_mesh(ex1, 8)
    m, rhs = assembled_row(ex1, tm, 4, 4)
    # coefficients agree with the off-cross rows (a, b continuous there)
    assert m[(4, 4)] == pytest.approx(32.826663929770055, rel=REL)
    assert rhs == pytest.approx(0.29528307914396219, rel=REL)


def test_transformed_row_sum_identity(ex1, ex2):
    # sum of the three coefficients equals h1 b-/(4 E-) + H2 b+/(4 eps^2)
    for spec in (ex1, ex2.with_epsilon(1e-2)):
        tm = build_tensor_mesh(spec, 16)
        xs, ys = tm.x, tm.y
        i = 8
        h1, H2 = xs[i] - xs[i - 1], xs[i + 1] - xs[i]
        eps2 = spec.epsilon ** 2
        for j in (1, 8, 13):
            m, _ = assembled_row(spec, tm, i, j)
            b_m = spec.b_field(xs[i - 1], ys[j])
            b_p = spec.b_field(xs[i + 1], ys[j])
            e_minus = eps2 + h1 * spec.a_field(xs[i - 1], ys[j])
            target = (h1 * b_m / (4.0 * e_minus)
                      + H2 * b_p / (4.0 * eps2))
            coeffs = list(m.values())
            scale = sum(abs(c) for c in coeffs)
            assert abs(sum(coeffs) - target) <= 1e-12 * scale


def test_transformed_row_sum_identity_frozen(ex1):
    tm = build_tensor_mesh(ex1, 8)
    m, _ = assembled_row(ex1, tm, 4, 2)
    assert sum(m.values()) == pytest.approx(151.86195079251993, rel=1e-10)


def test_transformed_east_coefficient_positive(ex1, ex2):
    # the eliminated row always carries a positive east coefficient at
    # these parameters, so the scheme is not of positive type
    for spec in (ex1, ex2):
        for eps in (1e-1, 1e-3, 1e-6):
            tm = build_tensor_mesh(spec.with_epsilon(eps), 16)
            m, _ = assembled_row(spec.with_epsilon(eps), tm, 8, 3)
            assert m[(9, 3)] > 0.0


def test_interface_x_row_wrong_kind(ex1):
    # the ends of the line x = d1 are identity rows in both variants
    tm = build_tensor_mesh(ex1, 8)
    assert assembled_row(ex1, tm, 4, 0) == ({(4, 0): 1.0}, 0.0)
    assert assembled_row(ex1, tm, 4, 8, Variant.RAW) == ({(4, 8): 1.0}, 0.0)


# ---------------------------------------------------------------------------
# raw derivative-matching rows


def test_raw_row_frozen(ex1):
    tm = build_tensor_mesh(ex1, 8)
    m, rhs = assembled_row(ex1, tm, 4, 2, Variant.RAW)
    assert rhs == 0.0
    assert m[(2, 2)] == pytest.approx(48.08983469629878, rel=REL)
    assert m[(3, 2)] == pytest.approx(-192.35933878519512, rel=REL)
    assert m[(4, 2)] == pytest.approx(150.52986518758702, rel=REL)
    assert m[(5, 2)] == pytest.approx(-8.3471481315875683, rel=REL)
    assert m[(6, 2)] == pytest.approx(2.0867870328968921, rel=REL)


def test_raw_row_uniform_pattern():
    # equal spacings collapse the row to [1, -4, 6, -4, 1] / (2h)
    c = _raw_interface_coeffs(0.125, 0.125)
    assert np.allclose(c, np.array([1.0, -4.0, 6.0, -4.0, 1.0]) * 4.0,
                       rtol=REL)


def test_raw_row_annihilates_linears(ex1, ex2):
    for spec in (ex1, ex2.with_epsilon(1e-4)):
        tm = build_tensor_mesh(spec, 16)
        xs = tm.x
        m, _ = assembled_row(spec, tm, 8, 5, Variant.RAW)
        scale = sum(abs(v) for v in m.values())
        const = sum(m.values())
        lin = sum(v * xs[ci] for (ci, _), v in m.items())
        assert abs(const) <= 1e-12 * scale
        assert abs(lin) <= 1e-12 * scale
        # derivative matching: the two one-sided slopes carry opposite signs
        assert m[(6, 5)] > 0 and m[(10, 5)] > 0


def test_raw_row_requires_equal_one_sided_spacings(ex1):
    # the mesh guarantees x[i-2]..x[i] and x[i]..x[i+2] are each uniform
    tm = build_tensor_mesh(ex1.with_epsilon(1e-3), 32)
    xs = tm.x
    i = 16
    assert xs[i] - xs[i - 1] == pytest.approx(xs[i - 1] - xs[i - 2], rel=1e-13)
    assert xs[i + 1] - xs[i] == pytest.approx(xs[i + 2] - xs[i + 1], rel=1e-13)


# ---------------------------------------------------------------------------
# the elimination identity connecting the two interface forms


def eliminate_outer_unknowns(spec, tm, j):
    """Substitute the one-sided second-neighbour identities into the raw row.

    U_{i-2} and U_{i+2} satisfy (from the fine/coarse one-sided relations)

      U_{i-2} = (h1^2/E-) [ -(eps^2/h1^2) U_i
                            + (2 eps^2/h1^2 + a-/h1 + b-/2) U_{i-1} - f-/2 ]
      U_{i+2} = (H2^2/eps^2) [ -(eps^2/H2^2 + a+/H2) U_i
                               + (2 eps^2/H2^2 + a+/H2 + b+/2) U_{i+1} - f+/2 ]

    which turns the 5-point derivative-matching row into a 3-point row.
    """
    xs, ys = tm.x, tm.y
    i = tm.n // 2
    eps2 = spec.epsilon ** 2
    h1, H2 = xs[i] - xs[i - 1], xs[i + 1] - xs[i]
    y = ys[j]
    a_m, a_p = spec.a_field(xs[i - 1], y), spec.a_field(xs[i + 1], y)
    b_m, b_p = spec.b_field(xs[i - 1], y), spec.b_field(xs[i + 1], y)
    f_m = source_off_lines(spec, xs[i - 1], y)
    f_p = source_off_lines(spec, xs[i + 1], y)
    e_minus = eps2 + h1 * a_m
    r_mm, r_m, r_0, r_p, r_pp = _raw_interface_coeffs(h1, H2)
    west = r_m + r_mm * (h1 ** 2 / e_minus) * (2.0 * eps2 / h1 ** 2
                                              + a_m / h1 + b_m / 2.0)
    center = (r_0 + r_mm * (h1 ** 2 / e_minus) * (-eps2 / h1 ** 2)
              + r_pp * (H2 ** 2 / eps2) * (-(eps2 / H2 ** 2 + a_p / H2)))
    east = r_p + r_pp * (H2 ** 2 / eps2) * (2.0 * eps2 / H2 ** 2
                                            + a_p / H2 + b_p / 2.0)
    rhs = (r_mm * (h1 ** 2 / e_minus) * f_m / 2.0
           + r_pp * (H2 ** 2 / eps2) * f_p / 2.0)
    return west, center, east, rhs


def test_elimination_reproduces_transformed_row(ex1, ex2):
    for spec in (ex1, ex2.with_epsilon(1e-2)):
        tm = build_tensor_mesh(spec, 16)
        for j in (2, 11):
            m, row_rhs = assembled_row(spec, tm, 8, j)
            west, center, east, rhs = eliminate_outer_unknowns(spec, tm, j)
            scale = abs(west) + abs(center) + abs(east)
            assert abs(m[(7, j)] - west) <= 1e-12 * scale
            assert abs(m[(8, j)] - center) <= 1e-12 * scale
            assert abs(m[(9, j)] - east) <= 1e-12 * scale
            assert rhs == pytest.approx(row_rhs, rel=1e-12)


def test_exact_elimination_of_assembled_rows_couples_y_neighbours(ex1):
    """Eliminating U_{i+-2} with their own assembled rows leaves a 7-point row.

    The 3-point row relies on one-dimensional second-neighbour identities.
    The assembled interior rows at (i-2, j) and (i+2, j) also couple
    (i-+2, j-+1), so exact Gaussian elimination of those two unknowns from
    the raw row spreads onto the neighbouring y-lines instead of collapsing
    to three entries.
    """
    tm = build_tensor_mesh(ex1, 8)
    system = assemble_system(ex1, tm, Variant.RAW)
    A = system.matrix.toarray()
    rhs = system.rhs.copy()
    j = 2
    r = flat(system, 4, j)
    row = A[r].copy()
    b = rhs[r]
    for ci in (2, 6):
        c = flat(system, ci, j)
        factor = row[c] / A[c, c]
        row -= factor * A[c]
        b -= factor * rhs[c]
    assert abs(row[flat(system, 2, j)]) < 1e-9
    assert abs(row[flat(system, 6, j)]) < 1e-9
    support = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
    offline = [k for k in support if k // 9 != j]
    assert offline, "expected couplings onto neighbouring y-lines"
    assert len(support) > 3


# ---------------------------------------------------------------------------
# Dirichlet rows


def test_dirichlet_rows_pick_edge_traces(ex1):
    spec = ProblemSpec(
        epsilon=0.1, a_field=ex1.a_field, b_field=ex1.b_field,
        f_quadrants=ex1.f_quadrants,
        q_edges=(lambda y: 1.0, lambda x: 2.0, lambda y: 3.0, lambda x: 4.0),
        d1=0.5, d2=0.5, alpha=2.0, beta=5.0)
    tm = build_tensor_mesh(spec, 8)
    system = assemble_system(spec, tm)

    def rhs(i, j):
        return system.rhs[flat(system, i, j)]

    # edge interiors
    assert rhs(0, 3) == 1.0
    assert rhs(3, 0) == 2.0
    assert rhs(8, 3) == 3.0
    assert rhs(3, 8) == 4.0
    # west/east take precedence at the corners
    assert rhs(0, 0) == 1.0
    assert rhs(0, 8) == 1.0
    assert rhs(8, 0) == 3.0
    assert rhs(8, 8) == 3.0
    # where the discontinuity lines meet the boundary
    assert rhs(4, 0) == 2.0
    assert rhs(4, 8) == 4.0
    assert rhs(0, 4) == 1.0
    assert rhs(8, 4) == 3.0
    assert assembled_row(spec, tm, 0, 0) == ({(0, 0): 1.0}, 1.0)
    assert len(assembled_row(spec, tm, 3, 3)[0]) == 5


# ---------------------------------------------------------------------------
# whole-system assembly


def test_row_kind_census_n8(ex1):
    # the row classes by stencil size: 32 identity rows, 7 transformed
    # 3-point rows, 36 interior and 6 midpoint 5-point rows; the raw
    # variant turns the 7 transmission rows into 5-point rows
    tm = build_tensor_mesh(ex1, 8)
    system = assemble_system(ex1, tm, Variant.TRANSFORMED)
    assert system.dimension == 81
    sizes = np.bincount(np.diff(system.matrix.indptr))
    assert (sizes[1], sizes[3], sizes[5]) == (32, 7, 42)
    raw = assemble_system(ex1, tm, Variant.RAW)
    raw_sizes = np.bincount(np.diff(raw.matrix.indptr))
    assert (raw_sizes[1], raw_sizes[3], raw_sizes[5]) == (32, 0, 49)


def test_transformed_rows_have_three_entries(ex1):
    tm = build_tensor_mesh(ex1, 16)
    system = assemble_system(ex1, tm, Variant.TRANSFORMED)
    nnz_per_row = np.diff(system.matrix.indptr)
    for j in range(1, 16):
        assert nnz_per_row[flat(system, 8, j)] == 3
    raw = assemble_system(ex1, tm, Variant.RAW)
    nnz_raw = np.diff(raw.matrix.indptr)
    for j in range(1, 16):
        assert nnz_raw[flat(raw, 8, j)] == 5


@given(problem=st.sampled_from(["Example1", "Example2"]),
       log_eps=st.floats(-6.0, math.log10(0.5)),
       N=st.sampled_from([8, 16, 32, 64]))
@settings(max_examples=40)
def test_pattern_is_the_nonzero_coefficients(problem, log_eps, N):
    # the CSR stores no zero, keeps its columns sorted and gives every
    # Dirichlet row its diagonal alone, on the N-mesh, its bisection and
    # the 2N mesh, for both variants
    spec = builtin_problem(problem).with_epsilon(10.0 ** log_eps)
    tm = build_tensor_mesh(spec, N)
    for mesh in (tm, bisect(tm), build_tensor_mesh(spec, 2 * N)):
        m = mesh.n + 1
        edge = np.pad(np.zeros((m - 2, m - 2), bool), 1,
                      constant_values=True).ravel()
        rows = np.flatnonzero(edge)
        for variant in Variant:
            a = assemble_system(spec, mesh, variant).matrix
            assert np.all(a.data != 0)
            assert a.has_sorted_indices
            assert np.all(np.diff(a.indptr)[rows] == 1)
            assert np.array_equal(a.indices[a.indptr[rows]], rows)


def assert_matches_dense_oracle(a):
    """a is bitwise sp.csr_matrix(a.toarray()), the canonical CSR of its
    dense matrix: no stored zero, sorted columns, int32 indices.  The dense
    matrix is formed 512 rows at a time and the blocks stacked."""
    oracle = sp.vstack([sp.csr_matrix(a[lo:lo + 512].toarray())
                        for lo in range(0, a.shape[0], 512)], format="csr")
    for attr, dtype in (("data", np.float64), ("indices", np.int32),
                        ("indptr", np.int32)):
        assert getattr(a, attr).dtype == dtype, attr
        assert getattr(oracle, attr).dtype == dtype, attr
        assert np.array_equal(getattr(a, attr), getattr(oracle, attr)), attr
    assert a.has_canonical_format
    assert a.indptr[-1] == a.nnz == a.data.size == a.indices.size


@pytest.mark.parametrize("problem", ["Example1", "Example2"])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("eps", [1e-1, 1e-6])
def test_csr_matches_dense_oracle(problem, variant, eps):
    # on the N-mesh, its bisection and the regenerated 2N mesh
    spec = builtin_problem(problem).with_epsilon(eps)
    for N in (8, 16, 32):
        tm = build_tensor_mesh(spec, N)
        for mesh in (tm, bisect(tm), build_tensor_mesh(spec, 2 * N)):
            assert_matches_dense_oracle(
                assemble_system(spec, mesh, variant).matrix)


def csr_interior(a, offset, m):
    """A[r, r + offset] on the interior rows r of an m x m grid, as the
    (m - 2, m - 2) grid [j - 1, i - 1] (0 where nothing is stored)."""
    start = m + min(0, offset)  # diagonal(offset)[k] is row k - min(0, offset)
    return a.diagonal(offset)[start:start + m * (m - 2)].reshape(
        m - 2, m)[:, 1:-1]


def separable_from_csr(a, n):
    """The separable part read back from the CSR a, independently of the
    coefficient table: Y's column i = 1, the south and north edge strips,
    the x = d1 rows' mean entries at offsets -+2, D's diagonal and X's
    (west, centre, east) diagonals, the centre less the y-part."""
    m = n + 1
    y_south, y_north = csr_interior(a, -m, m), csr_interior(a, m, m)
    west, east = csr_interior(a, -1, m), csr_interior(a, 1, m)
    rows = np.arange(1, n) * m + n // 2
    return dict(
        y_south=y_south[:, 0], y_north=y_north[:, 0],
        strips=(y_south[0], y_north[-1]),
        raw=[a[rows, rows + o].mean() for o in (-2, 2)],
        coupled=y_north[0] != 0.0,
        x_bar=(west.mean(axis=0), (csr_interior(a, 0, m)
                                   + (y_south + y_north)).mean(axis=0),
               east.mean(axis=0)))


@pytest.mark.parametrize("problem", ["Example1", "Example2"])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("eps", [1e-1, 1e-4, 1e-6])
def test_separable_part_matches_csr_read_back(problem, variant, eps):
    # on the N-mesh, its bisection and the regenerated 2N mesh; all but X's
    # means are bitwise the CSR's, and X's centre sums its three slot means.
    # X's diagonals include its west and east couplings to the boundary, and
    # Y's end entries times D are the south and north edge strips
    spec = builtin_problem(problem).with_epsilon(eps)
    for N in (8, 16, 64):
        tm = build_tensor_mesh(spec, N)
        for mesh in (tm, bisect(tm), build_tensor_mesh(spec, 2 * N)):
            system = assemble_system(spec, mesh, variant)
            x_bar, y_south, y_north, coupled = system.separable
            ref = separable_from_csr(system.matrix, mesh.n)
            r = mesh.n // 2 - 1
            assert x_bar.shape == (5, mesh.n - 1)
            for got, want in ((y_south, ref["y_south"]),
                              (y_north, ref["y_north"]),
                              (coupled, ref["coupled"]),
                              (x_bar[[0, 4], r], ref["raw"]),
                              (y_south[0] * coupled, ref["strips"][0]),
                              (y_north[-1] * coupled, ref["strips"][1])):
                assert np.array_equal(got, want)
            for got, want in zip(x_bar[1:4], ref["x_bar"]):
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
            # only the x = d1 column stores entries at offsets -+2
            assert not np.delete(x_bar[[0, 4]], r, axis=1).any()


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_coefficient_is_not_stored(ex1, monkeypatch, zero):
    # a transmission row whose west coefficient is exactly +-0 stores only
    # its centre and east entries; -0.0 == 0, so it is no entry either
    kernel = assembly._transformed_coeffs

    def west_zero(*args):
        center, west, east, e_minus = kernel(*args)
        return center, np.full_like(west, zero), east, e_minus

    monkeypatch.setattr(assembly, "_transformed_coeffs", west_zero)
    tm = build_tensor_mesh(ex1, 16)
    a = assemble_system(ex1, tm).matrix
    assert_matches_dense_oracle(a)
    assert np.all(a.data != 0)
    rows = [(tm.n + 1) * j + tm.n // 2 for j in range(1, tm.n)]
    assert np.all(np.diff(a.indptr)[rows] == 2)
    assert np.array_equal(a.indices[a.indptr[rows]], rows)


def test_int32_index_overflow_raises_before_any_work(ex1, tmp_path, capsys,
                                                    monkeypatch):
    # 7 (N+1)^2 slots must fit int32: N = 17520 is the first multiple of 8
    # past it, and every mesh that large raises when it is made, before
    # anything is sampled or anything large allocated
    coarse = build_tensor_mesh(ex1, 8760)
    points = np.linspace(0.0, 1.0, 17521)
    tracemalloc.start()
    try:
        with pytest.raises(GeometryError, match=(
                "^N = 17520 overflows the int32 CSR indices$")):
            build_tensor_mesh(ex1, 17520)
        with pytest.raises(GeometryError, match="^N = 17520 overflows"):
            bisect(coarse)
        with pytest.raises(GeometryError, match="^N = 17520 overflows"):
            TensorMesh(x=points, y=points, sigma_x=0.1, sigma_y=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20

    # solve takes it for bad input (status 2) before any sampling
    def must_not_sample(*args):
        raise AssertionError("sampled a mesh past the int32 limit")

    monkeypatch.setattr(problems, "sample_problem", must_not_sample)
    monkeypatch.setattr(assembly, "sample_problem", must_not_sample)
    assert cli_main(["solve", "--epsilon", "1e-2", "--N", "17520",
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: N = 17520 overflows the int32 CSR indices\n")


def test_mesh_size_limit_follows_the_csr_layout(ex1, monkeypatch):
    # the mesh's MAX_N is the largest multiple of 8 whose system fits the
    # CSR arrays assembly emits: its slots a row and its index type, read
    # off a small system, so a wider row or a narrower index fails here
    emitted = []

    def spy(arrays, shape):
        emitted.append([a.copy() for a in arrays])   # eliminate_zeros edits
        return sp.csr_matrix(arrays, shape=shape)

    monkeypatch.setattr(assembly, "sp", types.SimpleNamespace(csr_matrix=spy))
    assemble_system(ex1, build_tensor_mesh(ex1, 8))
    [(_, indices, indptr)] = emitted
    [width] = set(np.diff(indptr).tolist())
    top = min(np.iinfo(indices.dtype).max, np.iinfo(indptr.dtype).max)
    largest = math.isqrt(top // width) - 1      # width (n+1)^2 <= top
    largest -= largest % 8
    assert largest == mesh_mod.MAX_N
    # README's Library prose states the limit, the first N it rejects, and
    # the largest and first rejected sweep N (whose 2N companion it bounds)
    paragraph = next(p for p in README.read_text().split("\n\n")
                     if "int32 indices" in p and "companion" in p)
    cap = largest // 2 - largest // 2 % 8
    assert re.findall(r"\d+,\d{3}", paragraph) == [
        f"{n:,}" for n in (largest, largest + 8, cap, cap + 8)]


def _curved(x, y):
    return 4.0 + x * y * y


def _cubic(x, y):
    return 25.0 + x + y * y * y


def test_bulk_assembly_matches_scalar_rows(ex1, ex2):
    """The array-built system against the row-by-row oracle.

    The matrix agrees bitwise.  The rhs agrees bitwise for Example1
    (constant sources); Example2's f2 = -(1 + x^2 y^2) may differ by one
    ulp, because numpy evaluates x ** 2 with pow() on a float64 scalar (the
    oracle) but as x * x on an array (assemble_system).  The third problem
    has a and b nonlinear in y and four distinct sources built from
    products only, so that averaging the wrong field on y = d2 shows.
    """
    curved = dataclasses.replace(
        ex2, epsilon=1e-2, a_field=_curved, b_field=_cubic,
        f_quadrants=(_curved, _cubic, ex2.f_quadrants[2], ex1.f_quadrants[3]))
    for spec, rhs_ulps in ((ex1, 0), (ex2.with_epsilon(1e-3), 1), (curved, 0)):
        for N in (8, 16, 64):
            tm = build_tensor_mesh(spec, N)
            for variant in (Variant.TRANSFORMED, Variant.RAW):
                system = assemble_system(spec, tm, variant)
                matrix, rhs, kinds = oracle_system(spec, tm, variant)
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(system.matrix, attr),
                                          getattr(matrix, attr)), attr
                ulps = np.abs(system.rhs - rhs) / np.spacing(np.abs(rhs))
                assert ulps.max() <= rhs_ulps, {
                    kinds[k] for k in np.flatnonzero(ulps > rhs_ulps)}


# ---------------------------------------------------------------------------
# sign-structure diagnostics


def test_m_matrix_check_identity(ex1):
    tm = build_tensor_mesh(ex1, 8)
    dim = 81
    system = LinearSystem(
        matrix=sp.identity(dim, format="csr"), rhs=np.zeros(dim), mesh=tm)
    report = m_matrix_check(system)
    assert report.sign_ok
    assert report.n_sign_violations == 0
    assert report.min_inverse_entry == pytest.approx(0.0, abs=1e-15)


def test_m_matrix_check_transformed_example1(ex1):
    frozen = {1e-1: -0.1293141415, 1e-3: -0.1760842950, 1e-6: -0.1760933351}
    for eps, inv_min in frozen.items():
        spec = ex1.with_epsilon(eps)
        tm = build_tensor_mesh(spec, 16)
        report = m_matrix_check(assemble_system(spec, tm, Variant.TRANSFORMED))
        assert not report.sign_ok
        assert report.n_sign_violations == 15
        assert report.nonpositive_diagonal_rows == []
        # every violation is the east coefficient of a transmission row
        for r, c, v in report.sign_violations:
            gi, gj = divmod(r, 17)[1], divmod(r, 17)[0]
            assert gi == 8 and c == r + 1 and v > 0
        assert report.min_inverse_entry == pytest.approx(inv_min, rel=1e-3)
        assert "15 positive" in report.summary()


def test_m_matrix_report_rows_follow_its_violations(ex1):
    # violating_rows is computed from sign_violations whenever a report is
    # built, so a replaced list brings its own rows and its own summary
    spec = ex1.with_epsilon(1e-3)
    report = m_matrix_check(assemble_system(spec, build_tensor_mesh(spec, 16),
                                            Variant.TRANSFORMED))
    assert len(report.violating_rows) == 15
    cleared = dataclasses.replace(report, sign_violations=[])
    assert cleared.violating_rows == []
    assert cleared.sign_ok
    assert "0 positive off-diagonal entries in 0 rows" in cleared.summary()
    with pytest.raises(TypeError, match="violating_rows"):
        MMatrixReport(289, violating_rows=[0])


def test_m_matrix_check_transformed_example2(ex2):
    frozen = {1e-1: -0.1796205286, 1e-3: -0.2126452941, 1e-6: -0.2126511053}
    for eps, inv_min in frozen.items():
        spec = ex2.with_epsilon(eps)
        tm = build_tensor_mesh(spec, 16)
        report = m_matrix_check(assemble_system(spec, tm, Variant.TRANSFORMED))
        assert report.n_sign_violations == 15
        # the transmission row center goes negative for this coefficient set
        assert len(report.nonpositive_diagonal_rows) == 15
        assert report.min_inverse_entry == pytest.approx(inv_min, rel=1e-3)


def test_m_matrix_check_raw(ex1):
    tm = build_tensor_mesh(ex1, 16)
    report = m_matrix_check(assemble_system(ex1, tm, Variant.RAW))
    assert not report.sign_ok
    # two positive outer entries per derivative-matching row
    assert report.n_sign_violations == 30
    assert all(divmod(r, 17)[1] == 8 for r in report.violating_rows)
    assert report.nonpositive_diagonal_rows == []


def test_m_matrix_check_inverse_gate(ex1):
    tm = build_tensor_mesh(ex1, 8)
    system = assemble_system(ex1, tm)
    assert m_matrix_check(system).min_inverse_entry is not None
    # the limit is (16+1)^2 unknowns
    at_limit = assemble_system(ex1, build_tensor_mesh(ex1, 16))
    assert m_matrix_check(at_limit).min_inverse_entry is not None
    above = assemble_system(ex1, build_tensor_mesh(ex1, 24))
    assert m_matrix_check(above).min_inverse_entry is None
    big = assemble_system(ex1, build_tensor_mesh(ex1, 40))
    assert m_matrix_check(big).min_inverse_entry is None


def test_m_matrix_check_singular_matrix(ex1):
    # row 10 copied over row 20: no inverse to check
    spec = ex1.with_epsilon(0.1)
    system = assemble_system(spec, build_tensor_mesh(spec, 8))
    matrix = system.matrix.tolil()
    matrix[20] = matrix[10]
    report = m_matrix_check(dataclasses.replace(system, matrix=matrix.tocsr()))
    assert report.dimension == 81
    assert math.isnan(report.min_inverse_entry)
    assert report.summary().endswith("min inverse entry nan")


def test_variant_by_value_is_the_member(ex2):
    # "raw" builds the raw rows: by value and by member give one system
    tm = build_tensor_mesh(ex2, 16)
    for variant in Variant:
        by_member = assemble_system(ex2, tm, variant)
        by_value = assemble_system(ex2, tm, variant.value)
        assert np.array_equal(by_value.rhs, by_member.rhs)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(by_value.matrix, attr),
                                  getattr(by_member.matrix, attr)), attr
    with pytest.raises(ValueError):
        assemble_system(ex2, tm, "Raw")
