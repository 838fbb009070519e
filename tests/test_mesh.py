import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cd2d import TensorMesh, bisect, build_tensor_mesh, builtin_problem
from cd2d.errors import GeometryError, MeshMismatch

from mesh_invariants import check_mesh_invariants, distinct_width_count
from scalar_rows import (BOUNDARY, CROSS, INTERFACE_X, INTERFACE_Y, INTERIOR,
                         point_kind)

# frozen from the float min-formulas; cross-checked against a 50-digit
# evaluation (agreement within 2 ulp)
SX_EPS2_N64 = 4.1588830833596716e-4
SY_EPS2_N64 = 1.6635532333438688e-2
SX_EX1_N8 = 0.02079441541679836
SY_EX1_N8 = 0.08317766166719343

X_EX1_N8 = [0.0, 0.2396027922916008, 0.4792055845832016, 0.4896027922916008,
            0.5, 0.7396027922916009, 0.9792055845832016, 0.9896027922916009,
            1.0]
Y_EX1_N8 = [0.0, 0.08317766166719343, 0.25, 0.4168223383328066, 0.5,
            0.5831776616671934, 0.75, 0.9168223383328066, 1.0]


def test_transition_widths_layer_branch(ex1):
    tm = build_tensor_mesh(ex1.with_epsilon(1e-2), 64)
    assert tm.sigma_x == SX_EPS2_N64
    assert tm.sigma_y == SY_EPS2_N64
    assert tm.n == 64


def test_transition_widths_domain_branch(ex1):
    # eps = 0.5 puts both minima on the domain-fraction side
    tm = build_tensor_mesh(ex1.with_epsilon(0.5), 32)
    assert tm.sigma_x == 0.25
    assert tm.sigma_y == 0.125


def test_transition_widths_bad_n(ex1):
    for bad in (0, 12, 20):
        with pytest.raises(GeometryError):
            build_tensor_mesh(ex1, bad)


def round_mesh_8(ex1):
    """alpha = 0.2 ln 8 and beta = 2 ln 8 give sigma_x = sigma_y = 0.1 at
    eps = 0.1 and N = 8."""
    spec = dataclasses.replace(ex1, alpha=0.2 * math.log(8),
                               beta=2.0 * math.log(8))
    tm = build_tensor_mesh(spec, 8)
    assert (tm.sigma_x, tm.sigma_y) == (0.1, 0.1)
    return tm


def test_x_mesh_simple_widths(ex1):
    # round numbers so every coordinate can be checked by eye
    # two intervals per piece
    xs = round_mesh_8(ex1).x
    assert np.allclose(xs, [0.0, 0.2, 0.4, 0.45, 0.5, 0.7, 0.9, 0.95, 1.0],
                       rtol=0, atol=1e-15)
    assert xs[4] == 0.5


def test_y_mesh_simple_widths(ex1):
    # piece counts (1, 2, 1, 1, 2, 1)
    ys = round_mesh_8(ex1).y
    assert np.allclose(ys, [0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0],
                       rtol=0, atol=1e-15)
    assert ys[4] == 0.5


def test_example1_mesh_frozen(ex1):
    tm = build_tensor_mesh(ex1, 8)
    assert tm.sigma_x == SX_EX1_N8
    assert tm.sigma_y == SY_EX1_N8
    assert list(tm.x) == X_EX1_N8
    assert list(tm.y) == Y_EX1_N8


def test_breakpoints_assigned_exactly(ex1):
    for N in (8, 64, 256):
        for eps in (1e-1, 1e-4):
            tm = build_tensor_mesh(ex1.with_epsilon(eps), N)
            sx, sy = tm.sigma_x, tm.sigma_y
            assert list(tm.x[::N // 4]) == [0.0, ex1.d1 - sx, ex1.d1,
                                            1.0 - sx, 1.0]
            assert list(tm.y[[0, N // 8, 3 * N // 8, N // 2, 5 * N // 8,
                              7 * N // 8, N]]) == [
                0.0, sy, ex1.d2 - sy, ex1.d2, ex1.d2 + sy, 1.0 - sy, 1.0]


def test_uniform_when_sigma_hits_fraction(ex1):
    # sigma_x = d1/2 makes all four x-pieces the same width
    tm = build_tensor_mesh(ex1.with_epsilon(0.5), 32)
    assert distinct_width_count(np.diff(tm.x)) == 1
    assert np.allclose(np.diff(tm.x), 1.0 / 32, rtol=0, atol=1e-15)


def test_distinct_width_census(ex1, ex2):
    for spec in (ex1, ex2):
        for eps in (1e-1, 1e-3, 1e-6):
            tm = build_tensor_mesh(spec.with_epsilon(eps), 32)
            assert distinct_width_count(np.diff(tm.x)) <= 3
            assert distinct_width_count(np.diff(tm.y)) <= 3


def test_nominal_widths_example1(ex1):
    # the realized widths of each piece: H1, h1, H2, h1 in x (N/4 = 2 each)
    # and k1, K1, k1, k1, K2, k1 in y (counts 1, 2, 1, 1, 2, 1)
    tm = build_tensor_mesh(ex1, 8)
    H1, h1 = 0.2396027922916008, 0.0103972077083992
    assert np.diff(tm.x) == pytest.approx([H1, H1, h1, h1, H1, H1, h1, h1],
                                          rel=1e-14)
    K1, K2 = 0.1668223383328066, 0.1668223383328066
    assert np.diff(tm.y) == pytest.approx(
        [SY_EX1_N8, K1, K1, SY_EX1_N8, SY_EX1_N8, K2, K2, SY_EX1_N8], rel=1e-14)


def test_geometry_error_wide_x_layer(ex1):
    # 1 - sigma_x falls left of d1
    with pytest.raises(GeometryError, match="overlaps d1"):
        build_tensor_mesh(dataclasses.replace(ex1, epsilon=0.5, d1=0.98), 8)


def test_geometry_error_wide_y_layers(ex1):
    # pieces around y = d2 and y = 1 overlap
    with pytest.raises(GeometryError, match="and y = 1 overlap"):
        build_tensor_mesh(dataclasses.replace(ex1, epsilon=0.5, d2=0.9), 8)


def test_geometry_error_collapsed_x_piece(ex1):
    # d1 one ulp left of 1 - sigma_x passes the overlap check, but the
    # piece [d1, 1 - sigma_x] cannot hold N/4 distinct points
    N = 16
    sx = (2.0 * ex1.epsilon ** 2 / ex1.alpha) * math.log(N)
    spec = dataclasses.replace(ex1, d1=float(np.nextafter(1.0 - sx, 0.0)))
    with pytest.raises(GeometryError,
                       match="^x-mesh is not strictly increasing$"):
        build_tensor_mesh(spec, N)


@pytest.mark.parametrize("label", ["d1", "d2"])
def test_geometry_error_names_a_tiny_d(ex1, label):
    # d1/2 or d2/4 below the spacing floor: no eps helps, so d is named
    with pytest.raises(GeometryError, match=(
            rf"^{label} = 1e-17 is below 7.11e-15, the smallest {label} ")):
        build_tensor_mesh(dataclasses.replace(ex1, **{label: 1e-17}), 16)


def test_tensor_mesh_dimension_mismatch(ex1):
    a = build_tensor_mesh(ex1, 8)
    b = build_tensor_mesh(ex1, 16)
    with pytest.raises(MeshMismatch, match="axes disagree"):
        TensorMesh(x=a.x, y=b.y, sigma_x=a.sigma_x, sigma_y=b.sigma_y)


def test_point_classification_census():
    # the oracle's classification, which picks each row of scalar_rows
    counts = {kind: 0 for kind in (BOUNDARY, CROSS, INTERFACE_X, INTERFACE_Y,
                                   INTERIOR)}
    for j in range(9):
        for i in range(9):
            counts[point_kind(i, j, 8)] += 1
    assert counts[BOUNDARY] == 32
    assert counts[CROSS] == 1
    assert counts[INTERFACE_X] == 6
    assert counts[INTERFACE_Y] == 6
    assert counts[INTERIOR] == 36
    assert sum(counts.values()) == 81


def test_point_classification_examples():
    assert point_kind(4, 4, 8) == CROSS
    assert point_kind(4, 2, 8) == INTERFACE_X
    assert point_kind(2, 4, 8) == INTERFACE_Y
    assert point_kind(0, 4, 8) == BOUNDARY
    assert point_kind(3, 5, 8) == INTERIOR


def test_bisect_nests_bitwise(ex1):
    tm = build_tensor_mesh(ex1.with_epsilon(1e-3), 16)
    fine = bisect(tm)
    assert fine.n == 32
    assert np.array_equal(fine.x[::2], tm.x)
    assert np.array_equal(fine.y[::2], tm.y)
    mid = 0.5 * (tm.x[:-1] + tm.x[1:])
    assert np.array_equal(fine.x[1::2], mid)
    assert (fine.sigma_x, fine.sigma_y) == (tm.sigma_x, tm.sigma_y)


def test_bisect_preserves_interface_index(ex1):
    tm = build_tensor_mesh(ex1, 8)
    fine = bisect(tm)
    # the classification depends on (i, j, n) alone, so the interface
    # rows sit at fine index n = 8 as long as d1 and d2 do
    assert fine.n == 16
    assert fine.x[8] == ex1.d1 and fine.y[8] == ex1.d2


def test_double_bisect(ex1):
    tm = build_tensor_mesh(ex1, 8)
    f2 = bisect(bisect(tm))
    assert f2.n == 32
    assert np.array_equal(f2.x[::4], tm.x)


def test_bisect_simple(ex1):
    f = bisect(round_mesh_8(ex1))
    assert np.allclose(f.x[1::2],
                       [0.1, 0.3, 0.425, 0.475, 0.6, 0.8, 0.925, 0.975],
                       rtol=0, atol=1e-15)
    assert np.allclose(f.y[1::2],
                       [0.05, 0.175, 0.325, 0.45, 0.55, 0.675, 0.825, 0.95],
                       rtol=0, atol=1e-15)


@given(log_eps=st.floats(-10.0, math.log10(0.5)),
       N=st.sampled_from([8, 16, 24, 32]),
       dx=st.floats(0.15, 0.85),
       dy=st.floats(0.15, 0.85))
@settings(max_examples=40)
def test_mesh_invariants_property(log_eps, N, dx, dy):
    # eps log-uniform in [1e-10, 0.5]: below about 3e-8 the eps floor of
    # build_tensor_mesh must reject it, above it every invariant must hold
    spec = dataclasses.replace(builtin_problem("example1"),
                               epsilon=10.0 ** log_eps, d1=dx, d2=dy)
    check_mesh_invariants(spec, N)


@pytest.mark.parametrize("N", [17520, 80000, 800000])
def test_oversize_n_fails_before_either_axis(ex1, N):
    # N past MAX_N is refused among the scalar rules, before the two axes
    # (about 24 bytes an interval) are allocated
    spec = ex1.with_epsilon(1e-2)
    tracemalloc.start()
    try:
        with pytest.raises(GeometryError, match=(
                f"^N = {N} overflows the int32 CSR indices$")):
            build_tensor_mesh(spec, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


@given(N=st.integers(1, 2500).map(lambda k: 8 * k))
@example(N=8752)
@example(N=8760)
@example(N=17512)
@example(N=17520)
@settings(max_examples=50)
def test_size_limit_property(ex1, N):
    # the mesh takes N up to 17512 (int32 CSR indices), and so its bisection
    # only up to N = 8752; only point axes are allocated
    spec = ex1.with_epsilon(1e-2)
    if N > 17512:
        with pytest.raises(GeometryError, match=f"^N = {N} overflows"):
            build_tensor_mesh(spec, N)
        return
    tm = build_tensor_mesh(spec, N)
    if 2 * N > 17512:
        with pytest.raises(GeometryError, match=f"^N = {2 * N} overflows"):
            bisect(tm)
    else:
        assert bisect(tm).n == 2 * N
