"""Reference oracle: the scheme's rows built one point at a time.

Each builder evaluates the problem fields at scalar points and applies the
coefficient kernels of ``cd2d.assembly`` to one row, so the comparison in
test_assembly.py checks the index logic of the array-built
``assemble_system`` (which neighbour, which quadrant, which average)
against an independent, pointwise reading of the scheme.
"""
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from cd2d.assembly import (Variant, _raw_interface_coeffs, _transformed_coeffs,
                           _upwind_coeffs)

BOUNDARY, INTERIOR, INTERFACE_X, INTERFACE_Y, CROSS = (
    "boundary", "interior", "interface_x", "interface_y", "cross")

# the row each oracle builder lays down
(INTERIOR_UPWIND, INTERFACE_X_TRANSFORMED, INTERFACE_X_RAW,
 INTERFACE_Y_MIDPOINT, DIRICHLET) = (
    "interior upwind", "transformed interface-x", "raw interface-x",
    "interface-y midpoint", "dirichlet")


def point_kind(i, j, n):
    """Class of mesh point (i, j) from its indices alone, half = n/2:
    interface_x at i = half, interface_y at j = half, cross at both."""
    half = n // 2
    if i in (0, n) or j in (0, n):
        return BOUNDARY
    if i == half:
        return CROSS if j == half else INTERFACE_X
    return INTERFACE_Y if j == half else INTERIOR


def source_off_lines(spec, x, y):
    """f at a point off the lines x = d1 and y = d2, from its quadrant."""
    assert x != spec.d1 and y != spec.d2, (x, y)
    quadrant = int(x > spec.d1) + 2 * int(y > spec.d2)
    return float(spec.f_quadrants[quadrant](x, y))


@dataclass
class StencilRow:
    center: tuple[int, int]
    entries: list[tuple[tuple[int, int], float]]
    rhs: float
    kind: str


def _five_point(spec, mesh, i, j, a_val, b_val, rhs, kind):
    xs, ys = mesh.x, mesh.y
    center, west, east, south, north = _upwind_coeffs(
        spec.epsilon ** 2, xs[i] - xs[i - 1], xs[i + 1] - xs[i],
        ys[j] - ys[j - 1], ys[j + 1] - ys[j], a_val, b_val)
    entries = [((i, j), center), ((i - 1, j), west), ((i + 1, j), east),
               ((i, j - 1), south), ((i, j + 1), north)]
    return StencilRow(center=(i, j), entries=entries, rhs=rhs, kind=kind)


def interior_row(spec, mesh, i, j):
    x, y = mesh.x[i], mesh.y[j]
    return _five_point(spec, mesh, i, j, float(spec.a_field(x, y)),
                       float(spec.b_field(x, y)), source_off_lines(spec, x, y),
                       INTERIOR_UPWIND)


def interface_y_row(spec, mesh, i):
    j = mesh.n // 2
    x, ys = mesh.x[i], mesh.y

    def hat(fn):
        return 0.5 * (fn(x, ys[j - 1]) + fn(x, ys[j + 1]))

    return _five_point(
        spec, mesh, i, j,
        hat(lambda x, y: float(spec.a_field(x, y))),
        hat(lambda x, y: float(spec.b_field(x, y))),
        hat(lambda x, y: source_off_lines(spec, x, y)),
        INTERFACE_Y_MIDPOINT)


def interface_x_row(spec, mesh, j):
    """Transformed 3-point transmission row at i = n/2 (cross point included)."""
    i = mesh.n // 2
    xs, ys = mesh.x, mesh.y
    eps2 = spec.epsilon ** 2
    h1, H2 = xs[i] - xs[i - 1], xs[i + 1] - xs[i]
    y = ys[j]
    center, west, east, e_minus = _transformed_coeffs(
        eps2, h1, H2,
        float(spec.a_field(xs[i - 1], y)), float(spec.a_field(xs[i + 1], y)),
        float(spec.b_field(xs[i - 1], y)), float(spec.b_field(xs[i + 1], y)))
    if point_kind(i, j, mesh.n) == CROSS:
        f_m = 0.5 * (source_off_lines(spec, xs[i - 1], ys[j - 1])
                     + source_off_lines(spec, xs[i - 1], ys[j + 1]))
        f_p = 0.5 * (source_off_lines(spec, xs[i + 1], ys[j - 1])
                     + source_off_lines(spec, xs[i + 1], ys[j + 1]))
    else:
        f_m = source_off_lines(spec, xs[i - 1], y)
        f_p = source_off_lines(spec, xs[i + 1], y)
    rhs = (h1 / (4.0 * e_minus)) * f_m + (H2 / (4.0 * eps2)) * f_p
    entries = [((i - 1, j), west), ((i, j), center), ((i + 1, j), east)]
    return StencilRow(center=(i, j), entries=entries, rhs=rhs,
                      kind=INTERFACE_X_TRANSFORMED)


def interface_x_row_raw(spec, mesh, j):
    """Raw 5-point derivative-matching row at i = n/2, rhs 0."""
    i = mesh.n // 2
    xs = mesh.x
    coeffs = _raw_interface_coeffs(xs[i] - xs[i - 1], xs[i + 1] - xs[i])
    entries = [((i + d, j), c) for d, c in zip(range(-2, 3), coeffs)]
    return StencilRow(center=(i, j), entries=entries, rhs=0.0,
                      kind=INTERFACE_X_RAW)


def dirichlet_row(spec, mesh, i, j):
    n = mesh.n
    x, y = mesh.x[i], mesh.y[j]
    if i == 0:
        rhs = float(spec.q_edges[0](y))
    elif i == n:
        rhs = float(spec.q_edges[2](y))
    elif j == 0:
        rhs = float(spec.q_edges[1](x))
    else:
        rhs = float(spec.q_edges[3](x))
    return StencilRow(center=(i, j), entries=[((i, j), 1.0)], rhs=rhs,
                      kind=DIRICHLET)


def oracle_row(spec, mesh, i, j, variant=Variant.TRANSFORMED):
    """The row of point (i, j), chosen by the point classification."""
    kind = point_kind(i, j, mesh.n)
    if kind == BOUNDARY:
        return dirichlet_row(spec, mesh, i, j)
    if kind == INTERIOR:
        return interior_row(spec, mesh, i, j)
    if kind in (INTERFACE_X, CROSS):
        if variant is Variant.RAW:
            return interface_x_row_raw(spec, mesh, j)
        return interface_x_row(spec, mesh, j)
    return interface_y_row(spec, mesh, i)


def oracle_system(spec, mesh, variant=Variant.TRANSFORMED):
    """(CSR matrix with sorted indices, rhs, row labels), row by row."""
    m = mesh.n + 1
    rows, cols, vals = [], [], []
    rhs = np.zeros(m * m)
    kinds = []
    for j in range(m):
        for i in range(m):
            row = oracle_row(spec, mesh, i, j, variant)
            k = j * m + i
            for (ci, cj), val in row.entries:
                rows.append(k)
                cols.append(cj * m + ci)
                vals.append(val)
            rhs[k] = row.rhs
            kinds.append(row.kind)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(m * m, m * m)).tocsr()
    matrix.sort_indices()
    return matrix, rhs, kinds
