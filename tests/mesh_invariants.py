"""Shared mesh property assertions.

Used by the hypothesis suite in test_mesh.py and re-run inside a timed
loop by the acceptance suite, so the checks live in one place.
"""
import math
import re

import numpy as np

from cd2d import bisect, build_tensor_mesh
from cd2d.errors import GeometryError


def distinct_width_count(widths: np.ndarray, rel: float = 1e-9) -> int:
    # realized widths of a layer piece wobble by an ulp of the coordinate,
    # which can dwarf rel * width when the piece is ~1e-12 wide; the
    # absolute floor absorbs that
    floor = 16.0 * np.finfo(float).eps
    w = np.sort(widths)
    groups = 1
    for a, b in zip(w[:-1], w[1:]):
        if b - a > rel * b + floor:
            groups += 1
    return groups


def check_mesh_invariants(spec, N) -> bool:
    """Assert the mesh contracts; returns False if geometry is infeasible.

    Infeasible means a GeometryError that the parameters explain: the layer
    pieces overlap, or eps lies below the floor the message names.
    """
    log_n = math.log(N)
    sigma_x = min(spec.d1 / 2.0, (2.0 * spec.epsilon ** 2 / spec.alpha) * log_n)
    sigma_y = min(spec.d2 / 4.0, (2.0 * spec.epsilon / spec.beta) * log_n)
    try:
        tm = build_tensor_mesh(spec, N)
    except GeometryError as exc:
        floor = re.search(r"below (\S+), the smallest eps", str(exc))
        overlap = 1.0 - sigma_x <= spec.d1 or 1.0 - sigma_y <= spec.d2 + sigma_y
        assert overlap or (floor and spec.epsilon < 1.001 * float(floor[1])), exc
        return False
    assert tm.sigma_x == sigma_x and tm.sigma_y == sigma_y
    assert 0.0 < sigma_x <= spec.d1 / 2.0
    assert 0.0 < sigma_y <= spec.d2 / 4.0
    xs, ys = tm.x, tm.y
    half = N // 2

    assert len(xs) == N + 1 and len(ys) == N + 1
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert ys[0] == 0.0 and ys[-1] == 1.0
    assert np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)

    # breakpoints are assigned, not accumulated: exact equality
    assert xs[half] == spec.d1
    assert ys[half] == spec.d2
    assert xs[N // 4] == spec.d1 - sigma_x
    assert xs[3 * N // 4] == 1.0 - sigma_x
    assert ys[N // 8] == sigma_y
    assert ys[3 * N // 8] == spec.d2 - sigma_y
    assert ys[half + N // 8] == spec.d2 + sigma_y
    assert ys[N - N // 8] == 1.0 - sigma_y

    # at most three distinct widths per axis
    assert distinct_width_count(np.diff(xs)) <= 3
    assert distinct_width_count(np.diff(ys)) <= 3

    # bisection nests bitwise, stays strictly increasing and keeps the
    # transition widths
    fine = bisect(tm)
    assert fine.n == 2 * N
    assert np.all(np.diff(fine.x) > 0) and np.all(np.diff(fine.y) > 0)
    assert (fine.sigma_x, fine.sigma_y) == (tm.sigma_x, tm.sigma_y)
    assert np.array_equal(fine.x[::2], xs)
    assert np.array_equal(fine.y[::2], ys)
    return True
