"""Continuous problem data: coefficients, piecewise source, boundary traces.

The model problem is

    -eps^2 (u_xx + u_yy) + a(x,y) u_x + b(x,y) u = f(x,y)   on (0,1)^2,

with Dirichlet data on the boundary, a >= alpha > 0, b >= beta^2 > 0, and a
source f that is two-valued across the interior lines x = d1 and y = d2.
The four open quadrants are

    Q1 = (0,d1) x (0,d2),   Q2 = (d1,1) x (0,d2),
    Q3 = (0,d1) x (d2,1),   Q4 = (d1,1) x (d2,1),

f is smooth up to the closure of each quadrant, so on the lines it is
two-valued; ``sample_problem`` samples each quadrant's f on its closed block,
which gives both one-sided values there, and the boundary traces on their
edges, and checks every sample against these hypotheses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import BadN, MalformedSpec

if TYPE_CHECKING:
    from .mesh import TensorMesh

ScalarField = Callable[[float, float], float]
EdgeTrace = Callable[[float], float]


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable problem data; the field callables must be pure.

    ``f_quadrants`` is ordered (Q1, Q2, Q3, Q4).  ``q_edges`` is ordered
    (west, south, east, north); the west/east traces take y, the
    south/north traces take x.  ``alpha`` is a lower bound for a and
    ``beta**2`` a lower bound for b; the mesh construction uses the stored
    values even when sharper bounds hold.
    """
    epsilon: float
    a_field: ScalarField
    b_field: ScalarField
    f_quadrants: tuple[ScalarField, ScalarField, ScalarField, ScalarField]
    q_edges: tuple[EdgeTrace, EdgeTrace, EdgeTrace, EdgeTrace]
    d1: float
    d2: float
    alpha: float
    beta: float
    name: str = "custom"

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise MalformedSpec(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not (0.0 < self.d1 < 1.0):
            raise MalformedSpec(f"d1 must lie in (0,1), got {self.d1}")
        if not (0.0 < self.d2 < 1.0):
            raise MalformedSpec(f"d2 must lie in (0,1), got {self.d2}")
        if self.alpha <= 0.0:
            raise MalformedSpec(f"alpha must be positive, got {self.alpha}")
        if self.beta <= 0.0:
            raise MalformedSpec(f"beta must be positive, got {self.beta}")

    def with_epsilon(self, epsilon: float) -> "ProblemSpec":
        return replace(self, epsilon=epsilon)


# ---------------------------------------------------------------------------
# Builtin problems.  Field callables are module-level functions (not
# closures) so specs can be pickled into worker processes; they also accept
# numpy arrays unchanged.

def _zero_trace(t):
    return 0.0


def _ex1_a(x, y):
    return 2.0


def _ex1_b(x, y):
    return 25.0


def _ex1_f1(x, y):
    return 0.5


def _ex1_f2(x, y):
    return 0.6


def _ex1_f3(x, y):
    return -0.6


def _ex1_f4(x, y):
    return -0.5


def _ex2_a(x, y):
    return 4.0 + x


def _ex2_b(x, y):
    return 25.0 + x * y / 2.0


def _ex2_f1(x, y):
    return 1.0 + x + y


def _ex2_f2(x, y):
    return -(1.0 + x ** 2 * y ** 2)


def _ex2_f3(x, y):
    return -(1.0 + x * y)


def _ex2_f4(x, y):
    return 1.0 + x + y


def _make_example1() -> ProblemSpec:
    return ProblemSpec(
        epsilon=0.1,
        a_field=_ex1_a,
        b_field=_ex1_b,
        f_quadrants=(_ex1_f1, _ex1_f2, _ex1_f3, _ex1_f4),
        q_edges=(_zero_trace, _zero_trace, _zero_trace, _zero_trace),
        d1=0.5, d2=0.5, alpha=2.0, beta=5.0,
        name="Example1",
    )


def _make_example2() -> ProblemSpec:
    # alpha = 2 is kept although a = 4 + x would allow alpha = 4: the mesh
    # transition points are built from the stored constants.
    return ProblemSpec(
        epsilon=0.1,
        a_field=_ex2_a,
        b_field=_ex2_b,
        f_quadrants=(_ex2_f1, _ex2_f2, _ex2_f3, _ex2_f4),
        q_edges=(_zero_trace, _zero_trace, _zero_trace, _zero_trace),
        d1=0.4, d2=0.6, alpha=2.0, beta=5.0,
        name="Example2",
    )


_REGISTRY: dict[str, Callable[[], ProblemSpec]] = {
    "example1": _make_example1,
    "example2": _make_example2,
}


def register_problem(name: str, factory: Callable[[], ProblemSpec]) -> None:
    """Register a custom problem factory under a lookup name."""
    _REGISTRY[name.lower()] = factory


def builtin_problem(name: str) -> ProblemSpec:
    """Look up a registered problem by name (case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise MalformedSpec(f"unknown problem {name!r} (known: {known})")
    return _REGISTRY[key]()


def problem_names() -> list[str]:
    return sorted(_REGISTRY)


def check_mesh_parameter(N: int) -> None:
    if N < 8 or N % 8 != 0:
        raise BadN(f"N must be a multiple of 8 and at least 8, got {N}")


def sample_field(fld: ScalarField, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate a scalar field on the tensor grid, shape (len(ys), len(xs)).

    Tries a single broadcast call first (all builtin fields support it) and
    falls back to pointwise evaluation if that call fails in any way.  A
    field that fails pointwise as well raises ``MalformedSpec``.
    """
    X, Y = np.meshgrid(xs, ys)
    try:
        vals = np.broadcast_to(np.asarray(fld(X, Y), dtype=float), X.shape)
        return np.array(vals, dtype=float)
    except Exception:
        pass
    out = np.empty(X.shape)
    for (j, i), x in np.ndenumerate(X):
        try:
            out[j, i] = float(fld(x, Y[j, i]))
        except Exception as exc:
            name = getattr(fld, "__qualname__", repr(fld))
            raise MalformedSpec(
                f"field {name} fails at ({x:.6g}, {Y[j, i]:.6g}): "
                f"{type(exc).__name__}: {exc}") from exc
    return out


_EDGES = ("west", "south", "east", "north")


def _trace_value(edge: str, trace: EdgeTrace, t: float) -> float:
    """``float(trace(t))``; any failure raises ``MalformedSpec``."""
    try:
        return float(trace(t))
    except Exception as exc:
        raise MalformedSpec(f"{edge} trace fails at {t:.6g}: "
                            f"{type(exc).__name__}: {exc}") from exc


def sample_problem(spec: ProblemSpec, mesh: TensorMesh) -> tuple[
        np.ndarray, np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """a and b on the grid, the quadrant sources f_1..f_4, each on its
    closed block, and the edge traces (west, south, east, north) on their
    edges, checked against the problem hypotheses.

    Block k spans ys[:h+1] (Q1, Q2) or ys[h:] (Q3, Q4) by xs[:h+1] (Q1, Q3)
    or xs[h:] (Q2, Q4), h = n/2, so the lines x = d1 and y = d2 carry the
    one-sided values of both neighbouring quadrants.  Every sample must be
    finite and a >= alpha, b >= beta^2 must hold at every mesh point;
    otherwise ``MalformedSpec`` lists each finding, joined by "; ".
    """
    half = mesh.n // 2
    xs, ys = mesh.x, mesh.y
    a = sample_field(spec.a_field, xs, ys)
    b = sample_field(spec.b_field, xs, ys)
    left, right, below, above = xs[:half + 1], xs[half:], ys[:half + 1], ys[half:]
    sources = [sample_field(f, xq, yq) for f, xq, yq in
               zip(spec.f_quadrants, (left, right, left, right),
                   (below, below, above, above))]

    errors, traces = [], []
    for edge, trace, ts in zip(_EDGES, spec.q_edges, (ys, xs, ys, xs)):
        try:
            traces.append(np.array([_trace_value(edge, trace, t) for t in ts]))
        except MalformedSpec as exc:
            errors.append(str(exc))
            traces.append(np.zeros(ts.size))    # reported; not again below
    for fname, vals in [("a", a), ("b", b)] + [
            (f"f on Q{k}", vals) for k, vals in enumerate(sources, 1)] + [
            (f"{edge} trace", vals) for edge, vals in zip(_EDGES, traces)]:
        n_bad = int(np.count_nonzero(~np.isfinite(vals)))
        if n_bad:
            errors.append(f"{fname} is not finite at {n_bad} mesh points")
    for fname, vals, bound, bname in (("a", a, spec.alpha, "alpha"),
                                      ("b", b, spec.beta ** 2, "beta^2")):
        bad = np.argwhere(vals < bound)
        for j, i in bad[:5]:
            errors.append(
                f"{fname}({xs[i]:.6g},{ys[j]:.6g}) = {vals[j, i]:.6g} "
                f"< {bname} = {bound:.6g}")
        if len(bad) > 5:
            errors.append(
                f"... and {len(bad) - 5} more {fname} positivity violations")
    if errors:
        raise MalformedSpec("; ".join(errors))
    return a, b, sources, traces


def validate(spec: ProblemSpec, N: int) -> list[str]:
    """Warnings about the problem on the N-mesh that need no samples.

    The small-layer condition d > 8 (eps/beta) ln N merely separates the
    fitted regime from the classical one, and the boundary traces should
    agree at the corners; a trace that fails there raises ``MalformedSpec``.
    The hypotheses on a, b, f and the traces are checked where assembly
    samples them (``sample_problem``).
    """
    warnings = []
    threshold = 8.0 * (spec.epsilon / spec.beta) * math.log(N)
    for label, d in (("d1", spec.d1), ("d2", spec.d2)):
        if d <= threshold:
            warnings.append(
                f"{label} = {d:.6g} <= 8 (eps/beta) ln N = {threshold:.6g}: "
                "layer width is not small against the subdomain (classical regime)")

    def q(k, t):
        return _trace_value(_EDGES[k], spec.q_edges[k], t)

    corners = [
        (q(0, 0.0), q(1, 0.0), "southwest"),
        (q(2, 0.0), q(1, 1.0), "southeast"),
        (q(0, 1.0), q(3, 0.0), "northwest"),
        (q(2, 1.0), q(3, 1.0), "northeast"),
    ]
    for va, vb, where in corners:
        if abs(va - vb) > 1e-14 * max(1.0, abs(va)):
            warnings.append(
                f"boundary traces disagree at the {where} corner: {va} vs {vb}")
    return warnings
