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
from typing import Callable

import numpy as np

from .errors import MalformedSpec
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
        for label, bound in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 < bound < math.inf:      # NaN fails too
                raise MalformedSpec(
                    f"{label} must be finite and positive, got {bound}")

    def with_epsilon(self, epsilon: float) -> "ProblemSpec":
        return replace(self, epsilon=epsilon)


# ---------------------------------------------------------------------------
# Builtin problems.  Fields and traces are module-level functions, or
# ``_Constant`` values where they are constant, never closures, so specs
# can be pickled into worker processes; both accept numpy arrays unchanged.

@dataclass(frozen=True)
class _Constant:
    """A field or edge trace with one value everywhere."""
    value: float

    def __call__(self, *point):
        return self.value


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


_EXAMPLE1 = ProblemSpec(
    epsilon=0.1,
    a_field=_Constant(2.0),
    b_field=_Constant(25.0),
    f_quadrants=tuple(map(_Constant, (0.5, 0.6, -0.6, -0.5))),
    q_edges=(_Constant(0.0),) * 4,
    d1=0.5, d2=0.5, alpha=2.0, beta=5.0,
    name="Example1",
)

# alpha = 2 is kept although a = 4 + x would allow alpha = 4: the mesh
# transition points are built from the stored constants.
_EXAMPLE2 = ProblemSpec(
    epsilon=0.1,
    a_field=_ex2_a,
    b_field=_ex2_b,
    f_quadrants=(_ex2_f1, _ex2_f2, _ex2_f3, _ex2_f4),
    q_edges=(_Constant(0.0),) * 4,
    d1=0.4, d2=0.6, alpha=2.0, beta=5.0,
    name="Example2",
)

_REGISTRY: dict[str, ProblemSpec] = {
    "example1": _EXAMPLE1,
    "example2": _EXAMPLE2,
}


def register_problem(name: str, spec: ProblemSpec) -> None:
    """Register a custom problem under a lookup name (case-insensitive);
    anything but a ``ProblemSpec`` raises ``MalformedSpec`` naming it."""
    if not isinstance(spec, ProblemSpec):
        raise MalformedSpec(f"problem {name!r} is a {type(spec).__name__}, "
                            "not a ProblemSpec")
    _REGISTRY[name.lower()] = spec


def builtin_problem(name: str) -> ProblemSpec:
    """Look up a registered problem by name (case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise MalformedSpec(f"unknown problem {name!r} (known: {known})")
    return _REGISTRY[key]


def problem_names() -> list[str]:
    return sorted(_REGISTRY)


def sample_field(fld: Callable, xs: np.ndarray, ys: np.ndarray | None = None,
                 label: str | None = None) -> np.ndarray:
    """Evaluate a scalar field on the tensor grid, shape (len(ys), len(xs)),
    or, with ``ys`` None, an edge trace on the axis ``xs``.

    Tries one call on xs as a row and ys as a column, broadcast to the grid,
    and falls back to pointwise evaluation if that call fails in any way but
    ``MemoryError``, which it raises.  A callable that fails pointwise as
    well raises ``MalformedSpec`` naming the point and ``label`` (default:
    "field <qualname>").
    """
    points = (xs,) if ys is None else np.meshgrid(xs, ys, sparse=True)
    shape = xs.shape if ys is None else (len(ys), len(xs))
    try:
        vals = np.broadcast_to(np.asarray(fld(*points), dtype=float), shape)
        return np.array(vals, dtype=float)
    except MemoryError:
        raise
    except Exception:
        pass
    out = np.empty(shape)
    points = np.broadcast_arrays(*points)
    for index in np.ndindex(shape):
        at = [p[index] for p in points]
        try:
            out[index] = float(fld(*at))
        except Exception as exc:
            where = ", ".join(f"{v:.6g}" for v in at)
            if ys is not None:
                where = f"({where})"
            name = label or "field " + getattr(fld, "__qualname__", repr(fld))
            raise MalformedSpec(f"{name} fails at {where}: "
                                f"{type(exc).__name__}: {exc}") from exc
    return out


_EDGES = ("west", "south", "east", "north")


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
            traces.append(sample_field(trace, ts, label=f"{edge} trace"))
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


def validate(spec: ProblemSpec, mesh: TensorMesh) -> list[str]:
    """Warnings about the problem on ``mesh`` that need no samples.

    The small-layer condition d > 8 (eps/beta) ln N, N = ``mesh.n``, merely
    separates the fitted regime from the classical one, and the boundary
    traces should agree at the corners; a trace that fails there raises
    ``MalformedSpec``.  The hypotheses on a, b, f and the traces are
    checked where assembly samples them (``sample_problem``), the rules on
    N where the mesh is built.
    """
    warnings = []
    threshold = 8.0 * (spec.epsilon / spec.beta) * math.log(mesh.n)
    for label, d in (("d1", spec.d1), ("d2", spec.d2)):
        if d <= threshold:
            warnings.append(
                f"{label} = {d:.6g} <= 8 (eps/beta) ln N = {threshold:.6g}: "
                "layer width is not small against the subdomain (classical regime)")

    west, south, east, north = (
        sample_field(trace, np.array([0.0, 1.0]), label=f"{edge} trace")
        for edge, trace in zip(_EDGES, spec.q_edges))
    corners = [
        (west[0], south[0], "southwest"),
        (east[0], south[1], "southeast"),
        (west[1], north[0], "northwest"),
        (east[1], north[1], "northeast"),
    ]
    for va, vb, where in corners:
        if abs(va - vb) > 1e-14 * max(1.0, abs(va)):
            warnings.append(
                f"boundary traces disagree at the {where} corner: {va} vs {vb}")
    return warnings
