import dataclasses
import math

import numpy as np
import pytest

from cd2d import (
    ProblemSpec,
    TensorMesh,
    assemble_system,
    builtin_problem,
    build_tensor_mesh,
    problem_names,
    register_problem,
    validate,
)
from cd2d.errors import GeometryError, MalformedSpec
from cd2d.mesh import check_mesh_parameter
from cd2d.problems import _REGISTRY, sample_field, sample_problem


def quadrant_blocks(spec, mesh):
    """The quadrant sources, each sampled on its closed block."""
    return sample_problem(spec, mesh)[2]


def test_builtin_names():
    names = problem_names()
    assert "example1" in names
    assert "example2" in names


def test_builtin_lookup_case_insensitive():
    a = builtin_problem("Example1")
    b = builtin_problem("example1")
    assert a.d1 == b.d1 == 0.5


def test_builtin_unknown():
    with pytest.raises(MalformedSpec):
        builtin_problem("nosuch")


def test_example1_data(ex1):
    assert ex1.d1 == 0.5 and ex1.d2 == 0.5
    assert ex1.alpha == 2.0 and ex1.beta == 5.0
    # constant coefficients
    assert ex1.a_field(0.1, 0.9) == 2.0
    assert ex1.b_field(0.7, 0.2) == 25.0
    # piecewise-constant source, one value per quadrant
    vals = [f(0.1, 0.1) for f in ex1.f_quadrants]
    assert vals == [0.5, 0.6, -0.6, -0.5]
    for q in ex1.q_edges:
        assert q(0.3) == 0.0


def test_example2_data(ex2):
    assert ex2.d1 == 0.4 and ex2.d2 == 0.6
    assert ex2.alpha == 2.0 and ex2.beta == 5.0
    assert ex2.a_field(0.25, 0.9) == pytest.approx(4.25)
    assert ex2.b_field(0.5, 0.4) == pytest.approx(25.1)
    for q in ex2.q_edges:
        assert q(0.3) == 0.0


def hand_mesh(xs, ys):
    """TensorMesh on hand-picked axes; d1 and d2 must sit at index n/2."""
    return TensorMesh(x=np.array(xs), y=np.array(ys),
                      sigma_x=math.nan, sigma_y=math.nan)


# n = 4: the lines x = d1 and y = d2 of Example1 at index 2
EX1_AXIS = [0.0, 0.2, 0.5, 0.8, 1.0]


def jump_across_x(spec, mesh, j):
    """f(d1+, y_j) - f(d1-, y_j) from the blocks assembly reads;
    y_j is off the line y = d2."""
    f1, f2, f3, f4 = quadrant_blocks(spec, mesh)
    h = mesh.n // 2
    if j < h:
        return f2[j, 0] - f1[j, h]
    return f4[j - h, 0] - f3[j - h, h]


def jump_across_y(spec, mesh, i):
    """f(x_i, d2+) - f(x_i, d2-) from the blocks assembly reads;
    x_i is off the line x = d1."""
    f1, f2, f3, f4 = quadrant_blocks(spec, mesh)
    h = mesh.n // 2
    if i < h:
        return f3[0, i] - f1[h, i]
    return f4[0, i - h] - f2[h, i - h]


def test_source_at_off_lines(ex1):
    f1, f2, f3, f4 = quadrant_blocks(ex1, hand_mesh(EX1_AXIS, EX1_AXIS))
    # (0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)
    assert f1[1, 1] == 0.5
    assert f2[1, 1] == 0.6
    assert f3[1, 1] == -0.6
    assert f4[1, 1] == -0.5


def test_jump_example1(ex1):
    # below y = d2 the source steps from 0.5 to 0.6 across x = d1
    mesh = hand_mesh(EX1_AXIS, EX1_AXIS)
    assert jump_across_x(ex1, mesh, 1) == pytest.approx(0.1)    # y = 0.2
    assert jump_across_x(ex1, mesh, 3) == pytest.approx(0.1)    # y = 0.8
    assert jump_across_y(ex1, mesh, 1) == pytest.approx(-1.1)   # x = 0.2
    assert jump_across_y(ex1, mesh, 3) == pytest.approx(-1.1)   # x = 0.8


def test_jump_example2_value(ex2):
    # hand values at y = 0.25: left 1 + 0.4 + 0.25, right -(1 + 0.4^2 0.25^2)
    mesh = hand_mesh([0.0, 0.2, 0.4, 0.7, 1.0], [0.0, 0.25, 0.6, 0.8, 1.0])
    f1, f2, _, _ = quadrant_blocks(ex2, mesh)
    left, right = f1[1, 2], f2[1, 0]
    assert left == pytest.approx(1.65)
    assert right == pytest.approx(-1.01)
    assert jump_across_x(ex2, mesh, 1) == pytest.approx(-2.66)
    assert jump_across_x(ex2, mesh, 1) == pytest.approx(right - left)


def test_spec_validation_errors(ex1):
    with pytest.raises(MalformedSpec):
        ProblemSpec(epsilon=0.0, a_field=ex1.a_field, b_field=ex1.b_field,
                    f_quadrants=ex1.f_quadrants, q_edges=ex1.q_edges,
                    d1=0.5, d2=0.5, alpha=2.0, beta=5.0)
    with pytest.raises(MalformedSpec):
        ProblemSpec(epsilon=1.5, a_field=ex1.a_field, b_field=ex1.b_field,
                    f_quadrants=ex1.f_quadrants, q_edges=ex1.q_edges,
                    d1=0.5, d2=0.5, alpha=2.0, beta=5.0)
    with pytest.raises(MalformedSpec):
        ProblemSpec(epsilon=0.1, a_field=ex1.a_field, b_field=ex1.b_field,
                    f_quadrants=ex1.f_quadrants, q_edges=ex1.q_edges,
                    d1=0.0, d2=0.5, alpha=2.0, beta=5.0)
    with pytest.raises(MalformedSpec):
        ProblemSpec(epsilon=0.1, a_field=ex1.a_field, b_field=ex1.b_field,
                    f_quadrants=ex1.f_quadrants, q_edges=ex1.q_edges,
                    d1=0.5, d2=1.0, alpha=2.0, beta=5.0)
    with pytest.raises(MalformedSpec):
        ProblemSpec(epsilon=0.1, a_field=ex1.a_field, b_field=ex1.b_field,
                    f_quadrants=ex1.f_quadrants, q_edges=ex1.q_edges,
                    d1=0.5, d2=0.5, alpha=0.0, beta=5.0)


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("beta", math.nan), ("alpha", math.inf),
    ("beta", -math.inf), ("beta", 0.0)])
def test_spec_bounds_must_be_finite_and_positive(ex1, field, value):
    with pytest.raises(MalformedSpec, match=(
            rf"^{field} must be finite and positive, got {value}$")):
        dataclasses.replace(ex1, **{field: value})


def test_with_epsilon(ex1):
    s = ex1.with_epsilon(1e-4)
    assert s.epsilon == 1e-4
    assert s.d1 == ex1.d1 and s.a_field is ex1.a_field
    assert ex1.epsilon == 0.1  # original untouched


def test_check_mesh_parameter():
    for good in (8, 64, np.int64(16)):
        check_mesh_parameter(good)
    for bad in (0, 4, 12, 20, -8, 7, 16.0, np.float64(16)):
        with pytest.raises(GeometryError):
            check_mesh_parameter(bad)


def test_validate_clean(ex1):
    spec = ex1.with_epsilon(1e-6)
    mesh = build_tensor_mesh(spec, 64)
    assert validate(spec, mesh) == []
    assemble_system(spec, mesh)     # data checks pass


def test_validate_wide_layer_warning(ex1):
    # epsilon = 0.5: d2 = 0.5 < 8*(eps/beta)*ln N = 3.327 at N = 64
    spec = ex1.with_epsilon(0.5)
    mesh = build_tensor_mesh(spec, 64)
    warnings = validate(spec, mesh)
    assert any("d2" in w or "layer" in w.lower() for w in warnings)
    assemble_system(spec, mesh)


def test_validate_coefficient_floor_violation(ex1):
    bad = ProblemSpec(epsilon=0.1, a_field=lambda x, y: 1.0, b_field=ex1.b_field,
                      f_quadrants=ex1.f_quadrants, q_edges=ex1.q_edges,
                      d1=0.5, d2=0.5, alpha=2.0, beta=5.0)
    # the first five violations by name, then a count of the other 284
    with pytest.raises(MalformedSpec, match=(
            r"^a\(0,0\) = 1 < alpha = 2; (a\([^;]*\) = 1 < alpha = 2; ){4}"
            r"\.\.\. and 284 more a positivity violations$")):
        assemble_system(bad, build_tensor_mesh(bad, 16))


def test_validate_non_finite_samples(ex1):
    def nan_in_q2(x, y):
        return np.where(x > 0.75, np.nan, 0.6)

    bad = dataclasses.replace(
        ex1, b_field=lambda x, y: np.full(np.shape(x), np.inf),
        f_quadrants=(ex1.f_quadrants[0], nan_in_q2, *ex1.f_quadrants[2:]))
    # Q1, Q3 and Q4 are clean, and an infinite b is not a floor violation
    with pytest.raises(MalformedSpec, match=(
            r"^b is not finite at 289 mesh points; "
            r"f on Q2 is not finite at \d+ mesh points$")):
        assemble_system(bad, build_tensor_mesh(bad, 16))


def test_validate_bad_n(ex1):
    # the mesh of a bad N cannot be built, so there is nothing to validate
    with pytest.raises(GeometryError):
        assemble_system(ex1, build_tensor_mesh(ex1, 12))


def test_sample_field_matches_pointwise(ex2):
    xs = np.linspace(0.0, 1.0, 7)
    ys = np.linspace(0.0, 1.0, 5)
    grid = sample_field(ex2.a_field, xs, ys)
    assert grid.shape == (5, 7)
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            assert grid[j, i] == pytest.approx(ex2.a_field(x, y))


def test_sample_field_scalar_only_callable():
    def fussy(x, y):
        if not np.isscalar(x) and not isinstance(x, float):
            raise TypeError("scalars only")
        return float(x) + 2.0 * float(y)

    xs = np.array([0.0, 0.5])
    ys = np.array([0.25])
    grid = sample_field(fussy, xs, ys)
    assert grid[0, 0] == pytest.approx(0.5)
    assert grid[0, 1] == pytest.approx(1.0)


def test_sample_field_names_failing_field():
    def broken_a(x, y):
        return {"x": x}[y]

    with pytest.raises(MalformedSpec, match="broken_a"):
        sample_field(broken_a, np.array([0.0, 0.5]), np.array([0.25]))


def test_sample_field_falls_back_on_any_error():
    # the array call fails with ZeroDivisionError, not TypeError/ValueError;
    # pointwise evaluation then names the failing point
    def b_divides_by_x(x, y):
        return 25.0 + 0.0 / float(np.min(x))

    with pytest.raises(MalformedSpec, match=(
            r"^field .*b_divides_by_x fails at \(0, 0.25\): "
            r"ZeroDivisionError: float division by zero$")):
        sample_field(b_divides_by_x, np.array([0.0, 0.5]), np.array([0.25]))


def test_sample_field_raises_memory_error_after_one_call():
    # running out of memory on the whole grid is not a field that rejects
    # arrays: no point-by-point fallback, the error propagates
    calls = []

    def hungry(x, y):
        calls.append(np.shape(x))
        raise MemoryError("Unable to allocate 32. KiB")

    xs = np.linspace(0.0, 1.0, 65)
    with pytest.raises(MemoryError, match="Unable to allocate"):
        sample_field(hungry, xs, xs)
    assert calls == [(1, 65)]


def test_sample_field_reads_an_edge_trace_on_one_axis():
    ts = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(sample_field(np.sin, ts), np.sin(ts))
    assert sample_field(lambda t: 3.0, ts).tolist() == [3.0] * 5
    with pytest.raises(MalformedSpec, match=(
            r"^north trace fails at 0.25: ZeroDivisionError: ")):
        sample_field(lambda t: 1.0 / (float(t) - 0.25), ts, label="north trace")


def test_array_trace_called_once_per_edge_per_assembly(ex1):
    # a trace that takes arrays gets the whole edge in one call, in
    # assembly and in the corner check alike
    calls = []

    def counted(edge):
        def trace(t):
            calls.append((edge, np.shape(t)))
            return 0.0 * t
        return trace

    spec = dataclasses.replace(
        ex1, q_edges=tuple(counted(edge) for edge in range(4)))
    mesh = build_tensor_mesh(spec, 16)
    system = assemble_system(spec, mesh)
    assert sorted(calls) == [(edge, (17,)) for edge in range(4)]
    assert np.array_equal(system.rhs, assemble_system(ex1, mesh).rhs)
    calls.clear()
    assert validate(spec, mesh) == []
    assert sorted(calls) == [(edge, (2,)) for edge in range(4)]


def test_scalar_only_trace_falls_back_point_by_point(ex1):
    # math takes no arrays: each edge point is read on its own, with the
    # same values as before and the same failure message
    def south(x):
        return math.sqrt(x)

    def west(y):
        return math.log(y)

    mesh = build_tensor_mesh(ex1, 16)
    spec = dataclasses.replace(ex1, q_edges=(ex1.q_edges[0], south,
                                             *ex1.q_edges[2:]))
    traces = sample_problem(spec, mesh)[3]
    assert traces[1].tolist() == [south(x) for x in mesh.x]
    assert validate(spec, mesh) == [
        "boundary traces disagree at the southeast corner: 0.0 vs 1.0"]
    bad = dataclasses.replace(spec, q_edges=(west, *spec.q_edges[1:]))
    with pytest.raises(MalformedSpec, match=(
            r"^west trace fails at 0: ValueError: math domain error$")):
        sample_problem(bad, mesh)


def test_validate_trace_failing_at_a_corner(ex1):
    # the west trace is fine inside but fails at y = 0
    bad = dataclasses.replace(
        ex1, q_edges=(lambda y: 0.0 * math.log(y), *ex1.q_edges[1:]))
    mesh = build_tensor_mesh(bad, 16)
    with pytest.raises(MalformedSpec, match=(
            r"^west trace fails at 0: ValueError: math domain error$")):
        validate(bad, mesh)
    with pytest.raises(MalformedSpec, match=r"^west trace fails at 0: "):
        assemble_system(bad, mesh)


def test_register_problem(ex1):
    name = "unit_register_probe"
    try:
        register_problem(name, ex1.with_epsilon(1e-2))
        got = builtin_problem(name)
        assert got.epsilon == 1e-2
        assert name in problem_names()
    finally:
        _REGISTRY.pop(name, None)


@pytest.mark.parametrize("spec", [lambda: None, None], ids=["lambda", "none"])
def test_register_problem_takes_only_a_spec(spec):
    # the registry holds values: a factory, or no spec at all, is refused
    # where it arrives, and nothing is registered
    before = problem_names()
    with pytest.raises(MalformedSpec, match=(
            rf"^problem 'unit_not_a_spec' is a {type(spec).__name__}, "
            r"not a ProblemSpec$")):
        register_problem("unit_not_a_spec", spec)
    assert problem_names() == before
