import ast
import dataclasses
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import cd2d
from cd2d import errors

EXPORTS = {
    # analysis
    "ConvergenceTable", "DoubleMeshMode", "SweepResult", "double_mesh_error",
    "manufactured_solution_study", "run_cell", "run_sweep", "write_table_csv",
    # assembly
    "LinearSystem", "MMatrixReport", "Variant", "assemble_system",
    "m_matrix_check",
    # errors
    "CD2DError", "GeometryError", "MalformedSpec", "MeshMismatch",
    "SingularMatrix",
    # mesh
    "TensorMesh", "bisect", "build_tensor_mesh",
    # problems
    "ProblemSpec", "builtin_problem", "problem_names", "register_problem",
    "validate",
    # solve
    "GridFunction", "residual_norm", "solve_direct", "write_grid_dump",
}


def test_exports():
    # the package's public surface: every non-module name ``cd2d`` binds
    public = {name for name, value in vars(cd2d).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
    assert len(EXPORTS) == 30


def test_linear_system_fields():
    # the system is its matrix, rhs, mesh, stability bound and, on the
    # fast-diagonalization path only, its separable part
    assert [f.name for f in dataclasses.fields(cd2d.LinearSystem)] == [
        "matrix", "rhs", "mesh", "bound", "separable"]


def _raised_names() -> set[str]:
    """The names after ``raise`` anywhere in ``src/cd2d``."""
    names = set()
    for path in Path(cd2d.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    # a type nothing raises is dead surface that callers still catch
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, cd2d.CD2DError)
               and value.__module__ == errors.__name__}
    assert defined - _raised_names() == set()
    assert len(defined) == 5


def _resolves(target: str) -> bool:
    module, attr = target.split(":")
    return callable(getattr(importlib.import_module(module), attr, None))


def test_benchmark_trace_layers_resolve(monkeypatch):
    # the benchmark tracer skips a target that is gone, and a layer with no
    # target left reads null: a renamed function must not empty a layer
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, spans)   # for @dataclass
    loader.loader.exec_module(spans)
    for name, layer, targets, _ in spans.TARGETS:
        assert any(map(_resolves, targets)), (
            f"layer {layer!r} ({name}) has no callable target")
