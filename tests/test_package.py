import ast
import dataclasses
import functools
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cd2d
from cd2d import errors, problems

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_every_record_is_frozen():
    # results are values: no dataclass of the package changes after its
    # constructor returns (dataclasses.replace gives a changed copy)
    modules = [importlib.import_module(f"cd2d.{path.stem}") for path in
               Path(cd2d.__file__).parent.glob("*.py")
               if path.stem != "__init__"]
    records = [value for module in modules for value in vars(module).values()
               if isinstance(value, type) and dataclasses.is_dataclass(value)
               and value.__module__ == module.__name__]
    assert len(records) == 13
    assert [r.__qualname__ for r in records
            if not r.__dataclass_params__.frozen] == []


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


def test_each_inner_solve_is_built_in_one_place():
    # the solve picks its path in one place: a second call site of either
    # build would be a second fallback policy
    calls = {"_TensorSolve": 0, "_LUSolve": 0}
    for path in Path(cd2d.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "build"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in calls):
                calls[node.func.value.id] += 1
    assert calls == {"_TensorSolve": 1, "_LUSolve": 1}


def test_import_loads_no_optional_modules():
    # README "Start-up": importing the package and its CLI loads none of
    # these; a fresh interpreter sees what an import pulls in
    lazy = ["scipy.interpolate", "scipy.special", "scipy.optimize",
            "multiprocessing", "concurrent.futures.process", "fractions"]
    src = str(Path(cd2d.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, cd2d, cd2d.cli\n"
            f"print([m for m in {lazy!r} if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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


def _benchmark_spans(monkeypatch) -> types.ModuleType:
    """``perfbench/spans.py``, loaded as a module of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, spans)   # for @dataclass
    loader.loader.exec_module(spans)
    return spans


def test_benchmark_trace_layers_resolve(monkeypatch):
    # the benchmark tracer skips a target that is gone, and a layer with no
    # target left reads null: a renamed function must not empty a layer
    for name, layer, targets, _ in _benchmark_spans(monkeypatch).TARGETS:
        assert any(map(_resolves, targets)), (
            f"layer {layer!r} ({name}) has no callable target")


# The benchmark's targets ("module:attribute") each run calls, as the
# tracer resolves them.  No sweep calls "cd2d.analysis:run_cell": a sweep
# runs its cells through the chain loop, so the tracer's analysis.cell
# layer reads 0 (a known gap of the benchmark, logged in CHANGES.md).
_SWEEP_CALLS = {"cd2d.cli:main", "cd2d.analysis:validate",
                "cd2d.mesh:build_tensor_mesh", "cd2d.analysis:assemble_system",
                "cd2d.analysis:solve_direct", "cd2d.analysis:residual_norm",
                "cd2d.analysis:double_mesh_error"}
TRACED_CALLS = {
    "bisect": _SWEEP_CALLS | {"cd2d.mesh:bisect"},
    "regenerate": _SWEEP_CALLS,
    "solve": {"cd2d.cli:main", "cd2d.cli:validate",
              "cd2d.mesh:build_tensor_mesh", "cd2d.cli:assemble_system",
              "cd2d.analysis:solve_direct", "cd2d.analysis:residual_norm",
              "cd2d.cli:write_grid_dump"},
}
TRACED_ARGV = {
    "bisect": ["sweep", "--problem", "Example1", "--epsilon", "1e-1",
               "--epsilon", "1e-4", "--N", "16", "--N", "32"],
    "regenerate": ["sweep", "--problem", "Example2", "--double-mesh",
                   "regenerate", "--epsilon", "1e-1", "--N", "16", "--N", "32"],
    "solve": ["solve", "--problem", "Example2", "--variant", "raw",
              "--epsilon", "1e-3", "--N", "16"],
}


@pytest.mark.parametrize("run", sorted(TRACED_CALLS))
def test_benchmark_targets_are_called(run, tmp_path, monkeypatch, capsys):
    # the benchmark wraps its targets at these module attributes, so a
    # caller that stops resolving a function through them would empty that
    # layer; each run must still call every target it calls today
    called = set()

    def counted(target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(target)
            return fn(*args, **kwargs)
        return wrapper

    for _, _, targets, _ in _benchmark_spans(monkeypatch).TARGETS:
        for target in filter(_resolves, targets):
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr,
                                counted(target, getattr(module, attr)))
    cli = importlib.import_module("cd2d.cli")
    assert cli.main(TRACED_ARGV[run] + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert called == TRACED_CALLS[run]


@pytest.mark.parametrize("run", sorted(TRACED_CALLS))
def test_benchmark_trace_metrics_are_finite(run, tmp_path, monkeypatch,
                                            capsys):
    # a layer left without a target, or a count hook that fails on a
    # changed return type, reads null, and a traced benchmark line with a
    # null or non-finite metric is no result at all
    tracer = _benchmark_spans(monkeypatch).Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("cd2d.cli")
        assert cli.main(TRACED_ARGV[run] + ["--out-dir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.pass_metrics()
    assert tracer.unmeasured == set()
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in metrics.values()), metrics
    json.dumps(metrics, allow_nan=False)


def test_readme_library_examples_run(tmp_path, monkeypatch):
    # each python block of the README runs as written; the first writes a
    # grid dump, the second registers a problem and writes its solve output,
    # both to the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(problems, "_REGISTRY", dict(problems._REGISTRY))
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), {})
    assert "example2_alpha4" in cd2d.problem_names()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.dat"] + [
        f"u_example2_transformed_eps0.01_N16.{ext}" for ext in ("dat", "json")]
    assert (tmp_path / "u.dat").read_bytes().count(b"\n") == 65 * 65 + 64
