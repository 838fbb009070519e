import types

import cd2d

EXPORTS = {
    # analysis
    "ConvergenceTable", "DoubleMeshMode", "SweepResult", "double_mesh_error",
    "manufactured_solution_study", "run_cell", "run_sweep", "write_table_csv",
    # assembly
    "LinearSystem", "MMatrixReport", "Variant", "assemble_system",
    "m_matrix_check",
    # errors
    "BadN", "CD2DError", "DimensionMismatch", "GeometryError", "MalformedSpec",
    "MeshMismatch", "NonFiniteSolution", "SingularMatrix", "SingularStructure",
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
    assert len(EXPORTS) == 34
