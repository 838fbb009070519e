"""Fitted-mesh upwind solver for a 2-D singularly perturbed
convection-diffusion problem whose source jumps across two interior lines.

Typical library use::

    from cd2d import builtin_problem, build_tensor_mesh, assemble_system
    from cd2d import solve_direct, Variant

    spec = builtin_problem("Example1").with_epsilon(1e-4)
    tm = build_tensor_mesh(spec, 64)
    system = assemble_system(spec, tm, Variant.TRANSFORMED)
    u = solve_direct(system)
"""
from .analysis import (ConvergenceTable, DoubleMeshMode, SweepResult,
                       double_mesh_error, manufactured_solution_study,
                       run_cell, run_sweep, write_table_csv)
from .assembly import (LinearSystem, MMatrixReport, Variant, assemble_system,
                       m_matrix_check)
from .errors import (CD2DError, GeometryError, MalformedSpec, MeshMismatch,
                     SingularMatrix)
from .mesh import TensorMesh, bisect, build_tensor_mesh
from .problems import (ProblemSpec, builtin_problem, problem_names,
                       register_problem, validate)
from .solve import GridFunction, residual_norm, solve_direct, write_grid_dump

__version__ = "0.1.0"
