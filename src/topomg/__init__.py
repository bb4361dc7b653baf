"""Multigrid-preconditioned solvers and benchmarks for topology optimization.

Compares geometric, smoothed-aggregation algebraic, and hybrid multigrid
preconditioners on the linear and generalized-eigenvalue systems arising in
density-based compliance and buckling-stability optimization.
"""

from .bench import (BenchConfig, GridSpec, cantilever2d_problem,
                    cantilever3d_problem, column_problem, compare_report,
                    generate_grid_structure, grid_problem, run_benchmark)
from .eigensolver import DavidsonConfig, EigenResult, generalized_davidson
from .krylov import SolveConfig, SolveRecord, fgmres_solve, gmres_solve
from .material import PenaltySchedule, SimpLaw, StressSimpLaw
from .mesh import (BoundaryConditions, FilterOperator, StructuredMesh,
                   assemble_stiffness, assemble_stress_stiffness, build_filter,
                   build_mesh, element_stiffness, rigid_body_modes)
from .multigrid import (MgHierarchy, SmootherConfig, build_gmg, build_hybrid,
                        build_sa_amg)
from .optimization import (DesignState, MmaState, OptimizationProblem, SolveFailed,
                           SolverHarness, compliance_and_sensitivity, mma_update,
                           run_optimization, stability_objective_and_sensitivity)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "GridSpec", "cantilever2d_problem", "cantilever3d_problem",
    "column_problem", "compare_report", "generate_grid_structure",
    "grid_problem", "run_benchmark", "DavidsonConfig", "EigenResult", "generalized_davidson",
    "SolveConfig", "SolveRecord", "fgmres_solve", "gmres_solve",
    "PenaltySchedule", "SimpLaw", "StressSimpLaw", "BoundaryConditions",
    "FilterOperator", "StructuredMesh", "assemble_stiffness",
    "assemble_stress_stiffness", "build_filter", "build_mesh",
    "element_stiffness", "rigid_body_modes", "MgHierarchy", "SmootherConfig",
    "build_gmg", "build_hybrid", "build_sa_amg", "DesignState", "MmaState",
    "OptimizationProblem", "SolveFailed", "SolverHarness", "compliance_and_sensitivity",
    "mma_update", "run_optimization", "stability_objective_and_sensitivity",
]
