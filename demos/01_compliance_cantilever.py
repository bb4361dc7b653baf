"""Minimum-compliance design of a short cantilever.

Runs a desk-sized SIMP continuation (penalty 1 -> 4) on a 60x30 mesh with an
algebraic-multigrid-preconditioned GMRES solver, then writes the final density
field to VTK for inspection in ParaView.
"""

from topomg.bench import cantilever2d_problem, write_density_outputs
from topomg.krylov import SolveConfig
from topomg.material import PenaltySchedule
from topomg.mesh import build_filter
from topomg.optimization import (OptimizationProblem, SolverHarness,
                                 run_optimization)

mesh, bc = cantilever2d_problem((60, 30))
filt = build_filter(mesh, 1.5)
harness = SolverHarness(mesh=mesh, strategy="amg", coarse_max_dofs=200,
                        solve_cfg=SolveConfig(rtol=1e-7),
                        fixed_dofs=bc.fixed_dofs)
schedule = PenaltySchedule(start=1.0, stop=4.0, increment=0.5,
                           steps_per_value=8)
problem = OptimizationProblem(mesh=mesh, bc=bc, filt=filt, schedule=schedule,
                              volume_fraction=0.4, harness=harness)

history, state = run_optimization(problem)

print(f"{'step':>4} {'penalty':>7} {'iters':>5} {'objective':>12} {'volume':>7}")
for row in history[:: max(1, len(history) // 14)]:
    print(f"{row['step']:>4} {row['penalty']:>7.2f} {row['solve_iters']:>5} "
          f"{row['objective']:>12.5e} {row['volume']:>7.4f}")
print(f"\nfinal compliance {state.objective:.5e}, "
      f"volume fraction {state.volume_fraction:.4f}")

import os

os.makedirs("demo_out", exist_ok=True)
write_density_outputs("demo_out", mesh.dims, state.rho)
print("density written to demo_out/density.vtk")
