"""Compare the three multigrid preconditioners on one stiffness system.

Assembles a cantilever with random element densities (a proxy for a
mid-continuation design) and solves the same system with geometric, algebraic,
and hybrid preconditioning, plus an unpreconditioned reference. Iteration
counts show why preconditioner choice matters long before full benchmarks.
"""

import numpy as np

from topomg.bench import cantilever2d_problem
from topomg.krylov import SolveConfig
from topomg.material import SimpLaw
from topomg.mesh import assemble_stiffness
from topomg.optimization import SolverHarness

mesh, bc = cantilever2d_problem((96, 48))
rng = np.random.default_rng(0)
rho = rng.uniform(0.01, 1.0, mesh.element_count)
K = assemble_stiffness(mesh, bc, SimpLaw(penalty=3.0).modulus(rho))

print(f"system size {K.shape[0]} dofs, {K.nnz} nonzeros\n")
print(f"{'strategy':<10} {'levels':>6} {'setup s':>8} {'solve s':>8} {'iters':>6}")
for strategy in ("gmg", "amg", "hybrid", "none"):
    harness = SolverHarness(mesh=mesh, strategy=strategy, coarse_max_dofs=200,
                            n_geo=2, solve_cfg=SolveConfig(rtol=1e-7),
                            fixed_dofs=bc.fixed_dofs)
    x, rec, hierarchy = harness.solve(K, bc.load_vector)
    print(f"{strategy:<10} {hierarchy.n_levels:>6} {rec.setup_time:>8.3f} "
          f"{rec.solve_time:>8.3f} {rec.iterations:>6}")
    if strategy == "hybrid":
        chain = " -> ".join(
            f"{lv.A.shape[0]}({lv.provenance[:3]})" for lv in hierarchy.levels)
        print(f"{'':10} hybrid hierarchy: {chain}")
