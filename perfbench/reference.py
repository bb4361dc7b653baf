"""Reference figures for the README: the grid264 corners for all three strategies.

    python3 perfbench/reference.py

Solves the lattice diagnostic (domain 264, feature width 4, rtol 1e-8, at most
1000 GMRES iterations, coarse bound 200 dofs, hybrid n_geo=2) at pitches
(8, 8) and (128, 8) with GMG, AMG and the hybrid hierarchy, single-threaded,
and prints iterations, convergence and set-up/solve seconds. GMG at (128, 8)
alone takes over a minute: it stops at the iteration cap. The benchmark's
grid264 workload leaves that point out for this reason. Results also go to
``perfbench/out/reference.json``.
"""

import json
import os
import sys

import run  # pins BLAS and OpenMP to one thread before numpy is imported

POINTS = ((8, 8), (128, 8))
STRATEGIES = ("gmg", "amg", "hybrid")


def main():
    run.import_program()
    from topomg import bench, mesh, optimization
    from topomg.krylov import SolveConfig

    m, bc = bench.grid_problem(264)
    rows = []
    print("%-7s %-9s %6s %9s %8s %8s" % ("pitch", "strategy", "iters", "converged",
                                         "setup_s", "solve_s"))
    for px, py in POINTS:
        K = mesh.assemble_stiffness(m, bc, bench.generate_grid_structure(
            bench.GridSpec(domain=264, feature_width=4, column_pitch=px, beam_pitch=py)))
        for strategy in STRATEGIES:
            harness = optimization.SolverHarness(
                mesh=m, strategy=strategy, n_geo=2, coarse_max_dofs=200,
                solve_cfg=SolveConfig(rtol=1e-8, max_iterations=1000),
                fixed_dofs=bc.fixed_dofs)
            _, rec, _ = harness.solve(K, bc.load_vector)
            rows.append({"pitch": [px, py], "strategy": strategy,
                         "iterations": rec.iterations, "converged": rec.converged,
                         "setup_s": rec.setup_time, "solve_s": rec.solve_time})
            print("%-7s %-9s %6d %9s %8.2f %8.2f" % (
                "%d,%d" % (px, py), strategy, rec.iterations, rec.converged,
                rec.setup_time, rec.solve_time), flush=True)
    os.makedirs(os.path.join(run.HERE, "out"), exist_ok=True)
    with open(os.path.join(run.HERE, "out", "reference.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
