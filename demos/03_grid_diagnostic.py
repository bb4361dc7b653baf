"""Why geometric multigrid degrades on fine-featured lattices.

Generates beam/column lattice structures on a 132-element square domain and
solves each with GMG and AMG preconditioning. When the strut pitch shrinks
toward the strut width, geometric coarsening merges distinct members and GMG
iteration counts blow up while AMG stays flat.
"""

from topomg.bench import BenchConfig, run_grid_point

pitches = (8, 16, 32, 64)


def config(strategy):
    return BenchConfig.from_dict({
        "problem": "grid_diagnostic",
        "grid": {"domain": 132, "feature_width": 4, "pitches": list(pitches)},
        "preconditioner": {"strategy": strategy, "coarse_max_dofs": 400},
        "solver": {"rtol": 1e-8},
    })


print(f"{'pitch_x':>7} {'pitch_y':>7} {'gmg':>5} {'amg':>5} {'ratio':>6}")
for px in pitches:
    for py in pitches:
        gmg = run_grid_point(config("gmg"), px, py)
        amg = run_grid_point(config("amg"), px, py)
        ratio = gmg["iterations"] / amg["iterations"]
        print(f"{px:>7} {py:>7} {gmg['iterations']:>5} {amg['iterations']:>5} "
              f"{ratio:>6.2f}")
