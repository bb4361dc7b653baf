"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Each test prints "[acceptance NN] <name>: PASS|FAIL" and appends the same line
to acceptance_report.txt next to this file. Heavy runs are shared through
module-scoped fixtures.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from topomg.bench import (GridSpec, cantilever2d_problem, column_problem,
                          generate_grid_structure, grid_problem)
from topomg.eigensolver import DavidsonConfig, generalized_davidson
from topomg.krylov import SolveConfig
from topomg.material import PenaltySchedule, SimpLaw, StressSimpLaw
from topomg.mesh import (assemble_stiffness, assemble_stress_stiffness,
                         build_filter, rigid_body_modes)
from topomg.multigrid import (AdaptiveHybridController, SmootherConfig,
                              adapt_after_solve, aggregate_nodes, build_gmg,
                              build_hybrid, build_sa_amg,
                              strength_of_connection, tentative_prolongation,
                              _merge_small_aggregates)
from topomg.optimization import (OptimizationProblem, SolverHarness,
                                 pnorm_aggregate, run_optimization,
                                 compliance_and_sensitivity,
                                 stability_objective_and_sensitivity)

REPORT_PATH = os.path.join(os.path.dirname(__file__), "acceptance_report.txt")


@pytest.fixture(scope="session", autouse=True)
def _fresh_report():
    with open(REPORT_PATH, "w"):
        pass
    yield


def check(num, name, ok, detail=""):
    line = "[acceptance %02d] %s: %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    with open(REPORT_PATH, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert ok, line


def tight_harness(mesh, bc):
    return SolverHarness(mesh=mesh, strategy="none",
                         solve_cfg=SolveConfig(rtol=1e-12, max_iterations=5000),
                         fixed_dofs=bc.fixed_dofs)


# ---------------------------------------------------------------------------
# 1. linear-solve oracle equivalence
# ---------------------------------------------------------------------------

def test_01_linear_solve_oracle_equivalence():
    t0 = time.perf_counter()
    mesh, bc = cantilever2d_problem((64, 32))
    rng = np.random.default_rng(42)
    rho = rng.uniform(0.01, 1.0, mesh.element_count)
    K = assemble_stiffness(mesh, bc, SimpLaw(penalty=3.0).modulus(rho))
    x_ref = np.linalg.solve(K.toarray(), bc.load_vector)
    worst = 0.0
    for strategy in ("gmg", "amg", "hybrid"):
        h = SolverHarness(mesh=mesh, strategy=strategy, coarse_max_dofs=200,
                          solve_cfg=SolveConfig(rtol=1e-7),
                          fixed_dofs=bc.fixed_dofs)
        x, rec, _ = h.solve(K, bc.load_vector)
        rel = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    check(1, "linear-solve oracle equivalence",
          worst <= 1e-6 and elapsed < 30.0,
          "max rel err %.2e, %.1f s" % (worst, elapsed))


# ---------------------------------------------------------------------------
# 2. eigensolve oracle equivalence
# ---------------------------------------------------------------------------

def test_02_eigensolve_oracle_equivalence():
    t0 = time.perf_counter()
    mesh, bc = column_problem((16, 64))
    rho = np.full(mesh.element_count, 0.4)
    law = SimpLaw(penalty=3.0)
    stress_law = StressSimpLaw(penalty=3.0)
    K = assemble_stiffness(mesh, bc, law.modulus(rho))
    u = spla.spsolve(K.tocsc(), bc.load_vector)
    Ks = assemble_stress_stiffness(mesh, bc, u, stress_law.modulus(rho))
    h = build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), 150)
    res = generalized_davidson(Ks, K, h.apply,
                               DavidsonConfig(n_modes=6, max_iterations=800))
    free = bc.free_mask
    A = Ks.toarray()[np.ix_(free, free)]
    B = K.toarray()[np.ix_(free, free)]
    oracle = np.sort(scipy.linalg.eigh(A, B, eigvals_only=True))[::-1][:6]
    rel = float(np.max(np.abs(res.eigenvalues - oracle) / np.abs(oracle)))
    elapsed = time.perf_counter() - t0
    check(2, "eigensolve oracle equivalence",
          res.converged_count >= 6 and rel <= 1e-6 and elapsed < 60.0,
          "max rel err %.2e, %d modes, %.1f s" % (rel, res.converged_count, elapsed))


# ---------------------------------------------------------------------------
# 3. gradient checks
# ---------------------------------------------------------------------------

def test_03_gradient_checks():
    # compliance on a 32-element cantilever
    mesh, bc = cantilever2d_problem((8, 4))
    filt = build_filter(mesh, 1.5)
    law = SimpLaw(penalty=3.0)
    rng = np.random.default_rng(1)
    alpha = rng.uniform(0.3, 0.8, mesh.element_count)
    _, dF, _ = compliance_and_sensitivity(mesh, bc, filt, law, alpha,
                                          tight_harness(mesh, bc))

    def compliance(a):
        rho = filt.apply(a)
        K = assemble_stiffness(mesh, bc, law.modulus(rho))
        u = spla.spsolve(K.tocsc(), bc.load_vector)
        return float(bc.load_vector @ u)

    h = 1e-6
    comp_ok = True
    comp_err = 0.0
    for e in rng.choice(mesh.element_count, size=8, replace=False):
        ap = alpha.copy(); ap[e] += h
        am = alpha.copy(); am[e] -= h
        fd = (compliance(ap) - compliance(am)) / (2 * h)
        err = abs(dF[e] - fd) / abs(fd)
        comp_err = max(comp_err, err)
        comp_ok &= err <= 1e-4

    # stability p-norm on a 64-element column
    mesh2, bc2 = column_problem((4, 16))
    filt2 = build_filter(mesh2, 1.5)
    stress_law = StressSimpLaw(penalty=3.0)
    alpha2 = rng.uniform(0.4, 0.9, mesh2.element_count)
    k = 4
    cfg = DavidsonConfig(n_modes=k, j_min=8, j_max=20, max_iterations=800,
                         rtol_residual=1e-9)
    _, dS, _ = stability_objective_and_sensitivity(
        mesh2, bc2, filt2, law, stress_law, alpha2, tight_harness(mesh2, bc2), cfg)

    def stability(a):
        rho = filt2.apply(a)
        K = assemble_stiffness(mesh2, bc2, law.modulus(rho))
        u = spla.spsolve(K.tocsc(), bc2.load_vector)
        Ks = assemble_stress_stiffness(mesh2, bc2, u, stress_law.modulus(rho))
        free = bc2.free_mask
        w = scipy.linalg.eigh(Ks.toarray()[np.ix_(free, free)],
                              K.toarray()[np.ix_(free, free)],
                              eigvals_only=True)
        return pnorm_aggregate(np.sort(w)[::-1][:k], 8)

    h2 = 2e-6
    stab_ok = True
    stab_err = 0.0
    for e in rng.choice(mesh2.element_count, size=6, replace=False):
        ap = alpha2.copy(); ap[e] += h2
        am = alpha2.copy(); am[e] -= h2
        fd = (stability(ap) - stability(am)) / (2 * h2)
        err = abs(dS[e] - fd) / max(abs(fd), 1e-10)
        stab_err = max(stab_err, err)
        stab_ok &= err <= 1e-3
    check(3, "gradient checks", comp_ok and stab_ok,
          "compliance max rel %.2e, stability max rel %.2e" % (comp_err, stab_err))


# ---------------------------------------------------------------------------
# 4. multigrid invariant suite
# ---------------------------------------------------------------------------

def test_04_multigrid_invariants():
    mesh, bc = cantilever2d_problem((32, 16))
    rng = np.random.default_rng(2)
    rho = rng.uniform(0.05, 1.0, mesh.element_count)
    K = assemble_stiffness(mesh, bc, rho)
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    hierarchies = {
        "gmg": build_gmg(mesh, K, 120),
        "amg": build_sa_amg(K, B, 120),
        "hybrid": build_hybrid(mesh, K, B, 2, 120),
    }
    # Galerkin consistency on every level of every hierarchy
    galerkin = 0.0
    for h in hierarchies.values():
        for i, lv in enumerate(h.levels[:-1]):
            diff = (h.levels[i + 1].A - (lv.P.T @ lv.A @ lv.P)).tocoo()
            num = np.sqrt(np.sum(diff.data ** 2)) if diff.nnz else 0.0
            den = np.sqrt(np.sum(h.levels[i + 1].A.data ** 2))
            galerkin = max(galerkin, num / den)
    # geometric partition of unity: component-constant vectors interpolate exactly
    pou = 0.0
    for lv in hierarchies["gmg"].levels[:-1]:
        ones = np.ones(lv.P.shape[1])
        pou = max(pou, float(np.max(np.abs(lv.P @ ones - 1.0))))
    # tentative prolongation reproduces the near-nullspace
    g = strength_of_connection(K, block_size=2)
    agg, _ = aggregate_nodes(g)
    agg = _merge_small_aggregates(agg, 2)
    T, Bc = tentative_prolongation(agg, B, block_size=2)
    nns = float(np.max(np.abs(T @ Bc - B)))
    # V-cycle linearity with the (stationary) Jacobi smoother
    h = hierarchies["amg"]
    b1 = rng.standard_normal(K.shape[0])
    b2 = rng.standard_normal(K.shape[0])
    lin_lhs = h.apply(2.0 * b1 - 3.0 * b2)
    lin_rhs = 2.0 * h.apply(b1) - 3.0 * h.apply(b2)
    lin = float(np.max(np.abs(lin_lhs - lin_rhs)) /
                max(np.max(np.abs(lin_lhs)), 1e-300))
    # base case: a single-level hierarchy is a direct solve
    h1 = build_gmg(mesh, K, coarse_max_dofs=10 * K.shape[0])
    x = h1.apply(bc.load_vector)
    base = float(np.linalg.norm(K @ x - bc.load_vector) /
                 np.linalg.norm(bc.load_vector))
    ok = (galerkin <= 1e-12 and pou <= 1e-12 and nns <= 1e-10 and
          lin <= 1e-10 and base <= 1e-12)
    check(4, "multigrid invariant suite", ok,
          "galerkin %.1e, unity %.1e, nns %.1e, linearity %.1e, base %.1e"
          % (galerkin, pou, nns, lin, base))


# ---------------------------------------------------------------------------
# 5. iteration robustness across coarse-level bounds (shared 256x128 runs)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def robustness_runs():
    mesh, bc = cantilever2d_problem((256, 128))
    filt = build_filter(mesh, 1.5)
    sched = PenaltySchedule(start=1.0, stop=4.0, increment=0.75,
                            steps_per_value=2)
    out = {}
    for strategy, bound in (("amg", 150), ("amg", 2500), ("amg", 10000),
                            ("gmg", 150), ("gmg", 10000)):
        h = SolverHarness(mesh=mesh, strategy=strategy, coarse_max_dofs=bound,
                          solve_cfg=SolveConfig(rtol=1e-7),
                          fixed_dofs=bc.fixed_dofs)
        prob = OptimizationProblem(mesh=mesh, bc=bc, filt=filt, schedule=sched,
                                   volume_fraction=0.4, harness=h)
        hist, _ = run_optimization(prob)
        out[(strategy, bound)] = max(r["solve_iters"] for r in hist)
    return out


def test_05_amg_iteration_robustness(robustness_runs):
    amg = [robustness_runs[("amg", b)] for b in (150, 2500, 10000)]
    spread = (max(amg) - min(amg)) / max(amg)
    absolute = max(amg) - min(amg)
    gmg_small = robustness_runs[("gmg", 150)]
    gmg_large = robustness_runs[("gmg", 10000)]
    gmg_excess = (gmg_small - gmg_large) / gmg_large
    ok = spread <= 0.35 and absolute <= 15 and gmg_excess >= 0.25
    check(5, "iteration robustness across coarse bounds", ok,
          "amg max iters %s spread %.0f%% (abs %d), gmg %d vs %d (+%.0f%%)"
          % (amg, 100 * spread, absolute, gmg_small, gmg_large, 100 * gmg_excess))


# ---------------------------------------------------------------------------
# 6 & 8. grid diagnostic corner structure and hybrid sandwich (shared solves)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid_corner_solves():
    t0 = time.perf_counter()
    mesh, bc = grid_problem(264)
    cfg = SolveConfig(rtol=1e-8, max_iterations=1000)

    def run(strategy, column_pitch, beam_pitch, n_geo=2):
        rho = generate_grid_structure(GridSpec(domain=264, feature_width=4,
                                               column_pitch=column_pitch,
                                               beam_pitch=beam_pitch))
        K = assemble_stiffness(mesh, bc, rho)
        h = SolverHarness(mesh=mesh, strategy=strategy, coarse_max_dofs=700,
                          n_geo=n_geo, solve_cfg=cfg, fixed_dofs=bc.fixed_dofs)
        _, rec, hier = h.solve(K, bc.load_vector)
        return rec, hier

    out = {
        # worst case: columns at max pitch, beams at min pitch
        ("gmg", "worst"): run("gmg", 128, 8),
        ("amg", "worst"): run("amg", 128, 8),
        ("gmg", "best"): run("gmg", 128, 128),
        ("amg", "best"): run("amg", 128, 128),
        # hybrid depth keeps geometric coarse elements below the feature width
        ("hybrid", "worst"): run("hybrid", 128, 8, n_geo=1),
    }
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_06_grid_diagnostic_corner_structure(grid_corner_solves):
    s = grid_corner_solves
    gmg_worst = s[("gmg", "worst")][0].iterations
    amg_worst = s[("amg", "worst")][0].iterations
    gmg_best = s[("gmg", "best")][0].iterations
    amg_best = s[("amg", "best")][0].iterations
    five_levels = s[("gmg", "worst")][1].n_levels == 5
    worst_ratio = gmg_worst / amg_worst
    best_ratio = gmg_best / amg_best
    ok = (five_levels and worst_ratio >= 2.5 and best_ratio <= 1.5 and
          s["elapsed"] < 600.0)
    # an unconverged GMG solve stopped at its cap, so its ratio is a lower bound
    bound = "" if s[("gmg", "worst")][0].converged else "≥"
    check(6, "grid diagnostic corner structure", ok,
          "worst %s%.1fx, best %.2fx, %d gmg levels, %.0f s"
          % (bound, worst_ratio, best_ratio, s[("gmg", "worst")][1].n_levels,
             s["elapsed"]))


def test_07_adaptive_controller_rules():
    ok = True
    # decrement exactly on >200, monotone nonincreasing, floored at 2
    ctrl = AdaptiveHybridController(n_geo_current=5)
    seq = [150, 200, 201, 180, 250, 400, 300, 201, 250, 100]
    trace = []
    for its in seq:
        adapt_after_solve(ctrl, its)
        trace.append(ctrl.n_geo_current)
    ok &= trace == [5, 5, 4, 4, 3, 2, 2, 2, 2, 2]
    ok &= all(a >= b for a, b in zip(trace, trace[1:]))
    ctrl2 = AdaptiveHybridController(n_geo_current=2)
    ok &= adapt_after_solve(ctrl2, 10_000) == "keep" and ctrl2.n_geo_current == 2
    ctrl3 = AdaptiveHybridController(n_geo_current=3)
    ok &= adapt_after_solve(ctrl3, 201) == "rebuild" and ctrl3.n_geo_current == 2
    check(7, "adaptive hybrid controller rules", ok)


def test_08_hybrid_sandwich(grid_corner_solves):
    s = grid_corner_solves
    hyb = s[("hybrid", "worst")][0]
    amg = s[("amg", "worst")][0]
    iter_ratio = hyb.iterations / amg.iterations
    setup_ratio = hyb.setup_time / amg.setup_time
    ok = iter_ratio <= 1.3 and setup_ratio <= 0.5
    check(8, "hybrid sandwich at worst-case grid point", ok,
          "iters %.2fx amg, setup %.2fx amg" % (iter_ratio, setup_ratio))


# ---------------------------------------------------------------------------
# 9. end-to-end regression
# ---------------------------------------------------------------------------

def _cantilever_run(schedule):
    mesh, bc = cantilever2d_problem((96, 48))
    filt = build_filter(mesh, 1.5)
    h = SolverHarness(mesh=mesh, strategy="amg", coarse_max_dofs=200,
                      solve_cfg=SolveConfig(rtol=1e-7), fixed_dofs=bc.fixed_dofs)
    prob = OptimizationProblem(mesh=mesh, bc=bc, filt=filt, schedule=schedule,
                               volume_fraction=0.4, harness=h)
    energy = []

    def capture(step, state, aux):
        u, K = aux["u"], aux["K"]
        energy.append((float(bc.load_vector @ u), float(u @ (K @ u)),
                       float(np.linalg.norm(bc.load_vector)),
                       float(np.linalg.norm(u))))

    hist, state = run_optimization(prob, callback=capture)
    return hist, state, energy


def test_09_end_to_end_regression():
    t0 = time.perf_counter()
    full = PenaltySchedule()  # 1 -> 4 continuation
    hist, state, energy = _cantilever_run(full)
    elapsed = time.perf_counter() - t0
    vol_ok = abs(state.volume_fraction - 0.4) <= 1e-3
    # f^T u = u^T K u within the linear-solver tolerance at every step
    energy_ok = all(abs(fu - uku) <= 10 * 1e-7 * bn * un
                    for fu, uku, bn, un in energy)
    # determinism: rerunning the leading segment reproduces it exactly
    prefix = PenaltySchedule(stop=1.25)
    hist2, _, _ = _cantilever_run(prefix)
    det_ok = all(
        a["objective"] == b["objective"] and a["volume"] == b["volume"]
        and a["solve_iters"] == b["solve_iters"]
        for a, b in zip(hist[:len(hist2)], hist2))
    ok = (elapsed < 900.0 and vol_ok and energy_ok and det_ok
          and len(hist) == 260)
    check(9, "end-to-end regression", ok,
          "%.0f s, final volume %.4f, %d steps, deterministic=%s"
          % (elapsed, state.volume_fraction, len(hist), det_ok))


# ---------------------------------------------------------------------------
# 10. smoother study
# ---------------------------------------------------------------------------

def test_10_smoother_study():
    mesh, bc = cantilever2d_problem((96, 48))
    filt = build_filter(mesh, 1.5)
    sched = PenaltySchedule(start=1.0, stop=4.0, increment=1.0,
                            steps_per_value=4)
    iters = {}
    for kind in ("weighted_jacobi", "sor_chebyshev", "sor_gmres"):
        h = SolverHarness(mesh=mesh, strategy="gmg", coarse_max_dofs=200,
                          smoother=SmootherConfig(kind=kind),
                          solve_cfg=SolveConfig(rtol=1e-7),
                          fixed_dofs=bc.fixed_dofs)
        prob = OptimizationProblem(mesh=mesh, bc=bc, filt=filt, schedule=sched,
                                   volume_fraction=0.4, harness=h)
        hist, _ = run_optimization(prob)
        iters[kind] = [r["solve_iters"] for r in hist]
    wins = sum(g <= j for g, j in
               zip(iters["sor_gmres"], iters["weighted_jacobi"]))
    frac = wins / len(iters["sor_gmres"])
    completed = all(len(v) == 16 for v in iters.values())
    # the per-step ordering is an empirical expectation: tracked, non-blocking
    check(10, "smoother study", completed,
          "all smoothers completed; tracked metric: gmres<=jacobi on "
          "%d/%d steps (%.0f%%, expectation >=70%%, non-blocking)"
          % (wins, len(iters["sor_gmres"]), 100 * frac))
