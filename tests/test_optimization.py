"""Objectives, sensitivities, MMA, and the continuation loop."""

import copy
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

import topomg.multigrid as multigrid
import topomg.optimization as optimization
from topomg.bench import cantilever2d_problem, cantilever3d_problem, column_problem
from topomg.eigensolver import DavidsonConfig, EigenResult
from topomg.krylov import SolveConfig, SolveRecord
from topomg.material import PenaltySchedule, SimpLaw, StressSimpLaw
from topomg.mesh import (BoundaryConditions, assemble_stiffness,
                         assemble_stress_stiffness, build_filter, build_mesh,
                         element_stiffness, geometric_stiffness_tensor)
from topomg.optimization import (MMA_MOVE_LIMIT, MmaState, OptimizationProblem,
                                 SolveFailed, SolverHarness, adjoint_rhs,
                                 compliance_and_sensitivity,
                                 eigenvalue_sensitivity, mma_update,
                                 pnorm_aggregate, run_optimization,
                                 stability_objective_and_sensitivity)


def cantilever(dims):
    mesh = build_mesh(dims, [1.0, 1.0])
    nx, ny = dims
    left = [mesh.node_index(0, j) for j in range(ny + 1)]
    fixed = np.array([2 * n + c for n in left for c in (0, 1)])
    f = np.zeros(mesh.total_dofs)
    f[2 * mesh.node_index(nx, ny // 2) + 1] = -1.0
    return mesh, BoundaryConditions(fixed, f)


def column(dims):
    mesh = build_mesh(dims, [1.0, 1.0])
    nx, ny = dims
    bottom = [mesh.node_index(i, 0) for i in range(nx + 1)]
    fixed = np.array([2 * n + c for n in bottom for c in (0, 1)])
    f = np.zeros(mesh.total_dofs)
    w = np.ones(nx + 1)
    w[0] = w[-1] = 0.5
    w /= w.sum()
    for i in range(nx + 1):
        f[2 * mesh.node_index(i, ny) + 1] = -w[i]
    return mesh, BoundaryConditions(fixed, f)


def tight_harness(mesh, bc):
    return SolverHarness(mesh=mesh, strategy="none",
                         solve_cfg=SolveConfig(rtol=1e-12, max_iterations=5000),
                         fixed_dofs=bc.fixed_dofs)


# ---------------------------------------------------------------------------
# compliance
# ---------------------------------------------------------------------------

def test_compliance_sensitivities_nonpositive():
    mesh, bc = cantilever((8, 4))
    filt = build_filter(mesh, 1.5)
    law = SimpLaw(penalty=3.0)
    rng = np.random.default_rng(0)
    alpha = rng.uniform(0.2, 0.9, mesh.element_count)
    F, dF, aux = compliance_and_sensitivity(mesh, bc, filt, law, alpha,
                                            tight_harness(mesh, bc))
    assert F > 0
    assert np.all(dF <= 1e-14)


def test_compliance_symmetric_design_symmetric_sensitivity():
    mesh, bc = cantilever((8, 4))
    filt = build_filter(mesh, 1.5)
    law = SimpLaw(penalty=3.0)
    alpha = np.full(mesh.element_count, 0.5)
    F, dF, aux = compliance_and_sensitivity(mesh, bc, filt, law, alpha,
                                            tight_harness(mesh, bc))
    field = dF.reshape(8, 4, order="F")
    mirrored = field[:, ::-1]
    assert np.max(np.abs(field - mirrored)) <= 1e-8 * np.max(np.abs(field))


def test_compliance_energy_identity():
    mesh, bc = cantilever((8, 4))
    filt = build_filter(mesh, 1.5)
    law = SimpLaw(penalty=3.0)
    alpha = np.full(mesh.element_count, 0.4)
    F, dF, aux = compliance_and_sensitivity(mesh, bc, filt, law, alpha,
                                            tight_harness(mesh, bc))
    u = aux["u"]
    assert F == pytest.approx(float(u @ (aux["K"] @ u)), rel=1e-9)


def test_compliance_sensitivity_matches_fd():
    mesh, bc = cantilever((8, 4))
    filt = build_filter(mesh, 1.5)
    law = SimpLaw(penalty=3.0)
    rng = np.random.default_rng(1)
    alpha = rng.uniform(0.3, 0.8, mesh.element_count)
    _, dF, _ = compliance_and_sensitivity(mesh, bc, filt, law, alpha,
                                          tight_harness(mesh, bc))

    def obj(a):
        rho = filt.apply(a)
        K = assemble_stiffness(mesh, bc, law.modulus(rho))
        u = spla.spsolve(K.tocsc(), bc.load_vector)
        return float(bc.load_vector @ u)

    h = 1e-6
    for e in rng.choice(mesh.element_count, size=8, replace=False):
        ap = alpha.copy()
        ap[e] += h
        am = alpha.copy()
        am[e] -= h
        fd = (obj(ap) - obj(am)) / (2 * h)
        assert dF[e] == pytest.approx(fd, rel=1e-4)


def test_compliance_nonconvergence_raises():
    mesh, bc = cantilever((8, 4))
    filt = build_filter(mesh, 1.5)
    harness = SolverHarness(mesh=mesh, strategy="none",
                            solve_cfg=SolveConfig(rtol=1e-12, max_iterations=2),
                            fixed_dofs=bc.fixed_dofs)
    with pytest.raises(RuntimeError):
        compliance_and_sensitivity(mesh, bc, filt, SimpLaw(),
                                   np.full(mesh.element_count, 0.5), harness)


def test_cantilever3d_hybrid_compliance_step_matches_direct_solve():
    mesh, bc = cantilever3d_problem((8, 4, 4))
    filt = build_filter(mesh, 1.5)
    rtol = 1e-8
    harness = SolverHarness(mesh=mesh, strategy="hybrid", n_geo=1, coarse_max_dofs=50,
                            solve_cfg=SolveConfig(rtol=rtol, max_iterations=200),
                            fixed_dofs=bc.fixed_dofs)
    alpha = np.random.default_rng(0).uniform(0.05, 1.0, mesh.element_count)
    F, _, aux = compliance_and_sensitivity(mesh, bc, filt, SimpLaw(penalty=3.0),
                                           alpha, harness)
    kinds = [lv["provenance"] for lv in aux["hierarchy"].summary()]
    assert kinds == ["geometric", "algebraic", "algebraic"]
    K, u, f = aux["K"], aux["u"], bc.load_vector
    assert np.linalg.norm(f - K @ u) <= rtol * np.linalg.norm(f)
    assert F == pytest.approx(float(f @ spla.spsolve(K.tocsc(), f)), rel=1e-6)


@pytest.mark.parametrize("max_iterations, eig_iterations, exact_start, failing", [
    (3, 1000, False, "displacement solve"),
    (1000, 5, False, "eigensolve"),
    (3, 1000, True, "adjoint solve 0"),
])
def test_stability_nonconvergence_raises(max_iterations, eig_iterations, exact_start,
                                         failing):
    mesh, bc = column_problem((8, 32))
    filt = build_filter(mesh, 1.5)
    law, stress_law = SimpLaw(penalty=1.0), StressSimpLaw(penalty=1.0)
    alpha = np.full(mesh.element_count, 0.4)
    harness = SolverHarness(mesh=mesh, strategy="amg", coarse_max_dofs=60,
                            solve_cfg=SolveConfig(max_iterations=max_iterations),
                            fixed_dofs=bc.fixed_dofs)
    # an exact start converges the displacement solve in 0 iterations, so only
    # the adjoint solves can run out of iterations
    K = assemble_stiffness(mesh, bc, law.modulus(filt.apply(alpha)))
    u0 = spla.spsolve(K.tocsc(), bc.load_vector) if exact_start else None
    with pytest.raises(SolveFailed, match=failing) as err:
        stability_objective_and_sensitivity(
            mesh, bc, filt, law, stress_law, alpha, harness,
            DavidsonConfig(max_iterations=eig_iterations), u0=u0)
    record = err.value.record
    if failing == "eigensolve":
        assert isinstance(record, EigenResult) and record.converged_count < 6
    else:
        assert isinstance(record, SolveRecord) and not record.converged


@pytest.mark.parametrize("seed", range(12))
def test_stability_continuation_eigenpairs_correct_or_raise(seed):
    """Every step of a seeded column continuation returns the pencil's leading
    eigenpairs, B-orthonormal, or raises SolveFailed; never wrong pairs
    counted as converged. On seeds 2, 6, 9 and 10 the locked and active
    vectors at the final extraction are nearly dependent in the K inner
    product; a Rayleigh-Ritz over them as they stand is up to 60 % off."""
    mesh, bc = column_problem((8, 32))
    harness = SolverHarness(mesh=mesh, strategy="amg", coarse_max_dofs=200,
                            solve_cfg=SolveConfig(rtol=1e-8), fixed_dofs=bc.fixed_dofs,
                            seed=seed)
    problem = OptimizationProblem(
        mesh=mesh, bc=bc, filt=build_filter(mesh, 1.5),
        schedule=PenaltySchedule(start=1.0, stop=2.0, increment=0.5, steps_per_value=1),
        volume_fraction=0.4, harness=harness, mode="stability",
        eig_cfg=DavidsonConfig(n_modes=6, seed=seed))
    free = bc.free_mask
    steps = []

    def check(step, state, aux):
        K, Ks, eig = aux["K"], aux["Ks"], aux["eig"]
        lam, phi = eig.eigenvalues, eig.eigenvectors
        exact = scipy.linalg.eigh(Ks.toarray()[np.ix_(free, free)],
                                  K.toarray()[np.ix_(free, free)], eigvals_only=True)
        assert np.allclose(lam, exact[::-1][:6], rtol=1e-6, atol=0.0)
        assert np.abs(phi.T @ (K @ phi) - np.eye(6)).max() <= 1e-8
        KsPhi = Ks @ phi
        res = np.linalg.norm(KsPhi - (K @ phi) * lam, axis=0) / np.linalg.norm(KsPhi, axis=0)
        assert res.max() <= 1e-3
        assert eig.converged_count == 6
        steps.append(step)

    try:
        run_optimization(problem, check)
    except SolveFailed as exc:
        assert isinstance(exc.record, (SolveRecord, EigenResult))
    else:
        assert steps == [0, 1, 2]


# ---------------------------------------------------------------------------
# adjoint rhs
# ---------------------------------------------------------------------------

def test_adjoint_rhs_zero_mode():
    mesh, bc = cantilever((2, 2))
    rng = np.random.default_rng(2)
    u = rng.standard_normal(mesh.total_dofs)
    rhs = adjoint_rhs(mesh, np.zeros(mesh.total_dofs),
                      np.ones(mesh.element_count))
    assert np.all(rhs == 0.0)


def test_adjoint_rhs_quadratic_in_mode():
    mesh, bc = cantilever((3, 2))
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.total_dofs)
    phi = rng.standard_normal(mesh.total_dofs)
    mod = rng.uniform(0.2, 1.0, mesh.element_count)
    r1 = adjoint_rhs(mesh, phi, mod)
    r2 = adjoint_rhs(mesh, 2.0 * phi, mod)
    assert np.max(np.abs(r2 - 4.0 * r1)) <= 1e-12 * np.max(np.abs(r1))


def test_adjoint_rhs_matches_fd_on_single_element():
    mesh = build_mesh([1, 1], [1.0, 1.0])
    rng = np.random.default_rng(4)
    u = rng.standard_normal(8)
    phi = rng.standard_normal(8)
    mod = np.array([0.7])
    got = adjoint_rhs(mesh, phi, mod)
    h = 1e-6
    expected = np.zeros(8)
    for j in range(8):
        up = u.copy()
        up[j] += h
        um = u.copy()
        um[j] -= h
        Kp = assemble_stress_stiffness(mesh, None, up, mod).toarray()
        Km = assemble_stress_stiffness(mesh, None, um, mod).toarray()
        expected[j] = phi @ ((Kp - Km) / (2 * h)) @ phi
    assert np.max(np.abs(got - expected)) <= 1e-6 * np.max(np.abs(expected))


def test_mode_contractions_match_einsum_reference():
    mesh = build_mesh([5, 3], [1.0, 1.0])
    rng = np.random.default_rng(11)
    phi, u, v = rng.standard_normal((3, mesh.total_dofs))
    mod = rng.uniform(0.2, 1.0, mesh.element_count)
    rho = rng.uniform(0.2, 1.0, mesh.element_count)
    law, stress_law = SimpLaw(penalty=3.0), StressSimpLaw(penalty=3.0)
    lam = 0.7
    G = geometric_stiffness_tensor(mesh)
    ke = element_stiffness(mesh)
    edof = mesh.element_dofs()
    phie, ue, ve = phi[edof], u[edof], v[edof]

    ge = np.einsum("kij,ei,ej->ek", G, phie, phie) * mod[:, None]
    rhs_ref = np.zeros(mesh.total_dofs)
    np.add.at(rhs_ref, edof.ravel(), ge.ravel())
    rhs = adjoint_rhs(mesh, phi, mod)
    assert np.max(np.abs(rhs - rhs_ref)) <= 1e-13 * np.max(np.abs(rhs_ref))

    dE = law.modulus_derivative(rho)
    dlam_ref = (stress_law.modulus_derivative(rho)
                * np.einsum("ek,kij,ei,ej->e", ue, G, phie, phie)
                - lam * dE * np.einsum("ei,ij,ej->e", phie, ke, phie)
                - dE * np.einsum("ei,ij,ej->e", ve, ke, ue))
    dlam = eigenvalue_sensitivity(mesh, law, stress_law, rho, u, lam, phi, v)
    assert np.max(np.abs(dlam - dlam_ref)) <= 1e-13 * np.max(np.abs(dlam_ref))


# ---------------------------------------------------------------------------
# stability objective
# ---------------------------------------------------------------------------

def test_pnorm_aggregate_constant_modes():
    lams = np.full(6, 3.5)
    assert pnorm_aggregate(lams, 8) == pytest.approx(6 ** 0.125 * 3.5)


def test_pnorm_aggregate_dominance():
    lams = np.array([10.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    F = pnorm_aggregate(lams, 8)
    assert abs(F - 10.0) / 10.0 < 0.01


def test_pnorm_sandwich():
    rng = np.random.default_rng(5)
    lams = rng.uniform(0.5, 4.0, 6)
    F = pnorm_aggregate(lams, 8)
    assert F >= lams.max()
    assert F <= 6 ** 0.125 * lams.max()


def dense_stability_objective(mesh, bc, filt, law, stress_law, alpha, k=4, p=8):
    rho = filt.apply(alpha)
    K = assemble_stiffness(mesh, bc, law.modulus(rho))
    u = spla.spsolve(K.tocsc(), bc.load_vector)
    Ks = assemble_stress_stiffness(mesh, bc, u, stress_law.modulus(rho))
    free = bc.free_mask
    A = Ks.toarray()[np.ix_(free, free)]
    B = K.toarray()[np.ix_(free, free)]
    w = scipy.linalg.eigh(A, B, eigvals_only=True)
    lams = np.sort(w)[::-1][:k]
    return pnorm_aggregate(lams, p)


def test_stability_sensitivity_matches_fd():
    mesh, bc = column((4, 16))
    filt = build_filter(mesh, 1.5)
    law = SimpLaw(penalty=3.0)
    stress_law = StressSimpLaw(penalty=3.0)
    rng = np.random.default_rng(6)
    alpha = rng.uniform(0.4, 0.9, mesh.element_count)
    k = 4
    harness = tight_harness(mesh, bc)
    cfg = DavidsonConfig(n_modes=k, j_min=8, j_max=20, max_iterations=800,
                         rtol_residual=1e-9)
    F, dF, aux = stability_objective_and_sensitivity(
        mesh, bc, filt, law, stress_law, alpha, harness, cfg)
    F_dense = dense_stability_objective(mesh, bc, filt, law, stress_law, alpha, k)
    assert F == pytest.approx(F_dense, rel=1e-6)
    h = 2e-6
    for e in rng.choice(mesh.element_count, size=6, replace=False):
        ap = alpha.copy()
        ap[e] += h
        am = alpha.copy()
        am[e] -= h
        fd = (dense_stability_objective(mesh, bc, filt, law, stress_law, ap, k)
              - dense_stability_objective(mesh, bc, filt, law, stress_law, am, k)
              ) / (2 * h)
        assert dF[e] == pytest.approx(fd, rel=1e-3, abs=1e-10)


def test_eigenvalue_sensitivity_single_mode_fd():
    # one K-normalized mode, sensitivity checked against dense FD of lambda
    mesh, bc = column((4, 12))
    filt = build_filter(mesh, 1.5)
    law = SimpLaw(penalty=3.0)
    stress_law = StressSimpLaw(penalty=3.0)
    alpha = np.full(mesh.element_count, 0.6)
    rho = filt.apply(alpha)

    def lam_max(rho_vec):
        K = assemble_stiffness(mesh, bc, law.modulus(rho_vec))
        u = spla.spsolve(K.tocsc(), bc.load_vector)
        Ks = assemble_stress_stiffness(mesh, bc, u, stress_law.modulus(rho_vec))
        free = bc.free_mask
        w = scipy.linalg.eigh(Ks.toarray()[np.ix_(free, free)],
                              K.toarray()[np.ix_(free, free)], eigvals_only=True)
        return np.max(w)

    K = assemble_stiffness(mesh, bc, law.modulus(rho))
    u = spla.spsolve(K.tocsc(), bc.load_vector)
    Ks = assemble_stress_stiffness(mesh, bc, u, stress_law.modulus(rho))
    free = bc.free_mask
    w, V = scipy.linalg.eigh(Ks.toarray()[np.ix_(free, free)],
                             K.toarray()[np.ix_(free, free)])
    lam = w[-1]
    phi = np.zeros(mesh.total_dofs)
    phi[free] = V[:, -1]
    rhs = adjoint_rhs(mesh, phi, stress_law.modulus(rho),
                      fixed_dofs=bc.fixed_dofs)
    v = spla.spsolve(K.tocsc(), rhs)
    dlam = eigenvalue_sensitivity(mesh, law, stress_law, rho, u, lam, phi, v)
    h = 2e-6
    rng = np.random.default_rng(7)
    for e in rng.choice(mesh.element_count, size=5, replace=False):
        rp = rho.copy()
        rp[e] += h
        rm = rho.copy()
        rm[e] -= h
        fd = (lam_max(rp) - lam_max(rm)) / (2 * h)
        assert dlam[e] == pytest.approx(fd, rel=1e-3, abs=1e-10)


# ---------------------------------------------------------------------------
# MMA
# ---------------------------------------------------------------------------

def test_mma_zero_sensitivity_inactive_constraint():
    x = np.array([0.4, 0.6, 0.5])
    state = MmaState()
    x_new = mma_update(x, np.zeros(3), -0.1, np.full(3, 1.0 / 3.0), state)
    assert np.max(np.abs(x_new - x)) < 1e-6


def test_mma_active_constraint_hits_volume():
    n = 20
    x = np.full(n, 0.5)
    state = MmaState()
    dfdx = -np.ones(n)  # push everything up
    dgdx = np.full(n, 1.0 / n)
    g = 0.0  # constraint active at the current design
    x_new = mma_update(x, dfdx, g, dgdx, state)
    g_new = g + float(dgdx @ (x_new - x))
    assert abs(g_new) <= 1e-6


def test_mma_respects_bounds_and_move_limit():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, 30)
    state = MmaState()
    x_new = mma_update(x, rng.standard_normal(30), -0.05,
                       np.full(30, 1 / 30), state)
    assert np.all(x_new >= 0.0) and np.all(x_new <= 1.0)
    assert np.max(np.abs(x_new - x)) <= MMA_MOVE_LIMIT + 1e-12


def test_mma_two_variable_matches_grid_scan():
    x = np.array([0.5, 0.5])
    dfdx = np.array([-1.0, -0.3])
    dgdx = np.array([0.5, 0.5])
    g = 0.0
    state = MmaState()
    x_new = mma_update(x, dfdx, g, dgdx, state)

    # brute-force scan of the same MMA subproblem
    low = x - 0.5
    upp = x + 0.5
    move = 0.2
    alfa = np.maximum.reduce([np.zeros(2), low + 0.1 * (x - low), x - move])
    beta = np.minimum.reduce([np.ones(2), upp - 0.1 * (upp - x), x + move])
    raa0 = 1e-5
    df_pos = np.maximum(dfdx, 0)
    df_neg = np.maximum(-dfdx, 0)
    p0 = (upp - x) ** 2 * (1.001 * df_pos + 0.001 * df_neg + raa0)
    q0 = (x - low) ** 2 * (0.001 * df_pos + 1.001 * df_neg + raa0)
    p1 = (upp - x) ** 2 * np.maximum(dgdx, 0)
    q1 = (x - low) ** 2 * np.maximum(-dgdx, 0)
    r1 = g - np.sum(p1 / (upp - x) + q1 / (x - low))
    def fval(a, b):
        xs = np.stack([a, b])
        return np.sum(p0[:, None] / (upp[:, None] - xs)
                      + q0[:, None] / (xs - low[:, None]), axis=0)

    # scan a on a fine grid; for each a take b on the active-constraint curve
    # (solved exactly; q1 = 0 here since dgdx > 0) and the unconstrained bound
    a = np.linspace(alfa[0], beta[0], 10 ** 6)
    c = -r1 - p1[0] / (upp[0] - a)
    with np.errstate(divide="ignore"):
        b_active = np.where(c > 0, upp[1] - p1[1] / np.maximum(c, 1e-300), beta[1])
    b_active = np.clip(b_active, alfa[1], beta[1])
    g_active = r1 + p1[0] / (upp[0] - a) + p1[1] / (upp[1] - b_active)
    f_active = np.where(g_active <= 1e-9, fval(a, b_active), np.inf)
    i = int(np.argmin(f_active))
    best = np.array([a[i], b_active[i]])
    assert np.max(np.abs(x_new - best)) < 1e-3


def test_mma_bisection_stops_early_with_the_full_bisection_result(monkeypatch):
    def full_bisection(constraint, mu_lo, mu_hi):
        for _ in range(100):
            mu = 0.5 * (mu_lo + mu_hi)
            if constraint(mu) > 0.0:
                mu_lo = mu
            else:
                mu_hi = mu
        return mu_hi

    steps = []

    def counted(constraint, mu_lo, mu_hi, _bisect=optimization._dual_bisection):
        calls = []

        def logged(mu):
            calls.append(mu)
            return constraint(mu)

        mu = _bisect(logged, mu_lo, mu_hi)
        steps.append(len(calls))
        return mu

    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(2, 300))
        x = rng.uniform(0.1, 0.9, n)
        prev1 = np.clip(x + rng.uniform(-0.1, 0.1, n), 0.0, 1.0)
        state = MmaState(low=prev1 - rng.uniform(0.05, 0.5, n),
                         upp=prev1 + rng.uniform(0.05, 0.5, n), x_prev1=prev1,
                         x_prev2=np.clip(prev1 + rng.uniform(-0.1, 0.1, n), 0.0, 1.0))
        args = (x, -rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3, 3),
                float(rng.uniform(-0.02, 0.05)), np.full(n, 1.0 / n))
        monkeypatch.setattr(optimization, "_dual_bisection", counted)
        early = mma_update(*args, copy.deepcopy(state))
        monkeypatch.setattr(optimization, "_dual_bisection", full_bisection)
        assert np.array_equal(early, mma_update(*args, copy.deepcopy(state)))
    assert len(steps) >= 20  # the constraint was active in most cases
    assert max(steps) < 100


def test_mma_rejects_nonfinite():
    with pytest.raises(ValueError):
        mma_update(np.array([0.5]), np.array([np.nan]), 0.0,
                   np.array([1.0]), MmaState())


# ---------------------------------------------------------------------------
# optimization loop
# ---------------------------------------------------------------------------

def test_run_optimization_single_iteration():
    mesh, bc = cantilever((8, 4))
    filt = build_filter(mesh, 1.5)
    harness = tight_harness(mesh, bc)
    sched = PenaltySchedule(start=1.0, stop=1.0, increment=0.5, steps_per_value=1)
    prob = OptimizationProblem(mesh=mesh, bc=bc, filt=filt, schedule=sched,
                               volume_fraction=0.4, harness=harness)
    history, state = run_optimization(prob)
    assert len(history) == 1
    rho = filt.apply(np.full(mesh.element_count, 0.4))
    K = assemble_stiffness(mesh, bc, SimpLaw(penalty=1.0).modulus(rho))
    u = spla.spsolve(K.tocsc(), bc.load_vector)
    assert history[0]["objective"] == pytest.approx(float(bc.load_vector @ u),
                                                    rel=1e-8)


def test_run_optimization_volume_and_objective_trend():
    mesh, bc = cantilever((12, 6))
    filt = build_filter(mesh, 1.5)
    harness = SolverHarness(mesh=mesh, strategy="amg", coarse_max_dofs=50,
                            solve_cfg=SolveConfig(rtol=1e-9),
                            fixed_dofs=bc.fixed_dofs)
    sched = PenaltySchedule(start=1.0, stop=2.0, increment=0.5, steps_per_value=5)
    prob = OptimizationProblem(mesh=mesh, bc=bc, filt=filt, schedule=sched,
                               volume_fraction=0.4, harness=harness)
    history, state = run_optimization(prob)
    assert len(history) == 15
    # volume constraint never violated by more than 1e-6 relative
    for row in history:
        assert row["volume"] <= 0.4 * (1 + 1e-6)
    # objective decreases within each constant-penalty block most of the time
    objs = [r["objective"] for r in history]
    pens = [r["penalty"] for r in history]
    drops = same = 0
    for i in range(1, len(objs)):
        if pens[i] == pens[i - 1]:
            same += 1
            drops += objs[i] < objs[i - 1]
    assert drops / same >= 0.75
    assert state.volume_fraction == pytest.approx(0.4, abs=1e-3)


def test_run_optimization_stability_mode_smoke():
    mesh, bc = column((6, 24))
    filt = build_filter(mesh, 1.5)
    harness = SolverHarness(mesh=mesh, strategy="amg", coarse_max_dofs=60,
                            solve_cfg=SolveConfig(rtol=1e-9),
                            fixed_dofs=bc.fixed_dofs)
    sched = PenaltySchedule(start=1.0, stop=1.5, increment=0.5, steps_per_value=2)
    prob = OptimizationProblem(mesh=mesh, bc=bc, filt=filt, schedule=sched,
                               volume_fraction=0.4, harness=harness,
                               mode="stability",
                               eig_cfg=DavidsonConfig(n_modes=4, j_min=6, j_max=15,
                                                      max_iterations=400))
    history, state = run_optimization(prob)
    assert len(history) == 4
    for row in history:
        assert row["eig_iters"] != ""
        assert row["adjoint_iters"] != ""
        assert row["objective"] > 0


class DirectHarness(SolverHarness):
    """Solves with spsolve; its hierarchy has no levels."""

    def solve(self, K, f, x0=None, hierarchy=None, moduli=None):
        return (spla.spsolve(K.tocsc(), f), SolveRecord(converged=True),
                multigrid.MgHierarchy([]))


@pytest.mark.parametrize("case", [(cantilever2d_problem, (48, 24)),
                                  (cantilever3d_problem, (16, 8, 8))])
@pytest.mark.parametrize("volume_fraction", [
    0.4,
    pytest.param(0.12, marks=pytest.mark.xfail(
        strict=True, reason="MMA raises the objective at volume fraction 0.12, "
        "cantilever3d's value (the CHANGES.md FOUND line on optimization.mma_update)")),
])
def test_mma_steps_at_penalty_one_do_not_raise_the_objective(case, volume_fraction):
    # measured with exact solves: 0.4 falls 98.45 -> 66.88 (2D) and 101.9 ->
    # 72.45 (3D); 0.12 rises 328.2 -> 8.6e10 and 339.6 -> 2.56e11
    make_problem, dims = case
    mesh, bc = make_problem(dims)
    sched = PenaltySchedule(start=1.0, stop=1.0, increment=0.5, steps_per_value=5)
    problem = OptimizationProblem(mesh=mesh, bc=bc, filt=build_filter(mesh, 1.5),
                                  schedule=sched, volume_fraction=volume_fraction,
                                  harness=DirectHarness(mesh=mesh, fixed_dofs=bc.fixed_dofs))
    history, _ = run_optimization(problem)
    objectives = [row["objective"] for row in history]
    assert len(objectives) == 5
    assert np.all(np.diff(objectives) <= 0)


def test_optimization_problem_rejects_unknown_mode():
    mesh, bc = cantilever2d_problem((4, 2))
    with pytest.raises(ValueError, match="mode"):
        OptimizationProblem(mesh=mesh, bc=bc, filt=build_filter(mesh, 1.5),
                            schedule=PenaltySchedule(), volume_fraction=0.4,
                            harness=SolverHarness(mesh=mesh), mode="complaince")


def amg_problem(harness_cls=SolverHarness):
    """The 32x16 cantilever continuation, penalty 1 -> 3 by 0.5 with 5 steps
    each."""
    mesh, bc = cantilever2d_problem((32, 16))
    harness = harness_cls(mesh=mesh, strategy="amg", coarse_max_dofs=50,
                          solve_cfg=SolveConfig(rtol=1e-9), fixed_dofs=bc.fixed_dofs)
    sched = PenaltySchedule(start=1.0, stop=3.0, increment=0.5, steps_per_value=5)
    return OptimizationProblem(mesh=mesh, bc=bc, filt=build_filter(mesh, 1.5),
                               schedule=sched, volume_fraction=0.4, harness=harness)


def amg_trajectory(harness_cls=SolverHarness, callback=None):
    """`amg_problem` run once; returns (history, per-step (objective,
    sensitivity))."""
    prob = amg_problem(harness_cls)
    steps = []

    def record(step, state, aux):
        steps.append((state.objective, state.sensitivity_alpha.copy()))
        if callback is not None:
            callback(step, state, aux)

    history, _ = run_optimization(prob, record)
    return history, steps


def test_amg_run_with_kept_aggregates_follows_the_direct_trajectory():
    # measured: 1.9e-10 and 3.5e-9; rebuilding every step reads 7.7e-11 and 1.3e-9
    _, amg = amg_trajectory()
    _, direct = amg_trajectory(DirectHarness)
    assert len(amg) == len(direct) == 25
    for (F, dF), (F_ref, dF_ref) in zip(amg, direct):
        assert abs(F - F_ref) <= 1e-8 * abs(F_ref)
        assert np.linalg.norm(dF - dF_ref) <= 1e-7 * np.linalg.norm(dF_ref)


def test_amg_run_repeats_exactly():
    timing = {"setup_s", "solve_s"}
    h1, s1 = amg_trajectory()
    h2, s2 = amg_trajectory()
    assert [{k: v for k, v in r.items() if k not in timing} for r in h1] == \
        [{k: v for k, v in r.items() if k not in timing} for r in h2]
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(s1, s2))


def test_amg_run_aggregates_only_at_its_first_step(monkeypatch):
    run_step = [0, 0]
    strength_steps = []

    def counted(*args, _strength=multigrid.strength_of_connection):
        strength_steps.append(tuple(run_step))
        return _strength(*args)

    def next_step(i, state, aux):
        run_step[1] = i + 1

    monkeypatch.setattr(multigrid, "strength_of_connection", counted)
    prob = amg_problem()
    for run in range(2):
        run_step[:] = [run, 0]
        history, _ = run_optimization(prob, next_step)
        assert len(history) == 25
        # the kept aggregates live in the run's own harness values
        assert prob.harness.aggregates is None
    # per run, one strength graph per algebraic level of its first hierarchy
    n_algebraic = history[0]["levels"] - 1
    assert strength_steps == [(0, 0)] * n_algebraic + [(1, 0)] * n_algebraic


def _three_step_problem(strategy, mode):
    """Three design steps: the 32x16 cantilever at penalty 1 (n_geo 3), or
    the 16x64 column at penalties 1, 1.5 and 2 with 6 modes (n_geo 5, which
    'hybrid_adaptive' clamps to 4, its geometric levels less one)."""
    if mode == "compliance":
        mesh, bc = cantilever2d_problem((32, 16))
        harness = SolverHarness(mesh=mesh, strategy=strategy, n_geo=3, coarse_max_dofs=20,
                                fixed_dofs=bc.fixed_dofs)
        sched = PenaltySchedule(start=1.0, stop=1.0, steps_per_value=3)
        return OptimizationProblem(mesh=mesh, bc=bc, filt=build_filter(mesh, 1.5),
                                   schedule=sched, volume_fraction=0.4, harness=harness)
    mesh, bc = column_problem((16, 64))
    harness = SolverHarness(mesh=mesh, strategy=strategy, n_geo=5, coarse_max_dofs=50,
                            solve_cfg=SolveConfig(rtol=1e-8), fixed_dofs=bc.fixed_dofs)
    sched = PenaltySchedule(start=1.0, stop=2.0, increment=0.5, steps_per_value=1)
    return OptimizationProblem(mesh=mesh, bc=bc, filt=build_filter(mesh, 1.5),
                               schedule=sched, volume_fraction=0.4, harness=harness,
                               mode="stability", eig_cfg=DavidsonConfig(n_modes=6))


@pytest.mark.parametrize("strategy, mode", [
    *(pytest.param(s, "compliance", id=s) for s in optimization.STRATEGIES),
    pytest.param("hybrid_adaptive", "stability", id="hybrid_adaptive-stability")])
def test_runs_of_one_problem_do_not_share_solver_state(monkeypatch, strategy, mode):
    # every step counts as slow, so 'hybrid_adaptive' demotes after each one,
    # once per step although a stability step makes 7 solves
    monkeypatch.setattr(optimization, "ADAPTIVE_ITERATIONS", 1)
    prob = _three_step_problem(strategy, mode)
    harness = prob.harness
    start = harness.n_geo
    columns = ("n_geo", "solve_iters", "objective")
    runs = [[[row[c] for row in run_optimization(prob)[0]] for c in columns]
            for _ in range(2)]
    assert runs[0] == runs[1]
    if strategy == "hybrid_adaptive" and mode == "compliance":
        assert runs[0][:2] == [[3, 2, 2], [15, 14, 14]]
    if mode == "stability":
        assert start == 4 and runs[0][0] == [4, 3, 2]
    # harness fields, not harnesses: `fixed_dofs` is an array
    assert prob.harness is harness
    assert harness.n_geo == start and harness.aggregates is None


def _owner(a):
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("strategy", ["hybrid", "gmg", "amg"])
def test_run_optimization_assembles_without_the_previous_steps_operators(
        monkeypatch, strategy):
    mesh, bc = cantilever3d_problem((8, 4, 4))
    harness = SolverHarness(mesh=mesh, strategy=strategy, n_geo=1, coarse_max_dofs=50,
                            fixed_dofs=bc.fixed_dofs)
    sched = PenaltySchedule(start=1.0, stop=2.0, increment=0.5, steps_per_value=1)
    prob = OptimizationProblem(mesh=mesh, bc=bc, filt=build_filter(mesh, 1.5),
                               schedule=sched, volume_fraction=0.12, harness=harness)
    assembled = []

    def assemble(*args, _assemble=optimization.assemble_stiffness):
        # neither the loop nor the previous hierarchy (it shares K's arrays) holds it
        assert all(ref() is None for ref in assembled)
        K = _assemble(*args)
        assembled.append(weakref.ref(_owner(K.data)))
        return K

    def callback(step, state, aux):
        assert np.all(np.isfinite(aux["K"] @ aux["u"]))

    monkeypatch.setattr(optimization, "assemble_stiffness", assemble)
    history, _ = run_optimization(prob, callback)
    assert len(history) == len(assembled) == 3
