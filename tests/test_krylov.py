"""GMRES / flexible GMRES with right preconditioning."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import hilbert

from topomg.krylov import SolveConfig, fgmres_solve, gmres_solve
from topomg.mesh import BoundaryConditions, assemble_stiffness, build_mesh
from topomg.multigrid import SmootherConfig, build_gmg


def spd_system(n, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    A = sp.csr_matrix(Q @ Q.T + n * np.eye(n))
    b = rng.standard_normal(n)
    return A, b


def test_identity_one_iteration():
    A = sp.identity(10, format="csr")
    b = np.arange(10.0)
    x, rec = gmres_solve(A, b)
    assert rec.iterations == 1
    assert rec.converged
    assert np.allclose(x, b)


def test_exact_initial_guess_zero_iterations():
    A, b = spd_system(20)
    xstar = np.linalg.solve(A.toarray(), b)
    x, rec = gmres_solve(A, b, x0=xstar, cfg=SolveConfig(rtol=1e-6))
    assert rec.iterations == 0
    assert rec.converged


def test_matches_dense_oracle_with_jacobi_preconditioner():
    A, b = spd_system(50, seed=1)
    dinv = 1.0 / A.diagonal()
    cfg = SolveConfig(rtol=1e-10)
    x, rec = gmres_solve(A, b, M=lambda v: dinv * v, cfg=cfg)
    xstar = np.linalg.solve(A.toarray(), b)
    assert rec.converged
    assert np.linalg.norm(x - xstar) <= 10 * cfg.rtol * np.linalg.norm(xstar)


def test_fgmres_matches_gmres_for_stationary_preconditioner():
    A, b = spd_system(40, seed=2)
    dinv = 1.0 / A.diagonal()
    M = lambda v: dinv * v
    cfg = SolveConfig(rtol=1e-9)
    _, r1 = gmres_solve(A, b, M=M, cfg=cfg)
    _, r2 = fgmres_solve(A, b, M=M, cfg=cfg)
    assert r1.iterations == r2.iterations
    h1 = np.array(r1.residual_history)
    h2 = np.array(r2.residual_history)
    assert np.max(np.abs(h1 - h2)) <= 1e-10 * h1[0]


def test_fgmres_exact_preconditioner_one_iteration():
    A, b = spd_system(30, seed=3)
    Ainv = np.linalg.inv(A.toarray())
    x, rec = fgmres_solve(A, b, M=lambda v: Ainv @ v, cfg=SolveConfig(rtol=1e-10))
    assert rec.iterations == 1
    assert rec.converged


def test_vcycle_preconditioner_beats_unpreconditioned():
    mesh = build_mesh((16, 8), [1.0, 1.0])
    left = [mesh.node_index(0, j) for j in range(9)]
    fixed = np.array([2 * n + c for n in left for c in (0, 1)])
    f = np.zeros(mesh.total_dofs)
    f[2 * mesh.node_index(16, 4) + 1] = -1.0
    bc = BoundaryConditions(fixed, f)
    K = assemble_stiffness(mesh, bc, np.ones(mesh.element_count))
    h = build_gmg(mesh, K, 60, SmootherConfig(kind="sor_gmres"))
    cfg = SolveConfig(rtol=1e-7)
    _, pre = fgmres_solve(K, bc.load_vector, M=h.apply, cfg=cfg)
    _, bare = fgmres_solve(K, bc.load_vector, M=None, cfg=cfg)
    assert pre.converged
    assert pre.iterations < bare.iterations


def test_final_residual_matches_recomputed():
    A, b = spd_system(60, seed=4)
    cfg = SolveConfig(rtol=1e-8, restart=15)
    x, rec = gmres_solve(A, b, cfg=cfg)
    true = np.linalg.norm(b - A @ x)
    assert abs(rec.residual_history[-1] - true) <= 1e-8 * max(true, 1e-300)
    assert rec.converged == (true <= cfg.rtol * np.linalg.norm(b))


def test_residual_monotone_within_restart_cycle():
    A, b = spd_system(60, seed=5)
    cfg = SolveConfig(rtol=1e-10, restart=12)
    _, rec = gmres_solve(A, b, cfg=cfg)
    hist = rec.residual_history
    # estimated residuals are nonincreasing between restart boundaries
    for start in range(0, len(hist) - 1, cfg.restart):
        cycle = hist[start:start + cfg.restart]
        assert all(a >= b - 1e-12 * hist[0] for a, b in zip(cycle, cycle[1:]))


def test_max_iterations_not_converged():
    A, b = spd_system(80, seed=6)
    cfg = SolveConfig(rtol=1e-14, max_iterations=3)
    _, rec = gmres_solve(A, b, cfg=cfg)
    assert not rec.converged
    assert rec.iterations == 3


def test_arnoldi_basis_stays_orthogonal_on_an_ill_conditioned_system():
    # one restart cycle of 200 steps on a condition number near 1e7: modified
    # Gram-Schmidt converges in 191 steps, a single classical Gram-Schmidt
    # pass loses the basis and stalls near 1e-8
    A = sp.csr_matrix(hilbert(200) + np.diag(np.logspace(0, -6, 200)))
    b = np.random.default_rng(0).standard_normal(200)
    cfg = SolveConfig(rtol=1e-10, max_iterations=200, restart=200)
    x, rec = gmres_solve(A, b, cfg=cfg)
    assert rec.converged
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(rtol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(restart=0)
    with pytest.raises(ValueError, match="max_iterations"):
        SolveConfig(max_iterations=0)


def test_warm_start_never_much_worse():
    A, b = spd_system(50, seed=8)
    cfg = SolveConfig(rtol=1e-8)
    x_cold, rec_cold = gmres_solve(A, b, cfg=cfg)
    # perturbed previous solution as warm start
    x0 = x_cold + 1e-3 * np.linalg.norm(x_cold) * np.ones_like(x_cold)
    _, rec_warm = gmres_solve(A, b, x0=x0, cfg=cfg)
    assert rec_warm.iterations <= rec_cold.iterations + cfg.restart
