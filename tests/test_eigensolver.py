"""Generalized Davidson eigensolver for the pencil A x = lambda B x."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from topomg import eigensolver
from topomg.eigensolver import (DavidsonConfig, b_orthonormalize,
                                generalized_davidson, rayleigh_ritz)
from topomg.mesh import (BoundaryConditions, assemble_stiffness,
                         assemble_stress_stiffness, build_mesh)
from topomg.multigrid import build_sa_amg
from topomg.mesh import rigid_body_modes


def column_pencil(dims, rho=0.4, penalty=3.0):
    """Assemble (Ksigma, K) for a uniform-density compressed column."""
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
    bc = BoundaryConditions(fixed, f)
    E = 1e-10 + (1 - 1e-10) * rho ** penalty
    Es = rho ** penalty
    K = assemble_stiffness(mesh, bc, np.full(mesh.element_count, E))
    u = scipy.sparse.linalg.spsolve(K.tocsc(), bc.load_vector)
    Ks = assemble_stress_stiffness(mesh, bc, u, np.full(mesh.element_count, Es))
    return mesh, bc, K, Ks


def dense_pencil_oracle(Ks, K, free, k):
    """Largest-k eigenvalues of the pencil restricted to free dofs."""
    A = Ks.toarray()[np.ix_(free, free)]
    B = K.toarray()[np.ix_(free, free)]
    w = scipy.linalg.eigh(A, B, eigvals_only=True)
    return np.sort(w)[::-1][:k]


def test_diagonal_problem():
    A = sp.diags(np.arange(1.0, 21.0)).tocsr()
    B = sp.identity(20, format="csr")
    res = generalized_davidson(A, B, cfg=DavidsonConfig(n_modes=3, j_min=6, j_max=12))
    assert np.allclose(res.eigenvalues, [20.0, 19.0, 18.0], atol=1e-10)
    assert res.converged_count == 3


def test_proportional_pencil():
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((15, 15))
    B = sp.csr_matrix(Q @ Q.T + 15 * np.eye(15))
    A = (2.0 * B).tocsr()
    res = generalized_davidson(A, B, cfg=DavidsonConfig(n_modes=2, j_min=4, j_max=9))
    assert np.allclose(res.eigenvalues, 2.0, atol=1e-8)


def test_column_pencil_matches_dense_oracle():
    mesh, bc, K, Ks = column_pencil((8, 24))
    h = build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), 100)
    res = generalized_davidson(Ks, K, h.apply,
                               DavidsonConfig(n_modes=6, max_iterations=500))
    oracle = dense_pencil_oracle(Ks, K, bc.free_mask, 6)
    assert res.converged_count >= 6
    assert np.max(np.abs(res.eigenvalues - oracle) / np.abs(oracle)) < 1e-6


def test_lobpcg_oracle_agrees():
    mesh, bc, K, Ks = column_pencil((8, 24))
    h = build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), 100)
    res = generalized_davidson(Ks, K, h.apply,
                               DavidsonConfig(n_modes=6, max_iterations=500))
    M = spla.LinearOperator(K.shape, matvec=lambda x: h.apply(x.ravel()), dtype=float)
    X0 = np.random.default_rng(0).standard_normal((K.shape[0], 6))
    vals = spla.lobpcg(Ks, X0, B=K, M=M, largest=True, tol=1e-8, maxiter=500)[0]
    lobpcg = np.sort(vals)[::-1]
    assert np.max(np.abs(res.eigenvalues - lobpcg) / np.abs(lobpcg)) < 1e-6


class CountingOperator:
    """A matrix whose products are counted in columns (a vector is one)."""

    def __init__(self, A):
        self.A, self.shape, self.columns = A, A.shape, 0

    def __matmul__(self, X):
        self.columns += 1 if np.ndim(X) == 1 else X.shape[1]
        return self.A @ X


def test_outer_iteration_costs_one_product_with_each_matrix():
    mesh, bc, K, Ks = column_pencil((8, 24))
    h = build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), 100)
    A, B = CountingOperator(Ks), CountingOperator(K)
    marks = []  # products so far at each preconditioner call, once per iteration

    def M(r):
        marks.append((A.columns, B.columns))
        return h.apply(r)

    cfg = DavidsonConfig(n_modes=6, max_iterations=500)
    res = generalized_davidson(A, B, M, cfg)
    assert res.converged_count == 6 and len(marks) == res.iterations
    # between two expansions: one Ritz step, and any locks and restarts
    assert np.all(np.diff(marks, axis=0) <= [1, 3])
    # the start space, the locks and the final extraction cost O(j_min) each
    extra = (len(res.lock_reasons) + 2) * 3 * cfg.j_min
    assert A.columns <= res.iterations + extra
    assert B.columns <= 3 * res.iterations + extra


def test_restart_heavy_run_keeps_products_exact(monkeypatch):
    mesh, bc, K, Ks = column_pencil((6, 18))
    h = build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), 80)
    drift, ritz, combine = [], eigensolver._Subspace.ritz, eigensolver._Subspace.combine
    combines = []

    def checked_ritz(space):
        # the kept products and B-Gram matrix against fresh ones
        X = space.X[:space.m]
        drift.append(max(np.abs(space.AX[:space.m] - (Ks @ X.T).T).max() / abs(Ks).max(),
                         np.abs(space.BX[:space.m] - (K @ X.T).T).max() / abs(K).max(),
                         np.abs(space.GB[:space.m, :space.m] - X @ (K @ X.T)).max()))
        return ritz(space)

    def counted_combine(space, C):
        combines.append(C.shape)
        return combine(space, C)

    monkeypatch.setattr(eigensolver._Subspace, "ritz", checked_ritz)
    monkeypatch.setattr(eigensolver._Subspace, "combine", counted_combine)
    cfg = DavidsonConfig(n_modes=6, j_min=6, j_max=8, max_iterations=500)
    res = generalized_davidson(Ks, K, h.apply, cfg)
    # every second or third outer iteration restarts or locks
    assert res.converged_count == 6 and len(combines) >= res.iterations / 3
    assert max(drift) < 1e-10
    oracle = dense_pencil_oracle(Ks, K, bc.free_mask, 6)
    assert np.max(np.abs(res.eigenvalues - oracle) / np.abs(oracle)) < 1e-8
    V = res.eigenvectors
    assert np.max(np.abs(V.T @ (K @ V) - np.eye(6))) < 1e-8
    AV = Ks @ V
    fresh = np.linalg.norm(AV - (K @ V) * res.eigenvalues, axis=0) / np.linalg.norm(AV, axis=0)
    assert np.allclose(res.residuals, fresh, rtol=1e-12, atol=0)


def test_indefinite_projected_b_matrix_rebuilds_active_vectors():
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((30, 30))
    B = sp.csr_matrix(Q @ Q.T + 30 * np.eye(30))
    S = rng.standard_normal((30, 30))
    A = sp.csr_matrix(S + S.T)
    V = _b_orthonormal_basis(B, rng.standard_normal((30, 6)))
    space = eigensolver._Subspace(A, B, 8)
    space.set_active(V)
    space.GB[0, 0] = -1.0  # a projected B matrix that lost definiteness
    theta, _ = space.ritz()
    assert np.allclose(theta, rayleigh_ritz(A, B, V)[0], atol=1e-10)
    X = space.X[:space.m]
    assert np.allclose(space.GB[:space.m, :space.m], X @ (B @ X.T), atol=1e-12)


def test_eigenvectors_b_orthonormal():
    mesh, bc, K, Ks = column_pencil((6, 18))
    res = generalized_davidson(Ks, K, cfg=DavidsonConfig(n_modes=4, max_iterations=500))
    V = res.eigenvectors
    G = V.T @ (K @ V)
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-8


def test_converged_residuals_small():
    mesh, bc, K, Ks = column_pencil((6, 18))
    cfg = DavidsonConfig(n_modes=4, max_iterations=500)
    h = build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), 80)
    res = generalized_davidson(Ks, K, h.apply, cfg)
    # modes locked on the residual criterion stay converged at exit; modes
    # locked on the eigenvalue-stall criterion carry no residual guarantee
    n_res = res.lock_reasons.count("residual")
    assert np.count_nonzero(res.residuals <= 2 * cfg.rtol_residual) >= n_res


def test_seeded_initial_space_reduces_iterations():
    mesh, bc, K, Ks = column_pencil((8, 24))
    cfg = DavidsonConfig(n_modes=4, max_iterations=500)
    h = build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), 100)
    cold = generalized_davidson(Ks, K, h.apply, cfg)
    warm = generalized_davidson(Ks, K, h.apply, cfg,
                                initial_space=cold.eigenvectors)
    assert warm.iterations < cold.iterations


def test_config_validation():
    with pytest.raises(ValueError):
        DavidsonConfig(j_min=10, j_max=10)
    with pytest.raises(ValueError):
        DavidsonConfig(n_modes=11, j_min=10, j_max=25)
    with pytest.raises(ValueError):
        DavidsonConfig(n_modes=0)
    with pytest.raises(ValueError, match="max_iterations"):
        DavidsonConfig(max_iterations=0)


def test_pencil_smaller_than_the_search_space_raises():
    # 8 dofs cannot hold the default 6 + 25 + 1 basis vectors
    A = sp.diags(np.arange(1.0, 9.0)).tocsr()
    with pytest.raises(ValueError, match="eigen.j_max"):
        generalized_davidson(A, sp.identity(8, format="csr"))


def test_max_iterations_partial_result():
    mesh, bc, K, Ks = column_pencil((6, 18))
    res = generalized_davidson(Ks, K, cfg=DavidsonConfig(n_modes=6, max_iterations=3))
    assert res.iterations <= 3
    assert res.converged_count <= 6
    assert res.eigenvalues.size == 6


# ---------------------------------------------------------------------------
# rayleigh_ritz
# ---------------------------------------------------------------------------

def _b_orthonormal_basis(B, cols):
    V = None
    out = []
    for c in cols.T:
        z = b_orthonormalize(np.column_stack(out) if out else None, c, B)
        if z is not None:
            out.append(z)
    return np.column_stack(out)


def test_rayleigh_ritz_exact_invariant_subspace():
    vals = np.array([5.0, 3.0, 1.0, 0.5])
    A = sp.diags(vals).tocsr()
    B = sp.identity(4, format="csr")
    V = np.eye(4)[:, :2]
    theta, Q = rayleigh_ritz(A, B, V)
    assert np.allclose(theta, [5.0, 3.0], atol=1e-12)


def test_rayleigh_ritz_full_space():
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((8, 8))
    B = sp.csr_matrix(Q @ Q.T + 8 * np.eye(8))
    S = rng.standard_normal((8, 8))
    A = sp.csr_matrix(S + S.T)
    V = _b_orthonormal_basis(B, np.eye(8))
    theta, _ = rayleigh_ritz(A, B, V)
    exact = scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True)
    assert np.allclose(np.sort(theta), np.sort(exact), atol=1e-10)


def test_rayleigh_ritz_interlacing_range():
    rng = np.random.default_rng(2)
    Q = rng.standard_normal((30, 30))
    B = sp.csr_matrix(Q @ Q.T + 30 * np.eye(30))
    S = rng.standard_normal((30, 30))
    A = sp.csr_matrix(S + S.T)
    V = _b_orthonormal_basis(B, rng.standard_normal((30, 5)))
    theta, _ = rayleigh_ritz(A, B, V)
    exact = scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True)
    assert theta.min() >= exact.min() - 1e-10
    assert theta.max() <= exact.max() + 1e-10


# ---------------------------------------------------------------------------
# b_orthonormalize
# ---------------------------------------------------------------------------

def test_b_orthonormalize_rejects_span():
    rng = np.random.default_rng(3)
    Q = rng.standard_normal((10, 10))
    B = sp.csr_matrix(Q @ Q.T + 10 * np.eye(10))
    V = _b_orthonormal_basis(B, rng.standard_normal((10, 3)))
    z = V @ np.array([1.0, -2.0, 0.5])
    assert b_orthonormalize(V, z, B) is None


def test_b_orthonormalize_orthogonal_input_scaled():
    B = sp.diags([1.0, 4.0, 9.0]).tocsr()
    V = np.array([[1.0], [0.0], [0.0]])
    z = np.array([0.0, 1.0, 0.0])
    out = b_orthonormalize(V, z, B)
    assert out is not None
    assert abs(out @ (B @ out) - 1.0) < 1e-12
    assert abs(out[0]) < 1e-14


def test_b_orthonormalize_50_random_expansions():
    rng = np.random.default_rng(4)
    n = 60
    Q = rng.standard_normal((n, n))
    B = sp.csr_matrix(Q @ Q.T + n * np.eye(n))
    V = None
    cols = []
    for _ in range(50):
        z = b_orthonormalize(V, rng.standard_normal(n), B)
        if z is not None:
            cols.append(z)
            V = np.column_stack(cols)
    G = V.T @ (B @ V)
    assert np.max(np.abs(G - np.eye(V.shape[1]))) <= 1e-10
