"""Generalized Davidson eigensolver for the buckling pencil A x = lambda B x.

Targets the largest eigenvalues with a B-orthonormal search space expanded by
preconditioned residuals. Converged modes are locked (kept in the basis for
implicit deflation) while the iteration continues on the next target.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class DavidsonConfig:
    j_min: int = 10
    j_max: int = 25
    n_modes: int = 6
    rtol_residual: float = 1e-6
    rtol_eigenvalue_stall: float = 1e-13
    max_iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.j_min >= self.j_max:
            raise ValueError("j_min must be < j_max")
        if self.n_modes > self.j_min:
            raise ValueError("n_modes must be <= j_min")


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, B-orthonormal
    iterations: int
    converged_count: int
    residuals: np.ndarray = field(default_factory=lambda: np.empty(0))
    # per locked mode: "residual" or "stall" (stalled eigenvalue change)
    lock_reasons: list = field(default_factory=list)


def b_orthonormalize(V, z, B, reject_tol=1e-10):
    """Two-pass modified Gram-Schmidt of z against V in the B-inner product.

    Returns the appended unit-B-norm vector, or None if z was numerically in
    span(V) (rejection is a signal to try a different expansion vector).
    """
    z = np.asarray(z, dtype=float).copy()
    norm0 = np.sqrt(abs(z @ (B @ z)))
    if norm0 == 0:
        return None
    for _ in range(2):
        if V is not None and V.shape[1] > 0:
            Bz = B @ z
            z -= V @ (V.T @ Bz)
    nrm = np.sqrt(abs(z @ (B @ z)))
    if nrm < reject_tol * norm0:
        return None
    return z / nrm


def rayleigh_ritz(A, B, V):
    """Ritz pairs of the pencil restricted to span(V), sorted descending.

    V is assumed B-orthonormal; the projected B-matrix is re-checked and the
    basis re-orthonormalized once if conditioning was lost.
    """
    for attempt in range(2):
        Ap = V.T @ (A @ V)
        Bp = V.T @ (B @ V)
        Ap = 0.5 * (Ap + Ap.T)
        Bp = 0.5 * (Bp + Bp.T)
        try:
            theta, y = scipy.linalg.eigh(Ap, Bp)
            break
        except scipy.linalg.LinAlgError:
            if attempt == 1:
                raise
            V = _b_basis(V.T, B)
    order = np.argsort(theta)[::-1]
    theta = theta[order]
    y = y[:, order]
    return theta, V @ y


def _b_basis(candidates, B, locked=(), limit=None, V=None):
    """Extend the B-orthonormal columns of V (none by default) from `candidates`.

    Each candidate is deflated against the B-orthonormal `locked` vectors,
    B-orthonormalized against the columns kept so far and dropped if it is
    numerically dependent on them. Stops once there are `limit` columns or the
    candidates run out; returns None if no column was kept.
    """
    L = np.column_stack(locked) if len(locked) else None
    for z in candidates:
        if L is not None:
            z = z - L @ (L.T @ (B @ z))
        z = b_orthonormalize(V, z, B)
        if z is not None:
            V = np.column_stack([z] if V is None else [V, z])
            if V.shape[1] == limit:
                break
    return V


def generalized_davidson(A, B, M=None, cfg=None, initial_space=None):
    """Compute the cfg.n_modes largest eigenvalues of A x = lambda B x.

    B must be SPD; M approximates the action of B^-1 (typically a multigrid
    V-cycle built for B). A mode is converged when its relative residual falls
    below cfg.rtol_residual or its eigenvalue stalls between outer iterations.
    """
    cfg = cfg or DavidsonConfig()
    n = A.shape[0]
    rng = np.random.default_rng(cfg.seed)
    gaussian = (rng.standard_normal(n) for _ in itertools.count())  # fill candidates
    if M is None:
        M = lambda v: v

    # locked (converged) modes kept separate from the active search space
    locked_vals = []
    locked_vecs = []
    lock_reasons = []
    start = ()
    if initial_space is not None:
        S = np.atleast_2d(np.asarray(initial_space, dtype=float))
        start = S.T if S.shape[0] == n else S
    V = _b_basis(itertools.chain(start, gaussian), B, limit=cfg.j_min)

    it = 0
    prev_theta = None
    while it < cfg.max_iterations and len(locked_vals) < cfg.n_modes:
        W = np.column_stack(locked_vecs + [V]) if locked_vecs else V
        theta, Q = rayleigh_ritz(A, B, W)
        # active target: largest Ritz value not matching a locked mode
        target_idx = _next_target(theta, Q, B, locked_vecs)
        th = theta[target_idx]
        q = Q[:, target_idx]
        r, rel = _relative_residual(A, B, th, q)
        stalled = (prev_theta is not None and
                   abs(th - prev_theta) <= cfg.rtol_eigenvalue_stall * max(abs(th), 1e-300))
        if rel <= cfg.rtol_residual or stalled:
            locked_vals.append(th)
            locked_vecs.append(q)
            lock_reasons.append("residual" if rel <= cfg.rtol_residual else "stall")
            prev_theta = None
            # remove the locked direction from the active basis
            V = _b_basis(V.T, B, locked_vecs)
            if V is None:
                V = _b_basis(gaussian, B, locked_vecs, cfg.j_min)
            continue
        prev_theta = th
        # restart: compress the active space to the leading j_min Ritz vectors
        if V.shape[1] >= cfg.j_max:
            V = _b_basis(Q.T, B, locked_vecs, cfg.j_min)
        # expand by the preconditioned residual, or a random vector if it is
        # already in the search space
        V = _b_basis(itertools.chain([M(r)], gaussian), B, locked_vecs,
                     limit=V.shape[1] + 1, V=V)
        it += 1

    # final extraction: Ritz pairs over the locked and active vectors, made
    # B-orthonormal together first (deflation keeps them only nearly so)
    theta, Q = rayleigh_ritz(A, B, _b_basis(itertools.chain(locked_vecs, V.T), B))
    k = min(cfg.n_modes, theta.size)
    vals = theta[:k]
    vecs = Q[:, :k]
    res = np.array([_relative_residual(A, B, vals[i], vecs[:, i])[1] for i in range(k)])
    # a returned pair is converged if it is one of the locked modes, which
    # lead the descending order, or its residual meets the tolerance
    converged = (np.arange(k) < len(locked_vals)) | (res <= 2 * cfg.rtol_residual)
    return EigenResult(eigenvalues=vals, eigenvectors=vecs, iterations=it,
                       converged_count=int(np.count_nonzero(converged)), residuals=res,
                       lock_reasons=lock_reasons)


def _relative_residual(A, B, theta, q):
    """The residual r = A q - theta B q of a Ritz pair and ||r|| / ||A q||."""
    Aq = A @ q
    r = Aq - theta * (B @ q)
    return r, np.linalg.norm(r) / max(np.linalg.norm(Aq), 1e-300)


def _next_target(theta, Q, B, locked_vecs):
    """Index of the largest Ritz value whose vector is not a locked mode."""
    if not locked_vecs:
        return 0
    L = np.column_stack(locked_vecs)
    for idx in range(theta.size):
        proj = np.linalg.norm(L.T @ (B @ Q[:, idx]))
        if proj < 0.9:
            return idx
    return 0
