"""Generalized Davidson eigensolver for the buckling pencil A x = lambda B x.

Targets the largest eigenvalues with a B-orthonormal search space expanded by
preconditioned residuals. Converged modes are locked (kept in the basis for
implicit deflation) while the iteration continues on the next target.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# a vector is numerically in a span if it keeps less than this fraction of its
# B-norm after B-orthogonalization against it
REJECT_TOL = 1e-10
# a mode also locks when its Ritz value changes by at most this relative
# amount between outer iterations
RTOL_EIGENVALUE_STALL = 1e-13


@dataclass(frozen=True)
class DavidsonConfig:
    j_min: int = 10
    j_max: int = 25
    n_modes: int = 6
    rtol_residual: float = 1e-6
    max_iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.j_min >= self.j_max:
            raise ValueError("j_min must be < j_max")
        if not 1 <= self.n_modes <= self.j_min:
            raise ValueError("n_modes must be >= 1 and <= j_min")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, B-orthonormal
    iterations: int
    converged_count: int
    residuals: np.ndarray = field(default_factory=lambda: np.empty(0))
    # per locked mode: "residual" or "stall" (stalled eigenvalue change)
    lock_reasons: list = field(default_factory=list)


def b_orthonormalize(V, z, B):
    """Two-pass Gram-Schmidt of z against V in the B-inner product.

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
    if nrm < REJECT_TOL * norm0:
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


def _b_basis(candidates, B, locked=(), limit=None):
    """B-orthonormal columns from `candidates`, B-orthogonal to `locked`.

    Each candidate is B-orthonormalized against the B-orthonormal `locked`
    vectors and the columns kept so far, and dropped if it is numerically in
    their span. Stops once there are `limit` columns or the candidates run
    out; returns None if no column was kept.
    """
    W = np.column_stack(locked) if len(locked) else None
    nl = 0 if W is None else W.shape[1]
    for z in candidates:
        z = b_orthonormalize(W, z, B)
        if z is not None:
            W = np.column_stack([z] if W is None else [W, z])
            if W.shape[1] - nl == limit:
                break
    return None if W is None or W.shape[1] == nl else W[:, nl:]


class _Subspace:
    """The search space X = [locked | active] of generalized Davidson, kept
    with A X, B X and the projected pencil GA = X^T A X, GB = X^T B X.

    The rows of X, AX and BX are the basis vectors, preallocated to `cap`.
    Restarts and locks replace the active vectors by combinations X C of the
    kept ones, so they cost no products with A or B.
    """

    def __init__(self, A, B, cap):
        self.A, self.B = A, B
        self.X, self.AX, self.BX = (np.empty((cap, A.shape[0])) for _ in range(3))
        self.GA, self.GB = np.empty((cap, cap)), np.empty((cap, cap))
        self.nl = self.m = 0

    def set_active(self, V):
        """Make the columns of V the active vectors, with explicit products."""
        nl, k = self.nl, self.nl + V.shape[1]
        self.X[nl:k] = V.T
        self.AX[nl:k] = (self.A @ V).T
        self.BX[nl:k] = (self.B @ V).T
        for G, P in ((self.GA, self.AX[:k]), (self.GB, self.BX[:k])):
            G[:k, :k] = 0.5 * (self.X[:k] @ P.T + P @ self.X[:k].T)
        self.m = k

    def combine(self, C):
        """Replace the active vectors by X C (C has one row per basis vector)."""
        nl, m, k = self.nl, self.m, self.nl + C.shape[1]
        for Z in (self.X, self.AX, self.BX):
            Z[nl:k] = C.T @ Z[:m]
        C = np.hstack([np.eye(m, nl), C])
        for G in (self.GA, self.GB):
            P = C.T @ G[:m, :m] @ C
            G[:k, :k] = 0.5 * (P + P.T)
        self.m = k

    def ritz(self):
        """Ritz values, descending, and their coefficient vectors in X.

        If GB has lost definiteness the active vectors are B-orthonormalized
        again and their products recomputed, once.
        """
        for attempt in range(2):
            m = self.m
            try:
                theta, Y = scipy.linalg.eigh(self.GA[:m, :m], self.GB[:m, :m])
                break
            except scipy.linalg.LinAlgError:
                if attempt == 1:
                    raise
                self.set_active(_b_basis(self.X[self.nl:m], self.B, self.X[:self.nl]))
        order = np.argsort(theta)[::-1]
        return theta[order], Y[:, order]

    def lock(self, y, fill, j_min):
        """Lock the Ritz vector X y; the active vectors are deflated against it
        and refilled with `j_min` vectors from `fill` if none is left."""
        nl, m = self.nl, self.m
        GB = self.GB[:m, :m]
        # the new active span is the B-orthogonal complement of the locked
        # vectors and X y in span(X). In coefficients, the trailing columns of
        # a full QR of GB [e_1 .. e_nl, y] span it exactly, so no dependent
        # active vector survives as rounding noise.
        W = np.column_stack([np.eye(m, nl), y])
        C = _b_basis(scipy.linalg.qr(GB @ W)[0][:, nl + 1:].T, GB)
        self.combine(y[:, None] if C is None else np.column_stack([y, C]))
        self.nl += 1
        if C is None:
            self.set_active(_b_basis(fill, self.B, self.X[:self.nl], j_min))

    def expand(self, candidates):
        """Append the first candidate that is not numerically in span(X).

        Each candidate is B-orthogonalized against X in two passes through the
        kept B X, so only its final B-norm and A-product need the matrices.
        """
        m = self.m
        X, BX = self.X[:m], self.BX[:m]
        for z in candidates:
            h = BX @ z
            z = z - h @ X
            h2 = BX @ z
            z -= h2 @ X
            h += h2
            Bz = self.B @ z
            nrm = np.sqrt(abs(z @ Bz))
            # kept unless it lost all but REJECT_TOL of its B-norm, which is
            # taken before deflation from the B-orthogonal split z0 = z + X h
            if nrm > REJECT_TOL * np.sqrt(nrm ** 2 + h @ self.GB[:m, :m] @ h):
                break
        self.X[m] = z / nrm
        self.BX[m] = Bz / nrm
        self.AX[m] = self.A @ self.X[m]
        for G, P in ((self.GA, self.AX), (self.GB, self.BX)):
            G[:m + 1, m] = G[m, :m + 1] = self.X[:m + 1] @ P[m]
        self.m = m + 1


def generalized_davidson(A, B, M=None, cfg=None, initial_space=None):
    """Compute the cfg.n_modes largest eigenvalues of A x = lambda B x.

    B must be SPD; M approximates the action of B^-1 (typically a multigrid
    V-cycle built for B). A mode is converged when its relative residual falls
    below cfg.rtol_residual or its eigenvalue stalls between outer iterations.
    An outer iteration costs one product with A, one with B and one with M.
    initial_space, an (n, k) array, gives the first search directions, column
    after column, ahead of random ones.
    Raises ValueError if the pencil is smaller than the search space's
    capacity n_modes + j_max + 1, which it could never fill.
    """
    cfg = cfg or DavidsonConfig()
    n = A.shape[0]
    cap = cfg.n_modes + cfg.j_max + 1
    if n < cap:
        raise ValueError("a pencil of %d dofs cannot hold the Davidson search space "
                         "of n_modes + eigen.j_max + 1 = %d vectors" % (n, cap))
    rng = np.random.default_rng(cfg.seed)
    gaussian = (rng.standard_normal(n) for _ in itertools.count())  # fill candidates
    if M is None:
        M = lambda v: v

    start = () if initial_space is None else initial_space.T
    space = _Subspace(A, B, cap)
    space.set_active(_b_basis(itertools.chain(start, gaussian), B, limit=cfg.j_min))

    lock_reasons = []
    it = 0
    prev_theta = None
    while it < cfg.max_iterations and space.nl < cfg.n_modes:
        theta, Y = space.ritz()
        nl, m = space.nl, space.m
        # active target: the largest Ritz value whose vector is not a locked
        # mode (the first, if every one overlaps the locked modes)
        target = int(np.argmax(np.linalg.norm(space.GB[:nl, :m] @ Y, axis=0) < 0.9))
        th, y = theta[target], Y[:, target]
        Aq = y @ space.AX[:m]
        r = Aq - th * (y @ space.BX[:m])
        rel = np.linalg.norm(r) / max(np.linalg.norm(Aq), 1e-300)
        stalled = (prev_theta is not None and
                   abs(th - prev_theta) <= RTOL_EIGENVALUE_STALL * max(abs(th), 1e-300))
        if rel <= cfg.rtol_residual or stalled:
            lock_reasons.append("residual" if rel <= cfg.rtol_residual else "stall")
            prev_theta = None
            space.lock(y, gaussian, cfg.j_min)
            continue
        prev_theta = th
        # restart: compress the active space to the leading j_min Ritz vectors
        if m - nl >= cfg.j_max:
            space.combine(_b_basis(Y.T, space.GB[:m, :m], np.eye(m)[:nl], cfg.j_min))
        # expand by the preconditioned residual, or a random vector if it is
        # already in the search space
        space.expand(itertools.chain([M(r)], gaussian))
        it += 1

    # final extraction: Ritz pairs over the locked and active vectors, made
    # B-orthonormal together first (deflation keeps them only nearly so)
    theta, Q = rayleigh_ritz(A, B, _b_basis(space.X[:space.m], B))
    k = min(cfg.n_modes, theta.size)
    vals = theta[:k]
    vecs = Q[:, :k]
    AQ = A @ vecs
    res = (np.linalg.norm(AQ - (B @ vecs) * vals, axis=0)
           / np.maximum(np.linalg.norm(AQ, axis=0), 1e-300))
    # a returned pair is converged if it is one of the locked modes, which
    # lead the descending order, or its residual meets the tolerance
    converged = (np.arange(k) < space.nl) | (res <= 2 * cfg.rtol_residual)
    return EigenResult(eigenvalues=vals, eigenvectors=vecs, iterations=it,
                       converged_count=int(np.count_nonzero(converged)), residuals=res,
                       lock_reasons=lock_reasons)
