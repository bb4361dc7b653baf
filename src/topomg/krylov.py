"""Restarted GMRES and flexible GMRES with right preconditioning.

Right preconditioning keeps the monitored residual equal to the true residual
of the original system. Every solve returns a SolveRecord with the residual
history, so downstream benchmarking never needs solver internals.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

BREAKDOWN_TOL = 1e-14


@dataclass(frozen=True)
class SolveConfig:
    rtol: float = 1e-7
    max_iterations: int = 1000
    restart: int = 200

    def __post_init__(self):
        if not (0 < self.rtol < 1):
            raise ValueError("rtol must be in (0, 1)")
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SolveRecord:
    iterations: int = 0
    setup_time: float = 0.0
    solve_time: float = 0.0
    residual_history: list = field(default_factory=list)
    converged: bool = False


def _identity(v):
    return v


def _gmres_core(A, b, x0, M, cfg, flexible):
    """Right-preconditioned restarted GMRES (Arnoldi with Givens rotations).

    The flexible variant stores the preconditioned basis Z and forms the
    correction from it, which keeps the iteration valid for nonstationary M.
    """
    t0 = time.perf_counter()
    M = M or _identity
    b = np.asarray(b, dtype=float)
    if x0 is None:
        x, r = np.zeros_like(b), b
    else:
        x = np.asarray(x0, dtype=float).copy()
        r = b - A @ x
    r0_norm = float(np.linalg.norm(r))
    record = SolveRecord(residual_history=[r0_norm])
    # tolerance relative to the right-hand side, so warm starts can shorten
    # (or skip) the iteration
    tol = cfg.rtol * float(np.linalg.norm(b))
    if r0_norm <= tol:
        record.converged = True
        record.solve_time = time.perf_counter() - t0
        return x, record
    total = 0
    broke_down = False
    while total < cfg.max_iterations and not broke_down:
        beta = float(np.linalg.norm(r))
        m = min(cfg.restart, cfg.max_iterations - total)
        V = np.empty((m + 1, b.size))
        Z = np.empty((m, b.size)) if flexible else None
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = r / beta
        j_used = 0
        for j in range(m):
            z = M(V[j])
            if flexible:
                Z[j] = z
            w = A @ z
            # modified Gram-Schmidt, in place: daxpy updates w in its own
            # storage, with no temporary for H[i, j] * V[i]
            for i in range(j + 1):
                H[i, j] = ddot(V[i], w)
                w = daxpy(V[i], w, a=-H[i, j])
            H[j + 1, j] = float(np.linalg.norm(w))
            breakdown = H[j + 1, j] < BREAKDOWN_TOL
            if not breakdown:
                V[j + 1] = w / H[j + 1, j]
            # apply accumulated Givens rotations, then a new one
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j] = H[j, j] / denom if denom else 1.0
            sn[j] = H[j + 1, j] / denom if denom else 0.0
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            j_used = j + 1
            record.residual_history.append(abs(g[j + 1]))
            if abs(g[j + 1]) <= tol or breakdown or total >= cfg.max_iterations:
                broke_down = breakdown
                break
        # solve the triangular least-squares system and update x
        if j_used > 0:
            y = np.linalg.solve(np.triu(H[:j_used, :j_used]), g[:j_used])
            if flexible:
                dx = Z[:j_used].T @ y
            else:
                dx = M(V[:j_used].T @ y)
            x = x + dx
        r = b - A @ x
        record.residual_history[-1] = float(np.linalg.norm(r))
        if record.residual_history[-1] <= tol:
            break
    record.iterations = total
    # the last history entry is always ||b - A x|| of the returned x
    record.converged = record.residual_history[-1] <= tol
    record.solve_time = time.perf_counter() - t0
    return x, record


def gmres_solve(A, b, x0=None, M=None, cfg=None):
    """Restarted GMRES; M must be a fixed linear operator (callable)."""
    cfg = cfg or SolveConfig()
    return _gmres_core(A, b, x0, M, cfg, flexible=False)


def fgmres_solve(A, b, x0=None, M=None, cfg=None):
    """Flexible GMRES; M may change between applications (e.g. inner Krylov)."""
    cfg = cfg or SolveConfig()
    return _gmres_core(A, b, x0, M, cfg, flexible=True)
