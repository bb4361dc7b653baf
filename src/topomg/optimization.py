"""Objectives, sensitivities, MMA updates, and the continuation-driven loop.

Compliance minimization and buckling-stability optimization share the same
machinery: filter the design, assemble operators, build a multigrid
preconditioner, solve (warm-started), differentiate, update with MMA. A pure
AMG run aggregates once, at its first step; every later step re-smooths the
kept tentative prolongations with its own operator.
"""

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import krylov
from .eigensolver import DavidsonConfig, generalized_davidson
from .material import PenaltySchedule, SimpLaw, StressSimpLaw
from .mesh import (assemble_stiffness, assemble_stress_stiffness, element_stiffness,
                   geometric_stiffness_tensor, rigid_body_modes, stiffness_operator)
from .multigrid import (Aggregates, MgHierarchy, SmootherConfig, build_hybrid,
                        geometric_levels)

# exponent of the p-norm aggregate of the buckling eigenvalues
P_NORM = 8
# MMA (Svanberg 1987): design bounds, move limit as a fraction of their span,
# the initial asymptote distance and the asymptote growth and shrink factors
# on non-oscillating and oscillating variables, and the most dual bisection
# steps
MMA_XMIN, MMA_XMAX = 0.0, 1.0
MMA_MOVE_LIMIT = 0.2
MMA_ASYMPTOTE_INIT = 0.5
MMA_ASYMPTOTE_GROW = 1.2
MMA_ASYMPTOTE_SHRINK = 0.7
MMA_BISECTION_ITERATIONS = 100

# preconditioner strategies of SolverHarness
STRATEGIES = ("gmg", "amg", "hybrid", "hybrid_adaptive", "none")
# a 'hybrid_adaptive' run gives up one geometric level after a design step
# whose slowest solve took more than ADAPTIVE_ITERATIONS iterations, down to
# ADAPTIVE_MIN_GEO geometric levels
ADAPTIVE_ITERATIONS = 200
ADAPTIVE_MIN_GEO = 2


def adapted_depth(n_geo, iterations):
    """The adaptive strategy's geometric depth after a design step whose
    slowest solve took `iterations`."""
    if iterations > ADAPTIVE_ITERATIONS and n_geo > ADAPTIVE_MIN_GEO:
        return n_geo - 1
    return n_geo


@dataclass
class DesignState:
    alpha: np.ndarray
    rho: np.ndarray
    penalty: float
    objective: float = np.nan
    sensitivity_alpha: np.ndarray | None = None
    volume_fraction: float = np.nan


class SolveFailed(RuntimeError):
    """A solve did not converge; `record` is its SolveRecord or EigenResult."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record


def _check_converged(what, record, n_modes=None):
    """Raise SolveFailed unless a Krylov solve converged or, given n_modes, an
    eigensolve converged all of them."""
    if n_modes is None and not record.converged:
        raise SolveFailed("%s failed to converge (%d iterations, final residual %.3e)"
                          % (what, record.iterations, record.residual_history[-1]),
                          record)
    if n_modes is not None and record.converged_count < n_modes:
        raise SolveFailed("%s failed to converge (%d of %d modes in %d iterations)"
                          % (what, record.converged_count, n_modes, record.iterations),
                          record)


# ---------------------------------------------------------------------------
# preconditioned solver harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverHarness:
    """Builds a multigrid preconditioner for each operator and runs GMRES.

    A frozen value: `build` and `solve` never change it. strategy: one of
    STRATEGIES. 'hybrid_adaptive' builds at n_geo, clamped to
    [ADAPTIVE_MIN_GEO, levels - 1]. `aggregates` are those of an earlier
    'amg' build; an 'amg' build refreshes them on its operator instead of
    aggregating again (`build_hybrid`'s `like`). `run_optimization` moves
    both from one design step to the next by replacing the harness.
    """

    mesh: object
    strategy: str = "amg"
    coarse_max_dofs: int = 200
    n_geo: int = 2
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    solve_cfg: krylov.SolveConfig = field(default_factory=krylov.SolveConfig)
    fixed_dofs: np.ndarray | None = None
    seed: int = 0
    aggregates: Aggregates | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError("unknown preconditioner strategy %r" % self.strategy)
        if self.strategy == "hybrid_adaptive":
            n_levels = len(geometric_levels(self.mesh, self.coarse_max_dofs))
            object.__setattr__(self, "n_geo",
                               max(ADAPTIVE_MIN_GEO, min(self.n_geo, n_levels - 1)))

    def build(self, K, moduli=None):
        """The strategy's point on the n_geo axis of `build_hybrid`, built;
        returns (hierarchy, seconds). `moduli`, the element moduli K was
        assembled from, let the first geometric level's coarse operator be
        built from them. 'none' has no preconditioner: its hierarchy has no
        levels and applies the identity."""
        t0 = time.perf_counter()
        if self.strategy == "none":
            return MgHierarchy([]), time.perf_counter() - t0
        n_geo = {"amg": 0, "gmg": None}.get(self.strategy, self.n_geo)
        B = (rigid_body_modes(self.mesh, self.fixed_dofs)
             if n_geo == 0 and self.aggregates is None else None)
        h = build_hybrid(self.mesh, K, B, n_geo, self.coarse_max_dofs, self.smoother,
                         seed=self.seed, like=self.aggregates, moduli=moduli)
        return h, time.perf_counter() - t0

    def solve(self, K, f, x0=None, hierarchy=None, moduli=None):
        """Solve K x = f; returns (x, SolveRecord, hierarchy). Without
        `hierarchy`, one is built for K, from `moduli` too if given (see
        `build`). Given `moduli`, one `stiffness_operator` of K takes both
        GMRES's products and the finest V-cycle level's residuals."""
        setup = 0.0
        if hierarchy is None:
            hierarchy, setup = self.build(K, moduli)
        A, M = K, hierarchy.apply
        if moduli is not None:
            A = stiffness_operator(self.mesh, K, moduli)
            M = functools.partial(hierarchy.apply, A=A)
        # a nonstationary smoother makes the V-cycle change between
        # applications, which only flexible GMRES allows
        solve = krylov.gmres_solve if self.smoother.stationary else krylov.fgmres_solve
        x, rec = solve(A, f, x0, M, self.solve_cfg)
        rec.setup_time = setup
        return x, rec, hierarchy


# ---------------------------------------------------------------------------
# objective and sensitivities
# ---------------------------------------------------------------------------

def element_strain_energies(mesh, u):
    """Per-element u_e^T k_hat u_e with k_hat the unit-modulus element matrix."""
    ue = u[mesh.element_dofs()]
    return np.sum((ue @ element_stiffness(mesh)) * ue, axis=1)


def compliance_and_sensitivity(mesh, bc, filt, law, alpha, harness, u0=None):
    """Compliance F = f^T u and its design sensitivity via the adjoint identity.

    Returns (F, dF/dalpha, aux) where aux carries u, K, the solve record and
    the hierarchy for reuse. Raises SolveFailed if the solve does not
    converge.
    """
    rho = filt.apply(alpha)
    E = law.modulus(rho)
    K = assemble_stiffness(mesh, bc, E)
    u, rec, hierarchy = harness.solve(K, bc.load_vector, u0, moduli=E)
    _check_converged("displacement solve", rec)
    F = float(bc.load_vector @ u)
    dF_drho = -law.modulus_derivative(rho) * element_strain_energies(mesh, u)
    dF_dalpha = filt.apply_transpose(dF_drho)
    aux = {"u": u, "K": K, "record": rec, "hierarchy": hierarchy, "rho": rho}
    return F, dF_dalpha, aux


def _mode_contractions(mesh, phi):
    """(n_el, nd) array of phi_e^T G[k] phi_e, with G the geometric stiffness
    tensor: one product of the elements' outer products phi_e phi_e^T with G."""
    phie = phi[mesh.element_dofs()]
    nd = phie.shape[1]
    outer = (phie[:, :, None] * phie[:, None, :]).reshape(-1, nd * nd)
    return outer @ geometric_stiffness_tensor(mesh).reshape(nd, nd * nd).T


def adjoint_rhs(mesh, phi, element_sigma_moduli, fixed_dofs=None):
    """Right-hand side Phi^T (dK_sigma/du) Phi of the eigen-adjoint equation."""
    edof = mesh.element_dofs()
    ge = _mode_contractions(mesh, phi)
    ge *= np.asarray(element_sigma_moduli, dtype=float)[:, None]
    rhs = np.bincount(edof.ravel(), ge.ravel(), mesh.total_dofs)
    if fixed_dofs is not None:
        rhs[np.asarray(fixed_dofs, dtype=np.int64)] = 0.0
    return rhs


def eigenvalue_sensitivity(mesh, law, stress_law, rho, u, lam, phi, v):
    """d(lambda)/d(rho) for one K-normalized buckling mode, adjoint term included."""
    ke = element_stiffness(mesh)
    edof = mesh.element_dofs()
    ue = u[edof]
    phie = phi[edof]
    geo_quad = np.sum(ue * _mode_contractions(mesh, phi), axis=1)
    stiff_quad = np.sum((phie @ ke) * phie, axis=1)
    cross = np.sum((v[edof] @ ke) * ue, axis=1)
    dE = law.modulus_derivative(rho)
    dEs = stress_law.modulus_derivative(rho)
    return dEs * geo_quad - lam * dE * stiff_quad - dE * cross


def pnorm_aggregate(lams, p=P_NORM):
    lams = np.asarray(lams, dtype=float)
    return float((np.sum(lams ** p)) ** (1.0 / p))


def stability_objective_and_sensitivity(mesh, bc, filt, law, stress_law, alpha,
                                        harness, eig_cfg=None, u0=None,
                                        initial_space=None):
    """Aggregated buckling objective F = (sum lambda_i^8)^(1/8) and dF/dalpha.

    One adjoint solve per mode, all started from zero. Returns (F, dF/dalpha, aux)
    with the eigensolver result, the state solve's record and the adjoint
    solves' summed and largest iteration counts in aux. Raises SolveFailed
    if the displacement solve, an adjoint solve or the eigensolve does not
    converge.
    """
    eig_cfg = eig_cfg or DavidsonConfig()
    rho = filt.apply(alpha)
    E = law.modulus(rho)
    Es = stress_law.modulus(rho)
    K = assemble_stiffness(mesh, bc, E)
    u, rec, hierarchy = harness.solve(K, bc.load_vector, u0, moduli=E)
    _check_converged("displacement solve", rec)
    Ks = assemble_stress_stiffness(mesh, bc, u, Es)
    t_eig = time.perf_counter()
    eig = generalized_davidson(Ks, K, hierarchy.apply, eig_cfg, initial_space)
    t_eig = time.perf_counter() - t_eig
    _check_converged("eigensolve", eig, eig_cfg.n_modes)
    n_used = eig.eigenvalues.size
    dlam = np.zeros((n_used, mesh.element_count))
    adjoint_iters = adjoint_slowest = 0
    t_adj = time.perf_counter()
    for i in range(n_used):
        phi = eig.eigenvectors[:, i]
        rhs = adjoint_rhs(mesh, phi, Es, bc.fixed_dofs)
        v, arec, _ = harness.solve(K, rhs, x0=None, hierarchy=hierarchy, moduli=E)
        _check_converged("adjoint solve %d" % i, arec)
        adjoint_iters += arec.iterations
        adjoint_slowest = max(adjoint_slowest, arec.iterations)
        dlam[i] = eigenvalue_sensitivity(mesh, law, stress_law, rho, u,
                                         eig.eigenvalues[i], phi, v)
    t_adj = time.perf_counter() - t_adj
    lams = eig.eigenvalues
    F = pnorm_aggregate(lams, P_NORM)
    weights = F ** (1 - P_NORM) * lams ** (P_NORM - 1)
    dF_drho = weights @ dlam
    dF_dalpha = filt.apply_transpose(dF_drho)
    aux = {"u": u, "K": K, "Ks": Ks, "record": rec, "hierarchy": hierarchy,
           "eig": eig, "eig_time": t_eig, "adjoint_time": t_adj,
           "adjoint_iterations": adjoint_iters, "adjoint_slowest": adjoint_slowest,
           "rho": rho}
    return F, dF_dalpha, aux


# ---------------------------------------------------------------------------
# MMA
# ---------------------------------------------------------------------------

@dataclass
class MmaState:
    """Moving asymptotes plus the two previous designs."""

    low: np.ndarray | None = None
    upp: np.ndarray | None = None
    x_prev1: np.ndarray | None = None
    x_prev2: np.ndarray | None = None


def _dual_bisection(constraint, mu_lo, mu_hi):
    """Bisect [mu_lo, mu_hi], where constraint(mu_lo) > 0 >= constraint(mu_hi),
    for at most MMA_BISECTION_ITERATIONS steps; returns mu_hi.

    Both inequalities hold at every step, so once the midpoint equals an end
    every later step leaves the bracket as it is: stopping there returns the
    same mu_hi as running all the steps.
    """
    for _ in range(MMA_BISECTION_ITERATIONS):
        mu = 0.5 * (mu_lo + mu_hi)
        if mu in (mu_lo, mu_hi):
            break
        if constraint(mu) > 0.0:
            mu_lo = mu
        else:
            mu_hi = mu
    return mu_hi


def mma_update(x, dfdx, g, dgdx, state):
    """One MMA step with a single inequality constraint, solved in the dual.

    g and dgdx describe the constraint g(x) <= 0 linearized at x. Returns the
    new design; state is updated in place.
    """
    x = np.asarray(x, dtype=float)
    dfdx = np.asarray(dfdx, dtype=float)
    dgdx = np.asarray(dgdx, dtype=float)
    if not (np.all(np.isfinite(dfdx)) and np.all(np.isfinite(dgdx))):
        raise ValueError("non-finite sensitivities passed to MMA")
    span = MMA_XMAX - MMA_XMIN
    if state.x_prev2 is None:
        low = x - MMA_ASYMPTOTE_INIT * span
        upp = x + MMA_ASYMPTOTE_INIT * span
    else:
        osc = (x - state.x_prev1) * (state.x_prev1 - state.x_prev2)
        gamma = np.where(osc > 0, MMA_ASYMPTOTE_GROW,
                         np.where(osc < 0, MMA_ASYMPTOTE_SHRINK, 1.0))
        low = x - gamma * (state.x_prev1 - state.low)
        upp = x + gamma * (state.upp - state.x_prev1)
        low = np.clip(low, x - 10.0 * span, x - 0.01 * span)
        upp = np.clip(upp, x + 0.01 * span, x + 10.0 * span)

    move = MMA_MOVE_LIMIT * span
    alfa = np.maximum.reduce([np.full_like(x, MMA_XMIN), low + 0.1 * (x - low), x - move])
    beta = np.minimum.reduce([np.full_like(x, MMA_XMAX), upp - 0.1 * (upp - x), x + move])

    raa0 = 1e-5
    df_pos = np.maximum(dfdx, 0.0)
    df_neg = np.maximum(-dfdx, 0.0)
    p0 = (upp - x) ** 2 * (1.001 * df_pos + 0.001 * df_neg + raa0 / span)
    q0 = (x - low) ** 2 * (0.001 * df_pos + 1.001 * df_neg + raa0 / span)
    dg_pos = np.maximum(dgdx, 0.0)
    dg_neg = np.maximum(-dgdx, 0.0)
    p1 = (upp - x) ** 2 * dg_pos
    q1 = (x - low) ** 2 * dg_neg
    r1 = g - np.sum(p1 / (upp - x) + q1 / (x - low))

    def primal(mu):
        P = p0 + mu * p1
        Q = q0 + mu * q1
        sp_ = np.sqrt(P)
        sq_ = np.sqrt(Q)
        xs = (low * sp_ + upp * sq_) / (sp_ + sq_)
        return np.clip(xs, alfa, beta)

    def constraint(mu):
        xs = primal(mu)
        return r1 + np.sum(p1 / (upp - xs) + q1 / (xs - low))

    if constraint(0.0) <= 0.0:
        x_new = primal(0.0)
    else:
        mu_lo, mu_hi = 0.0, 1.0
        grow = 0
        while constraint(mu_hi) > 0.0:
            mu_lo = mu_hi
            mu_hi *= 10.0
            grow += 1
            if grow > 60:
                raise RuntimeError("MMA dual bracket expansion failed; state: "
                                   f"g={g:.3e}, mu_hi={mu_hi:.3e}")
        x_new = primal(_dual_bisection(constraint, mu_lo, mu_hi))

    state.low = low
    state.upp = upp
    state.x_prev2 = state.x_prev1
    state.x_prev1 = x.copy()
    return x_new


# ---------------------------------------------------------------------------
# optimization loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizationProblem:
    mesh: object
    bc: object
    filt: object
    schedule: PenaltySchedule
    volume_fraction: float
    harness: SolverHarness
    mode: str = "compliance"  # compliance | stability
    eig_cfg: DavidsonConfig | None = None

    def __post_init__(self):
        if self.mode not in ("compliance", "stability"):
            raise ValueError("unknown optimization mode %r" % self.mode)


def run_optimization(problem, callback=None):
    """Continuation loop; returns (history, final DesignState).

    history is one dict per iteration with the timing/iteration columns used
    by the benchmark CSV plus objective and volume. A step's operators (K,
    the hierarchy and, in stability mode, K_sigma) are released once the
    callback returns, so the next step assembles and builds without them.
    A run's solver state is its harness, a frozen value: the run starts from
    `problem.harness` and, after each step, replaces it with one that carries
    the step hierarchy's `aggregates` (None but for pure AMG, which so
    aggregates only at its first step) and, for 'hybrid_adaptive', the
    `adapted_depth` of the step's slowest solve, so the depth drops at most
    one level per step. Every run of a problem starts alike. The final
    DesignState holds the returned alpha and its filtered rho, but the
    objective and sensitivity of the last evaluated design, the one before
    the last MMA update.
    """
    mesh = problem.mesh
    harness = problem.harness
    n_el = mesh.element_count
    alpha = np.full(n_el, problem.volume_fraction)
    mma = MmaState()
    history = []
    u_prev = None
    eig_prev = None
    volume_grad = problem.filt.apply_transpose(np.full(n_el, 1.0 / n_el))
    state = None
    for step, penalty in enumerate(problem.schedule.flat()):
        law = SimpLaw(penalty=penalty)
        if problem.mode == "compliance":
            F, dF, aux = compliance_and_sensitivity(
                mesh, problem.bc, problem.filt, law, alpha, harness, u0=u_prev)
        else:
            stress_law = StressSimpLaw(penalty=penalty)
            F, dF, aux = stability_objective_and_sensitivity(
                mesh, problem.bc, problem.filt, law, stress_law, alpha,
                harness, problem.eig_cfg, u0=u_prev, initial_space=eig_prev)
            eig_prev = aux["eig"].eigenvectors
        u_prev = aux["u"]
        rho = aux["rho"]
        vol = float(np.mean(rho))
        state = DesignState(alpha=alpha.copy(), rho=rho, penalty=penalty,
                            objective=F, sensitivity_alpha=dF,
                            volume_fraction=vol)
        rec = aux["record"]
        hier = aux["hierarchy"]
        n_geo = harness.n_geo
        if harness.strategy == "hybrid_adaptive":
            n_geo = adapted_depth(n_geo, max(rec.iterations, aux.get("adjoint_slowest", 0)))
        harness = replace(harness, n_geo=n_geo, aggregates=hier.aggregates)
        row = {
            "step": step,
            "penalty": penalty,
            "strategy": harness.strategy,
            "levels": hier.n_levels,
            "n_geo": hier.n_geometric,
            "setup_s": rec.setup_time,
            "solve_s": rec.solve_time,
            "solve_iters": rec.iterations,
            "eig_s": aux.get("eig_time", ""),
            "eig_iters": aux["eig"].iterations if "eig" in aux else "",
            "adjoint_s": aux.get("adjoint_time", ""),
            "adjoint_iters": aux.get("adjoint_iterations", ""),
            "objective": F,
            "volume": vol,
            "flags": ";".join(hier.flags),
        }
        history.append(row)
        if callback is not None:
            callback(step, state, aux)
        del aux, hier
        g = vol - problem.volume_fraction
        alpha = mma_update(alpha, dF, g, volume_grad, mma)
    # refresh the reported state for the final accepted design
    if state is not None:
        rho = problem.filt.apply(alpha)
        state = DesignState(alpha=alpha, rho=rho, penalty=state.penalty,
                            objective=state.objective,
                            sensitivity_alpha=state.sensitivity_alpha,
                            volume_fraction=float(np.mean(rho)))
    return history, state
