"""The four benchmark workloads: set-up, one timed round, and output checks.

A round runs a workload's operations (design steps or lattice solves) one
after another with a single caller. Checks run between operations with the
clock stopped, or after all rounds, and compare the program's outputs with
computations made here: residuals recomputed from K, direct solves, an
``eigsh`` of the same pencil, finite differences and method properties.

Every topomg function is reached through its module attribute
(``optimization.run_optimization``), so the tracer's wrappers are the ones
called when tracing is on.
"""

import re
import time

import numpy as np
import scipy.sparse.linalg as spla

from topomg import bench, eigensolver, krylov, material, mesh, optimization
from topomg.krylov import SolveConfig

from spans import replace_everywhere, restore


class Laps:
    """Operation clock that leaves out the time spent in checks."""

    def __init__(self):
        self.laps = []
        self.wall = 0.0
        self._t = time.perf_counter()

    def lap(self):
        """Close the running operation; the clock stops until ``resume``."""
        now = time.perf_counter()
        self.laps.append(now - self._t)
        self.wall += now - self._t

    def resume(self):
        self._t = time.perf_counter()

    def stop(self):
        """Add the time since the last resume to the wall time only."""
        self.wall += time.perf_counter() - self._t


class SolveLog:
    """Records ``converged`` for every Krylov solve while installed."""

    def __init__(self):
        self.converged = []
        self._patches = []

    def __enter__(self):
        for fn in (krylov.gmres_solve, krylov.fgmres_solve):
            self._patches += replace_everywhere(fn, self._logged(fn))
        return self

    def __exit__(self, *exc):
        restore(self._patches)
        self._patches.clear()

    def _logged(self, fn):
        def logged(*args, **kwargs):
            x, rec = fn(*args, **kwargs)
            self.converged.append(rec.converged)
            return x, rec
        return logged

    def take(self):
        out, self.converged = self.converged, []
        return out


def residual_ok(K, u, f, rtol):
    """The solver's own stopping test, recomputed: ||f - K u|| <= rtol ||f||."""
    return bool(np.linalg.norm(f - K @ u) <= rtol * np.linalg.norm(f))


def free_block(A, bc):
    free = np.flatnonzero(bc.free_mask)
    return A[free][:, free].tocsc()


class Workload:
    """One workload; subclasses fill in set-up, the round and its checks.

    ``setup`` is the once-per-mesh work timed for ``setup_s``. ``run_round``
    returns (Laps, per-operation ok flags, fingerprint); the fingerprint holds
    the iteration counts and objectives that repeat exactly between rounds.
    ``first`` asks for the heavier checks, which run in the first round only.
    """

    name = ""
    ops_per_round = 0

    def setup(self, seed):
        raise NotImplementedError

    def run_round(self, ctx, first):
        raise NotImplementedError

    def deferred_checks(self, ctx, ok):
        """Checks run after the peak-memory reading; they update ``ok``."""


class OptimizationWorkload(Workload):
    """A continuation run: one operation per design step.

    A step's time runs from the end of the previous step's checks to the
    callback, so it covers the previous MMA update, assembly, multigrid
    set-up, the solves and the sensitivities.
    """

    problem = ""  # name of the bench.*_problem function
    dims = ()
    schedule = None
    rtol = 1e-7
    strategy = "amg"
    volume_fraction = 0.4
    mode = "compliance"
    eig_cfg = None

    @property
    def ops_per_round(self):
        return self.schedule.total_iterations()

    def setup(self, seed):
        m, bc = getattr(bench, self.problem)(self.dims)
        filt = mesh.build_filter(m, 1.5)
        harness = optimization.SolverHarness(
            mesh=m, strategy=self.strategy, n_geo=2, coarse_max_dofs=200,
            solve_cfg=SolveConfig(rtol=self.rtol), fixed_dofs=bc.fixed_dofs,
            seed=seed)
        problem = optimization.OptimizationProblem(
            mesh=m, bc=bc, filt=filt, schedule=self.schedule,
            volume_fraction=self.volume_fraction, harness=harness, mode=self.mode,
            eig_cfg=self.eig_cfg)
        return {"problem": problem, "seed": seed}

    def run_round(self, ctx, first):
        ok = [False] * self.ops_per_round
        fingerprint = []
        laps = Laps()

        def callback(step, state, aux):
            laps.lap()
            ok[step] = self.check_step(ctx, step, state, aux, first)
            fingerprint.append((aux["record"].iterations, state.objective))
            laps.resume()

        try:
            _, final = optimization.run_optimization(ctx["problem"], callback)
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            print("%s: round aborted: %r" % (self.name, exc), flush=True)
            return laps, [False] * self.ops_per_round, fingerprint
        laps.stop()
        ok[-1] = ok[-1] and self.check_final(ctx, final)
        return laps, ok, fingerprint

    def check_final(self, ctx, final):
        return True


class Cantilever2d(OptimizationWorkload):
    """96x48 compliance continuation with SA-AMG: set-up dominates each step."""

    name = "cantilever2d"
    problem = "cantilever2d_problem"
    dims = (96, 48)
    schedule = material.PenaltySchedule(start=1.0, stop=4.0, increment=0.5,
                                        steps_per_value=5)
    fd_step = 12

    def check_step(self, ctx, step, state, aux, first):
        bc = ctx["problem"].bc
        f = bc.load_vector
        ok = residual_ok(aux["K"], aux["u"], f, self.rtol)
        if first and step == self.ops_per_round - 1:
            u_direct = spla.spsolve(aux["K"].tocsc(), f)
            F_direct = float(f @ u_direct)
            ok &= abs(state.objective - F_direct) <= 1e-6 * F_direct
        if first and step == self.fd_step:
            ok &= self.check_gradient(ctx, state)
        return bool(ok)

    def check_gradient(self, ctx, state):
        """Central difference of the compliance (direct solves) along a random
        direction against the adjoint sensitivity."""
        p = ctx["problem"]
        law = material.SimpLaw(penalty=state.penalty)
        h = 1e-4
        # a direction that keeps alpha +- h d inside [0, 1]
        inside = (state.alpha > h) & (state.alpha < 1 - h)
        d = np.random.default_rng(ctx["seed"]).uniform(-1, 1, state.alpha.size) * inside

        def compliance(alpha):
            K = mesh.assemble_stiffness(p.mesh, p.bc, law.modulus(p.filt.apply(alpha)))
            return float(p.bc.load_vector @ spla.spsolve(K.tocsc(), p.bc.load_vector))

        fd = (compliance(state.alpha + h * d) - compliance(state.alpha - h * d)) / (2 * h)
        adjoint = float(state.sensitivity_alpha @ d)
        return abs(fd - adjoint) <= 1e-5 * abs(fd)

    def check_final(self, ctx, final):
        vol = float(np.mean(ctx["problem"].filt.matrix @ final.alpha))
        return vol <= self.volume_fraction + 1e-3 and abs(vol - final.volume_fraction) < 1e-12


class Column(OptimizationWorkload):
    """32x128 buckling stability with SA-AMG: one hierarchy serves the state
    solve, the Davidson expansions and six adjoint solves per step."""

    name = "column"
    problem = "column_problem"
    dims = (32, 128)
    schedule = material.PenaltySchedule(start=1.0, stop=2.0, increment=0.5,
                                        steps_per_value=1)
    rtol = 1e-8
    mode = "stability"
    n_modes = 6
    p_norm = 8
    eig_cfg = eigensolver.DavidsonConfig(n_modes=n_modes, seed=0)

    def setup(self, seed):
        # The inputs do not depend on the seed: with a seeded Davidson start
        # the final Rayleigh-Ritz extraction returns wrong eigenpairs on some
        # seeds (see README), which would make the failed share seed-dependent.
        return super().setup(0)

    def run_round(self, ctx, first):
        with SolveLog() as log:
            ctx["solve_log"] = log
            return super().run_round(ctx, first)

    def check_step(self, ctx, step, state, aux, first):
        bc = ctx["problem"].bc
        K, Ks, eig = aux["K"], aux["Ks"], aux["eig"]
        converged = ctx["solve_log"].take()
        # the state solve and one adjoint solve per mode, all converged
        ok = (len(converged) == 1 + self.n_modes and all(converged)
              and residual_ok(K, aux["u"], bc.load_vector, self.rtol)
              and eig.converged_count == self.n_modes)
        lam, phi = eig.eigenvalues, eig.eigenvectors
        if lam.size != self.n_modes:
            return False
        KsPhi = Ks @ phi
        res = np.linalg.norm(KsPhi - (K @ phi) * lam, axis=0) / np.linalg.norm(KsPhi, axis=0)
        gram = phi.T @ (K @ phi)
        # Modes locked on a stalled eigenvalue keep residuals near 1e-4; a Ritz
        # value's error goes with the residual squared, so 1e-3 still bounds
        # it near the 1e-6 of the eigsh comparison below.
        ok &= bool(np.all(res <= 1e-3)) and np.abs(gram - np.eye(lam.size)).max() <= 1e-8
        pnorm = float(np.sum(lam ** self.p_norm) ** (1.0 / self.p_norm))
        ok &= abs(state.objective - pnorm) <= 1e-12 * pnorm
        if first:
            ref = spla.eigsh(free_block(Ks, bc), k=self.n_modes, M=free_block(K, bc),
                             which="LA", return_eigenvectors=False)
            ok &= np.allclose(np.sort(lam), np.sort(ref), rtol=1e-6, atol=0.0)
        return bool(ok)


class Cantilever3d(OptimizationWorkload):
    """48x24x24 compliance steps (92k dofs) with the hybrid hierarchy: assembly
    and its memory dominate."""

    name = "cantilever3d"
    problem = "cantilever3d_problem"
    dims = (48, 24, 24)
    schedule = material.PenaltySchedule(start=1.0, stop=2.0, increment=0.5,
                                        steps_per_value=1)
    strategy = "hybrid"
    volume_fraction = 0.12

    def check_step(self, ctx, step, state, aux, first):
        K, u, f = aux["K"], aux["u"], ctx["problem"].bc.load_vector
        energy = float(u @ (K @ u))
        ok = (residual_ok(K, u, f, self.rtol) and energy > 0
              and abs(state.objective - energy) <= 1e-6 * energy)
        if first:
            ok &= abs(K - K.T).max() <= 1e-12 * abs(K).max()
        return bool(ok)


class Grid264(Workload):
    """Lattice diagnostic at domain 264, feature width 4: three single solves
    where GMRES dominates. GMG at (128, 8) is left out: it does not converge
    in 1000 iterations (see README)."""

    name = "grid264"
    domain = 264
    width = 4
    # (strategy, column pitch, beam pitch)
    points = (("amg", 128, 8), ("gmg", 8, 8), ("hybrid", 8, 8))
    ops_per_round = len(points)
    rtol = 1e-8
    provenance = {"amg": "a+", "gmg": "g+", "hybrid": "g+a+"}

    def setup(self, seed):
        m, bc = bench.grid_problem(self.domain)
        rhos = [bench.generate_grid_structure(bench.GridSpec(
            domain=self.domain, feature_width=self.width, column_pitch=px,
            beam_pitch=py)) for _, px, py in self.points]
        harnesses = [optimization.SolverHarness(
            mesh=m, strategy=s, n_geo=2, coarse_max_dofs=200,
            solve_cfg=SolveConfig(rtol=self.rtol, max_iterations=1000),
            fixed_dofs=bc.fixed_dofs, seed=seed) for s, _, _ in self.points]
        return {"mesh": m, "bc": bc, "rhos": rhos, "harnesses": harnesses}

    def run_round(self, ctx, first):
        m, bc = ctx["mesh"], ctx["bc"]
        f = bc.load_vector
        laps = Laps()
        ok, fingerprint = [], []
        for (strategy, _, _), rho, harness in zip(self.points, ctx["rhos"],
                                                  ctx["harnesses"]):
            laps.resume()
            try:
                K = mesh.assemble_stiffness(m, bc, rho)
                x, rec, hier = harness.solve(K, f)
            except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
                laps.lap()
                print("%s: %s solve failed: %r" % (self.name, strategy, exc), flush=True)
                ok.append(False)
                continue
            laps.lap()
            kinds = "".join(lv["provenance"][0] for lv in hier.summary()[:-1])
            ok.append(bool(rec.converged and residual_ok(K, x, f, self.rtol)
                           and re.fullmatch(self.provenance[strategy], kinds)))
            fingerprint.append((rec.iterations, float(f @ x)))
            if first and strategy == "amg":
                ctx["direct_check"] = (rho, float(f @ x))
        return laps, ok, fingerprint

    def deferred_checks(self, ctx, ok):
        """Compliance of the AMG point against a direct solve (about 5 s)."""
        if "direct_check" not in ctx:
            return
        rho, F = ctx.pop("direct_check")
        bc = ctx["bc"]
        K = mesh.assemble_stiffness(ctx["mesh"], bc, rho)
        F_direct = float(bc.load_vector @ spla.spsolve(K.tocsc(), bc.load_vector))
        ok[0] = ok[0] and abs(F - F_direct) <= 1e-6 * F_direct


WORKLOADS = {w.name: w for w in (Cantilever2d(), Grid264(), Column(), Cantilever3d())}
