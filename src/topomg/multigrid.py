"""Multigrid hierarchies and V-cycle preconditioning.

One builder, `build_hybrid`, coarsens the finest n_geo levels geometrically
and the rest by smoothed aggregation (strength graph, greedy node
aggregation, smoothed tentative prolongation from rigid-body-mode
candidates). Its two ends are pure SA-AMG (n_geo=0, `build_sa_amg`) and pure
GMG (n_geo=None, `build_gmg`). The geometric levels are meshes
(`geometric_levels`): the mesh module owns how a structured grid coarsens
(`StructuredMesh.coarsened`) and its shape-function transfer
(`StructuredMesh.prolongation`).

Every coarse operator is the Galerkin product P^T A P: a sparse triple
product, or for the first geometric level of a build given the element
moduli, the mesh module's assembly of Galerkin-coarsened element matrices
(`coarsened_stiffness`). The coarsest operator is factorized once at build
time.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import krylov
from .mesh import coarsened_stiffness, rigid_body_modes

# strength threshold and level cap of smoothed aggregation (Vanek, Mandel &
# Brezina 1996), and the power-method steps of every spectral-radius estimate
DEFAULT_STRENGTH_BETA = 0.003
MAX_SA_LEVELS = 30
POWER_ITERATIONS = 10
# a Galerkin product whose fine operator stores at least this fraction of its
# n^2 entries runs dense; SA tail levels reach 47-98 %, and dense lost to the
# sparse product at 6 %
DENSE_FRACTION = 0.25


# ---------------------------------------------------------------------------
# smoothers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmootherConfig:
    kind: str = "weighted_jacobi"  # one of SMOOTHER_KINDS
    weight: float = 0.5
    inner_iterations: int = 2      # Chebyshev degree / GMRES steps per correction

    def __post_init__(self):
        if self.kind not in SMOOTHER_KINDS:
            raise ValueError("unknown smoother kind %r" % self.kind)
        if not (0 < self.weight <= 1):
            raise ValueError("smoother weight must be in (0, 1]")
        if self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")

    @property
    def stationary(self):
        """True unless the smoother is SOR-GMRES. The Jacobi smoothers and
        SOR-Chebyshev (a fixed-degree polynomial with fixed bounds) are fixed
        linear operators, so the solver harness runs plain GMRES on their
        V-cycle; SOR-GMRES's inner solve depends on its input and gets
        flexible GMRES."""
        return self.kind != "sor_gmres"


# Every smoother is a correction operator r -> dx: called on a residual
# r = b - A x, it returns the update dx of x. `MgHierarchy.apply`'s V-cycle
# forms the residuals.

class WeightedJacobiSmoother:
    def __init__(self, A, config):
        d = A.diagonal()
        if np.any(d == 0):
            raise ValueError("zero diagonal entry; operator not smoothable")
        self.dinv = 1.0 / d
        self.w = config.weight

    def __call__(self, r):
        return self.w * (self.dinv * r)


class BlockJacobiSmoother:
    """Weighted Jacobi with one dense block per node of bs dofs."""

    def __init__(self, A, config, bs):
        n = A.shape[0]
        if n % bs != 0:
            raise ValueError("matrix size not divisible by block size")
        nb = n // bs
        blocks = np.zeros((nb, bs, bs))
        for a in range(bs):
            for b in range(bs):
                diag = A.diagonal(b - a)
                blocks[:, a, b] = diag[a::bs][:nb] if b >= a else diag[b::bs][:nb]
        dets = np.abs(np.linalg.det(blocks))
        if np.any(dets < 1e-300):
            raise ValueError("singular nodal block in block Jacobi smoother")
        self.binv = np.linalg.inv(blocks)
        self.bs = bs
        self.w = config.weight

    def __call__(self, r):
        rb = r.reshape(-1, self.bs)
        return self.w * np.einsum("nab,nb->na", self.binv, rb).ravel()


class _SorPreconditioner:
    """One forward SOR (Gauss-Seidel) sweep as a preconditioner solve."""

    def __init__(self, A):
        self.L = sp.tril(A, format="csr")
        if np.any(self.L.diagonal() == 0):
            raise ValueError("zero diagonal; SOR sweep undefined")

    def solve(self, v):
        return spla.spsolve_triangular(self.L, v, lower=True)


class SorChebyshevSmoother:
    """Fixed-degree Chebyshev polynomial in the SOR-preconditioned operator.

    Eigenvalue bounds are [0.1, 1.1] times a spectral-radius estimate from
    POWER_ITERATIONS power-method steps.
    """

    def __init__(self, A, config):
        self.A = A
        self.sor = _SorPreconditioner(A)
        self.degree = config.inner_iterations
        lam = estimate_spectral_radius(lambda v: self.sor.solve(A @ v), A.shape[0])
        self.bounds = (0.1 * lam, 1.1 * lam)

    def __call__(self, r):
        lo, hi = self.bounds
        d = (hi + lo) / 2.0
        c = (hi - lo) / 2.0
        p = self.sor.solve(r)
        alpha = 1.0 / d
        dx = alpha * p
        for _ in range(self.degree - 1):
            r = r - alpha * (self.A @ p)
            beta = (c * alpha / 2.0) ** 2
            alpha = 1.0 / (d - beta / alpha)
            p = self.sor.solve(r) + beta * p
            dx = dx + alpha * p
        return dx


class SorGmresSmoother:
    """A few flexible GMRES steps from dx = 0, right-preconditioned by one SOR
    sweep."""

    def __init__(self, A, config):
        self.A = A
        self.sor = _SorPreconditioner(A)
        self.cfg = krylov.SolveConfig(rtol=1e-14, max_iterations=config.inner_iterations,
                                      restart=config.inner_iterations)

    def __call__(self, r):
        return krylov.fgmres_solve(self.A, r, None, self.sor.solve, self.cfg)[0]


_SMOOTHERS = {
    "weighted_jacobi": WeightedJacobiSmoother,
    "block_jacobi": BlockJacobiSmoother,
    "sor_chebyshev": SorChebyshevSmoother,
    "sor_gmres": SorGmresSmoother,
}
SMOOTHER_KINDS = tuple(_SMOOTHERS)


def make_smoother(config, A, block_size):
    """The configured smoother of A; block_size is the level's dofs per node."""
    cls = _SMOOTHERS[config.kind]
    if cls is BlockJacobiSmoother:
        return cls(A, config, block_size)
    return cls(A, config)


# ---------------------------------------------------------------------------
# hierarchy data structures
# ---------------------------------------------------------------------------

@dataclass
class MgLevel:
    A: sp.csr_matrix
    P: sp.csr_matrix | None
    provenance: str  # "geometric" | "algebraic"
    smoother: object  # correction r -> dx; on the coarsest level, the exact solve


# what a later build on another operator reuses of a pure SA build
# (`build_hybrid`'s `like`, `SolverHarness.aggregates`): per level but the
# coarsest, its tentative prolongation T and the dofs per node of its A; and
# the build's flags
Aggregates = namedtuple("Aggregates", "levels flags")


@dataclass
class MgHierarchy:
    """Fine-to-coarse levels, the build's flags and, for pure SA, the aggregates.

    `apply` is a hierarchy's one entry point. Without levels (strategy
    'none') the hierarchy is the identity.
    """

    levels: list
    flags: list = field(default_factory=list)
    aggregates: Aggregates | None = None

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def n_geometric(self):
        return sum(1 for lv in self.levels[:-1] if lv.provenance == "geometric")

    def apply(self, b):
        """One V-cycle with a zero initial guess, the preconditioner M b; a
        hierarchy without levels (strategy 'none') returns b itself."""
        return self._vcycle(b, 0) if self.levels else b

    def _vcycle(self, b, k):
        """The V-cycle on level k: a smoothing correction of b, a coarse
        correction of the residual it leaves, and a smoothing correction of
        the residual left after that."""
        lvl = self.levels[k]
        x = lvl.smoother(b)
        if lvl.P is not None:  # on the coarsest level the correction is exact
            x += lvl.P @ self._vcycle(lvl.P.T @ (b - lvl.A @ x), k + 1)
            x += lvl.smoother(b - lvl.A @ x)
        return x

    def summary(self):
        """Per-level {size, nonzeros, provenance}, JSON-serializable."""
        return [
            {"size": int(lv.A.shape[0]), "nonzeros": int(lv.A.nnz),
             "provenance": lv.provenance}
            for lv in self.levels
        ]


def _galerkin(A, P):
    """P^T A P of CSR A and P, in canonical CSR.

    If A stores at least DENSE_FRACTION of its n^2 entries, the product runs
    on dense arrays (BLAS level 3): it equals P^T A P to rounding, and its
    exact zeros are dropped.

    Below that, P^T A is formed as (A^T P)^T: A^T is a CSC view of A, so only
    P is converted, not A. With its indices sorted, each entry of the product
    sums over the same k in the same order as (P^T @ A) @ P, so the result
    is the same to the bit, and so are the exact zeros the product drops.
    """
    n = A.shape[0]
    if A.nnz >= DENSE_FRACTION * n * n:
        Pd = P.toarray()
        return sp.csr_matrix(Pd.T @ (A.toarray() @ Pd))
    PtA = (A.T @ P).T
    PtA.sort_indices()
    Ac = PtA @ P
    Ac.sum_duplicates()
    return Ac


# ---------------------------------------------------------------------------
# geometric construction
# ---------------------------------------------------------------------------

def geometric_levels(mesh, coarse_max_dofs):
    """The meshes of a geometric hierarchy, fine first: `coarsened()` until a
    mesh has at most coarse_max_dofs dofs or a single element."""
    out = [mesh]
    while out[-1].total_dofs > coarse_max_dofs and out[-1].element_count > 1:
        out.append(out[-1].coarsened())
    return out


def build_gmg(mesh, K, coarse_max_dofs, smoother=None):
    """Geometric hierarchy: bilinear/trilinear transfers, Galerkin coarse ops."""
    return build_hybrid(mesh, K, None, None, coarse_max_dofs, smoother)


# ---------------------------------------------------------------------------
# smoothed aggregation construction
# ---------------------------------------------------------------------------

def strength_of_connection(K, block_size=1):
    """The strong-coupling node adjacency: a CSR matrix of ones, without self
    loops, with edge (i,j) iff the squared nodal-block coupling exceeds
    DEFAULT_STRENGTH_BETA times the product of the diagonal blocks (blocks
    scalarized by Frobenius norm)."""
    K = sp.csr_matrix(K)
    n = K.shape[0]
    if n % block_size != 0:
        raise ValueError("matrix size not divisible by block size")
    nb = n // block_size
    K2 = K.multiply(K)
    if block_size > 1:
        R = sp.kron(sp.identity(nb), np.ones((1, block_size)), format="csr")
        M = (R @ K2 @ R.T).tocsr()  # M[i,j] = ||K_ij||_F^2
    else:
        M = K2.tocsr()
    diag = M.diagonal()
    if np.any(diag == 0):
        raise ValueError("zero diagonal block; input looks unassembled or singular")
    Mc = M.tocoo()
    scale = np.sqrt(diag[Mc.row] * diag[Mc.col])
    keep = (Mc.row != Mc.col) & (Mc.data > DEFAULT_STRENGTH_BETA * scale)
    return sp.coo_matrix((np.ones(np.count_nonzero(keep)),
                          (Mc.row[keep], Mc.col[keep])), shape=(nb, nb)).tocsr()


def aggregate_nodes(adj):
    """Greedy aggregation over the strong-coupling adjacency `adj`.

    Returns (aggregate_ids, flags): a root-node pass, absorption of leftovers
    into neighboring aggregates, then forced pairwise aggregation if the graph
    is too disconnected to make progress.

    Nodes with no strong neighbor become singletons and raise `isolated_nodes`.
    Dirichlet rows are identity rows with no off-diagonal coupling, so every
    fixed node is isolated and the flag fires on uniform designs too (on a
    uniform 96x48 cantilever the 49 isolated nodes are its 49 fixed nodes).
    """
    n = adj.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    indptr, indices = adj.indptr, adj.indices
    n_agg = 0
    # pass 1: roots with fully unaggregated strong neighborhoods
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if nbrs.size == 0:
            continue
        if np.all(agg[nbrs] == -1):
            agg[i] = n_agg
            agg[nbrs] = n_agg
            n_agg += 1
    # pass 2: leftovers join a neighboring aggregate
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        placed = nbrs[agg[nbrs] != -1] if nbrs.size else nbrs
        if placed.size:
            agg[i] = agg[placed[0]]
    flags = []
    unplaced = np.flatnonzero(agg == -1)
    if n_agg == 0:
        # degenerate strength graph: force pairwise aggregation by index
        agg = np.arange(n) // 2
        flags.append("forced_pairwise_aggregation")
        return agg, flags
    if unplaced.size:
        # isolated nodes become singleton aggregates
        for i in unplaced:
            agg[i] = n_agg
            n_agg += 1
        flags.append("isolated_nodes")
    return agg, flags


def _merge_small_aggregates(agg, min_size):
    """Fold aggregates below min_size into an index-adjacent aggregate.

    Undersized aggregates would yield rank-deficient tentative-prolongation
    blocks (zero coarse columns). Every aggregate of `aggregate_nodes` but its
    isolated singletons has at least 2 nodes, and a singleton has no strong
    neighbor to join, so for the min_size of 2 that rigid-body candidates give
    the index neighbor is the only merge target.
    """
    if np.all(np.bincount(agg) >= min_size):
        return agg
    agg = agg.copy()
    while True:
        sizes = np.bincount(agg)
        if sizes.size < 2:
            break
        small = np.flatnonzero(sizes < min_size)
        if small.size == 0:
            break
        a = small[0]
        target = a - 1 if a > 0 else a + 1
        agg[agg == a] = target
        _, agg = np.unique(agg, return_inverse=True)
    return agg


def tentative_prolongation(agg, near_nullspace, block_size):
    """Per-aggregate QR of the restricted candidates.

    Returns (T, coarse_candidates); T has orthonormal columns within each
    aggregate and exactly reproduces the candidate vectors. Aggregates of one
    size share one stacked QR, which runs the same LAPACK routine on each of
    them as a QR per aggregate would.
    """
    B = np.asarray(near_nullspace, dtype=float)
    n, nvec = B.shape
    n_agg = int(agg.max()) + 1
    sizes = np.bincount(agg, minlength=n_agg) * block_size
    if sizes.min() < nvec:
        raise ValueError("aggregate with %d dofs cannot carry %d candidates"
                         % (sizes.min(), nvec))
    # the dofs of every aggregate, aggregate after aggregate, nodes ascending
    order = np.argsort(agg, kind="stable")
    agg_dofs = (order[:, None] * block_size + np.arange(block_size)).ravel()
    starts = np.concatenate(([0], np.cumsum(sizes)))
    Q_rows = np.empty((n, nvec))
    Bc = np.empty((n_agg, nvec, nvec))
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        dofs = agg_dofs[starts[group][:, None] + np.arange(size)]
        Q, Bc[group] = np.linalg.qr(B[dofs])
        Q_rows[dofs] = Q
    # every dof lies in one aggregate, so each row of T has nvec entries
    cols = np.repeat(agg, block_size)[:, None] * nvec + np.arange(nvec)
    T = sp.csr_matrix((Q_rows.ravel(), cols.ravel(), np.arange(n + 1) * nvec),
                      shape=(n, n_agg * nvec))
    return T, Bc.reshape(n_agg * nvec, nvec)


def estimate_spectral_radius(op, n, seed=0):
    """Power-method estimate of the spectral radius of the operator v -> op(v)
    on vectors of size n."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    lam = 1.0
    for _ in range(POWER_ITERATIONS):
        v /= np.linalg.norm(v)
        v = op(v)
        lam = float(np.linalg.norm(v))
    return max(lam, 1e-30)


def smoothed_prolongation(A, T, seed=0):
    """One damped-Jacobi pass on the tentative prolongation (weight 4/(3 rho))."""
    dinv = 1.0 / A.diagonal()
    rho = estimate_spectral_radius(lambda v: dinv * (A @ v), A.shape[0], seed=seed)
    omega = 4.0 / (3.0 * rho)
    P = (T - sp.diags(omega * dinv) @ (A @ T)).tocsr()
    P.sum_duplicates()
    return P


def build_sa_amg(K, near_nullspace, coarse_max_dofs, smoother=None, seed=0):
    """Smoothed-aggregation hierarchy from the operator and candidate vectors."""
    return build_hybrid(None, K, near_nullspace, 0, coarse_max_dofs, smoother, seed)


# ---------------------------------------------------------------------------
# the hierarchy builder
# ---------------------------------------------------------------------------

def build_hybrid(mesh, K, near_nullspace, n_geo, coarse_max_dofs, smoother=None,
                 seed=0, like=None, moduli=None):
    """Geometric transfers on the finest n_geo levels, smoothed aggregation below.

    The geometric levels are the meshes of `geometric_levels(mesh,
    coarse_max_dofs)`, each coarsened to the next by its `prolongation()`.
    n_geo=0 is pure SA-AMG, the only case that reads `near_nullspace` (and
    may have mesh=None). n_geo=None is pure GMG, down to a geometric coarsest
    level. Otherwise aggregation starts from the rigid-body modes of the
    coarsest geometric mesh, with its own element sizes.

    `like` is the `aggregates` of an earlier pure SA build with the same
    coarse bound, and takes n_geo=0. Its levels are refreshed rather than
    rebuilt: each keeps like's tentative prolongation and only the work that
    depends on K is redone (prolongation smoothing, Galerkin products,
    smoothers, coarse LU). Strength and aggregation do not run,
    `near_nullspace` is not read and the flags are like's.

    `moduli` are the element moduli that K was assembled from
    (`assemble_stiffness`). Given them, the first geometric level's coarse
    operator is built from them (`coarsened_stiffness`) rather than by the
    sparse triple product; every other coarse operator is a triple product.
    """
    if moduli is not None:
        moduli = np.asarray(moduli, dtype=float)
        if moduli.shape != (mesh.element_count,):
            raise ValueError("moduli must have one entry per element of the mesh")
    if n_geo is not None and n_geo < 0:
        raise ValueError("n_geo must be >= 0, or None for pure GMG")
    if like is not None and n_geo != 0:
        raise ValueError("`like` refreshes pure SA-AMG builds only (n_geo=0)")
    smoother = smoother or SmootherConfig()
    A = sp.csr_matrix(K)
    levels, flags, kept, aggregates = [], [], [], like

    def step(P, provenance, block_size, moduli=None):
        """Append the level of A with prolongation P, then coarsen A, from
        the element moduli if given."""
        nonlocal A
        levels.append(MgLevel(A, P, provenance, make_smoother(smoother, A, block_size)))
        A = _galerkin(A, P) if moduli is None else coarsened_stiffness(mesh, A, moduli)

    if like is not None:
        flags = list(like.flags)
        for T, block_size in like.levels:
            if T.shape[0] != A.shape[0]:
                raise ValueError("`like` was built for operators of another size")
            step(smoothed_prolongation(A, T, seed=seed), "algebraic", block_size)
    elif n_geo == 0:
        B = np.asarray(near_nullspace, dtype=float)
        if B.ndim != 2 or B.shape[0] != K.shape[0]:
            raise ValueError("near_nullspace must be (ndofs, nvec)")
        block_size = 2 if B.shape[1] == 3 else 3 if B.shape[1] == 6 else 1
    else:
        block_size = mesh.dofs_per_node
        plan = geometric_levels(mesh, coarse_max_dofs)
        n_fine = len(plan) - 1 if n_geo is None else min(n_geo, len(plan) - 1)
        for i, level in enumerate(plan[:n_fine]):
            step(level.prolongation(), "geometric", block_size, moduli if i == 0 else None)
        if n_geo is None:
            if len(plan) == 1:
                flags.append("no_coarsening_possible")
            if A.shape[0] > coarse_max_dofs:
                flags.append("coarse_bound_not_reached")
        else:
            if n_geo > n_fine and plan[-1].element_count == 1:
                flags.append("geometric_coarsening_exhausted")
            B = rigid_body_modes(plan[n_fine])
    if like is None and n_geo is not None:
        nvec = B.shape[1]
        while A.shape[0] > coarse_max_dofs and len(kept) < MAX_SA_LEVELS:
            agg, agg_flags = aggregate_nodes(strength_of_connection(A, block_size))
            flags.extend(agg_flags)
            agg = _merge_small_aggregates(agg, max(2, -(-nvec // block_size)))
            if (int(agg.max()) + 1) * nvec >= A.shape[0]:
                flags.append("aggregation_stalled")
                break
            T, B = tentative_prolongation(agg, B, block_size)
            kept.append((T, block_size))
            step(smoothed_prolongation(A, T, seed=seed), "algebraic", block_size)
            block_size = nvec  # coarse dofs come in candidate-sized nodal blocks
        if n_geo == 0:
            aggregates = Aggregates(tuple(kept), tuple(flags))
    lu = spla.splu(A.tocsc())
    levels.append(MgLevel(A, None, "geometric" if n_geo is None else "algebraic",
                          lu.solve))
    return MgHierarchy(levels, flags, aggregates)

