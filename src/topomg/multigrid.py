"""Multigrid hierarchies and V-cycle preconditioning.

One builder, `build_hybrid`, coarsens the finest n_geo levels geometrically
(structured-grid shape-function transfers) and the rest by smoothed
aggregation (strength graph, greedy node aggregation, smoothed tentative
prolongation from rigid-body-mode candidates). Its two ends are pure SA-AMG
(n_geo=0, `build_sa_amg`) and pure GMG (n_geo=None, `build_gmg`).

All coarse operators come from the Galerkin triple product P^T A P and the
coarsest operator is factorized once at build time.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import krylov
from .mesh import StructuredMesh, rigid_body_modes

# strength threshold and level cap of smoothed aggregation (Vanek, Mandel &
# Brezina 1996), and the power-method steps of every spectral-radius estimate
DEFAULT_STRENGTH_BETA = 0.003
MAX_SA_LEVELS = 30
POWER_ITERATIONS = 10


# ---------------------------------------------------------------------------
# smoothers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmootherConfig:
    kind: str = "weighted_jacobi"  # weighted_jacobi | block_jacobi | sor_chebyshev | sor_gmres
    weight: float = 0.5
    inner_iterations: int = 2      # Chebyshev degree / GMRES steps per correction

    def __post_init__(self):
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
# r = b - A x, it returns the update dx of x. `MgHierarchy.vcycle` forms the
# residuals.

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


def make_smoother(config, A, block_size):
    """The configured smoother of A; block_size is the level's dofs per node."""
    try:
        cls = _SMOOTHERS[config.kind]
    except KeyError:
        raise ValueError("unknown smoother kind %r" % config.kind) from None
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
    smoother: object | None = None  # correction operator r -> dx


@dataclass
class MgHierarchy:
    """Ordered fine-to-coarse multigrid levels plus the coarse factorization."""

    levels: list
    coarse_solve: object
    flags: list = field(default_factory=list)
    smoother_config: SmootherConfig | None = None

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def n_geometric(self):
        return sum(1 for lv in self.levels[:-1] if lv.provenance == "geometric")

    @property
    def stationary(self):
        return self.smoother_config is None or self.smoother_config.stationary

    def vcycle(self, b, k=0):
        """One V-cycle on level k with a zero initial guess: a smoothing
        correction of b, a coarse correction of the residual it leaves, and a
        smoothing correction of the residual left after that."""
        if not (0 <= k < self.n_levels):
            raise IndexError("level index out of range")
        lvl = self.levels[k]
        if lvl.P is None:  # coarsest: direct solve
            return self.coarse_solve(b)
        x = lvl.smoother(b)
        x += lvl.P @ self.vcycle(lvl.P.T @ (b - lvl.A @ x), k + 1)
        x += lvl.smoother(b - lvl.A @ x)
        return x

    def apply(self, b):
        return self.vcycle(b, 0)

    def summary(self):
        """Per-level {size, nonzeros, provenance}, JSON-serializable."""
        return [
            {"size": int(lv.A.shape[0]), "nonzeros": int(lv.A.nnz),
             "provenance": lv.provenance}
            for lv in self.levels
        ]


def _galerkin(A, P):
    Ac = (P.T @ A @ P).tocsr()
    Ac.sum_duplicates()
    return Ac


# ---------------------------------------------------------------------------
# geometric construction
# ---------------------------------------------------------------------------

def gmg_level_dims(dims, dofs_per_node, coarse_max_dofs):
    """Planned element dims per level for a geometric hierarchy (fine first)."""
    out = [tuple(dims)]
    while True:
        cur = out[-1]
        dofs = dofs_per_node * int(np.prod([d + 1 for d in cur]))
        if dofs <= coarse_max_dofs or all(d <= 1 for d in cur):
            break
        out.append(tuple(max(1, -(-d // 2)) for d in cur))
    return out


def _prolongation_1d(n_fine):
    """Hat-function interpolation from ceil(n/2) coarse to n fine elements."""
    m = max(1, -(-n_fine // 2))
    rows, cols, vals = [], [], []
    for i in range(n_fine + 1):
        if i % 2 == 0:
            rows.append(i)
            cols.append(i // 2)
            vals.append(1.0)
        else:
            rows += [i, i]
            cols += [(i - 1) // 2, (i + 1) // 2]
            vals += [0.5, 0.5]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_fine + 1, m + 1)).tocsr()


def geometric_prolongation(fine_dims, dofs_per_node):
    """Shape-function prolongation between nested structured grids.

    Lexicographic node numbering (x fastest) makes the nodal operator a
    Kronecker product of 1D hat interpolations.
    """
    p1d = [_prolongation_1d(d) if d > 1 else sp.identity(d + 1, format="csr")
           for d in fine_dims]
    Pn = p1d[0]
    for p in p1d[1:]:
        Pn = sp.kron(p, Pn, format="csr")
    return sp.kron(Pn, sp.identity(dofs_per_node), format="csr")


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
    aggregate and exactly reproduces the candidate vectors.
    """
    B = np.asarray(near_nullspace, dtype=float)
    nvec = B.shape[1]
    n_agg = int(agg.max()) + 1
    order = np.argsort(agg, kind="stable")
    bounds = np.searchsorted(agg[order], np.arange(n_agg + 1))
    rows_list, cols_list, vals_list = [], [], []
    Bc = np.zeros((n_agg * nvec, nvec))
    for a in range(n_agg):
        nodes = order[bounds[a]:bounds[a + 1]]
        dofs = (nodes[:, None] * block_size + np.arange(block_size)).ravel()
        if dofs.size < nvec:
            raise ValueError("aggregate with %d dofs cannot carry %d candidates"
                             % (dofs.size, nvec))
        Q, R = np.linalg.qr(B[dofs, :])
        k = Q.shape[1]
        rows_list.append(np.repeat(dofs, k))
        cols_list.append(np.tile(a * nvec + np.arange(k), dofs.size))
        vals_list.append(Q.ravel())
        Bc[a * nvec:a * nvec + k, :] = R
    T = sp.coo_matrix(
        (np.concatenate(vals_list),
         (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(B.shape[0], n_agg * nvec),
    ).tocsr()
    return T, Bc


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


def _sa_levels(A, near_nullspace, coarse_max_dofs, smoother, block_size, flags,
               seed=0):
    """Append smoothed-aggregation levels until the coarse bound is met."""
    levels = []
    B = near_nullspace
    nvec = B.shape[1]
    while A.shape[0] > coarse_max_dofs and len(levels) < MAX_SA_LEVELS:
        min_nodes = max(2, -(-nvec // block_size))
        agg, agg_flags = aggregate_nodes(strength_of_connection(A, block_size))
        flags.extend(agg_flags)
        agg = _merge_small_aggregates(agg, min_nodes)
        n_agg = int(agg.max()) + 1
        if n_agg * nvec >= A.shape[0]:
            flags.append("aggregation_stalled")
            break
        T, Bc = tentative_prolongation(agg, B, block_size)
        P = smoothed_prolongation(A, T, seed=seed)
        levels.append(MgLevel(A=A, P=P, provenance="algebraic",
                              smoother=make_smoother(smoother, A, block_size)))
        A = _galerkin(A, P)
        B = Bc
        block_size = nvec  # coarse dofs come in candidate-sized nodal blocks
    levels.append(MgLevel(A=A, P=None, provenance="algebraic"))
    return levels


def build_sa_amg(K, near_nullspace, coarse_max_dofs, smoother=None, seed=0):
    """Smoothed-aggregation hierarchy from the operator and candidate vectors."""
    return build_hybrid(None, K, near_nullspace, 0, coarse_max_dofs, smoother, seed)


# ---------------------------------------------------------------------------
# the hierarchy builder
# ---------------------------------------------------------------------------

def build_hybrid(mesh, K, near_nullspace, n_geo, coarse_max_dofs, smoother=None,
                 seed=0):
    """Geometric transfers on the finest n_geo levels, smoothed aggregation below.

    n_geo=0 is pure SA-AMG, the only case that reads `near_nullspace` (and
    may have mesh=None). n_geo=None is pure GMG, down to a geometric coarsest
    level. Otherwise aggregation starts from the rigid-body modes of the
    coarsest geometric grid.
    """
    if n_geo is not None and n_geo < 0:
        raise ValueError("n_geo must be >= 0, or None for pure GMG")
    smoother = smoother or SmootherConfig()
    A = sp.csr_matrix(K)
    levels, flags = [], []
    if n_geo == 0:
        B = np.asarray(near_nullspace, dtype=float)
        if B.ndim != 2 or B.shape[0] != K.shape[0]:
            raise ValueError("near_nullspace must be (ndofs, nvec)")
        block_size = 2 if B.shape[1] == 3 else 3 if B.shape[1] == 6 else 1
    else:
        block_size = mesh.dofs_per_node
        plan = gmg_level_dims(mesh.dims, block_size, coarse_max_dofs)
        n_fine = len(plan) - 1 if n_geo is None else min(n_geo, len(plan) - 1)
        for dims in plan[:n_fine]:
            P = geometric_prolongation(dims, block_size)
            levels.append(MgLevel(A=A, P=P, provenance="geometric",
                                  smoother=make_smoother(smoother, A, block_size)))
            A = _galerkin(A, P)
        if n_geo is None:
            if len(plan) == 1:
                flags.append("no_coarsening_possible")
            if A.shape[0] > coarse_max_dofs:
                flags.append("coarse_bound_not_reached")
            levels.append(MgLevel(A=A, P=None, provenance="geometric"))
        else:
            if n_geo > n_fine and all(d <= 1 for d in plan[-1]):
                flags.append("geometric_coarsening_exhausted")
            B = rigid_body_modes(StructuredMesh(
                plan[n_fine], tuple(h * 2 ** n_fine for h in mesh.element_size)))
    if n_geo is not None:
        levels += _sa_levels(A, B, coarse_max_dofs, smoother, block_size, flags,
                             seed=seed)
    lu = spla.splu(levels[-1].A.tocsc())
    return MgHierarchy(levels=levels, coarse_solve=lu.solve, flags=flags,
                       smoother_config=smoother)


# ---------------------------------------------------------------------------
# adaptive hybrid controller
# ---------------------------------------------------------------------------

@dataclass
class AdaptiveHybridController:
    """Demote one geometric level whenever a solve needs too many iterations."""

    n_geo_current: int
    min_geo: int = 2
    iteration_threshold: int = 200

    def __post_init__(self):
        if self.n_geo_current < self.min_geo:
            raise ValueError("n_geo_current below the geometric floor")


def adapt_after_solve(ctrl, last_iterations):
    """Return 'rebuild' (and decrement n_geo) or 'keep' per the >threshold rule."""
    if last_iterations > ctrl.iteration_threshold and ctrl.n_geo_current > ctrl.min_geo:
        ctrl.n_geo_current -= 1
        return "rebuild"
    return "keep"
