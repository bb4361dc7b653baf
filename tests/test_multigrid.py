"""Hierarchy construction (GMG / SA-AMG / hybrid), smoothers, V-cycle, adaptivity."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topomg.krylov as krylov
import topomg.optimization as optimization
from topomg.bench import cantilever2d_problem, cantilever3d_problem, column_problem
from topomg.material import SimpLaw
from topomg.mesh import (BoundaryConditions, assemble_stiffness, build_mesh,
                         rigid_body_modes)
from topomg.multigrid import (DENSE_FRACTION, SmootherConfig, _element_galerkin,
                              _galerkin, _merge_small_aggregates, aggregate_nodes,
                              build_gmg, build_hybrid, build_sa_amg, estimate_spectral_radius,
                              geometric_prolongation, gmg_level_dims, make_smoother,
                              smoothed_prolongation, strength_of_connection,
                              tentative_prolongation)
from topomg.optimization import SolverHarness, adapted_depth


def cantilever_k(dims, moduli=None, seed=0):
    mesh = build_mesh(dims, [1.0] * len(dims))
    ny = dims[1]
    left = [mesh.node_index(*((0, j) if len(dims) == 2 else (0, j, 0)))
            for j in range(ny + 1)]
    dpn = mesh.dofs_per_node
    fixed = np.array([dpn * n + c for n in left for c in range(dpn)])
    f = np.zeros(mesh.total_dofs)
    f[dpn * mesh.node_index(*([dims[0]] + [d // 2 for d in dims[1:]])) + 1] = -1.0
    bc = BoundaryConditions(fixed, f)
    if moduli is None:
        rng = np.random.default_rng(seed)
        moduli = rng.uniform(0.05, 1.0, mesh.element_count)
    K = assemble_stiffness(mesh, bc, moduli)
    return mesh, bc, K


def galerkin_consistency(h):
    worst = 0.0
    for i, lvl in enumerate(h.levels[:-1]):
        Ac = (lvl.P.T @ lvl.A @ lvl.P).tocsr()
        diff = (h.levels[i + 1].A - Ac)
        num = np.sqrt(np.sum(diff.data ** 2)) if diff.nnz else 0.0
        den = np.sqrt(np.sum(h.levels[i + 1].A.data ** 2))
        worst = max(worst, num / den)
    return worst


# ---------------------------------------------------------------------------
# geometric construction
# ---------------------------------------------------------------------------

def test_gmg_levels_paper_scale():
    dims = (2048, 1024)
    for bound, expected in ((150, 9), (5000, 6), (20000, 5)):
        assert len(gmg_level_dims(dims, 2, bound)) == expected


def test_prolongation_nested_node_weight_one():
    P = geometric_prolongation((2, 2), 2)
    # coarse mesh 1x1 -> 4 coarse nodes, 8 coarse dofs
    assert P.shape == (18, 8)
    Pd = P.toarray()
    # fine node (0,0) coincides with coarse node (0,0)
    assert Pd[0, 0] == 1.0 and np.sum(np.abs(Pd[0])) == 1.0


def test_prolongation_partition_of_unity():
    for dims in ((4, 4), (6, 3), (5, 7)):
        P = geometric_prolongation(dims, 2)
        const_x = np.zeros(P.shape[1])
        const_x[0::2] = 1.0
        out = P @ const_x
        assert np.max(np.abs(out[0::2] - 1.0)) < 1e-14
        assert np.max(np.abs(out[1::2])) < 1e-14


def test_gmg_galerkin_and_bound():
    mesh, bc, K = cantilever_k((16, 8))
    h = build_gmg(mesh, K, coarse_max_dofs=60)
    assert galerkin_consistency(h) <= 1e-12
    assert h.levels[-1].A.shape[0] <= 60
    sizes = [lv.A.shape[0] for lv in h.levels]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert all(lv.provenance == "geometric" for lv in h.levels)


def test_gmg_symmetry_every_level():
    mesh, bc, K = cantilever_k((12, 6))
    h = build_gmg(mesh, K, coarse_max_dofs=40)
    for lv in h.levels:
        d = (lv.A - lv.A.T).tocoo()
        scale = np.max(np.abs(lv.A.data))
        assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# strength of connection and aggregation
# ---------------------------------------------------------------------------

def test_strength_rule_scalar():
    K = sp.csr_matrix(np.array([[1.0, 0.06], [0.06, 1.0]]))
    adj = strength_of_connection(K, block_size=1)
    assert adj[0, 1] != 0  # 0.0036 > 0.003

    K = sp.csr_matrix(np.array([[1.0, 0.05], [0.05, 1.0]]))
    adj = strength_of_connection(K, block_size=1)
    assert adj.nnz == 0  # 0.0025 < 0.003


def test_strength_zero_diagonal_errors():
    K = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        strength_of_connection(K, block_size=1)


def test_strength_uniform_lattice_all_neighbors_strong():
    mesh = build_mesh([3, 3], [1.0, 1.0])
    K = assemble_stiffness(mesh, None, np.ones(9))
    adj = strength_of_connection(K, block_size=2).toarray()
    coords = mesh.node_coordinates()
    # exhaustive check of the rule against geometric nearest neighbors
    for i in range(16):
        for j in range(16):
            if i == j:
                continue
            d = np.max(np.abs(coords[i] - coords[j]))
            if d <= 1.0:  # shares an element -> nonzero block coupling
                assert adj[i, j] != 0, (i, j)


def test_strength_no_self_loops_and_symmetric():
    mesh = build_mesh([4, 2], [1.0, 1.0])
    K = assemble_stiffness(mesh, None, np.ones(8))
    adj = strength_of_connection(K, block_size=2).toarray()
    assert np.all(np.diag(adj) == 0)
    assert np.array_equal(adj != 0, adj.T != 0)


def test_aggregation_degenerate_forced_pairwise():
    g = strength_of_connection(sp.identity(8, format="csr") * 3.0, block_size=1)
    agg, flags = aggregate_nodes(g)
    assert "forced_pairwise_aggregation" in flags
    assert int(agg.max()) + 1 == 4


def test_aggregation_fewer_aggregates_than_nodes():
    mesh, bc, K = cantilever_k((6, 4))
    adj = strength_of_connection(K, block_size=2)
    agg, flags = aggregate_nodes(adj)
    assert int(agg.max()) + 1 < adj.shape[0]
    assert np.all(agg >= 0)


def test_aggregates_do_not_span_void():
    # 1D strip of 2D elements with a near-void band in the middle
    mesh = build_mesh([8, 1], [1.0, 1.0])
    moduli = np.ones(8)
    moduli[3:5] = 1e-10
    K = assemble_stiffness(mesh, None, moduli)
    # guard the diagonal so void nodes remain assessable
    K = K + sp.identity(K.shape[0]) * 1e-12
    g = strength_of_connection(K, block_size=2)
    agg, _ = aggregate_nodes(g)
    coords = mesh.node_coordinates()
    left = {agg[i] for i in range(mesh.node_count) if coords[i, 0] <= 3}
    right = {agg[i] for i in range(mesh.node_count) if coords[i, 0] >= 5}
    assert left.isdisjoint(right)


def test_tentative_prolongation_reproduces_candidates():
    mesh, bc, K = cantilever_k((6, 4))
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    g = strength_of_connection(K, block_size=2)
    agg, _ = aggregate_nodes(g)
    agg = _merge_small_aggregates(agg, min_size=2)
    T, Bc = tentative_prolongation(agg, B, block_size=2)
    assert np.max(np.abs(T @ Bc - B)) <= 1e-10


# ---------------------------------------------------------------------------
# SA-AMG and hybrid hierarchies
# ---------------------------------------------------------------------------

VOID = 1e-3


@st.composite
def cantilever_designs(draw):
    """A 2D cantilever (fixed left edge) from 4x4 to 16x16 with a random,
    void-heavy (80 % of the elements at VOID) or all-void density."""
    nx, ny = draw(st.integers(4, 16)), draw(st.integers(4, 16))
    kind = draw(st.sampled_from(["random", "void_heavy", "all_void"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_el = nx * ny
    if kind == "random":
        rho = rng.uniform(VOID, 1.0, n_el)
    elif kind == "void_heavy":
        rho = np.where(rng.random(n_el) < 0.8, VOID, rng.uniform(VOID, 1.0, n_el))
    else:
        rho = np.full(n_el, VOID)
    mesh, bc, K = cantilever_k((nx, ny), moduli=SimpLaw().modulus(rho))
    return mesh, bc, K, rng


@settings(max_examples=100, deadline=None)
@given(cantilever_designs())
def test_merged_aggregates_are_contiguous_and_reproduce_candidates(case):
    mesh, bc, K, _ = case
    agg = _merge_small_aggregates(aggregate_nodes(strength_of_connection(K, 2))[0], 2)
    assert np.array_equal(np.unique(agg), np.arange(agg.max() + 1))
    assert np.bincount(agg).min() >= 2
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    T, Bc = tentative_prolongation(agg, B, 2)
    assert np.max(np.abs(T @ Bc - B)) <= 1e-10 * np.max(np.abs(B))


def _tentative_per_aggregate(agg, B, block_size):
    """Reference: one QR per aggregate, in aggregate order."""
    nvec = B.shape[1]
    n_agg = int(agg.max()) + 1
    rows, cols, vals = [], [], []
    Bc = np.zeros((n_agg * nvec, nvec))
    for a in range(n_agg):
        nodes = np.flatnonzero(agg == a)
        dofs = (nodes[:, None] * block_size + np.arange(block_size)).ravel()
        Q, R = np.linalg.qr(B[dofs, :])
        rows.append(np.repeat(dofs, nvec))
        cols.append(np.tile(a * nvec + np.arange(nvec), dofs.size))
        vals.append(Q.ravel())
        Bc[a * nvec:(a + 1) * nvec] = R
    T = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(B.shape[0], n_agg * nvec)).tocsr()
    return T, Bc


def _assert_tentative_matches_per_aggregate_qr(K, B, block_size, n_levels):
    """T and the coarse candidates of the batched QR equal the reference's to
    the bit, on the first n_levels SA levels of K."""
    for _ in range(n_levels):
        agg = aggregate_nodes(strength_of_connection(K, block_size))[0]
        agg = _merge_small_aggregates(agg, max(2, -(-B.shape[1] // block_size)))
        if (agg.max() + 1) * B.shape[1] >= K.shape[0]:
            return
        T, Bc = tentative_prolongation(agg, B, block_size)
        T_ref, Bc_ref = _tentative_per_aggregate(agg, B, block_size)
        assert _same_bytes(T, T_ref)
        assert Bc.dtype == Bc_ref.dtype and Bc.tobytes() == Bc_ref.tobytes()
        K = _galerkin(K, smoothed_prolongation(K, T))
        B, block_size = Bc, B.shape[1]


@settings(max_examples=60, deadline=None)
@given(cantilever_designs())
def test_batched_tentative_prolongation_is_byte_identical_to_per_aggregate_qr(case):
    mesh, bc, K, _ = case
    _assert_tentative_matches_per_aggregate_qr(K, rigid_body_modes(mesh, bc.fixed_dofs),
                                               2, n_levels=2)


def test_batched_tentative_prolongation_3d_six_candidates():
    mesh, bc, K = cantilever_k((6, 4, 4))
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    assert B.shape[1] == 6
    _assert_tentative_matches_per_aggregate_qr(K, B, 3, n_levels=2)


def test_tentative_prolongation_rejects_an_undersized_aggregate():
    B = np.random.default_rng(0).standard_normal((8, 3))
    # aggregate 1 has one node (2 dofs) for 3 candidates
    with pytest.raises(ValueError, match="2 dofs cannot carry 3 candidates"):
        tentative_prolongation(np.array([0, 0, 0, 1]), B, 2)


@settings(max_examples=60, deadline=None)
@given(cantilever_designs(), st.sampled_from(["weighted_jacobi", "block_jacobi"]))
def test_sa_vcycle_is_linear(case, kind):
    mesh, bc, K, rng = case
    h = build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), coarse_max_dofs=20,
                     smoother=SmootherConfig(kind=kind))
    x, y = rng.standard_normal((2, K.shape[0]))
    Mx, My = h.apply(x), h.apply(y)
    lin = h.apply(2.0 * x - 3.0 * y) - (2.0 * Mx - 3.0 * My)
    # rounding in b - A S b scales with |A| |S|: about 1 for point Jacobi, up
    # to the worst nodal-block condition number for block Jacobi (above 1e7 on
    # the 3x3 aggregate blocks of void-heavy designs)
    amplification = max([1.0] + [np.linalg.cond(lv.smoother.binv).max()
                                 for lv in h.levels[:-1] if kind == "block_jacobi"])
    assert np.linalg.norm(lin) <= 1e-10 * amplification * (
        2.0 * np.linalg.norm(Mx) + 3.0 * np.linalg.norm(My))
    # the coarse LU leaves an asymmetry near 1e-8 on void-heavy designs
    assert abs(x @ My - y @ Mx) <= 1e-6 * np.linalg.norm(x) * np.linalg.norm(My)


def test_sa_amg_galerkin_symmetry_bound():
    mesh, bc, K = cantilever_k((16, 8))
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    h = build_sa_amg(K, B, coarse_max_dofs=60)
    assert galerkin_consistency(h) <= 1e-12
    assert h.levels[-1].A.shape[0] <= 60
    for lv in h.levels:
        d = (lv.A - lv.A.T).tocoo()
        scale = np.max(np.abs(lv.A.data))
        assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-12 * scale
    assert all(lv.provenance == "algebraic" for lv in h.levels)


def test_sa_amg_validates_nullspace_shape():
    mesh, bc, K = cantilever_k((4, 2))
    with pytest.raises(ValueError):
        build_sa_amg(K, np.ones(K.shape[0]), 20)


def test_hybrid_n_geo_zero_equals_amg():
    mesh, bc, K = cantilever_k((8, 4))
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    ha = build_sa_amg(K, B, 40)
    hh = build_hybrid(mesh, K, B, n_geo=0, coarse_max_dofs=40)
    assert len(ha.levels) == len(hh.levels)
    for la, lh in zip(ha.levels, hh.levels):
        assert (la.A - lh.A).nnz == 0 or np.max(np.abs((la.A - lh.A).data)) == 0


def test_hybrid_full_geo_equals_gmg():
    mesh, bc, K = cantilever_k((8, 4))
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    hg = build_gmg(mesh, K, 40)
    hh = build_hybrid(mesh, K, B, n_geo=len(hg.levels) - 1, coarse_max_dofs=40)
    assert len(hh.levels) == len(hg.levels)
    for lg, lh in zip(hg.levels, hh.levels):
        diff = (lg.A - lh.A).tocoo()
        scale = np.max(np.abs(lg.A.data))
        assert (np.max(np.abs(diff.data)) if diff.nnz else 0.0) <= 1e-12 * scale


def test_hybrid_provenance_pattern_3d():
    mesh, bc, K = cantilever_k((12, 6, 6))
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    h = build_hybrid(mesh, K, B, n_geo=2, coarse_max_dofs=100)
    kinds = [lv.provenance for lv in h.levels[:-1]]
    assert kinds[:2] == ["geometric", "geometric"]
    assert all(k == "algebraic" for k in kinds[2:])
    assert h.n_geometric == 2
    assert galerkin_consistency(h) <= 1e-12


def test_hybrid_ends_keep_their_coarsest_level_and_flags():
    # 2x1 elements, bound 5: geometric coarsening stops at one element (8 dofs)
    mesh, bc, K = cantilever_k((2, 1))
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    hg = build_hybrid(mesh, K, None, None, coarse_max_dofs=5)
    assert [lv.provenance for lv in hg.levels] == ["geometric", "geometric"]
    assert hg.flags == ["coarse_bound_not_reached"]
    hh = build_hybrid(mesh, K, B, 9, coarse_max_dofs=5)
    assert [lv.provenance for lv in hh.levels] == ["geometric", "algebraic", "algebraic"]
    assert hh.flags == ["geometric_coarsening_exhausted"]
    assert build_gmg(mesh, K, 100).flags == ["no_coarsening_possible"]
    with pytest.raises(ValueError):
        build_hybrid(mesh, K, B, -1, coarse_max_dofs=5)


@pytest.fixture(scope="module")
def uniform_cantilever():
    mesh, bc = cantilever2d_problem((96, 48))
    return mesh, bc, assemble_stiffness(mesh, bc, np.full(mesh.element_count, 0.4))


@pytest.mark.parametrize("strategy, sizes, nnz, kinds, flags", [
    ("amg", [9506, 1632, 198], [129594, 41642, 4536], "aaa", ["isolated_nodes"]),
    ("gmg", [9506, 2450, 650, 182], [129594, 38016, 10804, 2812], "gggg", []),
    ("hybrid", [9506, 2450, 650, 135], [129594, 38016, 10804, 3033], "ggaa", []),
])
def test_harness_hierarchy_per_strategy(uniform_cantilever, strategy, sizes, nnz,
                                        kinds, flags):
    mesh, bc, K = uniform_cantilever
    harness = SolverHarness(mesh=mesh, strategy=strategy, coarse_max_dofs=200,
                            n_geo=2, fixed_dofs=bc.fixed_dofs)
    h, _ = harness.build(K)
    assert [lv.A.shape[0] for lv in h.levels] == sizes
    assert [lv.A.nnz for lv in h.levels] == nnz
    assert "".join(lv.provenance[0] for lv in h.levels) == kinds
    assert h.flags == flags


def _identical_hierarchies(h1, h2):
    return (h1.flags == h2.flags and len(h1.levels) == len(h2.levels)
            and all(l1.provenance == l2.provenance and _same_bytes(l1.A, l2.A)
                    and (l1.P is None) == (l2.P is None)
                    and (l1.P is None or _same_bytes(l1.P, l2.P))
                    for l1, l2 in zip(h1.levels, h2.levels)))


def _triple_product(A, P):
    Ac = (P.T @ A @ P).tocsr()
    Ac.sum_duplicates()
    return Ac


def _same_bytes(a, b):
    return all(getattr(a, k).dtype == getattr(b, k).dtype
               and getattr(a, k).tobytes() == getattr(b, k).tobytes()
               for k in ("indptr", "indices", "data"))


def test_galerkin_is_byte_identical_to_the_triple_product():
    """Bit-equal to P^T A P below DENSE_FRACTION; the dense form of the
    products at or above it sums in another order, so it agrees to rounding."""
    rng = np.random.default_rng(4)
    products = dense = 0
    m3, bc3 = cantilever3d_problem((8, 4, 4))
    K3 = assemble_stiffness(m3, bc3, rng.uniform(0.01, 1.0, m3.element_count))
    # a uniform design, where some entries of the products cancel exactly
    for mesh, bc, K in [(m3, bc3, K3), cantilever_k((24, 12), moduli=np.full(288, 0.4))]:
        for strategy in ("gmg", "amg", "hybrid"):
            harness = SolverHarness(mesh=mesh, strategy=strategy, n_geo=1,
                                    coarse_max_dofs=30, fixed_dofs=bc.fixed_dofs)
            h, _ = harness.build(K)
            for lv, coarse in zip(h.levels, h.levels[1:]):
                expected = _triple_product(lv.A, lv.P)
                if lv.A.nnz < DENSE_FRACTION * lv.A.shape[0] ** 2:
                    assert _same_bytes(coarse.A, expected)
                    assert _same_bytes(_galerkin(lv.A, lv.P), expected)
                else:
                    assert abs(coarse.A - expected).max() <= 1e-13 * abs(expected).max()
                    dense += 1
                products += 1
    assert products >= 12 and products - dense >= 8 and dense >= 1
    # the form does not rely on symmetry
    A = sp.random(80, 80, density=0.15, random_state=rng, format="csr")
    P = sp.random(80, 20, density=0.2, random_state=rng, format="csr")
    assert _same_bytes(_galerkin(A, P), _triple_product(A, P))
    A = sp.random(80, 80, density=0.5, random_state=rng, format="csr")
    Ac = _galerkin(A, P)
    expected = _triple_product(A, P)
    assert Ac.has_canonical_format and np.all(Ac.data != 0)
    assert abs(Ac - expected).max() <= 1e-13 * abs(expected).max()


@st.composite
def coarsening_cases(draw):
    """A 2D or 3D mesh with odd dims and dims of 1 among its draws, random or
    uniform moduli, and no bc, every dof of some nodes fixed, or single
    random dofs fixed."""
    ndim = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.integers(1, 7 if ndim == 2 else 4)) for _ in range(ndim))
    mesh = build_mesh(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    moduli = (rng.uniform(1e-3, 1.0, mesh.element_count)
              if draw(st.booleans()) else np.full(mesh.element_count, 0.4))
    fixing = draw(st.sampled_from(["none", "nodes", "dofs"]))
    if fixing == "none":
        bc = None
    else:
        dpn = mesh.dofs_per_node
        if fixing == "nodes":
            nodes = rng.choice(mesh.node_count, 1 + mesh.node_count // 4, replace=False)
            fixed = (nodes[:, None] * dpn + np.arange(dpn)).ravel()
        else:
            fixed = rng.choice(mesh.total_dofs, 1 + mesh.total_dofs // 5, replace=False)
        bc = BoundaryConditions(fixed, np.zeros(mesh.total_dofs))
    return mesh, moduli, assemble_stiffness(mesh, bc, moduli)


def _lone_free_dof_case(dims):
    """Every dof fixed but one, whose row then holds only its diagonal, as
    the fixed dofs' rows do, though its value is not 1."""
    mesh = build_mesh(dims)
    fixed = np.setdiff1d(np.arange(mesh.total_dofs), [mesh.dofs_per_node * 4])
    moduli = np.random.default_rng(0).uniform(0.1, 1.0, mesh.element_count)
    K = assemble_stiffness(mesh, BoundaryConditions(fixed, np.zeros(mesh.total_dofs)), moduli)
    return mesh, moduli, K


@settings(max_examples=80, deadline=None)
@given(coarsening_cases())
@example(_lone_free_dof_case((4, 3)))
@example(_lone_free_dof_case((2, 2, 2)))
def test_first_coarse_operator_from_moduli_matches_the_triple_product(case):
    mesh, moduli, K = case
    P = geometric_prolongation(mesh.dims, mesh.dofs_per_node)
    expected = _galerkin(K, P)
    A = _element_galerkin(mesh, K, P, moduli)
    assert A.shape == expected.shape
    assert abs(A - expected).max() <= 1e-14 * abs(expected).max()


def _moduli_cases():
    """A small 2D and a small 3D cantilever with random moduli."""
    rng = np.random.default_rng(5)
    for mesh, bc in (cantilever2d_problem((32, 16)), cantilever3d_problem((12, 6, 6))):
        moduli = SimpLaw(penalty=3.0).modulus(rng.uniform(0.0, 1.0, mesh.element_count))
        yield mesh, bc, moduli, assemble_stiffness(mesh, bc, moduli)


@pytest.mark.parametrize("strategy", ["gmg", "hybrid"])
def test_hierarchies_built_with_moduli_are_galerkin_and_solve_alike(strategy):
    for mesh, bc, moduli, K in _moduli_cases():
        harness = SolverHarness(mesh=mesh, strategy=strategy, coarse_max_dofs=100,
                                n_geo=2, fixed_dofs=bc.fixed_dofs)
        h, _ = harness.build(K, moduli)
        assert h.n_geometric >= 1
        assert galerkin_consistency(h) <= 1e-12
        _, rec, _ = harness.solve(K, bc.load_vector, moduli=moduli)
        _, rec_k, _ = harness.solve(K, bc.load_vector)
        assert rec.converged and rec.iterations == rec_k.iterations


def test_moduli_of_the_wrong_length_are_rejected():
    mesh, bc, moduli, K = next(_moduli_cases())
    for strategy in ("gmg", "hybrid", "amg"):
        harness = SolverHarness(mesh=mesh, strategy=strategy, coarse_max_dofs=100,
                                fixed_dofs=bc.fixed_dofs)
        with pytest.raises(ValueError, match="moduli"):
            harness.build(K, moduli[:-1])
    with pytest.raises(ValueError, match="moduli"):
        build_hybrid(mesh, K, None, None, 100, moduli=np.append(moduli, 1.0))


def _column_k(dims, moduli):
    mesh, bc = column_problem(dims)
    return mesh, bc, assemble_stiffness(mesh, bc, moduli)


@pytest.mark.parametrize("case, n_geo", [("cantilever", 0), ("column", 0)])
def test_refresh_on_the_same_operator_is_byte_identical(case, n_geo):
    if case == "cantilever":
        mesh, bc, K = cantilever_k((24, 12))
    else:
        mesh, bc, K = _column_k((8, 32), np.random.default_rng(1).uniform(0.05, 1, 256))
    h = build_hybrid(mesh, K, rigid_body_modes(mesh, bc.fixed_dofs), n_geo, 40)
    refreshed = build_hybrid(mesh, K, None, n_geo, coarse_max_dofs=40, like=h.aggregates)
    assert len(h.aggregates.levels) == h.n_levels - 1 >= 1
    assert refreshed.aggregates is h.aggregates
    assert _identical_hierarchies(h, refreshed)
    b = np.random.default_rng(0).standard_normal(K.shape[0])
    assert np.array_equal(h.apply(b), refreshed.apply(b))


def test_refresh_on_a_void_heavy_design_keeps_aggregates_and_smooths_p_afresh():
    mesh, bc, K0 = cantilever_k((24, 12), moduli=np.full(288, 0.4))
    rng = np.random.default_rng(3)
    void_heavy = np.where(rng.uniform(size=288) < 0.7, 1e-9, 1.0)
    _, _, K = cantilever_k((24, 12), moduli=void_heavy)
    B = rigid_body_modes(mesh, bc.fixed_dofs)
    like = build_hybrid(mesh, K0, B, 0, coarse_max_dofs=40).aggregates
    h = build_hybrid(mesh, K, None, 0, coarse_max_dofs=40, like=like)
    assert h.flags == list(like.flags)
    assert len(h.levels) == len(like.levels) + 1
    for lv, (T, _) in zip(h.levels, like.levels):
        # one damped-Jacobi pass with weight 4/(3 rho(D^-1 A)) on this A
        dinv = 1.0 / lv.A.diagonal()
        rho = estimate_spectral_radius(lambda v: dinv * (lv.A @ v), lv.A.shape[0])
        P = T - sp.diags(4.0 / (3.0 * rho) * dinv) @ (lv.A @ T)
        assert abs(lv.P - P).max() <= 1e-12 * abs(P).max()
        # T has orthonormal columns per aggregate and reproduces B exactly
        Bc = T.T @ B
        assert np.linalg.norm(T @ Bc - B) <= 1e-12 * np.linalg.norm(B)
        B = Bc
    assert galerkin_consistency(h) <= 1e-12


@pytest.mark.parametrize("strategy", ["gmg", "hybrid", "hybrid_adaptive"])
def test_only_pure_amg_hierarchies_record_aggregates(strategy):
    mesh, bc, K = cantilever_k((32, 16), moduli=np.full(512, 0.4))
    amg, harness = (SolverHarness(mesh=mesh, strategy=s, coarse_max_dofs=20, n_geo=2,
                                  fixed_dofs=bc.fixed_dofs) for s in ("amg", strategy))
    assert harness.build(K)[0].aggregates is None
    with pytest.raises(ValueError, match="n_geo=0"):
        replace(harness, aggregates=amg.build(K)[0].aggregates).build(K)


def test_harness_with_aggregates_refreshes_them_like_build_hybrid():
    mesh, bc, K0 = cantilever_k((32, 16), moduli=np.full(512, 0.4))
    K = cantilever_k((32, 16), seed=2)[2]
    amg = SolverHarness(mesh=mesh, strategy="amg", coarse_max_dofs=20,
                        fixed_dofs=bc.fixed_dofs)
    aggregates = amg.build(K0)[0].aggregates
    h = replace(amg, aggregates=aggregates).build(K)[0]
    assert h.aggregates is aggregates
    assert _identical_hierarchies(
        h, build_hybrid(mesh, K, None, 0, coarse_max_dofs=20, like=aggregates))


def test_harness_none_builds_nothing():
    # 'none' builds a hierarchy without levels, which applies the identity, so
    # its solve is plain GMRES without a preconditioner, whatever the smoother
    mesh, bc, K = cantilever_k((16, 8))
    f = bc.load_vector
    h = SolverHarness(mesh=mesh, strategy="none").build(K)[0]
    assert h.n_levels == 0
    assert h.apply(f) is f
    cfg = krylov.SolveConfig(rtol=1e-7, max_iterations=300, restart=40)
    x_ref, rec_ref = krylov.gmres_solve(K, f, None, None, cfg)
    for kind in ("weighted_jacobi", "sor_gmres"):
        x, rec, _ = SolverHarness(mesh=mesh, strategy="none", solve_cfg=cfg,
                                  smoother=SmootherConfig(kind=kind)).solve(K, f)
        assert np.array_equal(x, x_ref)
        assert rec.residual_history == rec_ref.residual_history


def test_harness_rejects_unknown_strategy_when_built():
    with pytest.raises(ValueError, match="strategy"):
        SolverHarness(mesh=build_mesh((4, 2), (1.0, 1.0)), strategy="agm")


def test_harness_is_a_frozen_value_that_solves_at_one_depth(monkeypatch):
    # every solve counts as slow, yet a harness never demotes itself
    monkeypatch.setattr(optimization, "ADAPTIVE_ITERATIONS", 1)
    mesh, bc, K = cantilever_k((32, 16))  # 5 geometric levels down to 20 dofs
    harness = SolverHarness(mesh=mesh, strategy="hybrid_adaptive", coarse_max_dofs=20,
                            n_geo=3, fixed_dofs=bc.fixed_dofs)
    seen = []
    for _ in range(3):
        _, rec, h = harness.solve(K, bc.load_vector)
        assert rec.converged and rec.iterations > optimization.ADAPTIVE_ITERATIONS
        seen.append((h.n_geometric, harness.n_geo))
    assert seen == [(3, 3)] * 3
    with pytest.raises(FrozenInstanceError):
        harness.n_geo = 2


@pytest.mark.parametrize("kind, expected", [("weighted_jacobi", "gmres"),
                                            ("sor_chebyshev", "gmres"),
                                            ("sor_gmres", "fgmres")])
def test_harness_uses_flexible_gmres_exactly_for_nonstationary_smoothers(
        monkeypatch, kind, expected):
    mesh, bc, K = cantilever_k((16, 8))
    calls = []
    for name in ("gmres", "fgmres"):
        def counted(A, *args, _name=name, _solve=getattr(krylov, name + "_solve")):
            if A is K:  # the outer solve, not the SOR-GMRES smoother's inner ones
                calls.append(_name)
            return _solve(A, *args)
        monkeypatch.setattr(krylov, name + "_solve", counted)
    harness = SolverHarness(mesh=mesh, strategy="gmg", coarse_max_dofs=60,
                            smoother=SmootherConfig(kind=kind), fixed_dofs=bc.fixed_dofs)
    _, rec, _ = harness.solve(K, bc.load_vector)
    assert rec.converged
    assert calls == [expected]


def test_hierarchy_summary_json_shape():
    mesh, bc, K = cantilever_k((8, 4))
    h = build_gmg(mesh, K, 40)
    s = h.summary()
    assert all(set(d) == {"size", "nonzeros", "provenance"} for d in s)
    import json

    json.dumps(s)


# ---------------------------------------------------------------------------
# V-cycle
# ---------------------------------------------------------------------------

def test_vcycle_single_level_is_direct_solve():
    mesh, bc, K = cantilever_k((4, 2))
    h = build_gmg(mesh, K, coarse_max_dofs=K.shape[0] + 1)
    assert h.n_levels == 1
    rng = np.random.default_rng(0)
    b = rng.standard_normal(K.shape[0])
    x = h.apply(b)
    xd = np.linalg.solve(K.toarray(), b)
    assert np.linalg.norm(x - xd) <= 1e-12 * np.linalg.norm(xd)


def test_vcycle_zero_rhs():
    mesh, bc, K = cantilever_k((8, 4))
    h = build_gmg(mesh, K, 40)
    assert np.all(h.apply(np.zeros(K.shape[0])) == 0.0)


def test_vcycle_residual_contraction_baseline():
    # regression baseline: one V-cycle (2 levels, Jacobi w=0.5, one pre/post
    # pass) contracts the point-load residual by 0.657 on this problem
    mesh, bc, K = cantilever_k((16, 8), moduli=np.ones(16 * 8))
    h = build_gmg(mesh, K, coarse_max_dofs=K.shape[0] - 1)  # 2 levels
    assert h.n_levels == 2
    b = bc.load_vector
    x = h.apply(b)
    factor = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
    assert factor == pytest.approx(0.6574, abs=2e-3)


def test_vcycle_linear_with_jacobi():
    mesh, bc, K = cantilever_k((8, 4))
    h = build_gmg(mesh, K, 40)
    rng = np.random.default_rng(1)
    b1 = rng.standard_normal(K.shape[0])
    b2 = rng.standard_normal(K.shape[0])
    lhs = h.apply(2.0 * b1 - 3.0 * b2)
    rhs = 2.0 * h.apply(b1) - 3.0 * h.apply(b2)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


@pytest.mark.parametrize("kind", ["weighted_jacobi", "block_jacobi", "sor_chebyshev"])
def test_vcycle_matches_dense_two_grid_formula(kind):
    # pre-smoothing S, coarse correction C = P A_c^-1 P^T, post-smoothing S:
    # T = S + C - C A S after the first two, V = T + S - S A T after all three
    mesh, bc, K = cantilever_k((8, 4))
    h = build_gmg(mesh, K, coarse_max_dofs=K.shape[0] - 1,
                  smoother=SmootherConfig(kind=kind))
    assert h.n_levels == 2
    A, P = K.toarray(), h.levels[0].P.toarray()
    eye = np.eye(A.shape[0])
    S = np.column_stack([h.levels[0].smoother(e) for e in eye])
    C = P @ np.linalg.solve(h.levels[1].A.toarray(), P.T)
    T = S + C - C @ A @ S
    expected = T + S - S @ A @ T
    V = np.column_stack([h.apply(e) for e in eye])
    assert np.linalg.norm(V - expected) <= 1e-12 * np.linalg.norm(expected)


def test_vcycle_preconditioner_positive():
    mesh, bc, K = cantilever_k((8, 4))
    for builder in (lambda: build_gmg(mesh, K, 40),
                    lambda: build_sa_amg(K, rigid_body_modes(mesh, bc.fixed_dofs), 40)):
        h = builder()
        rng = np.random.default_rng(2)
        for _ in range(100):
            b = rng.standard_normal(K.shape[0])
            assert b @ h.apply(b) > 0


# ---------------------------------------------------------------------------
# smoothers
# ---------------------------------------------------------------------------

def test_jacobi_exact_on_diagonal():
    A = sp.diags([2.0, 4.0, 8.0]).tocsr()
    b = np.array([2.0, 8.0, 16.0])
    x = make_smoother(SmootherConfig(kind="weighted_jacobi", weight=1.0), A, 1)(b)
    assert np.allclose(x, [1.0, 2.0, 2.0])


def test_smoother_weight_zero_rejected():
    with pytest.raises(ValueError):
        SmootherConfig(weight=0.0)


def test_smoother_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="smoother kind"):
        SmootherConfig(kind="jacobi")


def test_jacobi_error_decreases_in_A_norm():
    rng = np.random.default_rng(3)
    Q = rng.standard_normal((10, 10))
    A = sp.csr_matrix(Q @ Q.T + 10 * np.eye(10))
    b = rng.standard_normal(10)
    xstar = np.linalg.solve(A.toarray(), b)
    x = np.zeros(10)
    sm = make_smoother(SmootherConfig(kind="weighted_jacobi", weight=0.5), A, 1)
    prev = np.inf
    for _ in range(5):
        x = x + sm(b - A @ x)
        e = x - xstar
        err = float(e @ (A @ e))
        assert err < prev
        prev = err


def test_block_jacobi_matches_blockwise_solve():
    rng = np.random.default_rng(4)
    n = 8
    A = rng.standard_normal((n, n))
    A = sp.csr_matrix(A @ A.T + n * np.eye(n))
    cfg = SmootherConfig(kind="block_jacobi", weight=1.0)
    b = rng.standard_normal(n)
    got = make_smoother(cfg, A, 2)(b)
    Ad = A.toarray()
    expected = np.zeros(n)
    for i in range(0, n, 2):
        expected[i:i + 2] = np.linalg.solve(Ad[i:i + 2, i:i + 2], b[i:i + 2])
    assert np.allclose(got, expected)


def test_sor_chebyshev_and_gmres_reduce_error():
    mesh, bc, K = cantilever_k((8, 4), moduli=np.ones(32))
    b = bc.load_vector
    xstar = np.linalg.solve(K.toarray(), b)
    for kind in ("sor_chebyshev", "sor_gmres"):
        sm = make_smoother(SmootherConfig(kind=kind, inner_iterations=2), K, 2)
        x = sm(b)
        x = x + sm(b - K @ x)
        assert np.linalg.norm(x - xstar) < np.linalg.norm(xstar)


def test_singular_block_errors():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        make_smoother(SmootherConfig(kind="block_jacobi"), A, 2)


# ---------------------------------------------------------------------------
# adaptive depth rule
# ---------------------------------------------------------------------------

def test_controller_keep_below_threshold():
    assert adapted_depth(5, 150) == 5


def test_controller_decrement_on_trigger():
    assert adapted_depth(6, 201) == 5


def test_controller_floor():
    assert adapted_depth(2, 500) == 2


def test_controller_monotone_nonincreasing():
    n = 6
    seq = [250, 50, 300, 800, 10, 999, 201, 400]
    history = []
    for it in seq:
        n = adapted_depth(n, it)
        history.append(n)
    assert all(a >= b for a, b in zip(history, history[1:]))
    assert history[-1] >= 2


def test_controller_validates_floor():
    mesh = build_mesh((32, 16), (1.0, 1.0))
    assert SolverHarness(mesh=mesh, strategy="hybrid_adaptive", n_geo=1).n_geo == 2
