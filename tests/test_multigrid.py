"""Hierarchy construction (GMG / SA-AMG / hybrid), smoothers, V-cycle, adaptivity."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from topomg.bench import cantilever2d_problem
from topomg.material import SimpLaw
from topomg.mesh import (BoundaryConditions, assemble_stiffness, build_mesh,
                         rigid_body_modes)
from topomg.multigrid import (AdaptiveHybridController, SmootherConfig,
                              _merge_small_aggregates, adapt_after_solve,
                              aggregate_nodes, build_gmg, build_hybrid,
                              build_sa_amg, geometric_prolongation,
                              gmg_level_dims, make_smoother,
                              strength_of_connection, tentative_prolongation)
from topomg.optimization import SolverHarness


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
    from topomg.multigrid import _merge_small_aggregates

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


def test_harness_none_builds_nothing(uniform_cantilever):
    mesh, bc, K = uniform_cantilever
    assert SolverHarness(mesh=mesh, strategy="none").build(K)[0] is None


def test_harness_adaptive_demotes_one_geometric_level_per_slow_solve():
    mesh, bc, K = cantilever_k((32, 16))  # 5 geometric levels down to 20 dofs
    ctrl = AdaptiveHybridController(n_geo_current=3, min_geo=2, iteration_threshold=1)
    harness = SolverHarness(mesh=mesh, strategy="hybrid_adaptive", coarse_max_dofs=20,
                            fixed_dofs=bc.fixed_dofs, controller=ctrl)
    seen = []
    for _ in range(3):
        _, rec, h = harness.solve(K, bc.load_vector)
        assert rec.converged and rec.iterations > ctrl.iteration_threshold
        seen.append((h.n_geometric, ctrl.n_geo_current))
    assert seen == [(3, 2), (2, 2), (2, 2)]


@pytest.mark.parametrize("kind, expected", [("weighted_jacobi", "gmres"),
                                            ("sor_chebyshev", "gmres"),
                                            ("sor_gmres", "fgmres")])
def test_harness_uses_flexible_gmres_exactly_for_nonstationary_smoothers(
        monkeypatch, kind, expected):
    import topomg.krylov as krylov

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


def test_vcycle_level_out_of_range():
    mesh, bc, K = cantilever_k((4, 2))
    h = build_gmg(mesh, K, 40)
    with pytest.raises(IndexError):
        h.vcycle(np.zeros(K.shape[0]), k=99)


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
# adaptive hybrid controller
# ---------------------------------------------------------------------------

def test_controller_keep_below_threshold():
    ctrl = AdaptiveHybridController(n_geo_current=5)
    assert adapt_after_solve(ctrl, 150) == "keep"
    assert ctrl.n_geo_current == 5


def test_controller_decrement_on_trigger():
    ctrl = AdaptiveHybridController(n_geo_current=6)
    assert adapt_after_solve(ctrl, 201) == "rebuild"
    assert ctrl.n_geo_current == 5


def test_controller_floor():
    ctrl = AdaptiveHybridController(n_geo_current=2)
    assert adapt_after_solve(ctrl, 500) == "keep"
    assert ctrl.n_geo_current == 2


def test_controller_monotone_nonincreasing():
    ctrl = AdaptiveHybridController(n_geo_current=6)
    seq = [250, 50, 300, 800, 10, 999, 201, 400]
    history = []
    for it in seq:
        adapt_after_solve(ctrl, it)
        history.append(ctrl.n_geo_current)
    assert all(a >= b for a, b in zip(history, history[1:]))
    assert history[-1] >= 2


def test_controller_validates_floor():
    with pytest.raises(ValueError):
        AdaptiveHybridController(n_geo_current=1)
