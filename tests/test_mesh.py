"""Mesh, element matrices, assembly, boundary conditions, and density filter."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from topomg.bench import cantilever2d_problem, cantilever3d_problem
from topomg.mesh import (BoundaryConditions, _scatter, assemble_stiffness,
                         assemble_stress_stiffness, build_filter, build_mesh,
                         element_stiffness, geometric_stiffness_tensor,
                         rigid_body_modes)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def q4_stiffness_oracle(E, nu):
    """Closed-form unit-square plane-stress Q4 stiffness (classic 8x8 formula)."""
    k = np.array([
        0.5 - nu / 6.0, 0.125 + nu / 8.0, -0.25 - nu / 12.0, -0.125 + 3 * nu / 8.0,
        -0.25 + nu / 12.0, -0.125 - nu / 8.0, nu / 6.0, 0.125 - 3 * nu / 8.0,
    ])
    KE = E / (1.0 - nu ** 2) * np.array([
        [k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7]],
        [k[1], k[0], k[7], k[6], k[5], k[4], k[3], k[2]],
        [k[2], k[7], k[0], k[5], k[6], k[3], k[4], k[1]],
        [k[3], k[6], k[5], k[0], k[7], k[2], k[1], k[4]],
        [k[4], k[5], k[6], k[7], k[0], k[1], k[2], k[3]],
        [k[5], k[4], k[3], k[2], k[1], k[0], k[7], k[6]],
        [k[6], k[3], k[4], k[1], k[2], k[7], k[0], k[5]],
        [k[7], k[2], k[1], k[4], k[3], k[6], k[5], k[0]],
    ])
    return KE


def q4_geometric_stiffness_oracle(ue, E, nu):
    """Geometric stiffness of a unit-square Q4 element by direct 2x2 quadrature.

    Standard sign convention: positive-definite contribution under tension.
    """
    g = 1.0 / np.sqrt(3.0)
    D = E / (1.0 - nu ** 2) * np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0],
                                        [0.0, 0.0, (1.0 - nu) / 2.0]])
    Kg = np.zeros((8, 8))
    for s in (-g, g):
        for t in (-g, g):
            dN = 0.5 * np.array([
                [-(1 - t), (1 - t), (1 + t), -(1 + t)],
                [-(1 - s), -(1 + s), (1 + s), (1 - s)],
            ])  # physical gradients for a unit square (J = I/2)
            B = np.zeros((3, 8))
            B[0, 0::2] = dN[0]
            B[1, 1::2] = dN[1]
            B[2, 0::2] = dN[1]
            B[2, 1::2] = dN[0]
            sig = D @ (B @ ue)
            S = np.array([[sig[0], sig[2]], [sig[2], sig[1]]])
            G = np.zeros((4, 8))
            for a in range(4):
                G[a] = 0.0
            # nodal gradient operator per displacement component
            kn = dN.T @ S @ dN
            Kg += 0.25 * np.kron(kn, np.eye(2))
    return Kg


def voigt_constitutive_oracle(ndim, nu):
    """Normal block and shear modulus of the isotropic Voigt constitutive
    matrix of unit Young modulus: plane stress (unit thickness) in 2D, Lame
    form in 3D."""
    if ndim == 2:
        c = 1.0 / (1.0 - nu ** 2)
        return c * np.array([[1.0, nu], [nu, 1.0]]), 1.0 / (2.0 * (1.0 + nu))
    lam = nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = 1.0 / (2.0 * (1.0 + nu))
    return lam * np.ones((3, 3)) + 2.0 * mu * np.eye(3), mu


def dense_scatter_oracle(mesh, moduli, ke=None, bc=None, unit_diagonal=True):
    """Assemble the global matrix by an explicit per-element double loop.

    ke is one element matrix per element (default: the unit stiffness for
    every element). With bc, the fixed rows and columns are zeroed and, for
    unit_diagonal, their diagonal entries set to 1.
    """
    if ke is None:
        ke = [element_stiffness(mesh)] * mesh.element_count
    n = mesh.total_dofs
    K = np.zeros((n, n))
    edof = mesh.element_dofs()
    for e in range(mesh.element_count):
        d = edof[e]
        for a in range(d.size):
            for b in range(d.size):
                K[d[a], d[b]] += moduli[e] * ke[e][a, b]
    if bc is not None:
        fixed = bc.fixed_dofs
        K[fixed, :] = 0.0
        K[:, fixed] = 0.0
        K[fixed, fixed] = 1.0 if unit_diagonal else 0.0
    return K


# ---------------------------------------------------------------------------
# mesh construction
# ---------------------------------------------------------------------------

def test_mesh_counts_2x1():
    m = build_mesh([2, 1], [1.0, 1.0])
    assert m.node_count == 6
    assert m.element_count == 2
    assert m.total_dofs == 12


def test_mesh_counts_96x48():
    m = build_mesh([96, 48])
    assert m.node_count == 97 * 49


def test_mesh_counts_3d():
    m = build_mesh([4, 2, 2])
    assert m.node_count == 45
    assert m.element_count == 16


def test_mesh_dim_mismatch():
    with pytest.raises(ValueError):
        build_mesh([2, 2], [1.0])


def test_node_numbering_x_fastest():
    m = build_mesh([2, 2], [1.0, 1.0])
    xyz = m.node_coordinates()
    assert np.allclose(xyz[0], [0, 0])
    assert np.allclose(xyz[1], [1, 0])
    assert np.allclose(xyz[3], [0, 1])


def test_element_connectivity_distinct_nodes():
    for dims in ([3, 2], [2, 2, 2]):
        m = build_mesh(dims)
        conn = m.element_nodes()
        for row in conn:
            assert len(set(row.tolist())) == row.size


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda ndim: st.tuples(
    st.lists(st.integers(1, 7), min_size=ndim, max_size=ndim),
    st.lists(st.integers(1, 64), min_size=ndim, max_size=ndim))))
def test_prolongation_interpolates_the_coarsened_mesh_exactly(case):
    # element sizes of k/8 keep every coordinate and its interpolation exact
    dims, eighths = case
    mesh = build_mesh(dims, [k / 8 for k in eighths])
    coarse = mesh.coarsened()
    P = mesh.prolongation()
    assert P.shape == (mesh.total_dofs, coarse.total_dofs)
    dpn = mesh.dofs_per_node
    # multilinear interpolation reproduces each linear field in each component
    for axis in range(mesh.ndim):
        for c in range(dpn):
            field, expected = np.zeros(coarse.total_dofs), np.zeros(mesh.total_dofs)
            field[c::dpn] = coarse.node_coordinates()[:, axis]
            expected[c::dpn] = mesh.node_coordinates()[:, axis]
            assert np.array_equal(P @ field, expected)


# ---------------------------------------------------------------------------
# element stiffness
# ---------------------------------------------------------------------------

def test_element_stiffness_rigid_translation():
    m = build_mesh([1, 1], [1.0, 1.0])
    ke = element_stiffness(m)
    tx = np.zeros(8)
    tx[0::2] = 1.0
    assert np.max(np.abs(ke @ tx)) < 1e-12


def test_element_stiffness_matches_closed_form_oracle():
    m = build_mesh([1, 1], [1.0, 1.0])
    ke = element_stiffness(m)
    assert np.max(np.abs(ke - q4_stiffness_oracle(1.0, 0.3))) < 1e-12


def test_element_stiffness_zero_energy_mode_counts():
    for dims in ([1, 1], [1, 1, 1]):
        m = build_mesh(dims)
        ke = element_stiffness(m)
        w = np.linalg.eigvalsh(ke)
        expected_zero = 3 if m.ndim == 2 else 6
        assert np.sum(np.abs(w) < 1e-10) == expected_zero
        assert np.all(w > -1e-10)


@pytest.mark.parametrize("size", [(0.5, 1.25), (0.5, 1.0, 2.0)], ids=["q4", "hex8"])
def test_constant_strain_patch(size):
    """For u = L x and phi = M x on one element, the unit-modulus element
    energy is vol * eps.D.eps and, at stress modulus E, the stress stiffness
    form is -vol * tr(M sigma M^T) with sigma = E D eps."""
    ndim = len(size)
    m = build_mesh([1] * ndim, size)
    E = 2.5
    rng = np.random.default_rng(11)
    L = rng.standard_normal((ndim, ndim))
    Mg = rng.standard_normal((ndim, ndim))
    xyz = m.node_coordinates()
    u = (xyz @ L.T).ravel()  # node-major, component-minor
    phi = (xyz @ Mg.T).ravel()
    vol = np.prod(size)

    Dn, mu = voigt_constitutive_oracle(ndim, 0.3)
    eps = np.diag(L)
    gamma = (L + L.T)[np.triu_indices(ndim, 1)]
    energy = vol * (eps @ Dn @ eps + mu * gamma @ gamma)
    ue = u[m.element_dofs()[0]]  # local node order
    assert abs(ue @ element_stiffness(m) @ ue - energy) <= 1e-12 * abs(energy)

    sigma = E * mu * (L + L.T)
    sigma[np.diag_indices(ndim)] = E * Dn @ eps
    form = -vol * np.trace(Mg @ sigma @ Mg.T)
    Ks = assemble_stress_stiffness(m, None, u, np.array([E])).toarray()
    assert abs(phi @ Ks @ phi - form) <= 1e-12 * abs(form)


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

def test_assembly_matches_scatter_oracle():
    m = build_mesh([2, 1], [1.0, 1.0])
    moduli = np.array([1.0, 2.5])
    K = assemble_stiffness(m, None, moduli).toarray()
    assert np.max(np.abs(K - dense_scatter_oracle(m, moduli))) < 1e-12


def test_assembly_prebc_nullspace():
    m = build_mesh([3, 2], [1.0, 1.0])
    K = assemble_stiffness(m, None, np.ones(m.element_count))
    for v in rigid_body_modes(m).T:
        assert np.max(np.abs(K @ v)) < 1e-10


def test_assembly_symmetry():
    m = build_mesh([4, 3], [1.0, 1.0])
    rng = np.random.default_rng(0)
    K = assemble_stiffness(m, None, rng.uniform(0.1, 1.0, m.element_count))
    d = (K - K.T).tocoo()
    scale = np.max(np.abs(K.data))
    assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-12 * scale


def test_dirichlet_unit_row_and_column():
    m = build_mesh([2, 2], [1.0, 1.0])
    fixed = np.array([0, 1, 5])
    bc = BoundaryConditions(fixed, np.zeros(m.total_dofs))
    K = assemble_stiffness(m, bc, np.ones(m.element_count)).toarray()
    for i in fixed:
        row = K[i].copy()
        col = K[:, i].copy()
        row[i] -= 1.0
        col[i] -= 1.0
        assert np.max(np.abs(row)) == 0.0
        assert np.max(np.abs(col)) == 0.0


def test_assembled_K_spd_after_bc():
    m = build_mesh([4, 3], [1.0, 1.0])
    fixed = [2 * m.node_index(0, j) + c for j in range(4) for c in (0, 1)]
    bc = BoundaryConditions(np.array(fixed), np.zeros(m.total_dofs))
    rng = np.random.default_rng(1)
    K = assemble_stiffness(m, bc, rng.uniform(0.05, 1.0, m.element_count))
    w = np.linalg.eigvalsh(K.toarray())
    assert w.min() > 0


def test_assembly_permutation_consistent():
    m = build_mesh([3, 2], [1.0, 1.0])
    rng = np.random.default_rng(2)
    moduli = rng.uniform(0.1, 1.0, m.element_count)
    K = assemble_stiffness(m, None, moduli).toarray()
    # reversed element order via an explicit reversed scatter
    ke = element_stiffness(m)
    edof = m.element_dofs()
    Kr = np.zeros_like(K)
    for e in reversed(range(m.element_count)):
        d = edof[e]
        Kr[np.ix_(d, d)] += moduli[e] * ke
    assert np.max(np.abs(K - Kr)) <= 1e-14 * np.max(np.abs(K))


# a 3D mesh and a non-square 2D mesh with non-square elements
ORACLE_MESHES = [((3, 2, 2), (1.0, 1.0, 1.0)), ((5, 3), (0.5, 1.25))]


def oracle_case(dims, size, seed):
    """Mesh, bc fixing every dof of the x=0 nodes, random moduli and a random
    displacement."""
    m = build_mesh(dims, size)
    dpn = m.dofs_per_node
    left = np.flatnonzero(m.node_coordinates()[:, 0] == 0.0)
    bc = BoundaryConditions((left[:, None] * dpn + np.arange(dpn)).ravel(),
                            np.zeros(m.total_dofs))
    rng = np.random.default_rng(seed)
    return (m, bc, rng.uniform(0.1, 1.0, m.element_count),
            rng.standard_normal(m.total_dofs))


@pytest.mark.parametrize("dims, size", ORACLE_MESHES)
@pytest.mark.parametrize("with_bc", [False, True])
def test_assembly_matches_dense_scatter(dims, size, with_bc):
    m, bc, moduli, _ = oracle_case(dims, size, 7)
    bc = bc if with_bc else None
    K = assemble_stiffness(m, bc, moduli).toarray()
    expected = dense_scatter_oracle(m, moduli, bc=bc)
    assert np.max(np.abs(K - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("dims, size", ORACLE_MESHES)
@pytest.mark.parametrize("with_bc", [False, True])
def test_stress_assembly_matches_dense_scatter(dims, size, with_bc):
    m, bc, moduli, u = oracle_case(dims, size, 8)
    bc = bc if with_bc else None
    Ks = assemble_stress_stiffness(m, bc, u, moduli).toarray()
    G = geometric_stiffness_tensor(m)
    ke = [np.einsum("k,kij->ij", u[d], G) for d in m.element_dofs()]
    expected = dense_scatter_oracle(m, moduli, ke=ke, bc=bc, unit_diagonal=False)
    assert np.max(np.abs(Ks - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("dims, size", ORACLE_MESHES)
def test_assembled_csr_is_canonical(dims, size):
    m, bc, moduli, u = oracle_case(dims, size, 9)
    for A in (assemble_stiffness(m, None, moduli), assemble_stiffness(m, bc, moduli),
              assemble_stress_stiffness(m, bc, u, moduli)):
        assert A.format == "csr"
        for i in range(A.shape[0]):
            cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)  # sorted, no duplicates


@pytest.mark.parametrize("with_bc", [False, True])
def test_assembly_returns_independent_arrays(with_bc):
    m, bc, moduli, u = oracle_case(*ORACLE_MESHES[0], 10)
    bc = bc if with_bc else None
    for assemble in (lambda: assemble_stiffness(m, bc, moduli),
                     lambda: assemble_stress_stiffness(m, bc, u, moduli)):
        first = assemble()
        expected = first.toarray()
        first.data[:] = -1.0
        first.indices[:] = 0
        second = assemble()
        assert np.array_equal(second.toarray(), expected)
    offsets, indptr, layers = m.stencil_pattern()
    tables = [offsets, indptr] + [a for layer in layers for a in layer]
    assert not any(a.flags.writeable for a in tables)


def test_assembly_peak_memory_stays_within_twice_the_matrix():
    m, bc = cantilever3d_problem((24, 12, 12))
    rng = np.random.default_rng(12)
    moduli = rng.uniform(0.01, 1.0, m.element_count)
    u = rng.standard_normal(m.total_dofs)
    ke = np.einsum("ek,kij->eij", u[m.element_dofs()], geometric_stiffness_tensor(m))
    for assemble in (lambda: assemble_stiffness(m, bc, moduli),
                     lambda: _scatter(m, moduli, ke, bc)):  # K_sigma past its ke
        assemble()  # caches its stencil pattern
        tracemalloc.start()
        try:
            K = assemble()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix plus one chunk of node blocks
        assert peak <= 2.0 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


def _block_pattern(mesh):
    """The node-block CSR pattern and slots[e, a, b], the position in its
    indices of the block that couples local nodes a and b of element e."""
    conn = mesh.element_nodes()
    n = mesh.node_count
    pairs = conn[:, :, None] * n + conn[:, None, :]
    keys, slots = np.unique(pairs.ravel(), return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    return indptr, (keys % n).astype(np.int32), slots.reshape(pairs.shape)


def bincount_scatter_reference(mesh, moduli, ke, bc, unit_diagonal=False):
    """The assembly as one bincount per node-block component over the
    element-to-block slots, in BSR layout, converted to CSR once."""
    indptr, indices, slots = _block_pattern(mesh)
    dpn = mesh.dofs_per_node
    k = slots.shape[1]
    ke = ke.reshape(ke.shape[:-2] + (k, dpn, k, dpn))
    blocks = np.empty((indices.size, dpn, dpn))
    for c in range(dpn):
        for d in range(dpn):
            blocks[:, c, d] = np.bincount(
                slots.ravel(), (moduli[:, None, None] * ke[..., c, :, d]).ravel(),
                indices.size)
    if bc is not None:
        fixed = ~bc.free_mask.reshape(-1, dpn)
        has_fixed = fixed.any(axis=1)
        s = np.flatnonzero(np.repeat(has_fixed, np.diff(indptr)) | has_fixed[indices])
        rows = np.searchsorted(indptr, s, side="right") - 1
        cols = indices[s]
        sub = blocks[s]
        sub[fixed[rows][:, :, None] | fixed[cols][:, None, :]] = 0.0
        if unit_diagonal:
            diagonals = np.einsum("bii->bi", sub)
            diagonals[(rows == cols)[:, None] & fixed[rows]] = 1.0
        blocks[s] = sub
    n = mesh.total_dofs
    K = sp.bsr_matrix((blocks, indices, indptr), shape=(n, n)).tocsr()
    if bc is not None:
        K.eliminate_zeros()
    return K


def _same_bytes(a, b):
    return all(getattr(a, k).dtype == getattr(b, k).dtype
               and getattr(a, k).tobytes() == getattr(b, k).tobytes()
               for k in ("indptr", "indices", "data"))


@pytest.mark.parametrize("dims", [(5, 3), (1, 4), (4, 1), (3, 2, 2), (1, 3, 2),
                                  (5, 1, 3), (2, 3, 1), (96, 48)])
@pytest.mark.parametrize("design", ["random", "uniform"])
@pytest.mark.parametrize("with_bc", [False, True])
def test_scatter_is_byte_identical_to_the_bincount_reference(dims, design, with_bc):
    """K and K_sigma sum the same products in the same order as the
    per-component bincounts. A uniform design makes entries cancel exactly,
    and the dropped zeros then pin K's nnz: 129,594 on the 96x48 cantilever
    at 0.4, where a sum in another order leaves rounding residues."""
    rng = np.random.default_rng(sum(dims))
    if dims == (96, 48):
        m, bc = cantilever2d_problem(dims)
    else:
        m = build_mesh(dims)
        bc = BoundaryConditions(rng.choice(m.total_dofs, m.total_dofs // 5, replace=False),
                                np.zeros(m.total_dofs))
    bc = bc if with_bc else None
    moduli = (rng.uniform(0.01, 1.0, m.element_count) if design == "random"
              else np.full(m.element_count, 0.4))
    K = assemble_stiffness(m, bc, moduli)
    ke = element_stiffness(m)
    assert _same_bytes(K, bincount_scatter_reference(m, moduli, ke, bc, True))
    if dims == (96, 48) and with_bc and design == "uniform":
        assert K.nnz == 129594
    u = rng.standard_normal(m.total_dofs)
    Ks = assemble_stress_stiffness(m, bc, u, moduli)
    ke = np.einsum("ek,kij->eij", u[m.element_dofs()], geometric_stiffness_tensor(m))
    assert _same_bytes(Ks, bincount_scatter_reference(m, moduli, ke, bc))


def test_boundary_conditions_zero_load_on_fixed():
    f = np.ones(12)
    bc = BoundaryConditions(np.array([3, 1, 1]), f)
    assert np.array_equal(bc.fixed_dofs, [1, 3])
    assert bc.load_vector[1] == 0.0 and bc.load_vector[3] == 0.0
    with pytest.raises(ValueError):
        BoundaryConditions(np.array([12]), f)


def test_boundary_conditions_reject_negative_dof():
    with pytest.raises(ValueError):
        BoundaryConditions(np.array([-1, 0]), np.ones(12))


# ---------------------------------------------------------------------------
# stress stiffness
# ---------------------------------------------------------------------------

def test_stress_stiffness_zero_displacement():
    m = build_mesh([2, 2], [1.0, 1.0])
    Ks = assemble_stress_stiffness(m, None, np.zeros(m.total_dofs),
                                   np.ones(m.element_count))
    assert Ks.nnz == 0 or np.max(np.abs(Ks.data)) == 0.0


def test_stress_stiffness_linear_in_u():
    m = build_mesh([3, 2], [1.0, 1.0])
    rng = np.random.default_rng(3)
    u = rng.standard_normal(m.total_dofs)
    mod = rng.uniform(0.2, 1.0, m.element_count)
    K1 = assemble_stress_stiffness(m, None, u, mod).toarray()
    K2 = assemble_stress_stiffness(m, None, 2.0 * u, mod).toarray()
    assert np.max(np.abs(K2 - 2.0 * K1)) <= 1e-12 * max(np.max(np.abs(K1)), 1.0)


def test_stress_stiffness_symmetry():
    m = build_mesh([3, 3], [1.0, 1.0])
    rng = np.random.default_rng(4)
    u = rng.standard_normal(m.total_dofs)
    Ks = assemble_stress_stiffness(m, None, u, np.ones(m.element_count))
    d = (Ks - Ks.T).tocoo()
    scale = max(np.max(np.abs(Ks.data)), 1.0)
    assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-12 * scale


def test_stress_stiffness_matches_quadrature_oracle():
    m = build_mesh([1, 1], [1.0, 1.0])
    rng = np.random.default_rng(5)
    u = rng.standard_normal(8)
    edof = m.element_dofs()[0]
    Ks = assemble_stress_stiffness(m, None, u, np.array([1.0])).toarray()
    oracle = q4_geometric_stiffness_oracle(u[edof], 1.0, 0.3)
    # assembled convention is the negative (compression-positive) of the
    # standard tension-positive geometric stiffness
    assert np.max(np.abs(Ks[np.ix_(edof, edof)] + oracle)) < 1e-12


def test_stress_stiffness_compression_positive_eigenvalue():
    # uniaxial compression must make the buckling pencil's largest eigenvalue
    # positive under the assembled sign convention
    m = build_mesh([1, 4], [1.0, 1.0])
    fixed = [2 * m.node_index(i, 0) + c for i in range(2) for c in (0, 1)]
    f = np.zeros(m.total_dofs)
    f[2 * m.node_index(0, 4) + 1] = -0.5
    f[2 * m.node_index(1, 4) + 1] = -0.5
    bc = BoundaryConditions(np.array(fixed), f)
    K = assemble_stiffness(m, bc, np.ones(m.element_count))
    u = np.linalg.solve(K.toarray(), bc.load_vector)
    Ks = assemble_stress_stiffness(m, bc, u, np.ones(m.element_count)).toarray()
    free = bc.free_mask
    w = np.linalg.eigvalsh(
        np.linalg.solve(K.toarray()[np.ix_(free, free)], Ks[np.ix_(free, free)]))
    assert w.max() > 0


# ---------------------------------------------------------------------------
# density filter
# ---------------------------------------------------------------------------

def test_filter_rows_sum_to_one():
    m = build_mesh([5, 4], [1.0, 1.0])
    S = build_filter(m, 1.5).matrix
    assert np.max(np.abs(np.asarray(S.sum(axis=1)).ravel() - 1.0)) < 1e-12


def test_filter_uniform_preserved():
    m = build_mesh([6, 3], [0.5, 0.5])
    filt = build_filter(m, 1.5)
    alpha = np.full(m.element_count, 0.37)
    assert np.max(np.abs(filt.apply(alpha) - 0.37)) < 1e-12


def test_filter_small_radius_identity():
    m = build_mesh([4, 4], [1.0, 1.0])
    S = build_filter(m, 0.5).matrix
    assert np.max(np.abs(S.toarray() - np.eye(m.element_count))) == 0.0


def test_filter_spike_matches_double_loop_oracle():
    m = build_mesh([5, 5], [1.0, 1.0])
    r = 1.5
    alpha = np.zeros(25)
    alpha[12] = 1.0  # center element
    got = build_filter(m, r).apply(alpha)
    cent = m.node_coordinates()[m.element_nodes()].mean(axis=1)
    expected = np.zeros(25)
    for e in range(25):
        wsum = 0.0
        acc = 0.0
        for f in range(25):
            d = np.linalg.norm(cent[e] - cent[f])
            w = max(0.0, r - d)
            wsum += w
            acc += w * alpha[f]
        expected[e] = acc / wsum
    assert np.max(np.abs(got - expected)) < 1e-12


def test_filter_transpose_conserves_totals():
    m = build_mesh([7, 3], [1.0, 1.0])
    filt = build_filter(m, 1.5)
    rng = np.random.default_rng(6)
    g = rng.standard_normal(m.element_count)
    assert abs(np.sum(filt.apply_transpose(g)) - np.sum(g)) < 1e-12


def test_filter_3d_uniform():
    m = build_mesh([3, 3, 3])
    filt = build_filter(m, 1.5)
    alpha = np.full(m.element_count, 0.5)
    assert np.max(np.abs(filt.apply(alpha) - 0.5)) < 1e-12


# ---------------------------------------------------------------------------
# rigid body modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims, size", [((2, 2, 2), (1.0, 1.0, 1.0)),
                                        ((3, 2), (0.5, 1.25))], ids=["3d", "2d"])
def test_rigid_body_modes_in_nullspace(dims, size):
    m = build_mesh(dims, size)
    K = assemble_stiffness(m, None, np.ones(m.element_count))
    B = rigid_body_modes(m)
    assert B.shape[1] == (6 if m.ndim == 3 else 3)
    assert np.linalg.matrix_rank(B) == B.shape[1]
    assert np.max(np.abs(K @ B)) < 1e-10


def test_rigid_body_modes_zeroed_on_fixed():
    m = build_mesh([2, 2], [1.0, 1.0])
    B = rigid_body_modes(m, fixed_dofs=[0, 1, 2])
    assert np.all(B[:3] == 0.0)
