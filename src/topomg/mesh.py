"""Structured-grid finite elements: meshes, element matrices, assembly, density filter.

Supports uniform Q4 (2D, plane stress) and Hex8 (3D) grids with lexicographic
node numbering (x fastest). All assembled operators are scipy CSR matrices.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Poisson ratio of the material; every element matrix has unit Young modulus
POISSON_RATIO = 0.3

# Local node order as corner offsets: counterclockwise, bottom face first.
_CORNERS = {
    2: np.array([[0, 0], [1, 0], [1, 1], [0, 1]]),
    3: np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                 [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]),
}
# Voigt shear components: strain row ndim + r pairs the axes _SHEAR[ndim][r].
_SHEAR = {2: [(0, 1)], 3: [(0, 1), (1, 2), (0, 2)]}


def _lattice(counts):
    """(prod(counts), len(counts)) integer grid points, x varying fastest."""
    grids = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    return np.stack([g.ravel(order="F") for g in grids], axis=1)


@dataclass(frozen=True)
class StructuredMesh:
    """Uniform structured grid of Q4 or Hex8 elements.

    Nodes are numbered lexicographically with x varying fastest; element e
    owns 4 (2D) or 8 (3D) nodes in the standard counterclockwise ordering.
    """

    dims: tuple
    element_size: tuple

    def __post_init__(self):
        if len(self.dims) not in (2, 3):
            raise ValueError("mesh must be 2D or 3D, got dims=%r" % (self.dims,))
        if len(self.dims) != len(self.element_size):
            raise ValueError("dims and element_size length mismatch")
        if any(d < 1 for d in self.dims):
            raise ValueError("all dims must be >= 1")
        if any(h <= 0 for h in self.element_size):
            raise ValueError("all element sizes must be > 0")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "element_size", tuple(float(h) for h in self.element_size))

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def dofs_per_node(self):
        return self.ndim

    @property
    def node_count(self):
        return int(np.prod([d + 1 for d in self.dims]))

    @property
    def element_count(self):
        return int(np.prod(self.dims))

    @property
    def total_dofs(self):
        return self.node_count * self.dofs_per_node

    def node_coordinates(self):
        """(node_count, ndim) array of physical node positions."""
        return _lattice([d + 1 for d in self.dims]) * np.array(self.element_size)

    def node_index(self, *ijk):
        """Node index from integer grid coordinates."""
        index, stride = 0, 1
        for c, d in zip(ijk, self.dims):
            index = index + c * stride
            stride *= d + 1
        return index

    def element_nodes(self):
        """(element_count, 2**ndim) connectivity in local node ordering."""
        origins = self.node_index(*_lattice(self.dims).T)
        return origins[:, None] + self.node_index(*_CORNERS[self.ndim].T)

    @functools.cache
    def element_dofs(self):
        """(element_count, nodes*dofs_per_node) dof map per element, read-only
        and computed once per mesh."""
        conn = self.element_nodes()
        dpn = self.dofs_per_node
        edof = np.empty((conn.shape[0], conn.shape[1] * dpn), dtype=np.int64)
        for c in range(dpn):
            edof[:, c::dpn] = dpn * conn + c
        return _read_only(edof)

    @functools.cache
    def block_pattern(self):
        """Node-block sparsity of the assembled operators, read-only int32 and
        computed once per mesh.

        Returns (indptr, indices, slots): the CSR pattern of the node graph
        (nodes i and j couple when they share an element, i == j included)
        and slots[e, a, b], the position in `indices` of the block that
        couples local nodes a and b of element e.
        """
        conn = self.element_nodes()
        n = self.node_count
        pairs = conn[:, :, None] * n + conn[:, None, :]
        keys, slots = np.unique(pairs.ravel(), return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        indices = (keys % n).astype(np.int32)
        return (_read_only(indptr), _read_only(indices),
                _read_only(slots.astype(np.int32).reshape(pairs.shape)))


@dataclass
class BoundaryConditions:
    """Fixed dofs plus nodal load vector (zeroed on fixed dofs)."""

    fixed_dofs: np.ndarray
    load_vector: np.ndarray

    def __post_init__(self):
        self.fixed_dofs = np.unique(np.asarray(self.fixed_dofs, dtype=np.int64))
        self.load_vector = np.asarray(self.load_vector, dtype=float).copy()
        if self.fixed_dofs.size and (self.fixed_dofs[0] < 0 or
                                     self.fixed_dofs[-1] >= self.load_vector.size):
            raise ValueError("fixed dof index out of range")
        self.load_vector[self.fixed_dofs] = 0.0

    @property
    def free_mask(self):
        mask = np.ones(self.load_vector.size, dtype=bool)
        mask[self.fixed_dofs] = False
        return mask


@dataclass
class FilterOperator:
    """Row-normalized linear density filter rho = S @ alpha."""

    matrix: sp.csr_matrix

    def apply(self, alpha):
        return self.matrix @ alpha

    def apply_transpose(self, g):
        return self.matrix.T @ g


def build_mesh(dims, element_size=None):
    """Construct a StructuredMesh; element_size defaults to unit cubes."""
    if element_size is None:
        element_size = [1.0] * len(dims)
    return StructuredMesh(tuple(dims), tuple(element_size))


def _shape_gradients(ndim, xi):
    """Natural-coordinate gradients dN (ndim, 2**ndim) at point xi of the
    multilinear shape functions N_n = prod_a (1 + sgn[n, a] xi[a]) / 2**ndim,
    where sgn = 2 * _CORNERS[ndim] - 1 are the corner signs."""
    sgn = 2 * _CORNERS[ndim] - 1
    lin = 1 + sgn * np.asarray(xi)
    dN = np.array([sgn[:, a] * np.prod(np.delete(lin, a, axis=1), axis=1)
                   for a in range(ndim)])
    return dN / 2 ** ndim


def _constitutive(ndim):
    """Voigt elasticity matrix of unit Young modulus and POISSON_RATIO."""
    nu = POISSON_RATIO
    if ndim == 2:  # plane stress, unit thickness
        c = 1.0 / (1.0 - nu ** 2)
        return c * np.array([
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, (1.0 - nu) / 2.0],
        ])
    lam = nu / ((1 + nu) * (1 - 2 * nu))
    mu = 1.0 / (2 * (1 + nu))
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] += 2 * mu
    D[3:, 3:] = mu * np.eye(3)
    return D


def _b_matrix(ndim, grad):
    """Strain-displacement matrix from physical shape gradients (ndim, nn):
    the normal strains, then one row per _SHEAR pair."""
    nn = grad.shape[1]
    B = np.zeros((ndim + len(_SHEAR[ndim]), ndim * nn))
    for a in range(ndim):
        B[a, a::ndim] = grad[a]
    for r, (a, b) in enumerate(_SHEAR[ndim], start=ndim):
        B[r, a::ndim] = grad[b]
        B[r, b::ndim] = grad[a]
    return B


def _quadrature(mesh):
    """(detJ, physical gradients) at each point of the 2-point Gauss rule,
    whose weights are all 1."""
    ndim = mesh.ndim
    h = np.array(mesh.element_size)
    detJ = np.prod(h / 2.0)
    g = 1.0 / np.sqrt(3.0)
    return [(detJ, _shape_gradients(ndim, xi) / (h[:, None] / 2.0))
            for xi in itertools.product((-g, g), repeat=ndim)]


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.cache
def element_stiffness(mesh):
    """Unit-modulus element stiffness matrix (8x8 for Q4, 24x24 for Hex8) by
    Gauss quadrature.

    Cached per mesh; the returned array is read-only.
    """
    ndim = mesh.ndim
    D = _constitutive(ndim)
    nd = 2 ** ndim * ndim
    ke = np.zeros((nd, nd))
    for w, grad in _quadrature(mesh):
        B = _b_matrix(ndim, grad)
        ke += w * (B.T @ D @ B)
    return _read_only(0.5 * (ke + ke.T))


@functools.cache
def geometric_stiffness_tensor(mesh):
    """Third-order tensor G with G[k] the element stress stiffness for u_e = e_k.

    The element stress stiffness for a unit stress modulus is linear in the
    element displacements, so any state is recovered as einsum('k,kij->ij', u_e, G).
    The sign is chosen so that a compressive prestress produces positive
    eigenvalues of the buckling pencil (largest eigenvalue = 1/P_critical).
    Cached per mesh; the returned array is read-only.
    """
    ndim = mesh.ndim
    D = _constitutive(ndim)
    nd = 2 ** ndim * ndim
    G = np.zeros((nd, nd, nd))
    eye = np.eye(nd)
    for w, grad in _quadrature(mesh):
        B = _b_matrix(ndim, grad)
        for k in range(nd):
            sig = D @ (B @ eye[k])
            S = np.diag(sig[:ndim])
            for r, (a, b) in enumerate(_SHEAR[ndim], start=ndim):
                S[a, b] = S[b, a] = sig[r]
            knode = grad.T @ S @ grad
            G[k] -= w * np.kron(knode, np.eye(ndim))
    return _read_only(G)


def _scatter(mesh, moduli, ke, bc, unit_diagonal=False):
    """Assemble moduli[e] * ke[e] into a global CSR matrix, where ke is one
    element matrix shared by all elements or one per element.

    Each of the dofs_per_node**2 components of the node blocks is summed
    into the mesh's cached `block_pattern` by one bincount over its slots, so
    a call builds no dof index arrays and, for a shared ke, no per-element
    matrix stack. The blocks are filled in BSR layout, so the one full-size
    copy is the conversion to CSR. With bc, the rows and columns of its fixed
    dofs are zeroed in the blocks of the nodes that have one, their diagonal
    is set to 1 if unit_diagonal, and every stored zero is dropped. The
    returned matrix has sorted indices and arrays no other matrix shares;
    with bc, they may extend past its nnz by the dropped entries.
    """
    indptr, indices, slots = mesh.block_pattern()
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
        fixed = ~bc.free_mask.reshape(-1, dpn)  # per node and component
        has_fixed = fixed.any(axis=1)
        # the blocks in the row or the column of a node with a fixed dof
        s = np.flatnonzero(np.repeat(has_fixed, np.diff(indptr)) | has_fixed[indices])
        rows = np.searchsorted(indptr, s, side="right") - 1
        cols = indices[s]
        sub = blocks[s]
        sub[fixed[rows][:, :, None] | fixed[cols][:, None, :]] = 0.0
        if unit_diagonal:
            diagonals = np.einsum("bii->bi", sub)  # a writable view
            diagonals[(rows == cols)[:, None] & fixed[rows]] = 1.0
        blocks[s] = sub
    n = mesh.total_dofs
    K = sp.bsr_matrix((blocks, indices, indptr), shape=(n, n)).tocsr()
    del blocks
    if bc is not None:
        K.eliminate_zeros()
    return K


def assemble_stiffness(mesh, bc, element_moduli):
    """Global stiffness K(rho) with Dirichlet rows/columns eliminated and a
    unit diagonal on the fixed dofs.

    Pass bc=None to obtain the unconstrained (singular) operator.
    """
    element_moduli = np.asarray(element_moduli, dtype=float)
    if element_moduli.shape != (mesh.element_count,):
        raise ValueError("element_moduli must have one entry per element")
    if np.any(element_moduli <= 0):
        raise ValueError("element moduli must be positive")
    return _scatter(mesh, element_moduli, element_stiffness(mesh), bc,
                    unit_diagonal=True)


def assemble_stress_stiffness(mesh, bc, u, element_sigma_moduli):
    """Global stress stiffness K_sigma at the stress state induced by u (linear
    in u), with Dirichlet rows/columns zeroed."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.total_dofs,):
        raise ValueError("u must have one entry per dof")
    moduli = np.asarray(element_sigma_moduli, dtype=float)
    ue = u[mesh.element_dofs()]
    ke = np.einsum("ek,kij->eij", ue, geometric_stiffness_tensor(mesh))
    return _scatter(mesh, moduli, ke, bc)


def build_filter(mesh, radius=1.5):
    """Linear hat-weight density filter with the given radius in element units.

    Centroid distances are measured in units of the element size per axis, so
    radius=1.5 always reaches the first ring of neighbors regardless of the
    physical element dimensions.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    dims = np.array(mesh.dims)
    reach = max(int(np.ceil(radius - 1e-12)) - 1, 0)
    idx = _lattice(dims)
    strides = np.cumprod([1] + list(dims[:-1]))
    rows, cols, vals = [], [], []
    for off in itertools.product(range(-reach, reach + 1), repeat=mesh.ndim):
        d = np.sqrt(sum(c * c for c in off))
        if d >= radius:
            continue
        nbr = idx + off
        ok = np.all((nbr >= 0) & (nbr < dims), axis=1)
        rows.append(np.flatnonzero(ok))
        cols.append(nbr[ok] @ strides)
        vals.append(np.full(rows[-1].size, radius - d))
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.element_count, mesh.element_count),
    ).tocsr()
    rowsum = np.asarray(S.sum(axis=1)).ravel()
    S = sp.diags(1.0 / rowsum) @ S
    return FilterOperator(matrix=S.tocsr())


def rigid_body_modes(mesh, fixed_dofs=None):
    """Rigid-body-mode candidate vectors (3 columns in 2D, 6 in 3D).

    Computed from the full-mesh geometry; optionally zeroed on fixed dofs.
    """
    xyz = mesh.node_coordinates()
    xyz = xyz - xyz.mean(axis=0)
    dpn = mesh.dofs_per_node
    n_rot = dpn * (dpn - 1) // 2
    B = np.zeros((mesh.node_count * dpn, dpn + n_rot))
    for a in range(dpn):
        B[a::dpn, a] = 1.0
    # rotations in the planes (a, a+1 mod dpn): about z in 2D; z, x, y in 3D
    for a in range(n_rot):
        b = (a + 1) % dpn
        B[a::dpn, dpn + a] = -xyz[:, b]
        B[b::dpn, dpn + a] = xyz[:, a]
    if fixed_dofs is not None:
        B[np.asarray(fixed_dofs, dtype=np.int64)] = 0.0
    return B
