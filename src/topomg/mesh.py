"""Structured-grid finite elements: meshes, element matrices, assembly, density filter.

Supports uniform Q4 (2D, plane stress) and Hex8 (3D) grids with lexicographic
node numbering (x fastest). All assembled operators are scipy CSR matrices.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

DEFAULT_NU = 0.3


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
        axes = [np.arange(d + 1) * h for d, h in zip(self.dims, self.element_size)]
        grids = np.meshgrid(*axes, indexing="ij")
        # lexicographic with x fastest: flatten in Fortran order over (x, y[, z])
        return np.stack([g.ravel(order="F") for g in grids], axis=1)

    def node_index(self, *ijk):
        """Node index from integer grid coordinates."""
        if self.ndim == 2:
            i, j = ijk
            return i + j * (self.dims[0] + 1)
        i, j, k = ijk
        return i + (self.dims[0] + 1) * (j + (self.dims[1] + 1) * k)

    def element_nodes(self):
        """(element_count, 4 or 8) connectivity in local node ordering."""
        if self.ndim == 2:
            nx, ny = self.dims
            i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
            i = i.ravel(order="F")
            j = j.ravel(order="F")
            n0 = self.node_index(i, j)
            n1 = self.node_index(i + 1, j)
            n2 = self.node_index(i + 1, j + 1)
            n3 = self.node_index(i, j + 1)
            return np.stack([n0, n1, n2, n3], axis=1)
        nx, ny, nz = self.dims
        i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
        i = i.ravel(order="F")
        j = j.ravel(order="F")
        k = k.ravel(order="F")
        bottom = [
            self.node_index(i, j, k),
            self.node_index(i + 1, j, k),
            self.node_index(i + 1, j + 1, k),
            self.node_index(i, j + 1, k),
        ]
        top = [
            self.node_index(i, j, k + 1),
            self.node_index(i + 1, j, k + 1),
            self.node_index(i + 1, j + 1, k + 1),
            self.node_index(i, j + 1, k + 1),
        ]
        return np.stack(bottom + top, axis=1)

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

    def element_centroids(self):
        """(element_count, ndim) centroid positions."""
        axes = [(np.arange(d) + 0.5) * h for d, h in zip(self.dims, self.element_size)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel(order="F") for g in grids], axis=1)


@dataclass
class BoundaryConditions:
    """Fixed dofs plus nodal load vector (zeroed on fixed dofs)."""

    fixed_dofs: np.ndarray
    load_vector: np.ndarray

    def __post_init__(self):
        self.fixed_dofs = np.unique(np.asarray(self.fixed_dofs, dtype=np.int64))
        self.load_vector = np.asarray(self.load_vector, dtype=float).copy()
        if self.fixed_dofs.size and self.fixed_dofs[-1] >= self.load_vector.size:
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
    radius: float

    def apply(self, alpha):
        return self.matrix @ alpha

    def apply_transpose(self, g):
        return self.matrix.T @ g


def build_mesh(dims, element_size=None):
    """Construct a StructuredMesh; element_size defaults to unit cubes."""
    if element_size is None:
        element_size = [1.0] * len(dims)
    return StructuredMesh(tuple(dims), tuple(element_size))


def _gauss_points_1d():
    g = 1.0 / np.sqrt(3.0)
    return np.array([-g, g]), np.array([1.0, 1.0])


def _shape_gradients(mesh_ndim, xi):
    """Shape values N and natural-coordinate gradients dN at point xi."""
    if mesh_ndim == 2:
        s, t = xi
        N = 0.25 * np.array([(1 - s) * (1 - t), (1 + s) * (1 - t),
                             (1 + s) * (1 + t), (1 - s) * (1 + t)])
        dN = 0.25 * np.array([
            [-(1 - t), (1 - t), (1 + t), -(1 + t)],
            [-(1 - s), -(1 + s), (1 + s), (1 - s)],
        ])
        return N, dN
    s, t, u = xi
    sgn_s = np.array([-1, 1, 1, -1, -1, 1, 1, -1])
    sgn_t = np.array([-1, -1, 1, 1, -1, -1, 1, 1])
    sgn_u = np.array([-1, -1, -1, -1, 1, 1, 1, 1])
    N = 0.125 * (1 + sgn_s * s) * (1 + sgn_t * t) * (1 + sgn_u * u)
    dN = 0.125 * np.array([
        sgn_s * (1 + sgn_t * t) * (1 + sgn_u * u),
        sgn_t * (1 + sgn_s * s) * (1 + sgn_u * u),
        sgn_u * (1 + sgn_s * s) * (1 + sgn_t * t),
    ])
    return N, dN


def _constitutive(ndim, E, nu):
    if ndim == 2:  # plane stress, unit thickness
        c = E / (1.0 - nu ** 2)
        return c * np.array([
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, (1.0 - nu) / 2.0],
        ])
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] += 2 * mu
    D[3:, 3:] = mu * np.eye(3)
    return D


def _b_matrix(ndim, grad):
    """Strain-displacement matrix from physical shape gradients (ndim, nn)."""
    nn = grad.shape[1]
    if ndim == 2:
        B = np.zeros((3, 2 * nn))
        B[0, 0::2] = grad[0]
        B[1, 1::2] = grad[1]
        B[2, 0::2] = grad[1]
        B[2, 1::2] = grad[0]
        return B
    B = np.zeros((6, 3 * nn))
    B[0, 0::3] = grad[0]
    B[1, 1::3] = grad[1]
    B[2, 2::3] = grad[2]
    B[3, 0::3] = grad[1]
    B[3, 1::3] = grad[0]
    B[4, 1::3] = grad[2]
    B[4, 2::3] = grad[1]
    B[5, 0::3] = grad[2]
    B[5, 2::3] = grad[0]
    return B


def _quadrature(mesh):
    """Iterate (weight*detJ, physical gradients) over the element Gauss points."""
    ndim = mesh.ndim
    h = np.array(mesh.element_size)
    detJ = np.prod(h / 2.0)
    pts, wts = _gauss_points_1d()
    out = []
    if ndim == 2:
        for a, wa in zip(pts, wts):
            for b, wb in zip(pts, wts):
                _, dN = _shape_gradients(2, (a, b))
                grad = dN / (h[:, None] / 2.0)
                out.append((wa * wb * detJ, grad))
    else:
        for a, wa in zip(pts, wts):
            for b, wb in zip(pts, wts):
                for c, wc in zip(pts, wts):
                    _, dN = _shape_gradients(3, (a, b, c))
                    grad = dN / (h[:, None] / 2.0)
                    out.append((wa * wb * wc * detJ, grad))
    return out


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.cache
def element_stiffness(mesh, E=1.0, nu=DEFAULT_NU):
    """Element stiffness matrix (8x8 for Q4, 24x24 for Hex8) by Gauss quadrature.

    Cached per (mesh, E, nu); the returned array is read-only.
    """
    if not (0 <= nu < 0.5):
        raise ValueError("nu must be in [0, 0.5)")
    if E <= 0:
        raise ValueError("E must be positive")
    ndim = mesh.ndim
    D = _constitutive(ndim, E, nu)
    nd = (4 if ndim == 2 else 8) * ndim
    ke = np.zeros((nd, nd))
    for w, grad in _quadrature(mesh):
        B = _b_matrix(ndim, grad)
        ke += w * (B.T @ D @ B)
    return _read_only(0.5 * (ke + ke.T))


@functools.cache
def geometric_stiffness_tensor(mesh, nu=DEFAULT_NU):
    """Third-order tensor G with G[k] the element stress stiffness for u_e = e_k.

    The element stress stiffness for a unit stress modulus is linear in the
    element displacements, so any state is recovered as einsum('k,kij->ij', u_e, G).
    The sign is chosen so that a compressive prestress produces positive
    eigenvalues of the buckling pencil (largest eigenvalue = 1/P_critical).
    Cached per (mesh, nu); the returned array is read-only.
    """
    ndim = mesh.ndim
    D = _constitutive(ndim, 1.0, nu)
    nn = 4 if ndim == 2 else 8
    nd = nn * ndim
    G = np.zeros((nd, nd, nd))
    eye = np.eye(nd)
    for w, grad in _quadrature(mesh):
        B = _b_matrix(ndim, grad)
        for k in range(nd):
            sig = D @ (B @ eye[k])
            if ndim == 2:
                S = np.array([[sig[0], sig[2]], [sig[2], sig[1]]])
            else:
                S = np.array([
                    [sig[0], sig[3], sig[5]],
                    [sig[3], sig[1], sig[4]],
                    [sig[5], sig[4], sig[2]],
                ])
            knode = grad.T @ S @ grad
            G[k] -= w * np.kron(knode, np.eye(ndim))
    return _read_only(G)


def _scatter(mesh, moduli, ke, bc):
    """Assemble moduli[e] * ke[e] into a global CSR matrix, where ke is one
    element matrix shared by all elements or one per element.

    Each of the dofs_per_node**2 components of the node blocks is summed
    into the mesh's cached `block_pattern` by one bincount over its slots, so
    a call builds no dof index arrays and, for a shared ke, no per-element
    matrix stack. The returned matrix owns its arrays and has sorted indices.
    With bc, the rows and columns of its fixed dofs are zeroed and every
    stored zero is dropped.
    """
    indptr, indices, slots = mesh.block_pattern()
    dpn = mesh.dofs_per_node
    k = slots.shape[1]
    ke = ke.reshape(ke.shape[:-2] + (k, dpn, k, dpn))
    blocks = np.empty((dpn, dpn, indices.size))
    for c in range(dpn):
        for d in range(dpn):
            w = moduli[:, None, None] * ke[..., c, :, d]
            blocks[c, d] = np.bincount(slots.ravel(), w.ravel(), indices.size)
    n = mesh.total_dofs
    blocks = blocks.transpose(2, 0, 1)
    K = sp.bsr_matrix((blocks, indices, indptr), shape=(n, n)).tocsr()
    if bc is not None:
        fixed = ~bc.free_mask
        K.data[np.repeat(fixed, np.diff(K.indptr)) | fixed[K.indices]] = 0.0
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
    K = _scatter(mesh, element_moduli, element_stiffness(mesh, 1.0), bc)
    if bc is not None:
        K = (K + sp.diags((~bc.free_mask).astype(float))).tocsr()
        K.sum_duplicates()
    return K


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
    dims = mesh.dims
    reach = int(np.ceil(radius - 1e-12)) - 1
    reach = max(reach, 0)
    offsets = []
    rng = range(-reach, reach + 1)
    if mesh.ndim == 2:
        for dx in rng:
            for dy in rng:
                d = np.hypot(dx, dy)
                if d < radius:
                    offsets.append((np.array([dx, dy]), radius - d))
    else:
        for dx in rng:
            for dy in rng:
                for dz in rng:
                    d = np.sqrt(dx * dx + dy * dy + dz * dz)
                    if d < radius:
                        offsets.append((np.array([dx, dy, dz]), radius - d))

    index_grids = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
    idx = np.stack([g.ravel(order="F") for g in index_grids], axis=1)
    strides = np.cumprod([1] + list(dims[:-1]))
    rows, cols, vals = [], [], []
    for off, w in offsets:
        nbr = idx + off
        ok = np.all((nbr >= 0) & (nbr < np.array(dims)), axis=1)
        e = (idx[ok] * strides).sum(axis=1)
        f = (nbr[ok] * strides).sum(axis=1)
        rows.append(e)
        cols.append(f)
        vals.append(np.full(e.size, w))
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.element_count, mesh.element_count),
    ).tocsr()
    rowsum = np.asarray(S.sum(axis=1)).ravel()
    S = sp.diags(1.0 / rowsum) @ S
    return FilterOperator(matrix=S.tocsr(), radius=float(radius))


def rigid_body_modes(mesh, fixed_dofs=None):
    """Rigid-body-mode candidate vectors (3 columns in 2D, 6 in 3D).

    Computed from the full-mesh geometry; optionally zeroed on fixed dofs.
    """
    xyz = mesh.node_coordinates()
    xyz = xyz - xyz.mean(axis=0)
    n = mesh.node_count
    dpn = mesh.dofs_per_node
    if mesh.ndim == 2:
        B = np.zeros((n * dpn, 3))
        B[0::2, 0] = 1.0
        B[1::2, 1] = 1.0
        B[0::2, 2] = -xyz[:, 1]
        B[1::2, 2] = xyz[:, 0]
    else:
        B = np.zeros((n * dpn, 6))
        for c in range(3):
            B[c::3, c] = 1.0
        # rotations about z, x, y
        B[0::3, 3] = -xyz[:, 1]
        B[1::3, 3] = xyz[:, 0]
        B[1::3, 4] = -xyz[:, 2]
        B[2::3, 4] = xyz[:, 1]
        B[0::3, 5] = xyz[:, 2]
        B[2::3, 5] = -xyz[:, 0]
    if fixed_dofs is not None:
        B[np.asarray(fixed_dofs, dtype=np.int64)] = 0.0
    return B
