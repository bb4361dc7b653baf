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

    def coarsened(self):
        """The mesh coarsened once, the next geometric multigrid level: an axis
        of d > 1 elements becomes ceil(d/2) elements of twice the size, and an
        axis of one element stays."""
        return StructuredMesh(tuple(-(-d // 2) for d in self.dims),
                              tuple(2 * h if d > 1 else h
                                    for d, h in zip(self.dims, self.element_size)))

    @functools.cache
    def prolongation(self):
        """Multilinear interpolation of every dof from the nodes of
        `coarsened()` to this mesh's nodes, as CSR with read-only arrays,
        computed once per mesh.

        Lexicographic node numbering (x fastest) makes the nodal operator a
        Kronecker product of 1D hat interpolations; an axis of one element
        keeps its nodes.
        """
        p1d = [_prolongation_1d(d) if d > 1 else sp.identity(d + 1, format="csr")
               for d in self.dims]
        Pn = p1d[0]
        for p in p1d[1:]:
            Pn = sp.kron(p, Pn, format="csr")
        P = sp.kron(Pn, sp.identity(self.dofs_per_node), format="csr")
        for a in (P.data, P.indices, P.indptr):
            _read_only(a)
        return P

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
    def stencil_pattern(self, components=None):
        """Node-stencil sparsity of the assembled operators, read-only and
        computed once per mesh and `components`.

        Returns (offsets, indptr, layers). offsets are the node-index offsets
        of the 3**ndim neighbor stencil, ascending. indptr is the int32 row
        pointer of the dof-level CSR pattern, whose rows of node i hold the
        nodes i + offsets[o] that share an element with i, each with the
        block components that `components` marks: a tuple of
        dofs_per_node**2 bools, row-major, or None for all. A layer is the
        nodes of one index along the last axis. For the first layer, a layer
        in between and the last, layers holds a pair (gather, columns): the
        positions of the layer's entries, in CSR order, in the
        (dofs_per_node, offsets.size, dofs_per_node, layer nodes) array of
        its node blocks, as intp so that `np.take` uses them without a
        conversion, and their int32 column indices less the dof index of the
        layer's first node.
        """
        dpn = self.dofs_per_node
        kept = (np.ones((dpn, dpn), dtype=bool) if components is None
                else np.reshape(components, (dpn, dpn)))
        # neighbor steps, lexicographic with the last axis slowest
        steps = np.array(list(itertools.product((-1, 0, 1), repeat=self.ndim)))[:, ::-1]
        offsets = self.node_index(*steps.T)
        plane = _lattice([d + 1 for d in self.dims[:-1]])
        n = plane.shape[0]
        j, c, o, d = np.indices((n, dpn, offsets.size, dpn)).reshape(4, -1)
        layers, row_nnz = [], []
        for z in (0, 1, self.dims[-1]):
            reach = np.column_stack((plane, np.full(n, z)))[:, None] + steps
            valid = np.all((reach >= 0) & (reach <= np.array(self.dims)), axis=2)
            keep = valid[j, o] & kept[c, d]
            gather = (((c * offsets.size + o) * dpn + d) * n + j)[keep]
            columns = (dpn * (j + offsets[o]) + d)[keep]
            layers.append((_read_only(gather), _read_only(columns.astype(np.int32))))
            row_nnz.append(np.outer(valid.sum(axis=1), kept.sum(axis=1)).ravel())
        row_nnz = [row_nnz[0]] + [row_nnz[1]] * (self.dims[-1] - 1) + [row_nnz[2]]
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(row_nnz))))
        return _read_only(offsets), _read_only(indptr.astype(np.int32)), tuple(layers)


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

    The node blocks are accumulated a chunk of whole node layers (see
    `StructuredMesh.stencil_pattern`) at a time: for each element corner a,
    in ascending element order, every node of the chunk adds
    moduli[e] * ke[e][a, :, b, :] to its block at the stencil offset from
    corner a to corner b. That sums the same products in the same order as
    one bincount per block component would. Each layer's entries are then
    gathered straight into the matrix's data, so a call keeps no array beside
    the matrix but one chunk. With bc, the rows and columns of its fixed dofs
    are zeroed, their diagonal is set to 1 if unit_diagonal, and every
    stored zero is dropped. The returned matrix has sorted indices and
    arrays no other matrix shares; with bc, they may extend past its nnz by
    the dropped entries.
    """
    dpn = mesh.dofs_per_node
    corners = _CORNERS[mesh.ndim][:, ::-1]  # grid-axis order, last axis first
    k = corners.shape[0]
    # the stencil position of the block that couples corners a and b
    stencil = (corners[None, :] - corners[:, None] + 1) @ 3 ** np.arange(mesh.ndim)[::-1]
    # a node is corner a of the element whose origin lies a's node offset
    # below it, so descending offsets take its elements in ascending order
    order = np.argsort(-mesh.node_index(*_CORNERS[mesh.ndim].T))
    grid = mesh.dims[::-1]
    plane = tuple(g + 1 for g in grid[1:])
    layer = int(np.prod(plane))
    moduli = moduli.reshape((grid[0], 1, 1) + grid[1:])
    components = None
    if bc is not None:
        # a block component that is zero in every element matrix (K_sigma's
        # off-diagonal ones) would be dropped, so it is left out of the pattern
        nonzero = np.any(ke.reshape(-1, (k * dpn) ** 2), axis=0)  # no mask of ke's size
        nonzero = nonzero.reshape(k, dpn, k, dpn).any(axis=(0, 2))
        nonzero |= unit_diagonal & np.eye(dpn, dtype=bool)
        if not nonzero.all():
            components = tuple(nonzero.ravel().tolist())
    offsets, indptr, layers = mesh.stencil_pattern(components)
    n_off = offsets.size
    # ke[a, b, e]: the block of corners a and b of element e, with its
    # components ahead of the element axes after the first
    ke = np.broadcast_to(ke, (mesh.element_count,) + ke.shape[-2:])
    axes = len(grid)
    ke = ke.reshape(grid + (k, dpn, k, dpn)).transpose(
        (axes, axes + 2, 0, axes + 1, axes + 3) + tuple(range(1, axes)))
    chunk = -(-(grid[0] + 1) // 8)  # layers per chunk, for at most eight chunks
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    chunk_blocks = np.empty((chunk, dpn, n_off, dpn) + plane)
    for l0 in range(0, grid[0] + 1, chunk):
        l1 = min(l0 + chunk, grid[0] + 1)
        blocks = chunk_blocks[:l1 - l0]
        blocks.fill(0.0)
        for a in order:
            e0, e1 = max(l0 - corners[a, 0], 0), min(l1 - corners[a, 0], grid[0])
            if e0 >= e1:
                continue
            target = blocks[(slice(e0 + corners[a, 0] - l0, e1 + corners[a, 0] - l0),
                             slice(None), slice(None), slice(None))
                            + tuple(slice(c, c + n) for c, n in zip(corners[a, 1:], grid[1:]))]
            m = moduli[e0:e1]
            for b in range(k):
                target[:, :, stencil[a, b]] += m * ke[a, b, e0:e1]
        for z in range(l0, l1):
            gather, columns = layers[0 if z == 0 else 2 if z == grid[0] else 1]
            p = indptr[dpn * layer * z]
            # the positions are all in range, so clipping, which is faster
            # than the default bounds check, changes none of them
            np.take(blocks[z - l0].reshape(-1), gather, out=data[p:p + gather.size],
                    mode="clip")
            np.add(columns, dpn * layer * z, out=indices[p:p + gather.size])
    n = mesh.total_dofs
    K = sp.csr_matrix((data, indices, indptr.copy()), shape=(n, n))
    K.has_sorted_indices = True
    if bc is not None:
        fixed = ~bc.free_mask
        # the rows of the nodes within one stencil step of a fixed dof
        near = np.flatnonzero(fixed.reshape(-1, dpn).any(axis=1))
        near = np.unique(np.clip(near[:, None] + offsets, 0, mesh.node_count - 1))
        rows = (near[:, None] * dpn + np.arange(dpn)).ravel()
        starts, lengths = indptr[rows], indptr[rows + 1] - indptr[rows]
        s = (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
             + np.arange(lengths.sum()))
        rows = np.repeat(rows, lengths)
        data[s[fixed[rows] | fixed[indices[s]]]] = 0.0
        if unit_diagonal:
            data[s[fixed[rows] & (indices[s] == rows)]] = 1.0
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


@functools.cache
def _coarsening_table(mesh):
    """The Galerkin-coarsened element matrices Q_s^T ke Q_s of the mesh and
    its `coarsened()` mesh, one row per child s of a coarse element,
    read-only and computed once per mesh.

    Children are numbered with the last axis slowest; Q_s is the block of
    `prolongation()` that interpolates a coarse element's corner dofs to the
    corner dofs of its child s. Returns (factors, table): the children of a
    coarse element along each axis, and table of shape (children, nd * nd).
    """
    coarse = mesh.coarsened()
    # a coarse element spans as many children along an axis as its size is
    # times theirs: 2 where the axis halved, 1 where it stayed
    factors = tuple(round(c / h) for h, c in zip(mesh.element_size, coarse.element_size))
    strides = np.cumprod((1,) + mesh.dims[:-1])
    P, corners = mesh.prolongation(), coarse.element_dofs()[0]
    ke = element_stiffness(mesh)
    table = []
    for child in _lattice(factors) @ strides:
        Q = P[mesh.element_dofs()[child]][:, corners].toarray()
        kc = Q.T @ ke @ Q
        table.append((0.5 * (kc + kc.T)).ravel())
    return factors, _read_only(np.array(table))


def coarsened_stiffness(mesh, K, element_moduli):
    """P^T K P for P = mesh.prolongation() and the stiffness K that
    `assemble_stiffness` assembled from the element moduli, with or without
    a bc, assembled on the `coarsened()` mesh.

    On nested structured grids the product for the unconstrained stiffness
    is an assembly of Galerkin-coarsened element matrices: coarse element E
    gets sum_s moduli[child s of E] * Q_s^T ke Q_s, one matrix product of
    the children's moduli with the mesh's table of the Q_s^T ke Q_s. A child
    past the end of an odd axis has modulus 0.

    A Dirichlet correction is added. K's single-entry diagonal rows F hold
    its fixed dofs, whose rows and columns `_scatter` zeroed before setting a
    unit diagonal, and any free dof whose every coupled dof is fixed, which
    keeps its own diagonal. With D_F those diagonal entries, P_F = P[F] and
    R_F the rows F of the unconstrained stiffness, summed from the elements
    that hold them only, the correction is
    P_F^T D_F P_F - P_F^T (R_F P) - (R_F P)^T P_F + P_F^T R_FF P_F. The sum
    equals the sparse triple product to rounding.
    """
    factors, table = _coarsening_table(mesh)
    coarse = mesh.coarsened()
    cdims = coarse.dims
    padded = np.zeros(tuple(c * f for c, f in zip(cdims, factors))[::-1])
    padded[tuple(slice(d) for d in mesh.dims[::-1])] = element_moduli.reshape(mesh.dims[::-1])
    g = mesh.ndim
    children = padded.reshape(tuple(x for c, f in zip(cdims[::-1], factors[::-1])
                                    for x in (c, f))).transpose(
        tuple(range(0, 2 * g, 2)) + tuple(range(1, 2 * g, 2)))
    # element axis last in memory, as `_scatter` reads it
    ke = (table.T @ children.reshape(coarse.element_count, -1).T).T
    nd = int(np.sqrt(table.shape[1]))
    A = _scatter(coarse, np.ones(coarse.element_count), ke.reshape(-1, nd, nd), None)
    F = np.flatnonzero(np.diff(K.indptr) == 1)
    F = F[K.indices[K.indptr[F]] == F]
    if F.size:
        row = np.full(mesh.total_dofs, -1)
        row[F] = np.arange(F.size)
        edof = mesh.element_dofs()
        elements = np.flatnonzero((row[edof] >= 0).any(axis=1))
        edof = edof[elements]
        values = element_moduli[elements, None, None] * element_stiffness(mesh)
        rows, cols = np.broadcast_arrays(row[edof][:, :, None], edof[:, None, :])
        keep = rows >= 0
        R = sp.csr_matrix((values[keep], (rows[keep], cols[keep])),
                          shape=(F.size, mesh.total_dofs))
        P = mesh.prolongation()
        PF = P[F]
        RP = R @ P
        DF = sp.diags(K.data[K.indptr[F]]) @ PF
        A = A + (PF.T @ (DF - RP + R[:, F] @ PF) - RP.T @ PF)
    return A


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
