"""Uniform bilinear (Q1) finite elements on the unit square.

The mesh keeps every node of the (n+1) x (n+1) grid in the algebraic system,
boundary nodes included.  Homogeneous Dirichlet conditions are imposed by
zeroing boundary rows and columns; the matrix for the mean coefficient gets
unit diagonal entries at boundary nodes so it stays positive definite, while
fluctuation matrices keep zero diagonals there and never couple boundary
degrees of freedom.  This keeps each spatial block the full node count, so
block dimensions are (n+1)^2.  The interior nodes are numbered first and the
boundary nodes last, so the Dirichlet rows, which hold only K_0's unit
diagonal, form one trailing range [(n-1)^2, (n+1)^2) of every spatial block,
and the solver's kernels run on the leading range alone.

Weighted stiffness entries are integrals of k grad(phi_l) . grad(phi_m) with
the coefficient k interpolated bilinearly inside each element and a 2x2 Gauss
rule (exact for the integrand's polynomial degree).  Many fields (the
coefficient matrices K_i of a stochastic operator) are assembled at once and
returned as plain arrays (indices, indptr, data): one CSR pattern, the
interior entries plus the boundary diagonal, and one row of values per
field, which GalerkinOperator takes as they are.  No per-field matrix is
formed.  Duplicates are summed in element order, whatever the numbering,
so each value equals, bit for bit, the one a row-major numbering of the
nodes gives at the same pair of grid points.

Because the coefficient is interpolated bilinearly, a field's stiffness is
linear in its nodal samples: K(f) = sum_n f[n] H_n, with H_n the stiffness
of the hat field of node n (``local_hat_stiffness``).  Many fields can
therefore skip the element assembly: the lognormal builder assembles only
the mean field by elements and gives every other row as one sparse product
f Hhat with the hat stiffness on the pattern (``_hat_stiffness``), equal to
the element assembly up to rounding.  Both routes store a row that is zero
up to rounding as exact zeros by one rule (``_zero_structural_rows``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# relative size below which a fluctuation row is stored as exact zeros
STRUCTURAL_ZERO_RTOL = 1e-12
_GAUSS = 1.0 / np.sqrt(3.0)
_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))


@dataclass(frozen=True)
class Mesh:
    """Uniform n x n grid of square Q1 elements on [0, 1]^2.

    Grid point (ix, iy) lies at (ix*h, iy*h) and has the grid index
    iy*(n+1) + ix (row-major, x fastest).  Nodes are numbered interior first,
    then boundary, each in grid-index order: node k is the grid point
    ``grid_index[k]``, and the grid point g is node ``node_ids[g]``.  The
    boundary nodes are thus the trailing range [(n-1)^2, (n+1)^2).
    """

    n_cells: int

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_nodes(self) -> int:
        return (self.n_cells + 1) ** 2

    @cached_property
    def grid_index(self) -> np.ndarray:
        """The grid index of every node: the interior grid points, then
        the boundary ones, each ascending; read-only."""
        n, n1 = self.n_cells, self.n_cells + 1
        iy, ix = np.divmod(np.arange(n1 * n1), n1)
        edge = (ix == 0) | (ix == n) | (iy == 0) | (iy == n)
        grid = np.argsort(edge, kind="stable")
        grid.flags.writeable = False
        return grid

    @cached_property
    def node_ids(self) -> np.ndarray:
        """The node of every grid index, the inverse of ``grid_index``;
        read-only."""
        ids = np.empty(self.n_nodes, dtype=np.intp)
        ids[self.grid_index] = np.arange(self.n_nodes)
        ids.flags.writeable = False
        return ids

    @property
    def node_coords(self) -> np.ndarray:
        g = np.linspace(0.0, 1.0, self.n_cells + 1)
        iy, ix = np.divmod(self.grid_index, self.n_cells + 1)
        return np.column_stack([g[ix], g[iy]])

    @property
    def boundary_mask(self) -> np.ndarray:
        return np.arange(self.n_nodes) >= (self.n_cells - 1) ** 2

    @property
    def connectivity(self) -> np.ndarray:
        """(n_elements, 4) node ids, corner order SW, SE, NE, NW; elements
        in row-major order of their SW corner."""
        n, n1 = self.n_cells, self.n_cells + 1
        ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        sw = ey.ravel() * n1 + ex.ravel()
        return self.node_ids[np.column_stack([sw, sw + 1, sw + n1 + 1, sw + n1])]


def build_mesh(h: float) -> Mesh:
    """Mesh with element size h; 1/h must be a positive integer."""
    if h <= 0:
        raise ValueError(f"element size must be positive, got {h}")
    n = 1.0 / h
    if abs(n - round(n)) > 1e-9 * n:
        raise ValueError(f"1/h must be an integer, got 1/h = {n}")
    return Mesh(int(round(n)))


def assemble_weighted_stiffness(mesh: Mesh, fields: np.ndarray):
    """Stiffness matrices of coefficient fields given by nodal samples.

    ``fields`` holds one field per row.  Gives the arrays (indices, indptr,
    data) of all their matrices on one CSR pattern, the interior entries
    plus the boundary diagonal, with data[r] the values of row r's matrix,
    all from one sparse product.  Boundary rows and columns are zeroed.
    Row 0 is the mean coefficient, whose boundary diagonal is set to one;
    a row r >= 1 whose largest value is within STRUCTURAL_ZERO_RTOL of row
    0's is stored as exact zeros (odd Karhunen-Loeve modes cancel up to
    rounding on the coarsest mesh).
    """
    fields = np.asarray(fields, dtype=float)
    if fields.ndim != 2 or fields.shape[1] != mesh.n_nodes:
        raise ValueError(f"fields have {fields.shape}, expected (n_fields, {mesh.n_nodes})")
    coeff = fields[:, mesh.connectivity].reshape(-1, 4)
    ke = np.zeros((len(coeff), 4, 4))                     # n_fields * n_elements
    for shape, grad in _gauss_points():
        ke += (coeff @ shape)[:, None, None] * grad
    S, indices, indptr = _assembly_map(mesh)
    data = np.ascontiguousarray((S @ ke.reshape(-1, S.shape[1]).T).T)
    # a boundary row stores its diagonal alone
    data[0, indptr[:-1][mesh.boundary_mask]] = 1.0
    _zero_structural_rows(data)
    return indices, indptr, data


def _zero_structural_rows(data: np.ndarray) -> None:
    """Store as exact zeros, in place, every row r >= 1 of ``data`` whose
    largest magnitude is within STRUCTURAL_ZERO_RTOL of row 0's; the
    magnitudes are read without a temporary of the size of data."""
    scale = np.maximum(data.max(axis=1), -data.min(axis=1))
    data[1:][scale[1:] <= STRUCTURAL_ZERO_RTOL * scale[0]] = 0.0


def _gauss_points():
    """(N(q), G_q) at each point q of the 2x2 Gauss rule: the four shape
    functions and the element matrix of their gradient products, so that
    an element's stiffness is sum_q (coeff . N(q)) G_q."""
    for gx in (-_GAUSS, _GAUSS):
        for gy in (-_GAUSS, _GAUSS):
            shape = np.array([0.25 * (1 + cx * gx) * (1 + cy * gy)
                              for cx, cy in _CORNERS])
            dxi = np.array([0.25 * cx * (1 + cy * gy) for cx, cy in _CORNERS])
            deta = np.array([0.25 * cy * (1 + cx * gx) for cx, cy in _CORNERS])
            # (2/h)^2 from the gradients cancels detJ = h^2/4
            yield shape, np.outer(dxi, dxi) + np.outer(deta, deta)


def local_hat_stiffness(mesh: Mesh) -> tuple:
    """(H, S): the stiffness of every nodal hat field, local to its node.

    The coefficient is interpolated bilinearly from its nodal samples, so
    the stiffness matrix of a field f is linear in them: K(f) = sum_n f[n]
    H_n, where H_n is the stiffness of the hat field of node n (one at n,
    zero elsewhere) with the boundary rows and columns left out, as
    ``assemble_weighted_stiffness`` leaves them out, and without the unit
    boundary diagonal of the mean matrix.  H_n is nonzero only on the
    3 x 3 nodes around n.  H, a CSR matrix (9 n_nodes, n_nodes), holds row
    r of H_n as its local row 9 n + k, r the k-th node of that
    neighbourhood, x fastest; the 0/1 CSR matrix S (n_nodes, 9 n_nodes)
    sums each local row into its spatial row r.  A local row whose node
    lies off the mesh or on its boundary is empty and summed nowhere.
    Hence K(f) = S diag(f (x) 1_9) H.  Each element with node n at its
    corner a adds the fixed matrix sum_q N_a(q) G_q of its corners; no
    field is assembled.  Each row of S lists its local rows in the grid
    order of their nodes, not sorted by local row, so a product with S
    sums them in the same order under any numbering of the nodes.
    """
    n1, n = mesh.n_cells + 1, mesh.n_nodes
    hat = sum(np.multiply.outer(shape, grad) for shape, grad in _gauss_points())
    # corner offsets (x, y) of SW, SE, NE, NW
    ox, oy = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])
    a, b, c = np.indices((4, 4, 4)).reshape(3, -1)
    conn, boundary = mesh.connectivity, mesh.boundary_mask
    node, row, col = conn[:, a], conn[:, b], conn[:, c]
    local = 9 * node + 3 * (oy[b] - oy[a] + 1) + ox[b] - ox[a] + 1
    keep = ~(boundary[row] | boundary[col])
    H = sp.csr_matrix((np.broadcast_to(hat[a, b, c], keep.shape)[keep],
                       (local[keep], col[keep])), shape=(9 * n, n))
    # local row k = 3 dy + dx of node (ix, iy) is node (ix + dx - 1, iy + dy - 1),
    # so an interior node's k-th neighbour in grid order holds its row as
    # local row 8 - k
    oy, ox = np.divmod(np.arange(9), 3)
    inner = np.flatnonzero(~boundary)
    nodes = mesh.node_ids[mesh.grid_index[inner][:, None] + (oy - 1) * n1 + ox - 1]
    S = sp.csr_matrix((np.ones(9 * len(inner)), (9 * nodes + 8 - 3 * oy - ox).ravel(),
                       np.append(0, np.cumsum(9 * ~boundary))), shape=(n, 9 * n))
    return H, S


# bytes of the temporary that each chunk of _hat_stiffness's rows writes
# through.  Filling data at N=4 P=4, 1/h = 20 and 30 (495 rows, one BLAS
# thread) took 5.5 and 14.6 ms at 0.5 MB, 5.2 and 14.4 ms at 1 MB, 6.7 and
# 14.4 ms at 2 MB; at N=4 P=3 h=1/10 every row fits one chunk
_CHUNK_BYTES = 2 ** 20


def _hat_values(H: sp.csr_matrix, S: sp.csr_matrix, indices: np.ndarray,
                indptr: np.ndarray) -> sp.csr_matrix:
    """The hat stiffness on a stiffness pattern: the CSR matrix (n_nodes,
    nnz) whose row n holds H_n at the stored positions of the pattern
    (indices, indptr), for (H, S) of ``local_hat_stiffness``.

    Local row 9 n + k of H is spatial row r of H_n, the row into which S
    sums it, so its entry in column c goes to row n at the position of
    (r, c).  The pattern must store every such (r, c), with each row's
    columns ascending, as ``assemble_weighted_stiffness`` gives it; the
    values are H's unchanged.
    """
    n = S.shape[0]
    spatial_row = np.empty(S.shape[1], dtype=np.int64)
    summed = S.tocoo()
    spatial_row[summed.col] = summed.row
    local = H.tocoo()
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    pos = np.searchsorted(keys, spatial_row[local.row] * n + local.col)
    return sp.csr_matrix((local.data, (local.row // 9, pos)), shape=(n, len(indices)))


def _hat_stiffness(mean: tuple, fields: np.ndarray, H: sp.csr_matrix,
                   S: sp.csr_matrix) -> tuple:
    """(indices, indptr, data) of the stiffness of every field, from
    ``mean`` = assemble_weighted_stiffness(mesh, fields[:1]) and (H, S) of
    ``local_hat_stiffness(mesh)``.

    Row 0 of data is mean's values, bit for bit.  A row r >= 1 is
    fields[r] Hhat with Hhat of ``_hat_values``: the interpolated field's
    stiffness sum_n fields[r, n] H_n, equal to the element assembly up to
    rounding (1.9e-16 relative to K_0 at N=4 P=3 h=1/10).  With K_0's
    assembly included, all fields take 1.9 against 6.4 ms by elements
    there and 23 against 275 ms at N=4 P=4 1/h = 30.  The rows are
    written into data _CHUNK_BYTES at a time, so no temporary has the size
    of data, and the structural-zero rule of ``assemble_weighted_stiffness``
    is applied to them.
    """
    indices, indptr, mean_values = mean
    hats = _hat_values(H, S, indices, indptr)
    data = np.empty((len(fields), len(indices)))
    data[0] = mean_values[0]
    step = max(1, _CHUNK_BYTES // (8 * len(indices)))
    for lo in range(1, len(fields), step):
        data[lo:lo + step] = fields[lo:lo + step] @ hats
    _zero_structural_rows(data)
    return indices, indptr, data


def _assembly_map(mesh: Mesh) -> tuple:
    """(S, indices, indptr): the element matrices, flattened to one row of
    ``ke``, sum to the stiffness values S @ ke on the CSR pattern (indices,
    indptr) of the interior entries and the boundary diagonal.

    Each row of S adds the duplicates of one entry in the order in which
    scipy's COO-to-CSR conversion adds them (rows bucketed stably, then each
    row's columns sorted by a routine that compares columns only, which
    entry numbers in place of values reproduce), so the values equal an
    element-by-element assembly bit for bit.  Entries touching a boundary
    node are left out, which zeroes the Dirichlet rows and columns; the
    boundary diagonal keeps its position with an empty row of S.
    """
    conn, n, boundary = mesh.connectivity, mesh.n_nodes, mesh.boundary_mask
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel().astype(np.int32)
    order = np.argsort(rows, kind="stable")
    P = sp.csr_matrix((order.astype(float), cols[order],
                       np.searchsorted(rows[order], np.arange(n + 1)).astype(np.int32)),
                      shape=(n, n))
    P.sort_indices()
    perm = P.data.astype(np.intp)
    first = np.flatnonzero(np.diff(rows[perm] * n + P.indices, prepend=-1))
    r, c = rows[perm[first]], P.indices[first]
    inside = ~(boundary[r] | boundary[c])
    keep = inside | (boundary[r] & (r == c))
    runs = np.diff(np.append(first, len(perm)))
    terms = np.where(inside, runs, 0)[keep]
    S = sp.csr_matrix((np.ones(terms.sum()), perm[np.repeat(inside, runs)],
                       np.append(0, np.cumsum(terms))), shape=(len(terms), perm.size))
    indptr = np.searchsorted(r[keep], np.arange(n + 1)).astype(np.int32)
    return S, c[keep], indptr


def assemble_load(mesh: Mesh, f: float = 1.0) -> np.ndarray:
    """Load vector for the constant source f, zero at boundary nodes.

    The source is interpolated bilinearly like the coefficient (2x2 Gauss,
    exact for bilinear data).  The stochastic right-hand side blocks for
    k >= 1 vanish because the mean of every non-constant orthonormal basis
    polynomial is zero; callers build the global vector by placing this
    into block 0.
    """
    conn = mesh.connectivity
    fe = np.full(mesh.n_nodes, float(f))[conn]            # (ne, 4)
    load = np.zeros(mesh.n_nodes)
    detj = mesh.h * mesh.h / 4.0
    for gx in (-_GAUSS, _GAUSS):
        for gy in (-_GAUSS, _GAUSS):
            shape = np.array([0.25 * (1 + cx * gx) * (1 + cy * gy)
                              for cx, cy in _CORNERS])
            np.add.at(load, conn.ravel(),
                      (detj * (fe @ shape)[:, None] * shape[None, :]).ravel())
    load[mesh.boundary_mask] = 0.0
    return load

