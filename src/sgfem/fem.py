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
rule (exact for the integrand's polynomial degree).  So a field's stiffness
is linear in its nodal samples: K(f) = sum_n f[n] H_n, with H_n the
stiffness of the hat field of node n.  On the interior rows and columns,
the only ones kept, H_n is one fixed 9 x 9 table T over the offsets of the
row and the column from n (``_hat_table``), whatever n.  Many fields (the
coefficient matrices K_i of a stochastic operator) are assembled at once,
as one sparse product of their nodal samples with T laid out on the
pattern, and returned as plain arrays (indices, indptr, data): one CSR
pattern, the interior entries plus the boundary diagonal, and one row of
values per field, which GalerkinOperator takes as they are.  No per-field
matrix is formed.  Each value is summed over the table's offsets in one
order, whatever the numbering, so it equals, bit for bit, the one a
row-major numbering of the nodes gives at the same pair of grid points.
The same table gives the local hat stiffness (``local_hat_stiffness``)
that the lognormal operator's products read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

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

    @cached_property
    def hat_entries(self) -> tuple:
        """(row, node, col, u, value) of ``_hat_entries``, enumerated once
        per mesh for both the stiffness assembly and the local hat
        stiffness; read-only."""
        entries = _hat_entries(self)
        for a in entries:
            a.flags.writeable = False
        return entries

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
    plus the boundary diagonal, with data[r] the values of row r's matrix:
    each value of an interior entry (r, c) is sum_u f[r - u] T[u, v] over
    the entries of ``Mesh.hat_entries`` that reach it, in ascending u.  The
    rows are written _CHUNK_BYTES at a time, so no temporary has the size
    of data.  Boundary rows and columns are zeroed.  Row 0 is the mean
    coefficient, whose boundary diagonal is set to one; a row r >= 1 whose
    largest value is within STRUCTURAL_ZERO_RTOL of row 0's is stored as
    exact zeros (odd Karhunen-Loeve modes cancel up to rounding on the
    coarsest mesh).
    """
    fields = np.asarray(fields, dtype=float)
    if fields.ndim != 2 or fields.shape[1] != mesh.n_nodes:
        raise ValueError(f"fields have {fields.shape}, expected (n_fields, {mesh.n_nodes})")
    n = mesh.n_nodes
    row, node, col, _, value = mesh.hat_entries
    # the entries, then the diagonal of each boundary row, which none reaches
    keys = np.append(row * n + col, np.flatnonzero(mesh.boundary_mask) * (n + 1))
    order = np.argsort(keys, kind="stable")
    first = np.flatnonzero(np.diff(keys[order], prepend=-1))
    rows, indices = np.divmod(keys[order[first]], n)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    # row p of hat_t lists the entries of stored position p in ascending u
    entry = order[order < len(row)]
    ends = np.append(0, np.cumsum(order < len(row)))[np.append(first, len(order))]
    hat_t = sp.csr_matrix((value[entry], node[entry], ends), shape=(len(first), n))
    data = np.empty((len(fields), len(first)))
    step = max(1, _CHUNK_BYTES // (8 * len(first)))
    for lo in range(0, len(fields), step):
        data[lo:lo + step] = (hat_t @ fields[lo:lo + step].T).T
    # a boundary row stores its diagonal alone
    data[0, indptr[:-1][mesh.boundary_mask]] = 1.0
    _zero_structural_rows(data)
    return indices.astype(np.int32), indptr, data


# bytes of the temporary through which each chunk of stiffness rows is
# written.  Assembling 495 fields at 1/h = 20 and 30 (one BLAS thread,
# median of 9) took 6.4 and 19.1 ms at 0.5 MB, 5.6 and 16.0 ms at 1 MB,
# 6.2 and 15.9 ms at 2 MB, and 18.3 and 50.5 ms in one chunk; at N=4 P=3
# h=1/10 every row fits one chunk
_CHUNK_BYTES = 2 ** 20


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


@cache
def _hat_table() -> np.ndarray:
    """T[u, v]: the stiffness entry (n + u, n + v) of the hat field of a
    node n whose four elements all lie in the mesh, u and v the offsets of
    the row and column from n, numbered 3 (dy + 1) + dx + 1 (x fastest).

    Each of the four elements, with n at its corner a, adds sum_q N_a(q)
    G_q[b, c] at the offsets of its corners b and c from n.  T[u, v] is an
    exact zero where no element holds n, n + u and n + v.
    """
    hat = sum(np.multiply.outer(shape, grad) for shape, grad in _gauss_points())
    # 3 x 3 index of corners SW, SE, NE, NW from the element's SW corner
    corner = np.array([0, 1, 4, 3])
    a, b, c = np.indices((4, 4, 4)).reshape(3, -1)
    T = np.zeros((9, 9))
    np.add.at(T, (corner[b] - corner[a] + 4, corner[c] - corner[a] + 4), hat[a, b, c])
    T.flags.writeable = False
    return T


def _hat_entries(mesh: Mesh) -> tuple:
    """(row, node, col, u, value): every entry value = H_n[row, col] of the
    hat stiffness with row and col interior nodes, n = node, and u the
    offset of row from n.

    Every element that holds an interior node lies inside the mesh, so for
    interior r and c, H_n[r, c] = T[u, v] of ``_hat_table`` with u and v
    the offsets of r and c from n, boundary n included.  The entries run
    over the interior rows r ascending and, for each, over the nonzero
    T[u, v] with u ascending, v ascending; col = r - u + v stays in the 3 x
    3 neighbourhood of r, as T[u, v] is zero unless r and c share an
    element.
    """
    T = _hat_table()
    u, v = np.nonzero(T)
    step = _grid_steps(mesh)
    r = np.flatnonzero(~mesh.boundary_mask)
    # the grid index of node r - u
    grid = mesh.grid_index[r][:, None] - step[u]
    node, col = mesh.node_ids[grid], mesh.node_ids[grid + step[v]]
    keep = ~mesh.boundary_mask[col]
    row, u, value = np.broadcast_arrays(r[:, None], u, T[u, v])
    return row[keep], node[keep], col[keep], u[keep], value[keep]


def _grid_steps(mesh: Mesh) -> np.ndarray:
    """The grid-index step of each 3 x 3 offset, 3 (dy + 1) + dx + 1."""
    dy, dx = np.divmod(np.arange(9), 3)
    return (dy - 1) * (mesh.n_cells + 1) + dx - 1


def local_hat_stiffness(mesh: Mesh) -> tuple:
    """(H, S): the stiffness of every nodal hat field, local to its node.

    The coefficient is interpolated bilinearly from its nodal samples, so
    the stiffness matrix of a field f is linear in them: K(f) = sum_n f[n]
    H_n, where H_n is the stiffness of the hat field of node n (one at n,
    zero elsewhere) with the boundary rows and columns left out, as
    ``assemble_weighted_stiffness`` leaves them out, and without the unit
    boundary diagonal of the mean matrix.  H_n is nonzero only on the
    3 x 3 nodes around n.  H, a CSR matrix (9 n_nodes, n_nodes), holds row
    r of H_n as its local row 9 n + u, u the offset of r from n, read from
    the table T (``Mesh.hat_entries``); the 0/1 CSR matrix S (n_nodes,
    9 n_nodes) sums each local row into its spatial row r.  A local row
    whose node lies off the mesh or on its boundary is empty and summed
    nowhere.  Hence K(f) = S diag(f (x) 1_9) H.  Each row of S lists its
    local rows in the grid order of their nodes, not sorted by local row,
    so a product with S sums them in the same order under any numbering of
    the nodes.
    """
    n = mesh.n_nodes
    _, node, col, offset, value = mesh.hat_entries
    H = sp.csr_matrix((value, (9 * node + offset, col)), shape=(9 * n, n))
    # the nodes r - u of an interior row r in grid order: u descending
    u = np.arange(8, -1, -1)
    inner = np.flatnonzero(~mesh.boundary_mask)
    nodes = mesh.node_ids[mesh.grid_index[inner][:, None] - _grid_steps(mesh)[u]]
    S = sp.csr_matrix((np.ones(9 * len(inner)), (9 * nodes + u).ravel(),
                       np.append(0, np.cumsum(9 * ~mesh.boundary_mask))), shape=(n, 9 * n))
    return H, S


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
    for shape, _ in _gauss_points():
        np.add.at(load, conn.ravel(), (detj * (fe @ shape)[:, None] * shape[None, :]).ravel())
    load[mesh.boundary_mask] = 0.0
    return load

