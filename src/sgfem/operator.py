"""Coupled Galerkin operator and its hierarchical block views.

The global system matrix consists of (M+1)^2 spatial blocks

    K^(j,k) = sum_i c_ijk K_i,

where the K_i share one CSR pattern and one (n_coeff, nnz) data array and
C_i is the i-th sparse coupling matrix of the triple-product tensor.  The
operator is built from those arrays as the assembly gives them, (indices,
indptr, data), and from the tensor's one stacked CSR, so its set-up makes no
per-coefficient object; ``matrices`` gives CSR views of the K_i on first
access.  Every product is a sub-block product A[rows, cols] @ U[cols]
over block ranges, and in either of its two forms computes only those rows.
Every operator keeps one contract, checked once when it is built: each
stored spatial position (r, c) has its mirror (c, r) stored, data holds the
same values at both, so every K_i is symmetric, and every spatial row
stores its diagonal.  Both builders meet it; any other input is refused
with one ValueError.  The mean coupling C_0 is the identity, c_0tj =
E[psi_t psi_j] in an orthonormal basis, which both families give exactly;
a tensor whose C_0 is not is refused with a ValueError of its own.  When
each nonzero block holds a single term (the linear Karhunen-Loeve
coefficient) a product runs matrix-free, as
sum_i C_i[rows, cols] @ (U @ K_i^T), each K_i multiplying only the column
blocks that reach those rows, gathered as rows of U where that pays; it
can leave out the mean term, for (A - I (x) K_0)[rows, cols] @ U[cols],
which the mean-based preconditioner's A z reads (``_product``).  The
lognormal chaos coefficient sums many terms per block, and its builder
hands over nodal factors: the chaos
fields F, sampled at the mesh nodes, from which the bilinear interpolation
of the assembly makes every K_i linear, K_i = sum_n F[i, n] H_n, with H_n
the stiffness of the hat field of node n (``fem.local_hat_stiffness``).
So A = sum_n H_n (x) T_n, plus the unit boundary diagonal of K_0 in every
diagonal block, with the dense stochastic block T_n = sum_i F[i, n] C_i of
each node, and a product reads one T_n per node (121 at h=1/10) where a
block per stored spatial position would read 393.  An operator built from
plain matrices has no nodal factors and multiplies matrix-free, which is
exact for any K_i.  No solve assembles a sub-matrix: ``assemble_range``
serves ``dense`` and ``masked_apply`` alone.

The mesh numbers its boundary nodes last, so the Dirichlet rows, which
store only K_0's unit diagonal and are zero in every other K_i, form one
trailing range [n_c, ndof) of every spatial block (40 of 121 rows at
h=1/10).  Products, and mean solves by the dense K_0^{-1}, run on the
leading n_c rows and columns alone; on the Dirichlet rows A[rows, cols] X
is X_t, one copy, and a mean solve copies them.  The graded index
ordering induces a nested 2x2 partition

    A_l = [[A_{l-1}, B_l], [C_l, D_l]],    l = P, ..., 1,

where A_{l-1} spans the blocks of degree < l and D_l the blocks of degree
exactly l; level 0 has an empty head and D_0 = A_00 = K_0, the mean
block (c_i00 = E[psi_i] = 0 for i > 0).  For the truncated linear
(Karhunen-Loeve) coefficient case every D_l is I (x) K_0, each diagonal
block the mean matrix, so solving with D_l costs one
multi-right-hand-side K_0 solve; on meshes of up to
MEAN_INVERSE_LIMIT dof that is one product with the dense K_0^{-1}.
In the lognormal case D_l is coupled and symmetric, and numbered
node-major (spatial node outer, block inner) it is a band, which LAPACK's
band Cholesky factors once (``band_solvers``, the band filled straight
from the coupling values, D_l not assembled).  On the trailing Dirichlet
rows D_l is the identity, C_0 = I, and no stored position joins them to
the leading ones, so D_l is factored over the leading n_c nodes alone, a
band of half-width m b' + m - 1 with b' their bandwidth (10 at h=1/10), and
a solve copies the Dirichlet rows.  The same routine factors the diagonal
blocks A_jj of block Gauss-Seidel, the case of one block, as one band over
all nodes, of half-width 10 at h=1/10 too: the Dirichlet nodes, numbered
last, widen no band.  The
lognormal Galerkin matrix, the projection of a positive field, is positive
definite; a level or block that is not is refused with an error, never
solved another way.  C_l is the transpose of B_l, every K_i and C_i being
symmetric; each is a product over its own ranges.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import krylov
from .fem import Mesh, assemble_weighted_stiffness
from .kle import KLExpansion
from .multi_index import MultiIndexSet, build_multi_index_set
from .orthopoly import legendre_family
from .triple_product import TripleProductTensor, build_triple_product_tensor


class InnerSolveError(RuntimeError):
    """An inner block solve failed to reach its tolerance."""

    def __init__(self, block: int, residual: float, where: str = ""):
        self.block = block
        self.residual = residual
        msg = f"inner solve for block {block} stalled at residual {residual:.3e}"
        if where:
            msg += f" ({where})"
        super().__init__(msg)


INNER_MAX_ITER = 2000      # step cap of every inner CG loop


@dataclass(frozen=True)
class InnerSolver:
    """Policy for the solves inside a preconditioner.

    Under kind "exact" the operator factors: K_0 by sparse LU
    (``GalerkinOperator.mean_solver``), coupled levels and block
    Gauss-Seidel diagonal blocks by band Cholesky (``band_solvers``).  Kind
    "cg" solves K_0, and each block Gauss-Seidel diagonal block of a
    coupled level, by the Jacobi-preconditioned CG per right-hand side that
    ``make`` builds; a coupled level of up to DIRECT_LEVEL_LIMIT unknowns
    is band-factored under either kind (``d_block_solve``), and a larger
    one runs ``cg`` under either kind.  ``tol`` bounds every inner CG loop,
    level CG included; None means the outer tolerance, which each
    preconditioner fills in when built, and a CG loop reached with tol None
    raises ValueError.
    """

    kind: str = "exact"
    tol: float | None = None

    def make(self, matrix: sp.spmatrix):
        """The cg policy's solver B -> X of ``matrix``, one Jacobi-CG per
        row of B; X has the shape of B, a vector for a vector."""
        if self.kind != "cg":
            raise ValueError(f"InnerSolver.make builds the cg policy's solver, not one "
                             f"of kind {self.kind!r}; exact solves are the operator's")
        dinv = 1.0 / matrix.diagonal()
        prec = lambda r: dinv * r
        A = matrix.tocsr()

        def solve(B):
            rows = np.atleast_2d(B)
            X = np.empty(rows.shape)
            for row in range(len(rows)):
                X[row] = self.cg(A.dot, rows[row], prec, row, "inner cg")
            return X.reshape(np.shape(B))

        return solve

    def cg(self, apply_a, b: np.ndarray, apply_m, block: int, where: str) -> np.ndarray:
        """krylov.cg to this policy's tol, at most INNER_MAX_ITER steps;
        InnerSolveError for ``block`` unless it converged, finite and
        positive definite."""
        if self.tol is None:
            raise ValueError("inner tolerance is None, not set to the outer one")
        # krylov.cg returns zero at once for a zero right-hand side
        x, report = krylov.cg(apply_a, b, apply_m=apply_m, tol=self.tol,
                              max_iter=INNER_MAX_ITER)
        if not report.converged or report.spd_suspect or report.non_finite:
            raise InnerSolveError(block, report.relative_residuals[-1], where)
        return x


DENSE_ASSEMBLY_LIMIT = 2000
# largest coupled level system that d_block_solve factorizes
DIRECT_LEVEL_LIMIT = 20_000
# largest K_0 whose exact mean solver is its dense inverse.  T4 rows (mean,
# bsgs and hs, build included, one BLAS thread), LU -> inverse: 1/h = 15
# (256 dof) 0.081 -> 0.070 s; 1/h = 20 (441 dof) 0.164 -> 0.156 s, within
# the noise; 1/h = 30 (961 dof) 0.31 -> 0.56 s
MEAN_INVERSE_LIMIT = 256
# a matrix-free product gathers the column blocks of K_i, as whole rows of X
# whose leading n_c columns it copies transposed, when
# nnz (span - count) > GATHER_COPY n_c count + GATHER_FIXED, nnz the stored
# positions of the leading n_c rows that it multiplies: the stored
# positions of the columns it skips outweigh the entries it copies plus a
# fixed cost per gather, counted in stored positions multiplied for one
# column.  Every coefficient gathers when the gathers the others would add
# cost less than the shared X^T they spare, GATHER_COPY n_c span, counted
# once per plan.  Fitted to the whole-row gather on 226 planned ranges (25
# uniform bases and meshes, N=1-8, P=1-8, 1/h=4-30, one BLAS thread),
# timing each plan a threshold on count can give: over GATHER_COPY 0.5-4.0
# and GATHER_FIXED 0-4000 these constants kept each configuration's summed
# product time within 1.9 % of the fastest plan per range (mean 0.34 %).
# BENCH_gather.json holds the table
GATHER_COPY = 3.6
GATHER_FIXED = 1750
# bytes of data whose mirror the contract check gathers at a time
CHECK_CHUNK_BYTES = 2 ** 20

class GalerkinOperator:
    """The coupled block operator with its hierarchy views.

    ``stiffness`` is the triple (indices, indptr, data) that
    assemble_weighted_stiffness gives for many fields, as both builders
    take it: the spatial matrices share the CSR pattern (indices, indptr)
    and one ``(n_coeff, nnz)`` array ``data``, whose row i holds the values
    of K_i.  The mean solve, the band factors and matrix-free products read
    data; pre-summed products read F and the hat stiffness instead.  The
    operator's contract (see the module docstring) is checked here, before
    anything else is computed: ValueError unless every K_i is symmetric on
    the pattern and every spatial row stores its diagonal.  A coefficient whose data row is
    all zeros is structurally zero and takes part in no product.
    tensor holds the couplings c_ijk over the same coefficient index range,
    with C_0 = I stored as its diagonal of exact ones (else ValueError).
    ``nodal``, when given, is (F, H, S): the fields F (n_coeff, ndof) whose
    stiffness is data, the spatial dofs being the mesh nodes, and H, S of
    ``fem.local_hat_stiffness``, so that K_i = S diag(F[i] (x) 1_9) H plus,
    for i = 0, the unit diagonal of the spatial rows that S sums nothing
    into.  ``mean_matrix`` (K_0) and ``matrices`` (every K_i) are CSR views
    of the rows of data, made on first access: the mean solve reads K_0
    alone, and only matrix-free products read the others.
    Block vectors are ndarrays of shape (n_blocks, ndof); ``matvec`` works on
    the flat concatenation.  Immutable after construction (solver caches,
    nodal blocks and level factors are populated lazily but never change
    semantics), so concurrent applies are safe.
    """

    def __init__(self, stiffness: tuple, tensor: TripleProductTensor, nodal: tuple | None = None):
        self.indices, self.indptr, self.data = stiffness
        if len(self.data) != tensor.n_coeff:
            raise ValueError(
                f"{len(self.data)} spatial matrices vs {tensor.n_coeff} coefficient indices")
        self.nodal = nodal
        self.ndof = len(self.indptr) - 1
        self.tensor = tensor
        self.basis = tensor.basis
        self.n_blocks = tensor.n_basis
        self._solver_cache: dict = {}
        self._level_solvers: dict = {}
        self._plans: dict = {}
        # C_0 = I: rows 0..n-1 of stacked store one 1.0 each, on the diagonal
        n, C = self.n_blocks, tensor.stacked
        if not (np.array_equal(C.indptr[:n + 1], np.arange(n + 1))
                and np.array_equal(C.indices[:n], np.arange(n))
                and np.all(C.data[:n] == 1.0)):
            raise ValueError("GalerkinOperator needs the mean coupling C_0 = I "
                             "of an orthonormal basis")
        # the contract: each (r, c) has its mirror with the same values, and
        # the diagonal positions are (0, 0), ..., (ndof - 1, ndof - 1).
        # The values are compared CHECK_CHUNK_BYTES of rows at a time, so no
        # copy has the size of data; np.take gathers C-ordered, where
        # data[:, mirror] is F-ordered and took 45 ms against 14 at lognormal
        # N=4 P=4, 1/h = 30
        r, c, mirror = self._pattern_rows, self.indices, self._mirror
        step = max(1, CHECK_CHUNK_BYTES // (8 * len(mirror)))
        if not (np.array_equal(r[mirror], c) and np.array_equal(c[mirror], r)
                and all(np.array_equal(chunk, np.take(chunk, mirror, axis=1))
                        for chunk in (self.data[lo:lo + step]
                                      for lo in range(0, len(self.data), step)))
                and np.array_equal(r[r == c], np.arange(self.ndof))):
            raise ValueError("GalerkinOperator needs symmetric spatial matrices K_i "
                             "on a pattern that stores every diagonal")

    @cached_property
    def mean_matrix(self) -> sp.csr_matrix:
        """K_0, a CSR view of data[0]."""
        return _csr_view(self.data[0], self.indices, self.indptr)

    @cached_property
    def matrices(self) -> tuple:
        """Every K_i as a CSR view of data[i]."""
        return (self.mean_matrix, *(_csr_view(row, self.indices, self.indptr)
                                    for row in self.data[1:]))

    # -- shapes ---------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        n = self.n_blocks * self.ndof
        return (n, n)

    def as_blocks(self, u: np.ndarray) -> np.ndarray:
        """u with one row per block; a flat u is cut into ndof-long blocks."""
        u = np.asarray(u)
        return u.reshape(-1, self.ndof) if u.ndim == 1 else u

    def level_slices(self, level: int) -> tuple[slice, slice]:
        """(head, tail) block ranges of degree < l and of degree l."""
        if not 0 <= level <= self.basis.degree:
            raise ValueError(f"level must be in 0..{self.basis.degree}, got {level}")
        offsets = self.basis.degree_offsets
        return slice(0, offsets[level]), slice(offsets[level], offsets[level + 1])

    # -- representation ----------------------------------------------------
    @cached_property
    def coupling_entries(self) -> tuple:
        """(i, t, j, c_itj) of every stored coupling whose K_i is not
        structurally zero, as parallel arrays in ascending i."""
        S = self.tensor.stacked.tocoo()
        i = (S.row // self.n_blocks).astype(np.intp)
        live = self.data.any(axis=1)[i]
        return i[live], S.row[live] % self.n_blocks, S.col[live], S.data[live]

    @cached_property
    def live_blocks(self) -> tuple:
        """(t, j) of each block with a coupling entry: those products multiply."""
        _, t, j, _ = self.coupling_entries
        blocks = np.unique(t * self.n_blocks + j)
        return blocks // self.n_blocks, blocks % self.n_blocks

    @cached_property
    def presummed(self) -> bool:
        """Whether products read the nodal blocks T_n = sum_i F[i, n] C_i.

        They pay when some block sums more than one term, that is when the
        coupling entries outnumber the live blocks, and need the nodal
        factors that ``build_lognormal_operator`` hands over; otherwise
        products run matrix-free over the K_i, exact for any K_i, and no
        T_n is formed.
        """
        return (self.nodal is not None
                and len(self.coupling_entries[1]) > len(self.live_blocks[0]))

    @cached_property
    def node_blocks(self) -> np.ndarray:
        """node_blocks[n, t, j] = sum_i c_itj F[i, n]: the (n_blocks,
        n_blocks) stochastic block T_n of every mesh node n, over the
        coefficients that are not structurally zero, C-contiguous per node.
        Built by the first pre-summed product."""
        T = np.ascontiguousarray((self._block_couplings @ self.nodal[0]).T)
        return T.reshape(self.ndof, self.n_blocks, self.n_blocks)

    @cached_property
    def n_c(self) -> int:
        """The start of the trailing Dirichlet rows [n_c, ndof): the longest
        trailing run of spatial rows that store only their diagonal, 1 in
        K_0 and 0 in every other K_i.  No stored position joins them to
        the leading rows, so the kernels run on the leading n_c rows and
        columns, and on these rows A[rows, cols] X is X_t, C_0 being the
        identity (``product``).  The mesh numbers its boundary nodes last,
        so n_c = (1/h - 1)^2 for both builders."""
        first = self.indptr[:-1]
        unit = (np.diff(self.indptr) == 1) & (self.data[0, first] == 1.0)
        unit[unit] = ~self.data[1:, first[unit]].any(axis=0)
        # the trailing run: the rows after the last one that is not a unit row
        other = np.flatnonzero(~unit)
        return int(other[-1]) + 1 if len(other) else 0

    @cached_property
    def _leading_hat(self) -> sp.csr_matrix:
        """H of the nodal factors cut to its leading n_c columns: no local
        row stores a Dirichlet column."""
        return self.nodal[1][:, :self.n_c]

    @cached_property
    def _leading_matrices(self) -> tuple:
        """Every K_i[:n_c, :n_c], a CSR view of the first indptr[n_c]
        entries of data[i]: the leading rows store no Dirichlet column."""
        end = self.indptr[self.n_c]
        return tuple(_csr_view(row[:end], self.indices[:end], self.indptr[:self.n_c + 1])
                     for row in self.data)

    def row_sums(self, P: np.ndarray) -> np.ndarray:
        """out[r] = the sum of P[e] over the stored positions e of spatial
        row r, in pattern order; every row stores at least its diagonal."""
        return np.add.reduceat(P, self.indptr[:-1], axis=0)

    def _plan(self, rows: slice, cols: slice, mean: bool = True) -> tuple:
        """(span, groups, L) with A[rows, cols] @ X = L @ Y, built once per
        pair of ranges; without ``mean`` the same for (A - I (x) K_0)[rows,
        cols], the coefficients i >= 1 alone, under a key of its own.
        X[span] spans the column blocks j of every pair (i, j) with a
        coupling c_itj, t in rows.  Each coefficient i with
        such a pair has a group (K_i, sel, out) that writes
        Y[out] = (K_i @ Z).T: Z gathers its own column blocks, the leading
        n_c columns of the whole rows X[sel], transposed, when the stored
        positions of the skipped columns outweigh the gather (GATHER_COPY,
        GATHER_FIXED), or, with every other coefficient, when their gathers
        cost less than the shared X[span].T they spare; Z is that shared
        copy otherwise, with sel None, and span is None when every
        coefficient gathers.
        L[t - rows.start, Y row of K_i X_j] = c_itj, so each row sums its
        terms in ascending i, then j."""
        n = self.n_blocks
        r0, r1, _ = rows.indices(n)
        c0, c1, _ = cols.indices(n)
        key = (r0, r1, c0, c1) if mean else (r0, r1, c0, c1, "no mean")
        if key not in self._plans:
            i, t, j, v = self.coupling_entries
            keep = ((t >= r0) & (t < r1) & (j >= c0) & (j < c1)
                    & (i >= (0 if mean else 1)))
            # ascending i, then j
            pairs, pair = np.unique(i[keep] * n + j[keep], return_inverse=True)
            pj = pairs % n
            lo, hi = (pj.min(), pj.max() + 1) if len(pairs) else (c0, c0)
            active, first, count = np.unique(pairs // n, return_index=True,
                                             return_counts=True)
            copy = GATHER_COPY * self.n_c
            saved = self.indptr[self.n_c] * (hi - lo - count) - (copy * count + GATHER_FIXED)
            gather = saved > 0
            # the gathers the others would add against the shared X^T they spare
            if not gather.all() and -saved[~gather].sum() < copy * (hi - lo):
                gather[:] = True
            width = np.where(gather, count, hi - lo)
            a = np.repeat(np.arange(len(active)), count)
            offset = np.cumsum(width) - width
            row = offset[a] + np.where(gather[a], np.arange(len(pairs)) - first[a], pj - lo)
            L = sp.csr_matrix((v[keep], (t[keep] - r0, row[pair])),
                              shape=(max(r1 - r0, 0), width.sum()))
            groups = [(self._leading_matrices[k], pj[f:f + c] - c0 if g else None,
                       slice(o, o + w))
                      for k, f, c, g, o, w in zip(active, first, count, gather, offset, width)]
            span = None if gather.all() else slice(lo - c0, hi - c0)
            self._plans[key] = span, groups, L
        return self._plans[key]

    # -- products -------------------------------------------------------
    def product(self, rows: slice, cols: slice, X: np.ndarray) -> np.ndarray:
        """A[rows, cols] @ X over block ranges, X holding one row per column
        block; the result has one row per row block.  Both forms compute
        only these rows: the pre-summed one from the nodal blocks
        T_n[rows, cols], the matrix-free one by multiplying each K_i with
        the column blocks X_j that reach a row asked for (``_plan``): a
        coefficient that gathers takes them as whole rows of X and copies
        their leading n_c columns, transposed, once, so no product copies X
        whole, whatever its layout; the others share one transposed copy of
        the span, made only when some coefficient multiplies all of it.  An
        empty row or column range, as at either end of a block Gauss-Seidel
        sweep, gives zeros without a product.  Both forms multiply only the
        leading n_c spatial columns of X and write the leading rows.  On
        the Dirichlet rows A[rows, cols] X is X_t for each row block t in
        both ranges and zero for the others, as C_0 = I gives it: one
        copy."""
        return self._product(rows, cols, X, mean=True)

    def _product(self, rows: slice, cols: slice, X: np.ndarray, mean: bool) -> np.ndarray:
        """``product``, or without ``mean`` (A - I (x) K_0)[rows, cols] @ X,
        the matrix-free product over the coefficients i >= 1, which is zero
        on the Dirichlet rows: only K_0 stores them.  ValueError without
        ``mean`` on a pre-summed operator, whose nodal blocks T_n sum K_0's
        terms with the others."""
        if not mean and self.presummed:
            raise ValueError("the pre-summed product cannot leave out the mean "
                             "coefficient K_0")
        start, stop, _ = cols.indices(self.n_blocks)
        if len(X) != stop - start:
            raise ValueError(f"{stop - start} column blocks, X has {len(X)} rows")
        n_rows = len(range(*rows.indices(self.n_blocks)))
        if n_rows == 0 or stop <= start:
            return np.zeros((n_rows, self.ndof))
        n = self.n_c
        if self.presummed:
            # A = sum_n H_n (x) T_n on the leading rows: each node's local
            # rows H_loc X^T (9 per node), times T_n[cols, rows] =
            # T_n[rows, cols]^T (c_itj = c_ijt) in one batched product,
            # summed into the spatial rows by S, which sums nothing into
            # the Dirichlet rows
            Z = self._leading_hat @ np.ascontiguousarray(X[:, :n].T)
            W = np.matmul(Z.reshape(self.ndof, 9, -1), self.node_blocks[:, cols, rows])
            out = (self.nodal[2] @ W.reshape(-1, W.shape[-1])).T
        else:
            span, groups, L = self._plan(rows, cols, mean)
            # C-contiguous: scipy would copy a transposed view per product
            XT = None if span is None else np.ascontiguousarray(X[span, :n].T)
            Y = np.empty((L.shape[1], n))
            for K, sel, at in groups:
                Z = XT if sel is None else np.ascontiguousarray(X.take(sel, axis=0)[:, :n].T)
                Y[at] = (K @ Z).T
            out = np.empty((n_rows, self.ndof))
            out[:, :n] = L @ Y
            out[:, n:] = 0.0
        r0, r1, _ = rows.indices(self.n_blocks)
        lo, hi = max(r0, start), min(r1, stop)
        if mean and lo < hi:
            out[lo - r0:hi - r0, n:] = X[lo - start:hi - start, n:]
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Product with a block vector; accepts flat or (n_blocks, ndof)."""
        flat = np.asarray(u).ndim == 1
        U = self.as_blocks(u)
        if U.shape != (self.n_blocks, self.ndof):
            raise ValueError(f"block vector has {U.shape}, "
                             f"expected {(self.n_blocks, self.ndof)}")
        V = self.product(slice(None), slice(None), U)
        return V.ravel() if flat else V

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.apply(np.asarray(u).ravel())

    def masked_apply(self, rows, cols, X: np.ndarray) -> np.ndarray:
        """Product restricted to the sub-block (rows) x (cols) of the grid.

        X has one row per column block; the result has one row per row block.
        """
        sub = self.assemble_range(rows, cols)
        return (sub @ np.asarray(X).ravel()).reshape(-1, self.ndof)

    # -- diagonal-block solves -------------------------------------------
    @cached_property
    def _scalar_levels(self) -> np.ndarray:
        """Per degree: no same-degree coupling but C_0 = I's diagonal."""
        i, t, j, _ = self.coupling_entries
        degree = np.array(self.basis.degrees())
        other = (degree[t] == degree[j]) & (i != 0)
        return ~np.isin(np.arange(self.basis.degree + 1), degree[j[other]])

    def level_is_scalar_diagonal(self, level: int) -> bool:
        """True when D_l = I (x) K_0, as the mean block D_0 = A_00 is.

        Couplings whose spatial matrix is structurally zero (e.g. vanished
        fluctuation fields) cannot contribute and are ignored.  Read off the
        coupling entries; the level view is not built.
        """
        self.level_slices(level)    # rejects levels outside 0..P
        return bool(self._scalar_levels[level])

    def mean_solver(self, inner: InnerSolver):
        """Cached solver B -> B K_0^{-T} = B K_0^{-1} (K_0 is symmetric) of
        the mean matrix, one row of B per right-hand side; the result has
        the shape of B, a vector for a vector, under either policy.  All
        exact policies share one.

        The exact solver is the program's one sparse LU, SuperLU ordered
        by minimum degree on A + A^T with diagonal pivots preferred: less
        fill than the default COLAMD (31,236 against 43,426 entries of
        L + U at h=1/30).  It factors a CSC copy of K_0, not its transpose
        view, whose solve of many right-hand sides (495 at h=1/20) takes
        1.3-1.5 times as long.  Up to MEAN_INVERSE_LIMIT dof it multiplies
        by the dense K_0^{-1}, one LU solve of the identity: a mean or
        level solve is then one matrix product, which on these meshes beats
        the triangular solves though it does more flops (495 right-hand
        sides at h=1/10: 0.36 against 1.0-1.6 ms, one BLAS thread).  The
        product takes the leading n_c x n_c block of K_0^{-1} and copies
        the Dirichlet columns, whose K_0 rows are the unit diagonal: 171
        against 311 us for all 121 columns there (best of 7).  A cg
        policy takes its own ``inner.make``: an inexact solve of the
        identity would change it.
        """
        key = "exact" if inner.kind == "exact" else inner
        if key not in self._solver_cache:
            if key == "exact":
                lu = spla.splu(self.mean_matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                               options={"SymmetricMode": True})
                solve = lambda B: lu.solve(B.T).T
                if self.ndof <= MEAN_INVERSE_LIMIT:
                    n = self.n_c
                    solve = partial(_leading_solve, np.ascontiguousarray(
                        solve(np.eye(self.ndof))[:n, :n]))
            else:
                solve = inner.make(self.mean_matrix)
            self._solver_cache[key] = solve
        return self._solver_cache[key]

    def d_block_solve(self, level: int, rhs: np.ndarray, inner: InnerSolver) -> np.ndarray:
        """Solve D_l X = rhs, one row of rhs per degree-l block, l = 0..P.

        A level D_l = I (x) K_0 (level 0, and every level of the linear
        coefficient case) is one multi-right-hand-side K_0 solve under
        ``inner``: with the exact policy on a mesh of up to
        MEAN_INVERSE_LIMIT dof, one product with the dense K_0^{-1} of
        ``mean_solver``.  A coupled level of dimension up to
        DIRECT_LEVEL_LIMIT is factorized once by band Cholesky
        (``band_solvers``) under either policy, over the leading n_c nodes
        (half-width m b' + m - 1), the identity on the Dirichlet rows
        copied; it refuses a level that is not positive definite.  A larger
        one runs ``inner.cg`` on
        the level system preconditioned blockwise by I (x) K_0.
        ``rhs`` is never written to.
        """
        _, tail = self.level_slices(level)
        rhs = np.atleast_2d(rhs)
        if rhs.shape[0] != tail.stop - tail.start:
            raise ValueError(f"level {level} has {tail.stop - tail.start} blocks, "
                             f"rhs has {rhs.shape[0]} rows")
        if self.level_is_scalar_diagonal(level):
            return self.mean_solver(inner)(rhs)
        if rhs.size <= DIRECT_LEVEL_LIMIT:
            if level not in self._level_solvers:
                self._level_solvers[level], = self.band_solvers(
                    np.arange(tail.start, tail.stop)[None], [f"level {level}"])
            return self._level_solvers[level](rhs)
        mean_solve = self.mean_solver(InnerSolver(kind="exact"))

        def apply_level(x):
            return self.product(tail, tail, x.reshape(rhs.shape)).ravel()

        def block_mean_prec(r):
            return mean_solve(r.reshape(rhs.shape)).ravel()

        x = inner.cg(apply_level, rhs.ravel(), block_mean_prec, level,
                     f"level {level} system")
        return x.reshape(rhs.shape)

    @cached_property
    def _mirror(self) -> np.ndarray:
        """mirror[e]: the stored position of (c, r) for the stored position
        e = (r, c), which the contract checked in ``__init__`` requires."""
        r, c = self._pattern_rows.astype(np.int64), self.indices.astype(np.int64)
        keys = r * self.ndof + c
        order = np.argsort(keys)
        return order[np.searchsorted(keys, c * self.ndof + r, sorter=order)
                     .clip(max=len(keys) - 1)]

    def band_solvers(self, groups: np.ndarray, names: list) -> list:
        """Per row g of the (k, m) block indices ``groups``: a solver
        R -> A_g^{-1} R of the diagonal block A_g = A[g, g], factored once
        by LAPACK's band Cholesky.

        Every K_i is symmetric, and so is each C_i (c_itj = E[psi_i psi_t
        psi_j]), so A_g is symmetric.  ``_bands`` fills it straight from the
        coupling values, node-major over the leading spatial nodes; A_g is
        not assembled.  A group of m > 1 blocks (a coupled level) is
        factored over the leading n_c nodes alone, with half-width
        kd' = m*b' + m - 1, b' their bandwidth (10 for the 81 interior
        nodes at h=1/10): on the trailing Dirichlet rows A_g is the
        identity (``n_c``, C_0 = I), which a solve copies, as
        ``_leading_solve`` does for K_0.  At lognormal N=4 P=3 h=1/10 that
        factors D_3 as 1620 unknowns at kd = 219 (2.85 MB), where the
        row-major node numbering gave one band of 2420 at kd = 259 (5.0
        MB): dpbtrf 9.2 -> 5.1 ms, a solve 0.45 -> 0.22 ms (best of 5 and
        of 50, one BLAS thread).  A group of one block (every block
        Gauss-Seidel diagonal block) keeps one band over all nodes, of
        half-width b, 10 at h=1/10 (12 under the row-major numbering, whose
        Dirichlet nodes sit between the interior ones): a second dpbtrs
        over the Dirichlet nodes would cost more than it saves (3.9 against
        7.0 us a solve split, best of 7, at kd 12 against 10).  R is
        block-major, shape
        (m, ndof), or for m = 1 one block as a vector, which takes one
        dpbtrs as it is; R is never written.
        dpbtrf reads only the upper band, the whole of A_g by its symmetry.
        A block that is not positive definite raises LinAlgError naming it
        as ``names[g]``.
        """
        m = groups.shape[1]
        factors = []
        for name, band in zip(names, self._bands(self.block_values(groups),
                                                 self.ndof if m == 1 else self.n_c)):
            factor, info = lapack.dpbtrf(band, lower=0, overwrite_ab=1)
            if info > 0:
                raise np.linalg.LinAlgError(f"{name} is not positive definite "
                                            "(band Cholesky)")
            factors.append(factor)
        return [partial(_band_solve if m == 1 else _leading_band_solve, factor)
                for factor in factors]

    def _bands(self, values: np.ndarray, n: int) -> np.ndarray:
        """bands[g]: the upper band of A_g over the leading n spatial nodes
        (see ``band_solvers``) numbered node-major, unknown (block g[s],
        node p) at p*m + s, of half-width kd = m*b + m - 1, b = max |p - q|
        over their stored positions (p, q), the first indptr[n].  No stored
        position joins them to the other nodes: n is n_c or ndof.  The band
        is in LAPACK's upper band layout, A_g[I, J] at bands[g, kd + I - J, J]
        for I <= J, each Fortran-ordered so that dpbtrf factors it without
        a copy.

        All k bands are filled in one pass straight from the coupling
        values ``values`` = ``block_values(groups)``: block (s, s') of A_g
        at the stored position (p, q) sits at (p*m + s, q*m + s').
        Positions are int32 while a band has fewer than 2^31 entries, as
        every band of up to DIRECT_LEVEL_LIMIT unknowns has.
        """
        k, m = values.shape[:2]
        end = self.indptr[n]
        p, q = self._pattern_rows[:end], self.indices[:end]
        kd, N = m * int(np.abs(p - q).max()) + m - 1, m * n
        s = np.arange(m, dtype=np.int32 if (kd + 1) * N < 2**31 else np.int64)
        p, q = p.astype(s.dtype), q.astype(s.dtype)
        out = np.zeros((k, N, kd + 1))
        # (p*m + s, q*m + s') lies in the upper band for every (s, s') when
        # p < q and for s <= s' when p = q; positions with p > q never do
        every = np.ones((m, m), dtype=bool)
        for at, pairs in ((p < q, every), (p == q, np.triu(every))):
            at = np.flatnonzero(at)
            I = (p[at] * m)[None, None] + s[:, None, None]
            J = (q[at] * m)[None, None] + s[None, :, None]
            # position J (kd + 1) + kd + I - J of a band, out[g] read transposed
            out.reshape(k, -1)[:, (kd + I + kd * J)[pairs]] = values[..., at][:, pairs]
        return out.transpose(0, 2, 1)

    def block_values(self, groups: np.ndarray) -> np.ndarray:
        """values[g, s, s', e] = sum_i c_itj data[i, e], t = groups[g, s] and
        j = groups[g, s']: block (s, s') of A_g = A[g, g] at every stored
        spatial position e, from the coupling values, shape (k, m, m, nnz)
        for the (k, m) block indices ``groups``."""
        k, m = groups.shape
        W = self._block_couplings[(groups[:, :, None] * self.n_blocks
                                   + groups[:, None, :]).ravel()]
        return (W @ self.data).reshape(k, m, m, -1)

    # -- assembly ----------------------------------------------------------
    @cached_property
    def _pattern_rows(self) -> np.ndarray:
        """The spatial row of every stored position, int32."""
        return np.repeat(np.arange(self.ndof, dtype=np.int32), np.diff(self.indptr))

    @cached_property
    def _block_couplings(self) -> sp.csr_matrix:
        """Row t * n_blocks + j holds c_itj over the coefficients i that are
        not structurally zero, in ascending i."""
        i, t, j, v = self.coupling_entries
        return sp.csr_matrix((v, (t * self.n_blocks + j, i)),
                             shape=(self.n_blocks ** 2, len(self.data)))

    def assemble_range(self, rows, cols) -> sp.csr_matrix:
        """The sub-matrix sum_i C_i[rows, cols] (x) K_i over block ranges or
        index arrays, assembled on the shared pattern: the values of the
        nonzero blocks are W @ data with W[b, i] = c_itj of block b = (t, j),
        and their positions broadcast the pattern."""
        rows = np.arange(self.n_blocks)[rows]
        cols = np.arange(self.n_blocks)[cols]
        W = self._block_couplings[(rows[:, None] * self.n_blocks + cols).ravel()]
        # int32 positions halve the memory of this step
        blocks = np.flatnonzero(np.diff(W.indptr)).astype(np.int32)
        n = self.ndof
        R = (blocks // len(cols))[:, None] * n + self._pattern_rows
        C = (blocks % len(cols))[:, None] * n + self.indices
        sub = sp.csr_matrix(((W[blocks] @ self.data).ravel(), (R.ravel(), C.ravel())),
                            shape=(len(rows) * n, len(cols) * n))
        # e.g. the boundary diagonal of the off-diagonal blocks
        sub.eliminate_zeros()
        return sub

    def dense(self) -> np.ndarray:
        """Dense global matrix, up to DENSE_ASSEMBLY_LIMIT rows (oracle tests)."""
        n = self.shape[0]
        if n > DENSE_ASSEMBLY_LIMIT:
            raise ValueError(f"dense assembly of a {n}-dim operator exceeds the "
                             f"limit {DENSE_ASSEMBLY_LIMIT}")
        return self.assemble_range(slice(None), slice(None)).toarray()

    def rhs(self, load: np.ndarray) -> np.ndarray:
        """Global right-hand side: the load in block 0, zero elsewhere."""
        b = np.zeros((self.n_blocks, self.ndof))
        b[0] = load
        return b


def _leading_solve(inv_t: np.ndarray, B: np.ndarray) -> np.ndarray:
    """B K_0^{-T} from the leading n_c x n_c block inv_t of K_0^{-T}: the
    leading columns of B times inv_t, the Dirichlet columns, whose K_0 rows
    are the unit diagonal, copied; B a vector or one row per right-hand
    side, not written."""
    n = len(inv_t)
    X = np.empty(np.shape(B))
    np.matmul(B[..., :n], inv_t, out=X[..., :n])
    X[..., n:] = B[..., n:]
    return X


def _band_solve(factor: np.ndarray, R: np.ndarray) -> np.ndarray:
    """A_j^{-1} R of one block from the upper band Cholesky factor of A_j
    over all nodes, R a vector or of shape (1, ndof) (see
    ``GalerkinOperator.band_solvers``); R is not written."""
    if R.ndim == 1:
        return lapack.dpbtrs(factor, R)[0]
    return lapack.dpbtrs(factor, R.ravel())[0].reshape(R.shape)


def _leading_band_solve(factor: np.ndarray, R: np.ndarray) -> np.ndarray:
    """A_g^{-1} R, R block-major of shape (m, ndof), from the band Cholesky
    factor of A_g over the leading n_c nodes (see
    ``GalerkinOperator.band_solvers``), whose node-major unknowns are
    R[:, :n_c].T in C order; on the Dirichlet rows, where A_g is the
    identity, R is copied.  R is not written."""
    m = len(R)
    n = factor.shape[1] // m
    X = np.empty(R.shape)
    # ravel copies the transposed view, which dpbtrs may overwrite
    x = lapack.dpbtrs(factor, R[:, :n].T.ravel(), overwrite_b=1)[0]
    X[:, :n] = x.reshape(n, m).T
    X[:, n:] = R[:, n:]
    return X


def _csr_view(row: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> sp.csr_matrix:
    """CSR matrix on the given pattern holding a view of ``row``."""
    K = sp.csr_matrix((row, indices, indptr), shape=(len(indptr) - 1,) * 2)
    K.data = row    # scipy's format check copies a view of a larger array
    return K


def build_uniform_operator(mesh: Mesh, kl: KLExpansion,
                           basis: MultiIndexSet) -> GalerkinOperator:
    """Operator for the linear coefficient expansion over the given
    Legendre basis.

    The i-th expansion variable appears in the coefficient as k_i(x) * xi_i;
    expressed in the orthonormal basis this contributes the field
    family.variable_coeff * k_i as the coefficient of the first-order basis
    polynomial, which is where the uniform-on-[-1,1] convention (coefficient
    1/sqrt(3)) enters the discrete system.
    """
    if kl.n_terms != basis.dims:
        raise ValueError(f"expansion has {kl.n_terms} terms, basis {basis.dims} variables")
    family = legendre_family()
    coeff_set = build_multi_index_set(basis.dims, 1)
    tensor = build_triple_product_tensor(basis, coeff_set, family)
    fields = np.vstack([np.full(mesh.n_nodes, kl.mean),
                        family.variable_coeff * kl.fields])
    return GalerkinOperator(assemble_weighted_stiffness(mesh, fields), tensor)
