"""Matrix-free coupled Galerkin operator and its hierarchical block views.

The global system matrix consists of (M+1)^2 spatial blocks

    K^(j,k) = sum_i c_ijk K_i,

and is never formed: a product with a block vector U (rows = spatial blocks)
is computed as  V = sum_i (C_i @ U) @ K_i^T  where C_i is the i-th sparse
coupling matrix of the triple-product tensor.  The graded index ordering
induces a nested 2x2 partition

    A_l = [[A_{l-1}, B_l], [C_l, D_l]],    l = P, ..., 1,

where A_{l-1} spans the blocks of degree < l and D_l the blocks of degree
exactly l.  For the truncated linear (Karhunen-Loeve) coefficient case every
D_l is block diagonal with each diagonal block a scalar multiple of the mean
matrix K_0, so solving with D_l costs one multi-right-hand-side K_0 solve.
C_l coincides with the transpose action of B_l whenever all K_i are
symmetric; the masked product below computes the true sub-block action either
way, so non-symmetric K_i are supported by the same code path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import krylov
from .fem import Mesh, assemble_weighted_stiffness
from .kle import KLExpansion
from .multi_index import MultiIndexSet, build_multi_index_set, hierarchy_dims
from .orthopoly import PolynomialFamily
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


@dataclass(frozen=True)
class InnerSolver:
    """Policy for solves with a single spatial block.

    kind "exact" factorizes once (sparse LU); kind "cg" runs an inner
    conjugate gradient loop preconditioned by ``precond`` in
    {"none", "diagonal", "exact"}.  A tol of None means: use the tolerance
    of the surrounding outer iteration.
    """

    kind: str = "exact"
    precond: str = "exact"
    tol: float | None = None
    maxiter: int = 2000

    def resolve_tol(self, outer_tol: float) -> float:
        return outer_tol if self.tol is None else self.tol

    def make(self, matrix: sp.spmatrix, outer_tol: float = 1e-8):
        if self.kind == "exact":
            lu = spla.splu(matrix.tocsc())
            return lambda B: lu.solve(np.atleast_2d(B).T).T
        if self.kind != "cg":
            raise ValueError(f"unknown inner solver kind {self.kind!r}")
        tol = self.resolve_tol(outer_tol)
        if self.precond == "none":
            prec = None
        elif self.precond == "diagonal":
            dinv = 1.0 / matrix.diagonal()
            prec = lambda r: dinv * r
        elif self.precond == "exact":
            lu = spla.splu(matrix.tocsc())
            prec = lambda r: lu.solve(r)
        else:
            raise ValueError(f"unknown inner preconditioner {self.precond!r}")
        A = matrix.tocsr()

        def solve(B):
            B = np.atleast_2d(B)
            X = np.empty_like(B)
            for row in range(B.shape[0]):
                # krylov.cg returns zero at once for a zero right-hand side
                X[row], report = krylov.cg(A.dot, B[row], apply_m=prec, tol=tol,
                                           max_iter=self.maxiter)
                if not report.converged or report.spd_suspect or report.non_finite:
                    raise InnerSolveError(row, report.relative_residuals[-1], "inner cg")
            return X

        return solve


DENSE_ASSEMBLY_LIMIT = 2000
# largest level dimension the direct level policy factorizes
DIRECT_LEVEL_LIMIT = 20_000


class GalerkinOperator:
    """The coupled block operator with its hierarchy views.

    matrices[i] is the spatial matrix of the i-th coefficient field; tensor
    holds the coupling matrices C_i over the same coefficient index range.
    Block vectors are ndarrays of shape (n_blocks, ndof); ``matvec`` works on
    the flat concatenation.  Immutable after construction (solver caches and
    the per-level views are populated lazily but never change semantics), so
    concurrent applies are safe.
    """

    def __init__(self, matrices, tensor: TripleProductTensor):
        if len(matrices) != tensor.n_coeff:
            raise ValueError(
                f"{len(matrices)} spatial matrices vs {tensor.n_coeff} coefficient indices")
        self.matrices = tuple(sp.csr_matrix(K) for K in matrices)
        self.tensor = tensor
        self.basis = tensor.basis
        self.ndof = self.matrices[0].shape[0]
        self.n_blocks = tensor.n_basis
        self.hierarchy = hierarchy_dims(self.basis.dims, self.basis.degree)
        self._solver_cache: dict = {}
        self._levels: dict = {}
        # the terms of the full product: (C_i, K_i) with neither structurally zero
        self._pairs = [(Ci, Ki) for Ci, Ki in zip(tensor.coupling, self.matrices)
                       if Ci.nnz and Ki.nnz]
        # c_0kk values scale the diagonal blocks in the scalar-multiple case
        self.diag_weights = self.tensor.coupling[0].diagonal()

    # -- shapes ---------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        n = self.n_blocks * self.ndof
        return (n, n)

    def as_blocks(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        if u.ndim == 1:
            return u.reshape(self.n_blocks, self.ndof)
        return u

    def level_slices(self, level: int) -> tuple[slice, slice]:
        """(head, tail) block ranges of the level-l partition."""
        if not 1 <= level <= self.basis.degree:
            raise ValueError(f"level must be in 1..{self.basis.degree}, got {level}")
        head = self.hierarchy[level - 1]
        tail = self.hierarchy[level]
        return slice(0, head), slice(head, tail)

    # -- products -------------------------------------------------------
    def apply(self, u: np.ndarray) -> np.ndarray:
        """Product with a block vector; accepts flat or (n_blocks, ndof)."""
        flat = np.asarray(u).ndim == 1
        U = self.as_blocks(u)
        if U.shape != (self.n_blocks, self.ndof):
            raise ValueError(f"block vector has {U.shape}, "
                             f"expected {(self.n_blocks, self.ndof)}")
        V = self.apply_pairs(self._pairs, U, self.n_blocks)
        return V.ravel() if flat else V

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.apply(np.asarray(u).ravel())

    def restricted_pairs(self, rows, cols) -> list:
        """(C_i restricted to rows x cols, K_i) in ascending i, leaving out the
        terms whose restricted coupling or spatial matrix is structurally zero.
        rows and cols are both block slices or both block index arrays."""
        key = (rows, cols) if isinstance(rows, slice) else np.ix_(rows, cols)
        pairs = []
        for Ci, Ki in zip(self.tensor.coupling, self.matrices):
            if Ki.nnz:
                sub = Ci[key]
                if sub.nnz:
                    pairs.append((sub, Ki))
        return pairs

    def apply_pairs(self, pairs, X: np.ndarray, n_rows: int) -> np.ndarray:
        """sum_i (S_i @ X) @ K_i^T over (S_i, K_i) pairs, in their order."""
        V = np.zeros((n_rows, self.ndof))
        for sub, Ki in pairs:
            # the same CSR product scipy runs for (S_i @ X) @ K_i^T, without
            # building the transposed matrices on every call
            V += (Ki @ (sub @ X).T).T
        return V

    def masked_apply(self, rows, cols, X: np.ndarray) -> np.ndarray:
        """Product restricted to the sub-block (rows) x (cols) of the grid.

        X has one row per column block; the result has one row per row block.
        """
        pairs = self.restricted_pairs(np.asarray(rows), np.asarray(cols))
        return self.apply_pairs(pairs, X, len(rows))

    def level(self, level: int) -> "Level":
        """The view of level l, built the first time it is used and kept."""
        if level not in self._levels:
            self._levels[level] = Level(self, level)
        return self._levels[level]

    def apply_submatrix(self, level: int, part: str, X: np.ndarray) -> np.ndarray:
        """Action of the A/B/C/D sub-block of the level-l partition."""
        if part not in ("A", "B", "C", "D"):
            raise ValueError(f"part must be one of A, B, C, D, got {part!r}")
        lv = self.level(level)
        rows, cols = {"A": (lv.head, lv.head), "B": (lv.head, lv.tail),
                      "C": (lv.tail, lv.head), "D": (lv.tail, lv.tail)}[part]
        X = np.atleast_2d(X)
        if X.shape[0] != cols.stop - cols.start:
            raise ValueError(f"{part}-part at level {level} expects "
                             f"{cols.stop - cols.start} column blocks, got {X.shape[0]}")
        pairs = (self.restricted_pairs(rows, cols) if part == "A"
                 else lv.pairs[part])
        return self.apply_pairs(pairs, X, rows.stop - rows.start)

    # -- diagonal-block solves -------------------------------------------
    @cached_property
    def coupling_entries(self) -> tuple:
        """(i, t, j, c_itj) of every stored coupling whose K_i is not empty,
        as parallel arrays."""
        keep = [i for i, (Ci, Ki) in enumerate(zip(self.tensor.coupling, self.matrices))
                if Ci.nnz and Ki.nnz]
        S = sp.vstack([self.tensor.coupling[i] for i in keep], format="csr").tocoo()
        return np.array(keep)[S.row // self.n_blocks], S.row % self.n_blocks, S.col, S.data

    @cached_property
    def _scalar_levels(self) -> np.ndarray:
        """Per degree: no same-degree coupling but c_0kk on the diagonal."""
        i, t, j, v = self.coupling_entries
        degree = np.array(self.basis.degrees())
        other = (degree[t] == degree[j]) & ((i != 0) | ((t != j) & (v != 0.0)))
        return ~np.isin(np.arange(self.basis.degree + 1), degree[j[other]])

    def level_is_scalar_diagonal(self, level: int) -> bool:
        """True when D_l is diagonal with blocks c_0kk * K_0.

        Couplings whose spatial matrix is structurally zero (e.g. vanished
        fluctuation fields) cannot contribute and are ignored.  Read off the
        coupling entries; the level view is not built.
        """
        self.level_slices(level)    # rejects levels outside 1..P
        return bool(self._scalar_levels[level])

    def mean_solver(self, inner: InnerSolver, outer_tol: float = 1e-8):
        """Cached solver for the mean matrix K_0 under the given policy."""
        key = (inner, outer_tol)
        if key not in self._solver_cache:
            self._solver_cache[key] = inner.make(self.matrices[0], outer_tol)
        return self._solver_cache[key]

    @cached_property
    def diagonal_couplings(self) -> np.ndarray:
        """c_ijj, one row per coefficient index i and one column per block j."""
        return np.array([Ci.diagonal() for Ci in self.tensor.coupling])

    def block_solver(self, j: int, inner: InnerSolver, outer_tol: float = 1e-8):
        """Solver for the diagonal block A_jj = sum_i c_ijj K_i, on rows of
        right-hand sides.  When A_jj = c_0jj K_0 it is the cached mean solve
        divided by c_0jj; otherwise A_jj is summed in ascending i and handed
        to ``inner``, which factorizes it for the exact policy."""
        c = self.diagonal_couplings[:, j]
        if not np.any(c[1:]):
            mean = self.mean_solver(inner, outer_tol)
            return lambda X: mean(X) / c[0]
        Ajj = None
        for i in np.flatnonzero(c):
            term = c[i] * self.matrices[i]
            Ajj = term if Ajj is None else Ajj + term
        return inner.make(Ajj, outer_tol)

    def d_block_solve(self, level: int, rhs: np.ndarray, inner: InnerSolver,
                      outer_tol: float = 1e-8, policy: str = "auto") -> np.ndarray:
        """Solve D_l X = rhs, one row of rhs per degree-l block.

        policy "direct" factorizes the assembled level matrix once, for levels
        of dimension up to DIRECT_LEVEL_LIMIT; "iterative" runs CG on the level
        system preconditioned blockwise with the mean matrix.  "auto" solves
        levels diagonal with blocks c_0kk K_0 (the linear coefficient case) by
        one multi-right-hand-side K_0 solve under ``inner`` rescaled by
        1/c_0kk, and the others directly when they fit under the limit.
        """
        _, tail = self.level_slices(level)
        rhs = np.atleast_2d(rhs)
        if rhs.shape[0] != tail.stop - tail.start:
            raise ValueError(f"level {level} has {tail.stop - tail.start} blocks, "
                             f"rhs has {rhs.shape[0]} rows")
        weights = self.diag_weights[tail][:, None]
        if policy == "auto" and self.level_is_scalar_diagonal(level):
            return self.mean_solver(inner, outer_tol)(rhs) / weights
        lv = self.level(level)
        if policy == "auto":
            policy = "direct" if rhs.size <= DIRECT_LEVEL_LIMIT else "iterative"
        if policy == "direct":
            if rhs.size > DIRECT_LEVEL_LIMIT:
                raise ValueError(f"level {level} system of dimension {rhs.size} exceeds "
                                 f"the direct-assembly guard {DIRECT_LEVEL_LIMIT}")
            if lv.lu is None:
                D = self.assemble_pairs(lv.pairs["D"], lv.n_l, lv.n_l)
                lv.lu = spla.splu(D.tocsc())
            return lv.lu.solve(rhs.ravel()).reshape(rhs.shape)
        if policy != "iterative":
            raise ValueError(f"unknown level-solve policy {policy!r}")
        mean_solve = self.mean_solver(InnerSolver(kind="exact"), outer_tol)

        def apply_level(x):
            return self.apply_pairs(lv.pairs["D"], x.reshape(rhs.shape), lv.n_l).ravel()

        def block_mean_prec(r):
            return (mean_solve(r.reshape(rhs.shape)) / weights).ravel()

        x, report = krylov.cg(apply_level, rhs.ravel(), apply_m=block_mean_prec,
                              tol=inner.resolve_tol(outer_tol), max_iter=inner.maxiter)
        if not report.converged:
            raise InnerSolveError(level, report.relative_residuals[-1],
                                  f"level {level} system")
        return x.reshape(rhs.shape)

    # -- assembly helpers (oracle/diagnostic scale only) -------------------
    def assemble_pairs(self, pairs, n_rows: int, n_cols: int) -> sp.csr_matrix:
        """Explicit sum_i kron(S_i, K_i) over (S_i, K_i) pairs, in their order."""
        acc = sp.csr_matrix((n_rows * self.ndof, n_cols * self.ndof))
        for sub, Ki in pairs:
            acc = acc + sp.kron(sub, Ki, format="csr")
        return acc

    def assemble_range(self, rows, cols) -> sp.csr_matrix:
        """Explicitly assemble the sub-matrix spanning the given block ranges."""
        pairs = self.restricted_pairs(np.asarray(rows), np.asarray(cols))
        return self.assemble_pairs(pairs, len(rows), len(cols))

    def dense(self, limit: int = DENSE_ASSEMBLY_LIMIT) -> np.ndarray:
        """Dense global matrix, guarded by a size limit (oracle tests only)."""
        n = self.shape[0]
        if n > limit:
            raise ValueError(f"dense assembly of a {n}-dim operator exceeds the "
                             f"limit {limit}")
        blocks = np.arange(self.n_blocks)
        return self.assemble_range(blocks, blocks).toarray()

    def rhs(self, load: np.ndarray) -> np.ndarray:
        """Global right-hand side: the load in block 0, zero elsewhere."""
        b = np.zeros((self.n_blocks, self.ndof))
        b[0] = load
        return b


class Level:
    """Level l of the partition A_l = [[A_{l-1}, B_l], [C_l, D_l]], built once.

    ``pairs`` maps B, C and D to their restricted coupling pairs; ``n_blocks``
    counts the nonzero blocks of B_l and C_l (the work-count unit); ``lu`` is
    the level LU once needed.  No reference back to the operator: the cycle
    would delay its garbage collection.
    """

    def __init__(self, op: GalerkinOperator, level: int):
        self.head, self.tail = head, tail = op.level_slices(level)
        self.n_l = tail.stop - tail.start
        self.pairs = {"B": op.restricted_pairs(head, tail),
                      "C": op.restricted_pairs(tail, head),
                      "D": op.restricted_pairs(tail, tail)}
        struct = op.tensor.structure
        self.n_blocks = {"B": struct[head, tail].nnz, "C": struct[tail, head].nnz}
        self.lu = None


def build_uniform_operator(mesh: Mesh, kl: KLExpansion, basis: MultiIndexSet,
                           family: PolynomialFamily) -> GalerkinOperator:
    """Operator for the linear coefficient expansion over the given basis.

    The i-th expansion variable appears in the coefficient as k_i(x) * xi_i;
    expressed in the orthonormal basis this contributes the field
    family.variable_coeff * k_i as the coefficient of the first-order basis
    polynomial, which is where the uniform-on-[-1,1] convention (coefficient
    1/sqrt(3)) enters the discrete system.
    """
    if kl.n_terms != basis.dims:
        raise ValueError(f"expansion has {kl.n_terms} terms, basis {basis.dims} variables")
    coeff_set = build_multi_index_set(basis.dims, 1)
    tensor = build_triple_product_tensor(basis, coeff_set, family)
    mats = [assemble_weighted_stiffness(mesh, np.full(mesh.n_nodes, kl.mean),
                                        unit_boundary_diag=True)]
    for i in range(kl.n_terms):
        field = family.variable_coeff * kl.fields[i]
        mats.append(assemble_weighted_stiffness(mesh, field))
    return GalerkinOperator(mats, tensor)
