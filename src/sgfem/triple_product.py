"""Triple-product coupling tensors c_ijk = E[psi_i psi_j psi_k].

The tensor couples the coefficient expansion (index i, running over a short
multi-index set of length L+1) with the solution basis (indices j, k).  It is
stored as one CSR matrix ``stacked`` of shape (n_coeff (M+1), M+1) whose row
i (M+1) + j holds c_ijk over k; its rows i (M+1) .. (i+1) (M+1) - 1 are the
coupling matrix C_i of coefficient i, and a block of the global matrix is
K^(j,k) = sum_i c_ijk K_i.

Multivariate values factor over dimensions, c_ijk = prod_d t(i_d, j_d, k_d)
with t the univariate triple product, and t(a, b, c) vanishes unless
|a - b| <= c <= a + b and a + b + c is even (Ernst & Ullmann, "Stochastic
Galerkin matrices", SIAM J. Matrix Anal. Appl. 31, 2010).  The builder
therefore never scans all (j, k) pairs: starting from the (i, j) pairs it
extends k one dimension at a time by the digits those rules allow, keeping
|k| <= P, so its work and memory follow the number of nonzeros, and it
stores only products of nonzero univariate values: the selection rules give
the exact sparsity pattern (for the linear/Legendre case every same-degree
off-diagonal block vanishes identically, which the hierarchical
preconditioner relies on), and t(0, b, b) = 1 exactly gives C_0 = I.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .multi_index import MultiIndexSet
from .orthopoly import PolynomialFamily


@dataclass(frozen=True)
class TripleProductTensor:
    """Sparse c_ijk storage plus derived block-sparsity information."""

    coeff_set: MultiIndexSet       # indices i = 0..L
    basis: MultiIndexSet           # indices j, k = 0..M
    stacked: sp.csr_matrix         # row i * (M+1) + j holds c_ijk over k

    @property
    def n_coeff(self) -> int:
        return len(self.coeff_set)

    @property
    def n_basis(self) -> int:
        return len(self.basis)

    @cached_property
    def coupling(self) -> tuple:
        """C_i, one CSR view of ``stacked`` per coefficient; built on first
        access, which the operator never makes."""
        n = self.n_basis
        return tuple(_rows_view(self.stacked, i * n, (i + 1) * n)
                     for i in range(self.n_coeff))

    @cached_property
    def structure(self) -> sp.csr_matrix:
        """sum_i |C_i|, whose pattern is the union of the per-i patterns;
        computed on first access and kept."""
        S, n = abs(self.stacked).tocoo(), self.n_basis
        acc = sp.csr_matrix((S.data, (S.row % n, S.col)), shape=(n, n))
        acc.eliminate_zeros()
        return acc

    @property
    def n_blocks(self) -> int:
        """Number of structurally nonzero blocks of the global matrix."""
        return self.structure.nnz

    @property
    def n_diag_blocks(self) -> int:
        return self.n_basis

    def entries(self):
        """(i, j, k, value) over all stored nonzeros, in ascending i, j, k."""
        S, n = self.stacked.tocoo(), self.n_basis
        return zip((S.row // n).tolist(), (S.row % n).tolist(), S.col.tolist(),
                   S.data.tolist())

    def has_block_diagonal_levels(self) -> bool:
        """True when every same-degree sub-block d_l is diagonal (linear case)."""
        degree = np.array(self.basis.degrees())
        s = self.structure.tocoo()
        return not np.any((degree[s.row] == degree[s.col]) & (s.row != s.col))

    def write_block_pattern_csv(self, path) -> None:
        """Dense 0/1 CSV of the block sparsity, for structure plots."""
        mask = (self.structure.toarray() != 0).astype(int)
        np.savetxt(path, mask, fmt="%d", delimiter=",")


def build_triple_product_tensor(basis: MultiIndexSet, coeff_set: MultiIndexSet,
                                family: PolynomialFamily) -> TripleProductTensor:
    """Assemble c_ijk for i in coeff_set and j, k in basis.

    For the truncated linear expansion, coeff_set is the order-1 set in the
    same variables (i=0 the constant, i>=1 the first-order indices); for a
    general chaos coefficient it is the order-2P set.

    Each (i, j) pair is expanded dimension by dimension over the digits k_d
    with t(i_d, j_d, k_d) != 0 that keep |k| <= P reachable (every later
    digit needs at least |i_d - j_d|), multiplying the running value by that
    factor in dimension order, as a dense per-coefficient product does, so
    the values equal that product's bit for bit; k is then located in the
    basis by its mixed-radix code.
    """
    if basis.dims != coeff_set.dims:
        raise ValueError(
            f"dimension mismatch: basis has {basis.dims} variables, "
            f"coefficient set has {coeff_set.dims}")
    P, M1, dims = basis.degree, len(basis), basis.dims
    if (P + 1) ** dims > np.iinfo(np.int64).max:
        raise ValueError(f"{dims} variables at degree {P} overflow the index codes")
    table = family.triple_product_table(coeff_set.degree, P)
    coeff = np.array(coeff_set.indices, dtype=np.intp).reshape(-1, dims)
    jind = np.array(basis.indices, dtype=np.intp).reshape(-1, dims)
    # t(a, b, c) != 0 needs c >= |a - b|, so |k| >= rest = sum_d |i_d - j_d|
    rest = sum(np.abs(coeff[:, d, None] - jind[None, :, d]) for d in range(dims))
    i, j = np.nonzero(rest <= P)                  # the pairs, in row-major order
    rest = rest[i, j]
    code = np.zeros(len(i), dtype=np.int64)       # k digits so far, radix P+1
    ksum = np.zeros(len(i), dtype=np.intp)
    value = np.ones(len(i))
    digits = np.arange(P + 1)
    for d in range(dims):
        a, b = coeff[i, d], jind[j, d]
        rest = rest - np.abs(a - b)               # the least the digits after d add
        # np.nonzero keeps each row's expansions together and in row order
        r, c = np.nonzero((table[a, b] != 0.0) & ((ksum + rest)[:, None] + digits <= P))
        value = value[r] * table[a[r], b[r], c]
        i, j, code, ksum, rest = i[r], j[r], code[r] * (P + 1) + c, ksum[r] + c, rest[r]
    basis_code = jind @ (P + 1) ** np.arange(dims - 1, -1, -1, dtype=np.int64)
    by_code = np.argsort(basis_code)
    k = by_code[np.searchsorted(basis_code[by_code], code)]
    row = i * M1 + j                              # non-decreasing
    order = np.argsort(row * M1 + k)              # each row's entries by k
    n_rows = len(coeff) * M1
    stacked = sp.csr_matrix((value[order], k[order],
                             np.searchsorted(row, np.arange(n_rows + 1))),
                            shape=(n_rows, M1))
    return TripleProductTensor(coeff_set, basis, stacked)


def _rows_view(S: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """Rows start..stop-1 of S as a CSR matrix sharing S's arrays."""
    a, b = S.indptr[start], S.indptr[stop]
    C = sp.csr_matrix((S.data[a:b], S.indices[a:b], S.indptr[start:stop + 1] - a),
                      shape=(stop - start, S.shape[1]))
    # scipy's format check copies a view of a larger array
    C.data, C.indices = S.data[a:b], S.indices[a:b]
    return C
