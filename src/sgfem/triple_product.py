"""Triple-product coupling tensors c_ijk = E[psi_i psi_j psi_k].

The tensor couples the coefficient expansion (index i, running over a short
multi-index set of length L+1) with the solution basis (indices j, k).  It is
stored as one sparse (M+1) x (M+1) coupling matrix per coefficient index i,
which is the layout consumed by the matrix-free operator: a block of the
global matrix is K^(j,k) = sum_i c_ijk K_i.

Multivariate values factor over dimensions, c_ijk = prod_d t(i_d, j_d, k_d)
with t the univariate triple product, so a whole coupling matrix is built by
elementwise products of small lookup tables.  Entries below a relative
threshold are dropped: quadrature noise must not destroy the provable
sparsity pattern (for the linear/Legendre case every same-degree off-diagonal
block vanishes identically, which the hierarchical preconditioner relies on).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .multi_index import MultiIndexSet
from .orthopoly import PolynomialFamily

STRUCTURAL_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class TripleProductTensor:
    """Sparse c_ijk storage plus derived block-sparsity information."""

    coeff_set: MultiIndexSet       # indices i = 0..L
    basis: MultiIndexSet           # indices j, k = 0..M
    family_kind: str
    coupling: tuple                # tuple of CSR matrices, one per i

    @property
    def n_coeff(self) -> int:
        return len(self.coeff_set)

    @property
    def n_basis(self) -> int:
        return len(self.basis)

    @cached_property
    def structure(self) -> sp.csr_matrix:
        """sum_i |C_i|, whose pattern is the union of the per-i patterns;
        computed on first access and kept."""
        S, n = abs(sp.vstack(self.coupling, format="csr")).tocoo(), self.n_basis
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
        """Yield (i, j, k, value) over all stored nonzeros."""
        for i, C in enumerate(self.coupling):
            coo = C.tocoo()
            for j, k, v in zip(coo.row, coo.col, coo.data):
                yield i, int(j), int(k), float(v)

    def has_block_diagonal_levels(self) -> bool:
        """True when every same-degree sub-block d_l is diagonal (linear case)."""
        degree = np.array(self.basis.degrees())
        s = self.structure.tocoo()
        return not np.any((degree[s.row] == degree[s.col]) & (s.row != s.col))

    def write_entries(self, path) -> None:
        """Text export, one line per entry: ``i j k value``."""
        with open(path, "w") as fh:
            for i, j, k, v in self.entries():
                fh.write(f"{i} {j} {k} {v:.17g}\n")

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
    """
    if basis.dims != coeff_set.dims:
        raise ValueError(
            f"dimension mismatch: basis has {basis.dims} variables, "
            f"coefficient set has {coeff_set.dims}")
    table = family.triple_product_table(coeff_set.degree, basis.degree)
    # symmetric-measure families have t(1, a, a) = 0, so a linear coefficient
    # expansion only couples nearest-neighbour indices
    if coeff_set.degree == 1 and not np.diagonal(table[1]).any():
        return _build_linear(basis, coeff_set, family, table)
    return _build_general(basis, coeff_set, family, table)


def _build_general(basis, coeff_set, family, table) -> TripleProductTensor:
    M1 = len(basis)
    jdeg = np.array(basis.indices)               # (M1, dims)
    dense = np.ones((len(coeff_set), M1, M1))
    for C, ind in zip(dense, coeff_set.indices):
        for d in range(basis.dims):
            C *= table[ind[d]][jdeg[:, d][:, None], jdeg[:, d][None, :]]
    cutoff = STRUCTURAL_ZERO_RTOL * max(float(np.max(np.abs(C))) for C in dense)
    for C in dense:
        C[np.abs(C) < cutoff] = 0.0
    # one sparse construction for all coefficients, split by row blocks
    S = sp.csr_matrix(dense.reshape(-1, M1))
    couplings = tuple(S[i * M1:(i + 1) * M1] for i in range(len(coeff_set)))
    return TripleProductTensor(coeff_set, basis, family.kind, couplings)


def _build_linear(basis, coeff_set, family, table) -> TripleProductTensor:
    """Linear coefficient expansion: only neighbours j, k = j +- e_d couple.

    Same factor values as the general path, assembled without scanning all
    (j, k) pairs; the first-order univariate product t(1, a, b) vanishes
    unless |a - b| = 1, so a basis index only couples to indices differing by
    one in exactly one dimension.
    """
    dims = basis.dims
    M1 = len(basis)
    t0 = np.array([table[0, a, a] for a in range(basis.degree + 1)])
    jdeg = np.array(basis.indices)
    prod0 = np.prod(t0[jdeg], axis=1)            # prod_d t(0, j_d, j_d)
    couplings = [sp.diags(prod0, format="csr")]
    for ind in coeff_set.indices:
        if sum(ind) == 0:
            continue
        d = ind.index(1)
        rows, cols, vals = [], [], []
        for j, t in enumerate(basis.indices):
            base = prod0[j] / t0[t[d]]
            for step in (-1, 1):
                kd = t[d] + step
                if kd < 0 or sum(t) + step > basis.degree:
                    continue
                k = basis.position(t[:d] + (kd,) + t[d + 1:])
                v = table[1, t[d], kd] * base
                if v != 0.0:
                    rows.append(j)
                    cols.append(k)
                    vals.append(v)
        C = sp.coo_matrix((vals, (rows, cols)), shape=(M1, M1)).tocsr()
        couplings.append(C)
    return TripleProductTensor(coeff_set, basis, family.kind, tuple(couplings))
