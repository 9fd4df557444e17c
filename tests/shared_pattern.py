"""A GalerkinOperator from any list of sparse spatial matrices.

The builders hand the operator the (indices, indptr, data) triple of the
assembly; tests that perturb, zero or hole the K_i of a built operator put
the matrices back on one union CSR pattern here.  ``nonsymmetric`` breaks
the operator's contract, so its constructor refuses it with ValueError;
``indefinite`` keeps the contract, and the band Cholesky of every coupled
level and block refuses it with LinAlgError naming the level or block.
"""
import numpy as np
import scipy.sparse as sp

from sgfem.operator import GalerkinOperator

# the one ValueError of every input that breaks the operator's contract
CONTRACT = ("^GalerkinOperator needs symmetric spatial matrices K_i on a pattern "
            "that stores every diagonal$")


def shared_pattern(matrices) -> tuple:
    """(indices, indptr, data): the union CSR pattern of the matrices and
    their values on it, one row of data per matrix."""
    n = matrices[0].shape[0]
    S = sp.vstack(matrices, format="csr").tocoo()
    keys, pos = np.unique((S.row % n).astype(np.int64) * n + S.col, return_inverse=True)
    data = np.zeros((len(matrices), len(keys)))
    np.add.at(data, (S.row // n, pos), S.data)
    indptr = np.searchsorted(keys // n, np.arange(n + 1))
    return (keys % n).astype(np.int32), indptr.astype(np.int32), data


def operator_from_matrices(matrices, tensor) -> GalerkinOperator:
    """Operator on the union of the patterns of the matrices."""
    return GalerkinOperator(shared_pattern(matrices), tensor)


def nonsymmetric(op: GalerkinOperator) -> GalerkinOperator:
    """op with one entry of K_1 that has no transposed position."""
    mats = list(op.matrices)
    n = op.ndof
    mats[1] = mats[1] + sp.csr_matrix(([1e-3], ([0], [n - 1])), shape=(n, n))
    return operator_from_matrices(mats, op.tensor)


def indefinite(op: GalerkinOperator) -> GalerkinOperator:
    """op, still symmetric, with K_0 shifted by -2 I: its unit Dirichlet
    rows become -1, so on the lognormal operators every coupled level and
    every diagonal block is indefinite."""
    mats = [op.matrices[0] - 2.0 * sp.identity(op.ndof)] + list(op.matrices[1:])
    return operator_from_matrices(mats, op.tensor)
