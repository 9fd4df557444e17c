import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from sgfem.experiments import TABLE_SWEEPS
from sgfem.multi_index import build_multi_index_set
from sgfem.orthopoly import hermite_family, legendre_family
from sgfem.triple_product import build_triple_product_tensor


def kl_tensor(dims, degree, family=None):
    basis = build_multi_index_set(dims, degree)
    coeff = build_multi_index_set(dims, 1)
    return build_triple_product_tensor(basis, coeff, family or legendre_family())


def dense_oracle(basis, coeff, family) -> sp.csr_matrix:
    """c_ijk from the full (n_coeff, M+1, M+1) array: per coefficient the
    product of the univariate tables over the dimensions in order, whose
    exact zeros CSR drops, as CSR rows i * (M+1) + j."""
    table = family.triple_product_table(coeff.degree, basis.degree)
    digits = np.array(basis.indices)
    dense = np.ones((len(coeff), len(basis), len(basis)))
    for C, ind in zip(dense, coeff.indices):
        for d in range(basis.dims):
            C *= table[ind[d]][digits[:, d][:, None], digits[:, d][None, :]]
    return sp.csr_matrix(dense.reshape(-1, len(basis)))


def assert_equals_dense_oracle(t, ref):
    """Equal CSR patterns and bitwise equal values."""
    assert t.stacked.shape == ref.shape
    assert np.array_equal(t.stacked.indptr, ref.indptr)
    assert np.array_equal(t.stacked.indices, ref.indices)
    assert t.stacked.data.tobytes() == ref.data.tobytes()


def assert_equals_family_oracle(kind, dims, degree):
    """Legendre with the order-1 coefficient set, Hermite with order 2P."""
    family = legendre_family() if kind == "legendre" else hermite_family()
    basis = build_multi_index_set(dims, degree)
    coeff = build_multi_index_set(dims, 1 if kind == "legendre" else 2 * degree)
    assert_equals_dense_oracle(build_triple_product_tensor(basis, coeff, family),
                               dense_oracle(basis, coeff, family))


def test_block_counts_match_structure_figures():
    assert kl_tensor(4, 4).n_blocks == 350
    assert kl_tensor(4, 7).n_blocks == 2010


def test_structure_is_computed_once():
    t = build_triple_product_tensor(build_multi_index_set(2, 2),
                                    build_multi_index_set(2, 4), hermite_family())
    assert t.structure is t.structure
    assert t.n_blocks == t.structure.nnz == 36


def test_constant_chaos_single_entry():
    t = kl_tensor(3, 0)
    entries = list(t.entries())
    assert entries == [(0, 0, 0, 1.0)]
    assert t.n_blocks == 1


def test_identity_coupling_for_constant_coefficient():
    t = kl_tensor(2, 3)
    c0 = t.coupling[0].toarray()
    off = c0 - np.diag(np.diag(c0))
    assert np.all(off == 0.0)          # selection rules give exact zeros
    assert np.all(np.diag(c0) == 1.0)    # the closed form gives exact ones


def test_diagonal_blocks_are_scalar_multiples():
    # c_ikk = 0 exactly for every i >= 1 in the linear/Legendre case
    for dims, degree in [(2, 3), (4, 4), (3, 5)]:
        t = kl_tensor(dims, degree)
        for Ci in t.coupling[1:]:
            assert np.all(Ci.diagonal() == 0.0)


@pytest.mark.parametrize("dims,degree", [(2, 4), (3, 3), (5, 2)])
def test_same_degree_blocks_diagonal(dims, degree):
    t = kl_tensor(dims, degree)
    assert t.has_block_diagonal_levels()


def test_multivariate_values_against_univariate_products():
    fam = legendre_family()
    t = kl_tensor(2, 3, fam)
    basis, coeff = t.basis, t.coeff_set
    rng = np.random.default_rng(7)
    checked = 0
    for i, j, k, v in t.entries():
        if rng.random() < 0.5:
            expect = 1.0
            for d in range(2):
                expect *= fam.triple_product(coeff.indices[i][d],
                                             basis.indices[j][d],
                                             basis.indices[k][d])
            assert v == pytest.approx(expect, abs=1e-12)
            checked += 1
    assert checked > 5


def test_full_permutation_symmetry_when_bases_match():
    # i, j, k all over the same order-2 basis
    basis = build_multi_index_set(2, 2)
    t = build_triple_product_tensor(basis, basis, legendre_family())
    n = len(basis)
    full = np.array([t.coupling[i].toarray() for i in range(n)])
    for perm in itertools.permutations((0, 1, 2)):
        assert np.allclose(full, np.transpose(full, perm), atol=1e-13)


def test_hermite_coefficient_expansion_dense_pattern():
    basis = build_multi_index_set(2, 2)
    coeff = build_multi_index_set(2, 4)
    t = build_triple_product_tensor(basis, coeff, hermite_family())
    assert t.n_blocks == len(basis) ** 2
    assert not t.has_block_diagonal_levels()


def test_dimension_mismatch_rejected():
    basis = build_multi_index_set(2, 2)
    coeff = build_multi_index_set(3, 1)
    with pytest.raises(ValueError):
        build_triple_product_tensor(basis, coeff, legendre_family())


def test_tensor_exports(tmp_path):
    t = kl_tensor(2, 2)
    pattern_path = tmp_path / "pattern.csv"
    t.write_block_pattern_csv(pattern_path)
    mask = np.loadtxt(pattern_path, delimiter=",")
    assert mask.shape == (6, 6)
    assert int(mask.sum()) == t.n_blocks
    assert set(np.unique(mask)) <= {0.0, 1.0}


def test_block_pattern_counts_small_case():
    # N=1, P=4: tridiagonal block pattern, 5 + 2*4 = 13 blocks
    t = kl_tensor(1, 4)
    assert t.n_blocks == 13
    assert t.n_diag_blocks == 5


def test_linear_build_matches_dense_oracle():
    fam = legendre_family()
    basis = build_multi_index_set(3, 3)
    coeff = build_multi_index_set(3, 1)
    assert_equals_dense_oracle(build_triple_product_tensor(basis, coeff, fam),
                               dense_oracle(basis, coeff, fam))


def test_work_count_scale_is_fast():
    import time
    t0 = time.perf_counter()
    kl_tensor(8, 4)
    kl_tensor(4, 8)
    assert time.perf_counter() - t0 < 1.0


def test_general_build_matches_per_coefficient_products():
    fam = hermite_family()
    basis = build_multi_index_set(2, 3)
    coeff = build_multi_index_set(2, 6)
    t = build_triple_product_tensor(basis, coeff, fam)
    ref = dense_oracle(basis, coeff, fam)
    assert_equals_dense_oracle(t, ref)
    for C, R in zip(t.coupling, ref.toarray().reshape(len(coeff), len(basis), -1)):
        assert np.array_equal(C.toarray(), R) and C.nnz == np.count_nonzero(R)


@given(st.sampled_from(["legendre", "hermite"]), st.integers(1, 4), st.integers(0, 4))
def test_build_equals_dense_oracle(kind, dims, degree):
    assert_equals_family_oracle(kind, dims, degree)


def test_table_configurations_equal_dense_oracle():
    configs = set()
    for base, variable, values in TABLE_SWEEPS.values():
        for value in values:
            config = replace(base, **{variable: value}) if variable in "NP" else base
            configs.add((config.distribution, config.N, config.P))
    assert len(configs) == 22
    for distribution, dims, degree in sorted(configs):
        assert_equals_family_oracle(
            "legendre" if distribution == "uniform" else "hermite", dims, degree)


def test_entries_read_every_coupling_in_order():
    t = build_triple_product_tensor(build_multi_index_set(2, 2),
                                    build_multi_index_set(2, 4), hermite_family())
    per_coefficient = []
    for i, C in enumerate(t.coupling):
        coo = C.tocoo()
        per_coefficient += [(i, int(j), int(k), float(v))
                            for j, k, v in zip(coo.row, coo.col, coo.data)]
    assert list(t.entries()) == per_coefficient


def test_large_hermite_build_stays_sparse():
    # the dense (n_coeff, M+1, M+1) array of this tensor would take 1.06 GB
    basis = build_multi_index_set(6, 4)
    coeff = build_multi_index_set(6, 8)
    tracemalloc.start()
    try:
        t = build_triple_product_tensor(basis, coeff, hermite_family())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.stacked.nnz == 105_770
    assert t.stacked.shape == (len(coeff) * len(basis), len(basis))
    assert peak < 150e6
