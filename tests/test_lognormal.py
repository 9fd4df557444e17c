import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

import sgfem.operator as operator
from sgfem.fem import assemble_load, build_mesh
from sgfem.kle import KLExpansion
from sgfem.krylov import cg
from sgfem.multi_index import build_multi_index_set
from sgfem.operator import InnerSolveError, InnerSolver
from sgfem.precond import BlockSGS, HierarchicalSchur
from sgfem.lognormal import (LognormalFieldSpec, build_lognormal_operator,
                             dense_d_block_solve, gaussian_kl,
                             lognormal_gpc_coefficients)

EXACT = InnerSolver(kind="exact")


def test_spec_moment_matching():
    spec = LognormalFieldSpec(mean=1.0, cov=1.0)
    assert spec.sigma_g2 == pytest.approx(math.log(2.0))
    assert spec.mu_g == pytest.approx(-0.5 * math.log(2.0))
    # reconstructed lognormal moments
    mean = math.exp(spec.mu_g + spec.sigma_g2 / 2)
    var = math.exp(2 * spec.mu_g + spec.sigma_g2) * (math.exp(spec.sigma_g2) - 1)
    assert mean == pytest.approx(1.0)
    assert math.sqrt(var) / mean == pytest.approx(1.0)
    with pytest.raises(ValueError):
        LognormalFieldSpec(mean=-1.0)
    with pytest.raises(ValueError):
        LognormalFieldSpec(cov=0.0)


def test_zero_gaussian_variance_leaves_only_the_mean():
    gauss = KLExpansion(np.zeros(2), np.zeros((2, 9)), -0.5)
    coeff = build_multi_index_set(2, 4)
    fields = lognormal_gpc_coefficients(gauss, coeff)
    assert np.allclose(fields[0], math.exp(-0.5))
    assert np.all(fields[1:] == 0.0)


def test_row_zero_is_pointwise_mean():
    mesh = build_mesh(0.25)
    spec = LognormalFieldSpec(mean=1.0, cov=1.0)
    gauss = gaussian_kl(spec, mesh, 3)
    fields = lognormal_gpc_coefficients(gauss, build_multi_index_set(3, 2))
    sigma2_trunc = np.sum(gauss.fields ** 2, axis=0)
    assert np.allclose(fields[0], np.exp(spec.mu_g + 0.5 * sigma2_trunc))


def test_single_mode_against_quadrature_oracle():
    # N=1 at one spatial point: coefficients of exp(mu + g*xi) in the
    # orthonormal Hermite basis versus Gauss-Hermite quadrature
    mu, g = -0.3, 0.8
    gauss = KLExpansion(np.array([g * g]), np.array([[g]]), mu)
    coeff = build_multi_index_set(1, 8)
    fields = lognormal_gpc_coefficients(gauss, coeff)
    x, w = np.polynomial.hermite_e.hermegauss(60)
    w = w / math.sqrt(2 * math.pi)
    for n in range(9):
        psi = np.polynomial.hermite_e.hermeval(x, [0.0] * n + [1.0]) / \
            math.sqrt(math.factorial(n))
        oracle = float(np.dot(w, np.exp(mu + g * x) * psi))
        assert fields[n, 0] == pytest.approx(oracle, abs=1e-10)


def test_gpc_moments_match_truncated_field():
    # mean and variance reconstructed from the chaos coefficients agree with
    # the exact moments of the KL-truncated lognormal field to within 1% at
    # expansion order 2P = 8
    mesh = build_mesh(0.2)
    spec = LognormalFieldSpec(mean=1.0, cov=1.0)
    gauss = gaussian_kl(spec, mesh, 2)
    fields = lognormal_gpc_coefficients(gauss, build_multi_index_set(2, 8))
    node = mesh.n_nodes // 2
    s2 = float(np.sum(gauss.fields[:, node] ** 2))
    exact_mean = math.exp(spec.mu_g + s2 / 2)
    exact_var = math.exp(2 * spec.mu_g + s2) * (math.exp(s2) - 1.0)
    gpc_mean = fields[0, node]
    gpc_var = float(np.sum(fields[1:, node] ** 2))
    assert gpc_mean == pytest.approx(exact_mean, rel=1e-10)
    assert gpc_var == pytest.approx(exact_var, rel=0.01)


def test_operator_block_density_and_symmetry():
    mesh = build_mesh(0.25)
    op = build_lognormal_operator(LognormalFieldSpec(cov=1.0), mesh, 2, 2)
    assert op.tensor.n_blocks == op.n_blocks ** 2
    # some diagonal blocks pick up higher-order coefficient contributions
    assert any(np.any(Ci.diagonal() != 0.0) for Ci in op.tensor.coupling[1:])
    rng = np.random.default_rng(0)
    u = rng.standard_normal(op.shape[0])
    v = rng.standard_normal(op.shape[0])
    assert np.dot(v, op.matvec(u)) == pytest.approx(np.dot(u, op.matvec(v)), rel=1e-10)


def test_level_solve_policies_agree(monkeypatch):
    mesh = build_mesh(0.25)
    op = build_lognormal_operator(LognormalFieldSpec(cov=1.0), mesh, 2, 2)
    _, tail = op.level_slices(2)
    R = np.random.default_rng(1).standard_normal((tail.stop - tail.start, op.ndof))
    X_direct = dense_d_block_solve(op, 2, R)
    # no level fits under the limit: the level takes inner CG
    monkeypatch.setattr(operator, "DIRECT_LEVEL_LIMIT", 0)
    X_iter = dense_d_block_solve(op, 2, R, inner=InnerSolver(kind="cg", tol=1e-12))
    assert np.linalg.norm(X_iter - X_direct) <= 1e-8 * np.linalg.norm(X_direct)
    # residual of the direct solve
    res = op.product(tail, tail, X_direct) - R
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(R)


def test_level_solve_outer_counts_agree(monkeypatch):
    mesh = build_mesh(0.25)
    op = build_lognormal_operator(LognormalFieldSpec(cov=1.0), mesh, 2, 2)
    b = op.rhs(assemble_load(mesh, 1.0)).ravel()
    hs_direct = HierarchicalSchur(op, EXACT)
    hs_iter = HierarchicalSchur(op, InnerSolver(kind="cg"))
    _, rep_d = cg(op.matvec, b, apply_m=hs_direct, tol=1e-8)
    monkeypatch.setattr(operator, "DIRECT_LEVEL_LIMIT", 0)
    _, rep_i = cg(op.matvec, b, apply_m=hs_iter, tol=1e-8)
    assert abs(rep_d.iterations - rep_i.iterations) <= 1


def vanished_fluctuation_operator():
    """Hermite operator over a zero Gaussian field: every fluctuation matrix is zero."""
    mesh = build_mesh(0.25)
    gauss = KLExpansion(np.zeros(2), np.zeros((2, mesh.n_nodes)), 0.0)
    coeff = build_multi_index_set(2, 4)
    fields = lognormal_gpc_coefficients(gauss, coeff)
    from sgfem.fem import assemble_weighted_stiffness
    from sgfem.orthopoly import hermite_family
    from sgfem.triple_product import build_triple_product_tensor
    basis = build_multi_index_set(2, 2)
    tensor = build_triple_product_tensor(basis, coeff, hermite_family())
    return operator.GalerkinOperator(assemble_weighted_stiffness(mesh, fields), tensor)


def test_zero_variance_levels_collapse_to_block_diagonal():
    op = vanished_fluctuation_operator()
    # the tensor still couples same-degree blocks, but the vanished
    # fluctuation matrices make every level effectively block diagonal
    assert all(op.level_is_scalar_diagonal(l) for l in (1, 2))
    _, tail = op.level_slices(1)
    R = np.random.default_rng(2).standard_normal((tail.stop - tail.start, op.ndof))
    X1 = op.d_block_solve(1, R, EXACT)
    X2 = spla.spsolve(op.assemble_range(tail, tail).tocsc(), R.ravel()).reshape(R.shape)
    assert np.allclose(X1, X2, atol=1e-10)


def test_zero_variance_level_views_match_dense_oracle():
    op = vanished_fluctuation_operator()
    A = sum(np.kron(Ci.toarray(), Ki.toarray())
            for Ci, Ki in zip(op.tensor.coupling, op.matrices))
    n = op.ndof
    rng = np.random.default_rng(4)
    for level in (1, 2):
        head, tail = op.level_slices(level)
        # the tensor couples same-degree blocks, but only the K_0 term is kept
        assert set(op.coupling_entries[0]) == {0}
        for rows, cols in ((head, tail), (tail, head), (tail, tail)):
            X = rng.standard_normal((cols.stop - cols.start, n))
            ref = A[rows.start * n:rows.stop * n, cols.start * n:cols.stop * n] @ X.ravel()
            got = op.product(rows, cols, X).ravel()
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        D = A[tail.start * n:tail.stop * n, tail.start * n:tail.stop * n]
        R = rng.standard_normal((tail.stop - tail.start, n))
        ref = np.linalg.solve(D, R.ravel()).reshape(R.shape)
        for inner in (EXACT, InnerSolver(kind="cg", tol=1e-13)):
            X = dense_d_block_solve(op, level, R, inner=inner)
            assert np.linalg.norm(X - ref) <= 1e-9 * np.linalg.norm(ref), inner.kind


def test_vanished_fluctuations_count_no_block_products():
    op = vanished_fluctuation_operator()
    r = np.random.default_rng(5).standard_normal(op.shape[0])
    for prec in (BlockSGS(op, EXACT), HierarchicalSchur(op, EXACT)):
        prec(r)
        # only the K_0 terms on the diagonal blocks are multiplied
        assert prec.counters.block_matvecs == 0, type(prec).__name__


def test_direct_policy_guard(monkeypatch):
    mesh = build_mesh(0.25)
    op = build_lognormal_operator(LognormalFieldSpec(cov=1.0), mesh, 2, 2)
    _, tail = op.level_slices(2)
    R = np.zeros((tail.stop - tail.start, op.ndof))
    monkeypatch.setattr(operator, "DIRECT_LEVEL_LIMIT", 10)
    # a level over the limit takes inner CG, which needs a tolerance ...
    with pytest.raises(ValueError):
        dense_d_block_solve(op, 2, R)
    # ... and returns zero at once
    X = dense_d_block_solve(op, 2, R, inner=InnerSolver(tol=1e-8))
    assert np.all(X == 0.0) and op._level_solvers == {}


def test_iterative_policy_reports_nonconvergence(monkeypatch):
    mesh = build_mesh(0.25)
    op = build_lognormal_operator(LognormalFieldSpec(cov=1.0), mesh, 2, 2)
    _, tail = op.level_slices(2)
    R = np.random.default_rng(3).standard_normal((tail.stop - tail.start, op.ndof))
    monkeypatch.setattr(operator, "DIRECT_LEVEL_LIMIT", 0)
    monkeypatch.setattr(operator, "INNER_MAX_ITER", 2)
    with pytest.raises(InnerSolveError):
        dense_d_block_solve(op, 2, R, inner=InnerSolver(kind="cg", tol=1e-14))


def per_index_coefficients(gauss, coeff_set):
    """The chaos coefficient fields, one multi-index at a time: f <- f
    G[d]^a / sqrt(a!) for d ascending, starting from k0."""
    G = gauss.fields
    k0 = np.exp(gauss.mean + 0.5 * np.sum(G * G, axis=0))
    fields = np.empty((len(coeff_set), G.shape[1]))
    for row, alpha in enumerate(coeff_set.indices):
        f = k0.copy()
        for d, a in enumerate(alpha):
            if a:
                f = f * G[d] ** a / math.sqrt(math.factorial(a))
        fields[row] = f
    return fields


@given(st.integers(1, 6), st.integers(1, 8), st.integers(2, 30),
       st.sampled_from([0.25, 1.0, 1.5]), st.integers(0, 2**32 - 1))
def test_gpc_coefficients_equal_the_per_index_products_bit_for_bit(dims, order, n_nodes,
                                                                   scale, seed):
    rng = np.random.default_rng(seed)
    gauss = KLExpansion(np.ones(dims), scale * rng.standard_normal((dims, n_nodes)),
                        rng.standard_normal())
    coeff = build_multi_index_set(dims, order)
    assert np.array_equal(lognormal_gpc_coefficients(gauss, coeff),
                          per_index_coefficients(gauss, coeff))


def test_dimension_mismatch():
    gauss = KLExpansion(np.zeros(3), np.zeros((3, 9)), 0.0)
    with pytest.raises(ValueError):
        lognormal_gpc_coefficients(gauss, build_multi_index_set(2, 2))
