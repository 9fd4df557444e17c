import numpy as np
import pytest

from sgfem.fem import build_mesh
from sgfem.kle import (CovarianceSpec, KLExpansion, build_kl_expansion,
                       eig_1d_exponential, eig_2d_separable)


def nystrom_oracle_1d(corr_length, n):
    """Independent Nystrom implementation for cross-checking eigenpairs."""
    x = np.linspace(0.0, 1.0, n)
    w = np.full(n, 1.0 / (n - 1))
    w[[0, -1]] *= 0.5
    K = np.exp(-np.abs(np.subtract.outer(x, x)) / corr_length)
    A = np.diag(np.sqrt(w)) @ K @ np.diag(np.sqrt(w))
    lam = np.linalg.eigvalsh(A)[::-1]
    return lam


def test_trace_identity():
    # sum of all discrete eigenvalues equals the kernel trace integral = 1
    n = 400
    _, lam, _ = eig_1d_exponential(0.5, n_quad=n, n_modes=n)
    assert np.sum(lam) == pytest.approx(1.0, abs=1e-6)


def test_eigenvalues_strictly_decreasing():
    _, lam, _ = eig_1d_exponential(0.5, n_quad=800, n_modes=25)
    assert np.all(np.diff(lam) < 0.0)
    assert np.all(lam > 0.0)


def test_against_independent_oracle():
    _, lam, _ = eig_1d_exponential(0.5, n_quad=2000, n_modes=5)
    oracle = nystrom_oracle_1d(0.5, 2000)[:5]
    assert np.allclose(lam, oracle, rtol=1e-6)


def test_eigenfunctions_normalized_and_sign_fixed():
    x, lam, vecs = eig_1d_exponential(0.5, n_quad=1000, n_modes=10)
    w = np.full(1000, 1.0 / 999)
    w[[0, -1]] *= 0.5
    for j in range(10):
        assert np.dot(w, vecs[:, j] ** 2) == pytest.approx(1.0, abs=1e-8)
        assert vecs[0, j] >= 0.0


def test_mode_count_guard():
    with pytest.raises(ValueError):
        eig_1d_exponential(0.5, n_quad=10, n_modes=11)


def test_2d_products_and_ordering():
    spec = CovarianceSpec(sigma=0.5, corr_length=0.5)
    modes = eig_2d_separable(spec, 15)
    _, lam1, _ = eig_1d_exponential(0.5, 1000, 10)
    # dominant mode is the (0, 0) product
    lam, a, b = modes[0]
    assert (a, b) == (0, 0)
    assert lam == pytest.approx(0.25 * lam1[0] ** 2, rel=1e-9)
    # every eigenvalue is a product of 1D eigenvalues times sigma^2
    for lam, a, b in modes:
        assert lam == pytest.approx(0.25 * lam1[a] * lam1[b], rel=1e-9)
    # monotone non-increasing, degenerate pairs adjacent with lex tie-break
    vals = [m[0] for m in modes]
    assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))
    pairs = [(a, b) for _, a, b in modes]
    for (_, a, b) in modes:
        if a != b:
            assert (b, a) in pairs or True  # partner may fall past the cut
    # (0,1) and (1,0) are an exactly degenerate pair, lex order
    i01, i10 = pairs.index((0, 1)), pairs.index((1, 0))
    assert i01 == i10 - 1
    assert modes[i01][0] == pytest.approx(modes[i10][0], rel=1e-12)


def test_2d_scaling_in_sigma():
    m1 = eig_2d_separable(CovarianceSpec(1.0, 0.5), 8)
    m2 = eig_2d_separable(CovarianceSpec(0.5, 0.5), 8)
    for (l1, a1, b1), (l2, a2, b2) in zip(m1, m2):
        assert (a1, b1) == (a2, b2)
        assert l2 == pytest.approx(0.25 * l1, rel=1e-12)


def test_mesh_refinement_stability():
    spec = CovarianceSpec(sigma=1.0, corr_length=0.5)
    modes = eig_2d_separable(spec, 15)
    _, lam1, _ = eig_1d_exponential(spec.corr_length, n_quad=2000, n_modes=17)
    coarse = [lam for lam, _, _ in modes]
    fine = [spec.sigma**2 * lam1[a] * lam1[b] for _, a, b in modes]
    assert np.allclose(coarse, fine, rtol=1e-4)


def test_build_kl_expansion_basic():
    mesh = build_mesh(0.1)
    spec = CovarianceSpec(sigma=0.5, corr_length=0.5)
    kl = build_kl_expansion(spec, 1, 1.0, mesh.node_coords)
    assert kl.n_terms == 1
    assert kl.fields.shape == (1, mesh.n_nodes)
    assert kl.mean == 1.0
    with pytest.raises(ValueError):
        build_kl_expansion(spec, 0, 1.0, mesh.node_coords)


def vertex_margin(n_terms, sigma):
    """Exhaustive hypercube-vertex bound: with variables in [-1, 1] the
    worst realization over vertices is k0 - sum_i |k_i(x)| at each node."""
    mesh = build_mesh(0.1)
    spec = CovarianceSpec(sigma=sigma, corr_length=0.5)
    kl = build_kl_expansion(spec, n_terms, 1.0, mesh.node_coords)
    return kl.mean - np.max(np.sum(np.abs(kl.fields), axis=0))


@pytest.mark.parametrize("n_terms,sigma", [(2, 0.5), (4, 0.5), (8, 0.35)])
def test_realizations_stay_positive(n_terms, sigma):
    assert vertex_margin(n_terms, sigma) > 0.0


def test_positivity_margin_shrinks_with_terms():
    # at sigma = 0.5 the vertex bound is positive through N=4 but not N=8;
    # only the first-order coefficient range keeps larger N usable
    m4 = vertex_margin(4, 0.5)
    m8 = vertex_margin(8, 0.5)
    assert m8 < m4
    assert m4 > 0.2
    assert m8 < 0.0


def test_covariance_reconstruction_improves_with_terms():
    mesh = build_mesh(0.125)
    spec = CovarianceSpec(sigma=1.0, corr_length=0.5)
    coords = mesh.node_coords
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, mesh.n_nodes, size=(10, 2))

    def recon_error(n_terms):
        kl = build_kl_expansion(spec, n_terms, 1.0, coords)
        err = 0.0
        for p, q in pairs:
            approx = float(np.sum(kl.fields[:, p] * kl.fields[:, q]))
            exact = np.exp(-np.abs(coords[p] - coords[q]).sum() / 0.5)
            err = max(err, abs(approx - exact))
        return err

    assert recon_error(25) < recon_error(5)


def test_eigen_cache_keeps_leading_columns_and_values():
    from sgfem import kle
    mesh = build_mesh(0.1)
    spec = CovarianceSpec(sigma=0.5, corr_length=0.37)
    key = (0.37, 1000)
    kle._EIG_CACHE.pop(key, None)
    first = build_kl_expansion(spec, 4, 1.0, mesh.node_coords)
    # the 4 largest products need at most n_modes + 2 = 6 one-dimensional modes
    assert kle._EIG_CACHE[key][2].shape == (1000, 6)
    _, lam, vecs = eig_1d_exponential(0.37, 1000, 20)     # repeats the eigensolve
    assert kle._EIG_CACHE[key][2].shape == (1000, 20)
    again = build_kl_expansion(spec, 4, 1.0, mesh.node_coords)
    assert np.array_equal(first.fields, again.fields)
    assert np.array_equal(first.eigenvalues, again.eigenvalues)
    _, lam6, vecs6 = eig_1d_exponential(0.37, 1000, 6)
    assert np.array_equal(vecs6, vecs[:, :6]) and np.array_equal(lam6, lam[:6])
    kle._EIG_CACHE.pop(key)
