import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from sgfem import fem
from sgfem.fem import (_hat_entries, assemble_load, assemble_weighted_stiffness, build_mesh,
                       local_hat_stiffness)


def hand_assembled_unit_stiffness(n):
    """Oracle: textbook Q1 element stiffness for unit coefficient, assembled
    with explicit loops, Dirichlet rows/cols zeroed, unit boundary diagonal,
    on the grid numbered row-major (node iy*(n+1) + ix)."""
    ke = np.array([[4, -1, -2, -1],
                   [-1, 4, -1, -2],
                   [-2, -1, 4, -1],
                   [-1, -2, -1, 4]]) / 6.0
    n1 = n + 1
    K = np.zeros((n1 * n1, n1 * n1))
    for ey in range(n):
        for ex in range(n):
            sw = ey * n1 + ex
            nodes = [sw, sw + 1, sw + n1 + 1, sw + n1]
            for a in range(4):
                for b in range(4):
                    K[nodes[a], nodes[b]] += ke[a, b]
    bnd = np.zeros(n1 * n1, dtype=bool)
    ids = np.arange(n1 * n1)
    bnd[(ids % n1 == 0) | (ids % n1 == n) | (ids // n1 == 0) | (ids // n1 == n)] = True
    K[bnd, :] = 0.0
    K[:, bnd] = 0.0
    K[bnd, bnd] = 1.0
    return K


def stiffness_matrices(mesh, fields):
    """The CSR matrices of the rows of ``fields`` from the one batched call;
    row 0 is the mean coefficient, with the unit boundary diagonal."""
    indices, indptr, data = assemble_weighted_stiffness(mesh, fields)
    return [sp.csr_matrix((row, indices, indptr), shape=(mesh.n_nodes,) * 2)
            for row in data]


def test_mesh_invariants():
    mesh = build_mesh(0.1)
    assert mesh.n_nodes == 121
    assert mesh.n_cells == 10
    assert mesh.connectivity.shape == (100, 4)
    assert mesh.boundary_mask.sum() == 40
    assert build_mesh(0.2).n_nodes == 36
    m1 = build_mesh(1.0)
    assert m1.n_nodes == 4 and mesh is not m1
    assert np.all(m1.boundary_mask)


def test_table_dimension_bookkeeping():
    # 70 chaos blocks of 121 spatial dofs -> 8470; of 36 -> 2520
    assert 70 * build_mesh(0.1).n_nodes == 8470
    assert 70 * build_mesh(0.2).n_nodes == 2520


def test_rejects_non_integer_resolution():
    with pytest.raises(ValueError):
        build_mesh(0.3)
    with pytest.raises(ValueError):
        build_mesh(-0.5)


def test_unit_coefficient_matches_hand_assembly():
    for n in (2, 3):
        mesh = build_mesh(1.0 / n)
        [K] = stiffness_matrices(mesh, np.ones((1, mesh.n_nodes)))
        oracle = hand_assembled_unit_stiffness(n)
        g = mesh.grid_index
        assert np.max(np.abs(K.toarray() - oracle[np.ix_(g, g)])) < 1e-14


def test_stiffness_annihilates_constants_deep_interior():
    mesh = build_mesh(0.1)
    [K] = stiffness_matrices(mesh, np.ones((1, mesh.n_nodes)))
    v = K @ np.ones(mesh.n_nodes)
    ix, iy = np.rint(mesh.node_coords / mesh.h).T
    deep = (ix >= 2) & (ix <= 8) & (iy >= 2) & (iy <= 8)
    assert np.max(np.abs(v[deep])) < 1e-12


def test_linearity_in_coefficient():
    mesh = build_mesh(0.25)
    rng = np.random.default_rng(0)
    field = rng.uniform(0.5, 2.0, mesh.n_nodes)
    _, K1, K2 = stiffness_matrices(mesh, [np.ones(mesh.n_nodes), field, 2.0 * field])
    assert np.max(np.abs((2 * K1 - K2).toarray())) < 1e-13


def test_symmetry_and_mean_matrix_spd():
    mesh = build_mesh(0.1)
    rng = np.random.default_rng(1)
    field = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    K0, K = stiffness_matrices(mesh, [np.ones(mesh.n_nodes), field])
    assert abs(K - K.T).max() < 1e-14
    np.linalg.cholesky(K0.toarray())   # raises if not SPD


def test_field_length_mismatch():
    mesh = build_mesh(0.25)
    with pytest.raises(ValueError):
        assemble_weighted_stiffness(mesh, np.ones((2, 7)))
    # one field is a (1, n_nodes) array
    with pytest.raises(ValueError):
        assemble_weighted_stiffness(mesh, np.ones(mesh.n_nodes))


def test_load_vector_values():
    mesh = build_mesh(0.1)
    f = assemble_load(mesh, 1.0)
    interior = ~mesh.boundary_mask
    assert np.allclose(f[interior], mesh.h ** 2, atol=1e-15)
    assert np.all(f[mesh.boundary_mask] == 0.0)
    assert np.all(assemble_load(mesh, 0.0) == 0.0)


def fourier_poisson_center_value(terms=60):
    """Oracle: separable series for -lap u = 1 on the unit square at (1/2, 1/2)."""
    total = 0.0
    for m in range(1, terms, 2):
        for n in range(1, terms, 2):
            amp = 16.0 / (np.pi ** 4 * m * n * (m * m + n * n))
            total += amp * np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2)
    return total


def test_poisson_center_value():
    mesh = build_mesh(0.1)
    [K] = stiffness_matrices(mesh, np.ones((1, mesh.n_nodes)))
    f = assemble_load(mesh, 1.0)
    u = sp.linalg.spsolve(K.tocsc(), f)
    [center] = np.flatnonzero(np.all(mesh.node_coords == 0.5, axis=1))
    oracle = fourier_poisson_center_value()
    assert oracle == pytest.approx(0.0737, abs=2e-4)
    assert u[center] == pytest.approx(oracle, rel=0.02)


def gauss_rule():
    """Oracle's 2x2 Gauss rule: the four Q1 shape functions and their
    reference gradients at each point, corner order SW, SE, NE, NW."""
    g = 1.0 / np.sqrt(3.0)
    corners = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
    for gx in (-g, g):
        for gy in (-g, g):
            shape = np.array([0.25 * (1 + cx * gx) * (1 + cy * gy) for cx, cy in corners])
            dxi = np.array([0.25 * cx * (1 + cy * gy) for cx, cy in corners])
            deta = np.array([0.25 * cy * (1 + cx * gx) for cx, cy in corners])
            yield shape, dxi, deta


def element_by_element_stiffness(mesh, field, unit_boundary_diag=False):
    """Oracle: 2x2 Gauss element matrices of one field scattered through a
    COO matrix, Dirichlet rows/columns zeroed by diagonal products."""
    conn = mesh.connectivity
    coeff = field[conn]
    ke = np.zeros((len(conn), 4, 4))
    for shape, dxi, deta in gauss_rule():
        grad = np.outer(dxi, dxi) + np.outer(deta, deta)
        ke += (coeff @ shape)[:, None, None] * grad[None, :, :]
    K = sp.coo_matrix((ke.ravel(), (np.repeat(conn, 4, axis=1).ravel(),
                                    np.tile(conn, (1, 4)).ravel())),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    keep = sp.diags((~mesh.boundary_mask).astype(float))
    K = (keep @ K @ keep).tocsr()
    if unit_boundary_diag:
        K = K + sp.diags(mesh.boundary_mask.astype(float))
    K.eliminate_zeros()
    return K.tocsr()


def element_by_element_load(mesh, f):
    """Oracle: the load of the constant source f, the element sums of each
    Gauss point added at the corners, zeroed at the boundary nodes."""
    conn = mesh.connectivity
    fe = np.full(conn.shape, float(f))
    detj = mesh.h * mesh.h / 4.0
    load = np.zeros(mesh.n_nodes)
    for shape, _, _ in gauss_rule():
        np.add.at(load, conn.ravel(), (detj * (fe @ shape)[:, None] * shape[None, :]).ravel())
    load[mesh.boundary_mask] = 0.0
    return load


@pytest.mark.parametrize("n", [1, 2, 3, 10])
@pytest.mark.parametrize("f", [1.0, 0.3])
def test_load_vector_is_the_element_loop_bit_for_bit(n, f):
    mesh = build_mesh(1.0 / n)
    assert np.array_equal(assemble_load(mesh, f), element_by_element_load(mesh, f))


def builder_fields(mesh) -> tuple:
    """The fields of both builders on the mesh: the uniform builder's mean
    and Legendre-scaled Karhunen-Loeve fields, and the lognormal builder's
    Hermite chaos coefficients at N=2, order 4."""
    from sgfem.kle import CovarianceSpec, build_kl_expansion
    from sgfem.lognormal import LognormalFieldSpec, gaussian_kl, lognormal_gpc_coefficients
    from sgfem.multi_index import build_multi_index_set
    kl = build_kl_expansion(CovarianceSpec(0.5, 0.5), 2, 1.0, mesh.node_coords)
    gauss = gaussian_kl(LognormalFieldSpec(cov=1.0), mesh, 2)
    return (np.vstack([np.full(mesh.n_nodes, kl.mean), kl.fields / np.sqrt(3.0)]),
            lognormal_gpc_coefficients(gauss, build_multi_index_set(2, 4)))


def test_batched_assembly_matches_per_field_assembly():
    from sgfem.kle import CovarianceSpec, build_kl_expansion
    from sgfem.lognormal import LognormalFieldSpec, gaussian_kl, lognormal_gpc_coefficients
    from sgfem.multi_index import build_multi_index_set
    mesh = build_mesh(0.125)
    kl = build_kl_expansion(CovarianceSpec(0.5, 0.5), 4, 1.0, mesh.node_coords)
    gauss = gaussian_kl(LognormalFieldSpec(cov=1.0), mesh, 2)
    # the pattern: the interior entries of the Q1 stencil, and the boundary
    # diagonal alone in each boundary row
    pattern = element_by_element_stiffness(mesh, np.ones(mesh.n_nodes), True)
    for fields in (np.vstack([np.ones(mesh.n_nodes), kl.fields]),
                   lognormal_gpc_coefficients(gauss, build_multi_index_set(2, 4))):
        indices, indptr, data = assemble_weighted_stiffness(mesh, fields)
        assert data.shape == (len(fields), len(indices)) and data.flags.c_contiguous
        assert np.array_equal(indptr, pattern.indptr)
        assert np.array_equal(indices, pattern.indices)
        assert np.array_equal(np.diff(indptr)[mesh.boundary_mask], np.ones(
            mesh.boundary_mask.sum()))
        # the element sums up to rounding
        scale = np.abs(data[0]).max()
        for k, (row, field) in enumerate(zip(data, fields)):
            K = sp.csr_matrix((row, indices, indptr), shape=(mesh.n_nodes,) * 2)
            ref = element_by_element_stiffness(mesh, field, k == 0)
            assert np.abs(K - ref).max() <= 1e-15 * scale, k
    with pytest.raises(ValueError):
        assemble_weighted_stiffness(mesh, np.ones((2, 3, mesh.n_nodes)))


class GridMesh:
    """The grid of build_mesh(1/n) numbered row-major, x fastest: node
    iy*(n+1) + ix, the numbering of ``hand_assembled_unit_stiffness``."""

    def __init__(self, n):
        n1 = n + 1
        self.n_cells, self.n_nodes = n, n1 * n1
        self.grid_index = self.node_ids = np.arange(self.n_nodes)
        iy, ix = np.divmod(self.grid_index, n1)
        self.boundary_mask = (ix == 0) | (ix == n) | (iy == 0) | (iy == n)
        self.grid_coords = np.column_stack([ix, iy]) / n
        ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        sw = (ey * n1 + ex).ravel()
        self.connectivity = np.column_stack([sw, sw + 1, sw + n1 + 1, sw + n1])

    # the builders read the hat entries off the mesh, as Mesh gives them
    hat_entries = property(_hat_entries)


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_mesh_numbers_the_boundary_last_and_keeps_the_grid_values(n, seed):
    mesh, grid = build_mesh(1.0 / n), GridMesh(n)
    g, n_nodes, n_interior = mesh.grid_index, mesh.n_nodes, (n - 1) ** 2
    assert np.array_equal(np.sort(g), np.arange(n_nodes))
    assert np.array_equal(mesh.node_ids[g], np.arange(n_nodes))
    # the boundary nodes are one trailing run; each part keeps grid order
    assert np.array_equal(mesh.boundary_mask, np.arange(n_nodes) >= n_interior)
    assert np.array_equal(grid.boundary_mask[g], mesh.boundary_mask)
    assert np.all(np.diff(g[:n_interior]) > 0) and np.all(np.diff(g[n_interior:]) > 0)
    assert np.abs(mesh.node_coords - grid.grid_coords[g]).max() <= 1e-15
    assert np.array_equal(mesh.connectivity, mesh.node_ids[grid.connectivity])
    # every stiffness value is the row-major assembly's, bit for bit, for
    # any fields and for both builders'
    rng = np.random.default_rng(seed)
    for fields in (np.vstack([np.ones(n_nodes), rng.uniform(0.5, 2.0, (2, n_nodes))]),
                   *builder_fields(mesh)):
        indices, indptr, data = assemble_weighted_stiffness(mesh, fields)
        grid_indices, grid_indptr, grid_data = assemble_weighted_stiffness(
            grid, fields[:, mesh.node_ids])
        # the pattern, as the 0/1 matrix of the stored positions, and each K_i
        for row, grid_row in zip([np.ones(len(indices)), *data],
                                 [np.ones(len(grid_indices)), *grid_data]):
            K = sp.csr_matrix((row, indices, indptr), shape=(n_nodes,) * 2)
            K_grid = sp.csr_matrix((grid_row, grid_indices, grid_indptr), shape=(n_nodes,) * 2)
            assert np.array_equal(K.toarray(), K_grid.toarray()[np.ix_(g, g)])
    # the hat stiffness too, and S sums the local rows in the same order:
    # local row 9 m + k of node m is the grid's 9 g[m] + k
    H, S = local_hat_stiffness(mesh)
    H_grid, S_grid = local_hat_stiffness(grid)
    local = (9 * g[:, None] + np.arange(9)).ravel()
    assert np.array_equal(H.toarray(), H_grid.toarray()[np.ix_(local, g)])
    W = rng.standard_normal((9 * n_nodes, 3))
    assert np.array_equal(S @ W[local], (S_grid @ W)[g])


def test_hat_entries_are_enumerated_once_per_mesh(monkeypatch):
    from sgfem.lognormal import LognormalFieldSpec, build_lognormal_operator
    calls = []
    enumerate_entries = fem._hat_entries
    monkeypatch.setattr(fem, "_hat_entries",
                        lambda mesh: calls.append(mesh) or enumerate_entries(mesh))
    # the stiffness and the local hat stiffness of one lognormal build
    mesh = build_mesh(1.0 / 5)
    build_lognormal_operator(LognormalFieldSpec(cov=1.0), mesh, 2, 2)
    assert calls == [mesh]
    # the cached entries, read-only, are those of a fresh enumeration, and
    # both functions give on them what they give on a fresh mesh, bit for bit
    entries = mesh.hat_entries
    assert mesh.hat_entries is entries and calls == [mesh]
    for cached, fresh in zip(entries, enumerate_entries(build_mesh(1.0 / 5))):
        assert not cached.flags.writeable
        assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh)
    fields = np.random.default_rng(0).uniform(0.5, 2.0, (3, mesh.n_nodes))
    for got, want in zip(assemble_weighted_stiffness(mesh, fields),
                         assemble_weighted_stiffness(build_mesh(1.0 / 5), fields)):
        assert np.array_equal(got, want)
    for got, want in zip(local_hat_stiffness(mesh), local_hat_stiffness(build_mesh(1.0 / 5))):
        assert (got != want).nnz == 0
    # the mesh built once enumerated nothing more; each fresh one once
    assert calls[0] is mesh and len(calls) == 3
