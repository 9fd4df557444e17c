"""The products and views of GalerkinOperator against the dense kron oracle.

Small Legendre/linear and Hermite/lognormal configurations are drawn at
random; the full and column products, sub-matrix assembly, every A/B/C/D
product, every level-solve path, the scalar-level flag, the representation
rule, the hierarchical Schur work counters and the block symmetric
Gauss-Seidel mapping with its work counters are checked against the
explicitly assembled matrix.
"""
import tracemalloc
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

from sgfem import operator
from sgfem.experiments import ExperimentConfig, build_operator
from sgfem.fem import STRUCTURAL_ZERO_RTOL, build_mesh
from sgfem.kle import CovarianceSpec, KLExpansion, build_kl_expansion
from sgfem.lognormal import LognormalFieldSpec, build_lognormal_operator
from sgfem.multi_index import build_multi_index_set
from sgfem.operator import GalerkinOperator, InnerSolver, build_uniform_operator
from sgfem.precond import BlockSGS, HierarchicalSchur, make_preconditioner
from shared_pattern import CONTRACT, indefinite, nonsymmetric, operator_from_matrices
from test_fem import element_by_element_stiffness

EXACT = InnerSolver(kind="exact")
TIGHT_CG = InnerSolver(kind="cg", tol=1e-13)
# the one ValueError of a tensor whose C_0 is not the identity
MEAN_COUPLING = "^GalerkinOperator needs the mean coupling C_0 = I of an orthonormal basis$"
PARTS = ("A", "B", "C", "D")


def uniform_operator(dims, degree, n_cells, sigma=0.5):
    mesh = build_mesh(1.0 / n_cells)
    kl = build_kl_expansion(CovarianceSpec(sigma=sigma, corr_length=0.5), dims, 1.0,
                            mesh.node_coords)
    return build_uniform_operator(mesh, kl, build_multi_index_set(dims, degree))


def lognormal_operator(dims, degree, n_cells, cov=1.0):
    return build_lognormal_operator(LognormalFieldSpec(cov=cov),
                                    build_mesh(1.0 / n_cells), dims, degree)


configs = st.tuples(st.sampled_from(["uniform", "lognormal"]),
                    st.integers(1, 3), st.integers(1, 3), st.integers(2, 4))


def build(config) -> GalerkinOperator:
    kind, dims, degree, n_cells = config
    if kind == "uniform":
        return uniform_operator(dims, degree, n_cells)
    return lognormal_operator(dims, degree, n_cells)


def dense_kron_oracle(op):
    """sum_i kron(C_i, K_i), assembled without the operator's own helpers."""
    return sum(np.kron(Ci.toarray(), Ki.toarray())
               for Ci, Ki in zip(op.tensor.coupling, op.matrices))


def coupling_pattern(op):
    """The blocks the operator multiplies, read off the dense C_i of the
    coefficients whose K_i is not structurally zero.

    A block can vanish in the dense oracle while its couplings do not, when
    its spatial matrices vanish on the mesh only up to rounding (odd
    Karhunen-Loeve modes at the one interior node of the coarsest mesh); the
    work counters count this pattern.
    """
    return sum(abs(Ci.toarray()) for Ci, Ki in zip(op.tensor.coupling, op.matrices)
               if np.any(Ki.toarray())) != 0


def block_ranges(op, level, part):
    head, tail = op.level_slices(level)
    return {"A": (head, head), "B": (head, tail),
            "C": (tail, head), "D": (tail, tail)}[part]


def dense_part(op, A, level, part):
    rows, cols = block_ranges(op, level, part)
    n = op.ndof
    return A[rows.start * n:rows.stop * n, cols.start * n:cols.stop * n]


def dense_is_scalar(op, D, level):
    """D_l = I (x) K_0, read off the dense matrix."""
    _, tail = op.level_slices(level)
    expect = np.kron(np.eye(tail.stop - tail.start), op.matrices[0].toarray())
    return np.allclose(D, expect, rtol=0.0, atol=1e-13 * np.abs(D).max())


def check_against_oracle(op):
    A = dense_kron_oracle(op)
    assert np.allclose(op.dense(), A, rtol=0.0, atol=1e-13 * np.abs(A).max())
    rng = np.random.default_rng(0)
    for level in range(op.basis.degree + 1):
        for part in PARTS:
            rows, cols = block_ranges(op, level, part)
            X = rng.standard_normal((cols.stop - cols.start, op.ndof))
            ref = dense_part(op, A, level, part) @ X.ravel()
            got = op.product(rows, cols, X).ravel()
            assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)
        D = dense_part(op, A, level, "D")
        assert op.level_is_scalar_diagonal(level) == dense_is_scalar(op, D, level)
        _, tail = op.level_slices(level)
        R = rng.standard_normal((tail.stop - tail.start, op.ndof))
        ref = np.linalg.solve(D, R.ravel()).reshape(R.shape)
        # scalar levels take the mean solve under either inner policy; coupled
        # levels take the level LU, and CG once no level fits under the limit
        for limit, inner in ((operator.DIRECT_LEVEL_LIMIT, EXACT), (0, TIGHT_CG)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(operator, "DIRECT_LEVEL_LIMIT", limit)
                X = op.d_block_solve(level, R, inner)
            assert np.linalg.norm(X - ref) <= 1e-9 * np.linalg.norm(ref), limit
    # one HS application solves every block twice but the mean block once,
    # and multiplies each nonzero block whose row and column degrees differ
    degree = np.array(op.basis.degrees())
    hs = HierarchicalSchur(op, EXACT)
    hs(rng.standard_normal(op.shape[0]))
    assert hs.counters.block_solves == 2 * op.n_blocks - 1
    assert hs.counters.block_matvecs == np.count_nonzero(
        coupling_pattern(op) & (degree[:, None] != degree[None, :]))


def dense_hs(op, A, r, top):
    """Exactly solved HS of the leading hierarchy A_top from the dense
    matrix: a D_top solve on either side of the recursion into A_{top-1}."""
    head, tail = (slice(s.start * op.ndof, s.stop * op.ndof)
                  for s in op.level_slices(top))
    D = A[tail, tail]
    if top == 0:
        return np.linalg.solve(D, r)
    u = dense_hs(op, A, r[head] - A[head, tail] @ np.linalg.solve(D, r[tail]), top - 1)
    return np.concatenate([u, np.linalg.solve(D, r[tail] - A[tail, head] @ u)])


@pytest.mark.parametrize("config", [("lognormal", 2, 3, 3), ("lognormal", 3, 2, 2),
                                    ("lognormal", 1, 3, 4)])
def test_hs_on_every_leading_hierarchy_matches_the_dense_oracle(config):
    # the order-L lognormal operator is not A_L (its coefficient order is 2L,
    # not 2P), so the oracle is the leading block of the full dense matrix
    op = build(config)
    A = dense_kron_oracle(op)
    degree = np.array(op.basis.degrees())
    rng = np.random.default_rng(2)
    for top in range(op.basis.degree + 1):
        m = op.basis.degree_offsets[top + 1]
        r = rng.standard_normal(m * op.ndof)
        hs = HierarchicalSchur(op, EXACT)
        ref = dense_hs(op, A, r, top)
        assert np.linalg.norm(hs(r) - ref) <= 1e-9 * np.linalg.norm(ref), top
        assert hs.counters.block_solves == 2 * m - 1
        assert hs.counters.block_matvecs == np.count_nonzero(
            (coupling_pattern(op) & (degree[:, None] != degree[None, :]))[:m, :m])


@given(configs)
def test_level_views_match_dense_oracle(config):
    op = build(config)
    check_against_oracle(op)


@pytest.mark.parametrize("kind", ["uniform", "lognormal"])
def test_level_views_match_dense_oracle_at_largest_config(kind):
    check_against_oracle(build((kind, 3, 3, 4)))


def test_linear_levels_are_scalar_and_lognormal_levels_coupled():
    uni = uniform_operator(2, 3, 4)
    logn = lognormal_operator(2, 3, 4)
    for level in (1, 2, 3):
        assert uni.level_is_scalar_diagonal(level)
        assert not logn.level_is_scalar_diagonal(level)
    # only the mean coupling survives on a linear level
    _, tail = uni.level_slices(2)
    D = uni.assemble_range(tail, tail).toarray()
    expect = np.kron(np.eye(tail.stop - tail.start), uni.matrices[0].toarray())
    assert np.array_equal(D, expect)


def test_levels_are_built_lazily_and_once(monkeypatch):
    calls = []
    original = GalerkinOperator.node_blocks.func

    def spy(self):
        calls.append(self)
        return original(self)

    node_blocks = cached_property(spy)
    node_blocks.__set_name__(GalerkinOperator, "node_blocks")
    monkeypatch.setattr(GalerkinOperator, "node_blocks", node_blocks)
    op = build_operator(ExperimentConfig(distribution="lognormal", N=2, P=2, h=1 / 3))
    assert op.presummed
    precs = [make_preconditioner(op, kind, EXACT) for kind in ("mean", "bsgs", "hs")]
    # neither the build nor a preconditioner set-up forms the nodal blocks
    # T_n or factorizes a level
    assert calls == [] and op._level_solvers == {}
    head, tail = op.level_slices(2)
    X = np.ones((tail.stop - tail.start, op.ndof))
    first = op.product(head, tail, X)
    assert calls == [op]
    second = op.product(head, tail, X)
    op.product(tail, head, np.ones((head.stop, op.ndof)))
    r = np.ones(op.shape[0])
    op.matvec(r)
    for prec in precs:
        prec(r)
    assert calls == [op]
    assert np.array_equal(first, second)


def spy_factorizations(monkeypatch) -> tuple:
    """(lus, bands): the (matrix, kwargs) of every SuperLU factorization
    and the (band, kwargs, factor, info) of every band Cholesky."""
    splu, dpbtrf = operator.spla.splu, operator.lapack.dpbtrf
    lus, bands = [], []

    def spy_splu(matrix, *args, **kwargs):
        lus.append((matrix, kwargs))
        return splu(matrix, *args, **kwargs)

    def spy_dpbtrf(band, *args, **kwargs):
        factor, info = dpbtrf(band, *args, **kwargs)
        bands.append((band, kwargs, factor, info))
        return factor, info

    monkeypatch.setattr(operator.spla, "splu", spy_splu)
    monkeypatch.setattr(operator.lapack, "dpbtrf", spy_dpbtrf)
    return lus, bands


def test_level_band_is_factorized_once(monkeypatch):
    lus, bands = spy_factorizations(monkeypatch)
    op = lognormal_operator(2, 2, 3)
    _, tail = op.level_slices(2)
    R = np.random.default_rng(1).standard_normal((tail.stop - tail.start, op.ndof))
    X1 = op.d_block_solve(2, R, EXACT)
    X2 = op.d_block_solve(2, R, EXACT)
    # one band Cholesky over the leading n_c nodes, reused by the second
    # solve; no SuperLU
    assert len(bands) == 1 and lus == []
    assert np.array_equal(X1, X2)


def test_superlu_factors_k0_alone_with_the_symmetric_ordering(monkeypatch):
    lus, bands = spy_factorizations(monkeypatch)
    # the benchmark's lognormal row
    op = build_operator(ExperimentConfig(distribution="lognormal", N=4, P=3, h=0.1, cov=1.0))
    r = np.ones(op.shape[0])
    for kind in ("mean", "bsgs", "hs"):
        make_preconditioner(op, kind, EXACT)(r)
    # SuperLU: K_0 alone; the n_b - 1 BSGS diagonal blocks and D_1..D_3 take
    # the band Cholesky, each level over its leading n_c nodes
    assert [matrix.shape for matrix, _ in lus] == [(op.ndof, op.ndof)]
    assert lus[0][1] == {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}
    assert len(bands) == (op.n_blocks - 1) + 3 and all(info == 0 for *_, info in bands)
    # BSGS factors its blocks over all 121 nodes, kd = 10 the spatial
    # bandwidth, the Dirichlet nodes being numbered last; HS factors D_3,
    # D_2, D_1 of m = 20, 10, 4 blocks over the 81 leading nodes, whose
    # bandwidth is 10 (D_3: kd' = 20 * 10 + 19 = 219 rows above the
    # diagonal), and copies the 40 Dirichlet rows, where each is I
    assert op.ndof == 121 and op.n_c == 81
    assert [band.shape for band, *_ in bands[:op.n_blocks - 1]] == [(11, 121)] * (op.n_blocks - 1)
    assert [band.shape for band, *_ in bands[op.n_blocks - 1:]] == [
        (220, 1620), (110, 810), (44, 324)]


@pytest.mark.parametrize("kind", ["uniform", "lognormal"])
def test_level_zero_is_the_mean_block(kind):
    op = build((kind, 2, 2, 3))
    assert op.level_slices(0) == (slice(0, 0), slice(0, 1))
    assert op.level_is_scalar_diagonal(0)
    A_00 = dense_kron_oracle(op)[:op.ndof, :op.ndof]
    R = np.random.default_rng(6).standard_normal((1, op.ndof))
    ref = np.linalg.solve(A_00, R[0])
    for inner in (EXACT, TIGHT_CG):
        X = op.d_block_solve(0, R, inner)
        assert np.array_equal(X, op.mean_solver(inner)(R))
        assert np.linalg.norm(X[0] - ref) <= 1e-9 * np.linalg.norm(ref), inner.kind
    for level in (-1, op.basis.degree + 1):
        with pytest.raises(ValueError):
            op.level_slices(level)
        with pytest.raises(ValueError):
            op.level_is_scalar_diagonal(level)
        with pytest.raises(ValueError):
            op.d_block_solve(level, R, EXACT)


def test_d_block_solve_rejects_wrong_rows():
    op = lognormal_operator(1, 2, 2)
    _, tail = op.level_slices(1)
    with pytest.raises(ValueError):
        op.d_block_solve(1, np.zeros((tail.stop - tail.start + 1, op.ndof)), EXACT)


# ---------------------------------------------------------------------------
# block symmetric Gauss-Seidel
# ---------------------------------------------------------------------------

def dense_bsgs(op, A, r):
    """(D + U)^{-1} D (D + L)^{-1} r with D, L, U the block diagonal, lower
    and upper parts of the dense matrix."""
    block = np.repeat(np.arange(op.n_blocks), op.ndof)
    D = np.where(block[:, None] == block[None, :], A, 0.0)
    L = np.where(block[:, None] > block[None, :], A, 0.0)
    U = np.where(block[:, None] < block[None, :], A, 0.0)
    return np.linalg.solve(D + U, D @ np.linalg.solve(D + L, r))


def check_bsgs_against_oracle(op):
    A = dense_kron_oracle(op)
    r = np.random.default_rng(1).standard_normal(op.shape[0])
    ref = dense_bsgs(op, A, r)
    n_b = np.count_nonzero(coupling_pattern(op))
    for inner in (EXACT, TIGHT_CG):
        prec = BlockSGS(op, inner)
        z = prec(r)
        assert np.linalg.norm(z - ref) <= 1e-9 * np.linalg.norm(ref), inner.kind
        assert prec.counters.block_solves == 2 * op.n_blocks
        assert prec.counters.block_matvecs == n_b - op.n_blocks


@given(configs)
def test_bsgs_matches_dense_oracle(config):
    check_bsgs_against_oracle(build(config))


@pytest.mark.parametrize("config, level_groups", [
    (("uniform", 2, 3, 3), True),      # every level one group
    (("uniform", 1, 2, 2), True),
    (("lognormal", 2, 2, 3), False),   # coupled levels: one group per block
    (("lognormal", 1, 3, 3), False),   # one block per level, not scalar
])
def test_bsgs_groups_match_dense_oracle(monkeypatch, config, level_groups):
    op = build(config)
    calls = []
    original = GalerkinOperator.d_block_solve

    def spy(self, level, *args, **kwargs):
        calls.append(level)
        return original(self, level, *args, **kwargs)

    monkeypatch.setattr(GalerkinOperator, "d_block_solve", spy)
    check_bsgs_against_oracle(op)
    # level 0, the mean block, is always one scalar group
    levels = list(range(op.basis.degree + 1)) if level_groups else [0]
    # two preconditioners, each one forward and one backward sweep; the
    # backward sweep skips a scalar top level, whose update is zero
    backward = [level for level in levels[::-1] if level != op.basis.degree]
    assert calls == 2 * (levels + backward)


@pytest.mark.parametrize("kind", ["uniform", "lognormal"])
def test_bsgs_skips_only_a_zero_update(kind):
    # with b = 0 passed as zeros, the backward sweep skips nothing: the
    # application that skips the top level's zero update agrees bit for bit
    op = build((kind, 2, 3, 3))
    prec = BlockSGS(op, EXACT)
    R = np.random.default_rng(5).standard_normal((op.n_blocks, op.ndof))
    Y = np.zeros_like(R)
    prec._sweep(R, Y, forward=True)
    prec._sweep(np.zeros_like(R), Y, forward=False)
    assert np.array_equal(prec(R), Y)


# ---------------------------------------------------------------------------
# shared spatial pattern, pre-summed block columns and the representation rule
# ---------------------------------------------------------------------------

def oracle_presummed(op) -> bool:
    """The representation rule read off the dense couplings: some block sums
    more than one term of a coefficient that is not structurally zero."""
    live = [Ci.toarray() for Ci, Ki in zip(op.tensor.coupling, op.matrices)
            if np.any(Ki.toarray())]
    terms = sum(np.count_nonzero(C) for C in live)
    return terms > np.count_nonzero(sum(abs(C) for C in live))


def check_products_against_oracle(op):
    A = dense_kron_oracle(op)
    n = op.ndof
    tol = 1e-12 * np.abs(A).max()
    rng = np.random.default_rng(2)
    u = rng.standard_normal(op.shape[0])
    assert np.linalg.norm(op.matvec(u) - A @ u) <= 1e-12 * np.linalg.norm(A @ u)
    for start, stop in ((0, op.n_blocks), (0, 1), (op.n_blocks - 1, op.n_blocks),
                        tuple(sorted(rng.choice(op.n_blocks + 1, 2, replace=False)))):
        X = rng.standard_normal((stop - start, n))
        got = op.product(slice(None), slice(start, stop), X)
        ref = A[:, start * n:stop * n] @ X.ravel()
        assert np.linalg.norm(got.ravel() - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)
    rows = rng.choice(op.n_blocks, rng.integers(1, op.n_blocks + 1), replace=False)
    cols = rng.choice(op.n_blocks, rng.integers(1, op.n_blocks + 1), replace=False)
    index = lambda blocks: (blocks[:, None] * n + np.arange(n)).ravel()
    sub = op.assemble_range(rows, cols).toarray()
    assert np.abs(sub - A[np.ix_(index(rows), index(cols))]).max() <= tol
    X = rng.standard_normal((len(cols), n))
    assert np.allclose(op.masked_apply(rows, cols, X).ravel(), sub @ X.ravel(),
                       rtol=0.0, atol=tol * X.size)


@given(configs)
def test_column_products_and_assembly_match_dense_oracle(config):
    op = build(config)
    # Legendre runs matrix-free, Hermite on pre-summed block columns
    assert op.presummed == (config[0] == "lognormal") == oracle_presummed(op)
    check_products_against_oracle(op)


def test_matrices_are_views_of_one_shared_array():
    op = lognormal_operator(2, 2, 3)
    assert op.data.shape == (op.tensor.n_coeff, len(op.indices))
    for i, K in enumerate(op.matrices):
        assert np.shares_memory(K.data, op.data[i])
        assert np.shares_memory(K.indices, op.indices)
        assert np.array_equal(K.indptr, op.indptr)


def test_zero_sigma_terms_are_dropped():
    mesh = build_mesh(0.25)
    kl = KLExpansion(np.zeros(2), np.zeros((2, mesh.n_nodes)), 1.0)
    op = build_uniform_operator(mesh, kl, build_multi_index_set(2, 2))
    i, t, j, _ = op.coupling_entries
    assert set(i) == {0} and np.array_equal(t, j)
    assert not op.presummed and not oracle_presummed(op)
    # the lognormal coefficient with vanished fluctuations is not pre-summed either
    logn = lognormal_operator(1, 2, 3)
    mats = [logn.matrices[0]] + [0.0 * K for K in logn.matrices[1:]]
    flat = operator_from_matrices(mats, logn.tensor)
    assert logn.presummed and not flat.presummed
    check_products_against_oracle(flat)


def test_nonsymmetric_matrices_are_refused_at_construction():
    op = lognormal_operator(2, 2, 3)
    mats = list(op.matrices)
    n = op.ndof
    pert = sp.random(n, n, density=0.1, random_state=3)
    # outside the Q1 pattern, every position with its mirror; coefficient
    # 4, of xi_1 xi_2, couples distinct blocks of one level
    for i in (2, 4):
        mats[i] = mats[i] + 0.01 * (pert - pert.T)
    assert abs(mats[2] - mats[2].T).max() > 1e-6
    # no product, plan or factor can run on either: the constructor refuses
    # the values and, with nonsymmetric, one position without its mirror
    with pytest.raises(ValueError, match=CONTRACT):
        operator_from_matrices(mats, op.tensor)
    with pytest.raises(ValueError, match=CONTRACT):
        nonsymmetric(op)


# ---------------------------------------------------------------------------
# dense stochastic blocks: exact-row products and row-wise sweeps
# ---------------------------------------------------------------------------

hermite_configs = st.tuples(st.just("lognormal"), st.integers(1, 3), st.integers(1, 3),
                            st.integers(2, 4))
legendre_configs = st.tuples(st.just("uniform"), st.integers(1, 3), st.integers(1, 3),
                             st.integers(2, 4))


class CountingMatrix:
    """A spatial matrix K_i that tallies the block vectors X_j it multiplies."""

    def __init__(self, K, tally: list):
        self.K, self.tally = K, tally

    def __matmul__(self, X):
        self.tally.append(X.shape[1])
        return self.K @ X

    def __getattr__(self, name):
        return getattr(self.K, name)


def count_spatial_products(op) -> list:
    """Swap the K_i of a matrix-free operator for counting ones; the list
    returned gets the number of products K_i X_j of every multiplication.
    The product plans take the K_i when built, so none may exist yet."""
    assert not op.presummed and op._plans == {}
    tally = []
    op.__dict__["_leading_matrices"] = tuple(CountingMatrix(K, tally)
                                             for K in op._leading_matrices)
    return tally


def check_row_products_against_oracle(op, rng, tally=None):
    """Every A/B/C/D product and products over random row and column ranges
    give exactly the rows asked for, equal to the dense oracle's.  A
    matrix-free product equals, bit for bit, the rows of the product of all
    rows with the same columns; with the ``tally`` of count_spatial_products
    it multiplies at least each distinct pair (i, j) with a term in the
    block and at most the whole column range of each coefficient i."""
    A = dense_kron_oracle(op)
    n = op.ndof
    i, t, j, _ = op.coupling_entries

    def check(rows, cols):
        X = rng.standard_normal((cols.stop - cols.start, n))
        ref = A[rows.start * n:rows.stop * n, cols.start * n:cols.stop * n] @ X.ravel()
        if tally is not None:
            tally.clear()
        got = op.product(rows, cols, X)
        assert got.shape == (rows.stop - rows.start, n)
        assert np.linalg.norm(got.ravel() - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)
        if tally is not None:
            block = (t >= rows.start) & (t < rows.stop) & (j >= cols.start) & (j < cols.stop)
            pairs = np.unique(i[block] * op.n_blocks + j[block])
            active = np.unique(i[block])
            assert len(pairs) <= sum(tally) <= len(active) * (cols.stop - cols.start)
        if not op.presummed:
            assert np.array_equal(got, op.product(slice(None), cols, X)[rows])

    for level in range(op.basis.degree + 1):
        for part in PARTS:
            check(*block_ranges(op, level, part))
    for _ in range(4):
        check(*(slice(*sorted(rng.choice(op.n_blocks + 1, 2, replace=False)))
                for _ in range(2)))


@given(hermite_configs, st.integers(0, 2**32 - 1))
def test_dense_block_products_and_row_sweeps_match_dense_oracle(config, seed):
    op = build(config)
    assert op.presummed
    check_row_products_against_oracle(op, np.random.default_rng(seed))
    check_products_against_oracle(op)
    check_bsgs_against_oracle(op)


@given(legendre_configs, st.integers(0, 2**32 - 1))
def test_matrix_free_products_give_exact_rows_from_the_needed_columns(config, seed):
    op = build(config)
    tally = count_spatial_products(op)
    check_row_products_against_oracle(op, np.random.default_rng(seed), tally)


def test_block_products_do_the_work_the_counters_count():
    # the uniform benchmark row, N=8 P=4 h=1/10, where every planned range
    # gathers; on coarser meshes a one-block gather costs more than the
    # columns it skips, and the rule leaves it out
    op = build_operator(ExperimentConfig(distribution="uniform", N=8, P=4, h=0.1))
    tally = count_spatial_products(op)
    r = np.random.default_rng(3).standard_normal(op.shape[0])
    op.matvec(r)
    # K_0 multiplies all 495 column blocks, each fluctuation K_i gathers the
    # 285 that reach a row: exactly the distinct pairs (i, j)
    i, _, j, _ = op.coupling_entries
    assert sum(tally) == len(np.unique(i * op.n_blocks + j)) == 495 + 8 * 285
    for kind in ("bsgs", "hs"):
        prec = make_preconditioner(op, kind, EXACT)
        tally.clear()
        prec(r)
        assert sum(tally) == prec.counters.block_matvecs == 2640, kind


def planned_ranges(op) -> list:
    """The (rows, cols) ranges the solvers multiply: the full one, B_l and
    C_l of every level l = 1..P, and the backward sweep range (tail_l,
    after_l) of every level l = 0..P-1."""
    ranges = [(slice(0, op.n_blocks), slice(0, op.n_blocks))]
    for level in range(op.basis.degree + 1):
        head, tail = op.level_slices(level)
        if level:
            ranges += [(head, tail), (tail, head)]
        if level < op.basis.degree:
            ranges.append((tail, slice(tail.stop, op.n_blocks)))
    return ranges


def check_gather_choice_changes_no_bit(op, rng):
    """Products over planned_ranges with every coefficient gathering its
    column blocks, and with none gathering, equal the default ones bit for
    bit; the first multiplies each distinct pair (i, j) once and forms no
    shared X^T, the second the whole column span of each coefficient."""
    i, t, j, _ = op.coupling_entries
    ranges = planned_ranges(op)
    inputs = [rng.standard_normal((cols.stop - cols.start, op.ndof)) for _, cols in ranges]
    default = [op.product(rows, cols, X) for (rows, cols), X in zip(ranges, inputs)]
    for fixed, every in ((-1.0, True), (np.inf, False)):
        other = matrix_free(op)
        tally = count_spatial_products(other)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operator, "GATHER_COPY", 0.0)
            mp.setattr(operator, "GATHER_FIXED", fixed)
            for (rows, cols), X, ref in zip(ranges, inputs, default):
                tally.clear()
                assert np.array_equal(other.product(rows, cols, X), ref), (rows, cols, every)
                block = (t >= rows.start) & (t < rows.stop) & (j >= cols.start) & (j < cols.stop)
                pairs = np.unique(i[block] * op.n_blocks + j[block])
                span = j[block].max() - j[block].min() + 1 if block.any() else 0
                expect = len(pairs) if every else len(np.unique(i[block])) * span
                assert sum(tally) == expect, (rows, cols, every)
                # no shared transposed copy of X unless a coefficient needs it
                shared = other._plan(rows, cols)[0]
                assert (shared is None) == (every or not block.any()), (rows, cols, every)


@given(legendre_configs, st.integers(0, 2**32 - 1))
@example(("uniform", 8, 4, 10), 4)
def test_gather_choice_changes_no_bit(config, seed):
    # the example is the benchmark row's basis and mesh, whose default full
    # plan mixes both choices (test_block_products_do_the_work_the_counters_count)
    check_gather_choice_changes_no_bit(build(config), np.random.default_rng(seed))


@given(configs, st.integers(0, 2**32 - 1))
def test_products_do_not_depend_on_the_layout_of_x(config, seed):
    # X as a row slice of a larger array, Fortran-ordered and as a
    # column-sliced view gives the product of a C-contiguous X, bit for bit
    op = build(config)
    rng = np.random.default_rng(seed)
    for rows, cols in planned_ranges(op):
        m = cols.stop - cols.start
        X = rng.standard_normal((m, op.ndof))
        ref = op.product(rows, cols, X)
        taller = np.zeros((m + 2, op.ndof))
        taller[1:-1] = X
        wider = np.zeros((m, op.ndof + 3))
        wider[:, 1:-2] = X
        for layout in (taller[1:-1], np.asfortranarray(X), wider[:, 1:-2]):
            assert np.array_equal(op.product(rows, cols, layout), ref), (rows, cols)


@given(configs, st.integers(0, 2**32 - 1))
@example(("uniform", 2, 3, 4), 0)
@example(("lognormal", 2, 2, 3), 0)
def test_the_product_without_the_mean_coefficient_is_the_full_one_less_k0(config, seed):
    # the mean-based preconditioner's A z = r + (A - I (x) K_0) z: the
    # matrix-free product over the coefficients i >= 1, zero on the
    # Dirichlet rows; the pre-summed form refuses it
    op = build(config)
    if op.presummed:
        with pytest.raises(ValueError, match="pre-summed"):
            op._product(slice(None), slice(None), np.zeros((op.n_blocks, op.ndof)), mean=False)
        op = matrix_free(op)
    X = np.random.default_rng(seed).standard_normal((op.n_blocks, op.ndof))
    got = op._product(slice(None), slice(None), X, mean=False)
    ref = op.apply(X) - (op.mean_matrix @ X.T).T
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert not got[:, op.n_c:].any()
    # a plan of its own: the full product's plan keeps its key
    n = op.n_blocks
    assert set(op._plans) == {(0, n, 0, n), (0, n, 0, n, "no mean")}


def test_a_gather_copies_only_the_rows_it_takes():
    # the backward sweep range (tail_0, [1, n_blocks)) of the uniform
    # benchmark row: each K_i with i >= 1 gathers one column block.  A
    # gather reads whole rows of X and then its leading n_c columns, so no
    # product copies X whole, here a row slice of a larger array
    op = build_operator(ExperimentConfig(distribution="uniform", N=8, P=4, h=0.1))
    _, tail = op.level_slices(0)
    rows, cols = tail, slice(tail.stop, op.n_blocks)
    X = np.random.default_rng(0).standard_normal((op.n_blocks, op.ndof))[1:]
    op.product(rows, cols, X)
    assert op._plans[(0, 1, 1, op.n_blocks)][0] is None    # every K_i gathers
    tracemalloc.start()
    try:
        op.product(rows, cols, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * X.nbytes


def test_product_plans_are_built_lazily_and_once():
    built = []

    class Plans(dict):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)

    op = build_operator(ExperimentConfig(distribution="uniform", N=3, P=3, h=1 / 4))
    assert not op.presummed
    precs = [make_preconditioner(op, kind, EXACT) for kind in ("mean", "bsgs", "hs")]
    # neither the build nor a preconditioner set-up plans a product
    assert op._plans == {}
    op._plans = Plans()
    r = np.ones(op.shape[0])
    precs[0](r)
    assert built == []
    op.matvec(r)
    for prec in precs[1:]:
        prec(r)
    # each planned at its first use: the full product; per level l = 1..P
    # B_l and C_l (a forward sweep range is that of C_l); and per level
    # l = 0..P-1 the backward sweep range (tail_l, after_l).  The empty
    # ranges, forward at level 0 and backward at level P, plan nothing
    n_plans = 3 * op.basis.degree + 1
    assert len(built) == len(set(built)) == n_plans
    for prec in precs:
        prec(r)
    op.matvec(r)
    assert len(built) == n_plans


@pytest.mark.parametrize("kind", ["uniform", "lognormal"])
def test_empty_range_products_are_zeros_without_a_product(kind):
    op = build((kind, 2, 2, 3))
    assert op.presummed == (kind == "lognormal")
    empty, last = slice(0, 0), slice(op.n_blocks, op.n_blocks)
    _, tail = op.level_slices(1)
    n_tail = tail.stop - tail.start
    X = np.ones((n_tail, op.ndof))
    # BSGS: forward at level 0 (no head), backward at level P (nothing after)
    for rows, cols, Y, n_rows in ((op.level_slices(0)[1], empty, X[:0], 1),
                                  (tail, last, X[:0], n_tail),
                                  (empty, tail, X, 0), (last, tail, X, 0)):
        out = op.product(rows, cols, Y)
        assert out.shape == (n_rows, op.ndof) and not out.any()
    # no plan, and on the pre-summed form no nodal blocks
    assert op._plans == {} and "node_blocks" not in op.__dict__


def with_empty_rows(op, empty) -> GalerkinOperator:
    """op with the spatial rows and columns ``empty`` of every K_i removed
    from the pattern; the K_i stay symmetric."""
    keep = sp.diags(np.where(np.isin(np.arange(op.ndof), empty), 0.0, 1.0))
    mats = [(keep @ K @ keep).tocsr() for K in op.matrices]
    for K in mats:
        K.eliminate_zeros()
    return operator_from_matrices(mats, op.tensor)


def test_rows_without_their_diagonal_are_refused():
    op = lognormal_operator(2, 2, 3)
    n = op.ndof
    # the first, an interior and the last row, and each alone: an empty
    # row stores no diagonal
    for empty in ([0, n // 2, n - 1], [0], [n // 2], [n - 1]):
        with pytest.raises(ValueError, match=CONTRACT):
            with_empty_rows(op, empty)


nodal_configs = st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3),
                          st.sampled_from([0.25, 1.0, 1.5]))


def matrix_free(op) -> GalerkinOperator:
    """op's spatial matrices and tensor without its nodal factors."""
    return GalerkinOperator((op.indices, op.indptr, op.data), op.tensor)


def every_range(op) -> list:
    """The full range, the empty ranges at either end, and the four
    (rows, cols) ranges of every level: head/tail, tail/head, tail/tail
    and head/head."""
    n_b = op.n_blocks
    everything, none, last = slice(0, n_b), slice(0, 0), slice(n_b, n_b)
    ranges = [(everything, everything), (none, everything), (everything, none),
              (last, everything), (everything, last)]
    for level in range(op.basis.degree + 1):
        head, tail = op.level_slices(level)
        ranges += [(head, tail), (tail, head), (tail, tail), (head, head)]
    return ranges


def check_ranges_against_oracle(op, A, rng, rtol, other=None):
    """op.product over every_range equals the dense A to rtol relative, and
    the product of ``other`` over the same range as well."""
    n = op.ndof
    for rows, cols in every_range(op):
        X = rng.standard_normal((cols.stop - cols.start, n))
        ref = A[rows.start * n:rows.stop * n, cols.start * n:cols.stop * n] @ X.ravel()
        got = op.product(rows, cols, X)
        assert got.shape == (rows.stop - rows.start, n)
        scale = max(np.linalg.norm(ref), 1.0)
        assert np.linalg.norm(got.ravel() - ref) <= rtol * scale, (rows, cols)
        if other is not None:
            assert np.linalg.norm(got - other.product(rows, cols, X)) <= rtol * scale


def with_dirichlet_rows(op, n_cells, where) -> GalerkinOperator:
    """op, built on build_mesh(1/n_cells), with its Dirichlet rows trailing
    as the mesh numbers them, interleaved (every K_i renumbered row-major on
    the grid, on the union pattern), absent (every K_i cut to the interior
    nodes), or trailing with the first one taking a diagonal value in every
    K_i, i > 0 (fluctuating), so that it is no Dirichlet row."""
    if where == "trailing":
        return op
    if where == "interleaved":
        grid = build_mesh(1.0 / n_cells).node_ids
        return operator_from_matrices([K[grid][:, grid] for K in op.matrices], op.tensor)
    n = (n_cells - 1) ** 2
    if where == "fluctuating":
        return with_spatial(op, lambda i, K: K + on_nodes(op, [n], 0.01 * i) if i else K)
    return operator_from_matrices([K[:n, :n] for K in op.matrices], op.tensor)


@given(configs, st.sampled_from(["trailing", "interleaved", "absent", "fluctuating"]),
       st.integers(0, 2**32 - 1))
@example(("uniform", 2, 2, 1), "trailing", 0)
@example(("lognormal", 2, 2, 2), "interleaved", 0)
@example(("uniform", 2, 2, 3), "fluctuating", 0)
def test_products_and_mean_solves_match_the_oracle_wherever_the_dirichlet_rows_lie(
        config, where, seed):
    n_cells = config[3]
    base = build(config)
    op = with_dirichlet_rows(base, n_cells, where)
    # the kernels' leading range ends where the trailing Dirichlet run
    # starts: after the interior nodes, before the grid's last row and the
    # node ending the row below it, nowhere, or after the first boundary node
    n_c = {"trailing": (n_cells - 1) ** 2, "absent": op.ndof,
           "interleaved": max(op.ndof - n_cells - 2, 0),
           "fluctuating": (n_cells - 1) ** 2 + 1}[where]
    assert op.n_c == n_c
    A = dense_kron_oracle(op)
    rng = np.random.default_rng(seed)
    check_ranges_against_oracle(op, A, rng, 1e-13)
    if where == "interleaved" and not base.presummed:
        # the numbering changes no bit of a matrix-free product
        grid = build_mesh(1.0 / n_cells).grid_index
        for rows, cols in every_range(op):
            X = rng.standard_normal((cols.stop - cols.start, op.ndof))
            expect = base.product(rows, cols, X[:, grid])
            assert np.array_equal(op.product(rows, cols, X)[:, grid], expect), (rows, cols)
    K0 = op.matrices[0].toarray()
    R = rng.standard_normal((op.n_blocks, op.ndof))
    solve = op.mean_solver(EXACT)
    ref = np.linalg.solve(K0, R.T).T
    assert np.abs(solve(R) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert solve(R[0]).shape == (op.ndof,) and np.array_equal(solve(R[0]), solve(R[:1])[0])


@pytest.mark.parametrize("kind", ["uniform", "lognormal"])
def test_a_mean_coupling_other_than_the_identity_is_refused(kind):
    # C_0 = I is part of the contract: the Dirichlet rows of A X are X_t
    # and a diagonal level is I (x) K_0; an off-diagonal c_001, or a
    # diagonal value of 1 + 1e-15, is refused at construction
    op = build((kind, 2, 2, 3))
    assert np.all(op.tensor.coupling[0].toarray() == np.eye(op.n_blocks))
    GalerkinOperator((op.indices, op.indptr, op.data), op.tensor)
    off = op.tensor.stacked.tolil()
    off[0, 1] = off[1, 0] = 0.1
    near = op.tensor.stacked.copy()
    near[1, 1] = 1.0 + 1e-15
    for C in (off.tocsr(), near):
        with pytest.raises(ValueError, match=MEAN_COUPLING):
            GalerkinOperator((op.indices, op.indptr, op.data), replace(op.tensor, stacked=C))


@given(nodal_configs, st.integers(0, 2**32 - 1))
@example((2, 3, 3, 1.5), 0)
@example((6, 3, 3, 1.0), 1)
def test_nodal_products_match_the_dense_oracle_and_the_matrix_free_product(config, seed):
    n_cells, dims, degree, cov = config
    op = lognormal_operator(dims, degree, n_cells, cov)
    assert op.presummed
    free = matrix_free(op)
    assert not free.presummed
    check_ranges_against_oracle(op, dense_kron_oracle(op), np.random.default_rng(seed),
                                1e-13, other=free)
    assert "node_blocks" in op.__dict__ and "node_blocks" not in free.__dict__


def nodal_values(op) -> np.ndarray:
    """F H on the stored positions, one row per coefficient: the stiffness
    values that the nodal factors give, S diag(F[i] (x) 1_9) H for each i."""
    fields, H, S = op.nodal
    rows = np.repeat(np.arange(op.ndof), np.diff(op.indptr))
    return np.vstack([np.asarray((S @ sp.diags(np.repeat(f, 9)) @ H)[rows, op.indices])
                      for f in fields])


@given(nodal_configs)
@example((2, 3, 1, 1.0))
def test_nodal_factors_reproduce_the_stiffness_values(config):
    n_cells, dims, degree, cov = config
    op = lognormal_operator(dims, degree, n_cells, cov)
    values = nodal_values(op)
    # plus the unit boundary diagonal of K_0, which no hat field reaches
    boundary = build_mesh(1.0 / n_cells).boundary_mask
    rows = np.repeat(np.arange(op.ndof), np.diff(op.indptr))
    unit = (rows == op.indices) & boundary[rows]
    assert not values[:, unit].any() and np.all(op.data[0, unit] == 1.0)
    values[0, unit] = 1.0
    scale = np.abs(op.data[0]).max()
    live = op.data.any(axis=1)
    assert np.abs(values[live] - op.data[live]).max() <= 1e-14 * scale
    # a structurally zero row: F H vanishes up to rounding, and the
    # assembly stores exact zeros
    assert np.abs(values[~live]).max(initial=0.0) <= STRUCTURAL_ZERO_RTOL * scale


@given(nodal_configs)
@example((2, 3, 2, 1.0))     # the odd Karhunen-Loeve modes are stored as zeros
@example((10, 4, 3, 1.0))    # the benchmark's lognormal row
def test_lognormal_stiffness_values_match_the_element_assembly(config):
    n_cells, dims, degree, cov = config
    mesh = build_mesh(1.0 / n_cells)
    op = build_lognormal_operator(LognormalFieldSpec(cov=cov), mesh, dims, degree)
    pattern = element_by_element_stiffness(mesh, np.ones(mesh.n_nodes), True)
    assert np.array_equal(op.indices, pattern.indices)
    assert np.array_equal(op.indptr, pattern.indptr)
    # every K_i, K_0 included, is the element sum up to rounding
    rows = np.repeat(np.arange(op.ndof), np.diff(op.indptr))
    ref = np.vstack([np.asarray(element_by_element_stiffness(mesh, field, i == 0)[rows, op.indices])
                     for i, field in enumerate(op.nodal[0])])
    scale = np.abs(ref[0]).max()
    live = op.data.any(axis=1)
    assert np.abs(op.data[live] - ref[live]).max() <= 1e-14 * scale
    # a row stored as exact zeros is zero up to rounding, and no other is
    small = np.abs(ref).max(axis=1) <= STRUCTURAL_ZERO_RTOL * scale
    assert np.array_equal(~live, small)


def test_lognormal_build_holds_no_second_copy_of_the_stiffness_values():
    # N=4 P=4 1/h=20: 495 stiffness rows, 12.3 MB.  Assembled element by
    # element, the build peaked at 71.5 MB against 14.8 MB that it keeps
    lognormal_operator(4, 1, 2)     # the process's Karhunen-Loeve eigensolve
    tracemalloc.start()
    try:
        op = lognormal_operator(4, 4, 20)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < kept + 1.5 * op.data.nbytes


def test_node_blocks_hold_the_nodal_block_sums():
    op = lognormal_operator(2, 2, 3)
    fields = op.nodal[0]
    n_nodes, n_b = op.ndof, op.n_blocks
    T = op.node_blocks
    assert T.shape == (n_nodes, n_b, n_b) and T.flags.c_contiguous
    assert T.nbytes == n_nodes * n_b ** 2 * 8
    # T_n = sum_i F[i, n] C_i over the coefficients that are not
    # structurally zero
    live = op.data.any(axis=1)
    C = np.array([Ci.toarray() for Ci in op.tensor.coupling])[live]
    expect = np.einsum("in,itj->ntj", fields[live], C)
    assert np.abs(T - expect).max() <= 1e-14 * np.abs(expect).max()
    assert np.array_equal(T, T.transpose(0, 2, 1))


def test_nodal_products_form_no_array_of_the_size_of_the_per_position_blocks():
    # the benchmark's lognormal row: 393 stored positions with row <= col
    # would hold 3.9 MB of (n_b, n_b) blocks, against 1.2 MB of T_n
    op = lognormal_operator(4, 3, 10)
    rows = np.repeat(np.arange(op.ndof), np.diff(op.indptr))
    per_position = np.count_nonzero(rows <= op.indices) * op.n_blocks ** 2 * 8
    X = np.random.default_rng(0).standard_normal((op.n_blocks, op.ndof))
    tracemalloc.start()
    try:
        op.product(slice(None), slice(None), X)
        for level in range(1, op.basis.degree + 1):
            head, tail = op.level_slices(level)
            op.product(head, tail, X[tail])
            op.product(tail, head, X[head])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.node_blocks.nbytes == op.ndof * op.n_blocks ** 2 * 8 < per_position / 3
    assert peak < per_position


def test_structurally_zero_coefficients_take_part_in_no_nodal_product():
    # at 1/h = 2 the odd Karhunen-Loeve modes cancel at the one interior
    # node: their stiffness rows are stored as zeros, their fields are not
    op = lognormal_operator(3, 2, 2)
    zero = ~op.data.any(axis=1)
    fields, H, S = op.nodal
    assert zero.any() and np.abs(fields[zero]).max() > 0.1
    garbage = fields.copy()
    garbage[zero] = 1e6
    other = GalerkinOperator((op.indices, op.indptr, op.data), op.tensor,
                             nodal=(garbage, H, S))
    rng = np.random.default_rng(3)
    for rows, cols in every_range(op):
        X = rng.standard_normal((cols.stop - cols.start, op.ndof))
        assert np.array_equal(op.product(rows, cols, X), other.product(rows, cols, X))
    assert np.array_equal(op.node_blocks, other.node_blocks)


def test_operator_from_plain_matrices_multiplies_matrix_free():
    # the lognormal blocks sum several terms, but matrices on a shared
    # pattern carry no nodal factors
    logn = lognormal_operator(2, 2, 3)
    op = operator_from_matrices(logn.matrices, logn.tensor)
    assert op.nodal is None and oracle_presummed(op) and not op.presummed
    check_ranges_against_oracle(op, dense_kron_oracle(op), np.random.default_rng(4), 1e-12)
    assert "node_blocks" not in op.__dict__ and op._plans


def spy_bsgs_set_up(monkeypatch) -> tuple:
    """(assembled, made, filled): the ranges of every assemble_range call,
    the matrix of every InnerSolver.make call and a copy of every band
    dpbtrf receives, as filled, from now on."""
    assembled, made, filled = [], [], []
    assemble, make = GalerkinOperator.assemble_range, InnerSolver.make
    dpbtrf = operator.lapack.dpbtrf

    def assemble_spy(self, rows, cols):
        assembled.append((rows, cols))
        return assemble(self, rows, cols)

    def make_spy(self, matrix, *args, **kwargs):
        made.append(matrix)
        return make(self, matrix, *args, **kwargs)

    def dpbtrf_spy(band, *args, **kwargs):
        filled.append(band.copy())
        return dpbtrf(band, *args, **kwargs)

    monkeypatch.setattr(GalerkinOperator, "assemble_range", assemble_spy)
    monkeypatch.setattr(InnerSolver, "make", make_spy)
    monkeypatch.setattr(operator.lapack, "dpbtrf", dpbtrf_spy)
    return assembled, made, filled


def is_mean_matrix(op, matrix) -> bool:
    """Whether the sparse ``matrix`` equals K_0 entry for entry."""
    return (matrix != op.mean_matrix).nnz == 0


def upper_band(A: np.ndarray, kd: int) -> np.ndarray:
    """LAPACK's upper band layout of the dense A: A[i, j] at
    band[kd + i - j, j] for 0 <= j - i <= kd, zeros elsewhere."""
    band = np.zeros((kd + 1, len(A)))
    for d in range(kd + 1):
        band[kd - d, d:] = np.diagonal(A, d)
    return band


@pytest.mark.parametrize("kind", ["uniform", "lognormal"])
def test_bsgs_builds_its_level_rows_at_the_first_application(monkeypatch, kind):
    op = build((kind, 2, 2, 3))
    assembled, made, filled = spy_bsgs_set_up(monkeypatch)
    lus, _ = spy_factorizations(monkeypatch)
    prec = BlockSGS(op, EXACT)
    # the constructor reads and factorizes nothing
    assert assembled == [] and lus == [] and filled == []
    assert "_level_blocks" not in prec.__dict__
    r = np.ones(op.shape[0])
    prec(r)
    coupled = [l for l in range(op.basis.degree + 1) if not op.level_is_scalar_diagonal(l)]
    # each coupled level keeps its couplings summed from the coupling
    # values, values[j, s, e] = block (j, s) of D_l at position e, and each
    # of its blocks gets a band Cholesky; nothing is assembled, the
    # one SuperLU is the K_0 of the scalar level 0, and the exact policy
    # makes no inner solver
    assert assembled == []
    n_coupled = 0
    for l, level in enumerate(prec._level_blocks):
        assert (level is None) == (l not in coupled)
        if level is None:
            continue
        _, tail = op.level_slices(l)
        values, solvers = level
        m = tail.stop - tail.start
        assert values.flags.c_contiguous and values.shape == (m, m, len(op.indices))
        # every stored position (r, c): block (j, s) of D_l at (r, c), and
        # the same values at its mirror (c, r)
        rows = np.repeat(np.arange(op.ndof), np.diff(op.indptr))
        blocks = dense_kron_oracle(op).reshape(op.n_blocks, op.ndof, op.n_blocks, op.ndof)
        expect = blocks[tail, :, tail][:, rows, :, op.indices].transpose(1, 2, 0)
        assert np.abs(values - expect).max() <= 1e-14 * np.abs(blocks).max()
        assert np.array_equal(values, values[..., op._mirror])
        assert len(solvers) == tail.stop - tail.start
        n_coupled += len(solvers)
    assert n_coupled == (op.n_blocks - 1 if kind == "lognormal" else 0)
    assert len(filled) == n_coupled
    assert len(lus) == 1 and is_mean_matrix(op, lus[0][0]) and made == []
    # a second application reads, fills and factors nothing new
    prec(r)
    assert (len(assembled), len(filled), len(lus)) == (0, n_coupled, 1)


@pytest.mark.parametrize("inner", [EXACT, TIGHT_CG], ids=["exact", "cg"])
@pytest.mark.parametrize("kind", ["uniform", "lognormal"])
def test_no_preconditioner_assembles_a_sub_matrix(monkeypatch, kind, inner):
    op = build((kind, 2, 2, 3))
    assembled, _, _ = spy_bsgs_set_up(monkeypatch)
    r = np.random.default_rng(3).standard_normal(op.shape[0])
    for name in ("mean", "bsgs", "hs"):
        prec = make_preconditioner(op, name, inner)
        prec(r)
        prec(r)
    assert assembled == []


def test_bsgs_diagonal_blocks_equal_the_assembled_blocks(monkeypatch):
    op = lognormal_operator(2, 2, 3)
    _, made, filled = spy_bsgs_set_up(monkeypatch)
    lus, _ = spy_factorizations(monkeypatch)
    prec = BlockSGS(op, EXACT)
    prec(np.ones(op.shape[0]))
    # every block of the coupled levels gets its own band at the first
    # application, filled from the coupling values bit for bit as the band
    # of the assembled block; level 0 is K_0 and takes the K_0 LU
    assert len(lus) == 1 and is_mean_matrix(op, lus[0][0]) and made == []
    assert len(filled) == op.n_blocks - 1
    # 4 x 4 nodes, the 2 x 2 interior ones first: the Q1 stencil reaches 3
    # nodes away
    assert [band.shape for band in filled] == [(4, op.ndof)] * (op.n_blocks - 1)
    for j, band in enumerate(filled, start=1):
        assert np.array_equal(band, upper_band(op.assemble_range([j], [j]).toarray(), 3))


def test_bsgs_block_solves_leave_their_rhs_unchanged():
    op = lognormal_operator(2, 2, 3)
    prec = BlockSGS(op, EXACT)
    prec(np.ones(op.shape[0]))
    A, n = dense_kron_oracle(op), op.ndof
    rng = np.random.default_rng(9)
    solved = 0
    for l, level in enumerate(prec._level_blocks):
        if level is None:
            continue
        _, tail = op.level_slices(l)
        for j, solve in enumerate(level[1], start=tail.start):
            b = rng.standard_normal(n)
            kept = b.copy()
            x = solve(b)
            assert np.array_equal(b, kept) and x.shape == b.shape
            A_jj = A[j * n:(j + 1) * n, j * n:(j + 1) * n]
            assert np.linalg.norm(A_jj @ x - b) <= 1e-12 * np.linalg.norm(b)
            solved += 1
    assert solved == op.n_blocks - 1


def test_bsgs_under_the_cg_policy_factors_nothing(monkeypatch):
    op = lognormal_operator(2, 2, 3)
    _, made, filled = spy_bsgs_set_up(monkeypatch)
    lus, bands = spy_factorizations(monkeypatch)
    BlockSGS(op, TIGHT_CG)(np.ones(op.shape[0]))
    # every diagonal block, K_0 included, gets an inner CG solver
    assert lus == [] and bands == [] and filled == []
    assert len(made) == op.n_blocks and made[-1] is op.matrices[0]


def test_block_tallies_count_the_dense_oracle_blocks_on_the_coarsest_mesh():
    # at h = 1/2 the odd Karhunen-Loeve modes cancel at the one interior node
    # up to rounding; those fluctuation matrices are stored as exact zeros, so
    # no product multiplies a block that is zero in the dense oracle
    op = lognormal_operator(3, 2, 2)
    assert np.count_nonzero(~op.data.any(axis=1)) == 21     # 2 of them exact zeros
    A = dense_kron_oracle(op)
    n = op.ndof
    # blocks that vanish analytically hold at most rounding in the oracle
    size = np.abs(A.reshape(op.n_blocks, n, op.n_blocks, n)).max(axis=(1, 3))
    nonzero = size > 1e-12 * size.max()
    degree = np.array(op.basis.degrees())
    r = np.random.default_rng(8).standard_normal(op.shape[0])
    hs, bsgs = HierarchicalSchur(op, EXACT), BlockSGS(op, EXACT)
    hs(r)
    bsgs(r)
    assert hs.counters.block_matvecs == np.count_nonzero(
        nonzero & (degree[:, None] != degree[None, :]))
    assert bsgs.counters.block_matvecs == np.count_nonzero(nonzero) - op.n_blocks


# ---------------------------------------------------------------------------
# coupled level solves: band Cholesky in node-major order, nothing else
# ---------------------------------------------------------------------------

@given(hermite_configs, st.sampled_from([0.25, 1.0, 1.5, 3.0]), st.integers(0, 2**32 - 1))
@example(("lognormal", 1, 2, 2), 1.0, 0)     # one block per level: m = 1
def test_band_cholesky_level_solves_match_dense_solves(config, cov, seed):
    # the builder's lognormal operator is symmetric positive definite across
    # and beyond T7's CoV range: every coupled level and every block
    # Gauss-Seidel diagonal block takes the band Cholesky, which no other
    # factor backs
    _, dims, degree, n_cells = config
    op = lognormal_operator(dims, degree, n_cells, cov=cov)
    A = dense_kron_oracle(op)
    rng = np.random.default_rng(seed)
    coupled = [l for l in range(op.basis.degree + 1) if not op.level_is_scalar_diagonal(l)]
    assert coupled
    with pytest.MonkeyPatch.context() as mp:
        lus, bands = spy_factorizations(mp)
        for level in coupled:
            _, tail = op.level_slices(level)
            R = rng.standard_normal((tail.stop - tail.start, op.ndof))
            kept = R.copy()
            X = op.d_block_solve(level, R, EXACT)
            # the solve reads R node-major, a view of R when m = 1, never
            # writes to it and returns its rows block-major, C-contiguous
            assert np.array_equal(R, kept) and X.flags.c_contiguous
            ref = np.linalg.solve(dense_part(op, A, level, "D"), R.ravel())
            assert np.linalg.norm(X.ravel() - ref) <= 1e-12 * np.linalg.norm(ref), level
        BlockSGS(op, EXACT)(np.ones(op.shape[0]))
    # SuperLU factors K_0 alone, for the mean block of BSGS
    assert [m.shape for m, _ in lus] == [(op.ndof, op.ndof)]
    # one band per coupled level and per BSGS diagonal block but the mean one
    assert len(bands) == len(coupled) + op.n_blocks - 1
    assert all(info == 0 for *_, info in bands)


def test_level_band_is_factorized_in_place(monkeypatch):
    # a C-ordered band would be copied by dpbtrf's wrapper, one more band's
    # worth of peak memory per level or block
    lus, bands = spy_factorizations(monkeypatch)
    op = lognormal_operator(2, 2, 3)
    HierarchicalSchur(op, EXACT)(np.ones(op.shape[0]))
    BlockSGS(op, EXACT)(np.ones(op.shape[0]))
    # SuperLU factors K_0 alone; HS factors the P levels over their
    # leading nodes, BSGS the n_b - 1 blocks of the coupled levels
    assert [m.shape for m, _ in lus] == [(op.ndof, op.ndof)]
    assert len(bands) == op.basis.degree + op.n_blocks - 1
    for band, kwargs, factor, info in bands:
        assert kwargs == {"lower": 0, "overwrite_ab": 1} and info == 0
        assert band.flags.f_contiguous and np.shares_memory(factor, band)


def test_level_bands_equal_the_bands_of_the_assembled_levels(monkeypatch):
    op = lognormal_operator(2, 2, 3)
    assembled, _, filled = spy_bsgs_set_up(monkeypatch)
    HierarchicalSchur(op, EXACT)(np.ones(op.shape[0]))
    # HS fills the bands of D_2, then D_1, with no assembly, each over the
    # leading n_c nodes, node-major, unknown (block s, node p) of D_l at
    # p * m + s.  Among the 2 x 2 interior nodes of the 4 x 4 grid the Q1
    # stencil reaches b' = 3 nodes away
    assert assembled == [] and len(filled) == 2
    n = op.ndof
    stored = np.diff(op.indptr)
    coupled = np.flatnonzero(stored > 1)
    assert np.array_equal(coupled, np.arange(op.n_c)) and op.n_c == 4
    for (level, nodes, b), band in zip([(2, coupled, 3), (1, coupled, 3)], filled):
        _, tail = op.level_slices(level)
        m = tail.stop - tail.start
        node_major = (nodes[:, None] + n * np.arange(m)).ravel()
        D = op.assemble_range(tail, tail).toarray()[np.ix_(node_major, node_major)]
        assert np.array_equal(band, upper_band(D, b * m + m - 1)), (level, b)


def test_symmetry_selects_the_band_path_and_indefinite_levels_are_refused(monkeypatch):
    logn = lognormal_operator(2, 2, 3)
    # symmetric, but the unit Dirichlet rows of K_0 shifted to -1 make every
    # coupled level indefinite
    shifted = indefinite(logn)
    A, n = dense_kron_oracle(shifted), shifted.ndof
    lus, bands = spy_factorizations(monkeypatch)
    for level in (1, 2):
        eigenvalues = np.linalg.eigvalsh(dense_part(shifted, A, level, "D"))
        assert eigenvalues.min() < 0.0 < eigenvalues.max()
        _, tail = shifted.level_slices(level)
        R = np.ones((tail.stop - tail.start, n))
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"^level {level} is not positive definite"):
            shifted.d_block_solve(level, R, EXACT)
    # HS meets D_2 first
    with pytest.raises(np.linalg.LinAlgError, match="^level 2 is not positive definite"):
        HierarchicalSchur(shifted, EXACT)(np.ones(shifted.shape[0]))
    # the shifted Dirichlet rows are no unit rows, so n_c = ndof: dpbtrf
    # finds each level not positive definite over all nodes, and nothing
    # else is factored or kept
    assert shifted.n_c == n
    assert [info > 0 for *_, info in bands] == [True, True, True]
    assert lus == [] and shifted._level_solvers == {}


# ---------------------------------------------------------------------------
# coupled levels over the leading n_c nodes: the rows before the trailing
# unit Dirichlet rows, where each level is the identity
# ---------------------------------------------------------------------------

def coupled_and_diagonal_rows(op) -> tuple:
    """(coupled, diagonal): the spatial rows of the dense K_i that couple
    to another row, and those that hold their diagonal alone; on a built
    operator the diagonal rows are the trailing Dirichlet rows, and the
    coupled ones the leading n_c rows of a level's one band."""
    off = sum(abs(K.toarray()) for K in op.matrices)
    np.fill_diagonal(off, 0.0)
    alone = ~off.any(axis=1)
    return np.flatnonzero(~alone), np.flatnonzero(alone)


def with_spatial(op, change) -> GalerkinOperator:
    """op with every K_i replaced by change(i, K_i), on the union pattern."""
    return operator_from_matrices([change(i, K) for i, K in enumerate(op.matrices)],
                                  op.tensor)


def on_nodes(op, nodes, values) -> sp.csr_matrix:
    """The diagonal matrix holding ``values`` at ``nodes``."""
    d = np.zeros(op.ndof)
    d[nodes] = values
    return sp.diags(d, format="csr")


def check_level_solves(op, seed=0) -> list:
    """Solve every coupled level of op against the dense oracle; the dpbtrf
    bands per level."""
    A = dense_kron_oracle(op)
    rng = np.random.default_rng(seed)
    per_level = []
    with pytest.MonkeyPatch.context() as mp:
        lus, bands = spy_factorizations(mp)
        for level in range(1, op.basis.degree + 1):
            assert not op.level_is_scalar_diagonal(level)
            _, tail = op.level_slices(level)
            R = rng.standard_normal((tail.stop - tail.start, op.ndof))
            before = len(bands)
            X = op.d_block_solve(level, R, EXACT)
            ref = np.linalg.solve(dense_part(op, A, level, "D"), R.ravel())
            assert np.linalg.norm(X.ravel() - ref) <= 1e-12 * np.linalg.norm(ref), level
            per_level.append(bands[before:])
    assert lus == [] and all(info == 0 for level in per_level for *_, info in level)
    return per_level


def test_isolated_rows_with_fluctuation_values_have_full_blocks():
    # every K_i, i > 0, gets values on the isolated rows, still diagonal
    # there and so still symmetric: the m x m block of D_l at an isolated
    # node is sum_i K_i[r, r] C_i[tail, tail], not diagonal
    base = lognormal_operator(2, 2, 3)
    _, isolated = coupled_and_diagonal_rows(base)
    rng = np.random.default_rng(4)
    op = with_spatial(base, lambda i, K: K if i == 0 else
                      K + on_nodes(base, isolated, 0.01 * rng.standard_normal(len(isolated))))
    assert np.array_equal(coupled_and_diagonal_rows(op)[1], isolated)
    A, n = dense_kron_oracle(op), op.ndof
    _, tail = op.level_slices(2)
    m = tail.stop - tail.start
    D = dense_part(op, A, 2, "D")
    block = D[np.ix_(isolated[0] + n * np.arange(m), isolated[0] + n * np.arange(m))]
    assert np.any(block - np.diag(np.diag(block)) != 0.0)
    assert np.linalg.eigvalsh(D).min() > 0.0
    per_level = check_level_solves(op)
    # no row is a unit Dirichlet row any more, n_c = ndof: each level is one
    # band over all nodes, of half-width m b' + m - 1, b' = 3 among the 2 x 2
    # interior nodes
    assert op.n_c == n
    for level, bands in zip((1, 2), per_level):
        _, tail = op.level_slices(level)
        m = tail.stop - tail.start
        assert [band.shape for band, *_ in bands] == [(3 * m + m, n * m)]


def test_operator_without_isolated_rows_takes_one_band_per_level():
    # a small path Laplacian over consecutive nodes couples every row to
    # its neighbours: no isolated node, one band per level over all nodes
    base = lognormal_operator(2, 2, 3)
    n = base.ndof
    path = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                    format="csr")
    op = with_spatial(base, lambda i, K: K + 0.1 * path if i == 0 else K)
    coupled, isolated = coupled_and_diagonal_rows(op)
    assert len(coupled) == n and len(isolated) == 0
    per_level = check_level_solves(op)
    b = int(np.abs(op._pattern_rows - op.indices).max())
    for level, bands in zip((1, 2), per_level):
        _, tail = op.level_slices(level)
        m = tail.stop - tail.start
        assert [band.shape for band, *_ in bands] == [(m * b + m, m * n)]


def test_coarsest_mesh_has_no_coupled_node():
    # at 1/h = 2 the one interior node neighbours Dirichlet nodes alone, so
    # its row stores only its diagonal; it is still the one leading node,
    # and each level is one band of half-width m - 1 over it
    op = lognormal_operator(2, 2, 2)
    assert np.array_equal(np.diff(op.indptr), np.ones(9))
    coupled, isolated = coupled_and_diagonal_rows(op)
    assert (len(coupled), len(isolated)) == (0, 9) and op.n_c == 1
    for level, bands in zip((1, 2), check_level_solves(op)):
        _, tail = op.level_slices(level)
        m = tail.stop - tail.start
        assert [band.shape for band, *_ in bands] == [(m, m)]


@pytest.mark.parametrize("n_cells", [3, 4, 10])
def test_level_band_bytes_cover_the_leading_nodes(monkeypatch, n_cells):
    # one band of (kd' + 1) m n_c 8 bytes over the leading nodes, kd' =
    # m b' + m - 1 with b' = n_cells for the (n_cells - 1)^2 interior nodes
    # of the grid, and none for the 4 n_cells boundary nodes, where each
    # level is I
    op = lognormal_operator(2, 2, n_cells)
    n_c, n_iso, b = (n_cells - 1) ** 2, 4 * n_cells, n_cells
    assert [len(rows) for rows in coupled_and_diagonal_rows(op)] == [n_c, n_iso]
    assert op.n_c == n_c
    _, bands = spy_factorizations(monkeypatch)
    for level in (1, 2):
        _, tail = op.level_slices(level)
        m = tail.stop - tail.start
        del bands[:]
        op.d_block_solve(level, np.ones((m, op.ndof)), EXACT)
        expect = [((m * b + m - 1) + 1) * m * n_c * 8]
        assert [band.nbytes for band, *_ in bands] == expect
        assert [factor.nbytes for _, _, factor, _ in bands] == expect


@pytest.mark.parametrize("where", ["dirichlet", "leading"])
def test_level_indefinite_on_leading_or_dirichlet_rows_is_refused(monkeypatch, where):
    # K_0 shifted by -2 on the chosen rows alone: the unit Dirichlet rows
    # become -1 (dirichlet), or the leading interior rows lose their
    # definiteness (leading); the other rows keep their positive definite part
    base = lognormal_operator(2, 2, 3)
    nodes = dict(zip(("leading", "dirichlet"), coupled_and_diagonal_rows(base)))
    op = with_spatial(base, lambda i, K: K - on_nodes(base, nodes[where], 2.0) if i == 0 else K)
    A, n = dense_kron_oracle(op), op.ndof
    for level in (1, 2):
        _, tail = op.level_slices(level)
        m = tail.stop - tail.start
        D = dense_part(op, A, level, "D")
        for name, set_nodes in nodes.items():
            part = (set_nodes[:, None] + n * np.arange(m)).ravel()
            smallest = np.linalg.eigvalsh(D[np.ix_(part, part)]).min()
            assert (smallest < 0.0) == (name == where), (level, name)
    lus, bands = spy_factorizations(monkeypatch)
    for level in (1, 2):
        _, tail = op.level_slices(level)
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"^level {level} is not positive definite"):
            op.d_block_solve(level, np.ones((tail.stop - tail.start, n)), EXACT)
    # one band per level, refused: over the leading n_c interior nodes, or,
    # the shifted Dirichlet rows being no unit rows, over all nodes
    assert op.n_c == (n if where == "dirichlet" else len(nodes["leading"]))
    assert [info > 0 for *_, info in bands] == [True, True]
    assert lus == [] and op._level_solvers == {}
    with pytest.raises(np.linalg.LinAlgError, match="^level 2 is not positive definite"):
        HierarchicalSchur(op, EXACT)(np.ones(op.shape[0]))
    assert op._level_solvers == {}
