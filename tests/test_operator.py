import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, strategies as st

from sgfem import operator
from sgfem.experiments import ExperimentConfig, build_operator
from sgfem.fem import assemble_load, build_mesh
from sgfem.kle import CovarianceSpec, KLExpansion, build_kl_expansion
from sgfem.multi_index import build_multi_index_set
from sgfem.operator import InnerSolver, build_uniform_operator
from sgfem.precond import make_preconditioner
from shared_pattern import (CONTRACT, dense_kron_oracle, operator_from_matrices,
                            sub_block_oracle)


def make_operator(dims=2, degree=2, n_cells=4, sigma=0.5, k0=1.0):
    mesh = build_mesh(1.0 / n_cells)
    spec = CovarianceSpec(sigma=sigma, corr_length=0.5)
    kl = build_kl_expansion(spec, dims, k0, mesh.node_coords)
    basis = build_multi_index_set(dims, degree)
    return build_uniform_operator(mesh, kl, basis), mesh


def test_constant_chaos_reduces_to_mean_block():
    op, mesh = make_operator(degree=0)
    u = np.random.default_rng(0).standard_normal(mesh.n_nodes)
    out = op.apply(u[None, :])
    assert np.allclose(out[0], op.matrices[0] @ u, atol=1e-14)


def test_matrix_free_matches_dense_oracle():
    op, _ = make_operator(2, 2, 4)
    A = dense_kron_oracle(op)
    rng = np.random.default_rng(42)
    for _ in range(10):
        u = rng.standard_normal(op.shape[0])
        ref = A @ u
        got = op.matvec(u)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_dense_method_matches_oracle(monkeypatch):
    op, _ = make_operator(2, 2, 4)
    assert np.allclose(op.dense(), dense_kron_oracle(op), atol=1e-12)
    big, _ = make_operator(2, 3, 10)
    monkeypatch.setattr(operator, "DENSE_ASSEMBLY_LIMIT", 100)
    with pytest.raises(ValueError, match="exceeds the limit 100"):
        big.dense()


def test_apply_symmetry():
    op, _ = make_operator(2, 3, 4)
    rng = np.random.default_rng(5)
    normA = np.linalg.norm(op.dense())
    for _ in range(5):
        u = rng.standard_normal(op.shape[0])
        v = rng.standard_normal(op.shape[0])
        lhs = v @ op.matvec(u)
        rhs = u @ op.matvec(v)
        assert abs(lhs - rhs) <= 1e-10 * normA * np.linalg.norm(u) * np.linalg.norm(v)


def test_dimension_check():
    op, _ = make_operator(2, 2, 4)
    with pytest.raises(ValueError):
        op.apply(np.zeros((3, op.ndof)))


def test_d_part_is_scalar_multiple_of_mean_block():
    op, _ = make_operator(2, 2, 4)
    _, tail = op.level_slices(2)
    X = np.random.default_rng(1).standard_normal((tail.stop - tail.start, op.ndof))
    got = op.product(tail, tail, X)
    expect = X @ op.matrices[0].T.toarray()
    assert np.allclose(got, expect, atol=1e-12)


def test_a_part_matches_rebuilt_lower_order_operator():
    mesh = build_mesh(0.25)
    spec = CovarianceSpec(sigma=0.5, corr_length=0.5)
    kl = build_kl_expansion(spec, 2, 1.0, mesh.node_coords)
    op3 = build_uniform_operator(mesh, kl, build_multi_index_set(2, 3))
    op2 = build_uniform_operator(mesh, kl, build_multi_index_set(2, 2))
    X = np.random.default_rng(2).standard_normal((op2.n_blocks, op2.ndof))
    head, _ = op3.level_slices(3)
    got = op3.product(head, head, X)
    assert np.allclose(got, op2.apply(X), atol=1e-12)


def test_b_c_adjointness():
    op, _ = make_operator(2, 3, 4)
    rng = np.random.default_rng(3)
    for level in (1, 2, 3):
        head, tail = op.level_slices(level)
        x = rng.standard_normal((head.stop, op.ndof))
        y = rng.standard_normal((tail.stop - tail.start, op.ndof))
        lhs = np.sum(x * op.product(head, tail, y))
        rhs = np.sum(y * op.product(tail, head, x))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_level_and_product_validation():
    op, _ = make_operator(2, 2, 4)
    with pytest.raises(ValueError):
        op.level_slices(5)
    head, tail = op.level_slices(1)
    with pytest.raises(ValueError):
        op.product(head, tail, np.zeros((9, op.ndof)))


def test_d_block_solve_identity_and_mean_equivalence():
    op, _ = make_operator(2, 2, 4)
    exact = InnerSolver(kind="exact")
    _, tail = op.level_slices(2)
    rng = np.random.default_rng(4)
    R = rng.standard_normal((tail.stop - tail.start, op.ndof))
    X = op.d_block_solve(2, R, exact)
    assert np.allclose(op.product(tail, tail, X), R, atol=1e-9)
    # orthonormal basis: every diagonal block solve is a single K_0 solve
    from scipy.sparse.linalg import splu
    lu = splu(op.matrices[0].tocsc())
    assert np.allclose(X, lu.solve(R.T).T, atol=1e-10)


def test_d_block_solve_inner_cg_agreement():
    op, _ = make_operator(2, 2, 4)
    _, tail = op.level_slices(1)
    R = np.random.default_rng(6).standard_normal((tail.stop - tail.start, op.ndof))
    X_exact = op.d_block_solve(1, R, InnerSolver(kind="exact"))
    X_cg = op.d_block_solve(1, R, InnerSolver(kind="cg", tol=1e-10))
    assert np.linalg.norm(X_cg - X_exact) <= 1e-8 * np.linalg.norm(X_exact)


def test_rhs_layout():
    op, mesh = make_operator(2, 2, 4)
    load = assemble_load(mesh, 1.0)
    b = op.rhs(load)
    assert b.shape == (op.n_blocks, op.ndof)
    assert np.array_equal(b[0], load)
    assert np.all(b[1:] == 0.0)


def test_smallest_ritz_value_positive_at_moderate_cov():
    op, _ = make_operator(2, 4, 6, sigma=0.5)
    tri_min = lanczos_smallest_ritz(op.matvec, op.shape[0], 50)
    assert tri_min > 0.0


def test_indefiniteness_detected_at_large_cov():
    # beyond the ellipticity limit the operator loses definiteness; this is
    # reported by the solver flag rather than asserted by the library
    op, _ = make_operator(2, 4, 6, sigma=1.6)
    tri_min = lanczos_smallest_ritz(op.matvec, op.shape[0], 60)
    assert tri_min < 0.0
    from sgfem.krylov import cg
    b = np.zeros(op.shape[0])
    b[: op.ndof] = assemble_load(build_mesh(1.0 / 6), 1.0)
    _, report = cg(op.matvec, b, tol=1e-8, max_iter=400)
    assert report.spd_suspect


def lanczos_smallest_ritz(apply_a, n, steps):
    """Plain Lanczos with a fixed random start; smallest Ritz value."""
    rng = np.random.default_rng(11)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    alphas, betas = [], []
    q_prev = np.zeros(n)
    beta = 0.0
    for _ in range(steps):
        w = apply_a(q) - beta * q_prev
        alpha = q @ w
        w -= alpha * q
        alphas.append(alpha)
        beta = np.linalg.norm(w)
        if beta < 1e-14:
            break
        betas.append(beta)
        q_prev, q = q, w / beta
    from scipy.linalg import eigh_tridiagonal
    ev = eigh_tridiagonal(np.array(alphas), np.array(betas[:len(alphas) - 1]),
                          eigvals_only=True)
    return ev[0]


@pytest.mark.parametrize("build, i, seed, scale", [
    (lambda: make_operator(1, 2, 3)[0], 1, 7, 0.01),
    (lambda: build_operator(ExperimentConfig(N=2, P=2, h=0.1)), 0, 4, 0.05)],
    ids=["K_1", "K_0"])
def test_nonsymmetric_coefficient_matrices_are_refused(build, i, seed, scale):
    # a non-symmetric K_1, and a non-symmetric K_0 (which alone would tell
    # K_0^{-1} from K_0^{-T}), each on a pattern that stores every mirror
    base = build()
    mats = list(base.matrices)
    pert = sp.random(base.ndof, base.ndof, density=0.05, random_state=seed)
    mats[i] = mats[i] + scale * (pert - pert.T)
    assert abs(mats[i] - mats[i].T).max() > 1e-3
    with pytest.raises(ValueError, match=CONTRACT):
        operator_from_matrices(mats, base.tensor)


def stiffness_with(op, add=None, drop=None) -> tuple:
    """op's (indices, indptr, data) with the position add = (r, c) stored
    first in row r, zero in every K_i, or the stored position e = drop
    removed."""
    indices, indptr, data = op.indices, op.indptr.copy(), op.data
    if add is not None:
        r, c = add
        at = indptr[r]
        indices, data = np.insert(indices, at, c), np.insert(data, at, 0.0, axis=1)
        indptr[r + 1:] += 1
    if drop is not None:
        indices, data = np.delete(indices, drop), np.delete(data, drop, axis=1)
        indptr[np.searchsorted(indptr, drop, side="right"):] -= 1
    return indices, indptr, data


@pytest.mark.parametrize("clause", ["value", "position", "diagonal"])
def test_each_broken_clause_of_the_contract_is_refused_at_construction(clause):
    op = build_operator(ExperimentConfig(distribution="lognormal", N=2, P=2, h=0.25))
    n, rows = op.ndof, np.repeat(np.arange(op.ndof), np.diff(op.indptr))
    # the centre of the 5 x 5 grid
    interior = build_mesh(0.25).node_ids[2 * 5 + 2]
    off = np.flatnonzero((rows == interior) & (op.indices != interior))[0]
    diagonal = np.flatnonzero((rows == interior) & (op.indices == interior))[0]
    if clause == "value":
        # K_2 differs from its mirror at one off-diagonal position
        indices, indptr, data = stiffness_with(op)
        data = data.copy()
        data[2, off] += 1e-9
    elif clause == "position":
        # (n - 1, n - 2) stored, zero in every K_i, and (n - 2, n - 1) not.
        # Row n - 2, a Dirichlet node, stores its diagonal alone, so the
        # search for (n - 2, n - 1) lands on (n - 1, n - 2) itself, whose
        # values then equal their "mirror"
        indices, indptr, data = stiffness_with(op, add=(n - 1, n - 2))
    else:
        # a row that stores its neighbours but not its diagonal; the K_i
        # stay symmetric
        indices, indptr, data = stiffness_with(op, drop=diagonal)
    assert len(indptr) == n + 1 and data.shape == (len(op.data), len(indices))
    # the intact triple is accepted
    operator.GalerkinOperator(stiffness_with(op), op.tensor)
    # one line, the same for every clause, raised by the constructor
    with pytest.raises(ValueError, match=CONTRACT):
        operator.GalerkinOperator((indices, indptr, data), op.tensor)


def test_contract_check_holds_no_copy_of_the_values_and_reads_the_last_chunk():
    # N=4 P=4 1/h=20: 495 rows of values, 12.3 MB, compared a chunk of
    # operator.CHECK_CHUNK_BYTES at a time
    op = build_operator(ExperimentConfig(distribution="lognormal", N=4, P=4, h=0.05))
    rows = np.repeat(np.arange(op.ndof), np.diff(op.indptr))
    assert 8 * op.data[0].size * 2 < operator.CHECK_CHUNK_BYTES < op.data.nbytes / 4
    tracemalloc.start()
    try:
        operator.GalerkinOperator((op.indices, op.indptr, op.data), op.tensor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < op.data.nbytes / 4
    # the last K_i differs from its mirror at one off-diagonal position
    data = op.data.copy()
    data[-1, np.flatnonzero(rows != op.indices)[0]] += 1e-9
    with pytest.raises(ValueError, match=CONTRACT):
        operator.GalerkinOperator((op.indices, op.indptr, data), op.tensor)


@given(st.sampled_from(["uniform", "lognormal"]), st.integers(2, 6), st.integers(1, 3),
       st.integers(1, 3), st.sampled_from([0.0, 0.25, 1.0, 1.5]))
@example("uniform", 2, 1, 1, 0.0)
@example("uniform", 6, 3, 3, 0.0)
@example("lognormal", 6, 3, 3, 1.5)
def test_both_builders_meet_the_contract(distribution, n_cells, dims, degree, cov):
    # the constructor checks the contract: every K_i symmetric, every
    # spatial row storing its diagonal.  A lognormal CoV must be positive
    if distribution == "lognormal" and cov == 0.0:
        cov = 0.5
    op = build_operator(ExperimentConfig(distribution=distribution, N=dims, P=degree,
                                         h=1.0 / n_cells, cov=cov))
    assert op.ndof == (n_cells + 1) ** 2
    assert op.presummed == (distribution == "lognormal")


def test_zero_sigma_operator_is_block_diagonal():
    mesh = build_mesh(0.25)
    kl = KLExpansion(np.zeros(2), np.zeros((2, mesh.n_nodes)), 1.0)
    op = build_uniform_operator(mesh, kl, build_multi_index_set(2, 2))
    for level in (1, 2):
        head, tail = op.level_slices(level)
        y = np.ones((tail.stop - tail.start, op.ndof))
        assert np.all(op.product(head, tail, y) == 0.0)


def test_set_up_makes_no_per_coefficient_matrix():
    # the lognormal benchmark row: 210 coefficient matrices
    op = build_operator(ExperimentConfig(distribution="lognormal", N=4, P=3, h=0.1))
    for kind in ("mean", "bsgs", "hs"):
        make_preconditioner(op, kind)
    assert "matrices" not in op.__dict__ and "coupling" not in op.tensor.__dict__
    assert op.data.shape == (210, len(op.indices)) and op.data.flags.c_contiguous
    # the views are made on demand, once, K_0 first
    assert op.matrices is op.matrices and len(op.matrices) == 210
    for i, K in enumerate(op.matrices):
        assert np.shares_memory(K.data, op.data[i])


@pytest.mark.parametrize("build", [
    lambda: build_operator(ExperimentConfig(N=2, P=2, h=0.1)),
    lambda: build_operator(ExperimentConfig(distribution="lognormal", N=2, P=2, h=0.1))],
    ids=["uniform", "lognormal"])
def test_mean_solver_inverse_agrees_with_the_lu_solver(build):
    op = build()
    assert op.ndof <= operator.MEAN_INVERSE_LIMIT
    solve = op.mean_solver(InnerSolver())
    lu = spla.splu(op.matrices[0].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   options={"SymmetricMode": True})
    rng = np.random.default_rng(5)
    for B in (rng.standard_normal(op.ndof), rng.standard_normal((7, op.ndof))):
        # B K_0^{-T}, one row per right-hand side, in the shape of B as the
        # cg policy's solver gives it: a vector for a vector
        X, ref = solve(B), lu.solve(B.T).T
        assert X.shape == ref.shape == B.shape
        assert np.linalg.norm(X - ref) <= 1e-13 * np.linalg.norm(ref)
    # the cg policies keep their own solver; make builds no other
    cg = InnerSolver(kind="cg", tol=1e-10)
    assert op.mean_solver(cg) is not solve and op.mean_solver(InnerSolver(tol=1.0)) is solve
    for kind in ("exact", "lu"):
        with pytest.raises(ValueError, match="cg policy"):
            InnerSolver(kind=kind).make(op.matrices[0])


@pytest.mark.parametrize("solver", ["cg", "band"])
def test_block_solvers_give_the_shape_of_the_rhs(solver):
    op = build_operator(ExperimentConfig(distribution="lognormal", N=2, P=2, h=0.25))
    # a vector takes a vector: block Gauss-Seidel adds it into one block row
    if solver == "cg":
        A = op.matrices[0].toarray()
        solve = InnerSolver(kind="cg", tol=1e-12).make(op.matrices[0])
        shapes = [(op.ndof,), (1, op.ndof), (3, op.ndof)]
    else:
        # a band solver covers the leading n_c nodes, where the caller
        # passes the rows of one block
        A = sub_block_oracle(op, [1], [1]).toarray()[:op.n_c, :op.n_c]
        solve, = op.band_solvers(np.array([[1]]), ["diagonal block 1"])
        shapes = [(op.n_c,), (1, op.n_c)]
    rng = np.random.default_rng(6)
    for shape in shapes:
        B = rng.standard_normal(shape)
        X = solve(B)
        assert X.shape == B.shape
        assert np.linalg.norm(np.atleast_2d(X) @ A.T - np.atleast_2d(B)) \
            <= 1e-10 * np.linalg.norm(B)


def test_band_solvers_refuse_a_rhs_of_another_size(monkeypatch, capfd):
    # a level solver of band_solvers and a BSGS block solver, each over the
    # leading n_c nodes: one node too few or too many, or a block's whole
    # ndof row, is refused before LAPACK sees it, so LAPACK prints nothing
    op = build_operator(ExperimentConfig(distribution="lognormal", N=2, P=2, h=0.25))
    _, tail = op.level_slices(2)
    m, n = tail.stop - tail.start, op.n_c
    level, = op.band_solvers(np.arange(tail.start, tail.stop)[None], ["level 2"])
    prec = make_preconditioner(op, "bsgs")
    block = prec._level_blocks[2][1][0]
    for solve, rows in ((level, (m,)), (block, ())):
        k = m if rows else 1
        for width in (n - 1, n + 1, op.ndof):
            with pytest.raises(ValueError, match=f"^right-hand side of {k * width} unknowns "
                                                 f"for a band factor of order {k * n}$"):
                solve(np.ones(rows + (width,)))
        assert solve(np.ones(rows + (n,))).shape == rows + (n,)
    assert capfd.readouterr() == ("", "")
    # and an argument dpbtrs refuses is an error, not the rhs handed back
    monkeypatch.setattr(operator.lapack, "dpbtrs", lambda factor, b, **kwargs: (b, -8))
    with pytest.raises(ValueError, match="^dpbtrs refused argument 8$"):
        block(np.ones(n))


@pytest.mark.parametrize("n_cells", [10, 20, 30])
def test_exact_mean_solve_equals_the_lu_of_the_whole_k0(n_cells):
    # on the Dirichlet rows K_0 is the unit diagonal and joins no leading
    # row, so the LU of K_0[:n_c, :n_c] solves the leading rows with the
    # same operations as the LU of all of K_0, on both sides of
    # MEAN_INVERSE_LIMIT: up to it, the product with the leading block of
    # the whole K_0's inverse, the Dirichlet columns copied
    op = build_operator(ExperimentConfig(distribution="lognormal", N=1, P=1,
                                         h=1 / n_cells))
    n = op.n_c
    assert (op.ndof <= operator.MEAN_INVERSE_LIMIT) == (n_cells == 10)
    lu = spla.splu(op.matrices[0].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   options={"SymmetricMode": True})
    inv_t = np.ascontiguousarray(lu.solve(np.eye(op.ndof)).T[:n, :n])
    solve = op.mean_solver(InnerSolver())
    rng = np.random.default_rng(n_cells)
    for B in (rng.standard_normal((4, op.ndof)), rng.standard_normal(op.ndof)):
        ref = lu.solve(B.T).T
        assert np.array_equal(ref[..., n:], B[..., n:])
        if n_cells == 10:
            ref[..., :n] = B[..., :n] @ inv_t
        assert np.array_equal(solve(B), ref)


@pytest.mark.parametrize("n_cells, inverse", [(15, True), (20, False)])
def test_mean_solver_is_the_dense_inverse_up_to_the_limit(monkeypatch, n_cells, inverse):
    solves = []
    splu = operator.spla.splu

    class SpyLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, B, *args, **kwargs):
            solves.append(B.shape)
            return self.lu.solve(B, *args, **kwargs)

    monkeypatch.setattr(operator.spla, "splu",
                        lambda A, *args, **kwargs: SpyLU(splu(A, *args, **kwargs)))
    op = build_operator(ExperimentConfig(N=1, P=1, h=1 / n_cells))
    assert (op.ndof <= operator.MEAN_INVERSE_LIMIT) == inverse
    solve = op.mean_solver(InnerSolver())
    assert solve(np.ones((3, op.ndof))).shape == (3, op.ndof)
    assert solve(np.ones(op.ndof)).shape == (op.ndof,)
    # the LU covers the leading n_c unknowns: the inverse is one solve of
    # their identity; the LU solves every call, a vector as a vector
    if inverse:
        assert solves == [(op.n_c, op.n_c)]
    else:
        assert solves == [(op.n_c, 3), (op.n_c,)]
