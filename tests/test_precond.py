from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import sgfem.operator as operator
from sgfem.experiments import ExperimentConfig, build_operator
from sgfem.fem import assemble_load, build_mesh
from sgfem.kle import CovarianceSpec, KLExpansion, build_kl_expansion
from sgfem.krylov import cg, fcg
from sgfem.multi_index import build_multi_index_set
from sgfem.operator import GalerkinOperator, InnerSolver, build_uniform_operator
from sgfem.precond import (BlockSGS, HierarchicalSchur, MeanBased,
                           make_preconditioner, reduced_system_solve, work_count)
from shared_pattern import CONTRACT, indefinite, nonsymmetric

EXACT = InnerSolver(kind="exact")
TIGHT_CG = InnerSolver(kind="cg", tol=1e-13)


def make_operator(dims=2, degree=2, n_cells=4, sigma=0.5):
    mesh = build_mesh(1.0 / n_cells)
    if sigma == 0.0:
        kl = KLExpansion(np.zeros(dims), np.zeros((dims, mesh.n_nodes)), 1.0)
    else:
        spec = CovarianceSpec(sigma=sigma, corr_length=0.5)
        kl = build_kl_expansion(spec, dims, 1.0, mesh.node_coords)
    basis = build_multi_index_set(dims, degree)
    op = build_uniform_operator(mesh, kl, basis)
    b = op.rhs(assemble_load(mesh, 1.0)).ravel()
    return op, b


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------

def test_work_count_reference_rows():
    # both sweep orientations give the same counts
    assert work_count(4, 4).as_dict() == \
        {"n_b": 350, "n_db": 70, "n_m": 280, "n_ds": 139}
    assert work_count(1, 4).as_dict() == \
        {"n_b": 13, "n_db": 5, "n_m": 8, "n_ds": 9}
    assert work_count(4, 1).as_dict() == work_count(1, 4).as_dict()


def test_work_count_degenerate():
    wc = work_count(3, 0)
    assert (wc.n_b, wc.n_db, wc.n_m, wc.n_ds) == (1, 1, 0, 1)


# ---------------------------------------------------------------------------
# mean-based
# ---------------------------------------------------------------------------

def test_mean_based_exact_for_constant_chaos():
    op, b = make_operator(degree=0)
    prec = MeanBased(op, EXACT)
    x, report = cg(op.matvec, b, apply_m=prec, tol=1e-10)
    assert report.iterations == 1
    assert np.linalg.norm(op.matvec(x) - b) <= 1e-9 * np.linalg.norm(b)


def test_mean_based_exact_for_zero_fluctuations():
    op, b = make_operator(2, 3, sigma=0.0)
    prec = MeanBased(op, EXACT)
    _, report = cg(op.matvec, b, apply_m=prec, tol=1e-10)
    assert report.iterations == 1


def test_mean_based_counts_block_solves():
    op, b = make_operator(2, 2)
    prec = MeanBased(op, EXACT)
    prec(b)
    assert prec.counters.block_solves == op.n_blocks
    assert prec.counters.applications == 1


# ---------------------------------------------------------------------------
# block symmetric Gauss-Seidel
# ---------------------------------------------------------------------------

def test_bsgs_exact_for_block_diagonal_operator():
    op, b = make_operator(2, 2, sigma=0.0)
    prec = BlockSGS(op, EXACT)
    _, report = cg(op.matvec, b, apply_m=prec, tol=1e-10)
    assert report.iterations == 1


def test_bsgs_symmetric_mapping():
    op, _ = make_operator(2, 2)
    prec = BlockSGS(op, EXACT)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(op.shape[0])
    s = rng.standard_normal(op.shape[0])
    assert np.dot(prec(r), s) == pytest.approx(np.dot(prec(s), r), rel=1e-10)


hermite_configs = st.tuples(st.just("lognormal"), st.integers(1, 3), st.integers(1, 3),
                            st.integers(2, 4))
# "cg policy": the symmetric operator under the tight inner cg policy
VARIANTS = {"symmetric": lambda op: op, "non-symmetric": nonsymmetric,
            "indefinite": indefinite, "cg policy": lambda op: op}


@given(hermite_configs, st.sampled_from(list(VARIANTS)))
@example(("uniform", 2, 2, 4), "symmetric")   # no coupled level
@example(("lognormal", 2, 2, 3), "cg policy")
@example(("lognormal", 2, 2, 3), "non-symmetric")
def test_bsgs_matches_dense_sweep_oracle(config, variant):
    family, dims, degree, n_cells = config
    if family == "uniform":
        op = make_operator(dims, degree, n_cells)[0]
    elif variant == "non-symmetric":
        # refused where it is built, so no sweep can start: dpbtrf would
        # read the upper band alone
        with pytest.raises(ValueError, match=CONTRACT):
            nonsymmetric(lognormal_operator(dims, degree, n_cells))
        return
    else:
        op = VARIANTS[variant](lognormal_operator(dims, degree, n_cells))
    r = np.random.default_rng(1).standard_normal(op.shape[0])
    with pytest.MonkeyPatch.context() as mp:
        lus, infos = spy_factorizations(mp)
        if variant == "indefinite":
            # the first block of level 1 is not positive definite; the
            # refusal comes before level 0's K_0 LU
            with pytest.raises(np.linalg.LinAlgError,
                               match="^diagonal block 1 is not positive definite"):
                BlockSGS(op, EXACT)(r)
            assert lus == [] and len(infos) == 1 and infos[0] > 0
            return
        inner = TIGHT_CG if variant == "cg policy" else EXACT
        got = BlockSGS(op, inner)(r)
    A = op.dense()
    n_blocks, nd = op.n_blocks, op.ndof
    # oracle: explicit block triangular solves on the dense matrix
    D = np.zeros_like(A)
    Lo = np.zeros_like(A)
    Up = np.zeros_like(A)
    for j in range(n_blocks):
        for k in range(n_blocks):
            blk = A[j * nd:(j + 1) * nd, k * nd:(k + 1) * nd]
            if j == k:
                D[j * nd:(j + 1) * nd, k * nd:(k + 1) * nd] = blk
            elif j > k:
                Lo[j * nd:(j + 1) * nd, k * nd:(k + 1) * nd] = blk
            else:
                Up[j * nd:(j + 1) * nd, k * nd:(k + 1) * nd] = blk
    y = np.linalg.solve(D + Lo, r)
    z = np.linalg.solve(D + Up, D @ y)
    assert np.linalg.norm(got - z) <= 1e-9 * np.linalg.norm(z)
    if inner is TIGHT_CG:
        # every block solve is an inner CG
        assert lus == [] and infos == []
        return
    # the blocks of the coupled levels, all but A_00 on the lognormal
    # operators, take the band Cholesky; level 0 is the K_0 LU
    n_coupled = n_blocks - 1 if family == "lognormal" else 0
    assert len(infos) == n_coupled and all(info == 0 for info in infos)
    assert len(lus) == 1


def spy_factorizations(monkeypatch) -> tuple:
    """(lus, infos): the shape of every SuperLU factorization and the info
    of every band Cholesky from now on."""
    lus, infos = [], []
    splu, dpbtrf = operator.spla.splu, operator.lapack.dpbtrf

    def spy_splu(matrix, *args, **kwargs):
        lus.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    def spy_dpbtrf(band, *args, **kwargs):
        factor, info = dpbtrf(band, *args, **kwargs)
        infos.append(info)
        return factor, info

    monkeypatch.setattr(operator.spla, "splu", spy_splu)
    monkeypatch.setattr(operator.lapack, "dpbtrf", spy_dpbtrf)
    return lus, infos


def lognormal_operator(dims=2, degree=2, n_cells=4):
    from sgfem.lognormal import LognormalFieldSpec, build_lognormal_operator
    return build_lognormal_operator(LognormalFieldSpec(cov=1.0),
                                    build_mesh(1.0 / n_cells), dims, degree)


@pytest.mark.parametrize("family", ["uniform", "lognormal"])
@pytest.mark.parametrize("kind", [BlockSGS, HierarchicalSchur])
def test_inner_cg_policy_matches_exact_apply(family, kind):
    op = make_operator()[0] if family == "uniform" else lognormal_operator()
    r = np.random.default_rng(7).standard_normal(op.shape[0])
    z_exact = kind(op, EXACT)(r)
    z_cg = kind(op, InnerSolver(kind="cg", tol=1e-13))(r)
    assert np.linalg.norm(z_cg - z_exact) <= 1e-10 * np.linalg.norm(z_exact)


def test_diagonal_blocks_reuse_the_mean_factorization(monkeypatch):
    lus, bands = spy_factorizations(monkeypatch)

    def factorizations_of_the_first_bsgs_application(op):
        bsgs, hs = BlockSGS(op, EXACT), HierarchicalSchur(op, EXACT, outer_tol=1e-6)
        # neither set-up factorizes anything
        assert lus == [] and bands == []
        r = np.ones(op.shape[0])
        bsgs(r)
        n_bsgs = len(lus), len(bands)
        hs(r)
        n_both = len(lus) + len(bands)
        # a second application factorizes nothing
        bsgs(r)
        hs(r)
        assert len(lus) + len(bands) == n_both
        return n_bsgs

    # linear: every diagonal block is K_0, so the only LU is K_0's,
    # shared by both preconditioners whatever their outer tolerance
    op, _ = make_operator(2, 3)
    assert factorizations_of_the_first_bsgs_application(op) == (1, 0)
    assert len(lus) == 1 and bands == []
    # lognormal: A_00 = K_0 shares the mean LU; each other block has its own
    # band Cholesky from the first BSGS application, and HS factorizes each
    # coupled level by band Cholesky, over its leading n_c nodes
    lus.clear()
    op = lognormal_operator()
    assert factorizations_of_the_first_bsgs_application(op) == (1, op.n_blocks - 1)
    assert len(lus) == 1 and len(bands) == (op.n_blocks - 1) + op.basis.degree
    assert all(info == 0 for info in bands)
    x = np.random.default_rng(8).standard_normal((1, op.ndof))
    assert np.array_equal(op.d_block_solve(0, x, EXACT), op.mean_solver(EXACT)(x))


def test_cg_policy_band_factors_the_coupled_levels_alone(monkeypatch):
    # the cg policy (``--inner cg-diagonal``) solves K_0 and every block
    # Gauss-Seidel diagonal block by Jacobi CG; the hierarchical
    # preconditioner's coupled levels take the band Cholesky all the same,
    # each over its leading n_c nodes
    lus, bands = spy_factorizations(monkeypatch)
    op = lognormal_operator()      # N=2 P=2 h=1/4: levels 1 and 2 coupled
    r = np.ones(op.shape[0])
    inner = InnerSolver(kind="cg", tol=1e-10)
    BlockSGS(op, inner)(r)
    assert lus == [] and bands == []
    HierarchicalSchur(op, inner)(r)
    assert lus == [] and bands == [0, 0]


@pytest.mark.parametrize("family", ["uniform", "lognormal"])
def test_integer_residuals_give_the_float_result(family):
    op = make_operator()[0] if family == "uniform" else lognormal_operator()
    r = np.arange(op.shape[0]) % 7 - 3
    for kind in ("mean", "bsgs", "hs"):
        for inner in (EXACT, InnerSolver(kind="cg", tol=1e-10)):
            prec = make_preconditioner(op, kind, inner)
            z = prec(r)
            assert z.dtype == float
            assert np.array_equal(z, prec(r.astype(float))), (kind, inner.kind)


@pytest.mark.parametrize("family", ["uniform", "lognormal"])
def test_preconditioners_release_the_operator_without_the_cycle_collector(family):
    import gc
    import weakref
    op = make_operator()[0] if family == "uniform" else lognormal_operator()
    precs = [make_preconditioner(op, kind, EXACT) for kind in ("mean", "bsgs", "hs")]
    for prec in precs:
        prec(np.ones(op.shape[0]))
    ref = weakref.ref(op)
    gc.disable()
    try:
        del op, precs, prec
        # no reference cycle keeps the operator's blocks and LUs alive
        assert ref() is None
    finally:
        gc.enable()


def test_bsgs_counts():
    op, b = make_operator(2, 2)
    prec = BlockSGS(op, EXACT)
    prec(b)
    wc = work_count(2, 2)
    assert prec.counters.block_solves == 2 * wc.n_db
    assert prec.counters.block_matvecs == wc.n_b - wc.n_db


# ---------------------------------------------------------------------------
# hierarchical Schur complement
# ---------------------------------------------------------------------------

def test_hs_constant_chaos_is_single_solve():
    op, b = make_operator(degree=0)
    prec = HierarchicalSchur(op, EXACT)
    z = prec(b)
    x_ref = np.linalg.solve(op.dense(), b)
    assert np.allclose(z, x_ref, atol=1e-10)
    assert prec.counters.block_solves == 1


def test_hs_exact_inverse_without_coupling():
    op, _ = make_operator(2, 2, sigma=0.0)
    prec = HierarchicalSchur(op, EXACT)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(op.shape[0])
    y = prec(op.matvec(x))
    assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)


def test_hs_counter_tallies_match_work_count():
    # the closed form counts every coupled block; at h = 1/2 the odd modes
    # vanish at the one interior node and their blocks are not multiplied
    for dims, degree in [(1, 4), (2, 2), (3, 3), (4, 4)]:
        op, b = make_operator(dims, degree, n_cells=3)
        prec = HierarchicalSchur(op, EXACT)
        prec(b)
        wc = work_count(dims, degree)
        assert prec.counters.block_matvecs == wc.n_m
        assert prec.counters.block_solves == wc.n_ds


def test_hs_symmetric_and_positive_definite_mapping():
    op, _ = make_operator(2, 3)
    prec = HierarchicalSchur(op, EXACT)
    rng = np.random.default_rng(3)
    for _ in range(4):
        r = rng.standard_normal(op.shape[0])
        s = rng.standard_normal(op.shape[0])
        assert np.dot(prec(r), s) == pytest.approx(np.dot(prec(s), r), rel=1e-9)
        assert np.dot(prec(r), r) > 0.0


def test_hs_preconditioned_spectrum_positive():
    op, _ = make_operator(2, 2)
    prec = HierarchicalSchur(op, EXACT)
    A = op.dense()
    n = op.shape[0]
    M = np.column_stack([prec(e) for e in np.eye(n)])
    ev = np.linalg.eigvals(M @ A)
    assert np.all(np.real(ev) > 0.0)
    assert np.max(np.abs(np.imag(ev))) < 1e-8


def test_hs_with_inner_cg_close_to_exact():
    op, b = make_operator(2, 2)
    hs_exact = HierarchicalSchur(op, EXACT)
    hs_cg = HierarchicalSchur(op, InnerSolver(kind="cg", tol=1e-10))
    z1 = hs_exact(b)
    z2 = hs_cg(b)
    assert np.linalg.norm(z1 - z2) <= 1e-8 * np.linalg.norm(z1)


# ---------------------------------------------------------------------------
# generalized three-factor form
# ---------------------------------------------------------------------------

def generalized_apply(op, r, m_d1, m_d2, m_d3, m_s):
    """Oracle: one application of the three-factor block-inverse form at the
    top level.

    m_d1, m_d2, m_d3 approximate the inverse of the trailing block D and m_s
    the inverse of the Schur complement; all take and return block arrays.
    With exact policies this is the exact inverse of the 2x2 block matrix.
    The hierarchical preconditioner is the special case m_d* = D^{-1} and
    m_s = the recursive approximation of the leading block.
    """
    level = op.basis.degree
    R = op.as_blocks(r)
    head, tail = op.level_slices(level)
    r_head, r_tail = R[head], R[tail]
    g = r_head - op.product(head, tail, m_d1(r_tail))
    u_head = m_s(g)
    u_tail = m_d2(r_tail) - m_d3(op.product(tail, head, u_head))
    out = np.vstack([u_head, u_tail])
    return out.ravel() if np.asarray(r).ndim == 1 else out


def test_generalized_all_exact_is_exact_inverse():
    op, _ = make_operator(2, 2)
    level = op.basis.degree
    head, tail = op.level_slices(level)
    A = op.dense()
    nb = head.stop * op.ndof
    Ahead = A[:nb, :nb]

    def d_exact(X):
        return op.d_block_solve(level, X, EXACT)

    def s_exact(G):
        return np.linalg.solve(A[:nb, :nb] - A[:nb, nb:] @ np.linalg.solve(
            A[nb:, nb:], A[nb:, :nb]), G.ravel()).reshape(head.stop, op.ndof)

    rng = np.random.default_rng(4)
    r = rng.standard_normal(op.shape[0])
    z = generalized_apply(op, r, d_exact, d_exact, d_exact, s_exact)
    assert np.allclose(A @ z, r, atol=1e-8)


def test_generalized_with_hierarchy_head_matches_hs_at_degree_one():
    op, b = make_operator(2, 1)

    def d_exact(X):
        return op.d_block_solve(1, X, EXACT)

    import scipy.sparse.linalg as spla
    lu0 = spla.splu(op.matrices[0].tocsc())

    def s_mean(G):
        return lu0.solve(G.ravel()).reshape(1, op.ndof)

    prec_gen = lambda r: generalized_apply(op, r, d_exact, d_exact, d_exact, s_mean)
    prec_hs = HierarchicalSchur(op, EXACT)
    _, rep_gen = cg(op.matvec, b, apply_m=prec_gen, tol=1e-8)
    _, rep_hs = cg(op.matvec, b, apply_m=prec_hs, tol=1e-8)
    assert rep_gen.iterations == rep_hs.iterations
    z1, z2 = prec_gen(b), prec_hs(b)
    assert np.allclose(z1, z2, atol=1e-10)


def test_generalized_single_mean_application_converges_slower():
    # coupled diagonal blocks (lognormal) so one mean application per block is
    # only an approximation of the D solve
    from sgfem.lognormal import LognormalFieldSpec, build_lognormal_operator
    mesh = build_mesh(0.25)
    op = build_lognormal_operator(LognormalFieldSpec(cov=1.0), mesh, 2, 1)
    b = op.rhs(assemble_load(mesh, 1.0)).ravel()
    level = 1
    mean = op.mean_solver(EXACT)

    def d_exact(X):
        return op.d_block_solve(level, X, EXACT)

    def d_mean(X):
        return mean(X)

    import scipy.sparse.linalg as spla
    lu0 = spla.splu(op.assemble_range([0], [0]).tocsc())

    def s_exact(G):
        return lu0.solve(G.ravel()).reshape(1, op.ndof)

    _, rep_exact = cg(op.matvec, b,
                      apply_m=lambda r: generalized_apply(op, r, d_exact, d_exact,
                                                          d_exact, s_exact),
                      tol=1e-8)
    _, rep_mean = cg(op.matvec, b,
                     apply_m=lambda r: generalized_apply(op, r, d_mean, d_mean,
                                                         d_mean, s_exact),
                     tol=1e-8)
    assert rep_mean.converged
    assert rep_mean.iterations >= rep_exact.iterations


# ---------------------------------------------------------------------------
# reduction to the top-level Schur system
# ---------------------------------------------------------------------------

def test_reduction_without_coupling_matches_independent_solves():
    op, b = make_operator(2, 2, sigma=0.0)
    x, report = reduced_system_solve(op, b, tol=1e-10)
    x_ref = np.linalg.solve(op.dense(), b).reshape(op.n_blocks, op.ndof)
    assert np.allclose(x, x_ref, atol=1e-8)


def test_reduction_matches_full_solve():
    op, b = make_operator(2, 2)
    x_red, rep_red = reduced_system_solve(op, b, tol=1e-8)
    prec = HierarchicalSchur(op, EXACT)
    x_full, rep_full = cg(op.matvec, b, apply_m=prec, tol=1e-8)
    x_full = x_full.reshape(op.n_blocks, op.ndof)
    denom = np.linalg.norm(x_full)
    assert np.linalg.norm(x_red - x_full) <= 1e-6 * denom
    assert abs(rep_red.iterations - rep_full.iterations) <= 1
    # full-system residual of the assembled reduced solution
    res = np.linalg.norm(op.matvec(x_red.ravel()) - b) / np.linalg.norm(b)
    assert res <= 1e-8 * 10


def test_reduction_rejects_constant_basis():
    op, b = make_operator(2, 0)
    with pytest.raises(ValueError):
        reduced_system_solve(op, b)


@pytest.mark.parametrize("dims, degree", [(2, 4), (3, 3), (8, 2)])
def test_hs_on_a_leading_hierarchy_is_hs_of_the_lower_order_operator(dims, degree):
    cfg = ExperimentConfig(N=dims, P=degree, h=0.25)
    op = build_operator(cfg)
    rng = np.random.default_rng(dims)
    for level in range(degree):
        hs = HierarchicalSchur(op, EXACT)
        sub = HierarchicalSchur(build_operator(replace(cfg, P=level)), EXACT)
        r = rng.standard_normal(sub.op.shape[0])
        assert np.array_equal(hs(r), sub(r)), level
        assert hs.counters == sub.counters, level


@pytest.mark.parametrize("kind", [MeanBased, BlockSGS, HierarchicalSchur])
def test_residual_of_no_hierarchy_length_is_refused(kind):
    op, _ = make_operator(2, 2)
    prec = kind(op, EXACT)
    rows = [op.n_blocks + 1, op.n_blocks - 1]
    if kind is not HierarchicalSchur:
        rows += list(op.basis.degree_offsets[1:-1])
    for m in rows:
        # the full hierarchy, or for HS a leading one: 1, 3 or 6 blocks
        match = (f"{m} block rows span no leading hierarchy; expected one of \\[1, 3, 6\\]"
                 if kind is HierarchicalSchur else f"size {m * op.ndof} ")
        with pytest.raises(ValueError, match=match):
            prec(np.ones(m * op.ndof))
    assert prec.counters.applications == 0


def test_reduced_solve_builds_no_second_operator(monkeypatch):
    op, b = make_operator(2, 3)
    built = []
    init = GalerkinOperator.__init__
    monkeypatch.setattr(GalerkinOperator, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    _, report = reduced_system_solve(op, b)
    assert report.converged and built == []


def test_factory_names():
    op, _ = make_operator(2, 1)
    assert make_preconditioner(op, "none") is None
    assert isinstance(make_preconditioner(op, "mean"), MeanBased)
    assert isinstance(make_preconditioner(op, "bsgs"), BlockSGS)
    assert isinstance(make_preconditioner(op, "hs"), HierarchicalSchur)
    for name in ("kronecker", "mean_based", "mm", "block_sgs", "bgs",
                 "hierarchical_schur", "schur"):
        with pytest.raises(ValueError):
            make_preconditioner(op, name)


def test_unresolved_inner_tolerance_is_rejected():
    op, b = make_operator(2, 1)
    cg_policy = InnerSolver(kind="cg")
    with pytest.raises(ValueError):
        op.d_block_solve(1, b.reshape(op.n_blocks, op.ndof)[1:], cg_policy)
    # a preconditioner sets the policy's tolerance to its outer one
    prec = HierarchicalSchur(op, cg_policy, outer_tol=1e-9)
    assert prec.inner.tol == 1e-9
    assert np.allclose(prec(b), HierarchicalSchur(op, EXACT)(b), rtol=0.0,
                       atol=1e-7 * np.abs(b).max())


# ---------------------------------------------------------------------------
# A z from the sweeps: CG without its operator apply
# ---------------------------------------------------------------------------

uniform_configs = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 5),
                            st.integers(0, 2 ** 16))


@given(uniform_configs, st.sampled_from([MeanBased, BlockSGS, HierarchicalSchur]))
@example((2, 3, 4, 0), MeanBased)
@example((2, 3, 4, 0), BlockSGS)
@example((2, 3, 4, 0), HierarchicalSchur)
# the two ends of the column-level loop: one level above the mean, and one
# block per level
@example((3, 1, 4, 0), BlockSGS)
@example((3, 1, 4, 0), HierarchicalSchur)
@example((1, 4, 4, 0), BlockSGS)
@example((1, 4, 4, 0), HierarchicalSchur)
def test_paired_step_returns_the_operator_product_of_its_result(config, kind):
    dims, degree, n_cells, seed = config
    op, _ = make_operator(dims, degree, n_cells)
    r = np.random.default_rng(seed).standard_normal(op.shape[0])
    prec = kind(op, EXACT)
    z, Az = prec.paired(op.matvec)(r)
    assert np.array_equal(z, kind(op, EXACT).apply_blocks(op.as_blocks(r)).ravel())
    ref = op.apply(z)
    assert np.linalg.norm(Az - ref) <= 1e-12 * np.linalg.norm(ref)
    assert prec.counters.applications == 1


def odd_hermite_operator(nodal: bool) -> GalerkinOperator:
    """The lognormal operator at N=2, P=3, h=1/4 with its even-order fields
    set to zero: every level is I (x) K_0, and the fields of order 1, 3 and
    5 couple each level to the levels up to three degrees away.  With the
    nodal factors its products are pre-summed, several terms to a block."""
    logn = build_operator(ExperimentConfig(distribution="lognormal", N=2, P=3, h=0.25,
                                           cov=1.0))
    even = np.array(logn.tensor.coeff_set.degrees()) % 2 == 0
    even[0] = False
    data, fields = logn.data.copy(), logn.nodal[0].copy()
    data[even] = fields[even] = 0.0
    return GalerkinOperator((logn.indices, logn.indptr, data), logn.tensor,
                            nodal=(fields, *logn.nodal[1:]) if nodal else None)


def test_paired_step_on_hermite_operators_of_scalar_levels():
    # the even-order fields of a CoV of 1e-7 are structurally zero: every
    # level is I (x) K_0 and products run matrix-free
    op = build_operator(ExperimentConfig(distribution="lognormal", N=2, P=3, h=0.25,
                                         cov=1e-7))
    # and an operator whose column levels reach beyond their neighbours,
    # whose parts add into the rows they reach
    odd = odd_hermite_operator(nodal=False)
    for op, rtol in ((op, 0.0), (odd, 1e-14)):
        assert not op.presummed
        assert all(op.level_is_scalar_diagonal(l) for l in range(op.basis.degree + 1))
        r = np.random.default_rng(3).standard_normal(op.shape[0])
        for kind in (BlockSGS, HierarchicalSchur):
            z, Az = kind(op, EXACT).paired(op.matvec)(r)
            z_plain = kind(op, EXACT)(r)
            assert np.linalg.norm(z - z_plain) <= rtol * np.linalg.norm(z_plain)
            ref = op.apply(z)
            assert np.linalg.norm(Az - ref) <= 1e-12 * np.linalg.norm(ref)
    assert max(s.stop - s.start for s in BlockSGS(odd, EXACT)._column_spans) == 9


def test_a_presummed_operator_of_scalar_levels_takes_no_pair():
    # its nodal blocks hold K_0: no product leaves it out
    op = odd_hermite_operator(nodal=True)
    assert op.presummed
    assert all(op.level_is_scalar_diagonal(l) for l in range(op.basis.degree + 1))
    for kind in (MeanBased, BlockSGS, HierarchicalSchur):
        assert kind(op, EXACT).paired(op.matvec) is None


@pytest.mark.parametrize("dims, degree", [(2, 1), (1, 4), (3, 3)])
def test_paired_steps_multiply_each_column_level_once(monkeypatch, dims, degree):
    op, _ = make_operator(dims, degree, n_cells=3)
    products, planned = [], []
    product = GalerkinOperator._product

    def product_spy(self, rows, cols, X, mean):
        if len(range(*rows.indices(self.n_blocks))) and len(X):
            products.append((rows, cols, mean))
        return product(self, rows, cols, X, mean)

    class Plans(dict):
        def __setitem__(self, key, value):
            planned.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(GalerkinOperator, "_product", product_spy)
    op._plans = Plans()
    r = np.random.default_rng(degree).standard_normal(op.shape[0])
    # per paired application: P products of the forward sweep or the
    # down-sweep, one per column level 0..P
    n_plans = []
    for kind in (BlockSGS, HierarchicalSchur):
        step = kind(op, EXACT).paired(op.matvec)
        for _ in range(2):
            products.clear()
            step(r)
            assert len(products) == 2 * degree + 1, kind
            assert sum(not mean for _, _, mean in products) == degree + 1, kind
        n_plans.append(len(planned))
    # each range planned once; HS adds only its down-sweep ranges B_l to
    # BSGS's forward ranges C_l and the column levels they share
    assert n_plans == [2 * degree + 1, 3 * degree + 1]
    assert len(set(planned)) == len(planned)


@pytest.mark.parametrize("dims, degree", [(2, 4), (3, 3), (1, 2)])
def test_hs_product_on_a_leading_hierarchy_is_its_product(dims, degree):
    op, _ = make_operator(dims, degree)
    hs = HierarchicalSchur(op, EXACT)
    rng = np.random.default_rng(dims)
    for level in range(degree + 1):
        m = op.basis.degree_offsets[level + 1]
        R = rng.standard_normal((m, op.ndof))
        U, AU = hs.apply_blocks(R, product=True)
        assert np.array_equal(U, hs.apply_blocks(R)), level
        ref = op.product(slice(0, m), slice(0, m), U)
        assert np.linalg.norm(AU - ref) <= 1e-12 * np.linalg.norm(ref), level


def test_mean_pairs_on_coupled_levels_multiplied_matrix_free():
    # A z = r + (A - I (x) K_0) z asks nothing of the levels: the lognormal
    # operator without its nodal factors multiplies matrix-free, and the
    # mean-based preconditioner pairs there, where BSGS and HS do not
    logn = lognormal_operator()
    op = GalerkinOperator((logn.indices, logn.indptr, logn.data), logn.tensor)
    assert not op.presummed and not op.level_is_scalar_diagonal(1)
    r = np.random.default_rng(0).standard_normal(op.shape[0])
    z, Az = MeanBased(op, EXACT).paired(op.matvec)(r)
    ref = op.apply(z)
    assert np.linalg.norm(Az - ref) <= 1e-12 * np.linalg.norm(ref)
    for kind in (BlockSGS, HierarchicalSchur):
        assert kind(op, EXACT).paired(op.matvec) is None


def spy_paths(monkeypatch) -> dict:
    """Counts of GalerkinOperator.apply calls and of mean / BSGS / HS
    applications with and without the product, from now on."""
    calls = {"apply": 0, "paired": 0, "plain": 0}
    apply = GalerkinOperator.apply

    def apply_spy(self, u):
        calls["apply"] += 1
        return apply(self, u)

    monkeypatch.setattr(GalerkinOperator, "apply", apply_spy)
    for cls in (MeanBased, BlockSGS, HierarchicalSchur):
        def blocks_spy(self, R, product=False, _original=cls.apply_blocks):
            calls["paired" if product else "plain"] += 1
            return _original(self, R, product) if product else _original(self, R)

        monkeypatch.setattr(cls, "apply_blocks", blocks_spy)
    return calls


@pytest.mark.parametrize("solver", [cg, fcg])
@pytest.mark.parametrize("kind", [MeanBased, BlockSGS, HierarchicalSchur])
@pytest.mark.parametrize("dims, degree, n_cells", [(2, 3, 4), (3, 2, 5), (4, 4, 4)])
def test_paired_solve_matches_the_explicit_product(monkeypatch, solver, kind,
                                                   dims, degree, n_cells):
    op, b = make_operator(dims, degree, n_cells)
    calls = spy_paths(monkeypatch)
    x, report = solver(op.matvec, b, apply_m=kind(op, EXACT), tol=1e-10)
    # the paired path: every application returns A z, no operator apply
    assert calls == {"apply": 0, "paired": report.iterations, "plain": 0}
    calls.update(apply=0, paired=0)
    y, ref = solver(lambda v: op.matvec(v), b, apply_m=kind(op, EXACT), tol=1e-10)
    assert calls == {"apply": ref.iterations, "paired": 0, "plain": ref.iterations}
    assert report.converged and report.iterations == ref.iterations
    assert report.kappa_estimate == pytest.approx(ref.kappa_estimate, rel=1e-12)
    assert np.linalg.norm(x - y) <= 1e-8 * np.linalg.norm(y)
    res = np.linalg.norm(b - op.matvec(x)) / np.linalg.norm(b)
    assert res <= 10 * 1e-10


@pytest.mark.parametrize("dims, degree", [(2, 2), (3, 3), (4, 4)])
def test_paired_hs_counters_meet_the_closed_forms(monkeypatch, dims, degree):
    # the products that give A z are not block work of the preconditioner
    op, b = make_operator(dims, degree, n_cells=3)
    calls = spy_paths(monkeypatch)
    prec = HierarchicalSchur(op, EXACT)
    _, report = cg(op.matvec, b, apply_m=prec, tol=1e-10)
    apps = prec.counters.applications
    assert report.converged and calls["paired"] == apps == report.iterations > 0
    wc = work_count(dims, degree)
    assert prec.counters.block_solves == wc.n_ds * apps
    assert prec.counters.block_matvecs == wc.n_m * apps


def test_explicit_product_everywhere_else(monkeypatch):
    op, b = make_operator(2, 3)
    logn = lognormal_operator()
    b_logn = logn.rhs(assemble_load(build_mesh(1.0 / 4), 1.0)).ravel()
    calls = spy_paths(monkeypatch)

    def explicit(op, b, apply_m, apply_a=None, solver=cg):
        calls.update(apply=0, paired=0, plain=0)
        _, report = solver(apply_a or op.matvec, b, apply_m=apply_m, tol=1e-10)
        assert report.converged
        assert calls["apply"] == report.iterations and calls["paired"] == 0
        return report

    # no preconditioner, and each preconditioner with a lambda apply_a
    explicit(op, b, None)
    for kind in (MeanBased, BlockSGS, HierarchicalSchur):
        explicit(op, b, kind(op, EXACT), apply_a=lambda v: op.matvec(v))
        # inexact mean and level solves: the cg-diagonal policy
        explicit(op, b, kind(op, InnerSolver(kind="cg")), solver=fcg)
        # the lognormal operator, its products pre-summed: its nodal blocks
        # hold K_0, and BSGS and HS see coupled levels
        assert logn.presummed
        explicit(logn, b_logn, kind(logn, EXACT))
        assert kind(logn, EXACT).paired(logn.matvec) is None
        assert kind(op, EXACT).paired(lambda v: op.matvec(v)) is None
        assert kind(op, EXACT).paired(logn.matvec) is None
        assert kind(op, InnerSolver(kind="cg")).paired(op.matvec) is None
    # the Schur system's CG applies its own operator; HS takes no product
    calls.update(apply=0, paired=0, plain=0)
    _, report = reduced_system_solve(op, b, tol=1e-10)
    assert report.converged and calls["paired"] == 0
    assert calls["plain"] == report.iterations
