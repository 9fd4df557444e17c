import numpy as np
import pytest

from sgfem.krylov import cg, fcg, lanczos_condition_estimate


def diag_apply(d):
    d = np.asarray(d, dtype=float)
    return lambda x: d * x


def test_identity_converges_in_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, report = cg(lambda v: v, b, tol=1e-12)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b)
    assert report.kappa_estimate == 1.0


def test_two_by_two_condition_estimate():
    x, report = cg(diag_apply([1.0, 100.0]), np.array([1.0, 1.0]), tol=1e-14)
    assert report.iterations == 2
    assert report.kappa_estimate == pytest.approx(100.0, rel=1e-10)


def test_known_spectrum_estimate():
    d = np.arange(1.0, 11.0)
    b = np.ones(10)
    x, report = cg(diag_apply(d), b, tol=1e-14, max_iter=10)
    assert report.converged
    assert report.kappa_estimate == pytest.approx(10.0, rel=1e-8)
    assert np.allclose(x, b / d, atol=1e-12)


def test_estimate_monotone_in_iterations():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    d = np.linspace(1.0, 50.0, 30)
    A = Q @ np.diag(d) @ Q.T
    b = rng.standard_normal(30)
    # harvest scalar sequences by rerunning with increasing max_iter
    estimates = []
    for k in range(1, 12):
        _, report = cg(lambda v: A @ v, b, tol=0.0, max_iter=k)
        estimates.append(report.kappa_estimate)
    assert all(e2 >= e1 - 1e-10 for e1, e2 in zip(estimates, estimates[1:]))
    # never exceeds the true condition number (interlacing)
    _, full = cg(lambda v: A @ v, b, tol=1e-13)
    assert full.kappa_estimate <= 50.0 * (1 + 1e-6)


def test_lanczos_estimate_edge_cases():
    assert lanczos_condition_estimate([0.5], []) == 1.0
    with pytest.raises(ValueError):
        lanczos_condition_estimate([], [])
    with pytest.raises(ValueError):
        lanczos_condition_estimate([0.5, 0.5], [])


def test_preconditioned_cg_spd_preconditioner():
    rng = np.random.default_rng(1)
    n = 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.linspace(1.0, 500.0, n)
    A = Q @ np.diag(d) @ Q.T
    b = rng.standard_normal(n)
    dinv = 1.0 / np.diag(A)
    x_pre, rep_pre = cg(lambda v: A @ v, b, apply_m=lambda r: dinv * r, tol=1e-10)
    x_ref = np.linalg.solve(A, b)
    assert np.allclose(x_pre, x_ref, atol=1e-7)
    assert rep_pre.converged


def test_true_residual_consistency():
    rng = np.random.default_rng(2)
    n = 50
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x, report = cg(lambda v: A @ v, b, tol=1e-10)
    true_res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    recursive = report.relative_residuals[-1]
    assert abs(true_res - recursive) <= 1e-6 * max(true_res, recursive) + 1e-15


def test_max_iter_reported_not_raised():
    d = np.linspace(1.0, 1e4, 200)
    b = np.ones(200)
    _, report = cg(diag_apply(d), b, tol=1e-14, max_iter=5)
    assert not report.converged
    assert report.iterations == 5


def test_negative_curvature_sets_flag():
    d = np.array([1.0, -1.0])
    _, report = cg(diag_apply(d), np.array([1.0, 1.0]), tol=1e-12)
    assert report.spd_suspect
    assert not report.converged


def test_indefinite_preconditioner_sets_flag():
    A = np.diag([1.0, 2.0, 3.0])
    M = np.diag([1.0, -5.0, 1.0])
    b = np.array([0.1, 1.0, 0.2])
    _, report = cg(lambda v: A @ v, b, apply_m=lambda r: M @ r, tol=1e-12)
    assert report.spd_suspect


def test_fcg_reduces_to_cg_with_fixed_preconditioner():
    rng = np.random.default_rng(3)
    n = 60
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    dinv = 1.0 / np.diag(A)
    prec = lambda r: dinv * r
    x1, r1 = cg(lambda v: A @ v, b, apply_m=prec, tol=1e-11)
    x2, r2 = fcg(lambda v: A @ v, b, apply_m=prec, tol=1e-11)
    assert abs(r1.iterations - r2.iterations) <= 1
    assert np.linalg.norm(x1 - x2) <= 1e-8 * np.linalg.norm(x1)
    assert r2.kappa_estimate == pytest.approx(r1.kappa_estimate, rel=1e-6)


def test_fcg_with_variable_preconditioner_converges():
    rng = np.random.default_rng(5)
    n = 50
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    calls = {"k": 0}

    def wobbly_prec(r):
        calls["k"] += 1
        scale = 1.0 + 0.2 * ((calls["k"] % 3) - 1)
        return scale * r / np.diag(A)

    x, report = fcg(lambda v: A @ v, b, apply_m=wobbly_prec, tol=1e-10)
    assert report.converged
    assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_zero_rhs():
    x, report = cg(lambda v: v, np.zeros(5))
    assert report.converged and report.iterations == 0
    assert np.all(x == 0.0)


def test_residual_history_csv(tmp_path):
    d = np.linspace(1.0, 20.0, 30)
    _, report = cg(diag_apply(d), np.ones(30), tol=1e-10)
    path = tmp_path / "res.csv"
    report.write_residual_history(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,relres"
    assert len(lines) == len(report.relative_residuals) + 1
    last = float(lines[-1].split(",")[1])
    assert last <= 1e-10


@pytest.mark.parametrize("solver", [cg, fcg])
def test_nan_matvec_stops_at_once(solver):
    # NaN fails both the <p, Ap> <= 0 test and the tolerance test; without a
    # finiteness check the iteration would run to max_iter
    x, report = solver(lambda v: np.full_like(v, np.nan), np.ones(4), tol=1e-10)
    assert report.non_finite
    assert not report.converged and not report.spd_suspect
    assert report.iterations <= 1


@pytest.mark.parametrize("solver", [cg, fcg])
def test_nan_preconditioner_stops_at_once(solver):
    calls = {"k": 0}

    def prec(r):
        calls["k"] += 1
        return r if calls["k"] < 3 else np.full_like(r, np.nan)

    d = np.linspace(1.0, 10.0, 10)
    _, report = solver(diag_apply(d), np.ones(10), apply_m=prec, tol=1e-12)
    assert report.non_finite and not report.converged
    assert report.iterations == 2


@pytest.mark.parametrize("solver", [cg, fcg])
def test_healthy_solve_not_flagged_non_finite(solver):
    d = np.linspace(1.0, 10.0, 10)
    _, report = solver(diag_apply(d), np.ones(10), tol=1e-12)
    assert report.converged and not report.non_finite


@pytest.mark.parametrize("solver", [cg, fcg])
def test_each_step_applies_the_preconditioner_once(solver):
    calls = {"a": 0, "m": 0}

    def apply_a(v):
        calls["a"] += 1
        return np.linspace(1.0, 1e4, 200) * v

    def apply_m(r):
        calls["m"] += 1
        return r.copy()

    # converged, stopped by max_iter, and no step at all
    for tol, max_iter in ((1e-6, None), (1e-14, 5), (1e-14, 0)):
        calls.update(a=0, m=0)
        _, report = solver(apply_a, np.ones(200), apply_m=apply_m, tol=tol, max_iter=max_iter)
        assert report.converged == (max_iter is None)
        assert calls == {"a": report.iterations, "m": report.iterations}
    assert report.iterations == 0


def test_condition_estimate_is_computed_on_first_read(monkeypatch):
    from sgfem import krylov
    calls = []
    original = krylov.lanczos_condition_estimate

    def spy(alphas, betas):
        calls.append(len(alphas))
        return original(alphas, betas)

    monkeypatch.setattr(krylov, "lanczos_condition_estimate", spy)
    d = np.arange(1.0, 11.0)
    _, report = cg(diag_apply(d), np.ones(10), tol=1e-14, max_iter=10)
    assert calls == []
    assert report.kappa_estimate == pytest.approx(10.0, rel=1e-8)
    assert report.kappa_estimate == original(report.alphas, report.betas[:9])
    assert calls == [10]


@pytest.mark.parametrize("solver", [cg, fcg])
def test_a_preconditioner_returning_its_argument_changes_no_iterate(solver):
    # apply_m(r) is r itself, which the loop then updates in place: every
    # iterate, coefficient and residual equals that of apply_m=None, bit for
    # bit, and b is not written
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    A = Q @ np.diag(np.linspace(1.0, 300.0, 40)) @ Q.T
    b = rng.standard_normal(40)
    b0 = b.copy()
    for max_iter in range(1, 30):
        x, report = solver(lambda v: A @ v, b, apply_m=lambda r: r, tol=1e-12,
                           max_iter=max_iter)
        y, ref = solver(lambda v: A @ v, b, tol=1e-12, max_iter=max_iter)
        assert np.array_equal(x, y), max_iter
        assert (report.alphas, report.betas, report.relative_residuals) == (
            ref.alphas, ref.betas, ref.relative_residuals)
        assert np.array_equal(b, b0)


class PairedJacobi:
    """Jacobi preconditioner of a dense A that pairs with ``apply_a`` alone:
    its step returns (z, A z) without calling apply_a."""

    def __init__(self, A, apply_a):
        self.A, self.apply_a, self.steps = A, apply_a, 0

    def __call__(self, r):
        return r / np.diag(self.A)

    def paired(self, apply_a):
        if apply_a is not self.apply_a:
            return None

        def step(r):
            self.steps += 1
            z = self(r)
            return z, self.A @ z

        return step


@pytest.mark.parametrize("solver", [cg, fcg])
def test_a_paired_preconditioner_replaces_the_operator_apply(solver):
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    A = Q @ np.diag(np.linspace(1.0, 500.0, 60)) @ Q.T + np.diag(np.linspace(1, 50, 60))
    b = rng.standard_normal(60)
    calls = []

    def apply_a(v):
        calls.append(1)
        return A @ v

    prec = PairedJacobi(A, apply_a)
    x, report = solver(apply_a, b, apply_m=prec, tol=1e-10)
    assert calls == [] and prec.steps == report.iterations and report.converged
    # any other apply_a takes the explicit product every step
    y, ref = solver(lambda v: apply_a(v), b, apply_m=prec, tol=1e-10)
    assert len(calls) == ref.iterations and prec.steps == report.iterations
    assert report.iterations == ref.iterations
    assert report.kappa_estimate == pytest.approx(ref.kappa_estimate, rel=1e-10)
    assert np.linalg.norm(x - y) <= 1e-8 * np.linalg.norm(y)
