import numpy as np
import pytest

from sgfem import experiments
from sgfem.experiments import (ExperimentConfig, build_operator, run_experiment,
                               run_row, run_table, spectral_diagnostic)


def test_config_validation():
    ExperimentConfig().validate()
    with pytest.raises(ValueError):
        ExperimentConfig(distribution="weibull").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(N=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(h=0.3).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(inner="lu").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(krylov="gmres").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(tol=-1.0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(rhs="sinus").validate()


def test_cov_sets_sigma():
    cfg = ExperimentConfig(k0=2.0, cov=0.25)
    assert cfg.sigma_value == 0.5
    cfg2 = ExperimentConfig(k0=2.0, cov=0.25, sigma=0.1)
    assert cfg2.sigma_value == 0.1


def test_ndof_bookkeeping():
    op = build_operator(ExperimentConfig(N=4, P=4, h=0.2))
    assert op.shape[0] == 2520
    op = build_operator(ExperimentConfig(N=1, P=4, h=0.1))
    assert op.shape[0] == 605


def test_zero_sigma_all_preconditioners_one_iteration():
    for kind in ("mean", "bsgs", "hs"):
        cfg = ExperimentConfig(N=2, P=2, h=0.25, sigma=0.0, preconditioner=kind)
        report = run_experiment(cfg)
        assert report.iterations == 1
        assert report.converged


def test_single_run_reference_row():
    # solver of the finest preconditioner on the smallest sweep row
    cfg = ExperimentConfig(N=1, P=4, h=0.1, cov=0.5, preconditioner="hs")
    report = run_experiment(cfg)
    assert abs(report.iterations - 5) <= 2
    assert report.kappa_estimate == pytest.approx(1.0465, rel=0.15)
    assert report.work is not None and report.work["block_solves"] > 0


def test_run_row_collects_all_columns():
    row = run_row(ExperimentConfig(N=2, P=2, h=0.25), sweep_value=2)
    assert set(row.results) == {"none", "mean", "bsgs", "hs"}
    assert row.work == {"n_b": 18, "n_db": 6, "n_m": 12, "n_ds": 11}
    # preconditioned columns never lose to the unpreconditioned run
    assert row.results["hs"][0] <= row.results["none"][0]


def test_random_rhs_deterministic_by_seed():
    cfg = ExperimentConfig(N=2, P=1, h=0.25, rhs="random", seed=5,
                           preconditioner="mean")
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.iterations == r2.iterations
    assert r1.relative_residuals == r2.relative_residuals


def test_work_counts_table(tmp_path):
    rows, violations, paths = run_table("work_counts", str(tmp_path))
    assert violations == []
    assert len(rows) == 8
    assert rows[3] == (350, 70, 280, 139)
    csv = (tmp_path / "work_counts.csv").read_text().strip().splitlines()
    assert csv[0] == "N_or_P,n_b,n_db,n_m,n_ds"
    assert len(csv) == 9
    assert (tmp_path / "work_counts.md").exists()


def test_eigs_table(tmp_path):
    lams, violations, paths = run_table("eigs", str(tmp_path))
    assert violations == []
    assert len(lams) == 15
    assert all(a >= b for a, b in zip(lams, lams[1:]))
    lines = (tmp_path / "eigs.csv").read_text().strip().splitlines()
    assert lines[0] == "index,lambda"
    assert len(lines) == 16


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        run_table("T9")


def test_table_artifacts_and_determinism(tmp_path):
    import dataclasses
    from sgfem import experiments
    # shrink T1 to two cheap rows for the artifact test
    small = (experiments.TABLE_SWEEPS["T1"][0], "N", [1, 2])
    orig = experiments.TABLE_SWEEPS["T1"]
    experiments.TABLE_SWEEPS["T1"] = small
    try:
        rows, violations, paths = run_table("T1", str(tmp_path / "a"))
        assert violations == []
        rows2, _, paths2 = run_table("T1", str(tmp_path / "b"))
    finally:
        experiments.TABLE_SWEEPS["T1"] = orig
    a = (tmp_path / "a" / "T1.csv").read_bytes()
    b = (tmp_path / "b" / "T1.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0].split(",")
    assert "ref_iter_hs" in header and "diff_iter_hs" in header
    md = (tmp_path / "a" / "T1.md").read_text().splitlines()
    assert md[0].startswith("|") and md[1].startswith("|---")


def test_check_row_flags_violations():
    from sgfem.experiments import TableRow, _check_row
    row = TableRow(sweep=1, ndof=605)
    row.results = {"none": (173, 1965.0), "mean": (40, 2.0),
                   "bsgs": (5, 1.05), "hs": (5, 1.04)}
    issues = _check_row("T1", 1, row)
    assert any("mean" in s for s in issues)
    # ordering violation on a lognormal table
    row2 = TableRow(sweep=1, ndof=605)
    row2.results = {"none": (585, 1.0), "mean": (10, 1.0),
                    "bsgs": (15, 1.0), "hs": (16, 1.0)}
    issues2 = _check_row("T5", 1, row2)
    assert any("ordering" in s for s in issues2)


def test_spectral_diagnostic_zero_coupling():
    diag = spectral_diagnostic(ExperimentConfig(N=2, P=2, h=0.25, sigma=0.0))
    assert diag.bound == pytest.approx(1.0, abs=1e-10)
    assert diag.kappa == pytest.approx(1.0, abs=1e-8)
    assert diag.satisfied


def test_spectral_diagnostic_bound_holds():
    diag = spectral_diagnostic(ExperimentConfig(N=2, P=2, h=0.25, cov=0.5))
    assert diag.satisfied
    assert diag.kappa > 1.0
    for _, c1, c2 in diag.levels:
        assert 0.0 < c1 <= c2
        assert c2 / c1 <= 1.5


def test_spectral_diagnostic_size_guard():
    with pytest.raises(ValueError):
        spectral_diagnostic(ExperimentConfig(N=4, P=4, h=0.1))


def test_spectral_diagnostic_refuses_before_building(monkeypatch):
    def no_build(config):
        raise AssertionError("operator built for a dense check it must refuse")

    monkeypatch.setattr(experiments, "build_operator", no_build)
    # lognormal N=8 P=6 h=1/50: 3003 blocks of 2601 nodes
    with pytest.raises(ValueError, match="exceeds the limit"):
        spectral_diagnostic(ExperimentConfig(distribution="lognormal", N=8, P=6, h=0.02))
