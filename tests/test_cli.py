import pytest
from scipy.linalg import LinAlgError

from sgfem import cli, experiments
from sgfem.operator import InnerSolveError, InnerSolver


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "distribution = uniform\n"
        "N = 2\n"
        "P = 1\n"
        "h = 0.25\n"
        "cov = 0.3   # inline comment\n"
        "preconditioner = hs\n"
    )
    values = cli.parse_config_file(str(cfg))
    assert values == {"distribution": "uniform", "N": 2, "P": 1, "h": 0.25,
                      "cov": 0.3, "preconditioner": "hs"}


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    with pytest.raises(ValueError):
        cli.parse_config_file(str(bad))
    bad.write_text("unknown_key = 3\n")
    with pytest.raises(ValueError):
        cli.parse_config_file(str(bad))


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 2\nP = 1\nh = 0.25\npreconditioner = mean\n")
    args = cli.make_parser().parse_args(
        ["run", "--config", str(cfg), "--preconditioner", "hs"])
    config = cli.build_config(args)
    assert config.preconditioner == "hs"
    assert config.N == 2 and config.P == 1


def test_single_run_exit_zero(tmp_path, capsys):
    rc = cli.main(["run", "--N", "2", "--P", "1", "--h", "0.25",
                   "--preconditioner", "hs", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "iterations=" in out and "converged=True" in out
    res = (tmp_path / "residuals.csv").read_text().splitlines()
    assert res[0] == "iter,relres"


def test_table_run_exit_zero(tmp_path, capsys):
    rc = cli.main(["run", "--table", "work_counts", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_b=350" in out
    assert (tmp_path / "work_counts.csv").exists()
    assert (tmp_path / "work_counts.md").exists()


def test_table_diff_failure_exit_two(monkeypatch, capsys):
    from sgfem import experiments
    monkeypatch.setitem(experiments.TABLE_SWEEPS, "T1",
                        (experiments.TABLE_SWEEPS["T1"][0], "N", [1]))
    # poison the reference so the diff check trips
    import sgfem.reference as reference
    bad = dict(reference.TABLE_T1)
    bad[1] = (605, 173, 1965.4, 40, 2.0127, 5, 1.0507, 5, 1.0465)
    monkeypatch.setitem(reference.TABLES, "T1", bad)
    monkeypatch.setattr(reference, "TABLE_T1", bad)
    rc = cli.main(["run", "--table", "T1"])
    assert rc == 2
    assert "DIFF" in capsys.readouterr().err


def test_solver_failure_exit_one(capsys):
    rc = cli.main(["run", "--N", "2", "--P", "1", "--h", "0.25",
                   "--preconditioner", "none", "--max-iter", "2"])
    assert rc == 1


@pytest.mark.parametrize("error", [InnerSolveError(3, 0.5, "inner cg"),
                                   LinAlgError("singular level matrix")])
def test_solver_error_exit_one_without_traceback(monkeypatch, capsys, error):
    def failing_run(config):
        raise error

    monkeypatch.setattr(cli, "run_experiment", failing_run)
    rc = cli.main(["run", "--N", "2", "--P", "1", "--h", "0.25"])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {error}"


def test_stalled_inner_solve_exit_one(monkeypatch, capsys):
    # one inner CG step cannot reach the tolerance: the block solve stalls
    monkeypatch.setitem(experiments.INNER_POLICIES, "cg-none",
                        InnerSolver(kind="cg", precond="none", maxiter=1))
    rc = cli.main(["run", "--N", "2", "--P", "1", "--h", "0.25",
                   "--preconditioner", "bsgs", "--inner", "cg-none"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inner solve for block") and "(inner cg)" in err


def test_usage_error_exit_one(capsys):
    rc = cli.main(["run", "--N", "0"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unknown_preconditioner_in_config_file_exit_one_before_build(tmp_path, monkeypatch,
                                                                   capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 2\nP = 1\nh = 0.25\npreconditioner = schur\n")

    def no_build(*args, **kwargs):
        raise AssertionError("operator built for an invalid configuration")

    monkeypatch.setattr(experiments, "build_uniform_operator", no_build)
    rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown preconditioner 'schur'")


def test_diag_spectral(capsys):
    rc = cli.main(["diag", "--spectral", "--N", "2", "--P", "2", "--h", "0.25"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bound=" in out and "ok=True" in out
    assert out.count("level") == 2


def test_diag_requires_mode(capsys):
    rc = cli.main(["diag"])
    assert rc == 1
