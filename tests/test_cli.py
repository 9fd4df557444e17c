import argparse
import ast
import dataclasses
import re

import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError
from scipy.linalg import LinAlgError

from sgfem import cli, experiments, operator
from sgfem.operator import InnerSolveError


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


def test_config_file_bad_value_names_file_line_and_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("# N is an integer\nN = abc\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{bad}:2: N: invalid literal")):
        cli.parse_config_file(str(bad))
    rc = cli.main(["run", "--config", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [f"error: {bad}:2: N: invalid literal for int() "
                                "with base 10: 'abc'"]


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


def test_single_run_work_line_holds_only_the_preconditioner_counters(capsys):
    # one HS application on the deterministic limit: no block products, three
    # block solves; the closed forms of the tensor are work_count's, not a run's
    rc = cli.main(["run", "--N", "1", "--P", "1", "--h", "0.5", "--cov", "0"])
    work = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("work: "))
    assert rc == 0
    assert ast.literal_eval(work[len("work: "):]) == {
        "block_matvecs": 0, "block_solves": 3, "applications": 1}


def test_table_run_exit_zero(tmp_path, capsys):
    rc = cli.main(["run", "--table", "work_counts", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_b=350" in out
    assert (tmp_path / "work_counts.csv").exists()
    assert (tmp_path / "work_counts.md").exists()


@pytest.mark.parametrize("options, named", [
    (["--preconditioner", "foo", "--N", "0"], "--N, --preconditioner"),
    (["--max-iter", "5"], "--max-iter"),
    (["--config", "run.cfg"], "--config"),
])
def test_table_run_rejects_config_options(tmp_path, capsys, options, named):
    rc = cli.main(["run", "--table", "work_counts", "--out", str(tmp_path), *options])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert err.rstrip().endswith(f"takes no {named}")
    assert not (tmp_path / "work_counts.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--N", "1", "--P", "1", "--h", "0.5", "--out", "{file}"],
    ["run", "--table", "work_counts", "--out", "{file}"],
    ["run", "--N", "1", "--P", "1", "--h", "0.5", "--out", "{file}/sub"],
    ["run", "--config", "{dir}"],
])
def test_unusable_path_exit_one_before_any_run(argv, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    rc = cli.main([a.format(file=tmp_path / "file", dir=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert "iterations=" not in out and "wrote" not in out


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


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "error: out of memory"),
    (_ArrayMemoryError((10 ** 6, 10 ** 6), np.dtype(float)),
     "error: Unable to allocate 7.28 TiB for an array with shape "
     "(1000000, 1000000) and data type float64")])
def test_out_of_memory_exit_one_with_one_error_line(monkeypatch, capsys, error, line):
    def failing_run(config):
        raise error

    monkeypatch.setattr(cli, "run_experiment", failing_run)
    rc = cli.main(["run", "--N", "2", "--P", "1", "--h", "0.25"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_stalled_inner_solve_exit_one(monkeypatch, capsys):
    # one inner CG step cannot reach the tolerance: the block solve stalls
    monkeypatch.setattr(operator, "INNER_MAX_ITER", 1)
    rc = cli.main(["run", "--N", "2", "--P", "1", "--h", "0.25",
                   "--preconditioner", "bsgs", "--inner", "cg-diagonal"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inner solve for block") and "(inner cg)" in err


@pytest.mark.parametrize("preconditioner, named", [("hs", "level 2"),
                                                     ("bsgs", "diagonal block 1")])
def test_failed_band_cholesky_exit_one_naming_the_level_or_block(
        monkeypatch, capsys, preconditioner, named):
    # dpbtrf reports the leading minor of order 1 not positive definite: HS
    # meets it at its top level, BSGS at the first block of level 1
    monkeypatch.setattr(operator.lapack, "dpbtrf", lambda band, **kwargs: (band, 1))
    rc = cli.main(["run", "--distribution", "lognormal", "--N", "1", "--P", "2",
                   "--h", "0.25", "--preconditioner", preconditioner])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {named} is not positive definite (band Cholesky)"]


def test_usage_error_exit_one(capsys):
    rc = cli.main(["run", "--N", "0"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "--preconditioner", "foo"], ["run", "--N", "abc"],
                                  ["run", "--bogus", "1"], []])
def test_bad_invocation_exit_one_with_one_error_line(argv, capsys):
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


SMALL_RUN = ["--N", "1", "--P", "1", "--h", "0.5"]


@pytest.mark.parametrize("argv", [
    ["run", *SMALL_RUN, "--n-quad", "1000"],
    ["run", *SMALL_RUN, "--rhs", "load"],
    ["run", *SMALL_RUN, "--seed", "0"],
    ["run", *SMALL_RUN, "--inner", "cg-none"],
    ["diag", "--spectral", *SMALL_RUN],
], ids=["n-quad", "rhs", "seed", "inner-cg-none", "diag-spectral"])
def test_removed_flag_or_value_exit_one_with_one_error_line(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("line", ["n_quad = 1000", "rhs = load", "seed = 0"])
def test_removed_config_key_exit_one_naming_it(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 1\nP = 1\nh = 0.5\n" + line + "\n")
    rc = cli.main(["run", "--config", str(cfg)])
    key = line.split()[0]
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg}:4: unknown key {key!r}"]


BAD_VALUES = [("k0", "0", "uniform"), ("k0", "-1", "uniform"), ("cov", "-0.5", "uniform"),
              ("k0", "nan", "uniform"), ("cov", "nan", "uniform"), ("L", "nan", "uniform"),
              ("h", "nan", "uniform"), ("tol", "nan", "uniform"), ("max_iter", "-1", "uniform"),
              ("cov", "nan", "lognormal"), ("L", "0", "uniform"), ("L", "-0.5", "uniform"),
              ("L", "0", "lognormal"), ("cov", "0", "lognormal")]


@pytest.mark.parametrize("option,value,distribution", BAD_VALUES,
                         ids=[f"{o}-{v}" + (f"-{d}" if d != "uniform" else "")
                              for o, v, d in BAD_VALUES])
def test_bad_coefficient_exit_one_naming_the_option(option, value, distribution, capsys):
    # NaN passes every comparison, so each non-finite value is named on its own
    rc = cli.main(["run", "--N", "1", "--P", "1", "--h", "0.5", "--distribution", distribution,
                   f"--{option.replace('_', '-')}", value])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {option} must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text, option", [
    ("L = 0\n", "L"), ("distribution = lognormal\ncov = 0\n", "cov")])
def test_bad_coefficient_in_config_file_exit_one_naming_the_key(text, option, tmp_path,
                                                                capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 1\nP = 1\nh = 0.5\n" + text)
    rc = cli.main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {option} must be positive")


def _flags(command: str) -> set:
    sub = next(action for action in cli.make_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {action.dest for action in sub.choices[command]._actions} - {"help"}


def test_every_config_field_is_a_flag_and_a_key_and_nothing_else_is(monkeypatch, tmp_path):
    # a field added to the config needs no other edit
    config = dataclasses.make_dataclass("Config", [("omega", float, 2.0)], frozen=True,
                                        bases=(experiments.ExperimentConfig,))
    monkeypatch.setattr(cli, "ExperimentConfig", config)
    names = {f.name for f in dataclasses.fields(config)}
    assert _flags("run") == names | {"table", "config", "out"}
    assert _flags("diag") == names | {"config"}
    defaults = config()
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{name} = {getattr(defaults, name) or 1}\n" for name in names))
    values = cli.parse_config_file(str(cfg))
    assert set(values) == names
    args = cli.make_parser().parse_args(["run", "--config", str(cfg), "--omega", "3"])
    assert cli.build_config(args) == dataclasses.replace(defaults, **{**values, "omega": 3.0})


def _run_help(capsys) -> str:
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--help"])
    assert exit_.value.code == 0
    return capsys.readouterr().out


def test_run_help_usage_lists_the_choices(monkeypatch, capsys):
    out = _run_help(capsys)
    assert "[--preconditioner {none,mean,bsgs,hs}]" in out
    assert "[--inner {exact,cg-diagonal}]" in out
    # the usage reads the one list of allowed values
    monkeypatch.setitem(experiments.CHOICES, "krylov", ("cg", "fcg", "minres"))
    assert "[--krylov {cg,fcg,minres}]" in _run_help(capsys)


def test_flagged_table_column_printed_without_changing_exit_code(monkeypatch, capsys):
    base = dataclasses.replace(experiments.TABLE_SWEEPS["T3"][0], max_iter=2)
    monkeypatch.setitem(experiments.TABLE_SWEEPS, "T3", (base, "cov", [0.05]))
    rc = cli.main(["run", "--table", "T3"])
    assert rc == 0
    flags = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("FLAG ")]
    # bsgs and hs converge within two iterations at CoV 0.05
    assert flags == ["FLAG T3[5] none: max_iter reached",
                     "FLAG T3[5] mean: max_iter reached"]


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
    rc = cli.main(["diag", "--N", "2", "--P", "2", "--h", "0.25"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bound=" in out and "ok=True" in out
    assert out.count("level") == 2


def test_diag_default_config_exit_one_too_large_for_dense_assembly(capsys):
    rc = cli.main(["diag"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["error: spectral diagnostic needs dense assembly; "
                                "dimension 8470 exceeds the limit 2000"]
