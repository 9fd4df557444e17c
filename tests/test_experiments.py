import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sgfem import experiments
from sgfem.experiments import (ExperimentConfig, TableRow, _write_table, build_operator,
                               run_experiment, run_row, run_table, spectral_diagnostic)
from sgfem.fem import build_mesh
from sgfem.kle import CovarianceSpec, build_kl_expansion
from sgfem.multi_index import build_multi_index_set
from sgfem.operator import build_uniform_operator
from sgfem.precond import WorkCount


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
        ExperimentConfig(inner="cg-none").validate()


def test_cov_sets_sigma():
    # the uniform operator of k0=2, cov=0.25 is the one of sigma=0.5, bit for bit
    op = build_operator(ExperimentConfig(N=2, P=2, h=0.25, k0=2.0, cov=0.25))
    mesh = build_mesh(0.25)
    kl = build_kl_expansion(CovarianceSpec(sigma=0.5, corr_length=0.5), 2, 2.0,
                            mesh.node_coords)
    ref = build_uniform_operator(mesh, kl, build_multi_index_set(2, 2))
    assert np.array_equal(op.data, ref.data)


def test_ndof_bookkeeping():
    op = build_operator(ExperimentConfig(N=4, P=4, h=0.2))
    assert op.shape[0] == 2520
    op = build_operator(ExperimentConfig(N=1, P=4, h=0.1))
    assert op.shape[0] == 605


def test_zero_sigma_all_preconditioners_one_iteration():
    for kind in ("mean", "bsgs", "hs"):
        cfg = ExperimentConfig(N=2, P=2, h=0.25, cov=0.0, preconditioner=kind)
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
    cfg = ExperimentConfig(N=2, P=2, h=0.25)
    row = run_row(cfg, sweep_value=2)
    assert set(row.results) == {"none", "mean", "bsgs", "hs"}
    assert WorkCount.of(build_operator(cfg).tensor).as_dict() == \
        {"n_b": 18, "n_db": 6, "n_m": 12, "n_ds": 11}
    # preconditioned columns never lose to the unpreconditioned run
    assert row.results["hs"][0] <= row.results["none"][0]


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def benchmark_workloads() -> dict:
    """``WORKLOADS`` of benchmarks/rows.py, imported from that file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))       # rows imports its siblings
        spec = importlib.util.spec_from_file_location("benchmark_rows",
                                                      BENCHMARKS / "rows.py")
        rows = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, rows)   # its dataclasses look it up
        spec.loader.exec_module(rows)
    return rows.WORKLOADS


@pytest.mark.parametrize("name", ["uniform", "lognormal"])
def test_benchmark_rows_give_their_recorded_iterations_and_kappa(benchmark_workloads, name):
    # the benchmark's correctness gate on seed 0 (the load f = 1): a rounding
    # change that moves a recorded value fails here first
    workload = benchmark_workloads[name]
    row = run_row(workload.config, kinds=tuple(workload.expected))
    for kind, (iterations, kappa) in workload.expected.items():
        got_iterations, got_kappa = row.results[kind]
        assert got_iterations == iterations, kind
        assert math.isclose(got_kappa, kappa, rel_tol=1e-6), kind
    assert row.flags == []


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
    assert paths == [str(tmp_path / "eigs.csv"), str(tmp_path / "eigs.md")]
    md = (tmp_path / "eigs.md").read_text().splitlines()
    assert md[:3] == ["| index | lambda |", "|---|---|", f"| 1 | {lams[0]:.17g} |"]
    assert len(md) == 17


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
    diag = spectral_diagnostic(ExperimentConfig(N=2, P=2, h=0.25, cov=0.0))
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


# ---------------------------------------------------------------------------
# the bytes every table writer must keep
# ---------------------------------------------------------------------------

WORK_COUNTS_CSV = """N_or_P,n_b,n_db,n_m,n_ds
1,13,5,8,9
2,55,15,40,29
3,155,35,120,69
4,350,70,280,139
5,686,126,560,251
6,1218,210,1008,419
7,2010,330,1680,659
8,3135,495,2640,989
"""

WORK_COUNTS_MD = """| N_or_P | n_b | n_db | n_m | n_ds |
|---|---|---|---|---|
| 1 | 13 | 5 | 8 | 9 |
| 2 | 55 | 15 | 40 | 29 |
| 3 | 155 | 35 | 120 | 69 |
| 4 | 350 | 70 | 280 | 139 |
| 5 | 686 | 126 | 560 | 251 |
| 6 | 1218 | 210 | 1008 | 419 |
| 7 | 2010 | 330 | 1680 | 659 |
| 8 | 3135 | 495 | 2640 | 989 |
"""

# the last digits of the eigenvalues move with the BLAS thread count, so the
# values are compared to 1e-13 and their lines to the writer's format
EIGS_HEAD = [0.33022876318737709, 0.11232832637583301, 0.11232832637583301,
             0.045124724473349975]

TABLE_HEADER = ("N,ndof,iter_none,kappa_none,ref_iter_none,diff_iter_none,"
                "iter_mean,kappa_mean,ref_iter_mean,diff_iter_mean,"
                "iter_bsgs,kappa_bsgs,ref_iter_bsgs,diff_iter_bsgs,"
                "iter_hs,kappa_hs,ref_iter_hs,diff_iter_hs")

TABLE_CSV = TABLE_HEADER + """
1,605,173,1965.0000,173,0,10,2.5000,12,-2,6,1.2500,5,1,5,1.0465,5,0
9,2000,300,3000.1235,,,11,2.0000,,,7,1.5000,,,6,1.0000,,
"""

TABLE_MD = ("| " + TABLE_HEADER.replace(",", " | ") + " |\n" + "|---" * 18 + "|\n" + """\
| 1 | 605 | 173 | 1965.0000 | 173 | 0 | 10 | 2.5000 | 12 | -2 | 6 | 1.2500 | 5 | 1 | 5 | 1.0465 | 5 | 0 |
| 9 | 2000 | 300 | 3000.1235 |  |  | 11 | 2.0000 |  |  | 7 | 1.5000 |  |  | 6 | 1.0000 |  |  |
""")


def test_work_counts_and_eigs_bytes(tmp_path):
    run_table("work_counts", str(tmp_path))
    lams, _, _ = run_table("eigs", str(tmp_path))
    assert (tmp_path / "work_counts.csv").read_bytes() == WORK_COUNTS_CSV.encode()
    assert (tmp_path / "work_counts.md").read_bytes() == WORK_COUNTS_MD.encode()
    assert lams[:4] == pytest.approx(EIGS_HEAD, rel=1e-13)
    lines = (tmp_path / "eigs.csv").read_bytes().split(b"\n")
    assert lines[:5] == [b"index,lambda"] + [f"{i},{lam:.17g}".encode()
                                             for i, lam in enumerate(lams[:4], start=1)]


def test_table_writer_bytes_with_and_without_reference_rows(tmp_path):
    # T1 has reference data for N=1 and none for N=9: its ref/diff cells are empty
    with_ref = TableRow(sweep=1, ndof=605, results={
        "none": (173, 1965.0), "mean": (10, 2.5), "bsgs": (6, 1.25), "hs": (5, 1.046512)})
    without_ref = TableRow(sweep=9, ndof=2000, results={
        "none": (300, 3000.123456), "mean": (11, 2.0), "bsgs": (7, 1.5), "hs": (6, 1.0)})
    paths = _write_table("T1", "N", [with_ref, without_ref], str(tmp_path))
    assert paths == [str(tmp_path / "T1.csv"), str(tmp_path / "T1.md")]
    assert (tmp_path / "T1.csv").read_bytes() == TABLE_CSV.encode()
    assert (tmp_path / "T1.md").read_bytes() == TABLE_MD.encode()
