"""Smoke test of the benchmark: every workload's code path at shrunken sizes.

Run with ``python3 -m pytest benchmarks/test_smoke.py`` from the repository
root; it takes a few seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.prepare()
import rows  # noqa: E402  (needs the source tree on sys.path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SHRUNK = {
    "uniform": dict(N=3, P=2, h=1 / 5),
    "lognormal": dict(N=2, P=2, h=1 / 5),
}


def _shrunk(name):
    """The workload's code path at the shrunken sizes, with no recorded values."""
    return rows.Workload(replace(rows.WORKLOADS[name].config, **SHRUNK[name]))


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_declared_workloads_and_metrics_match_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(rows.WORKLOADS)
    assert _declared("end_to_end") == rows.END_TO_END
    assert _declared("per_layer") == rows.PER_LAYER


@pytest.mark.parametrize("name", list(SHRUNK))
@pytest.mark.parametrize("seed", [rows.DEFAULT_SEED, 7])
def test_untraced_run_emits_end_to_end_metrics(name, seed):
    wl = _shrunk(name)
    res = rows.measure(wl, seed, seconds=0.0, trace=False)
    assert res["failed"] == 0, res["details"]["failures"]
    assert res["attempted"] == 3 * 4          # warm-up plus three repeats
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", list(SHRUNK))
def test_traced_run_emits_per_layer_metrics_covering_wall_time(name):
    wl = _shrunk(name)
    res = rows.measure(wl, rows.DEFAULT_SEED, seconds=0.0, trace=True)
    assert res["failed"] == 0, res["details"]["failures"]
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == _declared("per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert abs(m["trace.self_coverage"] - 1.0) <= rows.COVERAGE_TOL
    assert 0.0 < m["trace.root_self_share"] < 1.0
    for kind in rows.KINDS:
        assert m[f"precond.applications.{kind}"] > 0
        assert m[f"krylov.self_s.{kind}"] > 0
    assert m["operator.apply_calls"] == sum(m[f"krylov.iterations.{k}"]
                                            for k in rows.KINDS)
    if name == "lognormal":
        assert m["lognormal.level_solve_calls"] > 0
    else:
        assert m["operator.level_check_calls"] > 0


def test_phase_times_scale_by_the_probes_around_them():
    nominal = rows.hostspeed.NOMINAL_S
    row = rows.Row(setup_s=1.0, solve_s={"mean": 2.0, "bsgs": 3.0, "hs": 4.0},
                   probe_s=[nominal, 3 * nominal, nominal, 2 * nominal, 2 * nominal])
    assert rows.end_to_end_samples(row) == pytest.approx(
        {"setup_s": 0.5, "solve_s.mean": 1.0, "solve_s.bsgs": 2.0, "solve_s.hs": 2.0,
         "total_s": 5.5})


def test_gate_fails_an_operation_whose_iterations_moved():
    wl = _shrunk("uniform")
    first = rows.measure(wl, rows.DEFAULT_SEED, seconds=0.0, trace=False)
    its = first["details"]["iterations_kappa"]
    moved = dict(its, hs=(its["hs"][0] + 1, its["hs"][1]))
    res = rows.measure(rows.Workload(wl.config, moved), rows.DEFAULT_SEED,
                       seconds=0.0, trace=False)
    assert res["failed"] == 4 and not res["correct"]
    assert all(f["op"] == "hs" for f in res["details"]["failures"])


def test_traced_run_fails_when_an_entry_point_is_gone(monkeypatch):
    from sgfem import operator
    points = rows.spans.entry_points()
    gone = (operator.GalerkinOperator, "renamed_away", "operator.gone", None)
    monkeypatch.setattr(rows.spans, "entry_points", lambda: [*points, gone])
    res = rows.measure(_shrunk("uniform"), rows.DEFAULT_SEED, seconds=0.0, trace=True)
    assert not res["correct"] and res["failed"] == 1
    assert "GalerkinOperator.renamed_away" in res["details"]["failures"][0]["problems"][0]
    assert all(v["value"] is None for v in res["metrics"].values())


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
