"""Golden rows: the mean, bsgs and hs columns of 28 fast table rows, pinned so
that a change to the numerics fails here and names the cells it moved.

The values are those of the sweeps with one BLAS thread, which
``conftest.py`` forces: under two, T8 1/h=5 mean reads 43 iterations, not 45.
Iterations compare exactly, the bsgs and hs condition estimates to the 4
decimals the table CSVs print, and the mean estimate, whose long Lanczos
run moves in the fifth digit under any rounding change, to 1e-4 relative.
T7 CoV 50 and 75 break the hs <= bsgs <= mean ordering that the sweep
checks (its two DIFF lines); they are pinned as they stand.  A change that
moves a cell updates this table with a decision recorded in CHANGES.md.
The benchmark's workloads are checked by its own gate, which compares
iterations exactly and condition estimates to ``rows.KAPPA_RTOL``.
"""
import importlib
from pathlib import Path

import pytest

from sgfem import experiments
from sgfem.experiments import TABLE_SWEEPS, _sweep_config, run_row

KINDS = ("mean", "bsgs", "hs")
MEAN_KAPPA_RTOL = 1e-4

# (table, sweep value): iterations and condition estimates, each (mean, bsgs, hs)
GOLDEN = {
    ("T1", 1): ((11, 4, 5), (1.9163367, 1.0468, 1.0346)),
    ("T1", 2): ((13, 5, 5), (2.5208328, 1.1066, 1.0836)),
    ("T1", 3): ((15, 6, 6), (2.8909255, 1.1565, 1.1302)),
    ("T1", 4): ((15, 6, 6), (3.0287821, 1.1743, 1.1457)),
    ("T1", 5): ((15, 6, 6), (3.1350632, 1.1884, 1.1583)),
    ("T1", 6): ((17, 7, 7), (3.6802609, 1.2651, 1.2335)),
    ("T1", 7): ((17, 7, 7), (3.8062129, 1.2838, 1.2498)),
    ("T1", 8): ((17, 7, 7), (3.7776223, 1.2805, 1.2468)),
    ("T2", 1): ((8, 4, 4), (1.5913271, 1.0538, 1.0180)),
    ("T2", 2): ((11, 5, 5), (2.1062347, 1.0918, 1.0674)),
    ("T2", 3): ((14, 6, 6), (2.5933971, 1.1354, 1.1106)),
    ("T2", 4): ((15, 6, 6), (3.0287821, 1.1743, 1.1457)),
    ("T2", 5): ((16, 6, 6), (3.4322657, 1.2092, 1.1773)),
    ("T3", 0.05): ((6, 2, 2), (1.093473, 1.0004, 1.0002)),
    ("T3", 0.55): ((17, 6, 7), (3.53225, 1.2328, 1.2074)),
    ("T4", 5): ((14, 5, 6), (2.7313617, 1.1338, 1.1153)),
    ("T4", 10): ((15, 6, 6), (3.0287821, 1.1743, 1.1457)),
    ("T4", 15): ((16, 6, 6), (3.205756, 1.1952, 1.1640)),
    ("T5", 1): ((40, 15, 15), (29.040334, 3.7519, 3.3545)),
    ("T5", 2): ((54, 16, 16), (35.573356, 3.9903, 3.6564)),
    ("T6", 1): ((13, 7, 5), (3.7009757, 1.4531, 1.1179)),
    ("T6", 2): ((26, 11, 9), (9.7496914, 2.1027, 1.6523)),
    ("T6", 3): ((40, 14, 13), (21.685714, 3.0882, 2.5459)),
    ("T7", 0.25): ((14, 5, 5), (3.0065945, 1.1338, 1.1170)),
    ("T7", 0.5): ((26, 8, 9), (8.5456889, 1.6737, 1.6110)),
    ("T7", 0.75): ((41, 12, 13), (20.762375, 2.7886, 2.5583)),
    ("T8", 5): ((45, 15, 14), (33.348143, 3.7541, 3.2755)),
    # the base lognormal row, N=4 P=4 h=1/10 CoV 1 (8470 dof), also T6 P=4
    ("T8", 10): ((58, 17, 17), (43.426962, 4.5863, 3.9975)),
}


def _row_id(key):
    table, value = key
    return f"{table}-{TABLE_SWEEPS[table][1]}={value}"


@pytest.mark.parametrize("table, value", list(GOLDEN), ids=list(map(_row_id, GOLDEN)))
def test_golden_row(table, value):
    base, variable, _ = TABLE_SWEEPS[table]
    results = run_row(_sweep_config(base, variable, value), kinds=KINDS).results
    iterations, kappas = GOLDEN[table, value]
    moved = []
    for kind, want_it, want_kappa in zip(KINDS, iterations, kappas):
        it, kappa = results[kind]
        if it != want_it:
            moved.append(f"iter_{kind} {it} != {want_it}")
        if kind == "mean":
            same = abs(kappa - want_kappa) <= MEAN_KAPPA_RTOL * want_kappa
        else:
            same = f"{kappa:.4f}" == f"{want_kappa:.4f}"
        if not same:
            moved.append(f"kappa_{kind} {kappa:.7g} != {want_kappa}")
    assert not moved, f"{table} {variable}={value}: " + "; ".join(moved)


def test_benchmark_workloads_pass_the_benchmark_gate(monkeypatch):
    # one row of each workload on the default seed, as the benchmark times
    # it, with a constant probe: the gate records no failure, so no
    # iteration count or condition estimate moved past rows.KAPPA_RTOL
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    rows = importlib.import_module("rows")
    assert sorted(rows.WORKLOADS) == ["lognormal", "uniform"]
    for name, workload in rows.WORKLOADS.items():
        config = workload.config
        b = rows.make_rhs(experiments.build_operator(config), config, rows.DEFAULT_SEED)
        gate = rows.Gate(workload, rows.DEFAULT_SEED)
        gate.check(rows.run_row(config, b, lambda: 1.0))
        assert (gate.attempted, gate.failures) == (len(rows.KINDS), []), name
