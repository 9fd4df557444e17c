"""Configuration-driven experiment runner for the convergence sweeps.

A single experiment builds the discretized problem from an ExperimentConfig,
runs the selected Krylov solver and preconditioner, and reports iterations,
condition estimate and block work counts.  Table sweeps rebuild the operator
once per row and run all four solver columns on it, writing CSV and Markdown
artifacts side by side; where reference data is embedded a diff column is
appended, and iteration diffs on the rows covered by the acceptance suite are
enforced (see reference module for which ones).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from math import comb, isfinite

import numpy as np
import scipy.linalg as sla

from . import krylov, reference
from .fem import assemble_load, build_mesh
from .kle import (CovarianceSpec, KLExpansion, build_kl_expansion,
                  eig_2d_separable)
from .lognormal import LognormalFieldSpec, build_lognormal_operator
from .multi_index import build_multi_index_set
from .operator import (DENSE_ASSEMBLY_LIMIT, GalerkinOperator, InnerSolver,
                       build_uniform_operator)
from .precond import HierarchicalSchur, make_preconditioner, work_count

INNER_POLICIES = {
    "exact": InnerSolver(kind="exact"),
    "cg-diagonal": InnerSolver(kind="cg"),
}

CHOICES = {
    "distribution": ("uniform", "lognormal"),
    "preconditioner": reference.PRECONDITIONER_ORDER,
    "inner": tuple(INNER_POLICIES),
    "krylov": ("cg", "fcg"),
}


def _described(default, text: str):
    return field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class ExperimentConfig:
    """One solver run; field names double as config-file keys and CLI flags,
    the annotations give their types, CHOICES the values of the strings and
    the metadata the help of the flags."""

    distribution: str = "uniform"
    N: int = _described(4, "stochastic dimensions")
    P: int = _described(4, "polynomial degree")
    h: float = _described(0.1, "element size (1/h integer)")
    k0: float = _described(1.0, "coefficient mean")
    cov: float = _described(0.5, "coefficient of variation (uniform: sigma = cov * k0)")
    L: float = _described(0.5, "correlation length")
    preconditioner: str = "hs"
    inner: str = "exact"                 # see INNER_POLICIES
    krylov: str = "cg"
    tol: float = 1e-8
    max_iter: int | None = None

    def validate(self) -> None:
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"unknown {key} {value!r}; choose from {list(allowed)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.N < 1 or self.P < 0:
            raise ValueError(f"need N >= 1, P >= 0, got N={self.N}, P={self.P}")
        if self.k0 <= 0:
            raise ValueError(f"k0 must be positive, got {self.k0}")
        if self.cov < 0:
            raise ValueError(f"cov must be non-negative, got {self.cov}")
        if self.cov == 0 and self.distribution == "lognormal":
            raise ValueError(f"cov must be positive for a lognormal coefficient, got {self.cov}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        build_mesh(self.h)  # validates 1/h


@dataclass
class TableRow:
    """One sweep row: (iterations, kappa) per preconditioner column."""

    sweep: float
    ndof: int
    results: dict = field(default_factory=dict)   # kind -> (iter, kappa)
    flags: list = field(default_factory=list)


def build_operator(config: ExperimentConfig) -> GalerkinOperator:
    config.validate()
    mesh = build_mesh(config.h)
    if config.distribution == "uniform":
        if config.cov == 0.0:
            # deterministic limit: mean only, zero fluctuation fields
            kl = KLExpansion(np.zeros(config.N),
                             np.zeros((config.N, mesh.n_nodes)), config.k0)
        else:
            spec = CovarianceSpec(sigma=config.k0 * config.cov, corr_length=config.L)
            kl = build_kl_expansion(spec, config.N, config.k0, mesh.node_coords)
        basis = build_multi_index_set(config.N, config.P)
        return build_uniform_operator(mesh, kl, basis)
    spec = LognormalFieldSpec(mean=config.k0, cov=config.cov,
                              corr_length=config.L)
    return build_lognormal_operator(spec, mesh, config.N, config.P)


def run_experiment(config: ExperimentConfig,
                   op: GalerkinOperator | None = None) -> krylov.SolveReport:
    """Run one configuration and report the solve."""
    if op is None:
        op = build_operator(config)
    # the paper's load f = 1
    b = op.rhs(assemble_load(build_mesh(config.h), 1.0)).ravel()
    prec = make_preconditioner(op, config.preconditioner,
                               INNER_POLICIES[config.inner], config.tol)
    solver = krylov.cg if config.krylov == "cg" else krylov.fcg
    x, report = solver(op.matvec, b, apply_m=prec, tol=config.tol,
                       max_iter=config.max_iter)
    if prec is not None:
        report.work = prec.counters.__dict__.copy()
    return report


# ---------------------------------------------------------------------------
# table sweeps
# ---------------------------------------------------------------------------

_BASE_UNIFORM = ExperimentConfig(distribution="uniform", N=4, P=4, h=0.1, cov=0.5)
_BASE_LOGNORMAL = ExperimentConfig(distribution="lognormal", N=4, P=4, h=0.1, cov=1.0)

TABLE_SWEEPS = {
    "T1": (_BASE_UNIFORM, "N", [1, 2, 3, 4, 5, 6, 7, 8]),
    "T2": (_BASE_UNIFORM, "P", [1, 2, 3, 4, 5, 6, 7, 8]),
    "T3": (_BASE_UNIFORM, "cov", [0.05, 0.15, 0.25, 0.35, 0.45, 0.55]),
    "T4": (_BASE_UNIFORM, "h", [5, 10, 15, 20, 25, 30]),
    "T5": (_BASE_LOGNORMAL, "N", [1, 2, 3, 4]),
    "T6": (_BASE_LOGNORMAL, "P", [1, 2, 3, 4]),
    "T7": (_BASE_LOGNORMAL, "cov", [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]),
    "T8": (_BASE_LOGNORMAL, "h", [5, 10, 15, 20, 25, 30]),
}

# rows on which preconditioned iteration diffs are enforced, with the allowed
# absolute deviation and the columns covered; everything else is informational
# (the lognormal construction is under-specified upstream, so only the
# hierarchical column is held to the reference there)
ENFORCED_ITER_TOL = {
    "T1": ({1, 2, 3, 4}, 2, ("mean", "bsgs", "hs")),
    "T2": ({1, 2, 3, 4}, 2, ("mean", "bsgs", "hs")),
    "T5": ({1, 2}, 3, ("hs",)),
}
# sweep rows where the hierarchical preconditioner must take 6 or 7 iterations
ENFORCED_HS_RANGE = {"T4": {5, 10, 15}}


def _sweep_config(base: ExperimentConfig, variable: str, value) -> ExperimentConfig:
    if variable == "h":
        return replace(base, h=1.0 / value)
    return replace(base, **{variable: value})


def run_row(config: ExperimentConfig, kinds=reference.PRECONDITIONER_ORDER,
            sweep_value=None) -> TableRow:
    """Build the operator once and solve with each preconditioner column."""
    op = build_operator(config)
    row = TableRow(sweep=sweep_value, ndof=op.shape[0])
    for kind in kinds:
        cfg = replace(config, preconditioner=kind)
        report = run_experiment(cfg, op=op)
        row.results[kind] = (report.iterations, report.kappa_estimate)
        if report.spd_suspect:
            row.flags.append(f"{kind}: not guaranteed (indefiniteness detected)")
        if report.non_finite:
            row.flags.append(f"{kind}: stopped (non-finite value)")
        elif not report.converged and not report.spd_suspect:
            row.flags.append(f"{kind}: max_iter reached")
    return row


def run_table(name: str, out_dir: str | None = None):
    """Run one sweep table; returns (rows, violations, artifact paths)."""
    if name == "work_counts":
        return _work_count_table(out_dir)
    if name == "eigs":
        return _eigs_table(out_dir)
    if name not in TABLE_SWEEPS:
        raise ValueError(f"unknown table {name!r}; choose from "
                         f"{sorted(TABLE_SWEEPS) + ['work_counts', 'eigs']}")
    base, variable, values = TABLE_SWEEPS[name]
    rows = []
    violations = []
    for value in values:
        cfg = _sweep_config(base, variable, value)
        sweep_key = value if variable != "cov" else int(round(100 * value))
        row = run_row(cfg, sweep_value=sweep_key)
        rows.append(row)
        violations.extend(_check_row(name, sweep_key, row))
    return rows, violations, _write_table(name, variable, rows, out_dir)


def _check_row(name: str, sweep_key, row: TableRow) -> list[str]:
    out = []
    ref = reference.reference_row(name, sweep_key)
    if ref is None:
        return out
    if row.ndof != ref["ndof"]:
        out.append(f"{name}[{sweep_key}]: ndof {row.ndof} != reference {ref['ndof']}")
    enforced = ENFORCED_ITER_TOL.get(name)
    if enforced and sweep_key in enforced[0]:
        _, tol, kinds = enforced
        for kind in kinds:
            got = row.results[kind][0]
            want = ref[kind][0]
            if abs(got - want) > tol:
                out.append(f"{name}[{sweep_key}] {kind}: {got} iterations vs "
                           f"reference {want} (allowed +-{tol})")
    hs_rows = ENFORCED_HS_RANGE.get(name)
    if hs_rows and sweep_key in hs_rows:
        got = row.results["hs"][0]
        if got not in (6, 7):
            out.append(f"{name}[{sweep_key}] hs: {got} iterations, expected 6 or 7")
    if name in ("T5", "T6", "T7", "T8"):
        it_hs = row.results["hs"][0]
        it_bsgs = row.results["bsgs"][0]
        it_mean = row.results["mean"][0]
        if not (it_hs <= it_bsgs <= it_mean):
            out.append(f"{name}[{sweep_key}]: ordering hs <= bsgs <= mean "
                       f"violated ({it_hs}/{it_bsgs}/{it_mean})")
    return out


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _write_artifacts(out_dir, name: str, header: list, rows: list) -> list:
    """Write ``<name>.csv`` and ``<name>.md`` of the string cells ``rows``
    under ``header``; returns the two paths, none without an out_dir."""
    if not out_dir:
        return []
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    md_path = os.path.join(out_dir, f"{name}.md")
    with open(csv_path, "w") as fh:
        fh.writelines(",".join(cells) + "\n" for cells in [header, *rows])
    with open(md_path, "w") as fh:
        fh.write("| " + " | ".join(header) + " |\n" + "|" + "---|" * len(header) + "\n")
        fh.writelines("| " + " | ".join(cells) + " |\n" for cells in rows)
    return [csv_path, md_path]


def _write_table(name: str, variable: str, rows: list[TableRow], out_dir):
    has_ref = name in reference.TABLES
    header = [variable, "ndof"]
    for kind in reference.PRECONDITIONER_ORDER:
        header += [f"iter_{kind}", f"kappa_{kind}"]
        if has_ref:
            header += [f"ref_iter_{kind}", f"diff_iter_{kind}"]
    lines = []
    for row in rows:
        cells = [str(row.sweep), str(row.ndof)]
        ref = reference.reference_row(name, row.sweep) if has_ref else None
        for kind in reference.PRECONDITIONER_ORDER:
            it, kappa = row.results[kind]
            cells += [str(it), _fmt(kappa)]
            if has_ref:
                if ref is not None:
                    cells += [str(ref[kind][0]), str(it - ref[kind][0])]
                else:
                    cells += ["", ""]
        lines.append(cells)
    return _write_artifacts(out_dir, name, header, lines)


def _work_count_table(out_dir):
    rows = []
    violations = []
    for r in range(1, 9):
        wc = work_count(r, 4)
        other = work_count(4, r)
        if wc.as_dict() != other.as_dict():
            violations.append(f"work_counts[{r}]: N-sweep and P-sweep disagree")
        ref = reference.WORK_COUNTS[r]
        got = (wc.n_b, wc.n_db, wc.n_m, wc.n_ds)
        if got != ref:
            violations.append(f"work_counts[{r}]: {got} != reference {ref}")
        rows.append(got)
    paths = _write_artifacts(out_dir, "work_counts", ["N_or_P", "n_b", "n_db", "n_m", "n_ds"],
                             [[str(v) for v in (r, *row)] for r, row in enumerate(rows, start=1)])
    return rows, violations, paths


def _eigs_table(out_dir, n_modes: int = 15):
    spec = CovarianceSpec(sigma=1.0, corr_length=0.5)
    modes = eig_2d_separable(spec, n_modes)
    lams = [m[0] for m in modes]
    violations = []
    if any(lams[i] < lams[i + 1] for i in range(len(lams) - 1)):
        violations.append("eigs: eigenvalues not monotone decreasing")
    paths = _write_artifacts(out_dir, "eigs", ["index", "lambda"],
                             [[str(i), f"{lam:.17g}"] for i, lam in enumerate(lams, start=1)])
    return lams, violations, paths


# ---------------------------------------------------------------------------
# spectral-equivalence diagnostic
# ---------------------------------------------------------------------------

@dataclass
class SpectralDiagnostic:
    """Per-level equivalence constants and the product condition bound."""

    levels: list                 # (level, c1, c2) for level = 0..P-1
    bound: float
    kappa: float

    @property
    def satisfied(self) -> bool:
        return self.kappa <= self.bound * (1.0 + 1e-6)


def spectral_diagnostic(config: ExperimentConfig) -> SpectralDiagnostic:
    """Dense check that the measured condition number obeys the product bound.

    Refuses a system above DENSE_ASSEMBLY_LIMIT before building anything.
    Assembles the hierarchy matrices densely, computes the extreme
    generalized eigenvalues of (S_l, A_l) per level, their ratio product, and
    the condition number of the exactly-solved hierarchical preconditioner
    applied to the full matrix.
    """
    config.validate()
    n = comb(config.N + config.P, config.P) * build_mesh(config.h).n_nodes
    if n > DENSE_ASSEMBLY_LIMIT:
        raise ValueError(f"spectral diagnostic needs dense assembly; dimension "
                         f"{n} exceeds the limit {DENSE_ASSEMBLY_LIMIT}")
    op = build_operator(config)
    A = op.dense()
    sizes = [m * op.ndof for m in op.basis.degree_offsets[1:]]
    levels = []
    bound = 1.0
    for l in range(op.basis.degree - 1, -1, -1):
        nl, nl1 = sizes[l], sizes[l + 1]
        Al = A[:nl, :nl]
        B = A[:nl, nl:nl1]
        C = A[nl:nl1, :nl]
        D = A[nl:nl1, nl:nl1]
        Sl = Al - B @ np.linalg.solve(D, C)
        mu = sla.eigh(Sl, Al, eigvals_only=True)
        levels.append((l, float(mu[0]), float(mu[-1])))
        bound *= mu[-1] / mu[0]
    prec = HierarchicalSchur(op, InnerSolver(kind="exact"))
    M = np.column_stack([prec(e) for e in np.eye(n)])
    ev = np.sort(np.real(np.linalg.eigvals(M @ A)))
    kappa = float(ev[-1] / ev[0])
    levels.sort()
    return SpectralDiagnostic(levels, float(bound), kappa)
