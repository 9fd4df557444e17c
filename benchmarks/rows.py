"""Workloads, one timed table row, the correctness gate and the metrics.

A repeat is one table row as the paper times it: build the operator, set up
the mean-based, block symmetric Gauss-Seidel and hierarchical Schur
preconditioners, then solve with each to a relative residual of 1e-8.  Only
public sgfem functions are called.  A fixed probe (``hostspeed``) runs before
and after every phase, and the end-to-end times are the phases' wall times
scaled to the probe's nominal speed.  One operation is one solve; it fails when
it raises, does not converge, flags indefiniteness, leaves a true residual
above RESIDUAL_FACTOR * tol, breaks the closed-form hierarchical Schur work
counts (linear coefficient), or, on the default seed, moves an iteration
count or condition estimate away from the value recorded for its workload.
"""
from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

import hostspeed
import spans
from sgfem import experiments, fem, krylov, precond
from sgfem.experiments import ExperimentConfig

KINDS = ("mean", "bsgs", "hs")
DEFAULT_SEED = 0        # the paper's load f = 1; other seeds draw a random rhs
TOL = 1e-8
# CG stops on its recursive residual; the recomputed one may drift above it
RESIDUAL_FACTOR = 10.0
KAPPA_RTOL = 1e-6
# repeats a run makes however short its --seconds
MIN_REPEATS = 3
# per-layer self times must account for the traced row time to within this
COVERAGE_TOL = 0.10
# the ExperimentConfig fields a row reads; the rest select a single solve
CONFIG_KEYS = ("distribution", "N", "P", "h", "k0", "sigma", "cov", "L", "tol", "n_quad")


@dataclass(frozen=True)
class Workload:
    config: ExperimentConfig
    # column -> (iterations, kappa) measured on the default seed
    expected: dict | None = None


# Two workloads, so that each run can be long (50 s) within the time allowed
# for all runs: on a shared 2-core host the CPU speed drifts by up to 1.45x
# over tens of seconds, and even with the probe scaling runs of 30 s left
# lognormal's figures spreading by about 0.1.  The spatial-layer workload
# (N=2, P=2, h=1/200, 242,406 dof) was dropped for this; the spatial layers
# are still traced on both workloads.
WORKLOADS = {
    # row 8 of T1: 495 blocks of 121 dof, 9 coefficient matrices, diagonal
    # levels; time goes to per-block stochastic bookkeeping
    "uniform": Workload(
        ExperimentConfig(distribution="uniform", N=8, P=4, h=0.1, cov=0.5, tol=TOL),
        {"mean": (17, 3.777622308345807), "bsgs": (7, 1.280494804365803),
         "hs": (7, 1.246842444490578)}),
    # 35 blocks, 210 coefficient matrices, dense block pattern and coupled
    # levels; time goes to coefficient loops and the level LU path.  P=4 (the
    # T5 base) has the same mechanism at several times the cost per row.
    "lognormal": Workload(
        ExperimentConfig(distribution="lognormal", N=4, P=3, h=0.1, cov=1.0, tol=TOL),
        {"mean": (40, 21.68571406730536), "bsgs": (14, 3.0882140943546004),
         "hs": (13, 2.5459058222548996)}),
}

END_TO_END = {"setup_s": "s", **{f"solve_s.{k}": "s" for k in KINDS},
              "total_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "operator.apply_s": "s", "operator.apply_calls": "count",
    "operator.apply_ms": "ms", "operator.apply_mflop": "Mflop",
    "operator.apply_mflop_per_s": "Mflop/s",
    "operator.masked_apply_s": "s", "operator.masked_apply_calls": "count",
    "operator.level_check_s": "s", "operator.level_check_calls": "count",
    "operator.d_block_solve_s": "s",
    "lognormal.level_solve_s": "s", "lognormal.level_solve_calls": "count",
    **{f"precond.{m}.{k}": u for k in KINDS
       for m, u in (("apply_s", "s"), ("self_s", "s"), ("applications", "count"),
                    ("block_solves", "count"), ("block_matvecs", "count"))},
    "precond.make_self_s": "s",
    "inner.make_s": "s", "inner.make_calls": "count",
    "inner.solve_s": "s", "inner.solve_calls": "count", "inner.solve_rows": "count",
    "experiments.build_self_s": "s",
    "fem.assembly_s": "s", "fem.assembly_calls": "count",
    "triple_product.build_s": "s", "triple_product.nnz": "count",
    "lognormal.gpc_s": "s", "kle.build_s": "s",
    **{f"krylov.{m}.{k}": u for k in KINDS
       for m, u in (("iterations", "count"), ("kappa", "ratio"), ("self_s", "s"))},
    "trace.overhead_ratio": "ratio", "trace.self_coverage": "ratio",
    "trace.root_self_share": "ratio",
}
# spans opened by the row itself, not by another traced entry point
ROOT_LAYERS = ("experiments.build_operator", "precond.make",
               *(f"krylov.cg.{k}" for k in KINDS))


def make_rhs(op, config: ExperimentConfig, seed: int) -> np.ndarray:
    """The paper's load on the default seed, else a seeded random vector.

    The random vector has its boundary rows zeroed in every block, as the
    Dirichlet rows of the operator require.
    """
    mesh = fem.build_mesh(config.h)
    if seed == DEFAULT_SEED:
        return op.rhs(fem.assemble_load(mesh, 1.0)).ravel()
    b = np.random.default_rng(seed).standard_normal(op.shape[0])
    b.reshape(op.n_blocks, op.ndof)[:, mesh.boundary_mask] = 0.0
    return b


def apply_flops(op) -> int:
    """Flops of one GalerkinOperator.apply, from the nnz of C_i and K_i."""
    flops = 0
    for Ci, Ki in zip(op.tensor.coupling, op.matrices):
        if Ci.nnz:
            # (C_i @ U) @ K_i^T, then the accumulation into V
            flops += 2 * Ci.nnz * op.ndof + 2 * Ki.nnz * op.n_blocks
            flops += op.n_blocks * op.ndof
    return flops


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


@dataclass
class Row:
    """One repeat: timings, the solver outcomes and what the gate needs."""

    setup_s: float = 0.0
    solve_s: dict = field(default_factory=dict)
    # probe seconds before the set-up and after the set-up and each solve
    probe_s: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    flops: int = 0
    op: object = None
    b: np.ndarray | None = None
    x: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.setup_s + sum(self.solve_s.values())


def run_row(config: ExperimentConfig, b: np.ndarray, probe: hostspeed.Probe) -> Row:
    """Build, set up the three preconditioners and solve each for ``b``.

    ``probe`` runs between the phases, outside their timers.  Exceptions
    from one column's set-up or solve fail that operation only.
    """
    row = Row()
    row.probe_s.append(probe())
    start = time.perf_counter()
    op = experiments.build_operator(config)
    precs = {}
    for kind in KINDS:
        try:
            precs[kind] = precond.make_preconditioner(op, kind, outer_tol=config.tol)
        except Exception as exc:
            row.errors[kind] = _describe(exc)
    row.setup_s = time.perf_counter() - start
    row.probe_s.append(probe())
    for kind in KINDS:
        if kind in precs:
            prec = precs[kind]
            t0 = time.perf_counter()
            try:
                row.x[kind], row.reports[kind] = krylov.cg(op.matvec, b, apply_m=prec,
                                                           tol=config.tol)
            except Exception as exc:
                row.errors[kind] = _describe(exc)
            row.solve_s[kind] = time.perf_counter() - t0
            c = prec.counters
            row.counters[kind] = (c.applications, c.block_solves, c.block_matvecs)
        row.probe_s.append(probe())
    row.flops = apply_flops(op)
    row.op, row.b = op, b
    return row


@dataclass
class Gate:
    """Per-operation checks for one workload and seed."""

    workload: Workload
    seed: int
    attempted: int = 0
    failures: list = field(default_factory=list)

    def __post_init__(self):
        cfg = self.workload.config
        # closed forms of the hierarchical Schur work per application, valid
        # for the linear coefficient (block-diagonal levels)
        self.hs_work = (precond.work_count(cfg.N, cfg.P)
                        if cfg.distribution == "uniform" else None)

    def check(self, row: Row) -> None:
        """Check each column of ``row``, then drop its operator and iterates."""
        for kind in KINDS:
            self.attempted += 1
            problems = self._problems(row, kind)
            if problems:
                self.failures.append({"op": kind, "problems": problems})
        row.op = row.b = None
        row.x = {}

    def _problems(self, row: Row, kind: str) -> list[str]:
        if kind in row.errors:
            return [f"raised {row.errors[kind]}"]
        rep = row.reports[kind]
        out = []
        if not rep.converged:
            out.append(f"not converged after {rep.iterations} iterations")
        if rep.spd_suspect:
            out.append("indefiniteness detected (spd_suspect)")
        b = row.b
        res = float(np.linalg.norm(b - row.op.matvec(row.x[kind])) / np.linalg.norm(b))
        if not res <= RESIDUAL_FACTOR * TOL:
            out.append(f"true relative residual {res:.3e} > {RESIDUAL_FACTOR:g} * {TOL:g}")
        if self.seed == DEFAULT_SEED and self.workload.expected:
            it, kappa = self.workload.expected[kind]
            if rep.iterations != it:
                out.append(f"{rep.iterations} iterations, recorded {it}")
            if not math.isclose(rep.kappa_estimate, kappa, rel_tol=KAPPA_RTOL):
                out.append(f"kappa {rep.kappa_estimate!r}, recorded {kappa!r}")
        if kind == "hs" and self.hs_work is not None:
            apps, solves, matvecs = row.counters[kind]
            want = (self.hs_work.n_ds * apps, self.hs_work.n_m * apps)
            if (solves, matvecs) != want:
                out.append(f"hs counters solves/matvecs {solves}/{matvecs} over "
                           f"{apps} applications, closed forms give {want[0]}/{want[1]}")
        return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def upper_percentile(values: list[float]):
    """(percent, value) of the highest order statistic above the median with
    at least ten samples beyond it; None when the sample is too small."""
    n = len(values)
    rank = n - 10
    if rank <= (n + 1) / 2:
        return None
    return round(100.0 * rank / n, 1), sorted(values)[rank - 1]


def wall_samples(row: Row) -> dict[str, float]:
    """Wall seconds of the row's phases, in the order they ran."""
    return {"setup_s": row.setup_s,
            **{f"solve_s.{kind}": row.solve_s.get(kind, 0.0) for kind in KINDS}}


def end_to_end_samples(row: Row) -> dict[str, float]:
    """The row's phase times at the probe's nominal speed, and their sum.

    Each phase's wall time is scaled by NOMINAL_S over the mean of the probe
    times just before and just after it.
    """
    out = {name: t * 2 * hostspeed.NOMINAL_S / (row.probe_s[i] + row.probe_s[i + 1])
           for i, (name, t) in enumerate(wall_samples(row).items())}
    out["total_s"] = sum(out.values())
    return out


def layer_samples(row: Row, layers: dict) -> dict[str, float]:
    """Per-layer values of one traced repeat."""
    def layer(name) -> spans.Layer:
        return layers.get(name) or spans.Layer()

    apply = layer("operator.apply")
    out = {
        "operator.apply_s": apply.total_s, "operator.apply_calls": apply.calls,
        "operator.apply_ms": 1e3 * apply.total_s / apply.calls if apply.calls else 0.0,
        "operator.apply_mflop": row.flops / 1e6,
        "operator.apply_mflop_per_s":
            row.flops * apply.calls / apply.total_s / 1e6 if apply.calls else 0.0,
        "operator.masked_apply_s": layer("operator.masked_apply").total_s,
        "operator.masked_apply_calls": layer("operator.masked_apply").calls,
        "operator.level_check_s": layer("operator.level_check").total_s,
        "operator.level_check_calls": layer("operator.level_check").calls,
        "operator.d_block_solve_s": layer("operator.d_block_solve").total_s,
        "lognormal.level_solve_s": layer("lognormal.level_solve").total_s,
        "lognormal.level_solve_calls": layer("lognormal.level_solve").calls,
        "precond.make_self_s": layer("precond.make").self_s,
        "inner.make_s": layer("inner.make").total_s,
        "inner.make_calls": layer("inner.make").calls,
        "inner.solve_s": layer("inner.solve").total_s,
        "inner.solve_calls": layer("inner.solve").calls,
        "inner.solve_rows": layer("inner.solve").extra,
        "experiments.build_self_s": layer("experiments.build_operator").self_s,
        "fem.assembly_s": layer("fem.assembly").total_s,
        "fem.assembly_calls": layer("fem.assembly").calls,
        "triple_product.build_s": layer("triple_product.build").total_s,
        "triple_product.nnz": layer("triple_product.build").extra,
        "lognormal.gpc_s": layer("lognormal.gpc").total_s,
        "kle.build_s": layer("kle.build").total_s,
        # 1 unless a root span is lost: self times partition the root spans
        "trace.self_coverage": sum(l.self_s for l in layers.values()) / row.total_s,
        # time the root spans spend outside every deeper traced layer
        "trace.root_self_share": sum(layer(n).self_s for n in ROOT_LAYERS) / row.total_s,
    }
    for kind in KINDS:
        apps, solves, matvecs = row.counters.get(kind, (0, 0, 0))
        rep = row.reports.get(kind)
        out.update({
            f"precond.apply_s.{kind}": layer(f"precond.apply.{kind}").total_s,
            f"precond.self_s.{kind}": layer(f"precond.apply.{kind}").self_s,
            f"precond.applications.{kind}": apps,
            f"precond.block_solves.{kind}": solves / apps if apps else 0.0,
            f"precond.block_matvecs.{kind}": matvecs / apps if apps else 0.0,
            f"krylov.iterations.{kind}": rep.iterations if rep else 0,
            f"krylov.kappa.{kind}": rep.kappa_estimate if rep else 0.0,
            f"krylov.self_s.{kind}": layer(f"krylov.cg.{kind}").self_s,
        })
    return out


def _medians(samples: list[dict]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run repeats of the workload's row for ``seconds`` after one warm-up.

    With ``trace`` off the result holds the end-to-end metrics, medians over
    the repeats of the scaled times; with it on, untraced and traced repeats
    alternate and the result holds the per-layer metrics (medians over the
    traced repeats, in wall time) and the tracing overhead, a ratio of scaled
    row times.  A traced run that cannot find
    every entry point, or whose self times miss a row's time by more than
    COVERAGE_TOL, fails and reports no per-layer values.
    """
    config = workload.config
    gate = Gate(workload, seed)
    # the cold first build fills the KL eigen cache, as a table sweep would
    b = make_rhs(experiments.build_operator(config), config, seed)
    probe = hostspeed.Probe()
    gate.check(run_row(config, b, probe))  # warm-up
    trace_problems = [f"entry point {name} not found"
                      for name in (spans.missing_entry_points() if trace else [])]
    tracer = spans.Tracer()
    plain, wall, probes, traced, traced_total, last_spans = [], [], [], [], [], []
    start = time.perf_counter()
    while (len(plain) < MIN_REPEATS or (trace and len(traced) < MIN_REPEATS)
           or time.perf_counter() - start < seconds):
        row = run_row(config, b, probe)
        gate.check(row)
        plain.append(end_to_end_samples(row))
        wall.append(wall_samples(row))
        probes += row.probe_s
        if trace:
            with spans.instrumented(tracer):
                row = run_row(config, b, probe)
            last_spans = tracer.take()
            gate.check(row)
            traced.append(layer_samples(row, spans.summarize(last_spans)))
            traced_total.append(end_to_end_samples(row)["total_s"])
            coverage = traced[-1]["trace.self_coverage"]
            if abs(coverage - 1.0) > COVERAGE_TOL:
                trace_problems.append(f"self times cover {coverage:.3f} of a row's time")
    measured_s = time.perf_counter() - start
    if trace:
        values = _medians(traced)
        values["trace.overhead_ratio"] = (statistics.median(traced_total)
                                          / statistics.median(s["total_s"] for s in plain))
        if trace_problems:
            # a lost layer's time lands in its parent's self time: no value holds
            gate.failures.append({"op": "trace", "problems": trace_problems})
            values = dict.fromkeys(values)
        units = PER_LAYER
    else:
        values = _medians(plain)
        values["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END
    return {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "details": {
            "config": {k: v for k, v in asdict(config).items() if k in CONFIG_KEYS},
            "seed": seed,
            "rhs": "load f=1" if seed == DEFAULT_SEED else "random, boundary rows zeroed",
            "measured_s": measured_s,
            "repeats": len(traced) if trace else len(plain),
            # above 1 when the host ran faster than the probe's nominal speed
            "host_speed": hostspeed.NOMINAL_S / statistics.median(probes),
            "wall_medians": _medians(wall),
            "samples": {name: [s[name] for s in plain] for name in plain[0]},
            "upper_percentile": {name: upper_percentile([s[name] for s in plain])
                                 for name in plain[0]},
            "iterations_kappa": {k: (r.iterations, r.kappa_estimate)
                                 for k, r in row.reports.items()},
            "failures": gate.failures[:20],
            "spans": last_spans,
        },
    }
