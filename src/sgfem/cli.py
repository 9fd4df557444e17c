"""Command-line front end for the experiment runner.

Two subcommands:

  run   --table NAME --out DIR            reproduce one convergence sweep
  run   [--config FILE] [flags] [--out D] run a single configuration
  diag  --spectral --N .. --P .. --h ..   dense condition-bound diagnostic

Config files are flat ``key=value`` text (hash comments allowed); every key
is also a command-line flag and flags override file values.  Exit codes:
0 success, 2 reference diff beyond tolerance, 1 solver or usage error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .experiments import (ExperimentConfig, run_experiment, run_table,
                          spectral_diagnostic)
from .operator import InnerSolveError

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_INT_KEYS = {"N", "P", "seed", "n_quad", "max_iter"}
_FLOAT_KEYS = {"h", "k0", "sigma", "cov", "L", "tol"}


def parse_config_file(path: str) -> dict:
    """Flat key=value parser; blank lines and # comments are skipped."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _convert(key, val)
    return values


def _convert(key: str, val: str):
    if key in _INT_KEYS:
        return int(val)
    if key in _FLOAT_KEYS:
        return float(val)
    return val


def build_config(args) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return ExperimentConfig(**values)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--distribution", choices=["uniform", "lognormal"])
    parser.add_argument("--N", type=int, help="stochastic dimensions")
    parser.add_argument("--P", type=int, help="polynomial degree")
    parser.add_argument("--h", type=float, help="element size (1/h integer)")
    parser.add_argument("--k0", type=float, help="coefficient mean")
    parser.add_argument("--sigma", type=float, help="uniform-case standard deviation")
    parser.add_argument("--cov", type=float, help="coefficient of variation")
    parser.add_argument("--L", type=float, help="correlation length")
    parser.add_argument("--preconditioner", choices=["none", "mean", "bsgs", "hs"])
    parser.add_argument("--inner",
                        choices=["exact", "cg-none", "cg-diagonal", "cg-exact"])
    parser.add_argument("--krylov", choices=["cg", "fcg"])
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", dest="max_iter", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rhs", choices=["load", "random"])
    parser.add_argument("--n-quad", dest="n_quad", type=int)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgfem",
                                     description="stochastic Galerkin solver experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a table sweep or a single configuration")
    run.add_argument("--table", help="T1..T8, work_counts, or eigs")
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--out", help="output directory for CSV/Markdown artifacts")
    _add_config_flags(run)

    diag = sub.add_parser("diag", help="diagnostics")
    diag.add_argument("--spectral", action="store_true",
                      help="dense spectral-equivalence bound check")
    diag.add_argument("--config", help="key=value config file")
    _add_config_flags(diag)
    return parser


def cmd_run(args) -> int:
    if args.table:
        rows, violations, paths = run_table(args.table, args.out)
        for p in paths:
            print(f"wrote {p}")
        if args.table == "work_counts":
            for r, row in enumerate(rows, start=1):
                print(f"row {r}: n_b={row[0]} n_db={row[1]} n_m={row[2]} n_ds={row[3]}")
        elif args.table == "eigs":
            for i, lam in enumerate(rows, start=1):
                print(f"{i},{lam:.8g}")
        else:
            for row in rows:
                cells = " ".join(f"{k}:{it}/{kappa:.4f}"
                                 for k, (it, kappa) in row.results.items())
                print(f"{row.sweep}: ndof={row.ndof} {cells}")
        for v in violations:
            print(f"DIFF {v}", file=sys.stderr)
        return 2 if violations else 0
    config = build_config(args)
    _, report = run_experiment(config)
    print(f"iterations={report.iterations} kappa={report.kappa_estimate:.6g} "
          f"converged={report.converged} spd_suspect={report.spd_suspect} "
          f"non_finite={report.non_finite}")
    if report.work:
        print(f"work: {report.work}")
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "residuals.csv")
        report.write_residual_history(path)
        print(f"wrote {path}")
    if report.spd_suspect:
        print("warning: indefiniteness detected; results not guaranteed",
              file=sys.stderr)
    return 0 if report.converged else 1


def cmd_diag(args) -> int:
    if not args.spectral:
        print("nothing to do: pass --spectral", file=sys.stderr)
        return 1
    config = build_config(args)
    diag = spectral_diagnostic(config)
    for level, c1, c2 in diag.levels:
        print(f"level {level}: c1={c1:.8f} c2={c2:.8f} ratio={c2 / c1:.8f}")
    print(f"bound={diag.bound:.8f} kappa={diag.kappa:.8f} ok={diag.satisfied}")
    return 0 if diag.satisfied else 2


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_diag(args)
    # scipy's LinAlgError is a ValueError
    except (ValueError, FileNotFoundError, InnerSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
