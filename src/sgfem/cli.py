"""Command-line front end for the experiment runner.

Two subcommands:

  run   --table NAME [--out DIR]          reproduce one table (no config options)
  run   [--config FILE] [flags] [--out D] run a single configuration
  diag  [--config FILE] [flags]           dense condition-bound diagnostic

Config files are flat ``key=value`` text (hash comments allowed); keys and
flags are the fields of ExperimentConfig (``--max-iter`` sets max_iter) and
flags override file values.  Exit codes: 0 success, 2 reference diff beyond
tolerance or condition bound violated, 1 solver or usage error (any bad
flag, key or value) or an allocation that fails (one line).
"""
from __future__ import annotations

import argparse
import os
import sys
import typing
from dataclasses import fields

from .experiments import (CHOICES, ExperimentConfig, run_experiment, run_table,
                          spectral_diagnostic)
from .operator import InnerSolveError


def _types() -> dict:
    """Field of ExperimentConfig -> value type, the None of an optional
    field dropped."""
    return {name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
            for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def parse_config_file(path: str) -> dict:
    """Flat key=value parser; blank lines and # comments are skipped."""
    types = _types()
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = types[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_config(args) -> ExperimentConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key in _types():
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return ExperimentConfig(**values)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per field; the values allowed are checked by validate()."""
    types = _types()
    for f in fields(ExperimentConfig):
        allowed = CHOICES.get(f.name)
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=types[f.name],
                            metavar="{" + ",".join(allowed) + "}" if allowed else None,
                            help=f.metadata.get("help"))


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main reports with exit code 1."""

    def error(self, message):
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgfem", description="stochastic Galerkin solver experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a table sweep or a single configuration")
    run.add_argument("--table", help="T1..T8, work_counts, or eigs")
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--out", help="output directory for CSV/Markdown artifacts")
    _add_config_flags(run)

    diag = sub.add_parser("diag", help="dense spectral-equivalence bound check")
    diag.add_argument("--config", help="key=value config file")
    _add_config_flags(diag)
    return parser


def cmd_run(args) -> int:
    if args.out:    # an unusable directory fails before any solve or sweep
        os.makedirs(args.out, exist_ok=True)
    if args.table:
        given = [f"--{key.replace('_', '-')}" for key in ("config", *_types())
                 if getattr(args, key) is not None]
        if given:
            raise ValueError(f"--table runs the table's own configurations; "
                             f"it takes no {', '.join(given)}")
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
                for flag in row.flags:
                    print(f"FLAG {args.table}[{row.sweep}] {flag}", file=sys.stderr)
        for v in violations:
            print(f"DIFF {v}", file=sys.stderr)
        return 2 if violations else 0
    config = build_config(args)
    report = run_experiment(config)
    print(f"iterations={report.iterations} kappa={report.kappa_estimate:.6g} "
          f"converged={report.converged} spd_suspect={report.spd_suspect} "
          f"non_finite={report.non_finite}")
    if report.work:
        print(f"work: {report.work}")
    if args.out:
        path = os.path.join(args.out, "residuals.csv")
        report.write_residual_history(path)
        print(f"wrote {path}")
    if report.spd_suspect:
        print("warning: indefiniteness detected; results not guaranteed",
              file=sys.stderr)
    return 0 if report.converged else 1


def cmd_diag(args) -> int:
    config = build_config(args)
    diag = spectral_diagnostic(config)
    for level, c1, c2 in diag.levels:
        print(f"level {level}: c1={c1:.8f} c2={c2:.8f} ratio={c2 / c1:.8f}")
    print(f"bound={diag.bound:.8f} kappa={diag.kappa:.8f} ok={diag.satisfied}")
    return 0 if diag.satisfied else 2


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        return cmd_diag(args)
    # scipy's LinAlgError is a ValueError; OSError covers unusable paths
    except (ValueError, OSError, InnerSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # numpy's failed allocation is a MemoryError that names the array
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
