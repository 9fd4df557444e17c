"""Time to solution of one sgfem table row, end to end or split by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload uniform --seed 0 --seconds 50 --trace 0

The package is imported from ``src/`` of the same tree.  Seed 0 solves with
the paper's load vector; any other seed draws a random right-hand side.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, medians over the repeats of each phase's wall time scaled to the
nominal speed of a fixed probe run between the phases (``hostspeed.py``);
with ``--trace 1`` it holds the per-layer metrics of a traced run (medians
over the traced repeats, in wall time).
Earlier lines, prefixed ``#``, describe the environment and the run; the
full record, spans of the last traced repeat included, goes to
``.bench_out/`` in the tree.  Exit code 2 means the benchmark could not
run: no ``src/sgfem`` beside it, or an unknown workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# BLAS and OpenMP pools read these once, when numpy loads.  On a 2-core
# x86_64 box the default two OpenBLAS threads made the uniform mean-based
# solve 6x slower (median 0.38 s against 0.063 s) and far noisier.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"


def prepare() -> None:
    """Pin thread pools and import sgfem from this tree's ``src/``.

    Must run before numpy is imported.  Exits with code 2 when the source
    tree is missing or another sgfem would be imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "sgfem" / "__init__.py").is_file():
        _refuse(f"no sgfem package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sgfem
    if not Path(sgfem.__file__).resolve().is_relative_to(SRC):
        _refuse(f"imported sgfem from {sgfem.__file__}, not from {SRC}")


def _refuse(reason: str):
    print(f"benchmark: {reason}", file=sys.stderr)
    raise SystemExit(2)


def git_commit() -> str | None:
    """HEAD of the tree's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    import rows

    if args.workload not in rows.WORKLOADS:
        _refuse(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(rows.WORKLOADS)}")
    result = rows.measure(rows.WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    details = result.pop("details")
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(), **details, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for key in ("environment", "config", "repeats", "measured_s", "host_speed",
                "wall_medians", "iterations_kappa", "upper_percentile", "failures"):
        value = record[key]
        if value or key == "upper_percentile":
            print(f"# {key}: {json.dumps(value)}")
    print(f"# record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
