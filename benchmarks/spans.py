"""Outside-in span tracing of sgfem's public entry points.

The program is not modified.  Each entry point is replaced, at the place its
callers look it up, by a wrapper that records one span per call: name,
parent (the span open when the call began), start and end.  Functions that
other modules import by name are patched in those importing modules; methods
are patched on their class; ``lognormal.dense_d_block_solve`` is imported
lazily at call time, so patching its module attribute reaches every caller.
Spans stay in memory until ``Tracer.take``; a layer's self time is its span
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

# span record slots
NAME, PARENT, START, END, EXTRA = range(5)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def take(self) -> list[list]:
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, post=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a callable of (args, kwargs) giving one;
        ``post(tracer, span, result)`` may fill the span's EXTRA slot and
        returns the value handed back to the caller.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            span = [label, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            return post(tracer, span, out) if post else out

        return traced


@dataclass
class Layer:
    """Totals of all spans sharing one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: int = 0


def summarize(spans: list[list]) -> dict[str, Layer]:
    """Per-name call count, inclusive time, self time and summed EXTRA."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    layers: dict[str, Layer] = {}
    for span, covered in zip(spans, child_s):
        layer = layers.setdefault(span[NAME], Layer())
        dur = span[END] - span[START]
        layer.calls += 1
        layer.total_s += dur
        layer.self_s += dur - covered
        layer.extra += span[EXTRA]
    return layers


def _kind_of(cls) -> str:
    from sgfem import precond
    return {precond.MeanBased: "mean", precond.BlockSGS: "bsgs",
            precond.HierarchicalSchur: "hs"}.get(cls, "other")


def _tensor_nnz(tracer, span, tensor):
    span[EXTRA] = sum(C.nnz for C in tensor.coupling)
    return tensor


def _count_rows(tracer, span, X):
    span[EXTRA] = 1 if X.ndim == 1 else X.shape[0]
    return X


def _wrap_solver(tracer, span, solve):
    # the callable InnerSolver.make returns is the block-solve entry point
    return tracer.wrap("inner.solve", solve, _count_rows)


def entry_points():
    """(owner, attribute, span name, post hook) for every traced entry point."""
    from sgfem import experiments, krylov, lognormal, operator, precond

    def cg_name(args, kwargs):
        return "krylov.cg." + _kind_of(type(kwargs.get("apply_m")))

    G = operator.GalerkinOperator
    return [
        (experiments, "build_operator", "experiments.build_operator", None),
        (experiments, "build_kl_expansion", "kle.build", None),
        (lognormal, "build_kl_expansion", "kle.build", None),
        (operator, "assemble_weighted_stiffness", "fem.assembly", None),
        (lognormal, "assemble_weighted_stiffness", "fem.assembly", None),
        (operator, "build_triple_product_tensor", "triple_product.build", _tensor_nnz),
        (lognormal, "build_triple_product_tensor", "triple_product.build", _tensor_nnz),
        (lognormal, "lognormal_gpc_coefficients", "lognormal.gpc", None),
        (lognormal, "dense_d_block_solve", "lognormal.level_solve", None),
        (precond, "make_preconditioner", "precond.make", None),
        (krylov, "cg", cg_name, None),
        (G, "apply", "operator.apply", None),
        (G, "masked_apply", "operator.masked_apply", None),
        (G, "level_is_scalar_diagonal", "operator.level_check", None),
        (G, "d_block_solve", "operator.d_block_solve", None),
        (operator.InnerSolver, "make", "inner.make", _wrap_solver),
        (precond.MeanBased, "apply_blocks", "precond.apply.mean", None),
        (precond.BlockSGS, "apply_blocks", "precond.apply.bsgs", None),
        (precond.HierarchicalSchur, "apply_blocks", "precond.apply.hs", None),
    ]


def missing_entry_points() -> list[str]:
    """Entry points the program no longer defines where they are looked up."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in entry_points() if attr not in vars(owner)]


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every entry point that exists for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, post in entry_points():
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, post))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
