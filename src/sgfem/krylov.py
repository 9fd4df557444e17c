"""Conjugate gradients, its flexible variant, and condition estimates.

Both solvers run one preconditioned CG loop and differ only in the search
direction.  Standard CG takes p = z + beta p, with z = M r and beta the ratio
of successive <r, z>.  The flexible variant takes z made A-orthogonal to all
previous directions (full history) and steps by <p, r> / <p, Ap>, which keeps
it convergent when the preconditioner changes between iterations, e.g. with
inner iterative block solves.  With a fixed preconditioner it reproduces the
standard CG iterates.

A preconditioner may pair its application with the operator's product:
when ``apply_m.paired(apply_a)`` gives a step r -> (z, A z) for this very
apply_a, A p follows the recurrence of p and the loop never calls apply_a;
the step returns fresh arrays, which the loop may update in place.
The three block preconditioners pair with their operator's own ``matvec``
when their solves are exact: the mean-based one when the operator multiplies
matrix-free, block Gauss-Seidel and the hierarchical one when every level is
D_l = I (x) K_0 (see the precond module); each other preconditioner or
operator keeps the explicit product.  Either way the iterates agree up to
rounding.

Both stop on the unpreconditioned relative residual ||b - A x|| / ||b|| <= tol,
so iteration counts are comparable across preconditioners.  The scalar
recurrences of CG define a symmetric tridiagonal (Lanczos) matrix whose
extreme eigenvalues estimate the spectrum of the preconditioned operator; the
reported condition estimate is their ratio.  By interlacing the estimate
never exceeds the true condition number and is non-decreasing in the
iteration count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal


@dataclass
class SolveReport:
    """Outcome of one Krylov solve; ``kappa_estimate`` is computed from the
    stored CG coefficients when first read, so inner solves skip it."""

    iterations: int = 0
    relative_residuals: list = field(default_factory=list)
    converged: bool = False
    spd_suspect: bool = False
    non_finite: bool = False
    work: dict | None = None
    alphas: list = field(default_factory=list, repr=False)
    betas: list = field(default_factory=list, repr=False)

    @cached_property
    def kappa_estimate(self) -> float:
        if not self.alphas:
            return 1.0
        return lanczos_condition_estimate(self.alphas, self.betas[:len(self.alphas) - 1])

    def write_residual_history(self, path) -> None:
        """CSV export ``iter,relres`` of the residual history."""
        with open(path, "w") as fh:
            fh.write("iter,relres\n")
            for it, res in enumerate(self.relative_residuals):
                fh.write(f"{it},{res:.17g}\n")


def default_max_iter(n: int) -> int:
    return int(10 * np.sqrt(n)) + 5000


def lanczos_condition_estimate(alphas, betas) -> float:
    """Condition estimate from the CG coefficient sequences.

    Builds the k x k symmetric tridiagonal with diagonal
    1/alpha_j + beta_{j-1}/alpha_{j-1} and off-diagonal sqrt(beta_j)/alpha_j
    and returns the ratio of its extreme eigenvalues.
    """
    k = len(alphas)
    if k == 0:
        raise ValueError("need at least one CG step for a condition estimate")
    if len(betas) < k - 1:
        raise ValueError(f"{k} alphas need at least {k - 1} betas")
    if k == 1:
        return 1.0
    diag = np.empty(k)
    off = np.empty(k - 1)
    diag[0] = 1.0 / alphas[0]
    for j in range(1, k):
        diag[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
    for j in range(k - 1):
        off[j] = np.sqrt(max(betas[j], 0.0)) / alphas[j]
    ev = eigh_tridiagonal(diag, off, eigvals_only=True)
    return float(ev[-1] / ev[0])


def _halt(report: SolveReport, value: float, indefinite: bool) -> bool:
    """Flag a non-finite value or an indefiniteness signal; True to stop."""
    report.non_finite = not np.isfinite(value)
    report.spd_suspect = indefinite
    return report.non_finite or indefinite


def cg(apply_a, b, apply_m=None, tol: float = 1e-8, max_iter: int | None = None):
    """Preconditioned conjugate gradients with a fixed preconditioner.

    apply_a and apply_m are callables on flat vectors; apply_m defaults to
    the identity, and may pair with apply_a (see the module docstring).
    Returns (solution, SolveReport).  Exceeding max_iter is
    reported, not raised; an indefiniteness signal (negative <p, Ap> or
    negative <r, z>) sets spd_suspect and a non-finite <p, Ap>, <r, z> or
    residual sets non_finite, and either stops the iteration.
    """
    return _pcg(apply_a, b, apply_m, tol, max_iter, flexible=False)


def fcg(apply_a, b, apply_m=None, tol: float = 1e-8, max_iter: int | None = None):
    """Flexible CG with full direction re-orthogonalization.

    The preconditioner may change between iterations.  Each new direction is
    made A-orthogonal to all previous directions.  Reporting matches cg();
    the condition estimate uses the same scalar recurrences and is exact in
    the fixed-preconditioner limit.
    """
    return _pcg(apply_a, b, apply_m, tol, max_iter, flexible=True)


def _pcg(apply_a, b, apply_m, tol: float, max_iter: int | None, flexible: bool):
    """The CG loop of cg() and fcg(): each step applies apply_m once, and
    apply_a once unless apply_m pairs with it (``paired``), so a run of k
    steps applies each k times.  A paired step returns (z, A z), and A p
    follows p: A p = A z + beta A p for CG, A z - sum (z . A q / q A q) A q
    over the history for FCG.  Standard CG updates p and A p in place;
    flexible CG keeps fresh ones per step for its history."""
    b = np.asarray(b, dtype=float).ravel()
    if max_iter is None:
        max_iter = default_max_iter(b.size)
    report = SolveReport()
    x = np.zeros(b.size)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        report.converged = True
        return x, report
    offer = getattr(apply_m, "paired", None)
    paired = offer(apply_a) if offer else None
    r = b.copy()
    alphas, betas = report.alphas, report.betas
    history: list[tuple] = []     # (p, Ap, <p, Ap>) of every step; flexible only
    report.relative_residuals.append(1.0)
    while report.iterations < max_iter:
        if paired:
            z, Az = paired(r)
        else:
            z, Az = apply_m(r) if apply_m else r.copy(), None
        rz = float(r @ z)
        if _halt(report, rz, rz < 0.0):
            break
        if report.iterations:
            betas.append(rz / rz_prev)
        rz_prev = rz
        if flexible or not report.iterations:
            p, Ap = z.copy(), Az
            for q, aq, qaq in history:
                c = float(z @ aq) / qaq
                p -= c * q
                if paired:
                    Ap -= c * aq
        else:
            p *= betas[-1]
            p += z
            if paired:
                Ap *= betas[-1]
                Ap += Az
        if not paired:
            Ap = apply_a(p)
        pAp = float(p @ Ap)
        if _halt(report, pAp, pAp <= 0.0):
            break
        alpha = float(p @ r) / pAp if flexible else rz / pAp
        x += alpha * p
        r -= alpha * Ap
        report.iterations += 1
        alphas.append(alpha)
        if flexible:
            history.append((p, Ap, pAp))
        relres = np.linalg.norm(r) / bnorm
        report.relative_residuals.append(float(relres))
        if relres <= tol:
            report.converged = True
            break
        if _halt(report, relres, False):
            break
    return x, report
