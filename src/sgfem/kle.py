"""Truncated Karhunen-Loeve expansion of the exponential covariance field.

The covariance C(x1, x2) = sigma^2 exp(-|x1-x2|_1 / L) on the unit square
separates into identical 1D factors in x and y.  The 1D integral eigenvalue
problem on [0, 1] is discretized by the Nystrom method with the trapezoid
rule on N_QUAD points, symmetrized with the square-root weight matrix so a
symmetric dense eigensolver applies.  Every 2D eigenpair is a product of 1D
pairs,

    lambda = sigma^2 * lambda_a * lambda_b,   v(x, y) = v_a(x) v_b(y),

sorted by eigenvalue with a lexicographic (a, b) tie-break so that repeated
products (a, b) / (b, a) appear in a fixed order.  Signs are fixed by
v(0) >= 0 in 1D, which makes runs bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nystrom grid size of every expansion the program builds
N_QUAD = 1000


@dataclass(frozen=True)
class CovarianceSpec:
    """Exponential covariance sigma^2 exp(-|x1-x2|_1 / corr_length) on [0,1]^2."""

    sigma: float
    corr_length: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.corr_length <= 0:
            raise ValueError(f"correlation length must be positive, got {self.corr_length}")


@dataclass(frozen=True)
class KLExpansion:
    """Mean plus weighted eigenfunction fields sampled on a node set.

    fields[i] holds k_i(x) = sqrt(lambda_i) v_i(x) at the nodes; the mean
    field is the constant k_0.
    """

    eigenvalues: np.ndarray     # (n_terms,), non-increasing
    fields: np.ndarray          # (n_terms, n_nodes)
    mean: float

    @property
    def n_terms(self) -> int:
        return len(self.eigenvalues)


# leading eigenpairs keyed by (corr_length, n_quad), reused across operators;
# only the columns asked for are kept, and a request for more repeats the
# same full eigensolve, so values never change
_EIG_CACHE: dict = {}


def eig_1d_exponential(corr_length: float, n_quad: int = N_QUAD,
                       n_modes: int = 30) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading eigenpairs of exp(-|x1-x2|/corr_length) on [0, 1].

    Returns (grid, eigenvalues, eigenvectors) with eigenvalues non-increasing
    and eigenvectors L2-normalized on [0, 1], sampled on the quadrature grid
    (one column per mode).  Nystrom discretization with trapezoid weights on
    n_quad points, symmetrized by similarity with diag(sqrt(w)); the
    expansions use N_QUAD, and other grid sizes show its convergence.
    """
    if n_modes > n_quad:
        raise ValueError(f"cannot extract {n_modes} modes from a {n_quad}-point grid")
    key = (float(corr_length), int(n_quad))
    if key not in _EIG_CACHE or _EIG_CACHE[key][1].size < n_modes:
        x = np.linspace(0.0, 1.0, n_quad)
        w = np.full(n_quad, 1.0 / (n_quad - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        # sym = diag(sw) kernel diag(sw) in one array: a lower memory peak
        sym = np.abs(x[:, None] - x[None, :])
        sym /= -corr_length
        np.exp(sym, out=sym)
        sw = np.sqrt(w)
        sym *= sw[:, None]
        sym *= sw[None, :]
        asym = float(np.max(np.abs(sym - sym.T)))
        if asym > 1e-12:
            raise RuntimeError(f"discretized kernel lost symmetry ({asym:.3e})")
        lam, vecs = np.linalg.eigh(sym)
        order = np.argsort(lam)[::-1][:n_modes]
        lam = lam[order]
        vecs = vecs[:, order] / sw[:, None]
        for j in range(vecs.shape[1]):
            if vecs[0, j] < 0:
                vecs[:, j] *= -1.0
        for arr in (x, lam, vecs):
            arr.setflags(write=False)
        _EIG_CACHE[key] = (x, lam, vecs)
    x, lam, vecs = _EIG_CACHE[key]
    return x, lam[:n_modes].copy(), vecs[:, :n_modes].copy()


def eig_2d_separable(spec: CovarianceSpec, n_modes: int) -> list[tuple[float, int, int]]:
    """The n_modes largest 2D eigenvalues as (lambda, a, b) factor triples.

    a and b are 0-based indices into the 1D spectrum; ties between equal
    products are broken lexicographically on (a, b).
    """
    # A pool of n_modes+2 1D modes always covers the n_modes largest products:
    # the m-th largest product is at least lam_1*lam_m, while anything missing
    # from the pool is at most lam_1*lam_{pool+1} < lam_1*lam_m.
    n1 = min(n_modes + 2, N_QUAD)
    _, lam1, _ = eig_1d_exponential(spec.corr_length, N_QUAD, n1)
    prods = [(spec.sigma**2 * lam1[a] * lam1[b], a, b)
             for a in range(n1) for b in range(n1)]
    prods.sort(key=lambda t: (-t[0], t[1], t[2]))
    return prods[:n_modes]


def build_kl_expansion(spec: CovarianceSpec, n_terms: int, mean: float,
                       node_coords: np.ndarray) -> KLExpansion:
    """Sample the n_terms leading KL fields at the given (x, y) nodes.

    1D eigenvectors are evaluated at node coordinates by piecewise-linear
    interpolation on the Nystrom grid.
    """
    if n_terms < 1:
        raise ValueError("need at least one expansion term")
    modes = eig_2d_separable(spec, n_terms)
    need = sorted({a for _, a, b in modes} | {b for _, a, b in modes})
    grid, lam1, vecs = eig_1d_exponential(spec.corr_length, N_QUAD, max(need) + 1)
    xs = np.asarray(node_coords)[:, 0]
    ys = np.asarray(node_coords)[:, 1]
    interp = {a: np.interp(xs, grid, vecs[:, a]) for a in need}
    interp_y = {a: np.interp(ys, grid, vecs[:, a]) for a in need}
    fields = np.empty((n_terms, len(xs)))
    lams = np.empty(n_terms)
    for i, (lam, a, b) in enumerate(modes):
        lams[i] = lam
        fields[i] = np.sqrt(lam) * interp[a] * interp_y[b]
    return KLExpansion(lams, fields, mean)
