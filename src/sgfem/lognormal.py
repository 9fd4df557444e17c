"""Hermite chaos representation of a lognormal diffusion coefficient.

The coefficient k = exp(g) is driven by a Gaussian field g whose spatial
covariance is the same exponential kernel as the uniform model, with pointwise
variance chosen by moment matching:

    sigma_g^2 = ln(1 + cov^2),     mu_g = ln(mean) - sigma_g^2 / 2,

so the lognormal field has the requested mean and coefficient of variation.
With g = mu_g + sum_i g_i(x) xi_i (xi_i standard normal, g_i the truncated
Karhunen-Loeve fields) the chaos coefficients of k have the closed form

    k_alpha(x) = k_0(x) * prod_i g_i(x)^alpha_i / sqrt(alpha_i!),
    k_0(x) = exp(mu_g + (1/2) sum_i g_i(x)^2),

where k_0 is the pointwise mean of the (truncated) lognormal field.  The
coefficient expansion is carried to twice the solution order, which keeps the
discrete problem well posed; the resulting coupling tensor makes every block
of the global matrix nonzero, so the same-degree matrices D_l are coupled
systems rather than block diagonals; GalerkinOperator.d_block_solve solves
them by a factorization of the level system while it is small (a band
Cholesky in node-major order, filled straight from the coupling values, the
K_i being symmetric) and by an inner Krylov loop preconditioned blockwise
with the mean matrix beyond.  The band spans the leading n_c nodes alone:
the Dirichlet nodes, numbered last, store only their diagonal, where each
level is the identity, so D_3 at N=4 P=3 h=1/10 factors 1620 of its 2420
unknowns, at half-width 219.  Block Gauss-Seidel's one-block diagonal
blocks keep one band over all nodes.

The expansion has C(N + 2P, N) coefficient fields (210 at N=4 P=3), and
each has a stiffness matrix K_alpha.  All of them, K_0 included, come from
one call of ``fem.assemble_weighted_stiffness``: the sparse product of the
nodal samples with the hat stiffness laid out on the stiffness pattern.

Every block sums many coefficient terms, so products with the operator read
one pre-summed stochastic block per mesh node, T_n = sum_alpha k_alpha(x_n)
C_alpha: the assembly interpolates each k_alpha bilinearly from its nodal
samples, which makes K_alpha = sum_n k_alpha(x_n) H_n with H_n the
stiffness of the hat field of node n.  The builder hands the operator the
sampled fields and the hat stiffness (``fem.local_hat_stiffness``) with the
assembled matrices, and the operator forms T on its first product (1.2 MB
at N=4 P=3 h=1/10, where one block per stored spatial position took
3.9 MB).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import Mesh, assemble_weighted_stiffness, local_hat_stiffness
from .kle import CovarianceSpec, KLExpansion, build_kl_expansion
from .multi_index import MultiIndexSet, build_multi_index_set
from .operator import GalerkinOperator, InnerSolver
from .orthopoly import hermite_family
from .triple_product import build_triple_product_tensor


@dataclass(frozen=True)
class LognormalFieldSpec:
    """Lognormal coefficient with given mean and coefficient of variation."""

    mean: float = 1.0
    cov: float = 1.0
    corr_length: float = 0.5

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError(f"lognormal mean must be positive, got {self.mean}")
        if self.cov <= 0:
            raise ValueError(f"coefficient of variation must be positive, got {self.cov}")

    @property
    def sigma_g2(self) -> float:
        return math.log(1.0 + self.cov * self.cov)

    @property
    def mu_g(self) -> float:
        return math.log(self.mean) - 0.5 * self.sigma_g2


def gaussian_kl(spec: LognormalFieldSpec, mesh: Mesh, n_terms: int) -> KLExpansion:
    """Truncated expansion of the underlying Gaussian field on the mesh nodes."""
    cov = CovarianceSpec(sigma=math.sqrt(spec.sigma_g2), corr_length=spec.corr_length)
    return build_kl_expansion(cov, n_terms, spec.mu_g, mesh.node_coords)


def lognormal_gpc_coefficients(gauss: KLExpansion,
                               coeff_set: MultiIndexSet) -> np.ndarray:
    """Chaos coefficient fields of exp(gaussian), one row per multi-index.

    Row 0 is the pointwise mean of the truncated lognormal field.  Each
    dimension d and exponent a scales all the rows with alpha_d = a at
    once, in ascending d as a per-index product would, so the values are
    that product's bit for bit.
    """
    if coeff_set.dims != gauss.n_terms:
        raise ValueError(f"coefficient set has {coeff_set.dims} variables, "
                         f"Gaussian expansion {gauss.n_terms} terms")
    G = gauss.fields
    k0 = np.exp(gauss.mean + 0.5 * np.sum(G * G, axis=0))
    fields = np.tile(k0, (len(coeff_set), 1))
    alpha = np.array(coeff_set.indices, dtype=np.intp).reshape(-1, coeff_set.dims)
    # f <- f G[d]^a / sqrt(a!) for d ascending, every index with alpha_d = a at once
    for d in range(coeff_set.dims):
        for a in range(1, alpha[:, d].max(initial=0) + 1):
            rows = np.flatnonzero(alpha[:, d] == a)
            fields[rows] = fields[rows] * G[d] ** a / math.sqrt(math.factorial(a))
    return fields


def build_lognormal_operator(spec: LognormalFieldSpec, mesh: Mesh, dims: int,
                             degree: int) -> GalerkinOperator:
    """Coupled operator for the lognormal coefficient.

    The solution basis is the order-``degree`` Hermite set in ``dims``
    variables; the coefficient is expanded to order 2*degree over the same
    variables.  The resulting block pattern is fully dense.  Every
    K_alpha comes from one stiffness assembly of all the fields.  The
    operator gets the coefficient fields at the mesh nodes and the local
    hat stiffness as its nodal factors, which its products read.
    """
    family = hermite_family()
    basis = build_multi_index_set(dims, degree)
    coeff_set = build_multi_index_set(dims, 2 * degree)
    gauss = gaussian_kl(spec, mesh, dims)
    fields = lognormal_gpc_coefficients(gauss, coeff_set)
    tensor = build_triple_product_tensor(basis, coeff_set, family)
    return GalerkinOperator(assemble_weighted_stiffness(mesh, fields), tensor,
                            nodal=(fields, *local_hat_stiffness(mesh)))


def dense_d_block_solve(op: GalerkinOperator, level: int, rhs: np.ndarray,
                        inner: InnerSolver = InnerSolver()) -> np.ndarray:
    """Solve D_l X = rhs by GalerkinOperator.d_block_solve."""
    return op.d_block_solve(level, rhs, inner)
