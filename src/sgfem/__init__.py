"""Matrix-free stochastic Galerkin FEM with hierarchical Schur preconditioning.

The package discretizes a 2D diffusion problem with a random coefficient by
polynomial chaos in the stochastic variables and bilinear finite elements in
space, applies the coupled block operator from the stiffness matrices of the
coefficient expansion (matrix-free, or for the lognormal coefficient, whose
blocks sum several terms, from one dense stochastic block per mesh node),
and solves it with (flexible) conjugate gradients under mean-based, block
symmetric Gauss-Seidel, or hierarchical Schur complement preconditioning.
"""
from .fem import Mesh, assemble_load, assemble_weighted_stiffness, build_mesh
from .kle import (CovarianceSpec, KLExpansion, build_kl_expansion,
                  eig_1d_exponential, eig_2d_separable)
from .krylov import SolveReport, cg, fcg, lanczos_condition_estimate
from .lognormal import (LognormalFieldSpec, build_lognormal_operator,
                        dense_d_block_solve, gaussian_kl,
                        lognormal_gpc_coefficients)
from .multi_index import MultiIndexSet, build_multi_index_set
from .operator import (GalerkinOperator, InnerSolveError, InnerSolver,
                       build_uniform_operator)
from .orthopoly import PolynomialFamily, hermite_family, legendre_family
from .precond import (BlockSGS, HierarchicalSchur, MeanBased, WorkCount,
                      make_preconditioner, reduced_system_solve, work_count)
from .triple_product import TripleProductTensor, build_triple_product_tensor
from .experiments import (ExperimentConfig, SpectralDiagnostic, run_experiment,
                          run_row, run_table, spectral_diagnostic)

__all__ = [
    "Mesh", "assemble_load", "assemble_weighted_stiffness", "build_mesh",
    "CovarianceSpec", "KLExpansion", "build_kl_expansion",
    "eig_1d_exponential", "eig_2d_separable",
    "SolveReport", "cg", "fcg", "lanczos_condition_estimate",
    "LognormalFieldSpec", "build_lognormal_operator", "dense_d_block_solve",
    "gaussian_kl", "lognormal_gpc_coefficients",
    "MultiIndexSet", "build_multi_index_set",
    "GalerkinOperator", "InnerSolveError", "InnerSolver",
    "build_uniform_operator",
    "PolynomialFamily", "hermite_family", "legendre_family",
    "BlockSGS", "HierarchicalSchur", "MeanBased", "WorkCount",
    "make_preconditioner", "reduced_system_solve", "work_count",
    "TripleProductTensor", "build_triple_product_tensor",
    "ExperimentConfig", "SpectralDiagnostic", "run_experiment", "run_row",
    "run_table", "spectral_diagnostic",
]

__version__ = "0.1.0"
