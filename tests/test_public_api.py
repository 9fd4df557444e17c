"""The names ``sgfem`` exports, pinned: adding or removing one edits this list."""
import sgfem

PUBLIC_API = [
    "BlockSGS",
    "CovarianceSpec",
    "ExperimentConfig",
    "GalerkinOperator",
    "HierarchicalSchur",
    "InnerSolveError",
    "InnerSolver",
    "KLExpansion",
    "LognormalFieldSpec",
    "MeanBased",
    "Mesh",
    "MultiIndexSet",
    "PolynomialFamily",
    "SolveReport",
    "SpectralDiagnostic",
    "TripleProductTensor",
    "WorkCount",
    "assemble_load",
    "assemble_weighted_stiffness",
    "build_kl_expansion",
    "build_lognormal_operator",
    "build_mesh",
    "build_multi_index_set",
    "build_triple_product_tensor",
    "build_uniform_operator",
    "cg",
    "dense_d_block_solve",
    "eig_1d_exponential",
    "eig_2d_separable",
    "fcg",
    "gaussian_kl",
    "hermite_family",
    "lanczos_condition_estimate",
    "legendre_family",
    "lognormal_gpc_coefficients",
    "make_preconditioner",
    "reduced_system_solve",
    "run_experiment",
    "run_row",
    "run_table",
    "spectral_diagnostic",
    "work_count",
]


def test_exports_are_the_pinned_list():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert len(set(sgfem.__all__)) == len(sgfem.__all__)
    assert sorted(sgfem.__all__) == PUBLIC_API


def test_every_export_resolves():
    for name in sgfem.__all__:
        assert hasattr(sgfem, name), name
