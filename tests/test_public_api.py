"""The names ``sgfem`` exports and the run options it takes, pinned: adding
or removing one edits these lists.  The traced benchmark's entry points
must exist too."""
import importlib
from dataclasses import fields
from pathlib import Path

import sgfem
from sgfem import experiments

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


def test_option_surface_is_the_pinned_list():
    assert [f.name for f in fields(experiments.ExperimentConfig)] == [
        "distribution", "N", "P", "h", "k0", "cov", "L", "preconditioner",
        "inner", "krylov", "tol", "max_iter"]
    assert experiments.CHOICES == {
        "distribution": ("uniform", "lognormal"),
        "preconditioner": ("none", "mean", "bsgs", "hs"),
        "inner": ("exact", "cg-diagonal"),
        "krylov": ("cg", "fcg"),
    }
    assert list(experiments.INNER_POLICIES) == ["exact", "cg-diagonal"]


def test_traced_entry_points_exist(monkeypatch):
    # benchmarks/spans.py patches these names; a rename fails here, not
    # only in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    spans = importlib.import_module("spans")
    assert spans.missing_entry_points() == []
