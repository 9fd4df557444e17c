"""Anatomy of the hierarchical Schur complement preconditioner.

One application walks the nested 2x2 partition down (pre-corrections), solves
the mean-value problem at the bottom, and walks back up (post-corrections).
This script shows three things on a small problem:

1. the instrumented block-operation tallies of one application equal the
   predicted work counts exactly;
2. with no stochastic coupling the application is the exact inverse;
3. the measured condition number of the preconditioned system obeys the
   product bound built from the per-level spectral equivalence constants.
"""
import numpy as np

from sgfem import (ExperimentConfig, HierarchicalSchur, InnerSolver,
                   KLExpansion, build_mesh, build_multi_index_set,
                   build_uniform_operator, spectral_diagnostic, work_count)
from sgfem.experiments import build_operator
from sgfem.fem import assemble_load

exact = InnerSolver(kind="exact")

# 1. counter tallies
op = build_operator(ExperimentConfig(N=3, P=3, h=0.25, cov=0.5))
prec = HierarchicalSchur(op, exact)
b = op.rhs(assemble_load(build_mesh(0.25), 1.0)).ravel()
prec(b)
wc = work_count(3, 3)
print("one application on N=3, P=3:")
print(f"  block products: {prec.counters.block_matvecs} (predicted n_m = {wc.n_m})")
print(f"  block solves:   {prec.counters.block_solves} (predicted n_ds = {wc.n_ds})")

# 2. exact-inverse limit
mesh = build_mesh(0.25)
kl0 = KLExpansion(np.zeros(2), np.zeros((2, mesh.n_nodes)), 1.0)
op0 = build_uniform_operator(mesh, kl0, build_multi_index_set(2, 2))
prec0 = HierarchicalSchur(op0, exact)
x = np.random.default_rng(0).standard_normal(op0.shape[0])
err = np.linalg.norm(prec0(op0.matvec(x)) - x) / np.linalg.norm(x)
print(f"\nzero-coupling limit: ||M A x - x|| / ||x|| = {err:.2e}")

# 3. spectral-equivalence bound
diag = spectral_diagnostic(ExperimentConfig(N=2, P=2, h=0.25, cov=0.5))
print("\nper-level equivalence constants (S_l vs A_l):")
for level, c1, c2 in diag.levels:
    print(f"  level {level}: c1 = {c1:.6f}, c2 = {c2:.6f}, ratio = {c2 / c1:.6f}")
print(f"  product bound: {diag.bound:.6f}")
print(f"  measured kappa(M A): {diag.kappa:.6f}  (bound holds: {diag.satisfied})")
