"""Hermite chaos expansion of a lognormal coefficient and its solver behavior.

The lognormal field exp(gaussian) is represented in an orthonormal Hermite
basis carried to twice the solution order.  Unlike the linear/uniform case,
every block of the coupled matrix is nonzero and the same-degree matrices
D_l are coupled systems.  The hierarchical preconditioner still applies,
solving each level either directly or by inner iterations.
"""
import math

import numpy as np

from sgfem import (ExperimentConfig, LognormalFieldSpec, build_mesh,
                   build_multi_index_set, gaussian_kl,
                   lognormal_gpc_coefficients, run_row)
from sgfem.reference import reference_row

spec = LognormalFieldSpec(mean=1.0, cov=1.0, corr_length=0.5)
print(f"lognormal field: mean 1, CoV 100% -> gaussian sigma_g^2 = "
      f"{spec.sigma_g2:.4f}, mu_g = {spec.mu_g:.4f}")

mesh = build_mesh(0.1)
gauss = gaussian_kl(spec, mesh, n_terms=2)
coeff = build_multi_index_set(2, 8)
fields = lognormal_gpc_coefficients(gauss, coeff)
[node] = np.flatnonzero(np.all(mesh.node_coords == 0.5, axis=1))
s2 = float(np.sum(gauss.fields[:, node] ** 2))
mean_exact = math.exp(spec.mu_g + s2 / 2)
var_exact = math.exp(2 * spec.mu_g + s2) * (math.exp(s2) - 1.0)
var_gpc = float(np.sum(fields[1:, node] ** 2))
print(f"at the center node: chaos mean {fields[0, node]:.6f} "
      f"(exact {mean_exact:.6f}), chaos variance {var_gpc:.6f} "
      f"(exact {var_exact:.6f})")

print("\nsolver columns, P=4, h=1/10 (lognormal sweep row):")
for n in (1, 2):
    row = run_row(ExperimentConfig(distribution="lognormal", N=n, P=4,
                                   h=0.1, cov=1.0), sweep_value=n)
    ref = reference_row("T5", n)
    cells = "  ".join(f"{kind}: {it}/{kappa:.3f} (ref {ref[kind][0]})"
                      for kind, (it, kappa) in row.results.items()
                      if kind != "none")
    print(f"  N={n}: {cells}")
