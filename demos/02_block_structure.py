"""Block sparsity of the coupled Galerkin matrix and the work counts.

For a truncated linear coefficient expansion the coupling tensor
c_ijk = E[psi_i psi_j psi_k] makes most blocks of the global matrix vanish,
and the surviving pattern nests: the leading sub-matrix of order P-1 repeats
the structure, with a *diagonal* same-degree block at every level.  The
block counts drive the preconditioner's cost: one application performs
n_m = n_b - n_db block products and n_ds = 2(n_db - 1) + 1 block solves.
"""
import os

from sgfem import (build_multi_index_set, build_triple_product_tensor,
                   legendre_family, work_count)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)
fam = legendre_family()

for dims, degree in [(4, 4), (4, 7)]:
    basis = build_multi_index_set(dims, degree)
    coeff = build_multi_index_set(dims, 1)
    tensor = build_triple_product_tensor(basis, coeff, fam)
    print(f"N={dims}, P={degree}: {len(basis)} chaos blocks, "
          f"{tensor.n_blocks} nonzero blocks of {len(basis) ** 2}")
    print(f"  nested partition sizes: {list(basis.degree_offsets[1:])}")
    print("  same-degree blocks diagonal:", tensor.has_block_diagonal_levels())
    path = os.path.join(OUT, f"pattern_N{dims}_P{degree}.csv")
    tensor.write_block_pattern_csv(path)
    print(f"  wrote {path}")

print("\nwork counts (N or P sweeping, the other fixed at 4):")
print("  r   n_b   n_db   n_m    n_ds")
for r in range(1, 9):
    wc = work_count(r, 4)
    assert wc.as_dict() == work_count(4, r).as_dict()
    print(f"  {r}  {wc.n_b:5d} {wc.n_db:5d} {wc.n_m:6d} {wc.n_ds:5d}")
