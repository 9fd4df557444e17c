"""Block preconditioners for the coupled Galerkin system.

Three preconditioners are provided, all operating block-wise:

* mean-based: every spatial block of the residual is solved independently
  with the mean matrix, one block solve per block.
* block symmetric Gauss-Seidel: a forward and a backward block sweep, one
  routine, over the natural block order from a zero guess; symmetric
  whenever the operator is.  A sweep walks the levels: each takes its
  coupling to the levels swept before it in one product; then a level with
  D_l = I (x) K_0 is one level solve, and a coupled level is swept
  block by block against its couplings, summed once from the coupling values.
* hierarchical Schur complement: walks the nested 2x2 partition downward
  computing pre-corrections g_{l-1} = r_l^head - B_l D_l^{-1} r_l^tail,
  solves the mean-value problem D_0 = A_00 at the bottom, and walks back up
  with post-corrections u_l^tail = D_l^{-1} (r_l^tail - C_l u_l^head).
  Replacing each Schur complement by the next-lower hierarchy matrix is the
  only approximation; with exact block solves on a decoupled system it is
  the exact inverse.  It applies to any leading hierarchy A_L, the one its
  residual spans, so the Schur reduction uses it on the same operator.

Every level solve, the bottom one included, is ``d_block_solve``, and every
product with blocks of other levels is ``product`` over the ranges of
``level_slices``; under the exact policy block Gauss-Seidel factors the
diagonal blocks of a coupled level by ``band_solvers``, which refuses a
block that is not positive definite (each is symmetric: the operator
refuses non-symmetric K_i when it is built).  No preconditioner assembles
a matrix.  The constructors set an inner policy's tol of None to their
outer tolerance.

Each preconditioner tallies block-level work: one counter unit is one
diagonal-block solve or one product with an off-diagonal block the operator
multiplies (``live_blocks``).  For one application of the hierarchical
preconditioner on A_L the tallies are 2 m - 1 solves for its m blocks and one
product per live block of A_L whose two degrees differ; for A_P of a
block-diagonal-level operator that is n_ds = 2 n_db - 1 and n_m = n_b - n_db,
the tabulated work counts.  On either form of the operator a counted
product is work done: the pre-summed form multiplies only the blocks of the
rows asked for, and the matrix-free form multiplies each K_i with only the
column blocks that reach them, gathered as whole rows of the block vector
whose leading n_c columns are copied transposed (one K_i X_j per counted
block at N=8, P=4, h=1/10; a K_i whose skipped columns would save less
than gathering its own costs, ``operator.GATHER_COPY`` and
``GATHER_FIXED``, fitted to the timings in BENCH_gather.json, multiplies
its whole column range).

Under an exact inner policy the three preconditioners can also give A z for
the z they return, and CG takes that pair in place of its own operator apply
(``paired``, ``krylov``).  Each does so on an operator whose products run
matrix-free; block Gauss-Seidel and the hierarchical one also need every
level to be D_l = I (x) K_0 (the linear coefficient):

* mean-based, z = (I (x) K_0)^{-1} r: A z = r + (A - I (x) K_0) z, the
  second term one matrix-free product over the coefficients i >= 1 (2280
  of the 2775 K-columns of a full apply at N=8, P=4, h=1/10); a nodal
  block T_n holds K_0's term, so the lognormal operator applies A itself;
* block Gauss-Seidel, A = L + D + U over the level ranges: the forward sweep
  gives (L + D) y = r and the backward one (D + U) z = D y, so
  A z = r + L (z - y) = D y + L z, with D y = r - L y the right-hand side
  of each level's forward solve;
* hierarchical Schur: the post-correction makes the tail rows of level l
  exact, and its head rows differ from the pre-corrected residual by
  B_l (z_l - t_l), t_l the level's down-sweep solve, so
  A z = r + sum_l B_l (z_l - t_l); r - sum_l B_l t_l is the residual that
  reaches each level on the way down, so A z is that plus the products
  B_l z_l.

The last two multiply each level's final iterate once.  Once z_l is final
(the backward sweep) or u_l is (the up-sweep), one product without K_0 over
the rows its columns reach, levels l - 1..l + 1 for the linear coefficient
(``_column_spans``), gives both what the sweep still needs and a term of A z;
level l's own rows are zero there.  For block Gauss-Seidel the rows below l
are the backward coupling of the levels below, and those above the L z term
of the levels above; for the hierarchical one the rows above l are the
C-terms of the up-sweep, and those below the B_l z_l of A z.  A paired
application so makes 2P + 1 products, P in the forward sweep or the
down-sweep and one per level 0..P, where the sweeps with a separate A z
pass made 3P.  Each identity needs the solves it assumes, K_0 z_j = r_j or
D_l z_l what the sweep solved for; an inexact inner solve breaks it.  The
column-level products are operator work done in place of the apply CG
skips, not block work of the preconditioner: ``Counters`` counts the blocks
of the sweeps' couplings as before, and its tallies still meet the closed
forms.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import krylov
from .multi_index import build_multi_index_set
from .operator import GalerkinOperator, InnerSolver, _csr_view
from .orthopoly import legendre_family
from .triple_product import TripleProductTensor, build_triple_product_tensor


@dataclass
class WorkCount:
    """Block-operation counts per preconditioner application."""

    n_b: int       # nonzero blocks in the global matrix
    n_db: int      # diagonal blocks
    n_m: int       # block matvecs per hierarchical application
    n_ds: int      # block diagonal solves per hierarchical application

    def as_dict(self) -> dict:
        return {"n_b": self.n_b, "n_db": self.n_db, "n_m": self.n_m, "n_ds": self.n_ds}

    @classmethod
    def of(cls, tensor: TripleProductTensor) -> "WorkCount":
        """Work counts for a linear-coefficient tensor's block structure.

        n_b and n_db come from the block sparsity pattern; the
        per-application counts follow from the two sweeps of the
        hierarchical preconditioner: n_m = n_b - n_db and
        n_ds = 2(n_db - 1) + 1.
        """
        n_b = tensor.n_blocks
        n_db = tensor.n_diag_blocks
        return cls(n_b, n_db, n_b - n_db, 2 * (n_db - 1) + 1)


def work_count(dims: int, degree: int) -> WorkCount:
    """Work counts for the linear-coefficient block structure in ``dims``
    variables to order ``degree`` in the Legendre basis."""
    basis = build_multi_index_set(dims, degree)
    coeff = build_multi_index_set(dims, 1)
    return WorkCount.of(build_triple_product_tensor(basis, coeff, legendre_family()))


@dataclass
class Counters:
    """Mutable tallies of block-level operations."""

    block_matvecs: int = 0
    block_solves: int = 0
    applications: int = 0


def _levels_give_product(prec) -> bool:
    """The pairing condition of block Gauss-Seidel and the hierarchical
    preconditioner: every level is D_l = I (x) K_0, and the operator
    multiplies matrix-free, as their products without K_0 need."""
    op = prec.op
    return not op.presummed and all(op.level_is_scalar_diagonal(l)
                                    for l in range(op.basis.degree + 1))


def _add_beside(part: np.ndarray, rows: slice, tail: slice, below: np.ndarray,
                above: np.ndarray) -> None:
    """Add part = (A - I (x) K_0)[rows, tail] z_tail, a level's column
    product, into below at its rows before tail and into above at its rows
    after it; on the rows of tail itself, a level D_l = I (x) K_0, it is
    zero."""
    lo, hi = rows.start, rows.stop
    cut = min(hi, tail.start)
    if lo < cut:
        below[lo:cut] += part[:cut - lo]
    cut = max(lo, tail.stop)
    if cut < hi:
        above[cut:hi] += part[cut - lo:]


class _BlockPreconditioner:
    """Shared plumbing: resolved inner policy, call interface and counters."""

    def __init__(self, op: GalerkinOperator, inner: InnerSolver, outer_tol: float):
        self.op = op
        self.inner = inner if inner.tol is not None else replace(inner, tol=outer_tol)
        self.counters = Counters()

    def apply_blocks(self, R: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, r: np.ndarray) -> np.ndarray:
        flat = np.asarray(r).ndim == 1
        Z = self.apply_blocks(self.op.as_blocks(r))
        self.counters.applications += 1
        return Z.ravel() if flat else Z

    def _gives_product(self) -> bool:
        """Whether apply_blocks(R, product=True) gives (Z, A Z) under an
        exact inner policy: each class's own condition (module docstring)."""
        return False

    @cached_property
    def _column_spans(self) -> list:
        """Per level l = 0..P: the block range of the rows that level l's
        columns reach in A - I (x) K_0, over the couplings c_itj with i >= 1
        and j of degree l; empty, at level l, when none does.  For the
        linear coefficient, levels l - 1..l + 1, l's own rows zero."""
        op = self.op
        i, t, j, _ = op.coupling_entries
        spans = []
        for l in range(op.basis.degree + 1):
            _, tail = op.level_slices(l)
            reached = t[(i >= 1) & (j >= tail.start) & (j < tail.stop)]
            spans.append(slice(int(reached.min()), int(reached.max()) + 1) if len(reached)
                         else slice(tail.start, tail.start))
        return spans

    def paired(self, apply_a):
        """The step r -> (M r, A M r) on flat vectors that ``krylov`` takes
        in place of apply_a, or None.  Only for apply_a the operator's own
        ``matvec``, when the inner policy is exact and the class's condition
        holds (``_gives_product``): for the mean-based preconditioner an
        operator that multiplies matrix-free, for the other two one whose
        every level is I (x) K_0."""
        op = self.op
        if not (self.inner.kind == "exact" and apply_a == op.matvec
                and self._gives_product()):
            return None

        def step(r):
            Z, AZ = self.apply_blocks(op.as_blocks(r), product=True)
            self.counters.applications += 1
            return Z.ravel(), AZ.ravel()

        return step


class MeanBased(_BlockPreconditioner):
    """Independent solves of every spatial block with the mean matrix K_0.

    With ``product`` it also returns A z = r + (A - I (x) K_0) z, the
    second term one matrix-free product without coefficient 0, valid when
    ``paired`` offers it.
    """

    def __init__(self, op: GalerkinOperator, inner: InnerSolver = InnerSolver(),
                 outer_tol: float = 1e-8):
        super().__init__(op, inner, outer_tol)
        self._solve = op.mean_solver(self.inner)

    def _gives_product(self) -> bool:
        return not self.op.presummed

    def apply_blocks(self, R: np.ndarray, product: bool = False):
        op = self.op
        R = R.reshape(op.n_blocks, op.ndof)   # ValueError naming any other size
        Z = self._solve(R)
        self.counters.block_solves += op.n_blocks
        if not product:
            return Z
        # (I (x) K_0) z = r; on the Dirichlet rows the product is zero and
        # A z = z = r
        AZ = op._product(slice(None), slice(None), Z, mean=False)
        AZ += R
        return Z, AZ


class BlockSGS(_BlockPreconditioner):
    """Symmetric block Gauss-Seidel sweep pair with zero initial guess.

    The forward sweep solves (L + D) y = r, the backward sweep
    (D + U) z = D y, which makes the mapping symmetric for symmetric
    operators.  Both are ``_sweep``: forward from x = 0 with b = r, backward
    from x = y with b = 0, given as None.  A sweep walks the levels of
    ``level_slices``, ascending forward and descending backward.  A level
    first subtracts its coupling to the levels swept before it, one
    ``product`` (forward, the C_l of the hierarchical preconditioner).  A
    level with D_l = I (x) K_0 is then one d_block_solve; a coupled
    level is swept block by block (``_level_blocks``).  The backward sweep
    starts at the top level, which has no later blocks and b = 0, so its
    update is zero: a scalar-diagonal top level is skipped (for N=8 P=4, a
    330-block product with K_0^{-1}), and a coupled one skips the solve of
    its last block.  Residuals are read as float.  With ``product``, valid
    when ``paired`` offers it, it also returns A z = D y + L z, D y the
    forward sweep's right-hand sides: the backward sweep is then a loop
    of its own over the scalar levels, which multiplies each final z_l
    once, over the rows level l's columns reach (``_column_spans``), the
    rows below l taking their backward coupling from it and those above
    their term of L z.
    """

    _gives_product = _levels_give_product

    def __init__(self, op: GalerkinOperator, inner: InnerSolver = InnerSolver(),
                 outer_tol: float = 1e-8):
        super().__init__(op, inner, outer_tol)
        # each application multiplies every live off-diagonal block once:
        # forward below the diagonal, backward above
        t, j = op.live_blocks
        self._n_products = int(np.count_nonzero(t != j))

    @cached_property
    def _level_blocks(self) -> list:
        """Per level l = 0..P: None when D_l = I (x) K_0, else
        (values, solvers), built at the first application.  values[j, s, e]
        is block (j, s) of D_l at stored spatial position e, summed from the
        coupling values (``block_values``), C-contiguous.  solvers[j]
        solves with A_jj: by band Cholesky under the exact policy
        (``band_solvers``), by ``inner.make`` of values[j, j] on the shared
        pattern under the cg policy."""
        op = self.op
        levels = []
        for l in range(op.basis.degree + 1):
            if op.level_is_scalar_diagonal(l):
                levels.append(None)
                continue
            _, tail = op.level_slices(l)
            blocks = np.arange(tail.start, tail.stop)
            values = op.block_values(blocks[None])[0]
            if self.inner.kind == "exact":
                solvers = op.band_solvers(blocks[:, None],
                                          [f"diagonal block {j}" for j in blocks])
            else:
                solvers = [self.inner.make(_csr_view(values[j, j], op.indices, op.indptr))
                           for j in range(len(blocks))]
            levels.append((values, solvers))
        return levels

    def _sweep(self, B: np.ndarray | None, X: np.ndarray, forward: bool) -> list:
        """Over the blocks j in sweep order, x_j += A_jj^{-1} (b_j - sum
        over the blocks s swept before j of A_js x_s), in place; B None
        stands for b = 0, where the first level's first update is zero and
        is skipped.  Returns each level's b - (its coupling to the levels
        swept before it), in sweep order, a level that is skipped left out."""
        op = self.op
        levels = list(enumerate(self._level_blocks))
        kept = []
        for l, level in levels if forward else reversed(levels):
            head, tail = op.level_slices(l)
            swept = head if forward else slice(tail.stop, op.n_blocks)
            # nothing swept and b = 0: the first block's update is zero
            zero = B is None and swept.start == swept.stop
            if zero and level is None:
                continue
            coupling = op.product(tail, swept, X[swept])
            rhs = -coupling if B is None else B[tail] - coupling
            kept.append(rhs)
            if level is None:
                X[tail] += op.d_block_solve(l, rhs, self.inner)
                continue
            values, solvers = level
            x, m = X[tail], len(solvers)
            # G[s]: x_s at the column of every stored position, once swept
            G = np.empty((m, len(op.indices)))
            for j in range(m) if forward else reversed(range(m)):
                done = slice(0, j) if forward else slice(j + 1, m)
                if not (zero and j == (0 if forward else m - 1)):
                    coupling = op.row_sums(np.einsum("se,se->e", values[j, done], G[done]))
                    x[j] += solvers[j](rhs[j] - coupling)
                x[j].take(op.indices, out=G[j])
        return kept

    def apply_blocks(self, R: np.ndarray, product: bool = False):
        op = self.op
        # ValueError naming any other size
        R = np.asarray(R, dtype=float).reshape(op.n_blocks, op.ndof)
        Y = np.zeros_like(R)
        D_y = self._sweep(R, Y, forward=True)
        if not product:
            self._sweep(None, Y, forward=False)
        else:
            # the backward sweep over levels D_l = I (x) K_0, the top one
            # skipped, multiplying each final z_l once over the rows its
            # columns reach: the rows below l take their backward coupling
            # from it, and those above their term of A z = r + L (z - y) =
            # D y + L z, level m's D y being r_m - (L y)_m, the right-hand
            # side of its forward solve
            top = op.basis.degree
            AY = np.vstack(D_y)
            coupling = np.zeros((op.basis.degree_offsets[top], op.ndof))
            for l in range(top, -1, -1):
                _, tail = op.level_slices(l)
                if l < top:
                    Y[tail] += op.d_block_solve(l, -coupling[tail], self.inner)
                rows = self._column_spans[l]
                _add_beside(op._product(rows, tail, Y[tail], mean=False), rows, tail,
                            below=coupling, above=AY)
        self.counters.block_solves += 2 * op.n_blocks
        self.counters.block_matvecs += self._n_products
        return (Y, AY) if product else Y


class HierarchicalSchur(_BlockPreconditioner):
    """Recursive Schur-complement preconditioner over the degree hierarchy.

    It takes any leading hierarchy A_L (degrees <= L) of its operator: a
    residual of ``basis.degree_offsets[L + 1]`` block rows.  Descending over
    levels l = L..1: split the running residual into its head (degree < l)
    and tail (degree l) parts, solve the tail with D_l, and subtract B_l
    times that solution from the head (pre-correction).  At the bottom solve
    with D_0, the mean block.  Ascending, each level gets its tail from
    D_l^{-1} (r_l^tail - C_l u_head) (post-correction), in the output rows
    that kept r_l^tail on the way down.  With ``product``, valid when
    ``paired`` offers it, it also returns A_L u = r + sum_l B_l (u_l^tail -
    t_l), t_l the down-sweep solve of level l, as the pre-corrected
    residuals plus sum_l B_l u_l^tail: its up-sweep then multiplies each
    final u_l once, over the rows of A_L that level l's columns reach
    (``_column_spans``), the rows above l their C-term and those below
    their term of B_l u_l.
    """

    _gives_product = _levels_give_product

    def __init__(self, op: GalerkinOperator, inner: InnerSolver = InnerSolver(),
                 outer_tol: float = 1e-8):
        super().__init__(op, inner, outer_tol)
        self._levels = {m: L for L, m in enumerate(op.basis.degree_offsets[1:])}
        # each application solves every block of degree 1..L twice and the
        # mean block once, and multiplies every live block (t, j) of A_L
        # with deg(t) != deg(j) once: it lies in exactly one B_l or C_l
        degree = np.array(op.basis.degrees())
        t, j = op.live_blocks
        higher = np.maximum(degree[t], degree[j])[degree[t] != degree[j]]
        self._n_products = np.bincount(higher, minlength=len(self._levels)).cumsum().tolist()

    def apply_blocks(self, R: np.ndarray, product: bool = False):
        op = self.op
        top = self._levels.get(len(R))
        if top is None:
            raise ValueError(f"{len(R)} block rows span no leading hierarchy; "
                             f"expected one of {list(self._levels)}")
        cur = np.asarray(R, dtype=float)
        U = np.empty_like(cur)
        for l in range(top, 0, -1):
            head, tail = op.level_slices(l)
            U[tail] = cur[tail]
            t = op.d_block_solve(l, cur[tail], self.inner)
            cur = cur[head] - op.product(head, tail, t)
        U[:1] = op.d_block_solve(0, cur, self.inner)
        if not product:
            for l in range(1, top + 1):
                head, tail = op.level_slices(l)
                U[tail] = op.d_block_solve(l, U[tail] - op.product(tail, head, U[head]),
                                           self.inner)
        else:
            # the up-sweep over levels D_l = I (x) K_0, multiplying each
            # final u_l once over the rows of A_L its columns reach: the rows
            # above l take their C-term from it, and those below their term
            # of A_L u = (r - sum_l B_l t_l) + sum_l B_l u_l; r - sum_l B_l
            # t_l is each level's residual after the pre-corrections, kept
            # in U's rows above the mean
            AU = np.vstack([cur, U[1:]])
            C_u = np.zeros(U.shape)
            for l in range(top + 1):
                _, tail = op.level_slices(l)
                if l:
                    U[tail] = op.d_block_solve(l, U[tail] - C_u[tail], self.inner)
                span = self._column_spans[l]
                rows = slice(span.start, min(span.stop, len(R)))
                _add_beside(op._product(rows, tail, U[tail], mean=False), rows, tail,
                            below=AU, above=C_u)
        self.counters.block_solves += 2 * len(R) - 1
        self.counters.block_matvecs += self._n_products[top]
        return (U, AU) if product else U


def reduced_system_solve(op: GalerkinOperator, b: np.ndarray, tol: float = 1e-8,
                         max_iter: int | None = None):
    """Eliminate the top-level trailing blocks and iterate on the Schur system.

    Requires exact solves with D_P (the reduction is only justified then).
    Returns the full-system solution together with the report of the reduced
    iteration: CG on S x = A_{P-1} x - B_P D_P^{-1} C_P x, applied
    matrix-free and preconditioned by the hierarchical preconditioner of
    ``op`` on its leading hierarchy A_{P-1}.
    """
    level = op.basis.degree
    if level == 0:
        raise ValueError("nothing to reduce for a constant-only basis")
    exact = InnerSolver(kind="exact", tol=tol)
    head, tail = op.level_slices(level)
    B = op.as_blocks(b)
    n_head = head.stop

    def d_solve(X):
        return op.d_block_solve(level, X, exact)

    g = B[head] - op.product(head, tail, d_solve(B[tail]))

    def schur_apply(x):
        X = x.reshape(n_head, op.ndof)
        AX = op.product(head, head, X)
        CX = op.product(tail, head, X)
        AX -= op.product(head, tail, d_solve(CX))
        return AX.ravel()

    apply_m = HierarchicalSchur(op, exact, tol)
    x_head, report = krylov.cg(schur_apply, g.ravel(), apply_m=apply_m,
                               tol=tol, max_iter=max_iter)
    X_head = x_head.reshape(n_head, op.ndof)
    u_tail = d_solve(B[tail] - op.product(tail, head, X_head))
    x = np.vstack([X_head, u_tail])
    return x, report


def make_preconditioner(op: GalerkinOperator, kind: str,
                        inner: InnerSolver = InnerSolver(),
                        outer_tol: float = 1e-8):
    """The preconditioner named ``kind``: none, mean, bsgs or hs."""
    if kind in (None, "none"):
        return None
    if kind == "mean":
        return MeanBased(op, inner, outer_tol)
    if kind == "bsgs":
        return BlockSGS(op, inner, outer_tol)
    if kind == "hs":
        return HierarchicalSchur(op, inner, outer_tol)
    raise ValueError(f"unknown preconditioner kind {kind!r}")
