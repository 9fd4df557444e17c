"""Block preconditioners for the coupled Galerkin system.

Three preconditioners are provided, all operating block-wise:

* mean-based: every spatial block of the residual is solved independently
  with the mean matrix, one block solve per block.
* block symmetric Gauss-Seidel: a forward sweep over the levels of
  ``level_slices``, 0..P, then a backward one, P..0, from a zero guess;
  symmetric whenever the operator is.  A level with D_l = I (x) K_0 is one
  level solve, and a coupled level is swept block by block against its
  couplings, summed once from the coupling values.
* hierarchical Schur complement: walks the nested 2x2 partition downward
  computing pre-corrections g_{l-1} = r_l^head - B_l D_l^{-1} r_l^tail,
  solves the mean-value problem D_0 = A_00 at the bottom, and walks back up
  with post-corrections u_l^tail = D_l^{-1} (r_l^tail - C_l u_l^head).
  With exact D_l solves that is symmetric block Gauss-Seidel over whole
  levels run P..0 and then 0..P, and it is applied so.  Replacing each
  Schur complement by the next-lower hierarchy matrix is the only
  approximation; with exact block solves on a decoupled system it is the
  exact inverse.  It applies to any leading hierarchy A_L, the one its
  residual spans, so the Schur reduction uses it on the same operator.

The last two are one pair of level sweeps, ``_sweep``, in opposite level
orders.  A sweep holds right-hand sides W and an iterate X.  Each level l in
turn updates x_l against its rows of W, by the class's level update (one
d_block_solve; block by block on a coupled block Gauss-Seidel level), and
then takes A[rows, tail_l] x_l from W over the rows still to come that
level l's columns reach (``_column_spans``).  The first sweep starts from
W = r and X = 0.  The second starts from W = 0 and the first's X, so each
level adds to x_l the correction that the levels updated before it in the
second order make; the first level has none, and its first update is
skipped.

Every level solve, the bottom one included, is ``d_block_solve``, and every
product with blocks of other levels is ``product`` over the ranges of
``level_slices``; under the exact policy block Gauss-Seidel factors the
diagonal blocks of a coupled level by ``band_solvers``, which refuses a
block that is not positive definite (each is symmetric: the operator
refuses non-symmetric K_i when it is built).  No preconditioner assembles
a matrix.  The constructors set an inner policy's tol of None to their
outer tolerance.

Each preconditioner tallies block-level work: one counter unit is one
diagonal-block solve it makes, a level solve of m blocks counting m, or one
product with an off-diagonal block the operator multiplies
(``live_blocks``).  Per application the mean-based preconditioner solves
each of the n_b blocks once.  Block Gauss-Seidel solves each block twice,
but for those whose update its backward sweep skips: 2 n_b - m_P solves for
a scalar top level of m_P blocks, 2 n_b - 1 for a coupled one; it
multiplies each live off-diagonal block once.  The hierarchical
preconditioner on A_L makes 2 m - 1 solves for its m blocks and one
product per live block of A_L whose two degrees differ; for A_P of a
block-diagonal-level operator that is n_ds = 2 n_db - 1 and n_m = n_b - n_db,
the tabulated work counts.  On either form of the operator a counted
product is work done: the pre-summed form multiplies only the blocks of the
rows asked for, and the matrix-free form multiplies each K_i with only the
column blocks that reach them (``operator.GalerkinOperator.product``).

Under an exact inner policy the three preconditioners can also give A z for
the z they return, and CG takes that pair in place of its own operator apply
(``paired``, ``krylov``; Eisenstat's trick).  Each needs an operator whose
products run matrix-free; the sweep pair also needs every level to be
D_l = I (x) K_0 (the linear coefficient):

* mean-based, z = (I (x) K_0)^{-1} r: A z = r + (A - I (x) K_0) z, the
  second term one matrix-free product over the coefficients i >= 1; a nodal
  block T_n holds K_0's term, so the lognormal operator applies A itself;
* the sweep pair: the first sweep leaves in each level's rows of W the
  right-hand side of its solve, D_l x_l.  The second sweep takes that W as
  AX: each level, once solved, restarts its rows of W from -AX and takes
  (A - I (x) K_0)[span, tail_l] x_l, zero on its own rows, from W over its
  whole column span.  The rows still to come get what the plain sweep gives
  them; the solved ones end at -(AX_l + sum of A_lk x_k over the levels k
  solved after l), which is -(A z)_l: D y + L z for block Gauss-Seidel and
  the pre-corrected residual plus sum_l B_l u_l for the hierarchical one.

A paired application so makes 2P + 1 products, the plain one 2P.  Each
identity needs the solves it assumes, K_0 z_j = r_j or D_l x_l = W_l; an
inexact inner solve breaks it.  The wider products are operator work done
in place of the apply CG skips, not block work of the preconditioner:
``Counters`` counts the blocks of the sweeps' couplings, and its tallies
still meet the closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import krylov
from .multi_index import build_multi_index_set
from .operator import GalerkinOperator, InnerSolver
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


class _BlockPreconditioner:
    """Shared plumbing: resolved inner policy, call interface, counters and
    the level sweep of block Gauss-Seidel and the hierarchical
    preconditioner."""

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
        exact inner policy.  For the sweep pair: the operator multiplies
        matrix-free, as the products without K_0 need, and every level is
        D_l = I (x) K_0."""
        op = self.op
        return not op.presummed and all(op.level_is_scalar_diagonal(l)
                                        for l in range(op.basis.degree + 1))

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

    def _level_update(self, l: int, w: np.ndarray, x: np.ndarray, back: bool,
                      zero: bool) -> None:
        """x_l += D_l^{-1} w_l in place; with ``zero``, w_l = 0, nothing.
        ``back`` orders the blocks of a level that a class sweeps block by
        block."""
        if not zero:
            x += self.op.d_block_solve(l, w, self.inner)

    def _sweep(self, W: np.ndarray, X: np.ndarray, levels: range, back: bool = False,
               AX: np.ndarray | None = None) -> None:
        """One block Gauss-Seidel sweep over ``levels``, a contiguous range
        of levels ascending or descending, on the block rows of W and X, in
        place.  Each level l updates x_l against W[tail_l]
        (``_level_update``), then takes A[rows, tail_l] x_l from W over the
        rows still to come that its columns reach.  ``back`` marks the
        second sweep, from W = 0: its first level's update is zero and is
        skipped.  With AX, the W of the first sweep, the second sweep also
        leaves -A X in W (module docstring): each level restarts its rows
        from -AX once solved and takes (A - I (x) K_0)[span, tail_l] x_l
        from W over its whole span, on an operator of scalar levels whose
        products run matrix-free."""
        op, n = self.op, len(W)
        for k, l in enumerate(levels):
            _, tail = op.level_slices(l)
            self._level_update(l, W[tail], X[tail], back, zero=back and k == 0)
            span = self._column_spans[l]
            if AX is None:
                lo, hi = (tail.stop, n) if levels.step > 0 else (0, tail.start)
                rows = slice(max(span.start, lo), min(span.stop, hi))
                if rows.start < rows.stop:
                    W[rows] -= op.product(rows, tail, X[tail])
            else:
                rows = slice(span.start, min(span.stop, n))
                np.negative(AX[tail], out=W[tail])
                W[rows] -= op._product(rows, tail, X[tail], mean=False)

    def paired(self, apply_a):
        """The step r -> (M r, A M r) on flat vectors that ``krylov`` takes
        in place of apply_a, or None.  Only for apply_a the operator's own
        ``matvec``, when the inner policy is exact and the class's condition
        holds (``_gives_product``): for the mean-based preconditioner an
        operator that multiplies matrix-free, for the other two one whose
        every level is I (x) K_0 as well."""
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

    The forward sweep, levels 0..P, solves (L + D) y = r; the backward
    sweep, levels P..0, adds the correction of (D + U) z = D y, which makes
    the mapping symmetric for symmetric operators.  Both are ``_sweep``.  A
    level with D_l = I (x) K_0 is one d_block_solve; a coupled level is
    swept block by block (``_level_blocks``), in the sweep's order.  The
    backward sweep's first level, the top one, has no later blocks: a
    scalar-diagonal top level is skipped (for N=8 P=4, a 330-block product
    with K_0^{-1}), and a coupled one skips the solve of its last block.
    Residuals are read as float.  With ``product``, valid when ``paired``
    offers it, it also returns A z = D y + L z, D y the forward sweep's
    right-hand sides.
    """

    def __init__(self, op: GalerkinOperator, inner: InnerSolver = InnerSolver(),
                 outer_tol: float = 1e-8):
        super().__init__(op, inner, outer_tol)
        # each application multiplies every live off-diagonal block once:
        # forward below the diagonal, backward above
        t, j = op.live_blocks
        self._n_products = int(np.count_nonzero(t != j))

    @cached_property
    def _n_solves(self) -> int:
        """Block solves per application: every block twice but those whose
        update the backward sweep skips, all of a scalar top level and the
        last block of a coupled one."""
        top = self.op.basis.degree
        _, tail = self.op.level_slices(top)
        skipped = tail.stop - tail.start if self._level_blocks[top] is None else 1
        return 2 * self.op.n_blocks - skipped

    @cached_property
    def _level_blocks(self) -> list:
        """Per level l = 0..P: None when D_l = I (x) K_0, else
        (values, solvers), built at the first application.  values[j, s, e]
        is block (j, s) of D_l at stored spatial position e of the leading
        n_c rows, summed from the coupling values (``block_values``).
        solvers[j] solves with A_jj over the leading n_c nodes: by band
        Cholesky under the exact policy (``band_solvers``), by
        ``inner.make`` of values[j, j] on the leading rows' pattern under
        the cg policy."""
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
                solvers = [self.inner.make(op.leading_matrix(values[j, j]))
                           for j in range(len(blocks))]
            levels.append((values, solvers))
        return levels

    def _level_update(self, l, w, x, back, zero):
        """A coupled level: over its blocks j, ascending or, ``back``,
        descending, x_j += A_jj^{-1} (w_j - sum over the blocks s swept
        before j of A_js x_s) on the leading n_c rows, the first block's
        update skipped when ``zero``; on the Dirichlet rows, where A_jj is
        the identity and A_js zero, x += w for the whole level at once."""
        level = self._level_blocks[l]
        if level is None:
            return super()._level_update(l, w, x, back, zero)
        op, n = self.op, self.op.n_c
        values, solvers = level
        m, end = len(solvers), values.shape[-1]
        cols = op.indices[:end]
        # G[s]: x_s at the column of every stored position of the leading
        # rows, once swept
        G = np.empty((m, end))
        for k, j in enumerate(reversed(range(m)) if back else range(m)):
            done = slice(j + 1, m) if back else slice(0, j)
            if not (zero and k == 0):
                coupling = op.row_sums(np.einsum("se,se->e", values[j, done], G[done]))
                x[j, :n] += solvers[j](w[j, :n] - coupling)
            x[j].take(cols, out=G[j])
        x[:, n:] += w[:, n:]

    def apply_blocks(self, R: np.ndarray, product: bool = False):
        op = self.op
        # ValueError naming any other size
        R = np.asarray(R, dtype=float).reshape(op.n_blocks, op.ndof)
        top = op.basis.degree
        W, Y = R.copy(), np.zeros_like(R)
        self._sweep(W, Y, range(top + 1))
        W, D_y = np.zeros_like(R), W
        self._sweep(W, Y, range(top, -1, -1), back=True, AX=D_y if product else None)
        self.counters.block_solves += self._n_solves
        self.counters.block_matvecs += self._n_products
        return (Y, -W) if product else Y


class HierarchicalSchur(_BlockPreconditioner):
    """Recursive Schur-complement preconditioner over the degree hierarchy.

    It takes any leading hierarchy A_L (degrees <= L) of its operator: a
    residual of ``basis.degree_offsets[L + 1]`` block rows.  The down-sweep,
    levels L..0, solves each level against its pre-corrected residual,
    t_l = D_l^{-1} g_l, and takes B_l t_l from the rows of lower degree;
    the mean block D_0 is its last solve.  The up-sweep, levels 0..L, makes the
    post-corrections, u_l = t_l + D_l^{-1} (-C_l u_head), whose first,
    level 0's, is zero.  Both are ``_sweep``, the sweep pair of block
    Gauss-Seidel in the opposite level order.  With ``product``, valid when
    ``paired`` offers it, it also returns A_L u = g + sum_l B_l u_l, g the
    down-sweep's pre-corrected residuals.
    """

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
        top = self._levels.get(len(R))
        if top is None:
            raise ValueError(f"{len(R)} block rows span no leading hierarchy; "
                             f"expected one of {list(self._levels)}")
        W = np.array(R, dtype=float)
        U = np.zeros_like(W)
        self._sweep(W, U, range(top, -1, -1))
        W, G = np.zeros_like(W), W
        self._sweep(W, U, range(top + 1), back=True, AX=G if product else None)
        self.counters.block_solves += 2 * len(R) - 1
        self.counters.block_matvecs += self._n_products[top]
        return (U, -W) if product else U


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
