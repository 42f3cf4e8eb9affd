"""Compiled bucketed apply plan for HODLR matrix application.

:meth:`~repro.core.hodlr.HODLRMatrix.matvec` walks the cluster tree one
sibling pair at a time — half a dozen small NumPy calls per pair, paid again
on *every* product.  Inside a Krylov loop (GMRES/CG with a HODLR operator or
preconditioner) that Python-level schedule dominates the iteration cost.

:class:`ApplyPlan` compiles the matrix **once** into the paper's batched
execution shape:

* leaf diagonal blocks are stacked into strided 3-D storage, one bucket per
  leaf size;
* at every tree level the ``U`` bases and the conjugate-transposed ``V``
  bases of all off-diagonal blocks are packed into one strided stack per
  ``(rows, cols, rank)`` shape bucket, together with the row/column gather
  indices of each block.

A product then executes as exactly ``#diag_buckets + 2 * #lowrank_buckets``
batched gemm launches (``T = V^* x`` and ``y += U T`` per bucket) — i.e.
``O(levels x buckets)`` kernel launches instead of ``O(nodes)`` Python
iterations.  For a perfect tree with uniform ranks that is 3 launches per
level.  All launches go through :func:`repro.backends.batched.
gemm_strided_batched`, so kernel traces and the performance model see the
compiled schedule.

Mixed precision
---------------
The single-vector apply is memory-bandwidth-bound: each matvec streams the
whole packed storage once, while the arithmetic intensity per byte is tiny.
An :class:`~repro.backends.context.ExecutionContext` whose
:class:`~repro.backends.context.PrecisionPolicy` sets ``plan="float32"``
therefore *demotes the packed storage* — all levels, or only levels at or
below ``plan_min_level`` — halving the traffic.  The per-bucket gemms run
at the demoted dtype; their results are accumulated into a
``precision.accumulate`` (default float64) accumulator so rounding does not
compound across levels, and the caller-visible output dtype is unchanged.

The plan stores packed *copies* of the blocks (roughly doubling — or with
demotion, adding half of — the matrix footprint); it is a snapshot —
recompile it (:meth:`ApplyPlan.patch`) after mutating the HODLR blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends.batched import gemm_strided_batched
from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.dispatch import plan_batch
from .packing import GatherScatter, demote_rhs_dtype, pack_stack


@dataclass
class _DiagBucket:
    """Leaf diagonal blocks of one common size, packed for batched gemm."""

    #: precomputed (nb, m) row gather/scatter of each block
    gs: GatherScatter
    #: (nb, m, m) stacked diagonal blocks (possibly precision-demoted)
    D3: np.ndarray

    @property
    def idx(self) -> np.ndarray:
        """(nb, m) row indices of each block (gather and scatter positions)."""
        return self.gs.idx

    @property
    def nbytes(self) -> int:
        return int(self.gs.nbytes + self.D3.nbytes)


@dataclass
class _LowRankBucket:
    """Off-diagonal blocks of one level sharing ``(rows, cols, rank)``."""

    level: int
    #: precomputed output-row scatter — disjoint across the bucket (one level)
    row_gs: GatherScatter
    #: precomputed input-row gather
    col_gs: GatherScatter
    #: (nb, m, r) stacked left bases (possibly precision-demoted)
    U3: np.ndarray
    #: (nb, r, n) stacked conjugate-transposed right bases (``V^*``)
    Vh3: np.ndarray

    @property
    def row_idx(self) -> np.ndarray:
        """(nb, m) output row indices of each block."""
        return self.row_gs.idx

    @property
    def col_idx(self) -> np.ndarray:
        """(nb, n) input row indices of each block."""
        return self.col_gs.idx

    @property
    def nbytes(self) -> int:
        return int(
            self.row_gs.nbytes + self.col_gs.nbytes + self.U3.nbytes + self.Vh3.nbytes
        )


class ApplyPlan:
    """The compiled batched application schedule of one HODLR matrix."""

    def __init__(self, hodlr, context: Optional[ExecutionContext] = None) -> None:
        self._context = context or DEFAULT_CONTEXT
        self._compile(hodlr)

    def _compile(self, hodlr) -> None:
        """Build the bucket structure from the matrix blocks."""
        xb = self._context.backend
        precision = self._context.precision
        tree = hodlr.tree
        self.n: int = tree.n
        #: the *logical* dtype: what products promote against, regardless of
        #: any storage demotion below
        self.dtype = np.dtype(hodlr.dtype)
        self.levels: int = tree.levels
        self.diag_buckets: List[_DiagBucket] = []
        self.lowrank_buckets: List[_LowRankBucket] = []

        def _pack(stack_members, level: int):
            # shared with FactorPlan: see repro.core.packing
            return pack_stack(xb, stack_members, precision.plan_dtype(self.dtype, level))

        # leaf diagonal blocks sit at the deepest level of the tree
        leaves = tree.leaves
        for bucket in plan_batch([leaf.size for leaf in leaves]).buckets:
            members = [leaves[i] for i in bucket.indices]
            gs = GatherScatter(
                np.stack([leaf.indices for leaf in members])  # repro-lint: ignore[RL001] -- gather-index metadata: host integer row maps by design
            )
            D3 = _pack([hodlr.diag[leaf.index] for leaf in members], tree.levels)
            self.diag_buckets.append(_DiagBucket(gs=gs, D3=D3))

        for level in range(1, tree.levels + 1):
            # two blocks per sibling pair: A(I_l, I_r) = U_l V_r^* and its mirror
            specs = []
            for left, right in tree.sibling_pairs(level):
                specs.append((left, right, hodlr.U[left.index], hodlr.V[right.index]))
                specs.append((right, left, hodlr.U[right.index], hodlr.V[left.index]))
            specs = [s for s in specs if s[2].shape[1] > 0]
            if not specs:
                continue
            keys = [(rn.size, cn.size, Ub.shape[1]) for rn, cn, Ub, _ in specs]
            for bucket in plan_batch(keys).buckets:
                members = [specs[i] for i in bucket.indices]
                row_gs = GatherScatter(
                    np.stack([rn.indices for rn, _, _, _ in members])  # repro-lint: ignore[RL001] -- gather-index metadata: host integer row maps by design
                )
                col_gs = GatherScatter(
                    np.stack([cn.indices for _, cn, _, _ in members])  # repro-lint: ignore[RL001] -- gather-index metadata: host integer row maps by design
                )
                self.lowrank_buckets.append(
                    _LowRankBucket(
                        level=level,
                        row_gs=row_gs,
                        col_gs=col_gs,
                        U3=_pack([Ub for _, _, Ub, _ in members], level),
                        Vh3=_pack([Vb.conj().T for _, _, _, Vb in members], level),
                    )
                )

        #: whether any bucket stores below the logical dtype
        self.demoted: bool = any(
            b.D3.dtype != self.dtype for b in self.diag_buckets
        ) or any(b.U3.dtype != self.dtype for b in self.lowrank_buckets)

        #: per input dtype: (out, accumulate, per-diag-bucket, per-lowrank-
        #: bucket) dtypes — resolved once instead of on every application
        self._cast_plans: Dict[
            np.dtype, Tuple[np.dtype, np.dtype, Tuple[np.dtype, ...], Tuple[np.dtype, ...]]
        ] = {}

    def patch(self, hodlr) -> "ApplyPlan":
        """Recompile the plan in place from an updated matrix: a full rebuild.

        Every bucket is re-packed from ``hodlr`` on this same plan object,
        so wrappers and references held on the plan stay valid.  Returns
        ``self``.
        """
        self._compile(hodlr)
        return self

    def _cast_plan(
        self, x_dtype: np.dtype
    ) -> Tuple[np.dtype, np.dtype, Tuple[np.dtype, ...], Tuple[np.dtype, ...]]:
        """The dtype schedule of one application, cached per input dtype."""
        plan = self._cast_plans.get(x_dtype)
        if plan is None:
            out_dtype = np.result_type(self.dtype, x_dtype)
            acc_dtype = out_dtype
            if self.demoted:
                acc_dtype = np.result_type(
                    out_dtype, self._context.precision.accumulate_dtype(out_dtype)
                )
            diag = tuple(
                np.result_type(db.D3.dtype, demote_rhs_dtype(db.D3.dtype, x_dtype))
                for db in self.diag_buckets
            )
            lowrank = tuple(
                np.result_type(lb.Vh3.dtype, demote_rhs_dtype(lb.Vh3.dtype, x_dtype))
                for lb in self.lowrank_buckets
            )
            plan = (out_dtype, acc_dtype, diag, lowrank)
            self._cast_plans[x_dtype] = plan
        return plan

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` through the compiled batched schedule.

        Accepts a vector or a block of vectors, like
        :meth:`~repro.core.hodlr.HODLRMatrix.matvec` (whose loop path this
        reproduces to rounding error at full precision; a demoted plan
        agrees to the demoted dtype's accuracy while the accumulation and
        output stay at the full dtype).
        """
        xb = self._context.backend
        x = xb.asarray(x)
        if x.ndim > 2:
            raise ValueError(
                f"operand must be a vector or a (n, K) block, got ndim={x.ndim}"
            )
        squeeze = x.ndim == 1
        X = x.reshape(-1, 1) if squeeze else x
        if X.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: matrix is {self.n}, vector is {X.shape[0]}")
        out_dtype, acc_dtype, diag_dtypes, lowrank_dtypes = self._cast_plan(
            np.dtype(X.dtype)
        )
        y = xb.zeros((self.n, X.shape[1]), dtype=acc_dtype)

        # the right-hand side cast to each demoted bucket dtype, computed once
        casts = {np.dtype(X.dtype): X}

        def _cast(dt):
            if dt not in casts:
                casts[dt] = X.astype(dt)
            return casts[dt]

        for db, dt in zip(self.diag_buckets, diag_dtypes):
            # row indices are disjoint within a bucket, so the precomputed
            # scatter-add writes without collisions
            Xb = _cast(dt)
            db.gs.add(y, gemm_strided_batched(db.D3, db.gs.take(Xb), backend=xb, plan=True))

        for lb, dt in zip(self.lowrank_buckets, lowrank_dtypes):
            Xb = _cast(dt)
            T = gemm_strided_batched(lb.Vh3, lb.col_gs.take(Xb), backend=xb, plan=True)
            lb.row_gs.add(y, gemm_strided_batched(lb.U3, T, backend=xb, plan=True))

        if y.dtype != out_dtype:
            y = y.astype(out_dtype)
        return y.reshape(-1) if squeeze else y

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def context(self) -> ExecutionContext:
        return self._context

    @property
    def num_buckets(self) -> int:
        return len(self.diag_buckets) + len(self.lowrank_buckets)

    @property
    def launches_per_apply(self) -> int:
        """Batched kernel launches one product costs under this plan."""
        return len(self.diag_buckets) + 2 * len(self.lowrank_buckets)

    @property
    def nbytes(self) -> int:
        return int(
            sum(b.nbytes for b in self.diag_buckets)
            + sum(b.nbytes for b in self.lowrank_buckets)
        )

    def storage_dtypes(self) -> dict:
        """Plan storage dtype per tree level (diagnostics for precision tests).

        Keys are tree levels (leaf diagonal buckets report the deepest
        level); values are the packed storage dtypes.
        """
        out = {}
        for db in self.diag_buckets:
            out[self.levels] = np.dtype(db.D3.dtype)
        for lb in self.lowrank_buckets:
            out[lb.level] = np.dtype(lb.U3.dtype)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        demoted = ", mixed-precision" if self.demoted else ""
        return (
            f"ApplyPlan(n={self.n}, levels={self.levels}, "
            f"buckets={self.num_buckets}, launches_per_apply={self.launches_per_apply}"
            f"{demoted})"
        )


#: backwards-compatible alias; the helper moved to :mod:`repro.core.packing`
#: where both compiled plans (ApplyPlan and FactorPlan) share it
_demote_like = demote_rhs_dtype
