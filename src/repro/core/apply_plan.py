"""Compiled bucketed apply plan for HODLR matrix application.

:meth:`~repro.core.hodlr.HODLRMatrix.matvec` walks the cluster tree one
sibling pair at a time — half a dozen small NumPy calls per pair, paid again
on *every* product.  Inside a Krylov loop (GMRES/CG with a HODLR operator or
preconditioner) that Python-level schedule dominates the iteration cost.

:class:`ApplyPlan` compiles the matrix **once** into the paper's batched
execution shape, over the matrix's own storage
(:class:`~repro.core.hodlr.HODLRStorage`): one stack per leaf-size bucket
of diagonal blocks, and per level one ``U`` and one ``V`` stack per
node-size bucket.  A product runs, per level and storage bucket, ``T = V^*
x`` over the bucket's nodes, swaps each sibling pair's small ``T``, and
adds ``y += U T`` — exactly ``#diag_buckets + 2 * #lowrank_buckets`` batched
gemm launches, ``O(levels x buckets)`` instead of ``O(nodes)`` Python
iterations.  For a perfect tree that is 3 launches per level.  All launches
go through :func:`repro.backends.batched.gemm_strided_batched`, so kernel
traces and the performance model see the compiled schedule.

Storage
-------
The plan owns only index metadata: it reads the diagonal and ``U`` stacks,
and ``V^*`` as a transposed view (of ``U`` on a symmetric source).  It
copies only what it must transform — a precision-demoted bucket, or the
conjugated ``V`` of a complex non-symmetric matrix — and :attr:`ApplyPlan.
nbytes` counts only those copies and the indices.  Full-precision views see
in-place writes to the matrix; call :meth:`ApplyPlan.patch` after mutating
the matrix all the same.

A full-precision product allocates its ``(n, K)`` output and one
``(n, K)`` workspace, and copies no rows of the operand: a contiguous
bucket reads the operand, and writes its ``D x`` product, through
zero-copy row views (:meth:`~repro.core.packing.GatherScatter.view`);
each ``U T`` product lands in the bucket's rows of the workspace
(``gemm_strided_batched(..., out=)``) and is added in place.  The workspace is allocated per call and
never cached on the plan, so concurrent products never share it and it
never counts toward :attr:`ApplyPlan.nbytes`.  Padded and demoted buckets
gather, multiply into a fresh array and scatter-add instead.

Mixed precision
---------------
The single-vector apply is memory-bandwidth-bound: each matvec streams the
whole basis storage once, while the arithmetic intensity per byte is tiny.
An :class:`~repro.backends.context.ExecutionContext` whose
:class:`~repro.backends.context.PrecisionPolicy` sets ``plan="float32"``
therefore stores *demoted copies* — of all levels, or only levels at or
below ``plan_min_level`` — halving the traffic.  The per-bucket gemms run
at the demoted dtype; their results are accumulated into a
``precision.accumulate`` (default float64) accumulator so rounding does not
compound across levels, and the caller-visible output dtype is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends.batched import gemm_strided_batched
from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from .packing import GatherScatter, demote_rhs_dtype, owned_nbytes, viewed_buffers


def _rows(gs: GatherScatter, x: np.ndarray) -> np.ndarray:
    """The bucket's rows of ``x`` for reading: a view when it has one, else a copy."""
    v = gs.view(x)
    return gs.take(x) if v is None else v


@dataclass
class _DiagBucket:
    """Leaf diagonal blocks of one common size."""

    #: (nb, m) row gather/scatter of each block
    gs: GatherScatter
    #: (nb, m, m) diagonal blocks: the matrix's stack or a demoted copy
    D3: np.ndarray


@dataclass
class _LowRankBucket:
    """The nodes of one level sharing a size: ``T = V^* x`` over them, then
    ``y += U T_sibling``."""

    level: int
    #: rows of each member node
    gs: GatherScatter
    #: positions of the members, and of their siblings, in the level's node order
    pos: np.ndarray
    sib: np.ndarray
    #: (nb, m, r) left bases
    U3: np.ndarray
    #: (nb, r, m) conjugate-transposed right bases (``V^*``)
    Vh3: np.ndarray


@dataclass
class _Level:
    #: nodes at the level
    nnodes: int
    buckets: List[_LowRankBucket]


class ApplyPlan:
    """The compiled batched application schedule of one HODLR matrix."""

    def __init__(self, hodlr, context: Optional[ExecutionContext] = None) -> None:
        self._context = context or DEFAULT_CONTEXT
        self._compile(hodlr)

    def _compile(self, hodlr) -> None:
        """Build the bucket schedule over the matrix's storage."""
        precision = self._context.precision
        tree = hodlr.tree
        storage = hodlr.storage
        self.n: int = tree.n
        #: the *logical* dtype: what products promote against, regardless of
        #: any storage demotion below
        self.dtype = np.dtype(hodlr.dtype)
        self.levels: int = tree.levels
        self.diag_buckets: List[_DiagBucket] = []
        self.plan_levels: List[_Level] = []

        target = precision.plan_dtype(self.dtype, tree.levels)
        for db in storage.diag:
            D3 = db.D if db.D.dtype == target else db.D.astype(target)
            gs = GatherScatter.from_ranges(
                [(nd.start, nd.stop) for nd in db.nodes], db.D.shape[1]
            )
            self.diag_buckets.append(_DiagBucket(gs=gs, D3=D3))

        for level, buckets in storage.bases.items():
            if storage.level_ranks[level - 1] == 0:
                continue  # all off-diagonal blocks of the level are zero
            target = precision.plan_dtype(self.dtype, level)
            plan_buckets = []
            for b in buckets:
                U3 = b.U if b.U.dtype == target else b.U.astype(target)
                if b.V is None or b.V is b.U:
                    # symmetric: V^* = U^T (complex) or U^T = V^T (real)
                    Vh3 = U3.transpose(0, 2, 1)
                else:
                    Vh3 = b.vh()
                    if Vh3.dtype != target:
                        Vh3 = Vh3.astype(target)
                plan_buckets.append(
                    _LowRankBucket(
                        level=level,
                        gs=GatherScatter.from_ranges(
                            [(nd.start, nd.stop) for nd in b.nodes], b.U.shape[1]
                        ),
                        pos=b.positions,
                        sib=b.positions ^ 1,
                        U3=U3,
                        Vh3=Vh3,
                    )
                )
            self.plan_levels.append(
                _Level(nnodes=len(tree.level_indices(level)), buckets=plan_buckets)
            )

        #: the matrix's stacks this plan reads in place (kept alive by its
        #: views anyway); their bytes belong to the matrix
        self._shared = viewed_buffers(self.arrays(), storage.buffers())
        #: whether any bucket stores below the logical dtype
        self.demoted: bool = any(
            b.D3.dtype != self.dtype for b in self.diag_buckets
        ) or any(b.U3.dtype != self.dtype for b in self.lowrank_buckets)

        #: per input dtype: (out, accumulate, per-diag-bucket, per-level)
        #: dtypes — resolved once instead of on every application
        self._cast_plans: Dict[
            np.dtype, Tuple[np.dtype, np.dtype, Tuple[np.dtype, ...], Tuple[np.dtype, ...]]
        ] = {}

    @property
    def lowrank_buckets(self) -> List[_LowRankBucket]:
        """Every level's storage buckets, coarsest level first."""
        return [b for lv in self.plan_levels for b in lv.buckets]

    def patch(self, hodlr) -> "ApplyPlan":
        """Recompile the plan in place from an updated matrix: a full rebuild.

        Every bucket is recompiled over ``hodlr``'s storage on this same
        plan object, so wrappers and references held on the plan stay
        valid.  Returns
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
                np.result_type(
                    lv.buckets[0].Vh3.dtype,
                    demote_rhs_dtype(lv.buckets[0].Vh3.dtype, x_dtype),
                )
                for lv in self.plan_levels
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
        out_dtype, acc_dtype, diag_dtypes, level_dtypes = self._cast_plan(
            np.dtype(X.dtype)
        )
        y = xb.zeros((self.n, X.shape[1]), dtype=acc_dtype)

        # the right-hand side cast to each demoted bucket dtype, computed once
        casts = {np.dtype(X.dtype): X}

        def _cast(dt):
            if dt not in casts:
                casts[dt] = X.astype(dt)
            return casts[dt]

        # per-call workspace for the U T products, allocated on first use;
        # never cached on the plan, which serves concurrent products
        ws = None

        for db, dt in zip(self.diag_buckets, diag_dtypes):
            # y is still zero on every diagonal bucket's (disjoint) rows, so
            # a full-precision contiguous bucket writes its product in place
            Xb = _cast(dt)
            yv = db.gs.view(y) if dt == acc_dtype else None
            prod = gemm_strided_batched(db.D3, _rows(db.gs, Xb), backend=xb, plan=True, out=yv)
            if yv is None:
                db.gs.add(y, prod)

        for lv, dt in zip(self.plan_levels, level_dtypes):
            Xb = _cast(dt)
            T = None
            for b in lv.buckets:
                Tb = gemm_strided_batched(b.Vh3, _rows(b.gs, Xb), backend=xb, plan=True)
                if len(lv.buckets) == 1:
                    T = Tb
                else:
                    if T is None:
                        T = xb.zeros((lv.nnodes,) + Tb.shape[1:], dtype=Tb.dtype)
                    T[b.pos] = Tb
            # A(I_a, I_b) x_b = U_a (V_b^* x_b): each node takes its sibling's T
            for b in lv.buckets:
                yv = b.gs.view(y) if dt == acc_dtype else None
                if yv is None:
                    b.gs.add(y, gemm_strided_batched(b.U3, T[b.sib], backend=xb, plan=True))
                    continue
                if ws is None:
                    ws = xb.zeros(y.shape, dtype=acc_dtype)
                yv += gemm_strided_batched(
                    b.U3, T[b.sib], backend=xb, plan=True, out=b.gs.view(ws)
                )

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

    def arrays(self) -> List[np.ndarray]:
        """Every array the plan references (views into the matrix included)."""
        out: List[np.ndarray] = []
        for db in self.diag_buckets:
            out += [db.D3, *db.gs.arrays()]
        for b in self.lowrank_buckets:
            out += [b.U3, b.Vh3, b.pos, b.sib, *b.gs.arrays()]
        return out

    @property
    def nbytes(self) -> int:
        """Bytes the plan owns: demoted or conjugated copies and indices
        (views into the matrix's stacks count zero)."""
        return owned_nbytes(self.arrays(), self._shared)

    def storage_dtypes(self) -> dict:
        """Plan storage dtype per tree level (diagnostics for precision tests).

        Keys are tree levels (leaf diagonal buckets report the deepest
        level); values are the storage dtypes.
        """
        out = {}
        for db in self.diag_buckets:
            out[self.levels] = np.dtype(db.D3.dtype)
        for b in self.lowrank_buckets:
            out[b.level] = np.dtype(b.U3.dtype)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        demoted = ", mixed-precision" if self.demoted else ""
        return (
            f"ApplyPlan(n={self.n}, levels={self.levels}, "
            f"buckets={self.num_buckets}, launches_per_apply={self.launches_per_apply}"
            f"{demoted})"
        )
