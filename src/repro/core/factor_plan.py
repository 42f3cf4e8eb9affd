"""Compiled factorization plans: packed factor storage + the compiled solve sweep.

PR 3 compiled the HODLR *matvec* into :class:`~repro.core.apply_plan.
ApplyPlan`; this module does the same for the *factorization* and its
triangular-solve sweeps.  The three factorization variants used to be three
divergent code paths that re-walked the tree and re-bucketed blocks on
every solve; they now lower onto one common backend:

:class:`FactorPlan`
    Per-level shape-bucketed strided 3-D storage of everything Algorithm 2
    needs: packed LU factors + pivots of the leaf diagonal blocks, packed
    LU factors of the per-level reduced ``K`` systems, and the packed
    ``Y``/``V^*`` bases driving the Schur-update gemms.  Built through the
    dispatch layer by :func:`build_factor_plan` (which *is* Algorithm 1,
    executed packed: one getrf/getrs/gemm launch per shape bucket per
    level), or emitted from the recursive traversal by
    :func:`emit_factor_plan`.

:class:`SolvePlan`
    The compiled forward/backward sweep over that storage:
    ``O(levels x buckets)`` ``getrs``/``gemm_strided_batched`` launches per
    solve, no Python tree walk, no per-solve re-bucketing.  Krylov loops
    and repeated direct solves reuse it; every launch is trace-visible
    (``KernelEvent.plan`` marks plan-replay launches).

Mixed-precision factor storage
------------------------------
``PrecisionPolicy(factor="float32", factor_min_level=k)`` demotes the
packed factor storage of tree levels ``>= k`` (leaf diagonal factors count
as the deepest level) after the factorization is computed at the working
dtype.  Solves gather the right-hand side into each bucket at the bucket's
storage dtype, while the solution vector itself stays at the full
(``accumulate``-widened) dtype — so only the per-bucket kernels run
narrow.  One step of iterative refinement
(:meth:`repro.api.operator.HODLROperator.solve` with
``PrecisionPolicy(refine=True)``) restores ~full-precision residuals.

Memory
------
Like :class:`~repro.core.apply_plan.ApplyPlan`, the plan stores packed
*copies* of the solved bases (the ``Y3``/``Vh3`` stacks) next to the
``Ybig``/``Vbig`` they were gathered from — the concatenated arrays stay
alive because :func:`patch_factor_plan` re-solves and re-gathers the dirty
slice of an updated matrix from them, so a compiled factorization holds
roughly one extra copy of the basis storage.  ``factorization_nbytes``
reports the full resident footprint.

Pad-to-bucket LU packing
------------------------
With ``DispatchPolicy(pad_buckets=True)`` near-equal leaf/node sizes merge
into shared buckets.  LU buckets pad with an **identity border** (the
padded matrix is ``blkdiag(A, I)``): partial pivoting never crosses the
border, the leading sub-block of the padded factor *is* the factor of
``A``, and padded right-hand-side rows solve against the identity — so
padding is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends.batched import gemm_strided_batched
from ..backends.context import ExecutionContext, resolve_context
from ..backends.counters import (
    KernelEvent,
    get_recorder,
    getrf_flops,
    getrs_flops,
    record_event,
)
from ..backends.dispatch import (
    pad_identity_stack,
    pad_pivot_stack,
    plan_batch,
    plan_batch_padded,
)
from ..backends.parallel import run_tasks
from .packing import GatherScatter, demote_rhs_dtype, pack_stack


# ======================================================================
# packed LU launches (one kernel event per call)
# ======================================================================
def _is_complex(dtype) -> bool:
    return np.issubdtype(np.dtype(dtype), np.complexfloating)


def _getrf_packed(xb, pol, A3, pivot: bool = True):
    """LU-factorize a packed ``(nb, n, n)`` stack: one planned launch.

    The dispatch policy decides the host execution inside the launch —
    vectorised batched elimination for many small blocks, per-problem
    LAPACK otherwise.  Pivots are always returned full-length
    (``arange`` rows for the non-pivoted path), so downstream code never
    branches on pivot storage.
    """
    nb, n = A3.shape[0], A3.shape[1]
    if pol.vectorize_lu_factor(nb, n):
        lu3, piv3 = xb.lu_factor_batch(A3, pivot=pivot)
        piv3 = np.asarray(piv3, dtype=np.int64)
    else:
        lu3 = xb.zeros(A3.shape, dtype=A3.dtype)
        piv3 = np.zeros((nb, n), dtype=np.int64)
        base = np.arange(n, dtype=np.int64)
        for i in range(nb):
            lu, piv = xb.lu_factor(A3[i], pivot=pivot)
            lu3[i] = lu
            piv3[i] = piv if (pivot and np.size(piv) == n) else base
    record_event(
        KernelEvent(
            kernel="getrf_batched",
            batch=nb,
            shape=(n, n, 0),
            flops=nb * getrf_flops(n, _is_complex(A3.dtype)),
            bytes_moved=float(2 * A3.nbytes),
            dtype_size=np.dtype(A3.dtype).itemsize,
            strided=True,
            buckets=1,
            plan=True,
        )
    )
    return lu3, piv3


def _getrs_packed(xb, pol, lu3, piv3, rhs3, pivot: bool = True):
    """Solve a packed ``(nb, n, nrhs)`` right-hand-side stack: one launch."""
    nb, n, nrhs = rhs3.shape
    out_dtype = np.result_type(lu3.dtype, rhs3.dtype)
    if rhs3.dtype != out_dtype:
        rhs3 = rhs3.astype(out_dtype)
    if pol.vectorize_lu_solve(nb, n):
        x3 = xb.lu_solve_batch(lu3, piv3, rhs3, pivot=pivot)
    else:
        many = getattr(xb, "lu_solve_many", None)
        if many is not None:
            x3 = many(lu3, piv3, rhs3, pivot=pivot)
        else:
            x3 = xb.zeros(rhs3.shape, dtype=out_dtype)
            for i in range(nb):
                x3[i] = xb.lu_solve(lu3[i], piv3[i], rhs3[i], pivot=pivot)
    record_event(
        KernelEvent(
            kernel="getrs_batched",
            batch=nb,
            shape=(n, nrhs, 0),
            flops=nb * getrs_flops(n, nrhs, _is_complex(out_dtype)),
            bytes_moved=float(lu3.nbytes + 2 * rhs3.nbytes),
            dtype_size=np.dtype(out_dtype).itemsize,
            strided=True,
            buckets=1,
            plan=True,
        )
    )
    return x3


# ======================================================================
# plan storage
# ======================================================================
@dataclass
class _LeafBucket:
    """LU factors of the leaf diagonal blocks sharing one (padded) size."""

    #: positions of the members within ``tree.leaves`` submission order
    positions: Tuple[int, ...]
    gs: GatherScatter
    #: (nb, M, M) packed LU factors (identity-bordered when padded)
    lu3: np.ndarray
    #: (nb, M) pivot rows
    piv3: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.lu3.nbytes + self.piv3.nbytes + self.gs.nbytes)


@dataclass
class _SweepBucket:
    """One node-size bucket of a level's Schur-update gemm schedule."""

    #: positions of the members within the level's child ordering
    pos: np.ndarray
    gs: GatherScatter
    #: (nb, M, r) packed solved bases Y
    Y3: np.ndarray
    #: (nb, r, M) packed conjugate-transposed V bases
    Vh3: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.Y3.nbytes + self.Vh3.nbytes + self.gs.nbytes + self.pos.nbytes)


@dataclass
class _LevelSweep:
    """Everything one level of the forward/backward sweep needs."""

    #: tree level of the ``gamma`` nodes (children live at ``level + 1``)
    level: int
    rank: int
    #: (ngamma, 2r, 2r) packed LU of the reduced K systems
    k_lu3: np.ndarray
    #: (ngamma, 2r) pivots
    k_piv3: np.ndarray
    buckets: List[_SweepBucket] = field(default_factory=list)
    #: (nchild, r, r) unfactored K diagonal blocks ``T = V^* Y`` retained for
    #: plan patching (clean children reuse these, dirty ones recompute)
    T3: Optional[np.ndarray] = None

    @property
    def nchild(self) -> int:
        return 2 * self.k_lu3.shape[0]

    @property
    def nbytes(self) -> int:
        return int(
            self.k_lu3.nbytes
            + self.k_piv3.nbytes
            + (self.T3.nbytes if self.T3 is not None else 0)
            + sum(b.nbytes for b in self.buckets)
        )


def _pair_rhs(w_all, ngamma: int, r: int, pivot: bool):
    """Stack the per-child ``(r, nrhs)`` blocks into per-gamma K right-hand sides.

    With ``pivot=True`` the rows follow equation (9) (left child's block on
    top); ``pivot=False`` swaps the block rows, matching the alternative K
    formulation with identities on the diagonal.  The *solution* ordering
    is ``[w_left; w_right]`` in both cases.
    """
    nrhs = w_all.shape[-1]
    if pivot:
        return w_all.reshape(ngamma, 2 * r, nrhs)
    swapped = w_all.reshape(ngamma, 2, r, nrhs)[:, ::-1]
    return swapped.reshape(ngamma, 2 * r, nrhs)


class FactorPlan:
    """Packed, precision-aware storage of one HODLR factorization.

    Instances come from :func:`build_factor_plan` (the packed Algorithm 1)
    or :func:`emit_factor_plan` (the recursive traversal's emission); all
    three solver variants store their factors here and solve through
    :class:`SolvePlan`.
    """

    def __init__(
        self,
        tree,
        dtype,
        context: ExecutionContext,
        pivot: bool,
        leaf_buckets: List[_LeafBucket],
        sweeps: List[_LevelSweep],
        Ybig: Optional[np.ndarray] = None,
        level_ranks: Optional[List[int]] = None,
        col_offsets: Optional[List[int]] = None,
    ) -> None:
        self.tree = tree
        self.n: int = tree.n
        self.levels: int = tree.levels
        #: the *logical* dtype (what solves promote against), regardless of
        #: any storage demotion below
        self.dtype = np.dtype(dtype)
        self.context = context
        self.pivot = pivot
        self.leaf_buckets = leaf_buckets
        #: deepest level first — the order the backward sweep consumes them
        self.sweeps = sweeps
        #: the solved bases in concatenated layout (``None`` for plans
        #: emitted from the recursive traversal, which has no Ybig)
        self.Ybig = Ybig
        #: the Ybig column layout (``None`` when Ybig is absent); patching
        #: needs both to splice old solved bases into a new layout
        self.level_ranks = list(level_ranks) if level_ranks is not None else None
        self.col_offsets = list(col_offsets) if col_offsets is not None else None
        self.demoted: bool = False
        self.last_patch_stats: Optional[Dict[str, int]] = None
        #: the packed BigMatrices of the matrix this plan was patched from
        #: (set by :func:`patch_factor_plan` so the solver can adopt it
        #: instead of re-running the O(N) ``BigMatrices.from_hodlr`` pack)
        self.bigdata = None
        self._solve_plan: Optional["SolvePlan"] = None
        self._finalize_precision()

    # ------------------------------------------------------------------
    # precision
    # ------------------------------------------------------------------
    def _finalize_precision(self) -> None:
        """Demote per-level factor storage according to the precision policy."""
        prec = self.context.precision
        if not prec.demotes_factor(self.dtype):
            return
        leaf_target = prec.factor_dtype(self.dtype, self.levels)
        for lb in self.leaf_buckets:
            if lb.lu3.dtype != leaf_target:
                lb.lu3 = lb.lu3.astype(leaf_target)
                self.demoted = True
        for sw in self.sweeps:
            target = prec.factor_dtype(self.dtype, sw.level + 1)
            if sw.k_lu3.dtype != target:
                sw.k_lu3 = sw.k_lu3.astype(target)
                self.demoted = True
            for bk in sw.buckets:
                if bk.Y3.dtype != target:
                    bk.Y3 = bk.Y3.astype(target)
                    bk.Vh3 = bk.Vh3.astype(target)
                    self.demoted = True

    def storage_dtypes(self) -> Dict[int, np.dtype]:
        """Factor storage dtype per tree level (leaf factors report the
        deepest level, a level's K/Y/V storage reports the child level)."""
        out: Dict[int, np.dtype] = {}
        for lb in self.leaf_buckets:
            out[self.levels] = np.dtype(lb.lu3.dtype)
        for sw in self.sweeps:
            out.setdefault(sw.level + 1, np.dtype(sw.k_lu3.dtype))
        return out

    # ------------------------------------------------------------------
    # the compiled solve
    # ------------------------------------------------------------------
    def solve_plan(self) -> "SolvePlan":
        """The (cached) compiled sweep over this storage."""
        if self._solve_plan is None:
            self._solve_plan = SolvePlan(self)
        return self._solve_plan

    # ------------------------------------------------------------------
    # incremental patching
    # ------------------------------------------------------------------
    def patch(self, hodlr, dirty_nodes) -> "FactorPlan":
        """Re-factor only the dirty path of an updated matrix — see
        :func:`patch_factor_plan`."""
        return patch_factor_plan(self, hodlr, dirty_nodes)

    # ------------------------------------------------------------------
    # per-leaf views (read by patch_factor_plan)
    # ------------------------------------------------------------------
    def leaf_lu_views(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(lu, piv)`` of every leaf in ``tree.leaves`` order (views into
        the packed stacks; padded borders sliced away)."""
        out: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(
            self.tree.leaves
        )
        for lb in self.leaf_buckets:
            sizes = lb.gs.sizes
            for j, p in enumerate(lb.positions):
                m = sizes[j]
                out[p] = (lb.lu3[j, :m, :m], lb.piv3[j, :m])
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # determinant
    # ------------------------------------------------------------------
    def slogdet(self) -> Tuple[complex, float]:
        """Sign/phase and log-magnitude of ``det(A)`` from the packed factors.

        Identity-bordered padding contributes ``log 1 = 0`` and no row
        swaps, so padded stacks need no special casing.
        """
        from .factor_recursive import _lu_slogdet

        xb = self.context.backend
        sign: complex = 1.0
        logabs = 0.0
        for lb in self.leaf_buckets:
            lu3 = np.asarray(xb.to_host(lb.lu3))  # repro-lint: ignore[RL001] -- slogdet is host-side analysis: factors download once, reduce serially
            piv3 = np.asarray(lb.piv3)  # repro-lint: ignore[RL001] -- pivot metadata is host-resident by design
            for j in range(lu3.shape[0]):
                s, l = _lu_slogdet(lu3[j], piv3[j])
                sign *= s
                logabs += l
        for sw in self.sweeps:
            r = sw.rank
            k_lu3 = np.asarray(xb.to_host(sw.k_lu3))  # repro-lint: ignore[RL001] -- slogdet is host-side analysis: factors download once, reduce serially
            k_piv3 = np.asarray(sw.k_piv3)  # repro-lint: ignore[RL001] -- pivot metadata is host-resident by design
            # the block-row swap relating K to the node factor contributes
            # (-1)^{r^2} per node; the pivot=False formulation applies a
            # second swap, cancelling it.
            swap = ((-1.0) ** (r * r)) if self.pivot else 1.0
            for g in range(k_lu3.shape[0]):
                s, l = _lu_slogdet(k_lu3[g], k_piv3[g])
                sign *= s * swap
                logabs += l
        return sign, logabs

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the packed plan storage (LU stacks + Y/V^* stacks + indices)."""
        return int(
            sum(lb.nbytes for lb in self.leaf_buckets)
            + sum(sw.nbytes for sw in self.sweeps)
        )

    @property
    def num_buckets(self) -> int:
        return len(self.leaf_buckets) + sum(len(sw.buckets) for sw in self.sweeps)

    @property
    def launches_per_solve(self) -> int:
        """Batched kernel launches one solve costs under the compiled sweep."""
        return len(self.leaf_buckets) + sum(
            1 + 2 * len(sw.buckets) for sw in self.sweeps
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        demoted = ", mixed-precision" if self.demoted else ""
        return (
            f"FactorPlan(n={self.n}, levels={self.levels}, "
            f"buckets={self.num_buckets}, launches_per_solve="
            f"{self.launches_per_solve}{demoted})"
        )


class SolvePlan:
    """The compiled forward/backward sweep (Algorithms 2/4) over a
    :class:`FactorPlan`: ``O(levels x buckets)`` launches per solve, no
    Python tree walk, reused across Krylov iterations."""

    def __init__(self, plan: FactorPlan) -> None:
        self.plan = plan

    @property
    def launches_per_solve(self) -> int:
        return self.plan.launches_per_solve

    @property
    def nbytes(self) -> int:
        return self.plan.nbytes

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (``b`` may hold multiple right-hand sides).

        A ``(n, K)`` block replays the same packed bucket schedule as a
        single vector — every getrs/gemm launch simply carries ``K``
        columns, so the launch count is independent of ``K``.
        """
        plan = self.plan
        ctx = plan.context
        xb, pol = ctx.backend, ctx.policy
        b = xb.asarray(b)
        if b.ndim > 2:
            raise ValueError(
                f"right-hand side must be a vector or a (n, K) block, got ndim={b.ndim}"
            )
        if b.shape[0] != plan.n:
            raise ValueError(
                f"right-hand side has {b.shape[0]} rows, expected {plan.n}"
            )
        squeeze = b.ndim == 1
        out_dtype = np.result_type(plan.dtype, b.dtype)
        if plan.demoted:
            out_dtype = np.result_type(
                out_dtype, ctx.precision.accumulate_dtype(out_dtype)
            )
        x = (b.reshape(-1, 1) if squeeze else b).astype(out_dtype, copy=True)

        # forward stage: one packed substitution per leaf bucket
        for lb in plan.leaf_buckets:
            rhs3 = lb.gs.take(x)
            bd = np.result_type(lb.lu3.dtype, demote_rhs_dtype(lb.lu3.dtype, out_dtype))
            if rhs3.dtype != bd:
                rhs3 = rhs3.astype(bd)
            sol3 = _getrs_packed(xb, pol, lb.lu3, lb.piv3, rhs3, pivot=True)
            lb.gs.put(x, sol3)

        # backward sweep: deepest level first
        for sw in plan.sweeps:
            r = sw.rank
            ngamma = sw.k_lu3.shape[0]
            bd = np.result_type(
                sw.k_lu3.dtype, demote_rhs_dtype(sw.k_lu3.dtype, out_dtype)
            )
            w_all = xb.zeros((sw.nchild, r, x.shape[1]), dtype=bd)
            for bk in sw.buckets:
                xg = bk.gs.take(x)
                if xg.dtype != bd:
                    xg = xg.astype(bd)
                w_all[bk.pos] = gemm_strided_batched(
                    bk.Vh3, xg, backend=xb, plan=True
                )
            K_rhs = _pair_rhs(w_all, ngamma, r, plan.pivot)
            W = _getrs_packed(xb, pol, sw.k_lu3, sw.k_piv3, K_rhs, pivot=plan.pivot)
            W_half = W.reshape(sw.nchild, r, x.shape[1])
            for bk in sw.buckets:
                upd = gemm_strided_batched(
                    bk.Y3, W_half[bk.pos], backend=xb, plan=True
                )
                bk.gs.sub(x, upd)

        return x.reshape(-1) if squeeze else x

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolvePlan(n={self.plan.n}, launches_per_solve="
            f"{self.launches_per_solve})"
        )


# ======================================================================
# builders
# ======================================================================
def _leaf_plan_buckets(tree, pol):
    """Bucket the leaves by size (pad-merged when the policy allows)."""
    leaves = tree.leaves
    shapes = [(leaf.size, leaf.size) for leaf in leaves]
    if pol.pad_buckets:
        return plan_batch_padded(shapes, pol.pad_max_waste).buckets
    return plan_batch(shapes).buckets


def _child_plan_buckets(children, r, pol):
    """Bucket a level's child nodes by (node size, rank)."""
    shapes = [(nd.size, r) for nd in children]
    if pol.pad_buckets:
        return plan_batch_padded(shapes, pol.pad_max_waste).buckets
    return plan_batch(shapes).buckets


def _assemble_k(xb, T_all, ngamma: int, r: int, dtype, pivot: bool):
    """The per-level reduced systems (equation (11)) as one ``(ngamma, 2r, 2r)``
    stack.  With ``pivot=False`` the paper's alternative formulation puts the
    identities on the diagonal so non-pivoted LU is safe."""
    eye = xb.eye(r, dtype=dtype)
    K3 = xb.zeros((ngamma, 2 * r, 2 * r), dtype=dtype)
    if pivot:
        K3[:, :r, :r] = T_all[0::2]
        K3[:, :r, r:] = eye
        K3[:, r:, :r] = eye
        K3[:, r:, r:] = T_all[1::2]
    else:
        K3[:, :r, :r] = eye
        K3[:, :r, r:] = T_all[1::2]
        K3[:, r:, :r] = T_all[0::2]
        K3[:, r:, r:] = eye
    return K3


def build_factor_plan(
    data,
    context: Optional[ExecutionContext] = None,
    pivot: bool = True,
) -> FactorPlan:
    """Algorithm 1 executed packed: factorize ``data`` (a
    :class:`~repro.core.bigdata.BigMatrices`) straight into a
    :class:`FactorPlan`.

    Per shape bucket per level this issues one getrf, one getrs, and a
    handful of strided gemms through the dispatch layer.
    :class:`~repro.core.factor_batched.BatchedFactorization` (the ``flat``
    and ``batched`` variants) wraps it in trace recording and transfer
    accounting.
    """
    ctx = resolve_context(context)
    xb, pol = ctx.backend, ctx.policy
    tree = data.tree
    dtype = np.dtype(data.dtype)
    rec = get_recorder()
    Ybig = data.Ubig.copy()

    # ---- leaves: one packed LU + one packed substitution per size bucket.
    # Same-level buckets are mutually independent (disjoint leaf row ranges
    # of Ybig), so under a parallel context each bucket becomes a pool task;
    # run_tasks returns results — and absorbs each task's kernel events —
    # in bucket order, keeping the trace identical to serial.
    leaves = tree.leaves
    with rec.context(level=tree.levels):
        plan_buckets = _leaf_plan_buckets(tree, pol)

        def _leaf_task(bucket):
            M = bucket.key[0]
            members = [leaves[i] for i in bucket.indices]
            padded = any(leaf.size != M for leaf in members)
            if padded:
                D3 = pad_identity_stack(
                    xb, [data.Dbig[leaf.index] for leaf in members], M, dtype
                )
            else:
                D3 = pack_stack(xb, [data.Dbig[leaf.index] for leaf in members], dtype)
            gs = GatherScatter.from_ranges(
                [(leaf.start, leaf.stop) for leaf in members], M
            )
            lu3, piv3 = _getrf_packed(xb, pol, D3, pivot=True)
            if Ybig.shape[1]:
                sol3 = _getrs_packed(xb, pol, lu3, piv3, gs.take(Ybig), pivot=True)
                gs.put(Ybig, sol3)
            return _LeafBucket(positions=bucket.indices, gs=gs, lu3=lu3, piv3=piv3)

        leaf_elements = float(
            sum(len(b.indices) * b.key[0] * b.key[0] for b in plan_buckets)
        )
        leaf_buckets: List[_LeafBucket] = run_tasks(
            [lambda b=b: _leaf_task(b) for b in plan_buckets],
            getattr(ctx, "parallel", None),
            elements=leaf_elements,
        )

    # ---- level sweep, bottom-up
    sweeps: List[_LevelSweep] = []
    for level in range(tree.levels - 1, -1, -1):
        child_level = level + 1
        r = data.rank_at_level(child_level)
        if r == 0:
            continue  # degenerate level: all off-diagonal blocks numerically zero
        children = tree.level_nodes(child_level)
        gammas = tree.level_nodes(level)
        nchild = len(children)
        child_cols = data.level_cols(child_level)
        coarse_cols = data.cols_up_to(level)
        ncoarse = coarse_cols.stop - coarse_cols.start

        with rec.context(level=level):
            Ysub = Ybig[:, child_cols]
            Vsub = data.Vbig[:, child_cols]
            T_all = xb.zeros((nchild, r, r), dtype=dtype)

            # same-level buckets touch disjoint `pos` rows of T_all: each
            # becomes a pool task under a parallel context (results and
            # kernel events come back in bucket order — see the leaf loop)
            def _bucket_task(b):
                M = b.key[0]
                members = [children[i] for i in b.indices]
                gs = GatherScatter.from_ranges(
                    [(nd.start, nd.stop) for nd in members], M
                )
                Y3 = gs.take(Ysub)
                Vh3 = gs.take(Vsub).transpose(0, 2, 1).conj()
                pos = np.asarray(b.indices, dtype=np.intp)
                # line 5: T = V^* Y, one strided launch per bucket
                T_all[pos] = gemm_strided_batched(Vh3, Y3, backend=xb)
                return _SweepBucket(pos=pos, gs=gs, Y3=Y3, Vh3=Vh3)

            child_buckets = _child_plan_buckets(children, r, pol)
            buckets: List[_SweepBucket] = run_tasks(
                [lambda b=b: _bucket_task(b) for b in child_buckets],
                getattr(ctx, "parallel", None),
                elements=float(
                    sum(2 * len(b.indices) * b.key[0] * r for b in child_buckets)
                ),
            )

            # lines 7-8: assemble and LU-factorize the K systems
            K3 = _assemble_k(xb, T_all, len(gammas), r, dtype, pivot)
            k_lu3, k_piv3 = _getrf_packed(xb, pol, K3, pivot=pivot)
            sweeps.append(
                _LevelSweep(
                    level=level,
                    rank=r,
                    k_lu3=k_lu3,
                    k_piv3=k_piv3,
                    buckets=buckets,
                    T3=T_all,
                )
            )

            # lines 9-10: solve (13) and apply the update (14) to the
            # coarser columns of Ybig
            if ncoarse:
                Ycsub = Ybig[:, coarse_cols]
                w_all = xb.zeros((nchild, r, ncoarse), dtype=dtype)
                gemm_elements = float(
                    sum(2 * len(bk.pos) * bk.Y3.shape[1] * r for bk in buckets)
                ) * max(1, ncoarse)

                def _project_task(bk):
                    # disjoint w_all rows per bucket
                    w_all[bk.pos] = gemm_strided_batched(
                        bk.Vh3, bk.gs.take(Ycsub), backend=xb
                    )

                run_tasks(
                    [lambda bk=bk: _project_task(bk) for bk in buckets],
                    getattr(ctx, "parallel", None),
                    elements=gemm_elements,
                )
                K_rhs = _pair_rhs(w_all, len(gammas), r, pivot)
                W = _getrs_packed(xb, pol, k_lu3, k_piv3, K_rhs, pivot=pivot)
                W_half = W.reshape(nchild, r, ncoarse)

                def _update_task(bk):
                    # disjoint Ycsub row ranges per bucket
                    upd = gemm_strided_batched(bk.Y3, W_half[bk.pos], backend=xb)
                    bk.gs.sub(Ycsub, upd)

                run_tasks(
                    [lambda bk=bk: _update_task(bk) for bk in buckets],
                    getattr(ctx, "parallel", None),
                    elements=gemm_elements,
                )

    return FactorPlan(
        tree=tree,
        dtype=dtype,
        context=ctx,
        pivot=pivot,
        leaf_buckets=leaf_buckets,
        sweeps=sweeps,
        Ybig=Ybig,
        level_ranks=data.level_ranks,
        col_offsets=data.col_offsets,
    )


def emit_factor_plan(
    hodlr,
    Y: Dict[int, np.ndarray],
    leaf_lu: Dict[int, Tuple[np.ndarray, np.ndarray]],
    T: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] = None,
    context: Optional[ExecutionContext] = None,
) -> FactorPlan:
    """Pack a recursive traversal's per-node factors into a :class:`FactorPlan`.

    The recursive variant keeps its per-node traversal (which computes the
    solved bases ``Y_alpha = A_alpha^{-1} U_alpha`` and the per-leaf LU
    factors) and *emits* plan nodes: bases are zero-padded to the level
    rank, the reduced K systems are re-assembled in the same padded layout
    the flat/batched builders produce, and the result solves through the
    same compiled :class:`SolvePlan`.

    ``T`` optionally supplies the traversal's per-gamma K diagonal blocks
    ``(Va* Y_left, Vb* Y_right)`` so the emission does not recompute those
    gemms (only the padded K LU — whose factor differs from the per-node
    small-K factor — is computed here).
    """
    ctx = resolve_context(context)
    xb, pol = ctx.backend, ctx.policy
    tree = hodlr.tree
    dtype = np.dtype(hodlr.dtype)

    # per-level padded ranks, identical to BigMatrices.from_hodlr
    level_ranks: List[int] = []
    for level in range(1, tree.levels + 1):
        ranks = [hodlr.U[i].shape[1] for i in tree.level_indices(level)]
        ranks += [hodlr.V[i].shape[1] for i in tree.level_indices(level)]
        level_ranks.append(int(max(ranks)) if ranks else 0)

    # ---- leaves: pack the already-computed per-leaf LU factors
    leaves = tree.leaves
    leaf_buckets: List[_LeafBucket] = []
    for bucket in _leaf_plan_buckets(tree, pol):
        M = bucket.key[0]
        members = [leaves[i] for i in bucket.indices]
        lu3 = pad_identity_stack(
            xb, [leaf_lu[leaf.index][0] for leaf in members], M, dtype
        )
        piv3 = pad_pivot_stack(
            [leaf_lu[leaf.index][1] for leaf in members],
            [leaf.size for leaf in members],
            M,
        )
        gs = GatherScatter.from_ranges([(leaf.start, leaf.stop) for leaf in members], M)
        leaf_buckets.append(
            _LeafBucket(positions=bucket.indices, gs=gs, lu3=lu3, piv3=piv3)
        )

    # ---- levels: pad Y/V to the level rank, re-assemble K packed
    sweeps: List[_LevelSweep] = []
    for level in range(tree.levels - 1, -1, -1):
        child_level = level + 1
        r = level_ranks[child_level - 1]
        if r == 0:
            continue
        children = tree.level_nodes(child_level)
        gammas = tree.level_nodes(level)
        nchild = len(children)

        buckets: List[_SweepBucket] = []
        T_all = None if T is not None else xb.zeros((nchild, r, r), dtype=dtype)
        for b in _child_plan_buckets(children, r, pol):
            M = b.key[0]
            members = [children[i] for i in b.indices]
            Y3 = xb.zeros((len(members), M, r), dtype=dtype)
            V3 = xb.zeros((len(members), M, r), dtype=dtype)
            for j, nd in enumerate(members):
                y = Y[nd.index]
                v = hodlr.V[nd.index]
                Y3[j, : y.shape[0], : y.shape[1]] = y
                V3[j, : v.shape[0], : v.shape[1]] = v
            Vh3 = V3.transpose(0, 2, 1).conj()
            gs = GatherScatter.from_ranges([(nd.start, nd.stop) for nd in members], M)
            pos = np.asarray(b.indices, dtype=np.intp)
            if T_all is not None:
                T_all[pos] = gemm_strided_batched(Vh3, Y3, backend=xb)
            buckets.append(_SweepBucket(pos=pos, gs=gs, Y3=Y3, Vh3=Vh3))

        if T is not None:
            # the traversal already computed the K diagonal blocks: embed
            # them in the padded layout directly, no gemm recomputation
            eye = xb.eye(r, dtype=dtype)
            K3 = xb.zeros((len(gammas), 2 * r, 2 * r), dtype=dtype)
            K3[:, :r, r:] = eye
            K3[:, r:, :r] = eye
            for g, gamma in enumerate(gammas):
                Ta, Tb = T[gamma.index]
                K3[g, : Ta.shape[0], : Ta.shape[1]] = Ta
                K3[g, r : r + Tb.shape[0], r : r + Tb.shape[1]] = Tb
        else:
            K3 = _assemble_k(xb, T_all, len(gammas), r, dtype, pivot=True)
        k_lu3, k_piv3 = _getrf_packed(xb, pol, K3, pivot=True)
        sweeps.append(
            _LevelSweep(level=level, rank=r, k_lu3=k_lu3, k_piv3=k_piv3, buckets=buckets)
        )

    return FactorPlan(
        tree=tree,
        dtype=dtype,
        context=ctx,
        pivot=True,
        leaf_buckets=leaf_buckets,
        sweeps=sweeps,
        Ybig=None,
    )


# ======================================================================
# incremental patching
# ======================================================================
def _deepest_dirty_level(idx: int, level: int, dirty) -> int:
    """Deepest level ``c`` in ``[1, level]`` at which node ``idx``'s ancestor
    (``idx`` itself at ``c == level``) is dirty; 0 if the whole chain is clean.

    The dirty set is ancestor-closed (a dirty node's ancestors are dirty),
    so the dirty levels of a chain form the contiguous prefix ``[1, c*]``.
    """
    for c in range(level, 0, -1):
        if (idx >> (level - c)) in dirty:
            return c
    return 0


def patch_factor_plan(
    plan: FactorPlan,
    hodlr,
    dirty_nodes,
    context: Optional[ExecutionContext] = None,
) -> FactorPlan:
    """Re-factorize only the dirty path of an updated HODLR matrix.

    ``plan`` is a retained :class:`FactorPlan` (built by
    :func:`build_factor_plan`, which keeps ``Ybig`` and the per-level ``T``
    blocks) and ``hodlr`` is the matrix after a streaming update whose
    touched blocks are ``dirty_nodes`` (ancestor-closed node indices in the
    *new* tree; clean nodes keep their size, with ranges merely shifted).

    The validity rule driving the patch: the final solved-basis entry
    ``Ybig[i, block c]`` is unchanged iff row ``i``'s ancestor at level
    ``c`` is clean — a clean node's entire subtree is clean, so every sweep
    that touched the entry had unchanged transforms *and* inputs.  The
    patch therefore

    1. seeds every valid entry straight from the old ``Ybig`` (clean node
       rows of block ``c`` for each level ``c``),
    2. re-solves leaf blocks: fresh LU only for dirty leaves (all columns),
       while clean leaves with a dirty ancestor at level ``p`` re-solve the
       invalid column *prefix* ``[0, col_offsets[p])`` against their stored
       LU — grouped by ``p``, so ``O(levels)`` launches,
    3. replays the Schur sweeps bottom-up: per level, ``T`` blocks are
       recomputed only for dirty children (stored ``T3`` covers clean
       ones), the reduced ``K`` systems are re-factored only where needed
       (the dirty subset when the level rank is unchanged, one whole-level
       launch when it grew), and each gamma with a dirty ancestor at level
       ``p >= 1`` re-runs its coarse update on exactly the invalid prefix
       — replaying on valid columns would double-apply updates.

    Rank growth is handled by flooring the new layout's level ranks at the
    old ones (``BigMatrices.from_hodlr(min_level_ranks=...)``): zero-padded
    bases and ``T`` blocks make the padded ``K`` solve agree with the
    old-rank solve on the leading block and vanish on the extra
    coordinates, so clean machinery stays exact.

    Kernel launches scale with the number of dirty buckets plus
    ``O(levels^2)`` replay groups — not with the total bucket count — and
    every re-packed dirty bucket records a ``factor_patch_bucket`` trace
    event.  Flops scale with the dirty subtree and the invalid column
    prefixes.

    Mixed-precision caveat: clean-leaf prefix re-solves and clean-gamma
    replays run against the *stored* (possibly demoted) factors, so under a
    demoting precision policy a patched plan can differ from a fresh build
    by the demotion error; the default policy is bit-compatible.

    Raises :class:`~repro.core.update.PatchUnsupportedError` when the plan
    cannot be patched (no retained ``Ybig``/layout — e.g. plans emitted by
    the recursive traversal — or a structural change); callers fall back to
    a full rebuild.
    """
    from .bigdata import BigMatrices
    from .update import PatchUnsupportedError

    if plan.Ybig is None or plan.level_ranks is None or plan.col_offsets is None:
        raise PatchUnsupportedError(
            "factor plan has no retained Ybig/layout metadata (emitted from the "
            "recursive traversal); rebuild instead"
        )
    for sw in plan.sweeps:
        if sw.T3 is None:
            raise PatchUnsupportedError(
                "factor plan lacks retained T blocks; rebuild instead"
            )
    ctx = plan.context if context is None else resolve_context(context)
    xb, pol = ctx.backend, ctx.policy
    new_tree = hodlr.tree
    old_tree = plan.tree
    if new_tree.levels != old_tree.levels:
        raise PatchUnsupportedError("tree depth changed; rebuild instead")
    L = new_tree.levels
    dirty = frozenset(int(i) for i in dirty_nodes)
    # Recompressing the block (d, s) of a dirty node d rewrites the *clean
    # sibling's* bases too (QR/SVD recompression couples U_d and V_s), so
    # node-level basis dirtiness is sibling-closed.  The enlarged set stays
    # ancestor-closed (siblings share a dirty parent) and keeps the
    # clean-subtree property the validity rule needs.
    dirty = frozenset(dirty | {i ^ 1 for i in dirty if i > 1})
    dtype = np.dtype(np.result_type(plan.dtype, hodlr.dtype))
    pivot = plan.pivot
    rec = get_recorder()
    stats = {
        "dirty_leaf_buckets": 0,
        "dirty_child_buckets": 0,
        "replay_groups": 0,
        "k_refactored": 0,
    }

    data = BigMatrices.from_hodlr(
        hodlr,
        dtype=dtype,
        backend=xb,
        min_level_ranks=plan.level_ranks,
        share_diag=True,
    )
    coff = data.col_offsets
    # solve in place: this pack was created for the patch and its Ubig is
    # only ever consumed as the Y seed — HODLRSolver.factorize() repacks
    # from the HODLR matrix, so no pristine copy of Ubig is needed and the
    # patched plan's Ybig simply aliases it
    Ywork = data.Ubig

    # ---- seed valid entries from the retained old Ybig: clean level-c node
    # rows of column block c hold final values (host storage motion, no
    # kernel launches).  Extra columns from rank growth stay zero — a clean
    # node's padded bases are zero there and zero columns solve to zero.
    for c in range(1, L + 1):
        r_old_c = plan.level_ranks[c - 1]
        if r_old_c == 0:
            continue
        nc0 = coff[c - 1]
        oc0 = plan.col_offsets[c - 1]
        for idx in new_tree.level_indices(c):
            if idx in dirty:
                continue
            nn = new_tree.node(idx)
            on = old_tree.node(idx)
            if nn.size != on.size:
                raise PatchUnsupportedError(
                    f"clean node {idx} changed size ({on.size} -> {nn.size}); "
                    "rebuild instead"
                )
            Ywork[nn.start : nn.stop, nc0 : nc0 + r_old_c] = plan.Ybig[
                on.start : on.stop, oc0 : oc0 + r_old_c
            ]

    # ---- leaves.  Final bucket structure follows the new tree; fresh getrf
    # only for buckets containing dirty leaves, clean members reuse the old
    # per-leaf factors (identity-border padding is exact, so re-padding the
    # sliced views into a new bucket layout reproduces the factor).
    old_views = plan.leaf_lu_views()
    leaves = new_tree.leaves
    leaf_buckets: List[_LeafBucket] = []
    with rec.context(level=L, tag="factor_patch"):
        # Clean leaves keep their old bucket packing wholesale: the packed
        # lu3/piv3 stacks are *shared* with the retained plan (clean leaf
        # sizes are guarded unchanged above), and only the gather map is
        # rebuilt against the new row ranges.  A member that is dirty now —
        # or was already masked by an earlier patch — gets an empty range:
        # its gathers read zeros, its scatters write nothing, and the fresh
        # bucket appended below (replayed later, so its writes win) holds
        # the live factors.  This keeps patch-time packing work, not just
        # kernel launches, proportional to the dirty set.
        for ob in plan.leaf_buckets:
            old_sizes = ob.gs.sizes
            ranges = []
            any_live = False
            for j, p in enumerate(ob.positions):
                lf = leaves[p]
                if lf.index in dirty or old_sizes[j] == 0:
                    ranges.append((lf.start, lf.start))
                else:
                    ranges.append((lf.start, lf.stop))
                    any_live = True
            if not any_live:
                continue
            leaf_buckets.append(
                _LeafBucket(
                    positions=ob.positions,
                    gs=GatherScatter.from_ranges(ranges, ob.lu3.shape[1]),
                    lu3=ob.lu3,
                    piv3=ob.piv3,
                )
            )
        # dirty leaves: fresh LU per shape bucket + full-column re-solve
        dirty_leaf_pos = [i for i, lf in enumerate(leaves) if lf.index in dirty]
        for b in plan_batch(
            [(leaves[i].size, leaves[i].size) for i in dirty_leaf_pos]
        ).buckets:
            sel = [dirty_leaf_pos[j] for j in b.indices]
            mem = [leaves[i] for i in sel]
            M = b.key[0]
            D3d = pad_identity_stack(
                xb, [xb.asarray(data.Dbig[lf.index]) for lf in mem], M, dtype
            )
            lud3, pivd3 = _getrf_packed(xb, pol, D3d, pivot=True)
            gsd = GatherScatter.from_ranges(
                [(lf.start, lf.stop) for lf in mem], M
            )
            if Ywork.shape[1]:
                sol3 = _getrs_packed(
                    xb, pol, lud3, pivd3, gsd.take(Ywork), pivot=True
                )
                gsd.put(Ywork, sol3)
            record_event(
                KernelEvent(
                    kernel="factor_patch_bucket",
                    batch=len(mem),
                    shape=(M, M, 0),
                    flops=0.0,
                    bytes_moved=float(D3d.nbytes),
                    dtype_size=np.dtype(dtype).itemsize,
                    strided=True,
                    buckets=1,
                    level=L,
                    plan=True,
                )
            )
            stats["dirty_leaf_buckets"] += 1
            leaf_buckets.append(
                _LeafBucket(
                    positions=tuple(sel), gs=gsd, lu3=lud3, piv3=pivd3
                )
            )

        # clean leaves under a dirty ancestor at level p re-solve the invalid
        # column prefix [0, coff[p]) against their stored LU, grouped by p
        prefix_groups: Dict[int, List[int]] = {}
        for pidx, lf in enumerate(leaves):
            if lf.index in dirty:
                continue
            p = _deepest_dirty_level(lf.index, L, dirty)
            if p >= 1:
                prefix_groups.setdefault(p, []).append(pidx)
        for p, plist in sorted(prefix_groups.items()):
            cend = coff[p]
            if cend == 0:
                continue
            mem = [leaves[i] for i in plist]
            M = max(lf.size for lf in mem)
            lu3 = pad_identity_stack(
                xb, [old_views[i][0] for i in plist], M, dtype
            )
            piv3 = pad_pivot_stack(
                [old_views[i][1] for i in plist], [lf.size for lf in mem], M
            )
            gs = GatherScatter.from_ranges([(lf.start, lf.stop) for lf in mem], M)
            Yc = Ywork[:, :cend]
            sol3 = _getrs_packed(xb, pol, lu3, piv3, gs.take(Yc), pivot=True)
            gs.put(Yc, sol3)

    # ---- sweeps, bottom-up.  At each level: T only for dirty children, K
    # re-factored where needed, coarse updates replayed on exactly each
    # gamma's invalid column prefix.
    old_sweeps = {sw.level: sw for sw in plan.sweeps}
    sweeps: List[_LevelSweep] = []
    for level in range(L - 1, -1, -1):
        child_level = level + 1
        r = data.rank_at_level(child_level)
        if r == 0:
            continue
        children = new_tree.level_nodes(child_level)
        gammas = new_tree.level_nodes(level)
        nchild = len(children)
        osw = old_sweeps.get(level)
        r_old = osw.rank if osw is not None else 0
        with rec.context(level=level, tag="factor_patch"):
            child_cols = data.level_cols(child_level)
            Ysub = Ywork[:, child_cols]
            Vsub = data.Vbig[:, child_cols]

            # T blocks: stored clean, recomputed dirty (launches per dirty
            # size bucket)
            T_all = xb.zeros((nchild, r, r), dtype=dtype)
            if osw is not None:
                T_all[:, :r_old, :r_old] = xb.asarray(osw.T3).astype(
                    dtype, copy=False
                )
            dpos = [i for i, nd in enumerate(children) if nd.index in dirty]
            if dpos:
                for b in plan_batch([(children[i].size, r) for i in dpos]).buckets:
                    sel = [dpos[k] for k in b.indices]
                    mem = [children[i] for i in sel]
                    gsb = GatherScatter.from_ranges(
                        [(nd.start, nd.stop) for nd in mem], b.key[0]
                    )
                    Y3 = gsb.take(Ysub)
                    Vh3 = gsb.take(Vsub).transpose(0, 2, 1).conj()
                    T_all[np.asarray(sel, dtype=np.intp)] = gemm_strided_batched(
                        Vh3, Y3, backend=xb
                    )
                    record_event(
                        KernelEvent(
                            kernel="factor_patch_bucket",
                            batch=len(sel),
                            shape=(r, b.key[0], 0),
                            flops=0.0,
                            bytes_moved=float(Y3.nbytes + Vh3.nbytes),
                            dtype_size=np.dtype(dtype).itemsize,
                            strided=True,
                            buckets=1,
                            level=level,
                            plan=True,
                        )
                    )
                    stats["dirty_child_buckets"] += 1

            # K factors: splice the dirty subset at unchanged rank, one
            # whole-level launch when the rank grew (padded K factors differ
            # from padded old factors, so per-gamma reuse is impossible)
            d_gpos = np.asarray(
                [g for g, gm in enumerate(gammas) if gm.index in dirty],
                dtype=np.intp,
            )
            if osw is not None and r == r_old:
                k_lu3 = osw.k_lu3.copy()
                k_piv3 = osw.k_piv3.copy()
                if d_gpos.size:
                    cpos = np.empty(2 * d_gpos.size, dtype=np.intp)
                    cpos[0::2] = 2 * d_gpos
                    cpos[1::2] = 2 * d_gpos + 1
                    K_sub = _assemble_k(
                        xb, T_all[cpos], int(d_gpos.size), r, dtype, pivot
                    )
                    lu_s, piv_s = _getrf_packed(xb, pol, K_sub, pivot=pivot)
                    k_lu3[d_gpos] = lu_s.astype(k_lu3.dtype, copy=False)
                    k_piv3[d_gpos] = piv_s
                    stats["k_refactored"] += int(d_gpos.size)
            else:
                K3 = _assemble_k(xb, T_all, len(gammas), r, dtype, pivot)
                k_lu3, k_piv3 = _getrf_packed(xb, pol, K3, pivot=pivot)
                stats["k_refactored"] += len(gammas)

            # coarse-update replay: gammas grouped by the deepest dirty
            # ancestor level p run their Schur update on columns [0, coff[p])
            # — exactly the invalid prefix of their rows.  Gammas at one
            # level have disjoint rows, so groups are independent.
            replay_groups: Dict[int, List[int]] = {}
            for g, gm in enumerate(gammas):
                p = _deepest_dirty_level(gm.index, level, dirty)
                if p >= 1:
                    replay_groups.setdefault(p, []).append(g)
            for p, glist in sorted(replay_groups.items()):
                cend = coff[p]
                if cend == 0:
                    continue
                garr = np.asarray(glist, dtype=np.intp)
                cpos = np.empty(2 * garr.size, dtype=np.intp)
                cpos[0::2] = 2 * garr
                cpos[1::2] = 2 * garr + 1
                gchildren = [children[i] for i in cpos]
                w_all = xb.zeros((len(gchildren), r, cend), dtype=dtype)
                packs = []
                for b in plan_batch([(nd.size, r) for nd in gchildren]).buckets:
                    mem = [gchildren[i] for i in b.indices]
                    gsb = GatherScatter.from_ranges(
                        [(nd.start, nd.stop) for nd in mem], b.key[0]
                    )
                    Vh3 = gsb.take(Vsub).transpose(0, 2, 1).conj()
                    sel = np.asarray(b.indices, dtype=np.intp)
                    w_all[sel] = gemm_strided_batched(
                        Vh3, gsb.take(Ywork[:, :cend]), backend=xb
                    )
                    packs.append((sel, gsb))
                K_rhs = _pair_rhs(w_all, len(glist), r, pivot)
                W = _getrs_packed(
                    xb, pol, k_lu3[garr], k_piv3[garr], K_rhs, pivot=pivot
                )
                W_half = W.reshape(len(gchildren), r, cend)
                Yc = Ywork[:, :cend]
                for sel, gsb in packs:
                    upd = gemm_strided_batched(
                        gsb.take(Ysub), W_half[sel], backend=xb
                    )
                    gsb.sub(Yc, upd)
                stats["replay_groups"] += 1

            # final bucket assembly: pure host storage motion, no kernel
            # launches.  When the level rank is unchanged, clean children
            # keep the old buckets' packed Y3/Vh3 stacks *shared* (their
            # solved bases and V rows are unchanged — a clean node's whole
            # subtree is clean, and the prefix replays only touch coarser
            # column blocks); members dirty now or masked by an earlier
            # patch get empty gather ranges, and the fresh dirty buckets
            # appended after override them on replay (w_all is assigned
            # per bucket in list order, scatters skip masked rows).
            buckets: List[_SweepBucket] = []
            if osw is not None and r == r_old:
                for ob in osw.buckets:
                    old_sizes = ob.gs.sizes
                    ranges = []
                    any_live = False
                    for j, cpos_j in enumerate(ob.pos):
                        nd = children[int(cpos_j)]
                        if nd.index in dirty or old_sizes[j] == 0:
                            ranges.append((nd.start, nd.start))
                        else:
                            ranges.append((nd.start, nd.stop))
                            any_live = True
                    if not any_live:
                        continue
                    buckets.append(
                        _SweepBucket(
                            pos=ob.pos,
                            gs=GatherScatter.from_ranges(
                                ranges, ob.Y3.shape[1]
                            ),
                            Y3=ob.Y3,
                            Vh3=ob.Vh3,
                        )
                    )
                dlist = [i for i, nd in enumerate(children) if nd.index in dirty]
                for b in plan_batch([(children[i].size, r) for i in dlist]).buckets:
                    sel = [dlist[j] for j in b.indices]
                    mem = [children[i] for i in sel]
                    gsb = GatherScatter.from_ranges(
                        [(nd.start, nd.stop) for nd in mem], b.key[0]
                    )
                    buckets.append(
                        _SweepBucket(
                            pos=np.asarray(sel, dtype=np.intp),
                            gs=gsb,
                            Y3=gsb.take(Ysub),
                            Vh3=gsb.take(Vsub).transpose(0, 2, 1).conj(),
                        )
                    )
            else:
                for b in _child_plan_buckets(children, r, pol):
                    M = b.key[0]
                    mem = [children[i] for i in b.indices]
                    gsb = GatherScatter.from_ranges(
                        [(nd.start, nd.stop) for nd in mem], M
                    )
                    buckets.append(
                        _SweepBucket(
                            pos=np.asarray(b.indices, dtype=np.intp),
                            gs=gsb,
                            Y3=gsb.take(Ysub),
                            Vh3=gsb.take(Vsub).transpose(0, 2, 1).conj(),
                        )
                    )
            sweeps.append(
                _LevelSweep(
                    level=level,
                    rank=r,
                    k_lu3=k_lu3,
                    k_piv3=k_piv3,
                    buckets=buckets,
                    T3=T_all,
                )
            )

    patched = FactorPlan(
        tree=new_tree,
        dtype=dtype,
        context=ctx,
        pivot=pivot,
        leaf_buckets=leaf_buckets,
        sweeps=sweeps,
        Ybig=Ywork,
        level_ranks=data.level_ranks,
        col_offsets=data.col_offsets,
    )
    patched.last_patch_stats = stats
    patched.bigdata = data
    return patched
