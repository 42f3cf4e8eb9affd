"""Compiled factorization plans: packed factor storage + the compiled solve sweep.

:class:`~repro.core.apply_plan.ApplyPlan` compiles the HODLR *matvec*;
this module does the same for the *factorization* and its triangular-solve
sweeps:

:class:`FactorPlan`
    Per-level shape-bucketed strided 3-D storage of everything Algorithm 2
    needs: the factors of the leaf diagonal blocks (inverse Cholesky
    factors, or packed LU factors + pivots; see *Leaf factors*), packed
    LU factors of the per-level reduced ``K`` systems, and the ``Y``/``V^*``
    bases driving the Schur-update gemms (``V^*`` read from the matrix).
    Built through the dispatch layer by :func:`build_factor_plan` (which
    *is* Algorithm 1, executed packed: one factor/solve/gemm launch per
    shape bucket per level).

:class:`SolvePlan`
    The compiled forward/backward sweep over that storage:
    ``O(levels x buckets)`` ``potrs``/``getrs``/``gemm_strided_batched``
    launches per solve, no Python tree walk, no per-solve re-bucketing.  Krylov loops
    and repeated direct solves reuse it; every launch is trace-visible
    (``KernelEvent.plan`` marks plan-replay launches).

Leaf factors
------------
A real symmetric matrix (``hodlr.symmetric`` with a real dtype) factors
each leaf bucket as ``D = C C^T`` and stores the inverse factor ``C^{-1}``
in the ``m x m`` slot an LU factor takes, with no pivots
(:func:`~repro.backends.batched.potrf_batched`).  Every leaf solve — the
``Ybig`` stage of the build and each :class:`SolvePlan` replay — is then
``x = C^{-T} (C^{-1} b)``, two strided products in one
:func:`~repro.backends.batched.potrs_batched` launch instead of a loop of
per-leaf triangular substitutions.  Applying the two triangular inverse
factors one after the other keeps the accuracy of the substitution
(Du Croz & Higham, "Stability of methods for matrix inversion", IMA J.
Numer. Anal. 1992).  An explicit full leaf inverse ``D^{-1}`` would be
cheaper still, but it is not stable: on ``gp_covariance`` n=65536 it cut
the exact-residual digits from 9.42 to 8.61 (-0.8), where the triangular
factors kept 9.42.  Only the lower triangle of each leaf block is read;
``symmetric`` asserts the whole source is symmetric, as the mirrored
off-diagonal storage already does.  A bucket whose Cholesky fails (a block
that is not positive definite) falls back to pivoted LU; the bucket
records ``kind="lu"`` with ``fallback=True`` and
:attr:`FactorPlan.leaf_fallbacks` counts them.  Complex and non-symmetric
matrices keep pivoted LU leaves.  This is the leaf half of the symmetric
factorization of Ambikasaran, O'Neil & Singh (2014); the ``K`` systems
stay LU.

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
The plan owns the leaf factors, the K factors and the solved ``Y3``
stacks.  ``V^*`` is a transposed view of the matrix's own per-level
stacks (:class:`~repro.core.hodlr.HODLRStorage`); a plan copies it only
when it must transform it — precision-demoted levels, identity-padded
``pad_buckets=True`` buckets, and ``conj(V)`` of complex non-symmetric
matrices.  ``Ybig`` is a working array of the build, dropped once every
level's ``Y3`` is final.  :attr:`FactorPlan.nbytes` (and so
``factorization_nbytes``) counts what the plan owns.  A plan is a snapshot
of one matrix: a streaming update refactorizes into a fresh plan
(:meth:`~repro.core.solver.HODLRSolver.patch_factorize`) through the same
:func:`build_factor_plan`, which copies the leaf factors of every leaf
whose diagonal block is unchanged (bitwise equal) from the previous plan
and issues the leaf ``potrf_batched``/``getrf_batched`` launches over the
changed leaves only — a fresh factorization is the case where no leaf is
kept.  Each such launch runs in the host execution mode its whole bucket
would get, so the result is bitwise a fresh factorization's.

A solve copies the right-hand side once, into a C-ordered working array
that becomes the solution, and allocates one ``(n, K)`` workspace.  Each
contiguous full-precision bucket is solved in place through a zero-copy
row view (:meth:`~repro.core.packing.GatherScatter.view`): the leaf
solve writes into the view (``potrs_batched``/``getrs_batched(...,
out=)``), the ``V^*``
gemms read it, and each ``Y W`` update lands in the bucket's rows of the
workspace and is subtracted in place.  The workspace is allocated per
call and never cached on the plan: one plan serves concurrent solves, and
:attr:`FactorPlan.nbytes` counts only resident storage.  Padded and
demoted buckets gather, solve into a fresh array and scatter back.

Pad-to-bucket leaf packing
--------------------------
With ``DispatchPolicy(pad_buckets=True)`` near-equal leaf/node sizes merge
into shared buckets.  Leaf buckets pad with an **identity border** (the
padded matrix is ``blkdiag(A, I)``): partial pivoting never crosses the
border, the leading sub-block of the padded factor *is* the factor of
``A`` (for Cholesky the padded ``C^{-1}`` is ``blkdiag(C_A^{-1}, I)``),
and padded right-hand-side rows solve against the identity — so padding
is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends.batched import (
    gemm_strided_batched,
    getrf_batched,
    getrs_batched,
    potrf_batched,
    potrs_batched,
)
from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.counters import get_recorder
from ..backends.dispatch import pad_identity_stack, plan_batch, plan_batch_padded
from .packing import GatherScatter, demote_rhs_dtype, owned_nbytes, viewed_buffers


# ======================================================================
# plan storage
# ======================================================================
@dataclass
class _LeafBucket:
    """Factors of the leaf diagonal blocks sharing one (padded) size."""

    #: positions of the members within ``tree.leaves`` submission order
    positions: Tuple[int, ...]
    gs: GatherScatter
    #: ``"cholesky"``: ``factor3`` holds inverse lower Cholesky factors
    #: ``C^{-1}`` (``D = C C^T``) and there are no pivots; ``"lu"``: packed
    #: LU factors with their pivot rows in ``piv3``
    kind: str
    #: (nb, M, M) factors (identity-bordered when padded)
    factor3: np.ndarray
    #: (nb, M) pivot rows of an LU bucket
    piv3: Optional[np.ndarray] = None
    #: an LU bucket of a real symmetric matrix whose Cholesky failed
    fallback: bool = False

    def solve(self, rhs3, xb, pol, out=None):
        """One strided solve launch against the bucket's factors."""
        if self.kind == "cholesky":
            return potrs_batched(self.factor3, rhs3, backend=xb, out=out)
        return getrs_batched(
            self.factor3, self.piv3, rhs3, pivot=True, backend=xb, policy=pol, out=out
        )



@dataclass
class _SweepBucket:
    """One node-size bucket of a level's Schur-update gemm schedule."""

    #: positions of the members within the level's child ordering
    pos: np.ndarray
    gs: GatherScatter
    #: (nb, M, r) packed solved bases Y
    Y3: np.ndarray
    #: (nb, r, M) conjugate-transposed V bases: a transposed view of the
    #: matrix's stack, or a copy (demoted, padded, or conjugated)
    Vh3: np.ndarray


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

    @property
    def nchild(self) -> int:
        return 2 * self.k_lu3.shape[0]



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

    Instances come from :func:`build_factor_plan` (the packed Algorithm 1);
    the ``"batched"`` solver variant stores its factors here and solves
    through :class:`SolvePlan`.
    """

    def __init__(
        self,
        tree,
        dtype,
        context: ExecutionContext,
        pivot: bool,
        leaf_buckets: List[_LeafBucket],
        sweeps: List[_LevelSweep],
        matrix_buffers: Sequence = (),
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
        self.demoted: bool = False
        self._solve_plan: Optional["SolvePlan"] = None
        self._finalize_precision()
        #: the matrix stacks the plan reads in place (its ``V^*`` views keep
        #: them alive anyway); their bytes belong to the matrix
        self._shared = viewed_buffers(self.arrays(), matrix_buffers)

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
            if lb.factor3.dtype != leaf_target:
                lb.factor3 = lb.factor3.astype(leaf_target)
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
            out[self.levels] = np.dtype(lb.factor3.dtype)
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
    # per-leaf views
    # ------------------------------------------------------------------
    def leaf_factor_views(self) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """``(factor, piv)`` of every leaf in ``tree.leaves`` order (views
        into the packed stacks; padded borders sliced away): ``(C^{-1},
        None)`` for a Cholesky leaf, ``(lu, piv)`` for an LU leaf."""
        out: List[Optional[Tuple[np.ndarray, Optional[np.ndarray]]]] = [None] * len(
            self.tree.leaves
        )
        for lb in self.leaf_buckets:
            sizes = lb.gs.sizes
            for j, p in enumerate(lb.positions):
                m = sizes[j]
                piv = None if lb.piv3 is None else lb.piv3[j, :m]
                out[p] = (lb.factor3[j, :m, :m], piv)
        return out  # type: ignore[return-value]

    @property
    def leaf_fallbacks(self) -> int:
        """Leaf buckets of a real symmetric matrix whose Cholesky failed and
        that were factored with pivoted LU instead."""
        return sum(lb.fallback for lb in self.leaf_buckets)

    def y_views(self) -> Dict[int, np.ndarray]:
        """Solved basis ``Y_alpha = A_alpha^{-1} U_alpha`` of every non-root
        node, zero-padded to its level rank (views into the ``Y3`` stacks)."""
        out: Dict[int, np.ndarray] = {}
        for sw in self.sweeps:
            children = self.tree.level_nodes(sw.level + 1)
            for bk in sw.buckets:
                for j, (p, m) in enumerate(zip(bk.pos, bk.gs.sizes)):
                    out[children[p].index] = bk.Y3[j, :m]
        return out

    # ------------------------------------------------------------------
    # determinant
    # ------------------------------------------------------------------
    def slogdet(self) -> Tuple[complex, float]:
        """Sign/phase and log-magnitude of ``det(A)`` from the packed factors.

        A Cholesky leaf contributes ``log det D = -2 sum log diag(C^{-1})``
        with sign ``+1``.  Identity-bordered padding contributes ``log 1 =
        0`` and no row swaps, so padded stacks need no special casing.
        """
        from .factor_recursive import _lu_slogdet

        xb = self.context.backend
        sign: complex = 1.0
        logabs = 0.0
        for lb in self.leaf_buckets:
            f3 = np.asarray(xb.to_host(lb.factor3))  # repro-lint: ignore[RL001] -- slogdet is host-side analysis: factors download once, reduce serially
            if lb.kind == "cholesky":
                logabs -= 2.0 * float(np.sum(np.log(np.diagonal(f3, axis1=1, axis2=2))))
                continue
            piv3 = np.asarray(lb.piv3)  # repro-lint: ignore[RL001] -- pivot metadata is host-resident by design
            for j in range(f3.shape[0]):
                s, l = _lu_slogdet(f3[j], piv3[j])
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
    def arrays(self) -> List[np.ndarray]:
        """Every array the plan references (views into the matrix included)."""
        out: List[np.ndarray] = []
        for lb in self.leaf_buckets:
            out += [a for a in (lb.factor3, lb.piv3) if a is not None]
            out += lb.gs.arrays()
        for sw in self.sweeps:
            out += [sw.k_lu3, sw.k_piv3]
            for bk in sw.buckets:
                out += [bk.Y3, bk.Vh3, bk.pos, *bk.gs.arrays()]
        return out

    @property
    def nbytes(self) -> int:
        """Bytes the plan owns: LU stacks, the solved ``Y`` stacks, any
        copied ``V^*`` and indices (``V^*`` views of the matrix count zero)."""
        return owned_nbytes(self.arrays(), self._shared)

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
        # C order: the sweep reads and writes contiguous buckets through row
        # views of x, which GatherScatter.view only gives on C-ordered arrays
        x = (b.reshape(-1, 1) if squeeze else b).astype(out_dtype, order="C", copy=True)
        # per-call workspace for the Schur-update products, allocated on
        # first use; never cached on the plan, which serves concurrent solves
        ws = None

        # forward stage: one packed leaf solve per bucket, in place on the
        # view of a contiguous full-precision bucket
        for lb in plan.leaf_buckets:
            fdt = lb.factor3.dtype
            bd = np.result_type(fdt, demote_rhs_dtype(fdt, out_dtype))
            xv = lb.gs.view(x) if bd == out_dtype else None
            if xv is not None:
                lb.solve(xv, xb, pol, out=xv)
                continue
            lb.gs.put(x, lb.solve(lb.gs.take(x).astype(bd, copy=False), xb, pol))

        # backward sweep: deepest level first
        for sw in plan.sweeps:
            r = sw.rank
            ngamma = sw.k_lu3.shape[0]
            bd = np.result_type(
                sw.k_lu3.dtype, demote_rhs_dtype(sw.k_lu3.dtype, out_dtype)
            )
            full = bd == out_dtype
            w_all = xb.zeros((sw.nchild, r, x.shape[1]), dtype=bd)
            # a one-bucket level holds its children in order: its products
            # go straight into w_all and it reads W_half itself
            single = len(sw.buckets) == 1
            for bk in sw.buckets:
                xg = bk.gs.view(x) if full else None
                if xg is None:
                    xg = bk.gs.take(x).astype(bd, copy=False)
                into = single and np.result_type(bk.Vh3, xg) == bd
                prod = gemm_strided_batched(
                    bk.Vh3, xg, backend=xb, plan=True, out=w_all if into else None
                )
                if not into:
                    w_all[bk.pos] = prod
            K_rhs = _pair_rhs(w_all, ngamma, r, plan.pivot)
            W = getrs_batched(sw.k_lu3, sw.k_piv3, K_rhs, pivot=plan.pivot, backend=xb, policy=pol)
            W_half = W.reshape(sw.nchild, r, x.shape[1])
            for bk in sw.buckets:
                Wb = W_half if single else W_half[bk.pos]
                xv = bk.gs.view(x) if full else None
                if xv is None:
                    bk.gs.sub(x, gemm_strided_batched(bk.Y3, Wb, backend=xb, plan=True))
                    continue
                if ws is None:
                    ws = xb.zeros(x.shape, dtype=out_dtype)
                xv -= gemm_strided_batched(bk.Y3, Wb, backend=xb, plan=True, out=bk.gs.view(ws))

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


def _padded_stack(xb, blocks, M: int, r: int, dtype):
    """``(nb, M, r)`` stack of ``blocks``, zero-padded in both dimensions."""
    out = xb.zeros((len(blocks), M, r), dtype=dtype)
    for j, blk in enumerate(blocks):
        out[j, : blk.shape[0], : blk.shape[1]] = blk
    return out


def _vh_stacks(xb, hodlr, level: int, buckets, r: int, pol, dtype):
    """``V^*`` of each child bucket at ``level``: transposed views of the
    matrix's stacks (the plan buckets are the storage buckets), or padded
    copies when ``pad_buckets`` merged node sizes."""
    if not pol.pad_buckets:
        return [b.vh() for b in hodlr.storage.bases[level]]
    nodes = hodlr.tree.level_nodes(level)
    out = []
    for b in buckets:
        V3 = _padded_stack(
            xb, [hodlr.V[nodes[i].index] for i in b.indices], b.key[0], r, dtype
        )
        out.append(V3.conj().transpose(0, 2, 1))
    return out


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


def _concat_bases(bases, tree, level_ranks: List[int], zeros, dtype) -> np.ndarray:
    """The paper's ``(n, sum r_ell)`` concatenated layout of per-node
    ``bases`` (Figs. 3-4): level ``ell``'s column block stacks its nodes'
    bases by rows, zero-padded to the level rank; ``zeros(shape, dtype)``
    allocates it."""
    out = zeros((tree.n, int(sum(level_ranks))), dtype=dtype)
    c0 = 0
    for level, r in enumerate(level_ranks, start=1):
        for node in tree.level_nodes(level):
            b = bases[node.index]
            out[node.start : node.stop, c0 : c0 + b.shape[1]] = b
        c0 += r
    return out


def _kept_leaf_factors(previous, hodlr, dtype, pol):
    """Where each reusable leaf's factors sit in an earlier plan.

    ``previous`` is ``(matrix, plan)`` of an earlier factorization.  A leaf
    whose diagonal block in ``hodlr`` equals its block in ``matrix``
    (same shape, bitwise equal entries) keeps its factors.  Returns
    ``{bucket key M: (previous bucket, {leaf position: row})}``.  Nothing
    is kept (``{}``) without a previous plan of the same tree depth and
    dispatch policy, and a previous bucket is skipped when its storage was
    demoted by ``PrecisionPolicy(factor=...)``.
    """
    if previous is None:
        return {}
    matrix, plan = previous
    tree = hodlr.tree
    if plan.levels != tree.levels or plan.context.policy != pol:
        return {}
    leaves = tree.leaves
    kept = {}
    for lb in plan.leaf_buckets:
        if lb.factor3.dtype != dtype:
            continue
        rows = {}
        for j, p in enumerate(lb.positions):
            new, old = hodlr.diag[leaves[p].index], matrix.diag[leaves[p].index]
            if new.shape == old.shape and bool(np.array_equal(new, old)):
                rows[p] = j
        kept[lb.factor3.shape[1]] = (lb, rows)
    return kept


def _reuse_rows(D3, positions, where, old, factor):
    """The factor stacks of one leaf bucket, reusing an earlier plan's rows.

    Members with a row in ``where`` copy that row of the earlier bucket
    ``old`` (its factors, and its pivots if it has any) with one gather;
    ``factor(A3)``, returning the same stacks, runs over the rest only —
    every member on a fresh factorization.
    """
    nb = D3.shape[0]
    rows = np.array([where.get(p, -1) for p in positions], dtype=np.intp)
    fresh = np.flatnonzero(rows < 0)
    if fresh.size == nb:
        return factor(D3)
    take = np.where(rows >= 0, rows, 0)
    out = tuple(a[take] for a in (old.factor3, old.piv3) if a is not None)
    if fresh.size:
        for a, new in zip(out, factor(D3[fresh])):
            a[fresh] = new
    return out


def _leaf_factors(D3, positions, kept, xb, pol, spd: bool):
    """``(kind, factor3, piv3, fallback)`` of one leaf bucket.

    With ``spd`` (a real symmetric matrix) the bucket takes Cholesky
    factors from ``potrf_batched``; a bucket whose Cholesky fails falls
    back to pivoted LU (``fallback=True``).  Members with factors of the
    same kind in ``kept`` (see :func:`_kept_leaf_factors`) copy them, and
    the factor launch covers the rest only.  A Cholesky member depends on
    its own block alone, and an LU launch executes in the host mode
    (vectorised or per-problem LAPACK) the whole bucket would get, so kept
    and fresh members are bitwise what a fresh factorization computes.  A
    previous bucket of a different size, kind or LU execution mode keeps
    nothing.
    """
    nb, M = D3.shape[0], D3.shape[1]
    old, where = kept.get(M, (None, {}))
    if spd:
        try:
            (cinv3,) = _reuse_rows(
                D3, positions, where if old is not None and old.kind == "cholesky" else {}, old,
                lambda A3: (potrf_batched(A3, backend=xb),),
            )
            return "cholesky", cinv3, None, False
        except np.linalg.LinAlgError:
            pass
    vectorize = pol.vectorize_lu_factor(nb, M)
    if old is None or old.kind != "lu" or (
        pol.vectorize_lu_factor(old.factor3.shape[0], M) != vectorize
    ):
        where = {}

    def lu(A3):
        mode = pol
        if A3.shape[0] < nb:
            mode = (
                pol.replace(min_bucket=1, lu_factor_min_batch=1)
                if vectorize
                else pol.replace(lu_vectorize=False)
            )
        return getrf_batched(A3, pivot=True, backend=xb, policy=mode)

    lu3, piv3 = _reuse_rows(D3, positions, where, old, lu)
    return "lu", lu3, piv3, spd


def build_factor_plan(
    hodlr,
    context: Optional[ExecutionContext] = None,
    pivot: bool = True,
    previous=None,
) -> FactorPlan:
    """Algorithm 1 executed packed: factorize ``hodlr`` (a
    :class:`~repro.core.hodlr.HODLRMatrix`) straight into a
    :class:`FactorPlan`.

    Per shape bucket per level this issues one factorization (potrf or
    getrf), one solve (potrs or getrs), and a handful of strided gemms
    through the dispatch layer.  The solved bases
    are computed in a working concatenated ``Ybig`` (the paper's in-place
    layout) and each level's ``Y3`` is gathered from it once the level is
    final; ``Ybig`` is dropped on return.  ``V^*`` is read from the
    matrix's stacks.  :class:`~repro.core.factor_batched.
    BatchedFactorization` (the ``batched`` variant) wraps this in trace
    recording and transfer accounting.

    A real symmetric ``hodlr`` factors its leaves by Cholesky (see *Leaf
    factors* in the module docstring); every other matrix by pivoted LU.

    ``previous`` refactorizes after a streaming update: it is ``(matrix,
    plan)`` of the factorization before it.  Every leaf whose diagonal
    block is bitwise equal to its block in ``matrix`` copies its factors
    from ``plan``, so the leaf factor launches cover only the changed
    leaves.  ``Ybig``, the K systems and the sweeps are always recomputed:
    a recompressed ancestor basis changes every row it spans.
    ``previous=None`` factorizes every leaf — a fresh factorization.
    """
    ctx = context or DEFAULT_CONTEXT
    xb, pol = ctx.backend, ctx.policy
    tree = hodlr.tree
    dtype = np.dtype(hodlr.dtype)
    rec = get_recorder()
    level_ranks = hodlr.storage.level_ranks
    col_offsets = [0, *accumulate(level_ranks)]
    Ybig = _concat_bases(hodlr.U, tree, level_ranks, xb.zeros, dtype)
    kept = _kept_leaf_factors(previous, hodlr, dtype, pol)
    spd = hodlr.symmetric and dtype.kind == "f"

    # ---- leaves: one packed factorization + one packed solve per size bucket
    leaves = tree.leaves
    with rec.context(level=tree.levels):
        plan_buckets = _leaf_plan_buckets(tree, pol)
        if pol.pad_buckets:
            stacks = [
                pad_identity_stack(
                    xb, [hodlr.diag[leaves[i].index] for i in b.indices], b.key[0], dtype
                )
                for b in plan_buckets
            ]
        else:
            # the plan's leaf buckets are the matrix's diagonal stacks
            stacks = [db.D for db in hodlr.storage.diag]

        leaf_buckets: List[_LeafBucket] = []
        for bucket, D3 in zip(plan_buckets, stacks):
            gs = GatherScatter.from_ranges(
                [(leaves[i].start, leaves[i].stop) for i in bucket.indices], bucket.key[0]
            )
            kind, f3, piv3, fallback = _leaf_factors(D3, bucket.indices, kept, xb, pol, spd)
            lb = _LeafBucket(
                positions=bucket.indices, gs=gs, kind=kind, factor3=f3, piv3=piv3,
                fallback=fallback,
            )
            if Ybig.shape[1]:
                # in place on a contiguous bucket's rows, as SolvePlan.solve
                yv = gs.view(Ybig)
                if yv is not None:
                    lb.solve(yv, xb, pol, out=yv)
                else:
                    gs.put(Ybig, lb.solve(gs.take(Ybig), xb, pol))
            leaf_buckets.append(lb)

    # ---- level sweep, bottom-up
    sweeps: List[_LevelSweep] = []
    for level in range(tree.levels - 1, -1, -1):
        child_level = level + 1
        r = level_ranks[level]
        if r == 0:
            continue  # degenerate level: all off-diagonal blocks numerically zero
        children = tree.level_nodes(child_level)
        gammas = tree.level_nodes(level)
        nchild = len(children)
        ncoarse = col_offsets[level]

        with rec.context(level=level):
            # the child level's columns are final: deeper sweeps are done
            Ysub = Ybig[:, col_offsets[level] : col_offsets[child_level]]
            T_all = xb.zeros((nchild, r, r), dtype=dtype)
            child_buckets = _child_plan_buckets(children, r, pol)
            vh = _vh_stacks(xb, hodlr, child_level, child_buckets, r, pol, dtype)

            buckets: List[_SweepBucket] = []
            for b, Vh3 in zip(child_buckets, vh):
                gs = GatherScatter.from_ranges(
                    [(children[i].start, children[i].stop) for i in b.indices], b.key[0]
                )
                Y3 = gs.take(Ysub)
                pos = np.asarray(b.indices, dtype=np.intp)
                # line 5: T = V^* Y, one strided launch per bucket
                T_all[pos] = gemm_strided_batched(Vh3, Y3, backend=xb)
                buckets.append(_SweepBucket(pos=pos, gs=gs, Y3=Y3, Vh3=Vh3))

            # lines 7-8: assemble and LU-factorize the K systems
            K3 = _assemble_k(xb, T_all, len(gammas), r, dtype, pivot)
            k_lu3, k_piv3 = getrf_batched(K3, pivot=pivot, backend=xb, policy=pol)
            sweeps.append(
                _LevelSweep(
                    level=level,
                    rank=r,
                    k_lu3=k_lu3,
                    k_piv3=k_piv3,
                    buckets=buckets,
                )
            )

            # lines 9-10: solve (13) and apply the update (14) to the
            # coarser columns of Ybig
            if ncoarse:
                Ycsub = Ybig[:, :ncoarse]
                w_all = xb.zeros((nchild, r, ncoarse), dtype=dtype)
                for bk in buckets:
                    w_all[bk.pos] = gemm_strided_batched(
                        bk.Vh3, bk.gs.take(Ycsub), backend=xb
                    )
                K_rhs = _pair_rhs(w_all, len(gammas), r, pivot)
                W = getrs_batched(k_lu3, k_piv3, K_rhs, pivot=pivot, backend=xb, policy=pol)
                W_half = W.reshape(nchild, r, ncoarse)

                for bk in buckets:
                    upd = gemm_strided_batched(bk.Y3, W_half[bk.pos], backend=xb)
                    bk.gs.sub(Ycsub, upd)

    return FactorPlan(
        tree=tree,
        dtype=dtype,
        context=ctx,
        pivot=pivot,
        leaf_buckets=leaf_buckets,
        sweeps=sweeps,
        matrix_buffers=hodlr.storage.buffers(),
    )
