"""Compiled factorization plans: packed factor storage + the compiled solve sweep.

:class:`~repro.core.apply_plan.ApplyPlan` compiles the HODLR *matvec*;
this module does the same for the *factorization* and its triangular-solve
sweeps:

:class:`FactorPlan`
    Per-level shape-bucketed strided 3-D storage of everything Algorithm 2
    needs: the factors of the leaf diagonal blocks (inverse Cholesky
    factors, or packed LU factors + pivots; see *Leaf factors*), the
    inverse factors of the per-level reduced ``K`` systems (see *K
    systems*), and the ``Y``/``V^*`` bases driving the Schur-update gemms
    (``V^*`` read from the matrix).
    Built through the dispatch layer by :func:`build_factor_plan` (which
    *is* Algorithm 1, executed packed: one factor/solve/gemm launch per
    shape bucket per level).

:class:`SolvePlan`
    The compiled forward/backward sweep over that storage:
    ``O(levels x buckets)`` ``potrs``/``getrs`` leaf launches,
    ``schur_solve_batched`` K launches and ``gemm_strided_batched``
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
below are the same for every matrix.

K systems
---------
Each tree level solves one reduced system per node, ``K = [T_a I; I
T_b]`` (equation (11), ``T_a``/``T_b`` the ``V^* Y`` products of the left
and right child).  The plan eliminates it by its identity blocks: with
``S = I - T_a T_b`` (``r x r``), ``K [x; y] = [c_a; c_b]`` has ``y =
S^{-1} (c_a - T_a c_b)`` and ``x = c_b - T_b y``.  Per level, one strided
product forms every ``S``, one ``getrf_batched`` launch factors them as
``S = P L U`` (partially pivoted, or not under ``pivot=False``) and one
``trtri_batched`` launch inverts both triangular factors.  Per node the
plan stores ``G = [L^{-1} P^T | -L^{-1} P^T T_a]`` (``r x 2r``),
``U^{-1}`` and ``T_b``: ``4 r^2`` entries, the footprint of a ``2r x 2r``
LU, and no pivots (:attr:`_LevelSweep.swaps` keeps their parity for
:meth:`FactorPlan.slogdet`).  Every K solve — the ``Ybig`` update of the
build and each :class:`SolvePlan` replay — is then ``y = U^{-1} (G c)``,
``x = c_b - T_b y``: three strided products in one
:func:`~repro.backends.batched.schur_solve_batched` launch, where a
pivoted ``getrs`` on ``K`` substituted row by row (its flops are the
same, ``8 r^2`` per right-hand side).  Applying triangular inverse factors
keeps the accuracy of the substitution, as for the leaves.  Two
alternatives were measured and not taken.  An explicit ``K^{-1}`` is one
product per solve but not stable: on ``gp_covariance`` n=8192 it cut the
exact-residual digits from 9.94 to 9.23 (-0.7; 4 right-hand sides, 256
sampled rows), and at n=2048 with ``noise_std=0.005`` from 8.40 to 6.93
(all rows; the accuracy guard of the tests).
Inverse triangular factors of the whole ``2r x 2r`` LU of ``K`` keep
the accuracy but store ``8 r^2`` per node, twice the above: about
+10 MB, or +12% of ``helmholtz_scatter``'s ``operator_mb``.  A Schur
complement singular to working precision (``min |u_ii| <= r eps max
|u_ij|``: ``S``, hence ``K``, is numerically singular, or a
``pivot=False`` factorization met a tiny pivot) raises
:class:`numpy.linalg.LinAlgError` rather than returning garbage.

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
The plan owns the leaf factors, the K systems' ``G``/``U^{-1}``/``T_b``
stacks and the solved ``Y3`` stacks.  ``V^*`` is a transposed view of the matrix's own per-level
stacks (:class:`~repro.core.hodlr.HODLRStorage`); a plan copies it only
when it must transform it — precision-demoted levels and ``conj(V)`` of
complex non-symmetric matrices.  ``Ybig`` is a working array of the
build, dropped once every level's ``Y3`` is final.  :attr:`FactorPlan.nbytes` (and so
``factorization_nbytes``) counts what the plan owns.  A plan is a snapshot
of one matrix: a streaming update refactorizes into a fresh plan
(:meth:`~repro.core.solver.HODLRSolver.patch_factorize`) through the same
:func:`build_factor_plan`, which copies the leaf factors of every leaf
whose diagonal block is unchanged (bitwise equal) from the previous plan
and issues the leaf ``potrf_batched``/``getrf_batched`` launches over the
changed leaves only — a fresh factorization is the case where no leaf is
kept.  Each such launch runs in the host execution mode its whole bucket
would get (``getrf_batched(..., bucket_size=)``), so the result is bitwise
a fresh factorization's.

A solve copies the right-hand side once, into a C-ordered working array
that becomes the solution, and allocates one ``(n, K)`` workspace.  Each
contiguous full-precision bucket is solved in place through a zero-copy
row view (:meth:`~repro.core.packing.GatherScatter.view`): the leaf
solve writes into the view (``potrs_batched``/``getrs_batched(...,
out=)``), the ``V^*``
gemms read it, and each ``Y W`` update lands in the bucket's rows of the
workspace and is subtracted in place.  The workspace is allocated per
call and never cached on the plan: one plan serves concurrent solves, and
:attr:`FactorPlan.nbytes` counts only resident storage.  Scattered and
demoted buckets gather, solve into a fresh array and scatter back.

The plan's buckets are the matrix's storage buckets: one per leaf size,
and one per node size on each level, each of one exact shape.
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
    schur_solve_batched,
    trtri_batched,
)
from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.counters import get_recorder
from ..backends.dispatch import vectorize_getrf
from .packing import GatherScatter, demote_rhs_dtype, owned_nbytes, viewed_buffers


# ======================================================================
# plan storage
# ======================================================================
@dataclass
class _LeafBucket:
    """Factors of the leaf diagonal blocks sharing one size."""

    #: positions of the members within ``tree.leaves`` submission order
    positions: Tuple[int, ...]
    gs: GatherScatter
    #: ``"cholesky"``: ``factor3`` holds inverse lower Cholesky factors
    #: ``C^{-1}`` (``D = C C^T``) and there are no pivots; ``"lu"``: packed
    #: LU factors with their pivot rows in ``piv3``
    kind: str
    #: (nb, M, M) factors
    factor3: np.ndarray
    #: (nb, M) pivot rows of an LU bucket
    piv3: Optional[np.ndarray] = None
    #: an LU bucket of a real symmetric matrix whose Cholesky failed
    fallback: bool = False

    def solve(self, rhs3, xb, out=None):
        """One strided solve launch against the bucket's factors."""
        if self.kind == "cholesky":
            return potrs_batched(self.factor3, rhs3, backend=xb, out=out)
        return getrs_batched(self.factor3, self.piv3, rhs3, pivot=True, backend=xb, out=out)


@dataclass
class _SweepBucket:
    """One node-size bucket of a level's Schur-update gemm schedule."""

    #: positions of the members within the level's child ordering
    pos: np.ndarray
    gs: GatherScatter
    #: (nb, M, r) packed solved bases Y
    Y3: np.ndarray
    #: (nb, r, M) conjugate-transposed V bases: a transposed view of the
    #: matrix's stack, or a copy (demoted or conjugated)
    Vh3: np.ndarray


@dataclass
class _LevelSweep:
    """Everything one level of the forward/backward sweep needs."""

    #: tree level of the ``gamma`` nodes (children live at ``level + 1``)
    level: int
    rank: int
    #: (ngamma, r, 2r) ``G = [L^{-1} P^T | -L^{-1} P^T T_a]`` of the Schur
    #: complements ``S = I - T_a T_b = P L U`` (see *K systems*)
    g3: np.ndarray
    #: (ngamma, r, r) inverse upper factors ``U^{-1}``
    uinv3: np.ndarray
    #: (ngamma, r, r) ``T_b = V_b^* Y_b`` of the right children
    tb3: np.ndarray
    #: row interchanges of the level's ``S`` factorizations (the parity of
    #: ``det P``, all :meth:`FactorPlan.slogdet` needs of the pivots)
    swaps: int
    buckets: List[_SweepBucket] = field(default_factory=list)

    @property
    def nchild(self) -> int:
        return 2 * self.g3.shape[0]

    def solve(self, rhs3, xb):
        """The level's K solves, in place on ``(ngamma, 2r, nrhs)`` ``rhs3``:
        ``[c_a; c_b]`` per node in, the children's ``[x; y]`` out."""
        return schur_solve_batched(self.g3, self.uinv3, self.tb3, rhs3, backend=xb, out=rhs3)


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
            if sw.g3.dtype != target:
                sw.g3, sw.uinv3, sw.tb3 = (
                    a.astype(target) for a in (sw.g3, sw.uinv3, sw.tb3)
                )
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
            out.setdefault(sw.level + 1, np.dtype(sw.g3.dtype))
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
        into the packed stacks): ``(C^{-1}, None)`` for a Cholesky leaf,
        ``(lu, piv)`` for an LU leaf."""
        out: List[Optional[Tuple[np.ndarray, Optional[np.ndarray]]]] = [None] * len(
            self.tree.leaves
        )
        for lb in self.leaf_buckets:
            for j, p in enumerate(lb.positions):
                out[p] = (lb.factor3[j], None if lb.piv3 is None else lb.piv3[j])
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
                for j, p in enumerate(bk.pos):
                    out[children[p].index] = bk.Y3[j]
        return out

    # ------------------------------------------------------------------
    # determinant
    # ------------------------------------------------------------------
    def slogdet(self) -> Tuple[complex, float]:
        """Sign/phase and log-magnitude of ``det(A)`` from the packed factors.

        A Cholesky leaf contributes ``log det D = -2 sum log diag(C^{-1})``
        with sign ``+1``.  Every node contributes ``det S = det P prod
        diag(U)`` of its Schur complement (``det K = (-1)^{r^2} det S``, and
        the block-row swap relating ``K`` to the node factor contributes
        the same ``(-1)^{r^2}``): the diagonal of the stored ``U^{-1}``
        holds the reciprocals ``1 / u_ii``, and :attr:`_LevelSweep.swaps`
        the parity of ``P``.
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
            uinv3 = np.asarray(xb.to_host(sw.uinv3))  # repro-lint: ignore[RL001] -- slogdet is host-side analysis: factors download once, reduce serially
            d = np.diagonal(uinv3, axis1=1, axis2=2)
            logabs -= float(np.sum(np.log(np.abs(d))))
            # the phase of u_ii is the conjugate phase of 1 / u_ii
            sign *= np.prod(np.conj(d / np.abs(d))) * (-1.0) ** sw.swaps
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
            out += [sw.g3, sw.uinv3, sw.tb3]
            for bk in sw.buckets:
                out += [bk.Y3, bk.Vh3, bk.pos, *bk.gs.arrays()]
        return out

    @property
    def nbytes(self) -> int:
        """Bytes the plan owns: leaf factors, the K systems' ``G``,
        ``U^{-1}`` and ``T_b`` stacks, the solved ``Y`` stacks, any copied
        ``V^*`` and indices (``V^*`` views of the matrix count zero)."""
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
        single vector — every launch simply carries ``K`` columns, so the
        launch count is independent of ``K``.
        """
        plan = self.plan
        ctx = plan.context
        xb = ctx.backend
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
                lb.solve(xv, xb, out=xv)
                continue
            lb.gs.put(x, lb.solve(lb.gs.take(x).astype(bd, copy=False), xb))

        # backward sweep: deepest level first
        for sw in plan.sweeps:
            r = sw.rank
            bd = np.result_type(sw.g3.dtype, demote_rhs_dtype(sw.g3.dtype, out_dtype))
            full = bd == out_dtype
            w_all = xb.zeros((sw.nchild, r, x.shape[1]), dtype=bd)
            # a one-bucket level holds its children in order: its products
            # go straight into w_all and it reads the solved w_all itself
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
            # the K solves turn w_all into the children's W in place
            sw.solve(w_all.reshape(sw.nchild // 2, 2 * r, x.shape[1]), xb)
            for bk in sw.buckets:
                Wb = w_all if single else w_all[bk.pos]
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
def _row_order(piv3) -> np.ndarray:
    """``(nb, n)`` row order of ``P^T S = L U`` from LAPACK pivots: row ``i``
    of ``P^T S`` is row ``order[i]`` of ``S`` (the interchanges applied in
    sequence, one vectorised step per column that swaps in any problem)."""
    nb, n = piv3.shape
    cols = np.arange(n, dtype=np.intp)
    order = np.tile(cols, (nb, 1))
    rows = np.arange(nb, dtype=np.intp)
    for k in np.flatnonzero((piv3 != cols).any(axis=0)):
        p = piv3[:, k]
        kept = order[:, k].copy()
        order[:, k] = order[rows, p]
        order[rows, p] = kept
    return order


def _schur_factors(xb, T_all, pivot: bool):
    """``(g3, uinv3, tb3, swaps)`` of one level's K systems (see *K
    systems*): ``S = I - T_a T_b`` in one strided product, one
    ``getrf_batched`` and one ``trtri_batched`` launch over every node of
    the level, then ``G = [L^{-1} P^T | -L^{-1} P^T T_a]``."""
    T_a, T_b = T_all[0::2], T_all[1::2]
    ngamma, r = T_a.shape[0], T_a.shape[1]
    S3 = gemm_strided_batched(T_a, T_b, backend=xb)
    S3 *= -1
    S3 += xb.eye(r, dtype=S3.dtype)
    lu3, piv3 = getrf_batched(S3, pivot=pivot, backend=xb)
    linv3, uinv3 = trtri_batched(lu3, backend=xb)
    cols = np.arange(r, dtype=np.intp)
    swaps = int(np.count_nonzero(piv3 != cols))
    g3 = xb.zeros((ngamma, r, 2 * r), dtype=S3.dtype)
    if swaps:
        # column j of L^{-1} P^T is column order^{-1}[j] of L^{-1}
        inv = np.argsort(_row_order(piv3), axis=1)
        nodes = np.arange(ngamma, dtype=np.intp)
        g3[:, :, :r] = linv3[nodes[:, None, None], cols[:, None], inv[:, None, :]]
    else:
        g3[:, :, :r] = linv3
    right = g3[:, :, r:]
    gemm_strided_batched(g3[:, :, :r], T_a, backend=xb, out=right)
    right *= -1
    return g3, uinv3, T_b.copy(), swaps


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


def _kept_leaf_factors(previous, hodlr, dtype):
    """Where each reusable leaf's factors sit in an earlier plan.

    ``previous`` is ``(matrix, plan)`` of an earlier factorization.  A leaf
    whose diagonal block in ``hodlr`` equals its block in ``matrix``
    (same shape, bitwise equal entries) keeps its factors.  Returns
    ``{bucket key M: (previous bucket, {leaf position: row})}``.  Nothing
    is kept (``{}``) without a previous plan of the same tree depth, and a
    previous bucket is skipped when its storage was demoted by
    ``PrecisionPolicy(factor=...)``.
    """
    if previous is None:
        return {}
    matrix, plan = previous
    tree = hodlr.tree
    if plan.levels != tree.levels:
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


def _leaf_factors(D3, positions, kept, xb, spd: bool):
    """``(kind, factor3, piv3, fallback)`` of one leaf bucket.

    With ``spd`` (a real symmetric matrix) the bucket takes Cholesky
    factors from ``potrf_batched``; a bucket whose Cholesky fails falls
    back to pivoted LU (``fallback=True``).  Members with factors of the
    same kind in ``kept`` (see :func:`_kept_leaf_factors`) copy them, and
    the factor launch covers the rest only.  A Cholesky member depends on
    its own block alone, and an LU launch executes in the host mode
    (vectorised or per-problem LAPACK) the whole bucket gets, so kept and
    fresh members are bitwise what a fresh factorization computes.  A
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
    if old is None or old.kind != "lu" or (
        vectorize_getrf(old.factor3.shape[0], M) != vectorize_getrf(nb, M)
    ):
        where = {}
    lu3, piv3 = _reuse_rows(
        D3, positions, where, old,
        lambda A3: getrf_batched(A3, pivot=True, backend=xb, bucket_size=nb),
    )
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

    Per leaf bucket this issues one factorization (potrf or getrf) and one
    solve (potrs or getrs); per level one Schur-complement factorization
    (getrf + trtri over all its nodes, see *K systems*), one K solve
    (schur_solve) and a handful of strided gemms, all through the
    dispatch layer.  The solved bases
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
    xb = ctx.backend
    tree = hodlr.tree
    dtype = np.dtype(hodlr.dtype)
    rec = get_recorder()
    level_ranks = hodlr.storage.level_ranks
    col_offsets = [0, *accumulate(level_ranks)]
    Ybig = _concat_bases(hodlr.U, tree, level_ranks, xb.zeros, dtype)
    kept = _kept_leaf_factors(previous, hodlr, dtype)
    spd = hodlr.symmetric and dtype.kind == "f"

    # ---- leaves: one packed factorization + one packed solve per size bucket
    with rec.context(level=tree.levels):
        leaf_buckets: List[_LeafBucket] = []
        leaf_pos = {leaf.index: i for i, leaf in enumerate(tree.leaves)}
        # the plan's leaf buckets are the matrix's diagonal stacks
        for db in hodlr.storage.diag:
            positions = tuple(leaf_pos[nd.index] for nd in db.nodes)
            gs = GatherScatter.from_ranges([(nd.start, nd.stop) for nd in db.nodes], db.D.shape[1])
            kind, f3, piv3, fallback = _leaf_factors(db.D, positions, kept, xb, spd)
            lb = _LeafBucket(
                positions=positions, gs=gs, kind=kind, factor3=f3, piv3=piv3,
                fallback=fallback,
            )
            if Ybig.shape[1]:
                # in place on a contiguous bucket's rows, as SolvePlan.solve
                yv = gs.view(Ybig)
                if yv is not None:
                    lb.solve(yv, xb, out=yv)
                else:
                    gs.put(Ybig, lb.solve(gs.take(Ybig), xb))
            leaf_buckets.append(lb)

    # ---- level sweep, bottom-up
    sweeps: List[_LevelSweep] = []
    for level in range(tree.levels - 1, -1, -1):
        child_level = level + 1
        r = level_ranks[level]
        if r == 0:
            continue  # degenerate level: all off-diagonal blocks numerically zero
        nchild = len(tree.level_nodes(child_level))
        ncoarse = col_offsets[level]

        with rec.context(level=level):
            # the child level's columns are final: deeper sweeps are done
            Ysub = Ybig[:, col_offsets[level] : col_offsets[child_level]]
            T_all = xb.zeros((nchild, r, r), dtype=dtype)

            # the plan's buckets are the matrix's basis stacks of the level
            buckets: List[_SweepBucket] = []
            for b in hodlr.storage.bases[child_level]:
                gs = GatherScatter.from_ranges([(nd.start, nd.stop) for nd in b.nodes], b.U.shape[1])
                Y3 = gs.take(Ysub)
                Vh3 = b.vh()
                # a copy: FactorPlan.nbytes counts the plan's own index arrays
                pos = b.positions.copy()
                # line 5: T = V^* Y, one strided launch per bucket
                T_all[pos] = gemm_strided_batched(Vh3, Y3, backend=xb)
                buckets.append(_SweepBucket(pos=pos, gs=gs, Y3=Y3, Vh3=Vh3))

            # lines 7-8: factor the K systems through their Schur complements
            sw = _LevelSweep(level, r, *_schur_factors(xb, T_all, pivot), buckets=buckets)
            sweeps.append(sw)

            # lines 9-10: solve (13) and apply the update (14) to the
            # coarser columns of Ybig
            if ncoarse:
                Ycsub = Ybig[:, :ncoarse]
                w_all = xb.zeros((nchild, r, ncoarse), dtype=dtype)
                for bk in buckets:
                    w_all[bk.pos] = gemm_strided_batched(
                        bk.Vh3, bk.gs.take(Ycsub), backend=xb
                    )
                sw.solve(w_all.reshape(nchild // 2, 2 * r, ncoarse), xb)

                for bk in buckets:
                    upd = gemm_strided_batched(bk.Y3, w_all[bk.pos], backend=xb)
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
