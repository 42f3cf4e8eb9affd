"""Low-rank compression kernels for off-diagonal HODLR blocks.

The paper constructs HODLR approximations on the CPU before copying them to
the GPU, using

* HODLRlib's ``LowRank::rookPiv()`` — an approximate partial-pivoted LU
  ("rook pivoting" / ACA-style cross approximation) — for kernel matrices
  (section IV-A), and
* the proxy-surface technique for BIE matrices (sections IV-B/IV-C; the
  proxy machinery itself lives in :mod:`repro.bie.proxy` because it needs
  geometry, but it reuses :func:`randomized_compress` from here).

This module implements three interchangeable compressors plus a config
object and a dispatcher:

* :func:`svd_compress`         — exact truncated SVD (reference / testing);
* :func:`rook_pivot_compress`  — adaptive cross approximation with rook
  pivot searches, requiring only entry evaluation;
* :func:`randomized_compress`  — randomized range finder + small SVD,
  requiring only matvec access to the block.

Each has a batched form that compresses a whole shape bucket of a tree
level at once.  For rook that is :func:`rook_pivot_compress_stack`: the
blocks advance their crosses in lockstep through one gathered
``entries_blocks`` evaluation per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy import linalg as sla

from ..backends.batched import gemm_strided_batched, qr_batched, svd_batched
from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.dispatch import ArrayBackend, plan_batch
from .low_rank import LowRankFactor, _truncation_count

#: Evaluates a sub-block of the operator: ``entries(rows, cols) -> ndarray``.
BlockEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class CompressionConfig:
    """Options controlling off-diagonal block compression.

    Parameters
    ----------
    tol:
        Relative tolerance for the low-rank approximation (the paper uses
        1e-12 for the "high accuracy" solvers and ~1e-4 for the
        preconditioner runs).
    max_rank:
        Hard cap on the rank (None = no cap).
    method:
        ``"svd"``, ``"rook"``, or ``"randomized"``.
    oversampling:
        Extra random samples for the randomized range finder.
    rng:
        Seeded generator for reproducibility of the randomized path.
    construction:
        ``"batched"`` (default) drives :func:`repro.core.build_hodlr`
        level-major: kernel entries for a whole tree level are gathered in
        one vectorized call and sibling blocks are compressed through the
        shape-bucketed batched kernels; ``"peeling"`` builds from matvecs
        alone.  The per-block reference schedule is not a construction
        mode: it is the batched build run under an
        ``ExecutionContext(policy=LOOP_POLICY)``.  ``method="rook"`` never
        gathers whole blocks: the blocks of a shape bucket advance their
        crosses in lockstep, with one gathered evaluation of all pivot rows
        (and one of all pivot columns) per cross step
        (:func:`rook_pivot_compress_stack`).
    """

    tol: float = 1e-12
    max_rank: Optional[int] = None
    method: str = "rook"
    oversampling: int = 10
    rng: Optional[np.random.Generator] = None
    construction: str = "batched"

    def generator(self) -> np.random.Generator:
        return self.rng if self.rng is not None else np.random.default_rng(0)


# ----------------------------------------------------------------------
# SVD (reference)
# ----------------------------------------------------------------------
def svd_compress(
    block: np.ndarray, tol: float = 1e-12, max_rank: Optional[int] = None
) -> LowRankFactor:
    """Optimal (truncated SVD) compression of a dense block."""
    return LowRankFactor.from_dense(block, tol=tol, max_rank=max_rank)


# ----------------------------------------------------------------------
# Rook-pivoted cross approximation (HODLRlib's rookPiv analogue)
# ----------------------------------------------------------------------
#: Alternating row/column refinements of each rook pivot, shared by the
#: per-block and the lockstep compressor so the two pick the same pivots.
_ROOK_STEPS = 3


def rook_pivot_compress(
    entries: BlockEvaluator,
    m: int,
    n: int,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    max_rook_steps: int = _ROOK_STEPS,
    dtype=np.float64,
    first_row: Optional[np.ndarray] = None,
) -> LowRankFactor:
    """Adaptive cross approximation with rook pivoting.

    Builds ``B ~= sum_k u_k v_k*`` one cross at a time.  Each step picks a
    pivot by a rook search (alternate row/column argmax of the current
    residual, evaluated lazily), subtracts the cross, and stops when the
    estimated residual norm drops below ``tol`` times the estimated block
    norm.  Only ``O((m + n) r)`` entries of the block are ever evaluated,
    which is what makes HODLR construction from kernel functions cheap.

    Parameters
    ----------
    entries:
        Callable evaluating ``block[np.ix_(rows, cols)]``.
    m, n:
        Block dimensions.
    tol:
        Relative Frobenius-norm tolerance.
    max_rank:
        Upper bound on the constructed rank (defaults to ``min(m, n)``).
    max_rook_steps:
        Number of alternating row/column refinements of each pivot.
    first_row:
        Precomputed row 0 of the block (length ``n``); the search's first
        row then costs no entrywise call.
    """
    if m == 0 or n == 0:
        return LowRankFactor.zeros(m, n, dtype)
    rank_cap = min(m, n) if max_rank is None else min(max_rank, m, n)
    if rank_cap == 0:
        return LowRankFactor.zeros(m, n, dtype)

    # the crosses accumulate into growing 2-D factor arrays (capacity doubled
    # geometrically) so each residual evaluation is a single GEMV against the
    # accumulated bases instead of k separate rank-1 updates
    capacity = min(rank_cap, 8)
    U_arr = np.empty((m, capacity), dtype=dtype)
    V_arr = np.empty((n, capacity), dtype=dtype)
    k = 0
    used_rows: set = set()
    used_cols: set = set()
    # running estimate of ||B||_F^2 built from the crosses (standard ACA estimate)
    approx_norm2 = 0.0
    rng = np.random.default_rng(12345)

    def residual_row(i: int) -> np.ndarray:
        if i == 0 and k == 0 and first_row is not None:
            # the gathered level evaluation already produced this row
            return np.asarray(first_row, dtype=dtype).reshape(n)
        row = np.asarray(entries(np.array([i]), np.arange(n)), dtype=dtype).reshape(n)
        if k:
            row = row - V_arr[:, :k].conj() @ U_arr[i, :k]
        return row

    def residual_col(j: int) -> np.ndarray:
        col = np.asarray(entries(np.arange(m), np.array([j])), dtype=dtype).reshape(m)
        if k:
            col = col - U_arr[:, :k] @ V_arr[j, :k].conj()
        return col

    next_row = 0
    for _ in range(rank_cap):
        # --- rook pivot search -------------------------------------------------
        i = next_row
        # make sure we start from an unused row
        tries = 0
        while i in used_rows and tries < m:
            i = (i + 1) % m
            tries += 1
        row = residual_row(i)
        j = int(np.argmax(np.abs(row)))
        col = residual_col(j)
        for _ in range(max_rook_steps):
            i_new = int(np.argmax(np.abs(col)))
            if i_new == i:
                break
            i = i_new
            row = residual_row(i)
            j_new = int(np.argmax(np.abs(row)))
            if j_new == j:
                break
            j = j_new
            col = residual_col(j)

        pivot = row[j]
        if pivot == 0:
            # residual row is identically zero; try a random unused row before
            # concluding the block is (numerically) exhausted.
            candidates = [r for r in range(m) if r not in used_rows]
            if not candidates:
                break
            i = int(rng.choice(candidates))
            row = residual_row(i)
            j = int(np.argmax(np.abs(row)))
            pivot = row[j]
            if pivot == 0:
                break
            col = residual_col(j)

        u = (col / pivot).astype(dtype, copy=False)
        v = row.conj().astype(dtype, copy=False)

        # --- stopping criterion ------------------------------------------------
        cross_norm2 = float(np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2)
        # ||B_k||^2 ~= ||B_{k-1}||^2 + 2 Re <prev, new> + ||new||^2 ; we use the
        # standard cheap update that ignores cross terms beyond the latest pair,
        # with the inner products against all previous crosses as two GEMVs.
        cross_terms = 0.0
        if k:
            cu = U_arr[:, :k].conj().T @ u
            cv = V_arr[:, :k].conj().T @ v
            cross_terms = 2.0 * float(np.sum(np.abs(cu * cv)))

        if k == capacity:
            capacity = min(rank_cap, max(2 * capacity, 8))
            grown_u = np.empty((m, capacity), dtype=dtype)
            grown_v = np.empty((n, capacity), dtype=dtype)
            grown_u[:, :k] = U_arr[:, :k]
            grown_v[:, :k] = V_arr[:, :k]
            U_arr, V_arr = grown_u, grown_v
        U_arr[:, k] = u
        V_arr[:, k] = v
        k += 1
        used_rows.add(i)
        used_cols.add(j)
        next_row = (i + 1) % m

        approx_norm2 += cross_norm2 + cross_terms
        if approx_norm2 > 0 and cross_norm2 <= (tol ** 2) * approx_norm2:
            break

    if k == 0:
        return LowRankFactor.zeros(m, n, dtype)
    factor = LowRankFactor(U=U_arr[:, :k], V=V_arr[:, :k])
    # A final recompression both tightens the rank and orthogonalises the bases.
    return factor.recompress(tol=tol, max_rank=max_rank)


def rook_pivot_compress_dense(
    block: np.ndarray, tol: float = 1e-12, max_rank: Optional[int] = None
) -> LowRankFactor:
    """Rook-pivoted compression of an explicitly stored block."""
    block = np.asarray(block)

    def entries(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return block[np.ix_(rows, cols)]

    return rook_pivot_compress(
        entries, block.shape[0], block.shape[1], tol=tol, max_rank=max_rank, dtype=block.dtype
    )


#: Evaluates a stack of equal-shape sub-blocks: ``multi(rows (B, m), cols
#: (B, n)) -> (B, m, n)`` (the ``entries_blocks`` gather protocol).
StackEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def rook_pivot_compress_stack(
    multi: StackEvaluator,
    rows: np.ndarray,
    cols: np.ndarray,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    dtype=np.float64,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Rook-pivoted cross approximation of a stack of blocks in lockstep.

    Block ``b`` is ``A[rows[b]][:, cols[b]]`` of the operator behind the
    gather evaluator ``multi``; ``rows`` is ``(B, m)`` and ``cols`` is
    ``(B, n)``.  Every active block adds one cross per step, so a step
    evaluates the pivot rows of all active blocks in one ``multi`` call and
    their pivot columns in another; each rook refinement re-gathers only
    the blocks whose pivot is still moving.  Residual corrections and the
    stopping estimate's cross terms are batched matmuls against the stacked
    bases.  A block that meets the stop criterion is compacted out of the
    active set, and the stack ends with one QR+SVD recompression
    (``qr_batched`` x2, ``gemm_strided_batched``, ``svd_batched``) over the
    bases zero-padded to the largest rank.

    Pivot rule, stop rule, the zero-pivot fallback (a per-block
    ``default_rng(12345)``) and truncation are those of
    :func:`rook_pivot_compress`, so each factor matches the per-block
    compressor up to round-off.
    """
    xb = (context or DEFAULT_CONTEXT).backend
    rows = np.array(rows, dtype=np.intp, ndmin=2)
    cols = np.array(cols, dtype=np.intp, ndmin=2)
    nblocks, m = rows.shape
    n = cols.shape[1]
    rank_cap = min(m, n) if max_rank is None else min(max_rank, m, n)
    if nblocks == 0 or rank_cap <= 0:
        return [LowRankFactor.zeros(m, n, dtype) for _ in range(nblocks)]

    # rank-major bases of the active blocks, compacted into the leading
    # slots: Ust[a, k] is cross k's u and Wst[a, k] its residual pivot row
    # (V = conj(W)^T), so every residual product is a matmul over views
    cap = min(rank_cap, 8)
    Ust = np.empty((nblocks, cap, m), dtype=dtype)
    Wst = np.empty((nblocks, cap, n), dtype=dtype)
    block_of = np.arange(nblocks)
    used = np.zeros((nblocks, m), dtype=bool)
    next_row = np.zeros(nblocks, dtype=np.intp)
    approx_norm2 = np.zeros(nblocks)
    rngs: dict = {}
    done_U: List[Optional[np.ndarray]] = [None] * nblocks
    done_W: List[Optional[np.ndarray]] = [None] * nblocks
    ranks = np.zeros(nblocks, dtype=np.intp)
    active = nblocks
    k = 0

    def take(index, sel):
        # the whole active set is a view; a subset gathers its slots
        return index[:active] if sel.size == active else index[sel]

    def correct(out, coef, store, sel):
        # out[a] -= coef[a] @ store[sel[a], :k] over views where possible: a
        # small subset loops instead of gathering its bases into a copy
        if sel.size == active:
            out -= np.matmul(coef[:, None, :], store[:active, :k])[:, 0, :]
        elif sel.size <= 8:
            for a, s in enumerate(sel):
                out[a] -= coef[a] @ store[s, :k]
        else:
            out -= np.matmul(coef[:, None, :], store[sel, :k])[:, 0, :]

    def residual_rows(sel, i):
        # an owned copy: the evaluator's array may be cached or read-only
        out = np.array(multi(rows[sel, i][:, None], take(cols, sel)), dtype=dtype)
        out = out.reshape(sel.size, n)
        if k:
            correct(out, Ust[sel, :k, i], Wst, sel)
        return out

    def residual_cols(sel, j):
        out = np.array(multi(take(rows, sel), cols[sel, j][:, None]), dtype=dtype)
        out = out.reshape(sel.size, m)
        if k:
            correct(out, Wst[sel, :k, j], Ust, sel)
        return out

    while active:
        slots = np.arange(active)
        # --- rook pivot search, all active blocks at once ----------------
        i = next_row[:active].copy()
        taken = used[slots, i]
        for _ in range(m):
            if not taken.any():
                break
            i[taken] = (i[taken] + 1) % m
            taken = used[slots, i]
        row = residual_rows(slots, i)
        j = np.argmax(np.abs(row), axis=1)
        col = residual_cols(slots, j)
        moving = slots
        for _ in range(_ROOK_STEPS):
            i_new = np.argmax(np.abs(col[moving]), axis=1)
            keep = i_new != i[moving]
            moving, i_new = moving[keep], i_new[keep]
            if not moving.size:
                break
            i[moving] = i_new
            row[moving] = residual_rows(moving, i_new)
            j_new = np.argmax(np.abs(row[moving]), axis=1)
            keep = j_new != j[moving]
            moving, j_new = moving[keep], j_new[keep]
            if not moving.size:
                break
            j[moving] = j_new
            col[moving] = residual_cols(moving, j_new)

        pivot = row[slots, j]
        exhausted = np.zeros(active, dtype=bool)
        zero = np.flatnonzero(pivot == 0)
        if zero.size:
            # residual row is identically zero: retry from a random unused
            # row before concluding the block is (numerically) exhausted
            retry = []
            for s in zero:
                candidates = np.flatnonzero(~used[s])
                if not candidates.size:
                    exhausted[s] = True
                    continue
                b = int(block_of[s])
                rng = rngs.setdefault(b, np.random.default_rng(12345))
                i[s] = int(rng.choice(candidates))
                retry.append(s)
            if retry:
                retry = np.array(retry)
                row[retry] = residual_rows(retry, i[retry])
                j[retry] = np.argmax(np.abs(row[retry]), axis=1)
                pivot[retry] = row[retry, j[retry]]
                dead = retry[pivot[retry] == 0]
                exhausted[dead] = True
                live = retry[pivot[retry] != 0]
                if live.size:
                    col[live] = residual_cols(live, j[live])
            pivot[exhausted] = 1

        u = col / pivot[:, None]
        # --- stopping criterion (cross terms against the previous crosses)
        cross_norm2 = np.linalg.norm(u, axis=1) ** 2 * np.linalg.norm(row, axis=1) ** 2
        cross_terms = 0.0
        if k:
            cu = np.matmul(Ust[:active, :k], u.conj()[:, :, None])[:, :, 0]
            cv = np.matmul(Wst[:active, :k], row.conj()[:, :, None])[:, :, 0]
            cross_terms = 2.0 * np.sum(np.abs(cu * cv), axis=1)

        if k == cap:
            cap = min(rank_cap, 2 * cap)
            grown_u = np.empty((active, cap, m), dtype=dtype)
            grown_w = np.empty((active, cap, n), dtype=dtype)
            grown_u[:, :k] = Ust[:active, :k]
            grown_w[:, :k] = Wst[:active, :k]
            Ust, Wst = grown_u, grown_w
        Ust[:active, k] = u
        Wst[:active, k] = row
        k += 1
        used[slots, i] = True
        next_row[:active] = (i + 1) % m
        approx_norm2[:active] += cross_norm2 + cross_terms
        norm2 = approx_norm2[:active]
        stop = exhausted | ((norm2 > 0) & (cross_norm2 <= (tol ** 2) * norm2))
        if k == rank_cap:
            stop[:] = True
        if not stop.any():
            continue

        # --- retire stopped blocks, compact the survivors ----------------
        for s in np.flatnonzero(stop):
            b = int(block_of[s])
            r = k - 1 if exhausted[s] else k
            ranks[b] = r
            done_U[b] = Ust[s, :r].copy()
            done_W[b] = Wst[s, :r].copy()
        keep = np.flatnonzero(~stop)
        for store in (Ust, Wst):
            store[: keep.size, :k] = store[keep, :k]
        for index in (rows, cols, used, next_row, approx_norm2, block_of):
            index[: keep.size] = index[keep]
        active = keep.size

    # one QR+SVD recompression over the bases zero-padded to the largest
    # rank: the padding adds an exactly zero trailing block to each R factor,
    # so it contributes only zero singular values
    kmax = int(ranks.max())
    if kmax == 0:
        return [LowRankFactor.zeros(m, n, dtype) for _ in range(nblocks)]
    Up = np.zeros((nblocks, kmax, m), dtype=dtype)
    Wp = np.zeros((nblocks, kmax, n), dtype=dtype)
    for b in range(nblocks):
        Up[b, : ranks[b]] = done_U[b]
        Wp[b, : ranks[b]] = done_W[b]
    return _recompress_bases(
        xb.asarray(Up.transpose(0, 2, 1)),
        xb.asarray(Wp.conj().transpose(0, 2, 1)),
        tol, max_rank, xb, caps=ranks,
    )


class _DenseStackEvaluator:
    """Gather evaluator over a stored ``(B, m, n)`` stack.

    Block ``b`` is addressed by the row indices ``b*m .. b*m+m-1`` and the
    column indices ``b*n .. b*n+n-1``, so the stack looks like the diagonal
    of one block matrix to :func:`rook_pivot_compress_stack`.
    """

    def __init__(self, stack: np.ndarray) -> None:
        self.stack = stack
        _, self.m, self.n = stack.shape

    def __call__(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.stack[
            (rows // self.m)[:, :, None], (rows % self.m)[:, :, None], (cols % self.n)[:, None, :]
        ]


def _rook_stack(
    stack: np.ndarray, tol: float, max_rank: Optional[int], context: ExecutionContext
) -> List[LowRankFactor]:
    """Lockstep rook over a dense ``(B, m, n)`` stack."""
    stack = np.asarray(stack)
    nblocks, m, n = stack.shape
    offsets = np.arange(nblocks)[:, None]
    return rook_pivot_compress_stack(
        _DenseStackEvaluator(stack),
        offsets * m + np.arange(m),
        offsets * n + np.arange(n),
        tol=tol, max_rank=max_rank, dtype=stack.dtype, context=context,
    )


# ----------------------------------------------------------------------
# Randomized range finder
# ----------------------------------------------------------------------
def randomized_compress(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    m: int,
    n: int,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    oversampling: int = 10,
    rng: Optional[np.random.Generator] = None,
    block_size: int = 16,
    dtype=np.float64,
) -> LowRankFactor:
    """Adaptive randomized low-rank approximation from matvec access.

    Uses blocked adaptive range finding (Halko–Martinsson–Tropp): draw
    Gaussian test matrices in blocks, orthogonalise the sampled range, and
    stop when the norm of the newest block of samples (a stochastic estimate
    of the residual spectral norm) falls below ``tol`` times the largest
    observed sample norm.  The final factor is obtained from the small
    projected matrix ``Q* B`` via an SVD.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    rank_cap = min(m, n) if max_rank is None else min(max_rank + oversampling, m, n)
    if rank_cap == 0 or m == 0 or n == 0:
        return LowRankFactor.zeros(m, n, dtype)

    Q = np.zeros((m, 0), dtype=dtype)
    first_block_norm = None
    while Q.shape[1] < rank_cap:
        nb = min(block_size, rank_cap - Q.shape[1])
        Omega = rng.standard_normal((n, nb))
        if np.issubdtype(np.dtype(dtype), np.complexfloating):
            Omega = Omega + 1j * rng.standard_normal((n, nb))
        # cast after combining the parts: a complex64 block keeps complex64
        Y = np.asarray(matvec(Omega.astype(dtype, copy=False)))
        if Q.shape[1] > 0:
            Y = Y - Q @ (Q.conj().T @ Y)
        block_norm = float(np.linalg.norm(Y))
        if first_block_norm is None:
            first_block_norm = max(block_norm, np.finfo(float).tiny)
        elif block_norm <= tol * first_block_norm:
            # the residual range is exhausted; appending these (numerically
            # meaningless) directions would destroy Q's orthonormality.
            break
        if Q.shape[1] > 0:
            # second projection pass for numerical orthogonality
            Y = Y - Q @ (Q.conj().T @ Y)
        Qb, _ = np.linalg.qr(Y)
        if Q.shape[1] > 0:
            # re-orthogonalise the panel itself: when the sampled residual is
            # at the round-off floor, qr(Y) returns directions with O(eps /
            # ||Y||) components inside span(Q); appending them un-projected
            # destroys Q's orthonormality and with it the final projection
            Qb = Qb - Q @ (Q.conj().T @ Qb)
            Qb, _ = np.linalg.qr(Qb)
        Q = np.hstack([Q, Qb])
        if block_norm <= tol * first_block_norm:
            break

    # project: B* Q has shape (n, q); SVD of the small matrix gives the factor.
    Bt_Q = np.asarray(rmatvec(Q))  # = B^* Q, shape (n, q)
    W, s, Zh = sla.svd(Bt_Q.conj().T, full_matrices=False, check_finite=False)  # Q^T B = W s Zh
    keep = _truncation_count(s, tol, max_rank)
    U = Q @ (W[:, :keep] * s[:keep])
    V = Zh[:keep, :].conj().T
    return LowRankFactor(U=U, V=V)


def randomized_compress_dense(
    block: np.ndarray,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> LowRankFactor:
    """Randomized compression of an explicitly stored block."""
    block = np.asarray(block)
    return randomized_compress(
        matvec=lambda X: block @ X,
        rmatvec=lambda X: block.conj().T @ X,
        m=block.shape[0],
        n=block.shape[1],
        tol=tol,
        max_rank=max_rank,
        rng=rng,
        dtype=block.dtype,
    )


# ----------------------------------------------------------------------
# batched (level-parallel) compression
# ----------------------------------------------------------------------
def _svd_stack(
    stack: np.ndarray, tol: float, max_rank: Optional[int], xb: ArrayBackend
) -> List[LowRankFactor]:
    """Truncated-SVD compression of one uniform ``(batch, m, n)`` stack."""
    U3, s3, Vh3 = svd_batched(stack, backend=xb)
    out = []
    for j in range(stack.shape[0]):
        keep = _truncation_count(s3[j], tol, max_rank)
        out.append(
            LowRankFactor(U=U3[j][:, :keep] * s3[j][:keep], V=Vh3[j][:keep, :].conj().T)
        )
    return out


def _project_out(B, Y, xb: ArrayBackend):
    """Project ``Y`` off the orthonormal columns ``B`` in two passes.

    Returns the remainder and the coefficients ``C`` with ``Y = B C +
    remainder``; the second pass restores the orthogonality the first
    loses to round-off.
    """
    C = gemm_strided_batched(B, Y, conjugate_a=True, backend=xb)
    Y = Y - gemm_strided_batched(B, C, backend=xb)
    C2 = gemm_strided_batched(B, Y, conjugate_a=True, backend=xb)
    return Y - gemm_strided_batched(B, C2, backend=xb), C + C2


def _randomized_stack(
    stack: np.ndarray,
    tol: float,
    max_rank: Optional[int],
    oversampling: int,
    rng: np.random.Generator,
    xb: ArrayBackend,
) -> List[LowRankFactor]:
    """Randomized compression of one uniform stack with shared test matrices.

    An incremental range finder over the whole stack: every round draws one
    Gaussian test matrix for all pending blocks, so sampling, orthogonalising
    and projecting each execute as strided batched kernels
    (``gemmStridedBatched`` + ``geqrfBatched`` + ``gesvdjBatched`` in
    cuBLAS/cuSOLVER terms).

    The sample count starts at ``max_rank + oversampling`` when a rank cap
    is given (the paper's fixed-rank regime) and at a small default
    otherwise.  A block is resolved once its truncation keeps fewer than the
    sampled directions, the samples span ``min(m, n)``, or the rank cap is
    reached.  Unresolved blocks — adaptive-rank stragglers, one or many —
    stay in the loop, which doubles their sample count while keeping every
    sample drawn: a round samples only the new columns, appends their part
    outside the kept basis ``Q`` to it, and extends the projection ``Q* A``
    kept in factored form ``L Z`` (``L`` square, ``Z`` with orthonormal
    rows) by the new rows.  The resolution test is then an SVD of the small
    ``L``.  A single round is one gemm, QR, gemm and SVD per stack.
    """
    nbatch, m, n = stack.shape
    minmn = min(m, n)
    results: List[Optional[LowRankFactor]] = [None] * nbatch
    if minmn == 0:
        return [LowRankFactor.zeros(m, n, stack.dtype) for _ in range(nbatch)]
    dtype = stack.dtype
    cplx = np.issubdtype(dtype, np.complexfloating)
    if max_rank is not None:
        nsamples = min(minmn, max_rank + oversampling)
    else:
        nsamples = min(minmn, max(16, oversampling + 8))

    def sample(sub, count):
        omega = rng.standard_normal((n, count))
        if cplx:
            omega = omega + 1j * rng.standard_normal((n, count))
        # the Gaussian test matrix is drawn on the host (reproducible rng)
        # and moved to the backend once per round
        omega = xb.from_host(omega.astype(dtype, copy=False))
        return gemm_strided_batched(
            sub, xb.broadcast_to(omega, (sub.shape[0], n, count)), backend=xb
        )

    # round 1 covers the whole stack without a gather copy: Q* A = W s Vh
    pending = np.arange(nbatch)
    sub = stack
    Q, _ = qr_batched(sample(sub, nsamples), backend=xb)
    G = gemm_strided_batched(Q, sub, conjugate_a=True, backend=xb)
    W3, s3, Vh3 = svd_batched(G, backend=xb)
    Zt = Vh_L = L = None
    while True:
        stragglers = []
        for j, p in enumerate(pending):
            s = s3[j]
            keep = _truncation_count(s, tol, max_rank)
            resolved = (
                keep < s.size
                or nsamples >= minmn
                or (max_rank is not None and keep >= max_rank)
            )
            if not resolved:
                stragglers.append(j)
                continue
            if Zt is None:
                V = Vh3[j][:keep, :].conj().T
            else:
                V = Zt[j] @ Vh_L[j][:keep, :].conj().T
            results[p] = LowRankFactor(U=Q[j] @ (W3[j][:, :keep] * s[:keep]), V=V)
        if not stragglers:
            break
        if Zt is None:
            # seed the factored projection Q* A = L Z from round 1's SVD;
            # Z is kept as its conjugate transpose Zt (orthonormal columns)
            L = W3 * s3[:, None, :]
            Zt = Vh3.conj().transpose(0, 2, 1)
        if len(stragglers) < pending.size:
            left = np.array(stragglers)
            pending = pending[left]
            Q, L, Zt = Q[left], L[left], Zt[left]
            sub = stack[pending]
        inc = min(minmn, 2 * nsamples) - nsamples
        # only the new samples are drawn; their part outside span(Q) extends
        # Q by randomized_compress's recipe (project twice, QR, re-project,
        # QR), since samples at the round-off floor leave qr's panel with
        # components inside span(Q)
        Y, _ = _project_out(Q, sample(sub, inc), xb)
        Qb, _ = qr_batched(Y, backend=xb)
        Qb = Qb - gemm_strided_batched(
            Q, gemm_strided_batched(Q, Qb, conjugate_a=True, backend=xb), backend=xb
        )
        Qb, _ = qr_batched(Qb, backend=xb)
        Q = xb.concat([Q, Qb], axis=2)
        # the new rows Gb = Qb* A of the projection: Gb* = Zt C + Zb T, so
        # L gains the rows [C* | T*] and Z the rows Zb*
        Gb = gemm_strided_batched(Qb, sub, conjugate_a=True, backend=xb)
        R, C = _project_out(Zt, Gb.conj().transpose(0, 2, 1), xb)
        Zb, T = qr_batched(R, backend=xb)
        Zt = xb.concat([Zt, Zb], axis=2)
        L = xb.concat(
            [
                xb.concat([L, xb.zeros((pending.size, nsamples, inc), dtype=dtype)], axis=2),
                xb.concat([C.conj().transpose(0, 2, 1), T.conj().transpose(0, 2, 1)], axis=2),
            ],
            axis=1,
        )
        nsamples += inc
        W3, s3, Vh_L = svd_batched(L, backend=xb)
    return results  # type: ignore[return-value]


def compress_block_stack(
    stack: np.ndarray,
    config: CompressionConfig,
    rng: Optional[np.random.Generator] = None,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Compress a uniform ``(batch, m, n)`` stack of dense blocks per ``config``.

    The zero-copy entry point of the level-major builder: a gathered level
    stack goes straight into the batched kernels without per-block
    unpacking.  ``rook`` runs :func:`rook_pivot_compress_stack` over the
    stack, every block advancing its crosses in lockstep.  ``randomized``
    runs one incremental range finder over the stack: shared test
    matrices, and rounds that add samples only for the unresolved blocks
    while keeping every sample drawn so far (see :func:`_randomized_stack`).
    A context with :data:`~repro.backends.dispatch.LOOP_POLICY`
    (``bucketing=False``) compresses the slices one at a time.  A
    device-resident context keeps the stack and factors there.
    """
    ctx = context or DEFAULT_CONTEXT
    pol, xb = ctx.policy, ctx.backend
    stack = xb.asarray(stack)
    if stack.ndim != 3:
        raise ValueError("compress_block_stack expects a (batch, m, n) stack")
    if config.method == "rook":
        if not pol.bucketing:
            return [
                rook_pivot_compress_dense(stack[i], tol=config.tol, max_rank=config.max_rank)
                for i in range(stack.shape[0])
            ]
        return _rook_stack(stack, config.tol, config.max_rank, ctx)
    if config.method == "randomized":
        rng = rng if rng is not None else config.generator()
        if not pol.bucketing:
            return [
                randomized_compress_dense(
                    stack[i], tol=config.tol, max_rank=config.max_rank, rng=rng
                )
                for i in range(stack.shape[0])
            ]
        return _randomized_stack(
            stack, config.tol, config.max_rank, config.oversampling, rng, xb
        )
    if config.method == "svd":
        if not pol.bucketing:
            return [
                svd_compress(stack[i], tol=config.tol, max_rank=config.max_rank)
                for i in range(stack.shape[0])
            ]
        return _svd_stack(stack, config.tol, config.max_rank, xb)
    raise ValueError(f"unknown compression method {config.method!r}")


def recompress_stack(
    factors: Sequence[LowRankFactor],
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Batched QR+SVD recompression of many :class:`LowRankFactor` objects.

    The factored-form companion of :func:`compress_block_stack`: factors
    sharing a ``(m, n, rank)`` signature are packed into strided 3-D stacks
    and re-orthogonalised with one ``qr_batched`` launch per side, one
    strided gemm for the small cores, and one ``svd_batched`` for the
    truncation — the per-block :meth:`LowRankFactor.recompress` loop becomes
    O(shape buckets) kernel launches.  Truncation counts are applied per
    block (ranks may differ after truncation).  This is the path the
    streaming update/downdate engine sends its dirty concatenated factors
    through.  A context with ``policy.bucketing=False`` reproduces the
    per-block loop.
    """
    ctx = context or DEFAULT_CONTEXT
    pol, xb = ctx.policy, ctx.backend
    if not factors:
        return []
    if not pol.bucketing:
        return [f.recompress(tol=tol, max_rank=max_rank) for f in factors]
    results: List[Optional[LowRankFactor]] = [None] * len(factors)
    keys = []
    for f in factors:
        m, n = f.shape
        keys.append((m, n, f.rank))
    for bucket in plan_batch(keys).buckets:
        idx = bucket.indices
        m, n, r = bucket.key
        if r == 0 or min(m, n) == 0:
            for i in idx:
                f = factors[i]
                results[i] = LowRankFactor.zeros(f.shape[0], f.shape[1], f.dtype)
            continue
        if len(idx) == 1 or r == 1:
            # a lone factor (or rank-1, where QR is trivial) gains nothing
            # from the strided path
            for i in idx:
                results[i] = factors[i].recompress(tol=tol, max_rank=max_rank)
            continue
        U3 = xb.stack([xb.asarray(factors[i].U) for i in idx])
        V3 = xb.stack([xb.asarray(factors[i].V) for i in idx])
        for i, f in zip(idx, _recompress_bases(U3, V3, tol, max_rank, xb)):
            results[i] = f
    return results  # type: ignore[return-value]


def _recompress_bases(
    U3, V3, tol: float, max_rank: Optional[int], xb: ArrayBackend, caps=None
) -> List[LowRankFactor]:
    """QR+SVD recompression of the stacked factors ``U3[j] @ V3[j]^H``.

    ``U3`` is ``(B, m, r)`` and ``V3`` is ``(B, n, r)``: one ``qr_batched``
    launch per side, one strided gemm for the small cores and one
    ``svd_batched``.  Truncation is per block, at most ``caps[j]`` when
    given.
    """
    Qu3, Ru3 = qr_batched(U3, backend=xb)
    Qv3, Rv3 = qr_batched(V3, backend=xb)
    core3 = gemm_strided_batched(Ru3, xb.asarray(Rv3).conj().transpose(0, 2, 1), backend=xb)
    Uc3, s3, Vch3 = svd_batched(core3, backend=xb)
    out = []
    for j in range(U3.shape[0]):
        keep = _truncation_count(s3[j], tol, max_rank)
        if caps is not None:
            keep = min(keep, int(caps[j]))
        out.append(
            LowRankFactor(
                U=Qu3[j] @ (Uc3[j][:, :keep] * s3[j][:keep]),
                V=Qv3[j] @ Vch3[j][:keep, :].conj().T,
            )
        )
    return out


def recompress_bordered(
    dense: np.ndarray,
    compact: np.ndarray,
    ins: np.ndarray,
    size: int,
    dense_is_row_side: bool,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> LowRankFactor:
    """Recompress a bordered factor whose *other* side is an identity border.

    A localised insert borders a dirty block ``U V^H`` on one side with
    dense new entries and on the other side with identity rows landing at
    the inserted positions ``ins``: that side's full factor is
    ``[scatter(compact) | e_ins]`` where ``scatter`` zero-fills the ``ins``
    rows.  Because the identity border's rows are disjoint from the
    surviving support, its columns are already orthonormal *and* orthogonal
    to the scattered old basis — the structured side's QR is
    ``Q = [scatter(Q_c) | e_ins]``, ``R = blockdiag(R_c, I)`` with
    ``Q_c R_c = qr(compact)``.  Only the compact ``(size-k, r0)`` old basis
    needs orthogonalising instead of the generic ``(size, r0+k)`` factor;
    the dense side pays the full QR it needs anyway.  Mathematically
    identical to :meth:`LowRankFactor.recompress` on the assembled factor.

    ``dense_is_row_side=True`` means ``dense`` is the row-space (``U``)
    factor of the block and the structured side is the column space;
    ``False`` is the mirror image.
    """
    ctx = context or DEFAULT_CONTEXT
    xb = ctx.backend
    k = int(len(ins))
    r0 = compact.shape[1]
    dtype = dense.dtype
    Qd3, Rd3 = qr_batched(xb.asarray(dense)[None], backend=xb)
    Qd, Rd = Qd3[0], Rd3[0]
    if r0:
        Qc3, Rc3 = qr_batched(xb.asarray(compact)[None], backend=xb)
        Qc, Rc = Qc3[0], Rc3[0]
    else:
        Qc = xb.zeros((size - k, 0), dtype=dtype)
        Rc = xb.zeros((0, 0), dtype=dtype)
    if dense_is_row_side:
        # core = R_dense @ blockdiag(R_c, I)^H
        core = np.concatenate([Rd[:, :r0] @ Rc.conj().T, Rd[:, r0:]], axis=1)
    else:
        # core = blockdiag(R_c, I) @ R_dense^H
        core = np.concatenate(
            [Rc @ Rd[:, :r0].conj().T, Rd[:, r0:].conj().T], axis=0
        )
    Uc3, s3, Vch3 = svd_batched(core[None], backend=xb)
    Uc, s, Vch = Uc3[0], s3[0], Vch3[0]
    keep = _truncation_count(s, tol, max_rank)
    surv = np.ones(size, dtype=bool)
    surv[ins] = False
    if dense_is_row_side:
        Vst = Vch[:keep, :].conj().T
        V_new = xb.zeros((size, keep), dtype=dtype)
        V_new[surv] = Qc @ Vst[:r0]
        V_new[ins] = Vst[r0:]
        return LowRankFactor(U=Qd @ (Uc[:, :keep] * s[:keep]), V=V_new)
    Ust = Uc[:, :keep] * s[:keep]
    U_new = xb.zeros((size, keep), dtype=dtype)
    U_new[surv] = Qc @ Ust[:r0]
    U_new[ins] = Ust[r0:]
    return LowRankFactor(U=U_new, V=Qd @ Vch[:keep, :].conj().T)


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------
def compress_block(
    entries: BlockEvaluator,
    m: int,
    n: int,
    config: CompressionConfig,
    dtype=np.float64,
) -> LowRankFactor:
    """Compress the block defined by ``entries`` according to ``config``."""
    if config.method == "svd":
        block = np.asarray(entries(np.arange(m), np.arange(n)), dtype=dtype)
        return svd_compress(block, tol=config.tol, max_rank=config.max_rank)
    if config.method == "rook":
        return rook_pivot_compress(
            entries, m, n, tol=config.tol, max_rank=config.max_rank, dtype=dtype
        )
    if config.method == "randomized":
        # randomized needs matvecs; realise them through entry evaluation on
        # full index ranges (columns are gathered lazily in blocks).
        rows = np.arange(m)
        cols = np.arange(n)

        def matvec(X: np.ndarray) -> np.ndarray:
            return np.asarray(entries(rows, cols), dtype=dtype) @ X

        def rmatvec(X: np.ndarray) -> np.ndarray:
            return np.asarray(entries(rows, cols), dtype=dtype).conj().T @ X

        return randomized_compress(
            matvec,
            rmatvec,
            m,
            n,
            tol=config.tol,
            max_rank=config.max_rank,
            oversampling=config.oversampling,
            rng=config.generator(),
            dtype=dtype,
        )
    raise ValueError(f"unknown compression method {config.method!r}")
