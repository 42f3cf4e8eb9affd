"""Low-rank compression kernels for off-diagonal HODLR blocks.

The paper constructs HODLR approximations on the CPU before copying them to
the GPU, using

* HODLRlib's ``LowRank::rookPiv()`` — an approximate partial-pivoted LU
  ("rook pivoting" / ACA-style cross approximation) — for kernel matrices
  (section IV-A), and
* the proxy-surface technique for BIE matrices (sections IV-B/IV-C; the
  proxy machinery lives in :mod:`repro.bie.proxy` because it needs
  geometry; it reads the same config).

This module holds the one :class:`CompressionConfig` of the library — the
frozen, validated options every construction path reads (``build_hodlr``,
``build_hodlr_proxy``, ``KernelMatrix.to_hodlr`` and the facade's
``SolverConfig``) — and its :class:`ConfigError`, plus two
interchangeable dense-block compressors and a dispatcher:

* :func:`svd_compress`         — exact truncated SVD (reference / testing);
* :func:`rook_pivot_compress`  — adaptive cross approximation (rook pivot
  searches, then blocked steps), requiring only entry evaluation.

A source with matvec access only is built by randomized peeling instead
(:func:`repro.core.peeling.peel_hodlr`, ``construction="peeling"``).

Each compressor has a batched form that compresses a whole shape bucket
of a tree level at once.  For rook that is
:func:`rook_pivot_compress_stack`, which the per-block compressor calls
with one block: the blocks advance in lockstep, one cross per step for the
first eight, then up to 16 per step, each step a few gathered
``entries_blocks`` evaluations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..backends.batched import cholesky_batched, gemm_strided_batched, qr_batched, svd_batched
from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.dispatch import ArrayBackend, plan_batch
from .low_rank import LowRankFactor, _truncation_count

#: Evaluates a sub-block of the operator: ``entries(rows, cols) -> ndarray``.
BlockEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


#: compression methods; ``"proxy"`` needs a BIE operator and is built by
#: :func:`repro.bie.proxy.build_hodlr_proxy`, every other method by
#: :func:`repro.core.build_hodlr`
COMPRESSION_METHODS = ("svd", "rook", "proxy")

#: HODLR construction schedules: level-major batched, or matvec-only
#: randomized peeling (no entry evaluation — see
#: :func:`repro.core.peeling.peel_hodlr`).  The per-block baseline is the
#: batched schedule under ``ExecutionContext(policy=LOOP_POLICY)``.
CONSTRUCTION_MODES = ("batched", "peeling")


class ConfigError(ValueError):
    """Raised when a configuration value fails validation."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CompressionConfig:
    """Immutable options for building the HODLR approximation.

    One object serves every layer: :func:`repro.core.build_hodlr`,
    :func:`repro.bie.proxy.build_hodlr_proxy`,
    :meth:`repro.kernels.KernelMatrix.to_hodlr` and the
    :class:`~repro.api.config.SolverConfig` of the facade.  It validates on
    construction, is hashable (an :class:`~repro.api.cache.OperatorCache`
    key), and round-trips through ``to_dict``/``from_dict``.

    Parameters
    ----------
    tol:
        Relative tolerance of the low-rank approximation (the paper uses
        ~1e-12/1e-8 for the direct solvers and ~1e-4 for preconditioners).
    method:
        ``"rook"`` (default), ``"svd"``, or ``"proxy"`` (the latter only
        for operators implementing the proxy-surface protocol, built by
        :func:`repro.bie.proxy.build_hodlr_proxy`).
    max_rank:
        Hard cap on off-diagonal ranks (``None`` = uncapped).
    leaf_size:
        Cluster-tree leaf size.
    oversampling:
        Extra probes per block of the ``"peeling"`` construction.
    n_proxy:
        Points per proxy circle (``method="proxy"`` only).
    construction:
        ``"batched"`` (default) builds the HODLR approximation level-major
        through the shape-bucketed batched kernels (one gathered entry
        evaluation and one batched compression per tree level; ``"rook"``
        advances all blocks of a level in lockstep, a few gathered
        evaluations per step — :func:`rook_pivot_compress_stack`);
        ``"peeling"`` builds from matvec probes alone.  The per-block
        baseline the benchmarks measure against is ``"batched"`` under an
        ``ExecutionContext(policy=LOOP_POLICY)``.
    seed:
        Seed of the random probes of the ``"peeling"`` construction;
        :meth:`generator` draws a fresh stream from it.
    """

    tol: float = 1e-10
    method: str = "rook"
    max_rank: Optional[int] = None
    leaf_size: int = 64
    oversampling: int = 10
    n_proxy: int = 64
    construction: str = "batched"
    seed: int = 0

    def __post_init__(self) -> None:
        _check(
            isinstance(self.tol, (int, float)) and 0.0 < float(self.tol) < 1.0,
            f"tol must be in (0, 1), got {self.tol!r}",
        )
        _check(
            self.method != "randomized",
            "method='randomized' (dense-block randomized compression) is "
            "retired: use method='rook', or construction='peeling' for a "
            "matvec-only source",
        )
        _check(
            self.method in COMPRESSION_METHODS,
            f"method must be one of {COMPRESSION_METHODS}, got {self.method!r}",
        )
        _check(
            self.max_rank is None or (isinstance(self.max_rank, int) and self.max_rank >= 1),
            f"max_rank must be None or a positive int, got {self.max_rank!r}",
        )
        _check(
            isinstance(self.leaf_size, int) and self.leaf_size >= 2,
            f"leaf_size must be an int >= 2, got {self.leaf_size!r}",
        )
        _check(
            isinstance(self.oversampling, int) and self.oversampling >= 0,
            f"oversampling must be a non-negative int, got {self.oversampling!r}",
        )
        _check(
            isinstance(self.n_proxy, int) and self.n_proxy >= 4,
            f"n_proxy must be an int >= 4, got {self.n_proxy!r}",
        )
        _check(
            self.construction in CONSTRUCTION_MODES,
            f"construction must be one of {CONSTRUCTION_MODES}, got {self.construction!r}",
        )
        _check(
            isinstance(self.seed, int) and self.seed >= 0,
            f"seed must be a non-negative int, got {self.seed!r}",
        )

    def generator(self) -> np.random.Generator:
        """A fresh ``default_rng(seed)`` stream (a new one on every call)."""
        return np.random.default_rng(self.seed)

    def replace(self, **changes: Any) -> "CompressionConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompressionConfig":
        """Rebuild from :meth:`to_dict` output (unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        _check(not unknown, f"unknown CompressionConfig keys: {unknown}")
        return cls(**dict(data))


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
#: Alternating row/column refinements of each single-cross rook pivot.
_ROOK_STEPS = 3
#: Single-cross rook steps before the blocks still active switch to blocked
#: steps; a block whose rank is below this retires within them.
_ROOK_PHASE = 8
#: Most crosses one blocked step adds: a block at ``k`` crosses adds
#: ``min(k, _BLOCK)``, so the step size doubles from ``_ROOK_PHASE``.
_BLOCK = 16
#: Rows and columns of the residual grid sampled before a block retires
#: from a blocked step.
_SAMPLES = 16
#: Safety margin of the stop rules: a block retires once its residual looks
#: smaller than ``_MARGIN * tol * sigma_1`` (sigma_1 estimated by its largest
#: rook-phase cross), so the crosses reach every direction the truncation at
#: ``tol * sigma_1`` keeps.
_MARGIN = 0.1
#: A retiring block rewrites the crosses of its last two blocked steps as
#: the SVD of their sum and drops the directions below ``_TRIM * tol *
#: sigma_1`` before the recompression, so the dropped part, the truncation
#: and the residual together stay below about ``(_TRIM + 1 + _MARGIN) * tol
#: * sigma_1``.
_TRIM = 0.5


def rook_pivot_compress(
    entries: BlockEvaluator,
    m: int,
    n: int,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    dtype=np.float64,
    first_row: Optional[np.ndarray] = None,
) -> LowRankFactor:
    """Cross approximation of one block from ``O((m + n) r)`` of its entries.

    A one-block :func:`rook_pivot_compress_stack` call, so the per-block
    and the lockstep builds run one algorithm.  ``entries(rows, cols)``
    evaluates ``block[np.ix_(rows, cols)]``.  ``tol`` is relative to the
    block's largest singular value, as in every compressor: the crosses run
    until the residual is below ``_MARGIN * tol`` times an estimate of it,
    and the recompression truncates at ``tol`` times it.  ``max_rank`` caps
    the rank (default ``min(m, n)``).  ``first_row``, a precomputed row 0
    of the block (length ``n``), replaces the search's first gather, which
    reads row 0.
    """
    pending = [first_row]

    def multi(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        if pending[0] is not None:
            row, pending[0] = pending[0], None
            return np.reshape(row, (1, 1, n))
        return np.asarray(entries(r[0], c[0]))[None]

    return rook_pivot_compress_stack(
        multi, np.arange(m)[None], np.arange(n)[None], tol=tol, max_rank=max_rank, dtype=dtype
    )[0]


def rook_pivot_compress_dense(
    block: np.ndarray, tol: float = 1e-12, max_rank: Optional[int] = None
) -> LowRankFactor:
    """Rook-pivoted compression of an explicitly stored block."""
    return _rook_stack(np.asarray(block)[None], tol, max_rank, DEFAULT_CONTEXT)[0]


#: Evaluates a stack of equal-shape sub-blocks: ``multi(rows (B, m), cols
#: (B, n)) -> (B, m, n)`` (the ``entries_blocks`` gather protocol).
StackEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _pivots(X: np.ndarray, count: int, exclude=None) -> np.ndarray:
    """The first ``count`` column pivots of a QR with column pivoting of
    every ``X[a]`` (``X`` is ``(B, p, q)``).  Columns flagged in ``exclude``
    (``(B, q)``) come last, also past the ``p`` pivots the QR ranks.

    Greedy column-norm pivoted Gram-Schmidt over the whole stack at once
    (``geqp3``'s pivots, barring ties): each step picks every block's
    column of largest residual norm, orthogonalises it against the basis
    ``Q`` of the columns picked so far through their coefficients ``Q* X``,
    and downdates the norms by the new row of coefficients."""
    X = np.ascontiguousarray(X)
    B, p, q = X.shape
    cplx = np.iscomplexobj(X)

    def sq(z):
        return z.real ** 2 + z.imag ** 2 if cplx else z * z

    slots = np.arange(B)
    norms = np.sum(sq(X), axis=1)
    if exclude is not None:
        norms[exclude] = -1.0
    Q = np.zeros((B, p, count), dtype=np.result_type(X, np.float64))
    coef = np.zeros((B, count, q), dtype=Q.dtype)
    picks = np.empty((B, count), dtype=np.intp)
    for t in range(count):
        j = np.argmax(norms, axis=1)
        picks[:, t] = j
        x = X[slots, :, j] - np.matmul(Q[:, :, :t], coef[slots, :t, j][:, :, None])[:, :, 0]
        size = np.sqrt(np.sum(sq(x), axis=1))
        x /= np.where(size > 0, size, 1.0)[:, None]
        Q[:, :, t] = x
        coef[:, t] = np.matmul((x.conj() if cplx else x)[:, None, :], X)[:, 0]
        norms = np.where(norms >= 0, np.maximum(norms - sq(coef[:, t]), 0.0), norms)
        norms[slots, j] = -np.inf
    return picks


def _trim_tail(
    Ust, Wst, k0: int, k: int, slots: np.ndarray, floor: np.ndarray, xb: ArrayBackend
) -> np.ndarray:
    """Rewrite the crosses ``k0 .. k`` of the blocks in ``slots`` as the SVD
    of their sum and keep the directions above ``floor`` (per slot): the
    dropped part's norm is below ``floor``.  Returns every slot's cross
    count (unchanged outside ``slots``); only the kept crosses are
    rewritten, the rest lie past the count."""
    counts = np.full(len(floor), k)
    u, w = Ust[slots, k0:k], Wst[slots, k0:k]
    tau, bases = _product_svd(u.swapaxes(1, 2), w.conj().swapaxes(1, 2), xb)
    kept = np.sum(tau > floor[slots, None], axis=1)
    counts[slots] = k0 + kept
    top = int(kept.max())
    left, right = bases(top)
    Ust[slots, k0 : k0 + top] = left.swapaxes(1, 2)
    Wst[slots, k0 : k0 + top] = right.conj().swapaxes(1, 2)
    return counts


def rook_pivot_compress_stack(
    multi: StackEvaluator,
    rows: np.ndarray,
    cols: np.ndarray,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    dtype=np.float64,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Cross approximation of a stack of blocks in lockstep.

    Block ``b`` is ``A[rows[b]][:, cols[b]]`` of the operator behind the
    gather evaluator ``multi``; ``rows`` is ``(B, m)`` and ``cols`` is
    ``(B, n)``.  Each step advances all active blocks with a few ``multi``
    calls:

    * *Rook phase* — the first ``_ROOK_PHASE`` steps add one cross each,
      pivoted by a rook search (alternate row/column argmax of the
      residual): one gather of the pivot rows, one of the pivot columns, and
      one more per refinement over the blocks whose pivot still moves.  A
      zero pivot retries from a random unused row (a per-block
      ``default_rng(12345)``).  A block stops when its newest cross's norm
      is at most the threshold; low-rank blocks retire here.
    * *Blocked steps* (BACA: Liu, Sid-Lakhdar, Rebrova, Ghysels & Li) — a
      block at ``k`` crosses adds ``b = min(k, _BLOCK)``: one gather of its
      ``b`` residual rows ``R``, one of the ``b`` residual columns ``C`` a
      pivoted QR of ``R`` picks (:func:`_pivots`, greedy Gram-Schmidt in
      lockstep over the stack), and the crosses ``C S+ R`` from an SVD of
      their intersection ``S`` (one ``svd_batched``) that drops directions
      below ``tol`` times its largest.  The next rows are the row pivots
      of ``C``.  When the smallest cross ``S`` kept is below the threshold
      (or ``S`` keeps none), a sampled ``_SAMPLES x _SAMPLES`` residual
      grid (one more gather) must agree: its largest singular value (one
      ``svd_batched``), scaled to the block, estimates the residual's
      spectral norm.  A miss goes on from the grid's row pivots.  A block that retires
      rewrites its last two steps as the SVD of their crosses' sum
      (:func:`_product_svd`) and drops the directions below ``_TRIM * tol *
      sigma_1``, which the truncation would drop too.

    The threshold is ``_MARGIN * tol * sigma_1``, with ``sigma_1``
    estimated by the block's largest rook-phase cross, so all stop rules
    share one error contract with the truncation at ``tol * sigma_1`` that
    ends the stack: a block retires only once its residual looks smaller
    than what the truncation cuts (the a-posteriori test of Halko,
    Martinsson & Tropp, SIAM Review 2011, section 4.3, with a fixed
    margin).  A Frobenius-relative stop would retire oscillatory
    blocks, whose ``||A||_F`` is many times ``sigma_1``, before their
    crosses reach directions the truncation keeps.

    Stopped blocks are compacted out of the active set.  The stack ends
    with one recompression per phase over the bases zero-padded to the
    phase's largest rank (:func:`_recompress_bases`: per side a Gram gemm
    and a ``cholesky_batched``, then ``gemm_strided_batched`` and
    ``svd_batched`` for the cores and two strided gemms per side for the
    kept bases; no Householder QR unless a basis is too ill-conditioned
    for its Gram matrix): it trims the blocked steps' overshoot, and a
    block that retires in the rook phase does not depend on the high-rank
    blocks beside it.  Every LAPACK call of the stack is a recorded launch.
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
    # squared norm of each block's largest rook-phase cross, its sigma_1
    # estimate, and the stop threshold relative to it
    peak = np.zeros(nblocks)
    stop2 = (_MARGIN * tol) ** 2
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

    def append(u, w):
        # store crosses k .. k + b of the active blocks, growing geometrically
        nonlocal Ust, Wst, cap, k
        b = u.shape[1]
        if k + b > cap:
            cap = min(rank_cap, max(2 * cap, k + b))
            grown_u = np.empty((active, cap, m), dtype=dtype)
            grown_w = np.empty((active, cap, n), dtype=dtype)
            grown_u[:, :k] = Ust[:active, :k]
            grown_w[:, :k] = Wst[:active, :k]
            Ust, Wst = grown_u, grown_w
        Ust[:active, k : k + b] = u
        Wst[:active, k : k + b] = w
        k += b

    def retire(stop, r):
        # record the stopped blocks' bases, compact the survivors
        nonlocal active
        for s in np.flatnonzero(stop):
            b = int(block_of[s])
            ranks[b] = r[s]
            done_U[b] = Ust[s, : r[s]].copy()
            done_W[b] = Wst[s, : r[s]].copy()
        keep = np.flatnonzero(~stop)
        for store in (Ust, Wst):
            store[: keep.size, :k] = store[keep, :k]
        for index in (rows, cols, used, next_row, peak, block_of):
            index[: keep.size] = index[keep]
        active = keep.size
        return keep

    while active and k < _ROOK_PHASE:
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
        # --- stopping criterion: the newest cross against the largest
        cross_norm2 = np.linalg.norm(u, axis=1) ** 2 * np.linalg.norm(row, axis=1) ** 2
        append(u[:, None], row[:, None])
        used[slots, i] = True
        next_row[:active] = (i + 1) % m
        scale2 = peak[:active]
        np.maximum(scale2, cross_norm2, out=scale2)
        stop = exhausted | (cross_norm2 <= stop2 * scale2)
        if k == rank_cap:
            stop[:] = True
        if stop.any():
            retire(stop, k - exhausted)

    # --- blocked steps: the first reads the unused row pivots of the rook
    # phase's u vectors
    b, last_b = min(k, _BLOCK, rank_cap - k), 0
    if active:
        nxt = _pivots(Ust[:active, :k], b, used[:active])
    while active:
        U, W = Ust[:active, :k], Wst[:active, :k]
        R = np.asarray(multi(np.take_along_axis(rows[:active], nxt, 1), cols[:active]), dtype=dtype)
        R = R.reshape(active, b, n) - np.take_along_axis(U, nxt[:, None], 2).swapaxes(1, 2) @ W
        J = _pivots(R, b)
        C = np.asarray(multi(rows[:active], np.take_along_axis(cols[:active], J, 1)), dtype=dtype)
        C = C.reshape(active, m, b) - U.swapaxes(1, 2) @ np.take_along_axis(W, J[:, None], 2)
        # C S+ R through the SVD of the intersection S = R[:, :, J]; the
        # directions below tol times its largest become zero crosses
        Us, sig, Vh = svd_batched(np.take_along_axis(R, J[:, None], 2), backend=xb)
        inv = np.divide(1.0, sig, out=np.zeros_like(sig), where=sig > tol * sig[:, :1])
        u = (Vh.conj() @ C.swapaxes(1, 2)) * inv[:, :, None]
        w = (Us.conj().swapaxes(1, 2) @ R) * (inv > 0)[:, :, None]
        # --- stopping criterion: the smallest cross S kept (a dropped
        # direction says S is ill-conditioned, not converged)
        kept = inv > 0
        sizes = np.sum(np.abs(u) ** 2, axis=2) * np.sum(np.abs(w) ** 2, axis=2)
        last_norm2 = np.where(kept.any(axis=1), np.min(sizes, axis=1, where=kept, initial=np.inf), 0.0)
        np.put_along_axis(used[:active], nxt, True, 1)
        append(u, w)
        # the crosses of the last two steps, which a retiring block trims
        tail, last_b = last_b + b, b
        b = min(k, _BLOCK, rank_cap - k)
        nxt = _pivots(C.swapaxes(1, 2), b, used[:active])
        scale2 = peak[:active]
        stop = last_norm2 <= stop2 * scale2
        if k == rank_cap:
            stop[:] = True
        elif stop.any():
            # a sampled residual grid must agree; a miss (a part the crosses
            # have not reached) goes on from the grid's row pivots.  The
            # grid's largest singular value, scaled to the block, estimates
            # the residual's spectral norm
            cand, ks = np.flatnonzero(stop), np.arange(k)
            grid = np.random.default_rng(k)
            pr = np.sort(grid.choice(m, min(_SAMPLES, m), replace=False))
            pc = np.sort(grid.choice(n, min(_SAMPLES, n), replace=False))
            E = np.asarray(multi(rows[cand][:, pr], cols[cand][:, pc]), dtype=dtype)
            E = E.reshape(cand.size, pr.size, pc.size) - (
                Ust[np.ix_(cand, ks, pr)].swapaxes(1, 2) @ Wst[np.ix_(cand, ks, pc)])
            est = svd_batched(E, backend=xb)[1][:, 0] ** 2 * (m * n / (pr.size * pc.size))
            miss = est > stop2 * scale2[cand]
            stop[cand[miss]] = False
            nxt[cand[miss]] = pr[_pivots(E[miss].swapaxes(1, 2), b)]
        if stop.any():
            keep = _trim_tail(
                Ust, Wst, k - tail, k, np.flatnonzero(stop), _TRIM * tol * np.sqrt(scale2), xb
            )
            nxt = nxt[retire(stop, keep)]

    # one recompression per phase over the bases zero-padded to the
    # phase's largest rank: the padding adds zero rows and columns to each
    # R factor, so it contributes only zero singular values
    out: List[Optional[LowRankFactor]] = [None] * nblocks
    for group in (np.flatnonzero(ranks <= _ROOK_PHASE), np.flatnonzero(ranks > _ROOK_PHASE)):
        kmax = int(ranks[group].max(initial=0))
        Up = np.zeros((group.size, kmax, m), dtype=dtype)
        Wp = np.zeros((group.size, kmax, n), dtype=dtype)
        for g, b in enumerate(group):
            Up[g, : ranks[b]] = done_U[b]
            Wp[g, : ranks[b]] = done_W[b]
        if kmax:
            for b, f in zip(group, _recompress_bases(
                xb.asarray(Up.transpose(0, 2, 1)), xb.asarray(Wp.conj().transpose(0, 2, 1)),
                tol, max_rank, xb, caps=ranks[group],
            )):
                out[b] = f
    return [LowRankFactor.zeros(m, n, dtype) if f is None else f for f in out]


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


def compress_block_stack(
    stack: np.ndarray,
    config: CompressionConfig,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Compress a uniform ``(batch, m, n)`` stack of dense blocks per ``config``.

    The zero-copy entry point of the level-major builder: a gathered level
    stack goes straight into the batched kernels without per-block
    unpacking.  ``rook`` runs :func:`rook_pivot_compress_stack` over the
    stack, every block advancing its crosses in lockstep; ``svd`` runs one
    ``svd_batched`` launch over it.  A context with :data:`~repro.backends.dispatch.LOOP_POLICY`
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
    """Batched recompression of many :class:`LowRankFactor` objects.

    The factored-form companion of :func:`compress_block_stack`: factors
    sharing a ``(m, n, rank)`` signature are packed into strided 3-D stacks
    and recompressed by :func:`_recompress_bases` — per side a Gram gemm
    and one ``cholesky_batched`` for the triangular factor (a Householder
    ``qr_batched`` only for an ill-conditioned stack), one strided gemm for
    the small cores, one ``svd_batched`` for the truncation and two strided
    gemms per side for the kept bases — so the per-block
    :meth:`LowRankFactor.recompress` loop becomes O(shape buckets) kernel
    launches.  Truncation counts are applied per block (ranks may differ
    after truncation).  This is the path the streaming update/downdate
    engine sends its dirty concatenated factors through.  A context with
    ``policy.bucketing=False`` reproduces the per-block loop.
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


#: Largest bound on ``kappa(G) * eps`` the Gram route accepts for a stack
#: of bases whose column-scaled Gram matrices ``G`` have condition number
#: ``kappa(G)``: the implicit ``Q = X R^{-1}`` is then orthonormal to about
#: this much, so the singular values of ``R_U R_V^H`` are those of ``U V^H``
#: to about as many digits.  A stack above it takes the Householder route.
_GRAM_GUARD = 1e-2


def _gram_r(X3, xb: ArrayBackend):
    """``(R, R^{-1})`` with ``X3[j] = Q_j R_j`` and ``Q_j`` orthonormal, read
    off the Gram matrices, or ``None`` when that is not accurate enough.

    CholeskyQR (Fukaya, Nakatsukasa, Yanagisawa & Yamamoto, ScalA 2014)
    with column scaling: ``G = X^H X`` is one strided gemm, ``D = sqrt(diag
    G)`` scales it to unit diagonal, and one :func:`cholesky_batched` gives
    ``D^{-1} G D^{-1} = C C^H``, so ``R = C^H D``.  A zero column (the zero
    padding of a ragged stack, or a dropped cross) gets a unit diagonal in
    ``R^{-1}`` and a zero row and column in ``R``, so it adds only zero
    singular values.  ``None`` when the Cholesky fails or when the bound
    ``kappa(G) <= ||G||_inf ||C^{-1}||_F^2`` exceeds ``_GRAM_GUARD / eps``
    for a member.
    """
    r = X3.shape[2]
    gram = gemm_strided_batched(X3, X3, conjugate_a=True, backend=xb)
    diag = np.arange(r)
    d = np.sqrt(gram[:, diag, diag].real)
    s = np.where(d > 0, d, 1.0)
    gram /= s[:, :, None] * s[:, None, :]
    gram[:, diag, diag] = 1.0
    try:
        C, Cinv = cholesky_batched(gram, backend=xb)
    except np.linalg.LinAlgError:
        return None
    # kappa(G) = ||G||_2 ||C^{-1}||_2^2 <= ||G||_inf ||C^{-1}||_F^2 (G Hermitian)
    inv_fro2 = np.sum((Cinv * Cinv.conj()).real, axis=(1, 2))
    bound = np.abs(gram).sum(axis=2).max(axis=1) * inv_fro2
    if not bound.max() * np.finfo(gram.dtype).eps <= _GRAM_GUARD:
        return None
    R = C.conj().swapaxes(1, 2) * d[:, None, :]
    return R, Cinv.conj().swapaxes(1, 2) / s[:, :, None]


def _r_factor(X3, xb: ArrayBackend):
    """``R`` of ``X3[j] = Q_j R_j`` per member and the map ``Z -> Q Z``.

    The Gram route (:func:`_gram_r`) applies ``Q = X R^{-1}`` as a small
    product and one strided gemm over the stack; an ill-conditioned stack
    takes one Householder ``qr_batched`` and applies its explicit ``Q``."""
    gram = _gram_r(X3, xb)
    if gram is None:
        Q3, R3 = qr_batched(X3, backend=xb)
        return R3, lambda Z: gemm_strided_batched(Q3, Z, backend=xb)
    R3, Rinv3 = gram
    return R3, lambda Z: gemm_strided_batched(
        X3, gemm_strided_batched(Rinv3, Z, backend=xb), backend=xb
    )


def _product_svd(X3, Y3, xb: ArrayBackend):
    """SVD of every ``X3[j] Y3[j]^H`` without forming it: ``X3`` is ``(B, m,
    r)`` and ``Y3`` is ``(B, n, r)``.

    Returns ``(s3, bases)``: the singular values ``(B, r)`` (descending) and
    a function of ``top`` that forms the leading ``top`` singular vectors
    of every member, ``(left * s, right)`` of shapes ``(B, m, top)`` and
    ``(B, n, top)``.  The core ``R_X R_Y^H`` of the two bases' triangular
    factors (:func:`_r_factor`) goes through one strided gemm and one
    ``svd_batched`` launch."""
    Rx, qx = _r_factor(X3, xb)
    Ry, qy = _r_factor(Y3, xb)
    core3 = gemm_strided_batched(Rx, Ry.conj().swapaxes(1, 2), backend=xb)
    Uc3, s3, Vch3 = svd_batched(core3, backend=xb)

    def bases(top: int):
        return (
            qx(Uc3[:, :, :top] * s3[:, None, :top]),
            qy(Vch3[:, :top, :].conj().swapaxes(1, 2)),
        )

    return s3, bases


def _recompress_bases(
    U3, V3, tol: float, max_rank: Optional[int], xb: ArrayBackend, caps=None
) -> List[LowRankFactor]:
    """Recompression of the stacked factors ``U3[j] @ V3[j]^H`` through the
    SVD of ``R_U R_V^H`` (:func:`_product_svd`).

    ``U3`` is ``(B, m, r)`` and ``V3`` is ``(B, n, r)``.  Per side one
    strided gemm forms the Gram matrices and one ``cholesky_batched`` their
    factors; one strided gemm and one ``svd_batched`` take the cores; the
    kept bases ``U (R_U^{-1} X_k S_k)`` and ``V (R_V^{-1} Y_k)`` are two
    strided gemms per side over the stack, sliced per block.  Truncation is
    per block, at most ``caps[j]`` when given.
    """
    s3, bases = _product_svd(U3, V3, xb)
    keeps = [_truncation_count(s, tol, max_rank) for s in s3]
    if caps is not None:
        keeps = [min(keep, int(cap)) for keep, cap in zip(keeps, caps)]
    left, right = bases(max(keeps))
    return [
        LowRankFactor(U=left[j, :, :keep], V=right[j, :, :keep]) for j, keep in enumerate(keeps)
    ]


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
    raise ValueError(f"unknown compression method {config.method!r}")
