"""Matrix-free HODLR construction by peeling (paper, section II-B).

The paper notes that when only a fast matrix-vector product is available
(e.g. the operator is an FMM, a sparse factorization, or a composition of
other fast operators), "peeling algorithms" [Lin-Lu-Ying 2011,
Martinsson 2016] construct the HODLR approximation from
``O(r log N)`` applications of the operator and its adjoint.

The level-by-level procedure implemented here:

1. For level 1, the two off-diagonal blocks are sampled directly with
   random test matrices restricted to each sibling's index range, and
   compressed with the randomized range finder.
2. For every finer level, the *already captured* coarser-level blocks are
   subtracted from the operator's action ("peeled off"), so the random
   probes again see only the blocks of the current level.
3. After the last level, the leaf diagonal blocks are extracted by applying
   the peeled operator to identity blocks.

All array work routes through the :class:`~repro.backends.dispatch.
ArrayBackend` of the resolved :class:`~repro.backends.context.
ExecutionContext`: the per-node orthonormalizations run as one ``qr_batch``
launch per shape bucket (every node at a level shares the probe width, so a
uniform level is a single launch), and the per-block retruncations run
batched through :func:`~repro.core.compression.recompress_stack` — the
launch count per level is O(shape buckets), not O(nodes).

The output is a standard :class:`~repro.core.hodlr.HODLRMatrix`, ready for
the factorization machinery.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.dispatch import plan_batch
from .cluster_tree import ClusterTree
from .compression import recompress_stack
from .hodlr import HODLRMatrix
from .low_rank import LowRankFactor

MatVec = Callable[[np.ndarray], np.ndarray]


def _blockwise_matvec_of_captured(
    xb,
    tree: ClusterTree,
    U: Dict[int, np.ndarray],
    V: Dict[int, np.ndarray],
    max_level: int,
    X: np.ndarray,
) -> np.ndarray:
    """Action of the already-captured off-diagonal blocks (levels 1..max_level)."""
    dtype = (
        np.result_type(X.dtype, *[u.dtype for u in U.values()]) if U else X.dtype
    )
    out = xb.zeros((tree.n, X.shape[1]), dtype=dtype)
    for level in range(1, max_level + 1):
        for left, right in tree.sibling_pairs(level):
            if left.index not in U:
                continue
            out[left.start : left.stop] += xb.matmul(
                U[left.index],
                xb.matmul(V[right.index].conj().T, X[right.start : right.stop]),
            )
            out[right.start : right.stop] += xb.matmul(
                U[right.index],
                xb.matmul(V[left.index].conj().T, X[left.start : left.stop]),
            )
    return out


def _qr_stack(xb, blocks: List[np.ndarray]) -> List[np.ndarray]:
    """Orthonormal column bases of every block — one ``qr_batch`` launch per
    shape bucket (order-preserving scatter, bit-reproducible)."""
    out: List[Optional[np.ndarray]] = [None] * len(blocks)
    for bucket in plan_batch([tuple(np.shape(b)) for b in blocks]).buckets:
        idx = bucket.indices
        Q, _ = xb.qr_batch(xb.stack([blocks[i] for i in idx]))
        for j, i in enumerate(idx):
            out[i] = Q[j]
    return out


def peel_hodlr(
    matvec: MatVec,
    rmatvec: MatVec,
    tree: ClusterTree,
    rank: int,
    oversampling: int = 10,
    tol: float = 1e-10,
    rng: Optional[np.random.Generator] = None,
    dtype=np.float64,
    context: Optional[ExecutionContext] = None,
) -> HODLRMatrix:
    """Construct a HODLR approximation of an operator from matvec access only.

    Parameters
    ----------
    matvec, rmatvec:
        Apply the operator / its conjugate transpose to a block of vectors
        (shape ``(n, k)`` in, ``(n, k)`` out).
    tree:
        The cluster tree defining the tessellation.
    rank:
        Expected maximum off-diagonal rank (the number of random probes per
        block is ``rank + oversampling``).
    oversampling:
        Extra probes for the randomized sampling.
    tol:
        Recompression tolerance applied to the sampled blocks.
    context:
        Execution context supplying the array backend the sampling, QR
        batches, and recompressions run on (``None`` = default NumPy).
    """
    ctx = context or DEFAULT_CONTEXT
    xb = ctx.backend
    rng = rng if rng is not None else np.random.default_rng(0)
    n = tree.n
    nprobe = rank + oversampling

    U: Dict[int, np.ndarray] = {}
    V: Dict[int, np.ndarray] = {}

    for level in range(1, tree.levels + 1):
        pairs = tree.sibling_pairs(level)

        # ---- sample the column space of every block at this level ------------
        # Random probes restricted to the column-node of each block; all blocks
        # at the level are probed simultaneously with one operator application
        # per probe column because their column ranges are disjoint.
        Omega = xb.zeros((n, 2 * nprobe), dtype=dtype)
        for left, right in pairs:
            # columns 0:nprobe probe the "right" nodes (they feed rows of left),
            # columns nprobe:2*nprobe probe the "left" nodes.
            Omega[right.start : right.stop, :nprobe] = xb.asarray(
                rng.standard_normal((right.size, nprobe))
            )
            Omega[left.start : left.stop, nprobe:] = xb.asarray(
                rng.standard_normal((left.size, nprobe))
            )
        Y = xb.asarray(matvec(Omega))
        Y = Y - _blockwise_matvec_of_captured(xb, tree, U, V, level - 1, Omega)

        # orthonormal column bases per block: one qr_batch per shape bucket
        qr_owners: List[int] = []
        qr_blocks: List[np.ndarray] = []
        for left, right in pairs:
            # rows of `left` hit by sources in `right` live in Y[left rows, :nprobe]
            qr_owners += [left.index, right.index]
            qr_blocks += [
                Y[left.start : left.stop, :nprobe],
                Y[right.start : right.stop, nprobe:],
            ]
        bases: Dict[int, np.ndarray] = {
            owner: q for owner, q in zip(qr_owners, _qr_stack(xb, qr_blocks))
        }

        # ---- project to get the V factors: V = (A^* Q) restricted ----------------
        Omega2 = xb.zeros((n, 2 * nprobe), dtype=dtype)
        for left, right in pairs:
            q_l = bases[left.index]
            q_r = bases[right.index]
            Omega2[left.start : left.stop, : q_l.shape[1]] = q_l
            Omega2[right.start : right.stop, nprobe : nprobe + q_r.shape[1]] = q_r
        Z = xb.asarray(rmatvec(Omega2))
        Z = Z - _blockwise_matvec_of_captured(xb, tree, V, U, level - 1, Omega2)

        # ---- retruncate every block of the level in one batched pass ---------
        pending: List[LowRankFactor] = []
        owners: List[Tuple[int, int]] = []
        for left, right in pairs:
            q_l = bases[left.index]
            q_r = bases[right.index]
            # A(I_l, I_r)^* q_l  lives in Z[right rows, :rank_l]
            V_right = Z[right.start : right.stop, : q_l.shape[1]]
            V_left = Z[left.start : left.stop, nprobe : nprobe + q_r.shape[1]]
            pending.append(LowRankFactor(U=q_l, V=V_right))
            owners.append((left.index, right.index))
            pending.append(LowRankFactor(U=q_r, V=V_left))
            owners.append((right.index, left.index))
        for (ri, ci), f in zip(
            owners, recompress_stack(pending, tol=tol, max_rank=rank, context=ctx)
        ):
            U[ri] = f.U
            V[ci] = f.V

    # ---- leaf diagonal blocks: apply the fully peeled operator to identities ----
    diag: Dict[int, np.ndarray] = {}
    max_leaf = max(leaf.size for leaf in tree.leaves)
    E = xb.zeros((n, max_leaf), dtype=dtype)
    for leaf in tree.leaves:
        E[leaf.start : leaf.stop, : leaf.size] = xb.eye(leaf.size, dtype=dtype)
    D_action = xb.asarray(matvec(E)) - _blockwise_matvec_of_captured(
        xb, tree, U, V, tree.levels, E
    )
    for leaf in tree.leaves:
        diag[leaf.index] = D_action[leaf.start : leaf.stop, : leaf.size].astype(dtype)

    return HODLRMatrix(tree=tree, diag=diag, U=U, V=V)
