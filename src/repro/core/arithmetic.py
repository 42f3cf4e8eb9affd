"""HODLR matrix arithmetic: addition, scaling, low-rank updates, transpose.

The factorization algorithms of the paper consume a *fixed* HODLR matrix,
but real workflows (Gaussian-process hyper-parameter optimisation, Schur
complement updates inside sparse solvers, time stepping with
operator-splitting) repeatedly modify the operator before re-factorizing.
This module provides the structure-preserving operations those workflows
need, all in the same HODLR format so the factorization machinery applies
unchanged:

* ``add``                — sum of two HODLR matrices on the same tree
  (diagonal blocks add densely; off-diagonal bases concatenate and are
  recompressed to the requested tolerance);
* ``add_low_rank_update``— ``A + X Y^*`` for skinny global factors
  ``X, Y`` (rank-k update distributed over the tessellation);
* ``add_diagonal``       — ``A + diag(d)`` (regularisation / nugget terms);
* ``scale``              — ``alpha * A``;
* ``transpose``          — ``A^*`` (swap of the U/V roles);
* ``trace`` / ``diagonal`` — cheap reductions used by estimators.

Every operation returns a new :class:`~repro.core.hodlr.HODLRMatrix`; the
inputs are never mutated.

All array work routes through the :class:`~repro.backends.dispatch.
ArrayBackend` of the resolved :class:`~repro.backends.context.
ExecutionContext`, and the per-block recompressions of ``add`` /
``add_low_rank_update`` run batched through
:func:`~repro.core.compression.recompress_stack` — one QR/SVD launch per
shape bucket instead of one per block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from .compression import recompress_stack
from .hodlr import HODLRMatrix
from .low_rank import LowRankFactor


def _check_same_tree(a: HODLRMatrix, b: HODLRMatrix) -> None:
    ta, tb = a.tree, b.tree
    if ta.n != tb.n or ta.levels != tb.levels:
        raise ValueError(
            f"HODLR operands live on different trees: "
            f"(n={ta.n}, L={ta.levels}) vs (n={tb.n}, L={tb.levels})"
        )
    for leaf_a, leaf_b in zip(ta.leaves, tb.leaves):
        if (leaf_a.start, leaf_a.stop) != (leaf_b.start, leaf_b.stop):
            raise ValueError("HODLR operands have different leaf partitions")


def _scatter_factors(
    pending: List[LowRankFactor],
    owners: List[Tuple[int, int]],
    tol: Optional[float],
    max_rank: Optional[int],
    ctx: ExecutionContext,
) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
    """Recompress the pending factors in one batched pass and scatter the
    results back onto their ``(row node, col node)`` owners."""
    U: Dict[int, np.ndarray] = {}
    V: Dict[int, np.ndarray] = {}
    for (ri, ci), factor in zip(
        owners, recompress_stack(pending, tol=tol, max_rank=max_rank, context=ctx)
    ):
        U[ri] = factor.U
        V[ci] = factor.V
    return U, V


def add(
    a: HODLRMatrix,
    b: HODLRMatrix,
    tol: Optional[float] = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> HODLRMatrix:
    """Sum of two HODLR matrices defined on the same cluster tree.

    Off-diagonal blocks are summed by concatenating bases,
    ``U = [U_a | U_b]`` and ``V = [V_a | V_b]``, followed by a batched
    recompression to ``tol`` so ranks do not grow unboundedly under
    repeated addition.
    """
    _check_same_tree(a, b)
    ctx = context or DEFAULT_CONTEXT
    xb = ctx.backend
    tree = a.tree
    dtype = np.result_type(a.dtype, b.dtype)

    diag = {
        leaf.index: xb.asarray(a.diag[leaf.index]).astype(dtype)
        + xb.asarray(b.diag[leaf.index]).astype(dtype)
        for leaf in tree.leaves
    }
    pending: List[LowRankFactor] = []
    owners: List[Tuple[int, int]] = []
    for level in range(1, tree.levels + 1):
        for left, right in tree.sibling_pairs(level):
            for row_node, col_node in ((left, right), (right, left)):
                Ua = xb.concat(
                    [
                        xb.asarray(a.U[row_node.index]).astype(dtype),
                        xb.asarray(b.U[row_node.index]).astype(dtype),
                    ],
                    axis=1,
                )
                Vb = xb.concat(
                    [
                        xb.asarray(a.V[col_node.index]).astype(dtype),
                        xb.asarray(b.V[col_node.index]).astype(dtype),
                    ],
                    axis=1,
                )
                pending.append(LowRankFactor(U=Ua, V=Vb))
                owners.append((row_node.index, col_node.index))
    U, V = _scatter_factors(pending, owners, tol, max_rank, ctx)
    return HODLRMatrix(tree=tree, diag=diag, U=U, V=V)


def scale(a: HODLRMatrix, alpha: float) -> HODLRMatrix:
    """``alpha * A`` (the scalar is folded into the diagonal blocks and U bases)."""
    tree = a.tree
    diag = {k: alpha * v for k, v in a.diag.items()}
    U = {k: alpha * v for k, v in a.U.items()}
    V = {k: v.copy() for k, v in a.V.items()}
    return HODLRMatrix(tree=tree, diag=diag, U=U, V=V)


def add_diagonal(
    a: HODLRMatrix, d, context: Optional[ExecutionContext] = None
) -> HODLRMatrix:
    """``A + diag(d)`` where ``d`` is a scalar or a length-``n`` vector."""
    ctx = context or DEFAULT_CONTEXT
    xb = ctx.backend
    tree = a.tree
    n = tree.n
    if np.isscalar(d):
        d_arr = xb.zeros((n,), dtype=a.dtype)
        d_arr[:] = d
    else:
        d_arr = xb.asarray(d)
    if d_arr.shape != (n,):
        raise ValueError(f"diagonal has shape {d_arr.shape}, expected ({n},)")
    diag = {}
    for leaf in tree.leaves:
        block = xb.asarray(a.diag[leaf.index]).copy()
        ii = np.arange(leaf.size, dtype=np.intp)
        block[ii, ii] += d_arr[leaf.start : leaf.stop]
        diag[leaf.index] = block
    return HODLRMatrix(
        tree=tree,
        diag=diag,
        U={k: v.copy() for k, v in a.U.items()},
        V={k: v.copy() for k, v in a.V.items()},
    )


def add_low_rank_update(
    a: HODLRMatrix,
    X: np.ndarray,
    Y: np.ndarray,
    tol: Optional[float] = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> HODLRMatrix:
    """``A + X Y^*`` for global skinny factors ``X (n x k)`` and ``Y (n x k)``.

    The global rank-``k`` update is scattered over the HODLR tessellation:
    each diagonal block receives its dense restriction, each off-diagonal
    block receives the corresponding row/column restriction of ``X`` and
    ``Y`` appended to its bases (followed by one batched recompression).
    """
    ctx = context or DEFAULT_CONTEXT
    xb = ctx.backend
    tree = a.tree
    X = xb.asarray(X)
    Y = xb.asarray(Y)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    if X.ndim == 2 and X.shape[0] == 1 and tree.n != 1:
        X = X.T
    if Y.ndim == 2 and Y.shape[0] == 1 and tree.n != 1:
        Y = Y.T
    if X.shape[0] != tree.n or Y.shape[0] != tree.n or X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must both be n x k")
    dtype = np.result_type(a.dtype, X.dtype, Y.dtype)

    diag = {}
    for leaf in tree.leaves:
        rows = slice(leaf.start, leaf.stop)
        diag[leaf.index] = xb.asarray(a.diag[leaf.index]).astype(dtype) + xb.matmul(
            X[rows], Y[rows].conj().T
        )
    pending: List[LowRankFactor] = []
    owners: List[Tuple[int, int]] = []
    for level in range(1, tree.levels + 1):
        for left, right in tree.sibling_pairs(level):
            for row_node, col_node in ((left, right), (right, left)):
                rows = slice(row_node.start, row_node.stop)
                cols = slice(col_node.start, col_node.stop)
                Unew = xb.concat(
                    [xb.asarray(a.U[row_node.index]).astype(dtype), X[rows]], axis=1
                )
                Vnew = xb.concat(
                    [xb.asarray(a.V[col_node.index]).astype(dtype), Y[cols]], axis=1
                )
                pending.append(LowRankFactor(U=Unew, V=Vnew))
                owners.append((row_node.index, col_node.index))
    U, V = _scatter_factors(pending, owners, tol, max_rank, ctx)
    return HODLRMatrix(tree=tree, diag=diag, U=U, V=V)


def transpose(a: HODLRMatrix) -> HODLRMatrix:
    """The conjugate transpose ``A^*`` in HODLR form.

    Transposition swaps the roles of the U and V bases: the block
    ``A(I_l, I_r) = U_l V_r^*`` becomes ``A^*(I_r, I_l) = V_r U_l^*``, so in
    the transposed matrix node ``r`` carries ``U'_r = V_r`` and node ``l``
    carries ``V'_l = U_l``.
    """
    tree = a.tree
    diag = {k: v.conj().T.copy() for k, v in a.diag.items()}
    U = {k: a.V[k].copy() for k in a.V}
    V = {k: a.U[k].copy() for k in a.U}
    return HODLRMatrix(tree=tree, diag=diag, U=U, V=V)


def diagonal(
    a: HODLRMatrix, context: Optional[ExecutionContext] = None
) -> np.ndarray:
    """The main diagonal of the HODLR matrix (read off the leaf blocks)."""
    ctx = context or DEFAULT_CONTEXT
    xb = ctx.backend
    out = xb.zeros((a.n,), dtype=a.dtype)
    for leaf in a.tree.leaves:
        block = xb.asarray(a.diag[leaf.index])
        ii = np.arange(leaf.size, dtype=np.intp)
        out[leaf.start : leaf.stop] = block[ii, ii]
    return out


def trace(a: HODLRMatrix) -> complex:
    """``trace(A)`` — the sum of the leaf-block diagonals."""
    d = diagonal(a)
    return complex(np.sum(d)) if np.iscomplexobj(d) else float(np.sum(d))


def matmul_dense(a: HODLRMatrix, B: np.ndarray) -> np.ndarray:
    """``A @ B`` for a dense block of vectors ``B`` (alias of the HODLR matvec)."""
    return a.matvec(B)
