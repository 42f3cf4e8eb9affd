"""Proxy-surface compression of BIE operator blocks (paper, sections IV-B/C).

The paper constructs the HODLR approximation of the discretized integral
operators "using the proxy surface technique (see, e.g., [9, Chapter 17])".
The idea: the field induced on a target cluster by sources *outside* a
proxy circle enclosing the cluster solves the homogeneous PDE near the
cluster, so it can be replicated by a small number of equivalent sources on
the proxy circle.  Consequently the rows of an off-diagonal operator block
``A(I_alpha, I_beta)`` are (numerically) spanned by the rows of

``S = [ K(targets_alpha, proxy circle) | A(I_alpha, near sources in I_beta) ]``

whose column count is ``O(n_proxy + n_near)`` — independent of
``|I_beta|``.  A row interpolative decomposition (ID) of ``S`` yields a row
skeleton and an interpolation matrix ``X`` with

``A(I_alpha, I_beta)  ~=  X @ A(I_alpha[skeleton], I_beta)``,

so only ``r`` rows of the true block ever need to be evaluated.  This keeps
HODLR construction at ``O(N r)`` kernel evaluations per level even though
the sibling blocks of the weak-admissibility (HODLR) partition touch each
other.

:func:`build_hodlr_proxy` reads the library's one
:class:`~repro.core.compression.CompressionConfig` (``tol``, ``n_proxy``,
``max_rank``, ``leaf_size``), the same object
``SolverConfig(compression=CompressionConfig(method="proxy"))`` carries.
The proxy-circle radius and the near-field radius are fixed multiples of
the cluster radius (:data:`RADIUS_FACTOR`, :data:`NEAR_FACTOR`).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Tuple

import numpy as np
from scipy import linalg as sla

from ..core.cluster_tree import ClusterTree
from ..core.compression import CompressionConfig
from ..core.hodlr import HODLRMatrix
from ..core.low_rank import LowRankFactor


class ProxyCompressibleOperator(Protocol):
    """The interface an operator must expose for proxy-surface compression."""

    points: np.ndarray
    dtype: np.dtype

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray: ...

    def proxy_block(
        self, target_points: np.ndarray, proxy_points: np.ndarray, proxy_normals: np.ndarray
    ) -> np.ndarray: ...


#: proxy-circle radius as a multiple of the target-cluster radius
RADIUS_FACTOR = 1.75
#: sources within ``NEAR_FACTOR * cluster_radius`` of the cluster centre are
#: near field and enter the sampling matrix explicitly
NEAR_FACTOR = 1.75


def interpolative_row_skeleton(
    S: np.ndarray, tol: float, max_rank: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Row interpolative decomposition ``S ~= X @ S[skeleton, :]``.

    Computed from a column-pivoted QR factorization of ``S^T``.  Returns the
    skeleton row indices and the interpolation matrix ``X`` (shape
    ``(S.shape[0], len(skeleton))``), whose rows corresponding to skeleton
    indices form the identity.
    """
    S = np.asarray(S)
    m = S.shape[0]
    if m == 0 or S.shape[1] == 0:
        return np.arange(0), np.zeros((m, 0), dtype=S.dtype)

    Q, R, piv = sla.qr(S.conj().T, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return np.arange(0), np.zeros((m, 0), dtype=S.dtype)
    rank = int(np.sum(diag > tol * diag[0]))
    rank = max(rank, 1)
    if max_rank is not None:
        rank = min(rank, int(max_rank))
    rank = min(rank, m, S.shape[1])

    skeleton = piv[:rank]
    # S^T[:, piv] = Q R  =>  S[piv, :]^T = Q R, split R = [R11 R12]
    R11 = R[:rank, :rank]
    R12 = R[:rank, rank:]
    # rows not in the skeleton are interpolated: S[piv[rank:], :] ~= (R11^{-1} R12)^T S[skeleton, :]
    T = sla.solve_triangular(R11, R12, lower=False, check_finite=False)
    X = np.zeros((m, rank), dtype=S.dtype)
    X[skeleton, :] = np.eye(rank, dtype=S.dtype)
    X[piv[rank:], :] = T.conj().T
    return skeleton, X


def _proxy_circle(center: np.ndarray, radius: float, n_proxy: int) -> Tuple[np.ndarray, np.ndarray]:
    """Points and outward normals of a proxy circle."""
    theta = 2.0 * np.pi * np.arange(n_proxy) / n_proxy
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    points = center[None, :] + radius * normals
    return points, normals


def compress_block_proxy(
    operator: ProxyCompressibleOperator,
    target_idx: np.ndarray,
    source_idx: np.ndarray,
    config: CompressionConfig,
) -> LowRankFactor:
    """Compress ``A(target_idx, source_idx)`` with the proxy-surface ID."""
    targets = operator.points[target_idx]
    sources = operator.points[source_idx]
    center = targets.mean(axis=0)
    radius = float(np.max(np.linalg.norm(targets - center[None, :], axis=1)))
    radius = max(radius, 1e-12)

    proxy_pts, proxy_nrm = _proxy_circle(center, RADIUS_FACTOR * radius, config.n_proxy)
    dist = np.linalg.norm(sources - center[None, :], axis=1)
    near_mask = dist <= NEAR_FACTOR * radius

    blocks = [np.asarray(operator.proxy_block(targets, proxy_pts, proxy_nrm))]
    if np.any(near_mask):
        blocks.append(np.asarray(operator.entries(target_idx, source_idx[near_mask])))
    S = np.hstack(blocks)

    skeleton, X = interpolative_row_skeleton(S, tol=config.tol, max_rank=config.max_rank)
    if skeleton.size == 0:
        return LowRankFactor.zeros(target_idx.size, source_idx.size, dtype=S.dtype)

    skeleton_rows = np.asarray(operator.entries(target_idx[skeleton], source_idx))
    # A ~= X @ skeleton_rows = U V^*  with U = X and V = skeleton_rows^*
    factor = LowRankFactor(U=X, V=skeleton_rows.conj().T)
    return factor.recompress(tol=config.tol, max_rank=config.max_rank)


def build_hodlr_proxy(
    operator: ProxyCompressibleOperator,
    tree: Optional[ClusterTree] = None,
    config: Optional[CompressionConfig] = None,
) -> HODLRMatrix:
    """Build a HODLR approximation of a BIE operator with proxy compression.

    The operator's points are assumed to follow the contour parametrization,
    so the balanced (index-bisection) cluster tree is geometric, exactly as
    in the paper's BIE experiments.  ``config`` supplies ``tol``,
    ``n_proxy``, ``max_rank`` and, when no ``tree`` is given, ``leaf_size``
    (``None`` = the defaults); its ``method`` is not read.
    """
    if config is None:
        config = CompressionConfig(method="proxy")
    n = operator.points.shape[0]
    if tree is None:
        tree = ClusterTree.balanced(n, leaf_size=config.leaf_size)

    diag: Dict[int, np.ndarray] = {}
    U: Dict[int, np.ndarray] = {}
    V: Dict[int, np.ndarray] = {}

    for leaf in tree.leaves:
        idx = leaf.indices
        diag[leaf.index] = np.asarray(operator.entries(idx, idx))

    for level in range(1, tree.levels + 1):
        for left, right in tree.sibling_pairs(level):
            lr = compress_block_proxy(operator, left.indices, right.indices, config)
            rl = compress_block_proxy(operator, right.indices, left.indices, config)
            U[left.index] = lr.U
            V[right.index] = lr.V
            U[right.index] = rl.U
            V[left.index] = rl.V

    return HODLRMatrix(tree=tree, diag=diag, U=U, V=V)
