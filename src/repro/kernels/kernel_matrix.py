"""Lazy kernel-matrix assembly for HODLR construction.

:class:`KernelMatrix` binds a kernel function to a (tree-ordered) point set
and exposes

* ``entries(rows, cols)`` — the block evaluator consumed by
  :func:`repro.core.build_hodlr`,
* ``dense()`` — the explicit matrix (tests, small problems),
* ``matvec(x)`` — matrix-vector products evaluated block-wise so the dense
  matrix is never materialised for large ``N``,
* ``to_hodlr(...)`` — one-call construction of the HODLR approximation,
  including the kd-tree permutation of the points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..backends.context import ExecutionContext
from ..core.cluster_tree import ClusterTree
from ..core.compression import CompressionConfig
from ..core.hodlr import HODLRMatrix, build_hodlr
from .radial import pairwise_distances

KernelFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def blockwise_matvec(
    entries: Callable, n: int, x: np.ndarray, block_size: int = 2048
) -> np.ndarray:
    """``A @ x`` for the ``n x n`` operator behind ``entries(rows, cols)``.

    Rows are evaluated ``block_size`` at a time, so memory stays O(N).  The
    output dtype follows the evaluated products (promoted to at least
    float64), so a complex operator applied to a real ``x`` keeps its
    imaginary part.
    """
    x = np.asarray(x)
    squeeze = x.ndim == 1
    X = x.reshape(-1, 1) if squeeze else x
    cols = np.arange(n)
    parts = [
        entries(np.arange(start, min(start + block_size, n)), cols) @ X
        for start in range(0, n, block_size)
    ]
    out = np.concatenate(parts) if parts else np.zeros((0, X.shape[1]), dtype=X.dtype)
    out = out.astype(np.result_type(out.dtype, float), copy=False)
    return out.ravel() if squeeze else out


@dataclass
class KernelMatrix:
    """A kernel matrix ``K[i, j] = kernel(points[i], points[j])`` (+ diagonal shift).

    ``points`` may live on any backend: device-resident points (e.g. CuPy
    arrays placed via :meth:`ExecutionContext.to_device`) evaluate blocks on
    the device, which is what lets HODLR construction run device-resident
    end to end.
    """

    kernel: KernelFn
    points: np.ndarray
    #: added to the diagonal (regularisation / nugget), common in GP regression
    diagonal_shift: float = 0.0

    def __post_init__(self) -> None:
        pts = self.points
        if not hasattr(pts, "ndim"):
            pts = np.asarray(pts, dtype=float)
        elif pts.dtype.kind not in "fc":
            pts = pts.astype(float)
        # 1-D inputs are interpreted as n points on the real line
        self.points = pts.reshape(-1, 1) if pts.ndim == 1 else pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        block = self.kernel(self.points[rows], self.points[cols])
        if not hasattr(block, "ndim"):
            block = np.asarray(block)
        if self.diagonal_shift:
            block = self._apply_diagonal_shift(block, rows, cols)
        return block

    def _shift_positions(self, rows: np.ndarray, cols: np.ndarray):
        """``(i, j)`` positions where ``rows[i] == cols[j]``, or ``None``.

        Off-diagonal HODLR blocks have disjoint index ranges, so the common
        case is detected with two min/max comparisons and costs nothing; the
        overlapping case locates the (sparse) intersection with a sort +
        binary search instead of materialising the ``O(m n)`` equality mask
        (which survives only as the duplicate-column fallback).
        """
        if rows.size == 0 or cols.size == 0:
            return None
        if rows.max() < cols.min() or cols.max() < rows.min():
            return None
        order = np.argsort(cols, kind="stable")
        sorted_cols = cols[order]
        if sorted_cols.size > 1 and np.any(sorted_cols[1:] == sorted_cols[:-1]):
            # duplicate column indices: every matching position must receive
            # the shift, which the binary search below cannot express
            ii, jj = np.nonzero(rows[:, None] == cols[None, :])
            return (ii, jj) if ii.size else None
        pos = np.minimum(np.searchsorted(sorted_cols, rows), sorted_cols.size - 1)
        hit = sorted_cols[pos] == rows
        if not np.any(hit):
            return None
        return np.nonzero(hit)[0], order[pos[hit]]

    def _apply_diagonal_shift(
        self, block: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Add ``diagonal_shift`` where ``rows[i] == cols[j]``.

        Never mutates ``block`` (the kernel may return a cached or shared
        array): a new array is returned whenever a shift is applied.
        """
        positions = self._shift_positions(rows, cols)
        if positions is None:
            return block
        block = block.copy()
        block[positions[0], positions[1]] += self.diagonal_shift
        return block

    def entries_blocks(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Evaluate a stack of equal-shape sub-blocks in one kernel call.

        ``rows`` has shape ``(B, m)`` and ``cols`` shape ``(B, n)``; the
        result is the ``(B, m, n)`` stack of blocks
        ``K[rows[b], cols[b]]``.  The ``points[rows]`` gather happens once
        for the whole stack and the kernel function is invoked a single time
        on the batched point blocks, which is what makes level-major HODLR
        construction one vectorized evaluation per tree level instead of one
        per block.  Raises :class:`ValueError` if the bound kernel does not
        broadcast over stacked point blocks (callers fall back to
        :meth:`entries` per block).
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.ndim != 2 or cols.ndim != 2 or rows.shape[0] != cols.shape[0]:
            raise ValueError(
                f"entries_blocks expects (B, m) rows and (B, n) cols, got "
                f"{rows.shape} and {cols.shape}"
            )
        blocks = self.kernel(self.points[rows], self.points[cols])
        if not hasattr(blocks, "ndim"):
            blocks = np.asarray(blocks)
        expected = (rows.shape[0], rows.shape[1], cols.shape[1])
        if blocks.shape != expected:
            raise ValueError(
                f"kernel {self.kernel!r} does not broadcast over point blocks: "
                f"expected {expected}, got {blocks.shape}"
            )
        if self.diagonal_shift and blocks.size:
            # one vectorised range test over the stack; only blocks whose
            # index ranges overlap can hold rows[b][i] == cols[b][j]
            overlap = ~(
                (rows.max(axis=1) < cols.min(axis=1))
                | (cols.max(axis=1) < rows.min(axis=1))
            )
            hits = []
            for b in np.flatnonzero(overlap):
                positions = self._shift_positions(rows[b], cols[b])
                if positions is not None:
                    hits.append((b, positions))
            if hits:
                # one copy of the stack, shifts applied in place on the owned
                # copy — never write into the kernel's array (it may be
                # cached/shared, or read-only e.g. a broadcast)
                blocks = blocks.copy()
                for b, (ii, jj) in hits:
                    blocks[b, ii, jj] += self.diagonal_shift
        return blocks

    def dense(self) -> np.ndarray:
        return self.entries(np.arange(self.n), np.arange(self.n))

    # ------------------------------------------------------------------
    # construction-recycling hooks (see repro.api.sweep)
    # ------------------------------------------------------------------
    def distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The ``(m, n)`` pairwise-distance block for index sets.

        Geometry only — independent of the bound kernel, so a parameter
        sweep computes these once and replays each parameter's radial
        ``profile`` on the cached result (see :mod:`repro.api.sweep`).
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        return pairwise_distances(self.points[rows], self.points[cols])

    def distance_blocks(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The ``(B, m, n)`` distance stack for stacked index blocks.

        The batched sibling of :meth:`distances`: ``rows`` is ``(B, m)``
        and ``cols`` is ``(B, n)``, gathered once for the whole stack like
        :meth:`entries_blocks` — the gather half of a level-major kernel
        evaluation, with the profile left to the caller.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.ndim != 2 or cols.ndim != 2 or rows.shape[0] != cols.shape[0]:
            raise ValueError(
                f"distance_blocks expects (B, m) rows and (B, n) cols, got "
                f"{rows.shape} and {cols.shape}"
            )
        return pairwise_distances(self.points[rows], self.points[cols])

    def with_kernel(
        self, kernel: KernelFn, diagonal_shift: Optional[float] = None
    ) -> "KernelMatrix":
        """A sibling matrix over the *same points* with a new kernel.

        The points array is shared (no copy), so a sweep builds one
        :class:`KernelMatrix` per parameter value without duplicating the
        geometry.  ``diagonal_shift`` defaults to this matrix's shift.
        """
        return KernelMatrix(
            kernel=kernel,
            points=self.points,
            diagonal_shift=self.diagonal_shift
            if diagonal_shift is None
            else diagonal_shift,
        )

    def matvec(self, x: np.ndarray, block_size: int = 2048) -> np.ndarray:
        """``K @ x`` evaluated in row blocks of ``block_size`` (O(N) memory)."""
        return blockwise_matvec(self.entries, self.n, x, block_size)

    # ------------------------------------------------------------------
    # HODLR construction
    # ------------------------------------------------------------------
    def to_hodlr(
        self,
        leaf_size: int = 64,
        tol: float = 1e-10,
        method: str = "rook",
        max_rank: Optional[int] = None,
        reorder: bool = True,
        construction: str = "batched",
        context: Optional[ExecutionContext] = None,
    ) -> Tuple[HODLRMatrix, np.ndarray]:
        """Build a HODLR approximation of the kernel matrix.

        Returns ``(hodlr, perm)`` where ``perm`` is the kd-tree reordering of
        the points: the HODLR matrix approximates ``K[perm][:, perm]``.  When
        ``reorder=False`` the natural point order is used (appropriate when
        the points already follow a space-filling order, e.g. a contour).
        ``construction="batched"`` (default) builds level-major through the
        batched kernels; a ``context`` with
        :data:`~repro.backends.dispatch.LOOP_POLICY` gives the per-block
        baseline.

        ``context`` selects where construction runs: a device-resident
        :class:`~repro.backends.context.ExecutionContext` moves the points
        to the device once and the gathered level evaluations, batched
        compressions, and resulting HODLR blocks all stay there (the
        kd-tree ordering itself is computed on the host — it is O(N log N)
        integer work on coordinates, not part of the hot path).
        """
        device = context is not None and context.device_resident
        if reorder:
            # the kd-tree is built from host coordinates (cheap, index-only
            # work); only non-NumPy point arrays need the explicit transfer
            host_points = self.points
            if device and not isinstance(self.points, np.ndarray):
                host_points = context.to_host(self.points)
            tree, perm = ClusterTree.from_points(host_points, leaf_size=leaf_size)
        else:
            tree = ClusterTree.balanced(self.n, leaf_size=leaf_size)
            perm = np.arange(self.n)

        points = context.to_device(self.points) if device else self.points
        permuted = KernelMatrix(
            kernel=self.kernel, points=points[perm], diagonal_shift=self.diagonal_shift
        )
        config = CompressionConfig(
            tol=tol, max_rank=max_rank, method=method, construction=construction
        )
        # the KernelMatrix itself is passed (not just ``entries``) so the
        # builder can use the gather-based multi-block evaluator
        hodlr = build_hodlr(permuted, tree, config=config, context=context)
        return hodlr, perm
