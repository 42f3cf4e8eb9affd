"""The paper's concatenated big-matrix data structure (Figs. 3 and 4).

The central idea of the paper is to store the low-rank bases of *all*
off-diagonal blocks in two big matrices:

* ``Ubig`` — left bases.  Column block ``ell`` (of width ``r_ell``) holds,
  stacked vertically by node, the ``U_alpha`` of every node ``alpha`` at
  level ``ell``; because nodes at a level partition the row indices, the
  column block is simply an ``N x r_ell`` matrix.
* ``Vbig`` — right bases, laid out identically.

The factorization overwrites ``Ubig`` with ``Ybig`` (the solved bases) and
stores the LU factors of the leaf diagonal blocks (``Dbig``) and of the
per-node reduced systems (``Kbig``) in place.  With this layout a single
batched kernel can touch every basis at a level — or, through the
``Ybig(:, 1 : r*ell)`` column prefix, every basis at all coarser levels —
without any gather/scatter.

Ranks are allowed to differ between levels; within a level all bases are
zero-padded to the level's maximum rank so that the strided-batched fast
path applies.  (Zero columns in ``U``/``V`` represent the same matrix and
propagate harmlessly through the algorithms; tests verify this.)

A :class:`~repro.core.hodlr.HODLRMatrix` already stores each level's bases
this way, as per-node-size ``(nb, M, r_ell)`` stacks.
:meth:`BigMatrices.from_hodlr` therefore wraps the matrix's own storage
without copying it: ``Dbig`` is the matrix's ``diag`` view dict, and the
concatenated ``Ubig``/``Vbig`` are assembled on first access only (for
analysis; the factorization never reads them —
:func:`~repro.core.factor_plan.build_factor_plan` assembles a working
``Ybig`` and drops it when done).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from .cluster_tree import ClusterTree, TreeNode
from .hodlr import HODLRMatrix


def concat_bases(bases, tree: ClusterTree, level_ranks: List[int], zeros, dtype) -> np.ndarray:
    """The ``(n, sum r_ell)`` concatenated layout of per-node ``bases``
    (``U`` or ``V``), each level zero-padded to its rank; ``zeros(shape,
    dtype)`` allocates it."""
    out = zeros((tree.n, int(sum(level_ranks))), dtype=dtype)
    c0 = 0
    for level, r in enumerate(level_ranks, start=1):
        for idx in tree.level_indices(level):
            node = tree.node(idx)
            b = bases[idx]
            out[node.start : node.stop, c0 : c0 + b.shape[1]] = b
        c0 += r
    return out


class BigMatrices:
    """The concatenated view (``Ubig``, ``Vbig``, ``Dbig``) of a HODLR matrix."""

    def __init__(self, hodlr: HODLRMatrix) -> None:
        self.hodlr = hodlr
        self.tree: ClusterTree = hodlr.tree
        #: per-level padded rank, index ``ell - 1`` for level ``ell`` (1..L)
        self.level_ranks: List[int] = list(hodlr.storage.level_ranks)
        #: column offset of each level's block inside Ubig/Vbig;
        #: ``offsets[ell]`` is the first column of level ``ell + 1``'s block
        self.col_offsets: List[int] = [0]
        for r in self.level_ranks:
            self.col_offsets.append(self.col_offsets[-1] + r)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_hodlr(cls, hodlr: HODLRMatrix, dtype=None) -> "BigMatrices":
        """Wrap ``hodlr``'s storage (cast first when ``dtype`` differs)."""
        if dtype is not None and np.dtype(dtype) != hodlr.dtype:
            hodlr = hodlr.astype(dtype)
        return cls(hodlr)

    def copy(self) -> "BigMatrices":
        return BigMatrices(self.hodlr.copy())

    def astype(self, dtype) -> "BigMatrices":
        return BigMatrices(self.hodlr.astype(dtype))

    @property
    def Dbig(self) -> Dict[int, np.ndarray]:
        """Leaf node index -> dense diagonal block (views of the matrix)."""
        return self.hodlr.diag

    def _concat(self, bases) -> np.ndarray:
        # allocated in the matrix's own array library (device stays device)
        like = next(iter(self.Dbig.values()))
        return concat_bases(
            bases,
            self.tree,
            self.level_ranks,
            lambda shape, dtype: np.zeros_like(like, shape=shape, dtype=dtype),
            self.dtype,
        )

    @cached_property
    def Ubig(self) -> np.ndarray:
        """Concatenated left bases (assembled on first access)."""
        return self._concat(self.hodlr.U)

    @cached_property
    def Vbig(self) -> np.ndarray:
        """Concatenated right bases (assembled on first access)."""
        return self._concat(self.hodlr.V)

    # ------------------------------------------------------------------
    # views used by the algorithms
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def dtype(self) -> np.dtype:
        return self.hodlr.dtype

    @property
    def total_rank_cols(self) -> int:
        return self.col_offsets[-1]

    @property
    def nbytes(self) -> int:
        """Bytes of the wrapped matrix's storage."""
        return self.hodlr.nbytes

    def rank_at_level(self, level: int) -> int:
        """Padded rank of the off-diagonal blocks whose row nodes live at ``level``."""
        if not 1 <= level <= self.tree.levels:
            raise ValueError(f"level {level} out of range [1, {self.tree.levels}]")
        return self.level_ranks[level - 1]

    def level_cols(self, level: int) -> slice:
        """Column slice of ``Ubig``/``Vbig`` holding level ``level``'s bases."""
        if not 1 <= level <= self.tree.levels:
            raise ValueError(f"level {level} out of range [1, {self.tree.levels}]")
        return slice(self.col_offsets[level - 1], self.col_offsets[level])

    def cols_up_to(self, level: int) -> slice:
        """Columns of all levels 1..``level`` (the ``1 : r*ell`` prefix of the paper)."""
        if not 0 <= level <= self.tree.levels:
            raise ValueError(f"level {level} out of range [0, {self.tree.levels}]")
        return slice(0, self.col_offsets[level])

    def node_rows(self, node: TreeNode) -> slice:
        return slice(node.start, node.stop)

    def uniform_leaf_size(self) -> Optional[int]:
        """Common leaf size if all leaves are equal, else ``None``."""
        sizes = {leaf.size for leaf in self.tree.leaves}
        return sizes.pop() if len(sizes) == 1 else None

    def leaf_blocks_stacked(self) -> Optional[np.ndarray]:
        """All leaf diagonal blocks as one 3-D array if leaf sizes are
        uniform: the matrix's own stack, not a copy."""
        diag = self.hodlr.storage.diag
        return diag[0].D if len(diag) == 1 else None

    def block_rows(self, level: int, cols: slice, matrix: np.ndarray) -> List[np.ndarray]:
        """Row blocks of ``matrix[:, cols]`` partitioned by the nodes at ``level``.

        This is the ``block-row view`` (superscript ``ell`` notation) of
        Table I in the paper.  The returned arrays are *views* into the big
        matrix, so writing to them updates the underlying storage.
        """
        return [matrix[nd.start : nd.stop, cols] for nd in self.tree.level_nodes(level)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BigMatrices(n={self.n}, levels={self.tree.levels}, "
            f"level_ranks={self.level_ranks}, dtype={self.dtype})"
        )
