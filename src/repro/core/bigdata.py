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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..backends.dispatch import ArrayBackend, get_backend
from .cluster_tree import ClusterTree, TreeNode
from .hodlr import HODLRMatrix


@dataclass
class BigMatrices:
    """Concatenated storage of a HODLR matrix (``Ubig``, ``Vbig``, ``Dbig``)."""

    tree: ClusterTree
    #: per-level padded rank, index ``ell - 1`` for level ``ell`` (1..L)
    level_ranks: List[int]
    #: column offset of each level's block inside Ubig/Vbig; ``offsets[ell]`` is
    #: the first column of level ``ell + 1``'s block, ``offsets[0] == 0``.
    col_offsets: List[int]
    Ubig: np.ndarray
    Vbig: np.ndarray
    #: leaf node index -> dense diagonal block
    Dbig: Dict[int, np.ndarray]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_hodlr(
        cls,
        hodlr: HODLRMatrix,
        dtype=None,
        backend: Optional[ArrayBackend] = None,
    ) -> "BigMatrices":
        """Pack a :class:`HODLRMatrix` into the concatenated layout.

        ``backend`` owns the big-matrix storage: device-resident HODLR
        blocks pack into device-resident ``Ubig``/``Vbig``/``Dbig``.
        """
        tree = hodlr.tree
        xb = backend if backend is not None else get_backend("numpy")
        if dtype is None:
            dtype = hodlr.dtype

        level_ranks: List[int] = []
        for level in range(1, tree.levels + 1):
            ranks = [hodlr.U[i].shape[1] for i in tree.level_indices(level)]
            ranks += [hodlr.V[i].shape[1] for i in tree.level_indices(level)]
            level_ranks.append(int(max(ranks)) if ranks else 0)

        col_offsets = [0]
        for r in level_ranks:
            col_offsets.append(col_offsets[-1] + r)
        total_cols = col_offsets[-1]

        n = tree.n
        Ubig = xb.zeros((n, total_cols), dtype=dtype)
        Vbig = xb.zeros((n, total_cols), dtype=dtype)
        for level in range(1, tree.levels + 1):
            c0 = col_offsets[level - 1]
            r = level_ranks[level - 1]
            for idx in tree.level_indices(level):
                node = tree.node(idx)
                u = hodlr.U[idx]
                v = hodlr.V[idx]
                Ubig[node.start : node.stop, c0 : c0 + u.shape[1]] = u
                Vbig[node.start : node.stop, c0 : c0 + v.shape[1]] = v

        Dbig = {
            leaf.index: xb.asarray(hodlr.diag[leaf.index]).astype(dtype)
            for leaf in tree.leaves
        }
        return cls(
            tree=tree,
            level_ranks=level_ranks,
            col_offsets=col_offsets,
            Ubig=Ubig,
            Vbig=Vbig,
            Dbig=Dbig,
        )

    def copy(self) -> "BigMatrices":
        return BigMatrices(
            tree=self.tree,
            level_ranks=list(self.level_ranks),
            col_offsets=list(self.col_offsets),
            Ubig=self.Ubig.copy(),
            Vbig=self.Vbig.copy(),
            Dbig={k: v.copy() for k, v in self.Dbig.items()},
        )

    def astype(self, dtype) -> "BigMatrices":
        return BigMatrices(
            tree=self.tree,
            level_ranks=list(self.level_ranks),
            col_offsets=list(self.col_offsets),
            Ubig=self.Ubig.astype(dtype),
            Vbig=self.Vbig.astype(dtype),
            Dbig={k: v.astype(dtype) for k, v in self.Dbig.items()},
        )

    # ------------------------------------------------------------------
    # views used by the algorithms
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def dtype(self) -> np.dtype:
        return self.Ubig.dtype

    @property
    def total_rank_cols(self) -> int:
        return self.col_offsets[-1]

    @property
    def nbytes(self) -> int:
        return int(
            self.Ubig.nbytes
            + self.Vbig.nbytes
            + sum(d.nbytes for d in self.Dbig.values())
        )

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

    def uniform_node_size(self, level: int) -> Optional[int]:
        """Common node size at a level if uniform, else ``None``."""
        sizes = {nd.size for nd in self.tree.level_nodes(level)}
        return sizes.pop() if len(sizes) == 1 else None

    def leaf_blocks_stacked(self) -> Optional[np.ndarray]:
        """All leaf diagonal blocks as a 3-D array if leaf sizes are uniform."""
        m = self.uniform_leaf_size()
        if m is None:
            return None
        leaves = self.tree.leaves
        first = self.Dbig[leaves[0].index]
        if type(first) is np.ndarray:
            out = np.empty((len(leaves), m, m), dtype=self.dtype)
            for i, leaf in enumerate(leaves):
                out[i] = self.Dbig[leaf.index]
            return out
        # non-NumPy blocks (device arrays, recording stubs): np.stack
        # dispatches to the blocks' own array library, no host copy
        return np.stack([self.Dbig[leaf.index] for leaf in leaves])

    def block_rows(self, level: int, cols: slice, matrix: np.ndarray) -> List[np.ndarray]:
        """Row blocks of ``matrix[:, cols]`` partitioned by the nodes at ``level``.

        This is the ``block-row view`` (superscript ``ell`` notation) of
        Table I in the paper.  The returned arrays are *views* into the big
        matrix, so writing to them updates the underlying storage.
        """
        return [matrix[nd.start : nd.stop, cols] for nd in self.tree.level_nodes(level)]

    def block_rows_stacked(
        self, level: int, cols: slice, matrix: np.ndarray
    ) -> Optional[np.ndarray]:
        """Strided (3-D) block-row view when all nodes at ``level`` have equal size.

        Returns ``None`` if node sizes differ (the pointer-array path must be
        used) or if the underlying memory cannot be exposed without a copy.
        """
        size = self.uniform_node_size(level)
        if size is None:
            return None
        sub = matrix[:, cols]
        nnodes = 2 ** level
        if sub.shape[0] != nnodes * size:
            return None
        return sub.reshape(nnodes, size, sub.shape[1])

    def storage_report(self) -> Dict[str, float]:
        d = float(sum(v.nbytes for v in self.Dbig.values()))
        uv = float(self.Ubig.nbytes + self.Vbig.nbytes)
        return {
            "diag_bytes": d,
            "basis_bytes": uv,
            "total_bytes": d + uv,
            "total_gb": (d + uv) / 1.0e9,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BigMatrices(n={self.n}, levels={self.tree.levels}, "
            f"level_ranks={self.level_ranks}, dtype={self.dtype})"
        )
