"""Cluster trees (Definition 1 of the paper).

A cluster tree is a perfect binary tree over the index set
``I = {0, ..., N-1}`` (we use 0-based indices).  Every node owns a
*consecutive* index range, siblings partition their parent's range, and the
nodes at a level partition ``I``.  The tree dictates the HODLR tessellation
of a matrix: leaves correspond to dense diagonal blocks, sibling pairs to
low-rank off-diagonal blocks.

Two constructions are provided:

* :meth:`ClusterTree.balanced` — split the index range in half recursively
  (what the paper uses for contour discretizations, where indices follow
  the parametrization and are already geometrically ordered);
* :meth:`ClusterTree.from_points` — recursive coordinate bisection (a k-d
  tree) for scattered point sets; it returns the tree *and* the permutation
  that reorders the points so each node's indices are consecutive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np


@dataclass
class TreeNode:
    """One node of a cluster tree.

    Attributes
    ----------
    index:
        Position of the node in the level-order (breadth-first) numbering
        used throughout the paper: the root is 1, the children of node
        ``i`` are ``2i`` and ``2i+1`` (Fig. 1).
    level:
        Depth of the node; the root is at level 0.
    start, stop:
        Half-open index range ``[start, stop)`` owned by the node.
    """

    index: int
    level: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop)

    @property
    def is_root(self) -> bool:
        return self.index == 1

    @property
    def parent_index(self) -> int:
        return self.index // 2

    @property
    def left_child_index(self) -> int:
        return 2 * self.index

    @property
    def right_child_index(self) -> int:
        return 2 * self.index + 1

    @property
    def sibling_index(self) -> int:
        return self.index + 1 if self.index % 2 == 0 else self.index - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TreeNode(index={self.index}, level={self.level}, range=[{self.start},{self.stop}))"


class ClusterTree:
    """A perfect binary cluster tree over ``{0, ..., n-1}``.

    Parameters
    ----------
    n:
        Number of indices (matrix dimension).
    levels:
        Number of partitioning levels ``L``; the tree has ``L + 1`` levels
        (0 through L) and ``2**L`` leaves.

    Notes
    -----
    The tree is stored implicitly as an array of split points per node,
    which keeps construction O(N) and node lookup O(1).
    """

    def __init__(self, n: int, levels: int, splits: Optional[dict] = None) -> None:
        if n < 2:
            raise ValueError("cluster tree requires at least two indices")
        if levels < 1:
            raise ValueError("cluster tree requires at least one level")
        if 2 ** levels > n:
            raise ValueError(
                f"cannot build {levels} levels over {n} indices: leaves would be empty"
            )
        self.n = int(n)
        self.levels = int(levels)
        # ranges[node_index] = (start, stop)
        self._ranges = {1: (0, self.n)}
        # the tree is immutable after _build, so TreeNode instances and
        # per-level node lists are shared via these caches (node() sits on
        # the hot path of plan construction)
        self._nodes: dict = {}
        self._levels_cache: dict = {}
        self._build(splits)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, splits: Optional[dict]) -> None:
        for level in range(self.levels):
            for idx in self.level_indices(level):
                start, stop = self._ranges[idx]
                if splits is not None and idx in splits:
                    mid = splits[idx]
                else:
                    mid = start + (stop - start) // 2
                if not (start < mid < stop):
                    raise ValueError(f"invalid split {mid} for node {idx} range [{start},{stop})")
                self._ranges[2 * idx] = (start, mid)
                self._ranges[2 * idx + 1] = (mid, stop)

    @classmethod
    def balanced(cls, n: int, leaf_size: int = 64, levels: Optional[int] = None) -> "ClusterTree":
        """Build a tree by halving index ranges until leaves are <= ``leaf_size``.

        Either ``leaf_size`` or an explicit number of ``levels`` may be given;
        an explicit ``levels`` wins.
        """
        if levels is None:
            if leaf_size < 1:
                raise ValueError("leaf_size must be positive")
            levels = 0
            size = n
            while size > leaf_size and 2 ** (levels + 1) <= n:
                levels += 1
                size = (size + 1) // 2
            levels = max(levels, 1)
        return cls(n, levels)

    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        leaf_size: int = 64,
        levels: Optional[int] = None,
    ) -> Tuple["ClusterTree", np.ndarray]:
        """Recursive coordinate bisection (k-d style) over a point cloud.

        Parameters
        ----------
        points:
            Array of shape ``(n, d)``.
        leaf_size, levels:
            Stopping criteria as in :meth:`balanced`.

        Returns
        -------
        tree:
            The cluster tree.
        perm:
            Permutation of length ``n`` such that ``points[perm]`` is ordered
            consistently with the tree (node ``alpha`` owns
            ``points[perm][start:stop]``).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        n = points.shape[0]
        if levels is None:
            levels = 0
            size = n
            while size > leaf_size and 2 ** (levels + 1) <= n:
                levels += 1
                size = (size + 1) // 2
            levels = max(levels, 1)

        perm = np.arange(n)
        splits = {}

        # breadth-first bisection along the widest coordinate of each cluster
        ranges = {1: (0, n)}
        for level in range(levels):
            for pos in range(2 ** level):
                idx = 2 ** level + pos
                start, stop = ranges[idx]
                sub = perm[start:stop]
                pts = points[sub]
                widths = pts.max(axis=0) - pts.min(axis=0)
                axis = int(np.argmax(widths))
                order = np.argsort(pts[:, axis], kind="stable")
                perm[start:stop] = sub[order]
                mid = start + (stop - start) // 2
                splits[idx] = mid
                ranges[2 * idx] = (start, mid)
                ranges[2 * idx + 1] = (mid, stop)

        return cls(n, levels, splits=splits), perm

    # ------------------------------------------------------------------
    # node access
    # ------------------------------------------------------------------
    def node(self, index: int) -> TreeNode:
        """Return the node with level-order index ``index`` (root = 1)."""
        cached = self._nodes.get(index)
        if cached is not None:
            return cached
        if index not in self._ranges:
            raise KeyError(f"node {index} not in a tree with {self.levels} levels")
        level = int(index).bit_length() - 1
        start, stop = self._ranges[index]
        nd = TreeNode(index=index, level=level, start=start, stop=stop)
        self._nodes[index] = nd
        return nd

    def level_indices(self, level: int) -> range:
        """Level-order indices of the nodes at ``level`` (there are 2**level)."""
        if not 0 <= level <= self.levels:
            raise ValueError(f"level {level} out of range [0, {self.levels}]")
        return range(2 ** level, 2 ** (level + 1))

    def level_nodes(self, level: int) -> List[TreeNode]:
        cached = self._levels_cache.get(level)
        if cached is None:
            cached = [self.node(i) for i in self.level_indices(level)]
            self._levels_cache[level] = cached
        return cached

    @property
    def root(self) -> TreeNode:
        return self.node(1)

    @property
    def leaves(self) -> List[TreeNode]:
        return self.level_nodes(self.levels)

    @property
    def num_leaves(self) -> int:
        return 2 ** self.levels

    @property
    def num_nodes(self) -> int:
        return 2 ** (self.levels + 1) - 1

    def children(self, node: TreeNode) -> Tuple[TreeNode, TreeNode]:
        if node.level >= self.levels:
            raise ValueError(f"node {node.index} is a leaf")
        return self.node(node.left_child_index), self.node(node.right_child_index)

    def parent(self, node: TreeNode) -> TreeNode:
        if node.is_root:
            raise ValueError("the root has no parent")
        return self.node(node.parent_index)

    def sibling(self, node: TreeNode) -> TreeNode:
        if node.is_root:
            raise ValueError("the root has no sibling")
        return self.node(node.sibling_index)

    def is_leaf(self, node: TreeNode) -> bool:
        return node.level == self.levels

    # ------------------------------------------------------------------
    # iteration / misc
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TreeNode]:
        for idx in range(1, self.num_nodes + 1):
            yield self.node(idx)

    def sibling_pairs(self, level: int) -> List[Tuple[TreeNode, TreeNode]]:
        """All (left, right) sibling pairs at a level >= 1."""
        if level < 1:
            raise ValueError("sibling pairs exist for levels >= 1")
        nodes = self.level_nodes(level)
        return [(nodes[i], nodes[i + 1]) for i in range(0, len(nodes), 2)]

    def leaf_sizes(self) -> np.ndarray:
        return np.array([leaf.size for leaf in self.leaves])

    def validate(self) -> None:
        """Check the structural invariants of Definition 1 (used by tests)."""
        for level in range(self.levels + 1):
            nodes = self.level_nodes(level)
            # nodes at a level partition [0, n)
            starts = [nd.start for nd in nodes]
            stops = [nd.stop for nd in nodes]
            if starts[0] != 0 or stops[-1] != self.n:
                raise AssertionError("level does not cover the full index range")
            for a, b in zip(stops[:-1], starts[1:]):
                if a != b:
                    raise AssertionError("level ranges are not contiguous")
            for nd in nodes:
                if nd.size <= 0:
                    raise AssertionError("empty node")
        # children partition the parent
        for level in range(self.levels):
            for nd in self.level_nodes(level):
                left, right = self.children(nd)
                if left.start != nd.start or right.stop != nd.stop or left.stop != right.start:
                    raise AssertionError("children do not partition their parent")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterTree(n={self.n}, levels={self.levels}, leaves={self.num_leaves})"
