"""The HODLR matrix container (Definition 2 of the paper).

A :class:`HODLRMatrix` stores

* a dense diagonal block ``D_alpha = A(I_alpha, I_alpha)`` for every leaf
  ``alpha`` of the cluster tree, and
* low-rank bases ``U_alpha`` and ``V_alpha`` for every non-root node, such
  that for a sibling pair ``(alpha, beta)``

  .. math:: A(I_\\alpha, I_\\beta) = U_\\alpha V_\\beta^*, \\qquad
            A(I_\\beta, I_\\alpha) = U_\\beta V_\\alpha^*.

The convention names the factors after the node whose row (for ``U``) or
column (for ``V``) indices they span, which is exactly the naming used by
the paper's algorithms.  The matrix need not be symmetric: in general the
two off-diagonal blocks of a sibling pair are compressed independently.
When the source *is* symmetric (``A = A^T``, as radial kernel matrices are,
complex Helmholtz kernels included) only ``A(I_alpha, I_beta)`` is
compressed and its factors are mirrored: ``A(I_beta, I_alpha) =
(U_alpha V_beta^*)^T = conj(V_beta) conj(U_alpha)^*``, so the builder sets
``U_beta = conj(V_beta)`` and ``V_alpha = conj(U_alpha)``.  That halves the
kernel evaluations and compression work of construction, keeps the
``U V^*`` convention everything downstream reads, and lets the matrix store
only ``U`` (``V = conj(U)`` node by node).  Symmetry is decided by probing
the source (see :func:`build_hodlr`), never assumed.

Construction paths
------------------
* :func:`build_hodlr_from_dense` — compress an explicitly stored matrix;
* :func:`build_hodlr` — compress anything that can evaluate sub-blocks
  ``entries(rows, cols)`` (kernel matrices, BIE operators) without ever
  forming the full matrix.  The default ``construction="batched"`` runs
  *level-major*: every off-diagonal block of a tree level is gathered with
  one multi-block ``entries_blocks`` evaluation (when the source supports
  it) and compressed through the shape-bucketed batched kernels.  Rook
  compression never materialises the blocks: the blocks of a shape bucket
  advance their crosses in lockstep, one gathered evaluation per cross
  step.  Under a context with :data:`~repro.backends.dispatch.LOOP_POLICY`
  the same builder compresses block by block — the per-block baseline.

Application paths
-----------------
:meth:`HODLRMatrix.matvec` is the reference: it walks the tree block by
block at the stored precision.  The fast path is a compiled
:class:`~repro.core.apply_plan.ApplyPlan` — ``ApplyPlan(H, context=...)``
or the one :class:`~repro.api.operator.HODLROperator` owns — which reads
the matrix's per-level shape-bucketed stacks as views and runs every
product as a handful of batched gemm launches; Krylov loops should use it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import InitVar, dataclass
from types import MappingProxyType
from typing import Dict, List, Optional, Union

import numpy as np

from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.dispatch import plan_batch
from .cluster_tree import ClusterTree, TreeNode
from .compression import (
    BlockEvaluator,
    CompressionConfig,
    ConfigError,
    compress_block,
    compress_block_stack,
    rook_pivot_compress_stack,
)


@dataclass
class DiagBucket:
    """The dense diagonal blocks of one leaf-size bucket."""

    nodes: List[TreeNode]
    #: (nb, M, M) diagonal blocks
    D: np.ndarray


@dataclass
class BasisBucket:
    """The bases of one ``(level, node size)`` bucket.

    ``U`` is a C-contiguous ``(nb, M, r)`` stack zero-padded to the level
    rank ``r``.  ``V`` has the same layout; on a real symmetric source it
    *is* ``U``, and on a complex symmetric one it is ``None`` (``V =
    conj(U)``, so only ``U`` is stored).
    """

    #: positions of the members within ``tree.level_nodes(level)``
    positions: np.ndarray
    nodes: List[TreeNode]
    U: np.ndarray
    V: Optional[np.ndarray]

    def vh(self) -> np.ndarray:
        """``V^*`` of every member as ``(nb, r, M)``: a transposed view of
        this storage, except for complex non-symmetric bases, which need a
        conjugated copy."""
        if self.V is None:
            return self.U.transpose(0, 2, 1)  # (conj U)^* = U^T
        if np.iscomplexobj(self.V):
            return self.V.conj().transpose(0, 2, 1)
        return self.V.transpose(0, 2, 1)


@dataclass
class HODLRStorage:
    """Every array a :class:`HODLRMatrix` owns: per-leaf-size diagonal
    stacks and per-level, per-node-size basis stacks (the buckets both
    compiled plans replay)."""

    #: padded rank of level ``ell`` at index ``ell - 1``
    level_ranks: List[int]
    diag: List[DiagBucket]
    #: level -> basis buckets
    bases: Dict[int, List[BasisBucket]]

    def buffers(self) -> List[np.ndarray]:
        """The owned stacks, each listed once."""
        out = [b.D for b in self.diag]
        for buckets in self.bases.values():
            for b in buckets:
                out.append(b.U)
                if b.V is not None and b.V is not b.U:
                    out.append(b.V)
        return out

    @property
    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in self.buffers()))


class _ConjBases(Mapping):
    """``V`` of a complex symmetric matrix: ``V[k] = conj(U[k])`` on access."""

    def __init__(self, U: Mapping) -> None:
        self._U = U

    def __getitem__(self, key: int) -> np.ndarray:
        return self._U[key].conj()

    def __iter__(self):
        return iter(self._U)

    def __len__(self) -> int:
        return len(self._U)


def _stack_into(like, blocks, shape, dtype, old=None, rows=None) -> np.ndarray:
    """Zero-padded ``(nb, M, r)`` stack of ``blocks``, allocated in the
    blocks' own array library (device blocks stay on the device).

    ``old`` is an earlier matrix's stack of the same node size and
    ``rows[j]`` the row of ``old`` that member ``j``'s block *is* (``-1``
    for a new block): the kept members are copied from it one run of
    consecutive rows at a time (a slice copy each), and only the new
    blocks are written one by one.
    """
    out = np.zeros_like(like, shape=shape, dtype=dtype)
    kept = np.zeros(shape[0], dtype=bool) if rows is None else rows >= 0
    j = np.flatnonzero(kept)
    if j.size:
        # a kept block is no wider than the new rank, so truncating the
        # old stack's padding to it loses only zeros
        w = min(shape[2], old.shape[2])
        cut = np.flatnonzero((np.diff(j) != 1) | (np.diff(rows[j]) != 1)) + 1
        for a, b in zip([0, *cut], [*cut, j.size]):
            dst, src, m = int(j[a]), int(rows[j[a]]), int(b - a)
            out[dst : dst + m, :, :w] = old[src : src + m, :, :w]
    for i in np.flatnonzero(~kept):
        blk = blocks[i]
        out[i, :, : blk.shape[1]] = blk
    return out


def _reusable(nodes, blocks: Mapping, old_bucket, side: str, old_blocks):
    """``(old, rows)`` for :func:`_stack_into`: ``old_bucket``'s ``side``
    stack (an earlier matrix's bucket of the same node size) and, per
    member, the row whose view ``blocks`` still holds (``-1`` for a
    replaced block); ``(None, None)`` when there is nothing to reuse."""
    old = None if old_bucket is None or old_blocks is None else getattr(old_bucket, side)
    if old is None:
        return None, None
    where = {nd.index: j for j, nd in enumerate(old_bucket.nodes)}
    rows = np.fromiter(
        (
            where[nd.index]
            if nd.index in where and blocks[nd.index] is old_blocks.get(nd.index)
            else -1
            for nd in nodes
        ),
        dtype=np.intp,
        count=len(nodes),
    )
    return old, rows


@dataclass
class HODLRMatrix:
    """A matrix in HODLR format over a cluster tree.

    The constructor copies the blocks once into :attr:`storage`, the layout
    the compiled plans replay: one stack per leaf-size bucket of diagonal
    blocks, and per level one ``U`` and one ``V`` stack per node-size
    bucket, ranks zero-padded to the level rank.  The ``diag``, ``U`` and
    ``V`` mappings are the read-only per-node API over views of those
    stacks (``stack[j, :, :rank]``); build a new matrix to replace blocks.
    With ``symmetric=True`` (``V[k] == conj(U[k])`` for every node, as
    :func:`build_hodlr` produces on a symmetric source) ``V`` is not stored:
    a real matrix's ``V`` holds the ``U`` views themselves, a complex one
    conjugates ``U`` on access.

    ``_parent`` (used by the streaming updates of :mod:`repro.core.update`)
    is an earlier matrix on the same tree topology whose per-node views the
    block mappings still hold for every clean node: those blocks are
    copied from its stacks a run of consecutive rows at a time.  The new
    matrix owns every stack it holds; no stack is shared with the parent.
    """

    tree: ClusterTree
    #: leaf index -> dense diagonal block
    diag: Mapping
    #: non-root node index -> left basis U_alpha  (rows = |I_alpha|)
    U: Mapping
    #: non-root node index -> right basis V_alpha (rows = |I_alpha|); not
    #: read when ``symmetric``
    V: Mapping
    #: ``V[k] == conj(U[k])`` for every node: the bases are stored once
    symmetric: bool = False
    _parent: InitVar[Optional["HODLRMatrix"]] = None

    def __post_init__(self, _parent: Optional["HODLRMatrix"]) -> None:
        tree = self.tree
        parent = _parent  # an earlier matrix whose clean views the blocks still hold
        like = next(iter(self.diag.values()))
        ddt = np.result_type(*{d.dtype for d in self.diag.values()})

        diag: Dict[int, np.ndarray] = {}
        diag_buckets: List[DiagBucket] = []
        leaves = tree.leaves
        old_diag = {} if parent is None else {b.D.shape[1]: b for b in parent.storage.diag}
        for b in plan_batch([leaf.size for leaf in leaves]).buckets:
            nodes = [leaves[i] for i in b.indices]
            shape = (len(nodes), b.key, b.key)
            D = _stack_into(
                like, [self.diag[nd.index] for nd in nodes], shape, ddt,
                *_reusable(nodes, self.diag, old_diag.get(b.key), "D", parent and parent.diag),
            )
            diag_buckets.append(DiagBucket(nodes=nodes, D=D))
            diag.update((nd.index, D[j]) for j, nd in enumerate(nodes))

        sides = [self.U] if self.symmetric else [self.U, self.V]
        old_sides = [None, None]
        if parent is not None:
            # a complex symmetric parent's V conjugates on access: no views
            old_sides = [parent.U, None if isinstance(parent.V, _ConjBases) else parent.V]
        bdt = np.result_type(ddt, *{a.dtype for side in sides for a in side.values()})
        alias = self.symmetric and bdt.kind != "c"  # real symmetric: V is U
        U: Dict[int, np.ndarray] = {}
        V: Dict[int, np.ndarray] = {}
        level_ranks: List[int] = []
        bases: Dict[int, List[BasisBucket]] = {}
        for level in range(1, tree.levels + 1):
            nodes_l = tree.level_nodes(level)
            r = max(side[nd.index].shape[1] for side in sides for nd in nodes_l)
            level_ranks.append(int(r))
            bases[level] = []
            old_bases = (
                {} if parent is None
                else {ob.U.shape[1]: ob for ob in parent.storage.bases.get(level, ())}
            )
            for b in plan_batch([nd.size for nd in nodes_l]).buckets:
                nodes = [nodes_l[i] for i in b.indices]
                shape = (len(nodes), b.key, r)
                Ub, *Vb = [
                    _stack_into(
                        like, [side[nd.index] for nd in nodes], shape, bdt,
                        *_reusable(nodes, side, old_bases.get(b.key), name, old_side),
                    )
                    for side, name, old_side in zip(sides, ("U", "V"), old_sides)
                ]
                Vb = Vb[0] if Vb else (Ub if alias else None)
                bases[level].append(BasisBucket(
                    positions=np.asarray(b.indices, dtype=np.intp), nodes=nodes, U=Ub, V=Vb
                ))
                for j, nd in enumerate(nodes):
                    U[nd.index] = Ub[j, :, : self.U[nd.index].shape[1]]
                    if alias:
                        V[nd.index] = U[nd.index]
                    elif Vb is not None:
                        V[nd.index] = Vb[j, :, : self.V[nd.index].shape[1]]

        self.diag = MappingProxyType(diag)
        self.U = MappingProxyType(U)
        self.V = MappingProxyType(V) if not self.symmetric or alias else _ConjBases(self.U)
        #: the stacks every per-node view points into
        self.storage = HODLRStorage(level_ranks=level_ranks, diag=diag_buckets, bases=bases)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return (self.tree.n, self.tree.n)

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def dtype(self) -> np.dtype:
        return next(iter(self.diag.values())).dtype

    @property
    def nbytes(self) -> int:
        """Bytes of the owned stacks (the per-node views add nothing)."""
        return self.storage.nbytes

    @property
    def memory_gb(self) -> float:
        """Memory footprint in GB (the ``mem`` column of the paper's tables)."""
        return self.nbytes / 1.0e9

    def rank_of_pair(self, alpha: int) -> int:
        """Rank of the off-diagonal block whose rows belong to node ``alpha``."""
        return self.U[alpha].shape[1]

    def rank_profile(self) -> List[int]:
        """Maximum off-diagonal rank per level, from level 1 to the leaves.

        This reproduces the per-level rank lists reported in the paper's
        appendix (and is the padded rank of each level's stacks).
        """
        return list(self.storage.level_ranks)

    @property
    def max_rank(self) -> int:
        return max(self.rank_profile())

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Multiply the HODLR matrix by a vector or a block of vectors.

        The reference path: walks the tree one block at a time, at the
        stored precision.  Repeated products should compile an
        :class:`~repro.core.apply_plan.ApplyPlan` instead.
        """
        x = np.asarray(x)
        if x.ndim > 2:
            raise ValueError(
                f"operand must be a vector or a (n, K) block, got ndim={x.ndim}"
            )
        squeeze = x.ndim == 1
        X = x.reshape(-1, 1) if squeeze else x
        if X.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: matrix is {self.n}, vector is {X.shape[0]}")
        out_dtype = np.result_type(self.dtype, X.dtype)
        y = np.zeros_like(X, dtype=out_dtype)

        # diagonal blocks
        for leaf in self.tree.leaves:
            blk = self.diag[leaf.index]
            y[leaf.start : leaf.stop] += blk @ X[leaf.start : leaf.stop]

        # off-diagonal blocks, one sibling pair at a time
        for level in range(1, self.tree.levels + 1):
            for left, right in self.tree.sibling_pairs(level):
                Ua, Va = self.U[left.index], self.V[left.index]
                Ub, Vb = self.U[right.index], self.V[right.index]
                # A(I_left, I_right) = U_left V_right^*
                y[left.start : left.stop] += Ua @ (Vb.conj().T @ X[right.start : right.stop])
                # A(I_right, I_left) = U_right V_left^*
                y[right.start : right.stop] += Ub @ (Va.conj().T @ X[left.start : left.stop])

        return y.ravel() if squeeze else y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense matrix represented by this HODLR approximation."""
        A = np.zeros((self.n, self.n), dtype=self.dtype)
        for leaf in self.tree.leaves:
            A[leaf.start : leaf.stop, leaf.start : leaf.stop] = self.diag[leaf.index]
        for level in range(1, self.tree.levels + 1):
            for left, right in self.tree.sibling_pairs(level):
                Ua, Va = self.U[left.index], self.V[left.index]
                Ub, Vb = self.U[right.index], self.V[right.index]
                A[left.start : left.stop, right.start : right.stop] = Ua @ Vb.conj().T
                A[right.start : right.stop, left.start : left.stop] = Ub @ Va.conj().T
        return A

    def diagonal_block(self, node: TreeNode) -> np.ndarray:
        """Dense realisation of ``A(I_node, I_node)`` for any tree node."""
        if self.tree.is_leaf(node):
            return self.diag[node.index].copy()
        left, right = self.tree.children(node)
        size = node.size
        blk = np.zeros((size, size), dtype=self.dtype)
        off_l = left.start - node.start
        off_r = right.start - node.start
        blk[off_l : off_l + left.size, off_l : off_l + left.size] = self.diagonal_block(left)
        blk[off_r : off_r + right.size, off_r : off_r + right.size] = self.diagonal_block(right)
        blk[off_l : off_l + left.size, off_r : off_r + right.size] = (
            self.U[left.index] @ self.V[right.index].conj().T
        )
        blk[off_r : off_r + right.size, off_l : off_l + left.size] = (
            self.U[right.index] @ self.V[left.index].conj().T
        )
        return blk

    def astype(self, dtype) -> "HODLRMatrix":
        """Cast all stored blocks to ``dtype`` (single precision runs, Table IVb)."""
        return HODLRMatrix(
            tree=self.tree,
            diag={k: v.astype(dtype) for k, v in self.diag.items()},
            U={k: v.astype(dtype) for k, v in self.U.items()},
            V={} if self.symmetric else {k: v.astype(dtype) for k, v in self.V.items()},
            symmetric=self.symmetric,
        )

    def copy(self) -> "HODLRMatrix":
        # restacking copies every block into fresh stacks
        return HODLRMatrix(
            tree=self.tree,
            diag=dict(self.diag),
            U=dict(self.U),
            V={} if self.symmetric else dict(self.V),
            symmetric=self.symmetric,
        )

    # ------------------------------------------------------------------
    # streaming updates (see :mod:`repro.core.update`)
    # ------------------------------------------------------------------
    def update_points(
        self, source, where, tol: float = 1e-12, max_rank=None, context=None
    ):
        """Insert k points; only the O(log N) dirty blocks are recompressed.

        ``source`` evaluates entries over the *new* ordering and ``where``
        holds the new-ordering indices of the insertions.  Returns a
        :class:`~repro.core.update.HODLRUpdate` (``.matrix`` is the new
        matrix, restacked into its own storage).
        """
        from .update import update_points as _impl

        return _impl(self, source, where, tol=tol, max_rank=max_rank, context=context)

    def remove_points(self, where, tol: float = 1e-12, max_rank=None, context=None):
        """Delete k points (old-ordering indices); no evaluator needed."""
        from .update import remove_points as _impl

        return _impl(self, where, tol=tol, max_rank=max_rank, context=context)

    def move_points(
        self, source, where, tol: float = 1e-12, max_rank=None, context=None
    ):
        """Re-evaluate k points in place (rows and columns at ``where``)."""
        from .update import move_points as _impl

        return _impl(self, source, where, tol=tol, max_rank=max_rank, context=context)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def approximation_error(self, dense: np.ndarray, norm: str = "fro") -> float:
        """Relative error of the HODLR approximation against a dense reference."""
        ref = np.linalg.norm(dense, ord=norm)
        err = np.linalg.norm(self.to_dense() - dense, ord=norm)
        return float(err / ref) if ref > 0 else float(err)

    def storage_report(self) -> Dict[str, float]:
        """Break the memory footprint into diagonal and low-rank contributions."""
        storage = self.storage
        diag_bytes = float(sum(b.D.nbytes for b in storage.diag))
        basis_bytes = float(storage.nbytes) - diag_bytes
        return {
            "diag_bytes": diag_bytes,
            "basis_bytes": basis_bytes,
            "total_bytes": diag_bytes + basis_bytes,
            "total_gb": (diag_bytes + basis_bytes) / 1.0e9,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HODLRMatrix(n={self.n}, levels={self.tree.levels}, "
            f"max_rank={self.max_rank}, mem={self.memory_gb:.3g} GB, dtype={self.dtype})"
        )


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
class _DenseEvaluator:
    """Block evaluator over an explicitly stored matrix (gather-capable)."""

    def __init__(self, A: np.ndarray) -> None:
        self.A = A

    def __call__(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.A[np.ix_(rows, cols)]

    def entries_blocks(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.A[rows[:, :, None], cols[:, None, :]]


def _resolve_evaluator(source):
    """Split a source into ``(entries, entries_blocks-or-None)``.

    Accepts a bare ``entries(rows, cols)`` callable or any object exposing
    ``entries`` (e.g. a :class:`~repro.kernels.kernel_matrix.KernelMatrix`);
    a multi-block gather evaluator is picked up when present.
    """
    if callable(source):
        return source, getattr(source, "entries_blocks", None)
    entries = getattr(source, "entries", None)
    if callable(entries):
        return entries, getattr(source, "entries_blocks", None)
    raise TypeError(
        f"cannot evaluate blocks of {type(source).__name__!r}: expected a dense "
        "array, an entries(rows, cols) callable, or an object with .entries"
    )


#: entries sampled from each side of a sibling pair by the symmetry probe
_PROBE_SAMPLES = 8


def _probe_indices(tree: ClusterTree):
    """Row and column index stacks of the source probe.

    ``k = min(8, smallest node)`` evenly spaced indices are sampled from
    each side of every sibling pair on every level, and each pair appears
    in both orientations: stack entry ``2p`` is ``(left, right)`` and
    ``2p + 1`` is ``(right, left)``, so the ``(2P, k, k)`` probe holds
    ``S_lr`` and ``S_rl`` of every pair.  Returns ``(rows, cols, paired)``;
    a tree without (non-empty) sibling pairs falls back to a ``(1, k, k)``
    diagonal probe of the first leaf, which can only report the dtype.
    """
    pairs = [p for lv in range(1, tree.levels + 1) for p in tree.sibling_pairs(lv)]
    k = min([_PROBE_SAMPLES] + [node.size for pair in pairs for node in pair])
    if not pairs or k == 0:
        rows = tree.leaves[0].indices[None, :2]
        return rows, rows, False

    def sample(node):
        return node.start + (np.arange(k) * (node.size - 1)) // max(k - 1, 1)

    rows, cols = [], []
    for left, right in pairs:
        sl, sr = sample(left), sample(right)
        rows += [sl, sr]
        cols += [sr, sl]
    return np.stack(rows), np.stack(cols), True


def _probe_multi(multi, rows: np.ndarray, cols: np.ndarray):
    """Evaluate the probe stack through the multi-block evaluator; returns
    the stack, or ``None`` if the evaluator does not broadcast."""
    if multi is None:
        return None
    try:
        out = multi(rows, cols)
    except Exception:
        return None
    return out if np.shape(out) == (rows.shape[0], rows.shape[1], cols.shape[1]) else None


def _is_mirror(a, b) -> bool:
    """Whether ``a == b^T`` (last two axes) up to the rounding of a kernel
    evaluation: ``max|a - b^T| <= 16 eps max(|a|, |b|)``.

    Entries that are all zero decide nothing and report ``False``.
    Reductions run on the operands' own array type: no host transfer.
    """
    dtype = np.result_type(a.dtype, b.dtype)
    eps = np.finfo(dtype if np.issubdtype(dtype, np.inexact) else np.float64).eps
    scale = max(float(abs(a).max()), float(abs(b).max()))
    gap = float(abs(a - b.swapaxes(-1, -2)).max())
    return scale > 0 and gap <= 16 * eps * scale


def _probe_is_symmetric(probe) -> bool:
    """Whether the paired probe stack satisfies ``S_lr == S_rl^T``
    (:func:`_is_mirror`), so a source that is symmetric up to the rounding
    of its kernel evaluation passes and any genuinely non-symmetric
    sampled entry fails."""
    return _is_mirror(probe[0::2], probe[1::2])


#: cap on the entry count of one gathered block stack (~0.5 GB of float64);
#: larger buckets are evaluated in chunks so peak memory stays bounded
_MAX_GATHER_ELEMENTS = 1 << 26


def _coerce_stack(stack, dtype, xb):
    """Backend array of ``dtype`` without detouring device stacks to the host."""
    stack = xb.asarray(stack)
    if stack.dtype != np.dtype(dtype):
        stack = stack.astype(dtype)
    return stack


def _gather_chunks(evaluator, multi, row_sets, col_sets, dtype, xb):
    """Yield ``(indices, stack)`` chunks of equal-shape blocks.

    Blocks sharing a shape are grouped into buckets and evaluated directly
    into strided 3-D stacks — one vectorized ``multi`` call per chunk when a
    gather evaluator is available (the ``points[rows]`` indexing and the
    kernel function run once per chunk, not per block), a per-block
    ``evaluator`` fallback otherwise.  Buckets larger than the gather cap
    are split so peak memory stays bounded; each yielded stack is the only
    materialisation of its blocks (consumers compress it in place and drop
    it before the next chunk is evaluated).  Stacks are coerced through the
    context's backend, so a device-resident evaluator yields device stacks.
    """
    nblocks = len(row_sets)
    plan = plan_batch([(row_sets[i].size, col_sets[i].size) for i in range(nblocks)])
    for bucket in plan.buckets:
        m, n = bucket.key
        per_chunk = max(1, _MAX_GATHER_ELEMENTS // max(1, m * n))
        idx = bucket.indices
        for start in range(0, len(idx), per_chunk):
            chunk = idx[start : start + per_chunk]
            if multi is not None:
                rows2 = np.stack([row_sets[i] for i in chunk])
                cols2 = np.stack([col_sets[i] for i in chunk])
                stack = _coerce_stack(multi(rows2, cols2), dtype, xb)
            else:
                stack = xb.stack(
                    [_coerce_stack(evaluator(row_sets[i], col_sets[i]), dtype, xb)
                     for i in chunk]
                )
            yield chunk, stack


def build_hodlr(
    source: Union[np.ndarray, BlockEvaluator],
    tree: ClusterTree,
    config: Optional[CompressionConfig] = None,
    tol: Optional[float] = None,
    method: Optional[str] = None,
    max_rank: Optional[int] = None,
    dtype=None,
    context: Optional[ExecutionContext] = None,
) -> HODLRMatrix:
    """Build a HODLR approximation of ``source`` over ``tree``.

    Parameters
    ----------
    source:
        A dense ``(n, n)`` array, a callable ``entries(rows, cols) ->
        ndarray`` evaluating arbitrary sub-blocks of the operator, or an
        object exposing ``entries`` (and optionally the multi-block
        ``entries_blocks`` gather evaluator, e.g. a
        :class:`~repro.kernels.kernel_matrix.KernelMatrix`).
    tree:
        The cluster tree defining the tessellation.
    config:
        Compression options (``None`` = the defaults); individual keyword
        overrides (``tol``, ``method``, ``max_rank``) take precedence over
        the config fields.  ``config.construction`` selects the level-major
        batched schedule (default) or the matvec-only ``"peeling"``
        construction; the peeling path draws its probes from
        ``config.generator()``.  ``method="proxy"`` raises
        :class:`~repro.core.compression.ConfigError`: proxy compression
        needs a BIE operator and is built by
        :func:`repro.bie.proxy.build_hodlr_proxy`.
    dtype:
        Storage dtype; defaults to the dtype produced by the evaluator,
        then filtered through the context's precision policy.
    context:
        The :class:`~repro.backends.context.ExecutionContext` the
        construction runs on — backend, bucketing policy, and storage
        precision in one object (``None`` = the default context).  A
        device-resident context keeps the gathered blocks and compressed
        bases on the device.  A context with
        :data:`~repro.backends.dispatch.LOOP_POLICY` compresses block by
        block: the per-block reference schedule.

    Symmetric sources
    -----------------
    Before compressing, the builder evaluates one probe of the source: ``k
    = min(8, smallest node)`` evenly spaced indices from each side of every
    sibling pair on every level, in both orientations — a single
    ``(2P, k, k)`` stack through ``entries_blocks`` (which also checks that
    the gather evaluator broadcasts and supplies the dtype), or one
    ``entries`` call per probe block without one.  No rng is drawn.  If
    ``max|S_lr - S_rl^T| <= 16 eps max|S|`` over the probe, the source is
    treated as symmetric and only ``A(I_left, I_right) = U_left V_right^*``
    is compressed per pair; the mirror block reuses it through
    ``U_right = conj(V_right)`` and ``V_left = conj(U_left)``, and the
    matrix is marked ``symmetric``: it stores ``U`` only.  Otherwise — non-symmetric, Hermitian-only, or a
    probe of zeros — both blocks are compressed independently, exactly as
    without the probe.  The per-block schedule applies the same rule.
    """
    context = context or DEFAULT_CONTEXT
    if config is None:
        config = CompressionConfig()
    if tol is not None or method is not None or max_rank is not None:
        config = config.replace(
            tol=tol if tol is not None else config.tol,
            max_rank=max_rank if max_rank is not None else config.max_rank,
            method=method if method is not None else config.method,
        )
    if config.method == "proxy":
        raise ConfigError(
            "method='proxy' compresses BIE operators only: build them with "
            "repro.bie.build_hodlr_proxy"
        )
    if config.construction == "peeling":
        # matvec-only construction: the source never needs entry evaluation
        from .peeling import peel_hodlr

        matvec = getattr(source, "matvec", None)
        rmatvec = getattr(source, "rmatvec", None)
        if not callable(matvec) or not callable(rmatvec):
            raise TypeError(
                "construction='peeling' needs a source exposing matvec and "
                "rmatvec (e.g. a scipy LinearOperator or HODLROperator)"
            )
        if dtype is None:
            dtype = getattr(source, "dtype", None) or np.float64
        rank = config.max_rank if config.max_rank is not None else 32
        return peel_hodlr(
            matvec,
            rmatvec,
            tree,
            rank=rank,
            oversampling=config.oversampling,
            tol=config.tol,
            rng=config.generator(),
            dtype=context.storage_dtype(dtype),
            context=context,
        )

    if isinstance(source, np.ndarray) or (
        hasattr(source, "ndim") and getattr(source, "ndim", 0) == 2 and not callable(source)
    ):
        if source.shape != (tree.n, tree.n):
            raise ValueError(
                f"dense source has shape {source.shape}, expected {(tree.n, tree.n)}"
            )
        evaluator, multi = _resolve_evaluator(_DenseEvaluator(source))
        if dtype is None:
            dtype = source.dtype
    else:
        evaluator, multi = _resolve_evaluator(source)

    # one probe of the source decides three things: whether the gather
    # evaluator broadcasts, the dtype, and whether the source is symmetric.
    # It goes through the gather evaluator when one works (a gathered build
    # then makes no entrywise call at all), else one entries call per block
    rows, cols, paired = _probe_indices(tree)
    probe = _probe_multi(multi, rows, cols)
    if probe is None:
        multi = None
        if paired or dtype is None:
            probe = context.backend.stack([evaluator(r, c) for r, c in zip(rows, cols)])
    if dtype is None:
        dtype = probe.dtype
    symmetric = paired and _probe_is_symmetric(probe)
    dtype = context.storage_dtype(dtype)
    return _build_hodlr_batched(evaluator, multi, tree, config, dtype, context, symmetric)


def _store_factor(U, V, row_node, col_node, factor, symmetric) -> None:
    """Store the factors of ``A(I_row, I_col) = U_row V_col^*``.

    With ``symmetric`` the mirror block ``A(I_col, I_row) = conj(V_col)
    conj(U_row)^*`` needs ``U_col = conj(V_col)``; ``V`` is not stored at
    all (the matrix derives ``V = conj(U)``).
    """
    U[row_node.index] = factor.U
    if symmetric:
        U[col_node.index] = factor.V.conj()
    else:
        V[col_node.index] = factor.V


def _build_hodlr_batched(
    evaluator, multi, tree, config, dtype, context, symmetric
) -> HODLRMatrix:
    """Level-major batched construction.

    Per tree level: one gathered evaluation of all sibling off-diagonal
    blocks (bucketed by shape) followed by one batched compression per shape
    bucket, all through the context's backend.  ``method="rook"`` never
    materialises the blocks — that would defeat its ``O((m + n) r)``-entries
    property — and instead runs :func:`rook_pivot_compress_stack` once per
    shape bucket: one gathered evaluation of the rows (and one of the
    columns) of every active block per step.  Without a gather
    evaluator, or under ``policy.bucketing=False``, rook compresses per
    block.  A symmetric source gathers and compresses only the ``(left,
    right)`` block of each sibling pair, so every branch sees half the
    blocks.
    """
    diag: Dict[int, np.ndarray] = {}
    U: Dict[int, np.ndarray] = {}
    V: Dict[int, np.ndarray] = {}
    xb = context.backend

    # leaf diagonal blocks: one gather per leaf-size bucket
    leaves = tree.leaves
    leaf_rows = [leaf.indices for leaf in leaves]
    for chunk, stack in _gather_chunks(evaluator, multi, leaf_rows, leaf_rows, dtype, xb):
        for j, i in enumerate(chunk):
            diag[leaves[i].index] = stack[j]

    lazy = config.method == "rook"
    for level in range(1, tree.levels + 1):
        row_nodes: List[TreeNode] = []
        col_nodes: List[TreeNode] = []
        for left, right in tree.sibling_pairs(level):
            # A(I_left, I_right) = U_left V_right^* and its mirror image
            row_nodes += [left] if symmetric else [left, right]
            col_nodes += [right] if symmetric else [right, left]

        factors: List = [None] * len(row_nodes)
        if lazy and multi is not None and context.policy.bucketing:
            # every block of a shape bucket advances its crosses in lockstep:
            # one gathered evaluation of all rows (and one of all columns)
            # per step instead of entrywise calls per block
            shapes = [(rn.size, cn.size) for rn, cn in zip(row_nodes, col_nodes)]
            for bucket in plan_batch(shapes).buckets:
                idx = bucket.indices
                compressed = rook_pivot_compress_stack(
                    multi,
                    np.stack([row_nodes[i].indices for i in idx]),
                    np.stack([col_nodes[i].indices for i in idx]),
                    tol=config.tol, max_rank=config.max_rank, dtype=dtype,
                    context=context,
                )
                for i, f in zip(idx, compressed):
                    factors[i] = f
        elif lazy:
            for i, (rn, cn) in enumerate(zip(row_nodes, col_nodes)):

                def block_eval(r, c, _rr=rn.indices, _cc=cn.indices):
                    return evaluator(_rr[r], _cc[c])

                factors[i] = compress_block(block_eval, rn.size, cn.size, config, dtype=dtype)
        else:
            # each shape-bucket chunk is materialised once as a strided stack
            # and compressed in place — no per-block intermediate copies
            row_sets = [nd.indices for nd in row_nodes]
            col_sets = [nd.indices for nd in col_nodes]
            for chunk, stack in _gather_chunks(
                evaluator, multi, row_sets, col_sets, dtype, xb
            ):
                compressed = compress_block_stack(stack, config, context=context)
                for i, f in zip(chunk, compressed):
                    factors[i] = f

        for rn, cn, f in zip(row_nodes, col_nodes, factors):
            _store_factor(U, V, rn, cn, f, symmetric)

    return HODLRMatrix(tree=tree, diag=diag, U=U, V=V, symmetric=symmetric)


def build_hodlr_from_dense(
    A: np.ndarray,
    tree: Optional[ClusterTree] = None,
    config: Optional[CompressionConfig] = None,
) -> HODLRMatrix:
    """Convenience wrapper: compress a dense matrix into HODLR format.

    ``tree=None`` builds a balanced tree with ``config.leaf_size`` leaves;
    ``config=None`` uses the :class:`CompressionConfig` defaults, exactly
    as :func:`build_hodlr` does.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square 2-D array")
    config = config or CompressionConfig()
    if tree is None:
        tree = ClusterTree.balanced(A.shape[0], leaf_size=config.leaf_size)
    return build_hodlr(A, tree, config)
