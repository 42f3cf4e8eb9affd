"""Parameter sweeps that recycle HODLR construction across nearby solves.

A frequency sweep (Helmholtz ``kappa``), a length-scale sweep (GP
hyper-parameter search), or a regularisation path solves the *same
geometry* dozens of times with only a kernel parameter changing.  The
standard path pays full assembly — kernel evaluation over every
off-diagonal block plus compression — at every step, even though the
cluster tree, the index structure, and all pairwise distances are
identical across the sweep.

:func:`run_sweep` amortizes that shared structure.  A
:class:`SweepWorkspace` is built once from an anchor assembly and reused
for every step:

* the **cluster tree / permutation / index structure** are computed once;
* the **distance geometry** is cached: full distance stacks for the leaf
  diagonal blocks, and *skeleton* distances for every off-diagonal block
  (see below) — each step re-runs only the kernel's radial ``profile`` on
  the cached distances (see :mod:`repro.kernels.radial`);
* the **shared Gaussian test matrices** used by the randomized
  recompression fallback are drawn once per block width and reused across
  all steps;
* only **factorization and the solve** — which the changed parameter
  genuinely invalidates — run from scratch each step.

Skeleton-recycled off-diagonal blocks
-------------------------------------
Re-evaluating every off-diagonal entry per step would still be ``O(N^2)``
work in the kernel profile.  Instead the anchor build compresses each
block at a *finer* tolerance (``tol * skeleton_factor``, default 1e-2)
and extracts interpolative skeletons: row pivots ``I`` and column pivots
``J`` from pivoted QR of the fine bases.  Each sweep step then evaluates
only the cross

.. math:: A_{new} \\approx C M^{+} R, \\qquad
   C = A_{new}[:, J],\\; R = A_{new}[I, :],\\; M = A_{new}[I, J]

— ``O((m + n) r)`` profile evaluations per block instead of ``O(m n)`` —
and retruncates the product at the working tolerance through the standard
QR-core recompression.  Because the skeleton is taken with a rank margin,
the CUR error stays at the compression tolerance for nearby parameter
values; a per-block sampled error check guards the approximation, and any
block that drifts past the guard is transparently re-evaluated in full,
recompressed with the shared Gaussian test matrices, and its skeleton
refreshed for the remaining steps.

Two sweep axes
--------------
``configs`` may be a sequence of

* **parameter mappings** (``{"kappa": 30.0}``) — the kernel-parameter
  sweep described above; the problem adapter must expose ``sweep_params``
  and ``kernel_spec()`` (the built-in ``helmholtz_kernel``,
  ``gaussian_kernel``, and ``gp_covariance`` problems do).  Steps whose
  keys fall outside ``sweep_params`` (geometry changes) fall back to an
  independent full solve for that step.
* :class:`~repro.api.config.SolverConfig` objects — a solver-config sweep
  over a *fixed* problem: assembly is shared between configs whose
  compression settings agree (only factorization re-runs), and re-done
  only when the compression itself changes.

Example
-------
>>> import repro
>>> res = repro.run_sweep(                                # doctest: +SKIP
...     "helmholtz_kernel",
...     [{"kappa": k} for k in [10, 12, 14, 16]],
...     n=4096,
... )
>>> [row["relative_residual"] for row in res.trace()]     # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
import time  # repro-lint: file-ignore[RL004] -- per-step sweep trace rows report wall-clock timings by design, like SolveStats
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg as sla

from ..backends.parallel import resolve_parallel, run_tasks
from ..core.hodlr import HODLRMatrix
from ..core.low_rank import LowRankFactor
from ..core.solver import SolveStats
from ..kernels.kernel_matrix import KernelMatrix
from ..kernels.radial import pairwise_distances
from .config import SolverConfig
from .operator import HODLROperator
from .problem import AssembledProblem

__all__ = ["SweepResult", "SweepStep", "SweepWorkspace", "run_sweep"]


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------
@dataclass
class SweepStep:
    """One solved point of a sweep (a per-step trace row)."""

    #: the step's parameter overrides (parameter sweep) or config label
    params: Dict[str, Any]
    x: np.ndarray
    relative_residual: Optional[float]
    #: True when the step went through the recycled workspace path
    recycled: bool
    #: off-diagonal blocks that failed the sampled check and were rebuilt
    fallback_blocks: int
    #: total off-diagonal blocks of the step
    num_blocks: int
    #: wall-clock breakdown: eval / factorize / solve / total seconds
    seconds: Dict[str, float]
    max_rank: int
    stats: Optional[SolveStats] = field(default=None, repr=False)
    operator: Optional[HODLROperator] = field(default=None, repr=False)

    def trace_row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = dict(self.params)
        row.update(
            relative_residual=self.relative_residual,
            recycled=self.recycled,
            fallback_blocks=self.fallback_blocks,
            num_blocks=self.num_blocks,
            max_rank=self.max_rank,
        )
        row.update({f"{k}_seconds": v for k, v in self.seconds.items()})
        return row


@dataclass
class SweepResult:
    """All steps of one :func:`run_sweep` call."""

    steps: List[SweepStep]
    workspace: Optional["SweepWorkspace"] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int) -> SweepStep:
        return self.steps[i]

    @property
    def solutions(self) -> List[np.ndarray]:
        return [s.x for s in self.steps]

    @property
    def residuals(self) -> List[Optional[float]]:
        return [s.relative_residual for s in self.steps]

    def trace(self) -> List[Dict[str, Any]]:
        """The per-step trace rows (one dict per solved parameter point)."""
        return [s.trace_row() for s in self.steps]


# ----------------------------------------------------------------------
# skeleton-recycled block state
# ----------------------------------------------------------------------
@dataclass
class _BlockSkeleton:
    """Cached geometry of one off-diagonal block's CUR replay."""

    #: (row node index, col node index) — factors land in U[row], V[col]
    row_index: int
    col_index: int
    #: global (permuted) row/column ids of the block
    rows: np.ndarray
    cols: np.ndarray
    #: pivot positions into ``rows`` / ``cols``
    piv_rows: np.ndarray
    piv_cols: np.ndarray
    #: (m, r) distances to the skeleton columns; ``D_C[piv_rows]`` is D_M
    D_C: np.ndarray
    #: (r, n) distances from the skeleton rows
    D_R: np.ndarray
    #: sampled check: positions into the block and their distances
    sample_i: np.ndarray
    sample_j: np.ndarray
    sample_d: np.ndarray


def _pivots_from_basis(B: np.ndarray) -> np.ndarray:
    """Row-pivot positions of a tall basis ``B`` (m, r) via pivoted QR."""
    r = B.shape[1]
    if r == 0:
        return np.zeros(0, dtype=int)
    # QR with column pivoting on B^H picks the r most independent rows of B
    _, _, piv = sla.qr(B.conj().T, mode="economic", pivoting=True)
    return np.asarray(piv[:r], dtype=int)


def _cur_factor(
    C: np.ndarray, R: np.ndarray, M: np.ndarray, tol: float
) -> Tuple[LowRankFactor, float]:
    """Stable CUR ``C M^+ R`` truncated at ``tol``; returns (factor, scale).

    The truncation happens *inside* the pinv: directions of ``M`` with
    singular values below ``0.1 * tol * scale`` contribute below the sweep
    tolerance (for a well-pivoted skeleton the spectrum of ``M`` tracks the
    block's), so cutting them here lands the factor directly at the step's
    rank — no QR+QR+SVD recompression of the anchor-rank-wide factors,
    which would otherwise dominate the per-step evaluation cost.  The
    sampled per-block guard in :meth:`SweepWorkspace.step` catches any
    block where this truncation is too aggressive.

    ``scale`` is the largest singular value of ``M`` — a spectral-norm
    estimate of the block used to normalise the sampled error check.
    """
    if M.size == 0:
        return LowRankFactor.zeros(C.shape[0], R.shape[1], C.dtype), 0.0
    Um, sm, Vmh = np.linalg.svd(M)
    scale = float(sm[0]) if sm.size else 0.0
    if scale == 0.0:
        return LowRankFactor.zeros(C.shape[0], R.shape[1], C.dtype), 0.0
    keep = sm > scale * max(1e-13, 0.1 * tol)
    k = int(keep.sum())
    X = C @ (Vmh[:k].conj().T / sm[:k])
    Y = Um[:, :k].conj().T @ R
    return LowRankFactor(U=X, V=Y.conj().T), scale


class SweepWorkspace:
    """The recycled construction state shared by every step of a sweep.

    Built once from an anchor problem instance; :meth:`step` produces the
    factorized operator and solution of one parameter point, re-running
    only the kernel profile on cached distances (plus factorization and
    the solve).  See the module docstring for the algorithm.
    """

    def __init__(
        self,
        problem: Any,
        config: SolverConfig,
        assembled: AssembledProblem,
        *,
        skeleton_factor: float = 1e-2,
        fallback_factor: float = 50.0,
        sample_size: int = 64,
        seed: int = 0,
    ) -> None:
        km = assembled.metadata.get("kernel_matrix")
        if not isinstance(km, KernelMatrix) or not hasattr(km.kernel, "profile"):
            raise TypeError(
                "SweepWorkspace needs a kernel-matrix problem whose kernel "
                "exposes a radial profile (see repro.kernels.radial)"
            )
        #: ``assembled`` must have been built at the *skeleton* tolerance
        #: (``tol * skeleton_factor``): its factors are reused directly as
        #: the fine anchor factors, so the anchor pays no extra evaluation
        self.problem = problem
        self.config = config
        self.tol = float(config.compression.tol)
        self.skeleton_tol = self.tol * float(skeleton_factor)
        self.fallback_factor = float(fallback_factor)
        self.rhs = assembled.rhs
        self.perm = assembled.perm
        self.tree = assembled.hodlr.tree
        self._rng = np.random.default_rng(seed)
        self._sample_size = int(sample_size)
        pts = km.points if self.perm is None else km.points[self.perm]
        self.points = pts
        #: shared Gaussian test matrices of the recompression fallback,
        #: keyed by block width; drawn once, reused across steps and blocks
        self._test_matrices: Dict[Tuple[int, int], np.ndarray] = {}
        self.fallback_total = 0
        self.steps_run = 0

        # --- leaf diagonal blocks: cache full distance stacks by size ----
        leaves = self.tree.leaves
        by_size: Dict[int, List[Any]] = {}
        for leaf in leaves:
            by_size.setdefault(leaf.size, []).append(leaf)
        self._diag_groups: List[Tuple[List[int], np.ndarray]] = []
        for size, members in sorted(by_size.items()):
            idx = np.stack([leaf.indices for leaf in members])
            D = pairwise_distances(pts[idx], pts[idx])
            self._diag_groups.append(([leaf.index for leaf in members], D))

        # --- off-diagonal blocks: fine anchor factors -> skeletons -------
        # the assembly was run at the skeleton tolerance, so its U/V blocks
        # are already the fine factors — no re-evaluation needed here
        self._blocks: List[_BlockSkeleton] = []
        self._fine: Dict[Tuple[int, int], LowRankFactor] = {}
        hodlr = assembled.hodlr
        for level in range(1, self.tree.levels + 1):
            for left, right in self.tree.sibling_pairs(level):
                for rnode, cnode in ((left, right), (right, left)):
                    fine = LowRankFactor(
                        U=hodlr.U[rnode.index], V=hodlr.V[cnode.index]
                    )
                    self._fine[(rnode.index, cnode.index)] = fine
                    self._blocks.append(self._make_skeleton(rnode, cnode, fine))

    # ------------------------------------------------------------------
    def _make_skeleton(self, rnode, cnode, fine: LowRankFactor) -> _BlockSkeleton:
        rows = np.asarray(rnode.indices, dtype=int)
        cols = np.asarray(cnode.indices, dtype=int)
        piv_r = _pivots_from_basis(fine.U)
        piv_c = _pivots_from_basis(fine.V)
        pts = self.points
        D_C = pairwise_distances(pts[rows], pts[cols[piv_c]])
        D_R = pairwise_distances(pts[rows[piv_r]], pts[cols])
        s = min(self._sample_size, rows.size * cols.size)
        sample_i = self._rng.integers(0, rows.size, size=s)
        sample_j = self._rng.integers(0, cols.size, size=s)
        diff = pts[rows[sample_i]] - pts[cols[sample_j]]
        sample_d = np.sqrt((diff * diff).sum(axis=-1))
        return _BlockSkeleton(
            row_index=rnode.index,
            col_index=cnode.index,
            rows=rows,
            cols=cols,
            piv_rows=piv_r,
            piv_cols=piv_c,
            D_C=D_C,
            D_R=D_R,
            sample_i=sample_i,
            sample_j=sample_j,
            sample_d=sample_d,
        )

    def _test_matrix(self, n: int, q: int, dtype: np.dtype) -> np.ndarray:
        """The shared Gaussian test block of width >= ``q`` for size ``n``."""
        kind = 1 if np.dtype(dtype).kind == "c" else 0
        G = self._test_matrices.get((n, kind))
        if G is None or G.shape[1] < q:
            G = self._rng.standard_normal((n, q))
            if kind:
                G = G + 1j * self._rng.standard_normal((n, q))
            self._test_matrices[(n, kind)] = G
        return G[:, :q]

    def _full_recompress(
        self, blk: _BlockSkeleton, profile, node_for
    ) -> LowRankFactor:
        """Fallback: re-evaluate the block in full and refresh its skeleton."""
        pts = self.points
        A = profile(pairwise_distances(pts[blk.rows], pts[blk.cols]))
        m, n = A.shape
        prev_rank = max(
            self._fine[(blk.row_index, blk.col_index)].rank, 8
        )
        if min(m, n) <= 192:
            fine = LowRankFactor.from_dense(A, tol=self.skeleton_tol)
        else:
            q = min(min(m, n), 2 * prev_rank + 16)
            while True:
                G = self._test_matrix(n, q, A.dtype)
                Q, _ = np.linalg.qr(A @ G)
                B = Q.conj().T @ A
                Ub, s, Vh = np.linalg.svd(B, full_matrices=False)
                if s.size == 0 or s[-1] > self.skeleton_tol * s[0]:
                    # rank not yet resolved inside the sample width
                    if q >= min(m, n):
                        break
                    q = min(min(m, n), 2 * q)
                    continue
                break
            keep = int((s > self.skeleton_tol * (s[0] if s.size else 0.0)).sum())
            fine = LowRankFactor(
                U=Q @ (Ub[:, :keep] * s[:keep]), V=Vh[:keep].conj().T
            )
        self._fine[(blk.row_index, blk.col_index)] = fine
        refreshed = self._make_skeleton(node_for(blk.row_index), node_for(blk.col_index), fine)
        # keep the original sample positions: the check stays comparable
        refreshed.sample_i = blk.sample_i
        refreshed.sample_j = blk.sample_j
        refreshed.sample_d = blk.sample_d
        idx = self._blocks.index(blk)
        self._blocks[idx] = refreshed
        return fine.recompress(tol=self.tol)

    # ------------------------------------------------------------------
    def step(
        self,
        overrides: Mapping[str, Any],
        *,
        rhs: Optional[np.ndarray] = None,
        compute_residual: bool = True,
        keep_operator: bool = True,
    ) -> SweepStep:
        """Solve one parameter point through the recycled workspace.

        ``keep_operator=False`` drops the step's factorized operator from
        the returned :class:`SweepStep` (a full-size factorization is
        hundreds of MB; a long sweep retaining every step's would hoard
        memory — :func:`run_sweep` defaults to dropping them).
        """
        t_start = time.perf_counter()
        step_problem = (
            dataclasses.replace(self.problem, **dict(overrides))
            if overrides
            else self.problem
        )
        kernel, shift = step_problem.kernel_spec()
        profile = kernel.profile

        # --- kernel evaluation on cached geometry ----------------------
        t0 = time.perf_counter()
        diag: Dict[int, np.ndarray] = {}
        for indices, D in self._diag_groups:
            blocks = profile(D)
            if shift:
                m = blocks.shape[-1]
                ar = np.arange(m)
                blocks = blocks.copy() if blocks.base is not None else blocks
                blocks[:, ar, ar] += shift
            for b, leaf_index in enumerate(indices):
                diag[leaf_index] = blocks[b]

        U: Dict[int, np.ndarray] = {}
        V: Dict[int, np.ndarray] = {}
        fallbacks = 0
        node_for = self.tree.node
        for blk in list(self._blocks):
            C = profile(blk.D_C)
            R = profile(blk.D_R)
            M = C[blk.piv_rows]
            lr, scale = _cur_factor(C, R, M, self.tol)
            # sampled guard: compare the factor against direct evaluation
            exact = profile(blk.sample_d)
            approx = np.einsum(
                "sr,sr->s", lr.U[blk.sample_i], lr.V[blk.sample_j].conj()
            )
            denom = max(scale, float(np.abs(exact).max(initial=0.0)), 1e-300)
            err = float(np.abs(approx - exact).max(initial=0.0)) / denom
            if err > self.fallback_factor * self.tol:
                lr = self._full_recompress(blk, profile, node_for)
                fallbacks += 1
            U[blk.row_index] = lr.U
            V[blk.col_index] = lr.V
        eval_seconds = time.perf_counter() - t0

        # --- factorize + solve (genuinely invalidated per step) ---------
        hodlr = HODLRMatrix(tree=self.tree, diag=diag, U=U, V=V)
        operator = HODLROperator(hodlr, self.config, perm=self.perm)
        b = self.rhs if rhs is None else rhs
        if b is None:
            raise ValueError(
                "the swept problem provides no natural right-hand side; pass rhs="
            )
        b = np.asarray(b)
        t0 = time.perf_counter()
        operator.factorize()
        factor_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        x = operator.solve(b)
        solve_seconds = time.perf_counter() - t0
        relres: Optional[float] = None
        if compute_residual:
            r = b - (operator @ x)
            nb = float(np.linalg.norm(b))
            relres = float(np.linalg.norm(r)) / nb if nb > 0 else float(np.linalg.norm(r))
            operator.solver.stats.relative_residual = relres
        self.fallback_total += fallbacks
        self.steps_run += 1
        ranks = [u.shape[1] for u in U.values()]
        return SweepStep(
            params=dict(overrides),
            x=x,
            relative_residual=relres,
            recycled=True,
            fallback_blocks=fallbacks,
            num_blocks=len(self._blocks),
            seconds={
                "eval": eval_seconds,
                "update": 0.0,
                "rebuild": 0.0,
                "factorize": factor_seconds,
                "solve": solve_seconds,
                "total": time.perf_counter() - t_start,
            },
            max_rank=max(ranks) if ranks else 0,
            stats=operator.stats,
            operator=operator if keep_operator else None,
        )


# ----------------------------------------------------------------------
# streaming geometry steps
# ----------------------------------------------------------------------
#: override keys routed through the streaming-update path instead of a
#: full per-step rebuild
_UPDATE_KEYS = frozenset({"points_added", "points_removed", "rhs_added"})


class _GeometryChain:
    """Thread geometry steps of a sweep through the streaming-update path.

    Overrides spelled ``{"points_added": coords}`` / ``{"points_removed":
    indices}`` change the *geometry*, which the skeleton workspace cannot
    recycle — but a k-point change touches only the O(log N) dirty tree
    blocks, so instead of the full-rebuild fallback each such step now
    updates one persistent :class:`HODLROperator` in place
    (:func:`repro.update_operator` semantics): dirty blocks recompress
    incrementally and the operator refactorizes eagerly, so every step
    leaves it factored (``recycled: True`` in the trace).  A step's
    ``update`` seconds include that refactorization; its ``rebuild``
    seconds hold only the anchor build, charged to the first step.

    Inserted points are placed in the cluster tree next to their nearest
    existing point; their right-hand-side entries come from the override's
    ``rhs_added`` (zeros when absent).  Removed points name caller-ordering
    indices into the *current* point set, and shrink the right-hand side
    accordingly.  Steps are stateful and therefore run serially, in order.
    """

    def __init__(self, problem: Any, config: SolverConfig, rhs: Optional[np.ndarray]) -> None:
        from .facade import assemble

        t0 = time.perf_counter()
        assembled = assemble(problem, config)
        km = assembled.metadata.get("kernel_matrix")
        if not isinstance(km, KernelMatrix) or not hasattr(km.kernel, "profile"):
            raise TypeError(
                "geometry update steps need a kernel-matrix problem whose "
                "kernel exposes a radial profile"
            )
        self.config = config
        self.profile = km.kernel.profile
        self.shift = float(km.diagonal_shift)
        self.points = np.asarray(km.points)  # caller ordering, (n, d)
        self.tol = float(config.compression.tol)
        self.operator = HODLROperator(
            assembled.hodlr, config, perm=assembled.perm
        ).factorize()
        b = rhs if rhs is not None else assembled.rhs
        self.rhs = None if b is None else np.asarray(b).copy()
        #: anchor assembly+factorization cost, charged to the first step
        self._pending_build = time.perf_counter() - t0

    def _entries_for(self, pts: np.ndarray):
        """Caller-ordering entry evaluator over the point set ``pts``."""

        def entries(rows, cols, _pts=pts):
            rows = np.asarray(rows, dtype=np.intp)
            cols = np.asarray(cols, dtype=np.intp)
            A = self.profile(pairwise_distances(_pts[rows], _pts[cols]))
            if self.shift:
                A = A + self.shift * (rows.reshape(-1, 1) == cols.reshape(1, -1))
            return A

        return entries

    def step(
        self,
        overrides: Mapping[str, Any],
        *,
        compute_residual: bool = True,
        keep_operator: bool = True,
    ) -> SweepStep:
        t_start = time.perf_counter()
        # the anchor assembly+factorization is charged to the first step's
        # rebuild share (and its total), like _config_sweep's accounting
        pending_build = self._pending_build
        self._pending_build = 0.0
        op = self.operator
        update_seconds = 0.0
        info: Dict[str, Any] = {}
        params: Dict[str, Any] = {}

        removed = overrides.get("points_removed")
        if removed is not None:
            removed = np.unique(np.asarray(removed, dtype=np.intp).ravel())
            params["points_removed"] = int(removed.size)
            if removed.size:
                t0 = time.perf_counter()
                op.update(points_removed=removed, tol=self.tol)
                update_seconds += time.perf_counter() - t0
                info = op.last_update_info or {}
                self.points = np.delete(self.points, removed, axis=0)
                if self.rhs is not None:
                    self.rhs = np.delete(self.rhs, removed, axis=0)

        added = overrides.get("points_added")
        if added is not None:
            add_pts = np.asarray(added, dtype=float)
            if add_pts.ndim == 1:
                add_pts = add_pts.reshape(-1, self.points.shape[1])
            k = add_pts.shape[0]
            params["points_added"] = int(k)
            if k:
                t0 = time.perf_counter()
                perm = op.perm
                internal_pts = self.points if perm is None else self.points[perm]
                # place each new point next to its nearest existing one
                anchor = np.argmin(
                    pairwise_distances(add_pts, internal_pts), axis=1
                ).astype(np.intp)
                order = np.argsort(anchor, kind="stable")
                where = anchor[order] + 1 + np.arange(k, dtype=np.intp)
                add_sorted = add_pts[order]
                extra = overrides.get("rhs_added")
                if extra is None:
                    extra = np.zeros(k, dtype=float)
                else:
                    extra = np.asarray(extra).ravel()[order]
                if perm is None:
                    # caller ordering == internal: points interleave in place
                    pts_new = np.insert(self.points, anchor[order] + 1, add_sorted, axis=0)
                    if self.rhs is not None:
                        self.rhs = np.insert(self.rhs, anchor[order] + 1, extra, axis=0)
                else:
                    # perm carried: new points append to the caller ordering
                    pts_new = np.concatenate([self.points, add_sorted], axis=0)
                    if self.rhs is not None:
                        self.rhs = np.concatenate([self.rhs, extra], axis=0)
                op.update(
                    points_added=where, source=self._entries_for(pts_new), tol=self.tol
                )
                update_seconds += time.perf_counter() - t0
                info = op.last_update_info or {}
                self.points = pts_new

        b = self.rhs
        if b is None:
            raise ValueError(
                "the swept problem provides no natural right-hand side; pass rhs="
            )
        t0 = time.perf_counter()
        x = op.solve(b)
        solve_seconds = time.perf_counter() - t0
        relres: Optional[float] = None
        if compute_residual:
            r = b - (op @ x)
            nb = float(np.linalg.norm(b))
            relres = float(np.linalg.norm(r)) / nb if nb > 0 else float(np.linalg.norm(r))
            op.solver.stats.relative_residual = relres
        hodlr = op.hodlr
        return SweepStep(
            params=params,
            x=x,
            relative_residual=relres,
            recycled=True,
            fallback_blocks=0,
            num_blocks=int(info.get("total_blocks", 0)),
            seconds={
                "eval": 0.0,
                "update": update_seconds,
                "rebuild": pending_build,
                "factorize": 0.0,
                "solve": solve_seconds,
                "total": time.perf_counter() - t_start + pending_build,
            },
            max_rank=max((u.shape[1] for u in hodlr.U.values()), default=0),
            stats=op.stats,
            operator=op if keep_operator else None,
        )


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def _full_solve_step(
    problem: Any, params: Mapping[str, Any], config: SolverConfig,
    rhs: Optional[np.ndarray], compute_residual: bool,
    keep_operator: bool = True,
) -> SweepStep:
    """One independent (non-recycled) solve, as a sweep step row."""
    from .facade import solve  # local import: facade imports nothing from here

    t0 = time.perf_counter()
    step_problem = (
        dataclasses.replace(problem, **dict(params)) if params else problem
    )
    result = solve(
        step_problem, rhs, config, compute_residual=bool(compute_residual)
    )
    total = time.perf_counter() - t0
    # accounting: a fallback step *rebuilds* construction+factorization from
    # scratch — report the split so trace rows compare against the recycled
    # and streaming-update paths column for column
    stats = result.stats
    return SweepStep(
        params=dict(params),
        x=result.x,
        relative_residual=result.relative_residual,
        recycled=False,
        fallback_blocks=0,
        num_blocks=0,
        seconds={
            "eval": 0.0,
            "update": 0.0,
            "rebuild": total - stats.last_solve_seconds,
            "factorize": stats.factor_seconds,
            "solve": stats.last_solve_seconds,
            "total": total,
        },
        max_rank=max(
            (u.shape[1] for u in result.problem.hodlr.U.values()), default=0
        ),
        stats=result.stats,
        operator=result.operator if keep_operator else None,
    )


def _config_sweep(
    problem: Any,
    configs: Sequence[SolverConfig],
    rhs: Optional[np.ndarray],
    compute_residual: bool,
    keep_operators: bool = True,
    policy: Optional[Any] = None,
) -> SweepResult:
    """Sweep solver configs over one fixed problem, sharing assembly."""
    from .facade import assemble

    # phase 1 (serial): assemble once per distinct construction key — the
    # key is everything assembly depends on: compression settings plus the
    # construction context (backend / dtype / precision / dispatch)
    keys = [
        (cfg.compression, cfg.backend, cfg.dtype, cfg.precision, cfg.dispatch_policy)
        for cfg in configs
    ]
    assembled_by_comp: Dict[Any, AssembledProblem] = {}
    assemble_seconds: Dict[Any, float] = {}
    recycled_flags: List[bool] = []
    for cfg, key in zip(configs, keys):
        recycled_flags.append(key in assembled_by_comp)
        if key not in assembled_by_comp:
            t0 = time.perf_counter()
            assembled_by_comp[key] = assemble(problem, cfg)
            assemble_seconds[key] = time.perf_counter() - t0

    # phase 2: factorize + solve per config.  Each step builds its own
    # operator from the shared (read-only from here on) assembled problem,
    # so the steps are independent and run on the pool when a parallel
    # policy is active; run_tasks inlines them, in order, when it is not
    def _config_step(cfg: SolverConfig, key: Any, recycled: bool) -> SweepStep:
        assembled = assembled_by_comp[key]
        t_start = time.perf_counter()
        operator = HODLROperator(assembled.hodlr, cfg, perm=assembled.perm)
        b = assembled.rhs if rhs is None else rhs
        if b is None:
            raise ValueError(
                "the swept problem provides no natural right-hand side; pass rhs="
            )
        b = np.asarray(b)
        t0 = time.perf_counter()
        operator.factorize()
        factor_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        x = operator.solve(b)
        solve_seconds = time.perf_counter() - t0
        relres: Optional[float] = None
        if compute_residual:
            r = b - (operator @ x)
            nb = float(np.linalg.norm(b))
            relres = float(np.linalg.norm(r)) / nb if nb > 0 else float(np.linalg.norm(r))
            operator.solver.stats.relative_residual = relres
        total = time.perf_counter() - t_start
        if not recycled:
            # the step that first built this assembly owns its wall-clock
            total += assemble_seconds[key]
        return SweepStep(
            params={"config": cfg.to_dict()},
            x=x,
            relative_residual=relres,
            recycled=recycled,
            fallback_blocks=0,
            num_blocks=0,
            seconds={
                "eval": 0.0,
                "update": 0.0,
                "rebuild": 0.0 if recycled else assemble_seconds[key],
                "factorize": factor_seconds,
                "solve": solve_seconds,
                "total": total,
            },
            max_rank=max(
                (u.shape[1] for u in assembled.hodlr.U.values()), default=0
            ),
            stats=operator.stats,
            operator=operator if keep_operators else None,
        )

    steps = run_tasks(
        [
            lambda cfg=cfg, key=key, rec=rec: _config_step(cfg, key, rec)
            for cfg, key, rec in zip(configs, keys, recycled_flags)
        ],
        policy,
    )
    return SweepResult(steps=steps)


def run_sweep(
    problem: Any,
    configs: Sequence[Union[Mapping[str, Any], SolverConfig]],
    config: Optional[SolverConfig] = None,
    *,
    rhs: Optional[np.ndarray] = None,
    compute_residual: bool = True,
    skeleton_factor: float = 1e-2,
    fallback_factor: float = 50.0,
    sample_size: int = 64,
    seed: int = 0,
    keep_workspace: bool = False,
    keep_operators: bool = False,
    tuning: Optional[str] = None,
    parallel: Optional[Any] = None,
    **problem_params: Any,
) -> SweepResult:
    """Solve a family of related systems, recycling construction.

    Parameters
    ----------
    problem:
        A registered problem name or :class:`~repro.api.problem.Problem`
        dataclass instance (the sweep re-instantiates it per step).
    configs:
        The sweep axis: a sequence of parameter-override mappings
        (``[{"kappa": 10.0}, {"kappa": 12.5}, ...]``) for a kernel-parameter
        sweep, or a sequence of :class:`SolverConfig` objects for a
        solver-config sweep over the fixed problem.
    config:
        The :class:`SolverConfig` shared by every step of a parameter
        sweep (defaults to the problem's own default config).
    rhs:
        Right-hand side shared by all steps; defaults to the problem's
        natural one.
    skeleton_factor / fallback_factor / sample_size / seed:
        Skeleton-recycling knobs — see :class:`SweepWorkspace` and the
        module docstring.
    keep_workspace:
        Attach the :class:`SweepWorkspace` to the result so further
        parameter points can be solved incrementally
        (``result.workspace.step({"kappa": 33.0})``).
    keep_operators:
        Retain every step's factorized :class:`HODLROperator` on its
        :class:`SweepStep`.  Off by default: a full-size factorization is
        hundreds of MB, so a long sweep retaining all of them would hoard
        memory; solutions, residuals, stats, and trace rows are always
        kept.
    parallel:
        Concurrency of the *independent* sweep steps: ``"off"`` (serial),
        ``"auto"``, an explicit worker count, or a
        :class:`~repro.backends.parallel.ParallelPolicy`; ``None``
        (default) defers to the ``REPRO_PARALLEL`` environment variable.
        Non-incremental steps — config-sweep factorizations sharing a
        read-only assembly, and parameter steps that fall back to full
        solves — fan out over the shared pool.  Recycled workspace steps
        stay serial regardless: each one reads the skeletons the previous
        step's fallbacks may have refreshed, so their order is part of the
        algorithm.  Results and trace rows are identical to a serial run.

    Returns a :class:`SweepResult` whose ``trace()`` rows record, per
    step, the residual, timing breakdown, ranks, and whether the step was
    served from the recycled workspace.

    Steps whose override keys touch geometry (anything outside the problem
    adapter's ``sweep_params``) — or problems without a radial-profile
    kernel — transparently fall back to independent full solves, so the
    function is always safe to call; the ``recycled`` flag in the trace
    says what happened.
    """
    from .facade import _resolve_problem

    configs = list(configs)
    if not configs:
        return SweepResult(steps=[])
    policy = resolve_parallel(parallel)
    if all(isinstance(c, SolverConfig) for c in configs):
        if config is not None:
            raise ValueError(
                "pass either a sequence of SolverConfigs or a shared config=, not both"
            )
        problem_r, _ = _resolve_problem(problem, configs[0], problem_params, tuning)
        return _config_sweep(
            problem_r, configs, rhs, compute_residual, keep_operators, policy
        )
    if any(isinstance(c, SolverConfig) for c in configs):
        raise TypeError("configs mixes SolverConfig objects and parameter mappings")

    problem_r, cfg = _resolve_problem(problem, config, problem_params, tuning)
    overrides: List[Dict[str, Any]] = [dict(c) for c in configs]

    sweepable = tuple(getattr(problem_r, "sweep_params", ()) or ())
    has_spec = hasattr(problem_r, "kernel_spec") and dataclasses.is_dataclass(problem_r)
    # geometry steps spelled as point insertions/removals route through the
    # streaming-update path (a stateful chain, run serially in order)
    updatable = [
        bool(ov)
        and set(ov) <= _UPDATE_KEYS
        and ("points_added" in ov or "points_removed" in ov)
        for ov in overrides
    ]
    recyclable = [
        (not upd) and has_spec and set(ov).issubset(sweepable)
        for ov, upd in zip(overrides, updatable)
    ]

    # non-incremental steps (full independent solves) fan out over the
    # pool up front; recycled steps run serially below — each one reads
    # the skeletons the previous step's fallbacks may have refreshed, so
    # their order is part of the algorithm, not an implementation detail
    slots: List[Optional[SweepStep]] = [None] * len(overrides)
    if policy is not None:
        noninc = [
            i
            for i, ok in enumerate(recyclable)
            if not ok and not updatable[i]
        ]
        if noninc:
            full = run_tasks(
                [
                    lambda ov=overrides[i]: _full_solve_step(
                        problem_r, ov, cfg, rhs, compute_residual, keep_operators
                    )
                    for i in noninc
                ],
                policy,
            )
            for i, st in zip(noninc, full):
                slots[i] = st

    workspace: Optional[SweepWorkspace] = None
    chain: Optional[_GeometryChain] = None
    for pos, (ov, can_recycle) in enumerate(zip(overrides, recyclable)):
        if slots[pos] is not None:
            continue
        if updatable[pos]:
            if chain is None:
                chain = _GeometryChain(problem_r, cfg, rhs)
            slots[pos] = chain.step(
                ov,
                compute_residual=compute_residual,
                keep_operator=keep_operators,
            )
            continue
        if not can_recycle:
            slots[pos] = _full_solve_step(
                problem_r, ov, cfg, rhs, compute_residual, keep_operators
            )
            continue
        if workspace is None:
            # anchor the workspace at the first recyclable step's parameters
            from .facade import assemble

            anchor_problem = (
                dataclasses.replace(problem_r, **ov) if ov else problem_r
            )
            try:
                # assemble at the skeleton tolerance: the anchor's factors
                # double as the fine factors the skeletons are cut from
                cfg_fine = cfg.replace(
                    compression=dataclasses.replace(
                        cfg.compression,
                        tol=cfg.compression.tol * skeleton_factor,
                    )
                )
                assembled = assemble(anchor_problem, cfg_fine)
                workspace = SweepWorkspace(
                    anchor_problem,
                    cfg,
                    assembled,
                    skeleton_factor=skeleton_factor,
                    fallback_factor=fallback_factor,
                    sample_size=sample_size,
                    seed=seed,
                )
                # overrides are spelled against the *base* problem; rebase
                # the workspace problem so later steps replace from it
                workspace.problem = problem_r
            except TypeError:
                workspace = None
                slots[pos] = _full_solve_step(
                    problem_r, ov, cfg, rhs, compute_residual, keep_operators
                )
                continue
        slots[pos] = workspace.step(
            ov,
            rhs=rhs,
            compute_residual=compute_residual,
            keep_operator=keep_operators,
        )
    return SweepResult(
        steps=[s for s in slots if s is not None],
        workspace=workspace if keep_workspace else None,
    )
