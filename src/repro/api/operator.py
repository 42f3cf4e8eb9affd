"""The HODLR factorization as a SciPy ``LinearOperator``.

:class:`HODLROperator` is the facade's runtime object: it wraps a
:class:`~repro.core.hodlr.HODLRMatrix` together with a
:class:`~repro.api.config.SolverConfig` and exposes

* ``A @ x`` / ``matvec`` — the (approximate) forward operator, so it plugs
  directly into ``scipy.sparse.linalg.gmres``/``cg``/``eigsh`` as the
  system operator;
* ``solve(b)`` — the fast direct solve through the configured
  factorization variant, factorizing lazily on first use;
* ``as_preconditioner()`` / ``.inv`` — the *inverse* as a
  ``LinearOperator`` (:class:`HODLRInverseOperator`), the paper's "robust
  preconditioner" usage: pass it as ``M=`` to a Krylov method;
* ``logdet`` / ``slogdet`` — determinants from the triangular factors
  (GP marginal likelihoods);
* kernel traces and modeled device times for the batched variant.

The factorization is cached and invalidated on dtype changes: solving with
a complex right-hand side on a real factorization transparently
refactorizes at the promoted dtype, and :meth:`astype` returns an operator
that refactorizes at the requested precision on first solve (the paper's
float32 preconditioner runs).

Execution contexts
------------------
The operator owns one :class:`~repro.backends.context.ExecutionContext`
built from its config: construction results, the factorization, and the
compiled apply plan all live on the context's backend, and the config's
:class:`~repro.backends.context.PrecisionPolicy` governs the plan dtype
(``plan="float32"`` = the half-traffic mixed-precision plan) and whether
:meth:`solve` runs one step of iterative refinement — a demoted
factorization then still returns solutions with full-precision residuals,
while Krylov matvecs keep running on the cheap plan.

Host/device transfers happen only here, at the facade boundary:
``matvec``/``solve`` accept and return host arrays, moving data through
``context.to_device``/``to_host`` exactly once per call.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np
from scipy.sparse.linalg import LinearOperator

from ..backends.context import ExecutionContext
from ..backends.counters import KernelTrace
from ..backends.perfmodel import ExecutionEstimate, PerformanceModel
from ..core.apply_plan import ApplyPlan
from ..core.hodlr import HODLRMatrix
from ..core.packing import owned_nbytes
from ..core.solver import HODLRSolver, SolveStats
from .config import SolverConfig


class HODLROperator(LinearOperator):
    """A HODLR matrix + solver config behaving like a SciPy ``LinearOperator``.

    Parameters
    ----------
    hodlr:
        The HODLR approximation of the coefficient matrix.
    config:
        A :class:`SolverConfig` (or its dict form); ``None`` uses defaults.
    perm:
        Optional permutation mapping the caller's ordering to the internal
        (cluster-tree) ordering of ``hodlr`` (i.e. ``hodlr`` approximates
        ``A[perm][:, perm]``).  When set, every matvec/solve permutes
        inputs in and solutions back out, so the operator acts entirely in
        the caller's ordering.
    **overrides:
        Individual :class:`SolverConfig` fields overriding ``config``,
        e.g. ``HODLROperator(H, variant="recursive", dtype="float32")``.
    """

    def __init__(
        self,
        hodlr: HODLRMatrix,
        config: Optional[SolverConfig] = None,
        perm: Optional[np.ndarray] = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = SolverConfig()
        elif isinstance(config, Mapping):
            config = SolverConfig.from_dict(config)
        if overrides:
            config = config.replace(**overrides)
        self.config = config
        self._base = hodlr
        self._perm = None if perm is None else np.asarray(perm)
        self._cast: Optional[HODLRMatrix] = None
        self._solver: Optional[HODLRSolver] = None
        self._plan: Optional[ApplyPlan] = None
        self._context: Optional[ExecutionContext] = None
        #: which path the most recent :meth:`update` ran (``None`` before one)
        self.last_update_info: Optional[Dict[str, Any]] = None
        configured = config.numpy_dtype
        self._factor_dtype = np.dtype(
            configured if configured is not None else hodlr.dtype
        )
        super().__init__(dtype=self._factor_dtype, shape=(hodlr.n, hodlr.n))

    @property
    def context(self) -> ExecutionContext:
        """The operator's execution context (resolved lazily from the config,
        so a config naming an unavailable backend fails on first use, not on
        operator construction).

        With ``tuning="auto"`` the context is derived here rather than by
        :meth:`SolverConfig.execution_context`: the operator holds the
        built matrix, so the precision-demotion derivation can use its
        *actual* per-level storage mass instead of the generic
        balanced-tree model.
        """
        if self._context is None:
            if self.config.tuning == "auto":
                from ..backends.calibration import auto_tune_context

                self._context = auto_tune_context(
                    self.config._untuned_context(),
                    residual_budget=self.config.residual_budget,
                    hodlr=self._base,
                    tune_policy=self.config.dispatch_policy is None,
                )
            else:
                self._context = self.config.execution_context()
        return self._context

    # -- caller ordering <-> internal (cluster-tree) ordering ----------------
    @property
    def perm(self) -> Optional[np.ndarray]:
        return self._perm

    def _to_internal(self, v: np.ndarray) -> np.ndarray:
        return v if self._perm is None else np.asarray(v)[self._perm]

    def _to_caller(self, v: np.ndarray) -> np.ndarray:
        if self._perm is None:
            return v
        out = np.empty_like(v)
        out[self._perm] = v
        return out

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def hodlr(self) -> HODLRMatrix:
        """The HODLR matrix at the operator's current dtype."""
        return self._current_hodlr()

    @property
    def n(self) -> int:
        return self._base.n

    @property
    def factored(self) -> bool:
        return self._solver is not None

    def _current_hodlr(self) -> HODLRMatrix:
        if self._solver is not None:
            return self._solver.hodlr
        if self._cast is None:
            if np.dtype(self._base.dtype) == self._factor_dtype:
                self._cast = self._base
            else:
                self._cast = self._base.astype(self._factor_dtype)
        return self._cast

    @property
    def solver(self) -> HODLRSolver:
        """The underlying :class:`HODLRSolver`, factorized on first access."""
        if self._solver is None:
            # the hodlr is already at the factorization dtype: skip the
            # solver's own cast by passing dtype=None; the operator's
            # (possibly auto-tuned) context overrides the one from_config
            # would rebuild from the raw config fields
            self._solver = HODLRSolver.from_config(
                self._current_hodlr(), self.config, dtype=None, context=self.context
            ).factorize()
            self._cast = None
        return self._solver

    def factorize(self) -> "HODLROperator":
        """Factorize eagerly (otherwise the first ``solve`` does it)."""
        _ = self.solver
        return self

    def _invalidate(self, dtype: np.dtype) -> None:
        self._factor_dtype = np.dtype(dtype)
        self._solver = None
        self._cast = None
        self._plan = None
        self.dtype = self._factor_dtype

    def astype(self, dtype: Any) -> "HODLROperator":
        """A new operator at ``dtype`` (refactorizes lazily on first solve)."""
        name = np.dtype(dtype).name
        changes: Dict[str, Any] = {"dtype": name}
        if self.config.precision.storage is not None:
            # keep the two storage-dtype spellings consistent
            changes["precision"] = dc_replace(self.config.precision, storage=name)
        return HODLROperator(self._base, self.config.replace(**changes), perm=self._perm)

    # ------------------------------------------------------------------
    # streaming updates
    # ------------------------------------------------------------------
    def update(
        self,
        *,
        source: Any = None,
        points_added: Optional[np.ndarray] = None,
        points_removed: Optional[np.ndarray] = None,
        points_moved: Optional[np.ndarray] = None,
        diag_shift: Any = None,
        low_rank: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        tol: float = 1e-12,
        max_rank: Optional[int] = None,
    ) -> "HODLROperator":
        """Apply a streaming update to the operator **in place**.

        A k-point change touches only the O(log N) tree blocks whose
        row/column ranges intersect the changed indices, so instead of
        rebuilding, the operator updates its HODLR matrix incrementally
        (:mod:`repro.core.update`: bordering and downdating of the dirty
        blocks).  A factorization the operator holds is then refactorized
        eagerly, in place, factorizing only the dirty leaves again
        (:meth:`~repro.core.solver.HODLRSolver.patch_factorize`), and a
        compiled apply plan is recompiled in place
        (:meth:`~repro.core.apply_plan.ApplyPlan.patch`), so the next solve
        pays nothing extra.  :attr:`last_update_info` reports the change
        kinds, the dirty-block accounting and ``path``: ``"rebuild"`` when
        the factors were refreshed, ``"deferred"`` when the operator held
        none (the next solve factorizes).

        Raises :class:`~repro.core.update.PatchUnsupportedError` when a
        removal would empty a leaf; the operator is then left unchanged.

        Parameters
        ----------
        points_removed:
            Caller-ordering indices to delete (internal indices when the
            operator carries no ``perm``).  No entry evaluation happens.
        points_added:
            Sorted insertion positions *in the internal (cluster-tree)
            ordering of the updated matrix* — identical to the caller
            ordering when ``perm is None``.  Requires ``source``.  When a
            ``perm`` is carried, the inserted points take the caller
            indices ``n, ..., n+k-1`` (appended), in ``points_added``
            order.
        points_moved:
            Caller-ordering indices whose rows *and* columns must be
            re-evaluated in place.  Requires ``source``.
        source:
            Entry evaluator ``entries(rows, cols)`` (or an object with
            ``.entries``, e.g. a :class:`~repro.kernels.kernel_matrix.
            KernelMatrix` over the updated point set) in the **caller**
            ordering of the updated operator.  Only O(k N) entries are
            evaluated.
        diag_shift:
            Scalar or caller-ordering length-``n`` vector added to the
            diagonal.  Leaf diagonal blocks change in place.
        low_rank:
            A global rank-k update ``(X, Y)`` meaning ``A + X Y^*``
            (caller ordering).  Touches every block.
        tol, max_rank:
            Recompression tolerance / rank cap for dirty blocks.
        """
        from ..core import arithmetic
        from ..core.hodlr import _resolve_evaluator
        from ..core.update import (
            dirty_block_counts,
            move_points,
            remove_points,
            update_points,
        )

        if all(
            v is None
            for v in (points_added, points_removed, points_moved, diag_shift, low_rank)
        ):
            raise ValueError(
                "update() needs at least one of points_added=, points_removed=, "
                "points_moved=, diag_shift=, low_rank="
            )
        ctx = self.context
        base = self._base
        old_dtype = np.dtype(base.dtype)
        perm = self._perm
        dirty: set = set()
        kinds = []

        def _wrap(src, p):
            """Conjugate a caller-ordering evaluator into the internal one."""
            if src is None:
                raise ValueError(
                    "points_added/points_moved require source= (an entry "
                    "evaluator over the updated caller ordering)"
                )
            entries, _ = _resolve_evaluator(src)
            if p is None:
                return entries

            def wrapped(rows, cols, _e=entries, _p=np.asarray(p)):
                return _e(
                    _p[np.asarray(rows, dtype=np.intp)],
                    _p[np.asarray(cols, dtype=np.intp)],
                )

            return wrapped

        if points_removed is not None:
            rem = np.unique(np.asarray(points_removed, dtype=np.intp).ravel())
            internal = (
                rem if perm is None else np.flatnonzero(np.isin(perm, rem))
            )
            upd = remove_points(base, internal, tol=tol, max_rank=max_rank, context=ctx)
            if perm is not None:
                surv = upd.old_to_new >= 0
                # surviving caller indices compact over the removed ones
                compact = perm - np.searchsorted(rem, perm, side="left")
                new_perm = np.empty(upd.matrix.n, dtype=np.intp)
                new_perm[upd.old_to_new[surv]] = compact[surv]
                perm = new_perm
            base = upd.matrix
            dirty |= set(upd.dirty_nodes)
            kinds.append("remove")

        if points_added is not None:
            where = np.unique(np.asarray(points_added, dtype=np.intp).ravel())
            k = int(where.size)
            if perm is not None:
                n_caller = base.n
                keep = np.ones(base.n + k, dtype=bool)
                keep[where] = False
                new_perm = np.empty(base.n + k, dtype=np.intp)
                new_perm[np.flatnonzero(keep)] = perm
                new_perm[where] = n_caller + np.arange(k, dtype=np.intp)
                src = _wrap(source, new_perm)
                perm = new_perm
            else:
                src = _wrap(source, None)
            upd = update_points(base, src, where, tol=tol, max_rank=max_rank, context=ctx)
            base = upd.matrix
            dirty |= set(upd.dirty_nodes)
            kinds.append("insert")

        if points_moved is not None:
            mv = np.unique(np.asarray(points_moved, dtype=np.intp).ravel())
            internal = mv if perm is None else np.flatnonzero(np.isin(perm, mv))
            upd = move_points(
                base, _wrap(source, perm), internal, tol=tol, max_rank=max_rank, context=ctx
            )
            base = upd.matrix
            dirty |= set(upd.dirty_nodes)
            kinds.append("move")

        if diag_shift is not None:
            d = diag_shift
            if not np.isscalar(d):
                d = np.asarray(d)
                if perm is not None:
                    d = d[perm]
            base = arithmetic.add_diagonal(base, d, context=ctx)
            dirty |= {leaf.index for leaf in base.tree.leaves}
            kinds.append("diag_shift")

        if low_rank is not None:
            X, Y = low_rank
            X = np.asarray(X)
            Y = np.asarray(Y)
            if X.ndim == 1:
                X = X.reshape(-1, 1)
            if Y.ndim == 1:
                Y = Y.reshape(-1, 1)
            if perm is not None:
                X = X[perm]
                Y = Y[perm]
            base = arithmetic.add_low_rank_update(
                base, X, Y, tol=tol, max_rank=max_rank, context=ctx
            )
            dirty |= {node.index for node in base.tree}
            kinds.append("low_rank")

        db, tb = dirty_block_counts(base.tree, frozenset(dirty))
        frac = db / tb if tb else 0.0

        self._base = base
        self._perm = perm
        self._cast = None
        self.shape = (base.n, base.n)
        if np.dtype(base.dtype) != old_dtype:
            # e.g. a complex low-rank term on a real operator: promote and
            # rebuild everything at the widened dtype
            self._invalidate(np.result_type(self._factor_dtype, base.dtype))

        path = "deferred"
        if self._solver is not None:
            # casts to the factorization dtype, then refactorizes in place
            self._solver.patch_factorize(base)
            path = "rebuild"
        if self._plan is not None:
            self._plan.patch(self._current_hodlr())

        self.last_update_info = {
            "kinds": tuple(kinds),
            "path": path,
            "dirty_blocks": db,
            "total_blocks": tb,
            "dirty_fraction": frac,
        }
        return self

    # ------------------------------------------------------------------
    # LinearOperator interface: the forward operator A (caller ordering)
    # ------------------------------------------------------------------
    @property
    def apply_plan(self) -> Optional[ApplyPlan]:
        """The operator's compiled apply plan (``None`` until first use)."""
        return self._plan

    def _applied_plan(self) -> ApplyPlan:
        """The compiled apply plan of the current HODLR matrix.

        Built lazily on the first application and owned by the *operator*
        (the caller's HODLRMatrix is left untouched — no hidden memory or
        matvec rerouting on a shared object), so a Krylov loop pays the
        bucket packing once and every subsequent matvec runs as a handful of
        batched gemm launches.  The operator's context supplies the backend
        and the precision policy (a ``plan="float32"`` policy compiles the
        half-traffic mixed-precision plan).  Dtype refactorizations
        invalidate it.
        """
        if self._plan is None:
            self._plan = ApplyPlan(self._current_hodlr(), context=self.context)
        return self._plan

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        ctx = self.context
        x_int = ctx.to_device(self._to_internal(np.asarray(x).ravel()))
        return self._to_caller(ctx.to_host(self._applied_plan().matvec(x_int)))

    def _matmat(self, X: np.ndarray) -> np.ndarray:
        ctx = self.context
        X_int = ctx.to_device(self._to_internal(np.asarray(X)))
        return self._to_caller(ctx.to_host(self._applied_plan().matvec(X_int)))

    # ------------------------------------------------------------------
    # solve (the inverse action)
    # ------------------------------------------------------------------
    def _solve_dtype(self, b_dtype: np.dtype) -> np.dtype:
        """The factorization dtype required for a right-hand side dtype.

        An explicitly configured dtype is sticky (a float64 rhs does not
        silently undo a requested float32 run); only a real-to-complex
        promotion widens it.  Without a configured dtype, the factorization
        follows NumPy promotion of (current dtype, rhs dtype).
        """
        configured = self.config.numpy_dtype
        if configured is not None:
            if np.issubdtype(b_dtype, np.complexfloating) and configured.kind == "f":
                return np.result_type(configured, np.complex64)
            return configured
        return np.result_type(self._factor_dtype, b_dtype)

    def solve(self, b: np.ndarray, compute_residual: bool = False) -> np.ndarray:
        """Solve ``A x = b`` (multiple right-hand sides allowed).

        A two-dimensional ``b`` of shape ``(n, K)`` is solved *fused*: the
        whole block rides through one :class:`~repro.core.factor_plan.
        SolvePlan` replay, so the kernel-launch count is that of a single
        solve (``launches_per_solve``) regardless of ``K`` and
        :class:`~repro.core.solver.SolveStats` records ``K`` amortized
        right-hand sides.  This is what :func:`repro.solve_many` and the
        block-Krylov drivers in :mod:`repro.api.krylov` build on.

        ``b`` and the returned solution are in the caller's ordering (the
        ``perm`` conjugation is applied internally).  If the dtype of ``b``
        requires a different factorization dtype (e.g. complex rhs on a
        real factorization), the operator refactorizes at the promoted
        dtype first.  A ``b`` holding NaN or inf raises ``ValueError``
        (naming how many entries) before any sweep runs.

        When the context's precision policy sets ``refine=True`` and the
        factorization dtype is narrower than the matrix's natural dtype
        (e.g. a float32 factorization of a float64 problem), one step of
        iterative refinement runs after the direct solve: the residual is
        evaluated with the full-precision operator and a single correction
        solve is applied.  The refined solution is returned at the *wide*
        dtype and carries ~full-precision residuals, while the
        factorization (and any Krylov matvecs on the demoted apply plan)
        keep running at the cheap dtype.
        """
        ctx = self.context
        if self._perm is not None:
            b = self._to_internal(b)
        b_dtype = getattr(b, "dtype", None)
        if b_dtype is None:
            b = np.asarray(b)
            b_dtype = b.dtype
        bad = int(np.size(b) - np.count_nonzero(np.isfinite(b)))
        if bad:
            # a NaN or inf would spread through every sweep into all of x
            raise ValueError(
                f"right-hand side has {bad} non-finite entries (NaN or inf)"
            )
        wide_dtype = np.result_type(self._base.dtype, b_dtype)
        target = self._solve_dtype(b_dtype)
        if target != self._factor_dtype:
            self._invalidate(target)
        b_t = b.astype(target) if b_dtype != target else b
        # refinement applies when the factorization is narrower than the
        # matrix — either through the storage dtype (float32 factorization
        # of a float64 problem) or through demoted FactorPlan storage
        # (PrecisionPolicy(factor="float32") with full-precision blocks)
        refine = ctx.precision.refine and (
            np.dtype(wide_dtype).itemsize > np.dtype(target).itemsize
            or ctx.precision.demotes_factor(wide_dtype)
        )
        stats = self.solver.stats
        solves_before = stats.num_solves
        seconds_before = stats.solve_seconds
        x = ctx.to_host(
            self.solver.solve(
                ctx.to_device(b_t), compute_residual=compute_residual and not refine
            )
        )
        if refine:
            x = self._refine_once(x, b, wide_dtype, target)
            # the direct solve + correction solve are one user-visible solve
            # per right-hand side (K for a fused block)
            nrhs = int(b_t.shape[1]) if b_t.ndim == 2 else 1
            stats.num_solves = solves_before + nrhs
            stats.last_batch_size = nrhs
            stats.last_solve_seconds = stats.solve_seconds - seconds_before
            if compute_residual:
                # the refined residual, at the wide dtype against the
                # full-precision base operator (the demoted matvec would
                # report a float32-grade number the solution does not have)
                bw = np.asarray(b, dtype=wide_dtype)
                rw = bw - self._wide_matvec(x)
                denom = float(np.linalg.norm(bw))
                stats.relative_residual = (
                    float(np.linalg.norm(rw)) / denom if denom > 0 else float(np.linalg.norm(rw))
                )
        return self._to_caller(x)

    def _wide_matvec(self, xw: np.ndarray) -> np.ndarray:
        """``A @ x`` at the base matrix's full precision (host arrays): the
        reference tree walk, never a (possibly demoted) apply plan, so
        refinement residuals are not float32-grade."""
        ctx = self.context
        y = self._base.matvec(ctx.to_device(xw))
        return np.asarray(ctx.to_host(y))

    def _refine_once(
        self, x: np.ndarray, b: np.ndarray, wide_dtype: np.dtype, target: np.dtype
    ) -> np.ndarray:
        """One step of iterative refinement at the wide dtype.

        The residual uses the *base* (full-precision) HODLR matvec — not the
        demoted factorization or a demoted apply plan — so the
        correction removes the rounding the narrow factorization introduced.
        """
        ctx = self.context
        xw = np.asarray(x, dtype=wide_dtype)
        bw = np.asarray(b, dtype=wide_dtype)
        r = bw - self._wide_matvec(xw)
        dx = ctx.to_host(self.solver.solve(ctx.to_device(r.astype(target))))
        return xw + np.asarray(dx, dtype=wide_dtype)

    def relative_residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """``||b - A x|| / ||b||`` with the HODLR matvec (the paper's relres)."""
        return self.solver.relative_residual(self._to_internal(x), self._to_internal(b))

    def as_preconditioner(self) -> "HODLRInverseOperator":
        """The inverse as a ``LinearOperator`` (pass as ``M=`` to GMRES/CG)."""
        return HODLRInverseOperator(self)

    @property
    def inv(self) -> "HODLRInverseOperator":
        """Alias for :meth:`as_preconditioner`."""
        return self.as_preconditioner()

    # ------------------------------------------------------------------
    # determinants
    # ------------------------------------------------------------------
    def slogdet(self) -> Tuple[complex, float]:
        return self.solver.slogdet()

    def logdet(self) -> float:
        return self.solver.logdet()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> SolveStats:
        return self.solver.stats

    @property
    def memory_gb(self) -> float:
        return self.solver.memory_gb

    def resident_nbytes(self) -> int:
        """Bytes of every array the operator keeps alive — the matrix
        storage and both compiled plans — each buffer counted once, so views
        into another holder's storage add nothing."""
        arrays = []
        hodlrs = [self._base, self._cast]
        if self._solver is not None:
            hodlrs.append(self._solver.hodlr)
            plan = self._solver.factor_plan
            if plan is not None:
                arrays += plan.arrays()
        for h in hodlrs:
            if h is not None:
                arrays += h.storage.buffers()
        if self._plan is not None:
            arrays += self._plan.arrays()
        return owned_nbytes(arrays)

    @property
    def factor_trace(self) -> Optional[KernelTrace]:
        return self.solver.factor_trace

    @property
    def last_solve_trace(self) -> Optional[KernelTrace]:
        return self.solver.last_solve_trace

    @property
    def solve_plan(self) -> Optional[Any]:
        """The compiled :class:`~repro.core.factor_plan.SolvePlan` the
        operator's solves replay (``None`` until the first factorization,
        and for the ``recursive`` reference, which builds no plan)."""
        if self._solver is None:
            return None
        return self._solver.solve_plan

    def modeled_times(
        self, model: Optional[PerformanceModel] = None
    ) -> Dict[str, ExecutionEstimate]:
        return self.solver.modeled_times(model)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "factored" if self.factored else "lazy"
        return (
            f"HODLROperator(n={self.n}, variant={self.config.variant!r}, "
            f"dtype={self._factor_dtype.name}, {state})"
        )


class HODLRInverseOperator(LinearOperator):
    """``A^{-1}`` as a ``LinearOperator``: every matvec is a HODLR solve.

    Wraps anything with ``solve(b)`` and a ``hodlr`` attribute — an
    :class:`HODLROperator` or a bare :class:`~repro.core.solver.HODLRSolver`.
    This is the object to pass as ``M=`` to ``scipy.sparse.linalg.gmres``.
    """

    def __init__(self, target: Any) -> None:
        self.target = target
        n = target.hodlr.n
        dtype = np.dtype(getattr(target, "dtype", None) or target.hodlr.dtype)
        super().__init__(dtype=dtype, shape=(n, n))

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self.target.solve(np.asarray(x).ravel())

    def _matmat(self, X: np.ndarray) -> np.ndarray:
        return self.target.solve(np.asarray(X))
