"""The factorization engine behind the :mod:`repro.api` facade.

The recommended entry points live one level up, in :mod:`repro.api`:

>>> import repro
>>> result = repro.solve("gaussian_kernel", config=cfg, n=4096)  # doctest: +SKIP
>>> op = repro.build_operator(hodlr, config=cfg)                 # doctest: +SKIP
>>> x = op.solve(b); op.logdet()                                 # doctest: +SKIP

``repro.solve`` resolves a registered problem (or any matrix-like input)
to a HODLR approximation and an :class:`~repro.api.operator.HODLROperator`
— a SciPy ``LinearOperator`` that factorizes lazily, refactorizes on dtype
changes, and exposes ``solve``/``logdet``/``as_preconditioner()``.

:class:`HODLRSolver` below is the engine those objects drive: it binds a
:class:`~repro.core.hodlr.HODLRMatrix` to one factorization variant and an
array backend, and owns the timings/diagnostics (:class:`SolveStats`).
Instantiating it directly remains supported for low-level work
(``HODLRSolver(H).factorize()``); facade code should use
:meth:`HODLRSolver.from_config` so all option plumbing stays in
:class:`~repro.api.config.SolverConfig`.

Variants
--------
Two built-in ways to run a solve: one compiled fast path and one reference.

``"batched"`` (default)
    Algorithms 1-4: the level-batched schedule over the matrix's per-level
    stacks, compiled into one :class:`~repro.core.factor_plan.FactorPlan`
    and replayed by its :class:`~repro.core.factor_plan.SolvePlan`, with
    kernel traces available for performance modeling
    (:class:`~repro.core.factor_batched.BatchedFactorization`).
``"recursive"``
    The per-node recursion of section III-A: the reference the plan is
    tested against and the engine of the HODLRlib-style CPU baseline.  It
    builds no plan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.counters import KernelTrace
from ..backends.perfmodel import ExecutionEstimate, PerformanceModel
from .factor_batched import BatchedFactorization
from .factor_recursive import RecursiveFactorization
from .hodlr import HODLRMatrix

_VARIANTS = ("recursive", "batched")

#: registered non-builtin variants: ``factory(hodlr, solver) -> impl`` where
#: ``impl`` provides at least ``solve(b)`` (``slogdet``/``logdet``/
#: ``factorization_nbytes`` are picked up when present)
_VARIANT_FACTORIES: Dict[str, Callable[[HODLRMatrix, "HODLRSolver"], Any]] = {}


def register_solver_variant(
    name: str,
    factory: Callable[[HODLRMatrix, "HODLRSolver"], Any],
    overwrite: bool = False,
) -> None:
    """Register a solver variant usable as ``SolverConfig(variant=name)``.

    ``factory(hodlr, solver)`` receives the (dtype-cast) HODLR matrix and
    the owning :class:`HODLRSolver` and must return a *factorized* object
    with ``solve(b)``.  The baseline solvers (``dense_lu``,
    ``block_sparse``, ``hodlrlib_cpu``) register themselves through this
    hook, so paper-table comparisons run through the same ``repro.solve``
    facade as the HODLR variants.
    """
    if name in _VARIANTS:
        raise ValueError(f"variant {name!r} is built in")
    if not overwrite and name in _VARIANT_FACTORIES:
        raise ValueError(f"solver variant {name!r} is already registered")
    _VARIANT_FACTORIES[name] = factory


def available_solver_variants() -> List[str]:
    """All accepted ``variant`` names: the built-ins plus registered ones."""
    return list(_VARIANTS) + sorted(_VARIANT_FACTORIES)


@dataclass
class SolveStats:
    """Timings and diagnostics collected by :class:`HODLRSolver`.

    ``num_solves`` counts *right-hand sides*, not calls: a fused solve of a
    ``(n, K)`` block counts ``K`` (``last_batch_size`` holds that ``K``), so
    :attr:`mean_solve_seconds` is the per-RHS amortized time and throughput
    math stays honest when blocks are fused through one plan replay.
    ``solve_seconds`` accumulates wall time over every ``solve()`` call;
    ``last_solve_seconds`` holds only the most recent call (the whole block,
    not per RHS), which is what per-solve tables should report.
    """

    factor_seconds: float = 0.0
    solve_seconds: float = 0.0
    last_solve_seconds: float = 0.0
    num_solves: int = 0
    last_batch_size: int = 0
    factorization_bytes: int = 0
    relative_residual: Optional[float] = None

    @property
    def factorization_gb(self) -> float:
        return self.factorization_bytes / 1.0e9

    @property
    def mean_solve_seconds(self) -> float:
        """Per right-hand side amortized solve time."""
        return self.solve_seconds / self.num_solves if self.num_solves else 0.0


class HODLRSolver:
    """Factorize a :class:`HODLRMatrix` and solve linear systems with it.

    Parameters
    ----------
    hodlr:
        The HODLR approximation of the coefficient matrix.
    variant:
        ``"recursive"`` or ``"batched"`` (default).
    dtype:
        Optional dtype override; ``np.float32`` reproduces the paper's
        single-precision runs (Table IVb).
    pivot:
        Partial pivoting in the reduced ``K`` systems (``batched``).
    context:
        The :class:`~repro.backends.context.ExecutionContext` carrying the
        array backend, the shape-bucketing
        :class:`~repro.backends.dispatch.DispatchPolicy`, and the precision
        in one object (``None`` = the default context).  The factorization
        runs the same compiled plan under every policy;
        :data:`~repro.backends.dispatch.LOOP_POLICY` changes only how a
        matrix is constructed.
    """

    def __init__(
        self,
        hodlr: HODLRMatrix,
        variant: str = "batched",
        dtype=None,
        pivot: bool = True,
        context: Optional[ExecutionContext] = None,
    ) -> None:
        if variant not in _VARIANTS and variant not in _VARIANT_FACTORIES:
            raise ValueError(
                f"variant must be one of {tuple(available_solver_variants())}, "
                f"got {variant!r}"
            )
        self.variant = variant
        self.pivot = pivot
        self.context = context or DEFAULT_CONTEXT
        # dtype=None means "hodlr is already at the target dtype" — the
        # context's precision.storage reaches here through from_config's
        # dtype argument, never implicitly
        self.hodlr = hodlr if dtype is None else hodlr.astype(dtype)
        self.stats = SolveStats()
        # solve() may run concurrently (callers' threads sharing a cached
        # operator); the read-modify-write stats update needs a lock
        self._stats_lock = threading.Lock()
        self._impl: Optional[
            Union[RecursiveFactorization, BatchedFactorization]
        ] = None

    _UNSET = object()

    @classmethod
    def from_config(
        cls,
        hodlr: HODLRMatrix,
        config,
        dtype=_UNSET,
        context: Optional[ExecutionContext] = None,
    ) -> "HODLRSolver":
        """Construct from a :class:`repro.api.config.SolverConfig`.

        ``config`` is duck-typed (any object with ``variant``, ``pivot``,
        ``numpy_dtype`` and an ``execution_context()`` method).  ``dtype``
        overrides the config's dtype when given — pass ``dtype=None``
        explicitly if ``hodlr`` is already stored at the target dtype to
        skip the cast.

        An explicit ``context=`` replaces the one the config would build —
        this is how :class:`~repro.api.operator.HODLROperator` shares its
        own context instead of building a second one from the config.  To
        change one field and keep the rest (e.g. the precision), pass
        ``config.execution_context().replace(policy=...)``.
        """
        return cls(
            hodlr,
            variant=config.variant,
            dtype=config.numpy_dtype if dtype is cls._UNSET else dtype,
            pivot=config.pivot,
            context=context or config.execution_context(),
        )

    # ------------------------------------------------------------------
    # factorization
    # ------------------------------------------------------------------
    def factorize(self) -> "HODLRSolver":
        return self._factorize(None)

    def _factorize(self, previous) -> "HODLRSolver":
        t0 = time.perf_counter()  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        if self.variant == "recursive":
            self._impl = RecursiveFactorization(
                hodlr=self.hodlr, context=self.context
            ).factorize()
            self.stats.factorization_bytes = self._impl.factorization_nbytes()
        elif self.variant == "batched":
            self._impl = BatchedFactorization(
                hodlr=self.hodlr, pivot=self.pivot, context=self.context
            ).factorize(previous)
            self.stats.factorization_bytes = self._impl.factorization_nbytes()
        else:
            # a registered (baseline) variant: the factory returns a
            # factorized object exposing at least solve(b)
            self._impl = _VARIANT_FACTORIES[self.variant](self.hodlr, self)
            nbytes = getattr(self._impl, "factorization_nbytes", None)
            self.stats.factorization_bytes = int(nbytes()) if callable(nbytes) else 0
        self.stats.factor_seconds = time.perf_counter() - t0  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        return self

    def patch_factorize(self, hodlr: HODLRMatrix) -> "HODLRSolver":
        """Refactorize in place for an updated matrix.

        ``hodlr`` (cast to the solver's dtype) replaces the solver's matrix
        and the factorization is recomputed from it on this same solver
        object, so wrappers and references held on the solver stay valid.
        The ``batched`` variant copies the LU factors of every leaf whose
        diagonal block is bitwise equal to the previous matrix's from the
        current plan and factorizes only the changed leaves, while the
        solved bases, the K systems and the sweeps are recomputed in full —
        the result is bitwise a fresh factorization's.  A streaming update
        (:mod:`repro.core.update`) copies its clean leaves' blocks
        unchanged, so only its dirty leaves are factorized again.  Every
        other variant refactorizes in full.
        """
        target = np.dtype(self.hodlr.dtype)
        plan = self.factor_plan
        previous = None if plan is None else (self.hodlr, plan)
        self.hodlr = hodlr if np.dtype(hodlr.dtype) == target else hodlr.astype(target)
        return self._factorize(previous)

    @property
    def factored(self) -> bool:
        return self._impl is not None

    def _require_factored(self):
        if self._impl is None:
            raise RuntimeError("call factorize() first")
        return self._impl

    # ------------------------------------------------------------------
    # solve / apply
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, compute_residual: bool = False) -> np.ndarray:
        """Solve ``A x = b``; ``b`` may contain multiple right-hand sides.

        The ``batched`` variant replays its compiled
        :class:`~repro.core.factor_plan.SolvePlan` (packed once at
        factorization time, reused across solves and Krylov iterations);
        the ``recursive`` variant runs the per-node recursion.
        """
        impl = self._require_factored()
        t0 = time.perf_counter()  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        x = impl.solve(b)
        elapsed = time.perf_counter() - t0  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        # a fused (n, K) block counts K right-hand sides: one plan replay
        # amortizes its launches across the whole block
        nrhs = int(b.shape[1]) if getattr(b, "ndim", 1) == 2 else 1
        with self._stats_lock:
            self.stats.last_solve_seconds = elapsed
            self.stats.last_batch_size = nrhs
            self.stats.solve_seconds += elapsed
            self.stats.num_solves += nrhs
        if compute_residual:
            residual = self.relative_residual(x, b)
            with self._stats_lock:
                self.stats.relative_residual = residual
        return x

    def relative_residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """``||b - A x|| / ||b||`` using the HODLR matvec (the paper's relres).

        Norms are routed through the active :class:`ArrayBackend`, so
        device-resident ``x``/``b`` (e.g. CuPy arrays) are handled without
        forcing a NumPy conversion.  The matvec runs where the compressed
        blocks live: host NumPy blocks multiply a host copy of ``x``
        (device arrays are transferred once), device-resident blocks (a
        construction run on the context's backend) multiply the
        device-resident ``x`` directly — no host/device mixing either way.
        """
        ab = self.context.backend
        b_arr = ab.asarray(b)
        first_block = next(iter(self.hodlr.diag.values()))
        if type(first_block) is np.ndarray:
            x_host = ab.to_host(ab.asarray(x))
            Ax = ab.from_host(np.asarray(self.hodlr.matvec(x_host)))
        else:
            Ax = ab.asarray(self.hodlr.matvec(ab.asarray(x)))
        r = b_arr - Ax
        num = float(ab.to_host(ab.norm(r)))
        denom = float(ab.to_host(ab.norm(b_arr)))
        return num / denom if denom > 0 else num

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.hodlr.matvec(x)

    # ------------------------------------------------------------------
    # determinant
    # ------------------------------------------------------------------
    def slogdet(self) -> Tuple[complex, float]:
        impl = self._require_factored()
        fn = getattr(impl, "slogdet", None)
        if fn is None:
            raise NotImplementedError(
                f"variant {self.variant!r} does not expose slogdet"
            )
        return fn()

    def logdet(self) -> float:
        impl = self._require_factored()
        fn = getattr(impl, "logdet", None)
        if fn is None:
            raise NotImplementedError(
                f"variant {self.variant!r} does not expose logdet"
            )
        return fn()

    # ------------------------------------------------------------------
    # traces & performance modeling (batched variant)
    # ------------------------------------------------------------------
    @property
    def factor_trace(self) -> Optional[KernelTrace]:
        impl = self._require_factored()
        return getattr(impl, "factor_trace", None)

    @property
    def last_solve_trace(self) -> Optional[KernelTrace]:
        impl = self._require_factored()
        return getattr(impl, "last_solve_trace", None)

    # ------------------------------------------------------------------
    # compiled plans
    # ------------------------------------------------------------------
    @property
    def factor_plan(self):
        """The shared packed :class:`~repro.core.factor_plan.FactorPlan`
        of the ``batched`` variant; ``None`` before factorization, for
        ``recursive`` and for registered baseline variants)."""
        return getattr(self._impl, "factor_plan", None)

    @property
    def solve_plan(self):
        """The compiled :class:`~repro.core.factor_plan.SolvePlan` every
        ``solve`` replays (``None`` whenever :attr:`factor_plan` is)."""
        return getattr(self._impl, "solve_plan", None)

    def modeled_times(
        self, model: Optional[PerformanceModel] = None
    ) -> Dict[str, ExecutionEstimate]:
        """Estimate device execution times of the recorded kernel traces.

        Only meaningful for the ``batched`` variant; returns a dict with
        keys ``"factorization"`` and (if a solve has been run)
        ``"solution"``.
        """
        model = model or PerformanceModel()
        out: Dict[str, ExecutionEstimate] = {}
        if self.factor_trace is not None:
            out["factorization"] = model.estimate(self.factor_trace)
        if self.last_solve_trace is not None:
            out["solution"] = model.estimate(self.last_solve_trace)
        return out

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    @property
    def memory_gb(self) -> float:
        """Memory of the factorization in GB (the ``mem`` column of the tables)."""
        return self.stats.factorization_bytes / 1.0e9

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "factored" if self.factored else "unfactored"
        return f"HODLRSolver(n={self.hodlr.n}, variant={self.variant!r}, {state})"
