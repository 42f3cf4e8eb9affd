"""Plan-backed HODLR factorization and solve (Algorithms 1-4).

The paper's non-recursive factorization (Algorithms 1 and 2) and its GPU
schedule (Algorithms 3 and 4) are one schedule: batched per-level LU,
solve and gemm over the HODLR matrix's own per-level stacks
(:class:`~repro.core.hodlr.HODLRStorage`, the concatenated layout of the
paper's Figs. 3-4).  :class:`BatchedFactorization` is that schedule, and
the ``"batched"`` solver variant builds it.

:meth:`BatchedFactorization.factorize` lowers onto
:func:`~repro.core.factor_plan.build_factor_plan` — one ``getrfBatched``/
``getrsBatched``/``gemmStridedBatched`` launch per shape bucket per level,
with ``potrfBatched``/``potrsBatched`` leaves on a real symmetric matrix —
wrapped in kernel-trace recording and host/device transfer accounting, and
:meth:`BatchedFactorization.solve` replays the compiled
:class:`~repro.core.factor_plan.SolvePlan` (``O(levels x buckets)``
launches, no Python tree walk, every launch trace-visible with
``KernelEvent.plan`` set).

Partial pivoting in the batched LU of the ``K`` blocks can be disabled
(``pivot=False``) to model the alternative formulation of equation (9).
Every dispatch policy factorizes through the same plan and the same
launches; :data:`~repro.backends.dispatch.LOOP_POLICY` changes only how
the matrix was constructed.

Every launch is recorded in a :class:`~repro.backends.counters.KernelTrace`
(``factor_trace`` / the trace returned alongside each solve), which the
performance model converts into modeled GPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from ..backends.counters import KernelTrace, get_recorder
from .factor_plan import FactorPlan, SolvePlan, build_factor_plan
from .hodlr import HODLRMatrix


@dataclass
class BatchedFactorization:
    """Output of Algorithms 1/3, consumed by Algorithms 2/4."""

    hodlr: HODLRMatrix
    #: partial pivoting for the batched LU of the K blocks.
    pivot: bool = True
    #: execution context (backend + policy + precision); ``None`` = default
    context: Optional[ExecutionContext] = None

    factored: bool = False
    #: kernel trace of the factorization stage
    factor_trace: Optional[KernelTrace] = None
    #: kernel trace of the most recent solve
    last_solve_trace: Optional[KernelTrace] = None
    _plan: Optional[FactorPlan] = field(default=None, repr=False)
    _solve_plan: Optional[SolvePlan] = field(default=None, repr=False)

    @property
    def factor_plan(self) -> Optional[FactorPlan]:
        return self._plan

    @property
    def solve_plan(self) -> Optional[SolvePlan]:
        return self._solve_plan

    def factorize(self, previous=None) -> "BatchedFactorization":
        """Run the packed Algorithm 1; ``previous`` (``(matrix, plan)`` of an
        earlier factorization) supplies the LU factors of every unchanged
        leaf (see :func:`~repro.core.factor_plan.build_factor_plan`)."""
        self.context = self.context or DEFAULT_CONTEXT
        rec = get_recorder()
        with rec.recording() as trace:
            # the HODLR data (D, U, V) is assembled on the host and copied to
            # the device before factorization (paper, section IV-A).
            rec.add_transfer(self.hodlr.nbytes, "h2d")
            with rec.context(tag="factor"):
                self._plan = build_factor_plan(
                    self.hodlr,
                    context=self.context,
                    pivot=self.pivot,
                    previous=previous,
                )
        self._solve_plan = self._plan.solve_plan()
        self.factor_trace = trace
        self.factored = True
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` by replaying the compiled SolvePlan."""
        if not self.factored:
            raise RuntimeError("call factorize() before solve()")
        rec = get_recorder()
        b = self.context.backend.asarray(b)
        if b.shape[0] != self.hodlr.n:
            raise ValueError(
                f"right-hand side has {b.shape[0]} rows, expected {self.hodlr.n}"
            )
        with rec.recording() as trace:
            rec.add_transfer(b.nbytes, "h2d")
            with rec.context(tag="solve"):
                x = self._solve_plan.solve(b)
            rec.add_transfer(x.nbytes, "d2h")
        self.last_solve_trace = trace
        return x

    def slogdet(self) -> Tuple[complex, float]:
        """Sign/phase and log-magnitude of ``det(A)`` from the stored factors."""
        if not self.factored:
            raise RuntimeError("call factorize() before slogdet()")
        return self._plan.slogdet()

    def logdet(self) -> float:
        sign, logabs = self.slogdet()
        if not np.iscomplexobj(np.asarray(sign)) and np.real(sign) <= 0:
            raise ValueError("matrix has a non-positive determinant; use slogdet()")
        return logabs

    def factorization_nbytes(self) -> int:
        """Memory the factorization owns (the plan; ``V^*`` it reads from the
        matrix's storage is not counted), in bytes."""
        return self._plan.nbytes
