"""Instrumentation of batched kernel launches.

Every call into the batched backend emits a :class:`KernelEvent` describing
what a cuBLAS kernel launch would have looked like: the kernel name, the
batch size, per-problem dimensions, floating-point operations, and bytes
read/written.  Traces are the raw material for the analytic performance
model (:mod:`repro.backends.perfmodel`) and for the GFlop/s figures
(Fig. 9 of the paper).

Recording is cheap relative to the numerical work (a few large batched
launches per tree level) and **thread-safe**: the recorder's trace stack
and ambient context are thread-local, so concurrent callers each record
into their own traces.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class KernelEvent:
    """A single batched-kernel launch.

    Parameters
    ----------
    kernel:
        Name of the primitive (``"gemm_strided_batched"``, ``"getrf_batched"``, ...).
    batch:
        Number of independent problems in the batch.
    shape:
        Per-problem dimensions.  For gemm this is ``(m, n, k)``; for LU
        factorization ``(n, n, 0)``; for LU solve ``(n, nrhs, 0)``.
    flops:
        Total floating point operations across the whole batch.
    bytes_moved:
        Total bytes read plus written by the launch (device memory traffic).
    dtype_size:
        Size in bytes of one scalar (8 for float64, 4 for float32, 16 for
        complex128, ...).
    strided:
        Whether the launch used strided/packed execution (one 3-D stack
        with a constant stride, ``gemmStridedBatched``-style).  Every
        launch in :mod:`repro.backends.batched` is strided; ``False``
        marks a generic per-block launch, which the paper reports as
        significantly slower for small operands.
    buckets:
        Number of physical kernel launches the event stands for; the
        performance model charges one launch overhead per bucket.  Every
        launch in :mod:`repro.backends.batched` is one uniform bucket
        (``1``); heterogeneous levels issue one event per bucket.
    level:
        Tree level that issued the launch, if known.
    tag:
        Free-form annotation (e.g. ``"factor"`` or ``"solve"``).
    plan:
        Whether the launch replayed packed *plan* storage (a compiled
        :class:`~repro.core.apply_plan.ApplyPlan` /
        :class:`~repro.core.factor_plan.FactorPlan` bucket) rather than
        operands assembled at call time, as construction does.  Plan launches are what
        the launch-count acceptance tests pin down: a compiled solve costs
        exactly ``launches_per_solve`` of them.
    """

    kernel: str
    batch: int
    shape: Tuple[int, int, int]
    flops: float
    bytes_moved: float
    dtype_size: int = 8
    strided: bool = False
    buckets: int = 1
    level: Optional[int] = None
    tag: str = ""
    plan: bool = False


@dataclass
class KernelTrace:
    """An ordered list of kernel launches plus explicit data transfers."""

    events: List[KernelEvent] = field(default_factory=list)
    #: host->device / device->host transfers, in bytes.
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0

    def append(self, event: KernelEvent) -> None:
        self.events.append(event)

    def extend(self, other: "KernelTrace") -> None:
        self.events.extend(other.events)
        self.h2d_bytes += other.h2d_bytes
        self.d2h_bytes += other.d2h_bytes

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def total_flops(self) -> float:
        return float(sum(e.flops for e in self.events))

    @property
    def total_bytes(self) -> float:
        return float(sum(e.bytes_moved for e in self.events))

    @property
    def num_launches(self) -> int:
        return len(self.events)

    @property
    def num_kernel_launches(self) -> int:
        """Physical kernel launches: one per shape bucket of every dispatch."""
        return int(sum(e.buckets for e in self.events))

    @property
    def num_bucketed_launches(self) -> int:
        """Launches that executed as packed strided shape buckets."""
        return int(sum(e.buckets for e in self.events if e.strided))

    @property
    def num_plan_launches(self) -> int:
        """Launches replayed from compiled plan storage (``KernelEvent.plan``).

        For a solve through a compiled :class:`~repro.core.factor_plan.
        SolvePlan` this equals the plan's ``launches_per_solve`` — the
        trace-level proof that the compiled path (not a per-solve
        re-bucketing sweep) executed.
        """
        return int(sum(e.buckets for e in self.events if e.plan))

    def buckets_by_kernel(self) -> Dict[str, int]:
        """Total shape-bucket (physical launch) counts per kernel name."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kernel] = out.get(e.kernel, 0) + e.buckets
        return out

    def flops_by_kernel(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for e in self.events:
            out[e.kernel] = out.get(e.kernel, 0.0) + e.flops
        return out

    def launches_by_level(self) -> Dict[Optional[int], int]:
        out: Dict[Optional[int], int] = {}
        for e in self.events:
            out[e.level] = out.get(e.level, 0) + 1
        return out

    def filter(self, tag: Optional[str] = None, kernel: Optional[str] = None) -> "KernelTrace":
        """Return a sub-trace restricted to a tag and/or kernel name."""
        events = [
            e
            for e in self.events
            if (tag is None or e.tag == tag) and (kernel is None or e.kernel == kernel)
        ]
        return KernelTrace(events=events, h2d_bytes=0.0, d2h_bytes=0.0)

    def summary(self) -> Dict[str, float]:
        return {
            "launches": float(self.num_launches),
            "flops": self.total_flops,
            "bytes": self.total_bytes,
            "h2d_bytes": self.h2d_bytes,
            "d2h_bytes": self.d2h_bytes,
        }


class TraceRecorder:
    """Global, stack-structured recorder for kernel events.

    The backend functions call :func:`record_event`; user code wraps regions
    of interest with :meth:`TraceRecorder.recording` to capture a trace:

    >>> rec = get_recorder()
    >>> with rec.recording() as trace:
    ...     ...  # run a factorization
    >>> trace.total_flops  # doctest: +SKIP

    State (the trace stack and the ambient level/tag context) is
    **thread-local**: each thread records into its own stack, so
    concurrent callers never interleave into each other's traces.
    """

    def __init__(self) -> None:
        self._tls = threading.local()

    def _state(self):
        """This thread's recorder state, created on first touch."""
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack: List[KernelTrace] = []
            #: ambient context applied to every recorded event
            tls.level: Optional[int] = None
            tls.tag: str = ""
        return tls

    # -- context management ------------------------------------------------
    @contextlib.contextmanager
    def recording(self) -> Iterator[KernelTrace]:
        st = self._state()
        trace = KernelTrace()
        st.stack.append(trace)
        try:
            yield trace
        finally:
            popped = st.stack.pop()
            # nested recordings bubble up into their parent so that an outer
            # trace sees the union of all inner work.
            if st.stack:
                st.stack[-1].extend(popped)

    @contextlib.contextmanager
    def context(
        self,
        level: Optional[int] = None,
        tag: Optional[str] = None,
    ) -> Iterator[None]:
        """Temporarily attach level/tag metadata to recorded events."""
        st = self._state()
        old = (st.level, st.tag)
        if level is not None:
            st.level = level
        if tag is not None:
            st.tag = tag
        try:
            yield
        finally:
            st.level, st.tag = old

    # -- event emission ----------------------------------------------------
    def emit(self, event: KernelEvent) -> None:
        st = self._state()
        if not st.stack:
            return
        if st.level is not None or st.tag:
            event = replace(
                event,
                level=event.level if event.level is not None else st.level,
                tag=event.tag or st.tag,
            )
        st.stack[-1].append(event)

    def add_transfer(self, nbytes: float, direction: str = "h2d") -> None:
        st = self._state()
        if not st.stack:
            return
        if direction == "h2d":
            st.stack[-1].h2d_bytes += float(nbytes)
        elif direction == "d2h":
            st.stack[-1].d2h_bytes += float(nbytes)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown transfer direction {direction!r}")

    @property
    def active(self) -> bool:
        return bool(self._state().stack)


_GLOBAL_RECORDER = TraceRecorder()


def get_recorder() -> TraceRecorder:
    """Return the process-wide :class:`TraceRecorder` singleton."""
    return _GLOBAL_RECORDER


def record_event(event: KernelEvent) -> None:
    """Emit ``event`` into the active recording, if any."""
    _GLOBAL_RECORDER.emit(event)


# ----------------------------------------------------------------------
# flop-count helpers (paper's conventions, section III-D)
# ----------------------------------------------------------------------
def gemm_flops(m: int, n: int, k: int, complex_arith: bool = False) -> float:
    """Flops for a dense ``m x k`` times ``k x n`` multiply-accumulate.

    The paper counts ``2 k m n`` real operations per gemm (footnote 3).  A
    complex multiply-add costs 4x a real one in multiplications plus
    additions; we use the conventional factor of 4.
    """
    base = 2.0 * m * n * k
    return 4.0 * base if complex_arith else base


def getrf_flops(n: int, complex_arith: bool = False) -> float:
    """Flops for an in-place LU factorization of an ``n x n`` matrix (2/3 n^3)."""
    base = 2.0 / 3.0 * n ** 3
    return 4.0 * base if complex_arith else base


def getrs_flops(n: int, nrhs: int, complex_arith: bool = False) -> float:
    """Flops for triangular solves with ``nrhs`` right-hand sides (2 n^2 per rhs)."""
    base = 2.0 * n ** 2 * nrhs
    return 4.0 * base if complex_arith else base


def potrf_flops(n: int, complex_arith: bool = False) -> float:
    """Flops for the inverse Cholesky factor of an ``n x n`` SPD matrix:
    ``potrf`` (n^3/3) plus the in-place triangular inverse ``trtri`` (n^3/3)."""
    base = 2.0 / 3.0 * n ** 3
    return 4.0 * base if complex_arith else base


def cholesky_flops(n: int, complex_arith: bool = False) -> float:
    """Flops for the Cholesky factor of an ``n x n`` Hermitian positive
    definite matrix and its inverse, kept side by side: ``potrf`` (n^3/3)
    plus an out-of-place ``trtri`` (n^3/3), as :func:`potrf_flops`."""
    return potrf_flops(n, complex_arith)


def potrs_flops(n: int, nrhs: int, complex_arith: bool = False) -> float:
    """Flops for ``x = C^{-T} (C^{-1} b)`` against an explicit inverse factor:
    two full ``n x n`` gemms per right-hand side (4 n^2 per rhs) — the
    triangular zeros are multiplied, not skipped."""
    return 2.0 * gemm_flops(n, nrhs, n, complex_arith)


def trtri_flops(n: int, complex_arith: bool = False) -> float:
    """Flops for the inverses of both triangular factors of an ``n x n``
    packed LU: two triangular inversions ``trtri`` of n^3/3 each."""
    base = 2.0 / 3.0 * n ** 3
    return 4.0 * base if complex_arith else base


def schur_solve_flops(r: int, nrhs: int, complex_arith: bool = False) -> float:
    """Flops for one ``2r x 2r`` K system solved through its Schur complement:
    ``y = U^{-1} (G c)`` with ``G`` of ``r x 2r``, then ``x = c_b - T_b y`` —
    three full gemms per right-hand side (8 r^2 per rhs, what ``getrs``
    costs on the ``2r x 2r`` system); the triangular zeros of ``U^{-1}``
    are multiplied, not skipped."""
    return gemm_flops(r, nrhs, 2 * r, complex_arith) + 2.0 * gemm_flops(
        r, nrhs, r, complex_arith
    )


def geqrf_flops(m: int, n: int, complex_arith: bool = False) -> float:
    """Flops for a Householder thin QR of an ``m x n`` block (2 m n^2 - 2/3 n^3).

    Used by the batched range finder of the construction stage; includes the
    explicit formation of the thin ``Q`` factor.
    """
    k = min(m, n)
    base = 2.0 * m * n * k - 2.0 / 3.0 * k ** 3 + 2.0 * m * k * k
    return 4.0 * base if complex_arith else base


def gesvd_flops(m: int, n: int, complex_arith: bool = False) -> float:
    """Flops for an economy SVD of an ``m x n`` block (Golub--Van Loan estimate).

    The standard ``14 m n^2 + 8 n^3`` count for the R-bidiagonalisation path
    (with ``m >= n``; the transposed problem is priced symmetrically).
    """
    hi, lo = (m, n) if m >= n else (n, m)
    base = 14.0 * hi * lo ** 2 + 8.0 * lo ** 3
    return 4.0 * base if complex_arith else base
