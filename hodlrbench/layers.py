"""Layer attribution for the traced benchmark pass.

Spans are recorded by the benchmark around calls *into* each layer of the
library — nothing inside ``src/`` is instrumented.  A layer is a module:

``kernels``       ``KernelMatrix.entries`` / ``entries_blocks`` (through
                  :class:`CountingKernel`)
``cluster_tree``  ``ClusterTree.from_points`` / ``balanced``
``hodlr``         ``build_hodlr`` (compression included; kernel calls nest
                  inside it as child spans)
``factor_plan``   ``HODLROperator.factorize`` (``HODLRSolver.factorize``)
``solve_plan``    ``HODLRSolver.solve``
``apply_plan``    the first operator application (plan compile) and
                  ``ApplyPlan.matvec``
``update``        ``remove_points`` / ``update_points`` /
                  ``HODLRSolver.patch_factorize`` / ``ApplyPlan.patch``
``facade``        the ``repro`` calls the user makes; its self time is the
                  facade's own overhead

A span's self time is its duration minus the spans it encloses, so the self
times of all spans add up to the time the spans cover (the union of their
intervals), and that plus the time covered by none of them is the traced
total.  Kernel launches and flops come from the library's own
``KernelTrace`` recorder, opened around each layer span.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

import numpy as np

from repro import get_recorder


@dataclass
class Span:
    layer: str
    kind: str
    start: float
    end: float = 0.0
    #: time covered by spans opened while this one was open
    child_s: float = 0.0
    launches: int = 0
    flops: float = 0.0
    bytes_moved: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._open: List[Span] = []

    @contextlib.contextmanager
    def span(self, layer: str, kind: str = "", record: bool = False) -> Iterator[Span]:
        """Time one call into ``layer``; ``record`` also captures its KernelTrace."""
        span = Span(layer=layer, kind=kind, start=time.perf_counter())
        self._open.append(span)
        trace = None
        try:
            if record:
                with get_recorder().recording() as trace:
                    yield span
            else:
                yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1].child_s += span.seconds
            if trace is not None:
                span.launches = trace.num_kernel_launches
                span.flops = trace.total_flops
                span.bytes_moved = trace.total_bytes
            self.spans.append(span)

    def select(self, layer: str, kind: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans if s.layer == layer and (kind is None or s.kind == kind)
        ]

    def busy(self, layer: str, kind: Optional[str] = None) -> float:
        return float(sum(s.seconds for s in self.select(layer, kind)))

    def self_time(self, layer: str) -> float:
        return float(sum(s.self_s for s in self.select(layer)))

    def total(self, layer: str, field: str, kind: Optional[str] = None) -> float:
        return float(sum(getattr(s, field) for s in self.select(layer, kind)))

    def covered(self) -> float:
        """Time covered by at least one span: the union of their intervals.

        Worked out from the span bounds alone, so it checks the nesting
        bookkeeping behind ``self_s``: the self times of correctly nested
        spans add up to exactly this.
        """
        total, reach = 0.0, float("-inf")
        for start, end in sorted((s.start, s.end) for s in self.spans):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total


class CountingKernel:
    """``entries`` / ``entries_blocks`` of a ``KernelMatrix``, timed and counted.

    Passed to ``build_hodlr`` and ``update_operator`` in place of the
    ``KernelMatrix``: the rook construction records no events in the
    ``KernelTrace``, so kernel work is only visible from here.
    """

    def __init__(self, matrix: Any, tracer: Tracer) -> None:
        self.matrix = matrix
        self.tracer = tracer

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        with self.tracer.span("kernels", "entries"):
            out = self.matrix.entries(rows, cols)
        self.tracer.counts["kernels.calls"] += 1
        self.tracer.counts["kernels.entries"] += int(np.size(out))
        return out

    def entries_blocks(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        with self.tracer.span("kernels", "blocks"):
            out = self.matrix.entries_blocks(rows, cols)
        self.tracer.counts["kernels.block_calls"] += 1
        self.tracer.counts["kernels.entries"] += int(np.size(out))
        return out


def _rhs_kind(args: tuple) -> str:
    return "block" if args and getattr(args[0], "ndim", 1) == 2 else "single"


def _wrap(obj: Any, name: str, tracer: Tracer, layer: str,
          kind: Callable[[tuple], str]) -> None:
    """Shadow ``obj.name`` with a timed, trace-recording instance attribute."""
    orig = getattr(obj, name)
    if getattr(orig, "_bench_layer", None):
        return

    def timed(*args, **kwargs):
        with tracer.span(layer, kind(args), record=True):
            return orig(*args, **kwargs)

    timed._bench_layer = layer  # type: ignore[attr-defined]
    setattr(obj, name, timed)


def instrument_operator(op: Any, tracer: Tracer) -> None:
    """Time the solver and apply plan an operator drives.

    Called again before every facade call: an update that falls back to a
    rebuild replaces the solver or plan with a fresh, unwrapped object.
    Both must already exist (factorized operator, plan compiled).
    """
    _wrap(op.solver, "solve", tracer, "solve_plan", _rhs_kind)
    _wrap(op.solver, "patch_factorize", tracer, "update", lambda a: "patch")
    plan = op.apply_plan
    if plan is not None:
        _wrap(plan, "matvec", tracer, "apply_plan", _rhs_kind)
        _wrap(plan, "patch", tracer, "update", lambda a: "apply_patch")


@contextlib.contextmanager
def hooked_update_functions(tracer: Tracer) -> Iterator[None]:
    """Time ``remove_points`` / ``update_points`` while the block is open.

    ``HODLROperator.update`` imports them from ``repro.core.update`` at call
    time, so rebinding the module attributes is the one seam through which
    the facade's own calls can be timed from outside.
    """
    import repro.core.update as update_module

    saved = {
        "remove_points": update_module.remove_points,
        "update_points": update_module.update_points,
    }

    def timed(fn, kind):
        def call(*args, **kwargs):
            with tracer.span("update", kind, record=True):
                return fn(*args, **kwargs)

        return call

    update_module.remove_points = timed(saved["remove_points"], "remove")
    update_module.update_points = timed(saved["update_points"], "insert")
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(update_module, name, fn)
