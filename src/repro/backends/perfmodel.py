"""Analytic performance model: kernel traces -> estimated device time.

This is the documented substitution (DESIGN.md, section 1) for the paper's
physical V100/Xeon testbed.  The factorization and solve algorithms are
executed for real in NumPy, which produces a :class:`KernelTrace` — the
exact sequence of batched kernel launches (with their batch sizes, operand
shapes, flops, and bytes) that the GPU implementation would have issued.
The model then prices each launch on a :class:`DeviceSpec` using a simple
roofline-with-launch-overhead formula, adds PCIe transfer time for the
initial copy of ``D_big``/``U_big``/``V_big``, and reports the total.

The model is *not* calibrated to match the paper's absolute seconds.  Its
purpose is to preserve the qualitative structure of the evaluation:

* near-linear growth of factorization/solution cost with N,
* the GPU-vs-CPU gap and its growth with N (device saturation),
* the larger speedup of the solve phase relative to the factorization,
* the ~2x benefit of single precision,
* the GFlop/s curves of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .counters import KernelTrace
from .device import DeviceSpec, LinkSpec, GPU_V100, CPU_XEON_6254_DUAL, PCIE3_X16


@dataclass
class ExecutionEstimate:
    """Modeled execution time of a kernel trace on a device."""

    device: str
    compute_time: float
    transfer_time: float
    num_launches: int
    total_flops: float
    total_bytes: float
    #: per-kernel breakdown of compute time
    by_kernel: Dict[str, float] = field(default_factory=dict)
    #: physical kernel launches: one per shape bucket of every dispatch
    num_kernel_launches: int = 0
    #: launches replayed from compiled plan storage (ApplyPlan/SolvePlan
    #: buckets) — no per-call planning or packing cost behind them
    plan_launches: int = 0

    @property
    def total_time(self) -> float:
        return self.compute_time + self.transfer_time

    @property
    def gflops(self) -> float:
        """Achieved GFlop/s (useful flops divided by modeled time)."""
        t = self.total_time
        return self.total_flops / t / 1.0e9 if t > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionEstimate(device={self.device!r}, total={self.total_time:.4g}s, "
            f"compute={self.compute_time:.4g}s, transfer={self.transfer_time:.4g}s, "
            f"gflops={self.gflops:.3g})"
        )


@dataclass
class PerformanceModel:
    """Prices a :class:`KernelTrace` on a device + interconnect.

    Parameters
    ----------
    device:
        Compute device executing the kernels.
    link:
        Host-device link used for the initial data transfer; ``None`` for a
        CPU execution where no transfer is needed.
    """

    device: DeviceSpec = GPU_V100
    link: Optional[LinkSpec] = PCIE3_X16

    @classmethod
    def for_host(cls, device: DeviceSpec) -> "PerformanceModel":
        """A model pricing traces on the host itself: no link.

        This is what :mod:`repro.backends.calibration` uses to compare
        precision-demotion candidates on the calibrated machine — there is
        no PCIe transfer to hide.
        """
        return cls(device=device, link=None)

    def estimate(self, trace: KernelTrace, include_transfer: bool = True) -> ExecutionEstimate:
        compute = 0.0
        by_kernel: Dict[str, float] = {}
        for ev in trace.events:
            t = self.device.kernel_time(ev.flops, ev.bytes_moved, ev.dtype_size)
            # a shape-bucketed dispatch issues one physical kernel per bucket,
            # so charge the fixed launch cost once per bucket
            if ev.buckets > 1:
                t += (ev.buckets - 1) * self.device.launch_overhead
            compute += t
            by_kernel[ev.kernel] = by_kernel.get(ev.kernel, 0.0) + t

        transfer = 0.0
        if include_transfer and self.link is not None:
            transfer = self.link.transfer_time(trace.h2d_bytes) + self.link.transfer_time(
                trace.d2h_bytes
            )

        return ExecutionEstimate(
            device=self.device.name,
            compute_time=compute,
            transfer_time=transfer,
            num_launches=trace.num_launches,
            total_flops=trace.total_flops,
            total_bytes=trace.total_bytes,
            by_kernel=by_kernel,
            num_kernel_launches=trace.num_kernel_launches,
            plan_launches=trace.num_plan_launches,
        )


#: Ready-made models matching the paper's hardware roles.
GPU_MODEL = PerformanceModel(device=GPU_V100, link=PCIE3_X16)
CPU_PARALLEL_MODEL = PerformanceModel(device=CPU_XEON_6254_DUAL, link=None)
