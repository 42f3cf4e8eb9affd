"""Batched dense linear-algebra backend and device performance models.

The paper's GPU solver is built on four cuBLAS primitives:

* ``gemmBatched``          -> :func:`repro.backends.batched.gemm_batched`
* ``gemmStridedBatched``   -> :func:`repro.backends.batched.gemm_strided_batched`
* ``getrfBatched``         -> :func:`repro.backends.batched.getrf_batched`
* ``getrsBatched``         -> :func:`repro.backends.batched.getrs_batched`

This package provides NumPy implementations of those primitives together
with an instrumentation layer (:mod:`repro.backends.counters`) that records
every "kernel launch" (operation, batch size, operand shapes, flops, bytes)
and an analytic performance model (:mod:`repro.backends.perfmodel`) that
converts a recorded trace into estimated execution times on a V100-class
GPU, a dual-Xeon CPU, and over a PCIe link.  The performance model is the
documented substitution for the paper's physical hardware (see DESIGN.md).
"""

from .counters import KernelEvent, KernelTrace, TraceRecorder, get_recorder, record_event
from .dispatch import (
    ArrayBackend,
    BackendUnavailableError,
    BatchPlan,
    BatchPlanner,
    CupyBackend,
    DispatchPolicy,
    LOOP_POLICY,
    NumpyBackend,
    ShapeBucket,
    available_backends,
    get_backend,
    plan_batch,
    plan_batch_padded,
    register_backend,
    registered_backends,
)
from .context import (
    DEFAULT_CONTEXT,
    ExecutionContext,
    PrecisionPolicy,
)
from .batched import (
    gemm_batched,
    gemm_strided_batched,
    getrf_batched,
    getrs_batched,
    lu_factor_batched,
    lu_solve_batched,
)
from .device import DeviceSpec, CPU_XEON_6254_DUAL, GPU_V100, PCIE3_X16
from .perfmodel import PerformanceModel, ExecutionEstimate
from .calibration import (
    MachineProfile,
    auto_tune_context,
    calibrate,
    derive_precision_policy,
    get_active_profile,
    machine_fingerprint,
    measure_profile,
    set_active_profile,
    use_profile,
)

__all__ = [
    "KernelEvent",
    "KernelTrace",
    "TraceRecorder",
    "get_recorder",
    "record_event",
    "ArrayBackend",
    "BackendUnavailableError",
    "BatchPlan",
    "BatchPlanner",
    "CupyBackend",
    "DispatchPolicy",
    "LOOP_POLICY",
    "NumpyBackend",
    "ShapeBucket",
    "available_backends",
    "get_backend",
    "plan_batch",
    "plan_batch_padded",
    "register_backend",
    "registered_backends",
    "DEFAULT_CONTEXT",
    "ExecutionContext",
    "PrecisionPolicy",
    "gemm_batched",
    "gemm_strided_batched",
    "getrf_batched",
    "getrs_batched",
    "lu_factor_batched",
    "lu_solve_batched",
    "DeviceSpec",
    "CPU_XEON_6254_DUAL",
    "GPU_V100",
    "PCIE3_X16",
    "PerformanceModel",
    "ExecutionEstimate",
    "MachineProfile",
    "auto_tune_context",
    "calibrate",
    "derive_precision_policy",
    "get_active_profile",
    "machine_fingerprint",
    "measure_profile",
    "set_active_profile",
    "use_profile",
]
