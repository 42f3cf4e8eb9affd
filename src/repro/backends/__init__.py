"""Batched dense linear-algebra backend and device performance models.

The paper's GPU solver is built on batched cuBLAS/cuSOLVER primitives; the
library lowers every tree level onto one strided launch per shape bucket:

* ``gemmStridedBatched``   -> :func:`repro.backends.batched.gemm_strided_batched`
* ``getrfBatched``         -> :func:`repro.backends.batched.getrf_batched`
* ``getrsBatched``         -> :func:`repro.backends.batched.getrs_batched`
* ``potrfBatched``         -> :func:`repro.backends.batched.potrf_batched`
* ``potrsBatched``         -> :func:`repro.backends.batched.potrs_batched`
* ``potrfBatched`` + ``trtri`` -> :func:`repro.backends.batched.cholesky_batched`
  (the Gram matrices of construction's recompression)
* ``trtriBatched`` (MAGMA) -> :func:`repro.backends.batched.trtri_batched`
* 3 ``gemmStridedBatched`` -> :func:`repro.backends.batched.schur_solve_batched`
* ``geqrfBatched``         -> :func:`repro.backends.batched.qr_batched`
* ``gesvdjBatched``        -> :func:`repro.backends.batched.svd_batched`

The pointer-array ``gemmBatched`` has no counterpart: the compiled plans
and the construction stage pack heterogeneous levels into exact-shape
buckets up front, so no launch ever sees mixed shapes.

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
    register_backend,
    registered_backends,
)
from .context import (
    DEFAULT_CONTEXT,
    ExecutionContext,
    PrecisionPolicy,
)
from .batched import (
    cholesky_batched,
    gemm_strided_batched,
    getrf_batched,
    getrs_batched,
    potrf_batched,
    potrs_batched,
    schur_solve_batched,
    trtri_batched,
)
from .device import DeviceSpec, CPU_XEON_6254_DUAL, GPU_V100, PCIE3_X16
from .perfmodel import PerformanceModel, ExecutionEstimate
from .calibration import MachineProfile, measure_profile

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
    "register_backend",
    "registered_backends",
    "DEFAULT_CONTEXT",
    "ExecutionContext",
    "PrecisionPolicy",
    "cholesky_batched",
    "gemm_strided_batched",
    "getrf_batched",
    "getrs_batched",
    "potrf_batched",
    "potrs_batched",
    "trtri_batched",
    "schur_solve_batched",
    "DeviceSpec",
    "CPU_XEON_6254_DUAL",
    "GPU_V100",
    "PCIE3_X16",
    "PerformanceModel",
    "ExecutionEstimate",
    "MachineProfile",
    "measure_profile",
]
