"""NumPy implementations of the batched cuBLAS primitives used by the solver.

The GPU algorithms in the paper (Algorithms 3 and 4) are expressed entirely
in terms of four batched kernels:

=====================  ==============================================
cuBLAS routine          this module
=====================  ==============================================
``gemmBatched``         :func:`gemm_batched`
``gemmStridedBatched``  :func:`gemm_strided_batched`
``getrfBatched``        :func:`getrf_batched`
``getrsBatched``        :func:`getrs_batched`
=====================  ==============================================

Each function accepts either a 3-D array (the strided-batch layout, one
problem per leading index) or a list of 2-D arrays (the pointer-array
layout).  Every call emits a :class:`~repro.backends.counters.KernelEvent`
so that the performance model can reconstruct what the launch would have
cost on a GPU.

Design notes
------------
* Heterogeneous pointer-array batches are **shape bucketed** by the planner
  in :mod:`repro.backends.dispatch`: blocks with identical shapes are packed
  into strided 3-D storage and executed with a single vectorised ``matmul``
  or batched-LU call per bucket, so a batch with ``k`` distinct shapes costs
  ``k`` kernel launches instead of one Python iteration per block.  The
  recorded event carries ``buckets=k`` and ``strided=True`` so the
  performance model charges ``k`` launches.
* When the execution context carries a resolved :class:`~repro.backends.
  parallel.ParallelPolicy`, the independent shape buckets of one logical
  launch run concurrently on the shared bounded thread pool (the BLAS
  kernels release the GIL), and uniform strided QR/SVD batches are
  chunk-split across workers.  Accounting always stays on the caller
  thread — each launch still records ONE event with analytic totals — so
  traces and the CI counter gate are bit-identical to serial execution.
* Passing ``policy=LOOP_POLICY`` (or ``DispatchPolicy(bucketing=False)``)
  restores the seed's per-block Python loop — the slow generic path a real
  cuBLAS pointer-array kernel degrades to — with ``strided=False`` recorded,
  exactly as before.  The benchmarks use this to measure the bucketing
  speedup.
* All array arithmetic goes through an :class:`~repro.backends.dispatch.
  ArrayBackend` (NumPy by default), which is the seam where real GPU
  backends (CuPy) plug in.
* LU factorization uses partial pivoting by default; ``pivot=False``
  emulates the paper's discussion of the non-pivoted variants of
  equation (9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from .counters import (
    KernelEvent,
    gemm_flops,
    geqrf_flops,
    gesvd_flops,
    getrf_flops,
    getrs_flops,
    record_event,
)
from .dispatch import (
    DEFAULT_POLICY,
    ArrayBackend,
    DispatchPolicy,
    get_backend,
    pad_identity_stack,
    pad_pivot_stack,
    plan_batch,
    plan_batch_padded,
)
from .parallel import (
    ParallelPolicy,
    effective_workers,
    run_tasks,
    should_run_parallel,
)

ArrayBatch = Union[np.ndarray, Sequence[np.ndarray]]


def _is_strided(batch: ArrayBatch) -> bool:
    return hasattr(batch, "ndim") and batch.ndim == 3


def _elem_dtype(x) -> np.dtype:
    """Dtype of one batch member without forcing a host conversion."""
    dt = getattr(x, "dtype", None)
    return np.dtype(dt) if dt is not None else np.asarray(x).dtype  # repro-lint: ignore[RL001] -- dtype probe on list-of-arrays input; no device data touched


def _dtype_of(batch: ArrayBatch) -> np.dtype:
    if _is_strided(batch):
        return np.dtype(batch.dtype)
    return np.result_type(*[_elem_dtype(b) for b in batch])


def _is_complex(dtype: np.dtype) -> bool:
    return np.issubdtype(dtype, np.complexfloating)


def _batch_len(batch: ArrayBatch) -> int:
    if _is_strided(batch):
        return batch.shape[0]
    return len(batch)


def _resolve(
    backend: Optional[ArrayBackend],
    policy: Optional[DispatchPolicy],
    context: Optional[Any] = None,
) -> Tuple[ArrayBackend, DispatchPolicy]:
    """Resolve the legacy ``backend=``/``policy=`` pair and the unified
    ``context=`` spelling (an :class:`~repro.backends.context.ExecutionContext`,
    duck-typed to avoid an import cycle) to concrete instances."""
    if context is not None:
        if backend is None:
            backend = context.backend
        if policy is None:
            policy = context.policy
    return backend or get_backend("numpy"), policy or DEFAULT_POLICY


def _parallel_of(context: Optional[Any]) -> Optional[ParallelPolicy]:
    """The context's resolved :class:`ParallelPolicy` (``None`` = serial).

    Bucket-parallel dispatch is only reachable through a context — the
    legacy ``backend=``/``policy=`` spelling always runs inline.
    """
    return getattr(context, "parallel", None) if context is not None else None


# ----------------------------------------------------------------------
# gemm
# ----------------------------------------------------------------------
def _gemm_block(Ai, Bi, Ci, alpha, beta, transpose_a, conjugate_a):
    """One pointer-array gemm: the per-block generic path."""
    if transpose_a or conjugate_a:
        op_a = Ai.conj().T if conjugate_a else Ai.T
    else:
        op_a = Ai
    out = op_a @ Bi
    if alpha != 1.0:
        out = alpha * out
    if Ci is not None and beta != 0.0:
        out = out + beta * Ci
    return out


def _gemm_accounting(Ai, Bi, out, cplx):
    """(m, n, k), flops, bytes for one gemm block, paper conventions."""
    m = out.shape[0]
    n = out.shape[1] if out.ndim == 2 else 1
    k = Bi.shape[0] if Bi.ndim >= 1 else 0
    flops = gemm_flops(m, n, k, cplx)
    nbytes = float((Ai.size + Bi.size + out.size) * out.dtype.itemsize)
    return (m, n, k), flops, nbytes


def gemm_batched(
    A: ArrayBatch,
    B: ArrayBatch,
    C: Optional[ArrayBatch] = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    transpose_a: bool = False,
    conjugate_a: bool = False,
    backend: Optional[ArrayBackend] = None,
    policy: Optional[DispatchPolicy] = None,
    context: Optional[Any] = None,
) -> List[np.ndarray]:
    """Pointer-array batched GEMM: ``C[i] = alpha * op(A[i]) @ B[i] + beta * C[i]``.

    ``op`` is identity, transpose, or conjugate transpose depending on
    ``transpose_a`` / ``conjugate_a`` (the HODLR algorithms only ever
    transpose the first operand, the ``V`` bases).

    Blocks sharing a shape are grouped into buckets and executed with one
    strided ``matmul`` per bucket (see module docstring); the returned list
    is in submission order regardless of bucketing.  With
    ``policy.pad_buckets`` near-equal shapes are zero-padded into shared
    buckets (exact for gemm), collapsing singleton-shape batches into far
    fewer launches.
    """
    nbatch = _batch_len(A)
    if _batch_len(B) != nbatch:
        raise ValueError("A and B batches must have the same length")
    if C is not None and _batch_len(C) != nbatch:
        raise ValueError("C batch must match A/B length")
    if nbatch == 0:
        return []

    xb, pol = _resolve(backend, policy, context)
    results: List[Optional[np.ndarray]] = [None] * nbatch
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep: Tuple[int, int, int] = (0, 0, 0)

    if not pol.bucketing:
        # seed behaviour: the generic per-block loop of a pointer-array kernel
        dtype = _dtype_of(A)
        cplx = _is_complex(dtype)
        for i in range(nbatch):
            Ai, Bi = xb.asarray(A[i]), xb.asarray(B[i])
            Ci = xb.asarray(C[i]) if C is not None else None
            out = _gemm_block(Ai, Bi, Ci, alpha, beta, transpose_a, conjugate_a)
            results[i] = out
            shape_rep, flops, nbytes = _gemm_accounting(Ai, Bi, out, cplx)
            total_flops += flops
            total_bytes += nbytes
        _record_gemm(nbatch, shape_rep, total_flops, total_bytes, dtype,
                     strided=False, buckets=1)
        return results  # type: ignore[return-value]

    if pol.pad_buckets:
        return _gemm_padded(A, B, C, alpha, beta, transpose_a, conjugate_a, xb, pol,
                            _parallel_of(context))

    plan = plan_batch([(np.shape(A[i]), np.shape(B[i])) for i in range(nbatch)])
    # accounting is analytic per bucket (shapes are uniform within a bucket),
    # which removes the seed's per-block Python bookkeeping from the fast path
    dtype = np.result_type(
        *[_elem_dtype(A[b.indices[0]]) for b in plan.buckets],
        *[_elem_dtype(B[b.indices[0]]) for b in plan.buckets],
    )
    cplx = _is_complex(dtype)
    itemsize = np.dtype(dtype).itemsize
    rep_size = -1
    # Each bucket's numeric work becomes a thunk writing disjoint `results`
    # slots; accounting stays on the caller thread so the recorded event is
    # identical whether the thunks run inline or on the pool.
    par = _parallel_of(context)
    tasks: List[Any] = []
    total_elements = 0.0
    for bucket in plan.buckets:
        idx = bucket.indices
        shape_a, shape_b = bucket.key
        if transpose_a or conjugate_a:
            m, k = shape_a[1], shape_a[0]
        else:
            m, k = shape_a
        n = shape_b[1] if len(shape_b) == 2 else 1
        a_elements = shape_a[0] * shape_a[1]
        b_elements = shape_b[0] * n if len(shape_b) == 2 else shape_b[0]
        if pol.pack_gemm_bucket(len(idx), a_elements, b_elements):
            def _packed_bucket(idx=idx):
                A3 = xb.stack([A[i] for i in idx])
                B3 = xb.stack([B[i] for i in idx])
                vector_rhs = B3.ndim == 2  # bucket of 1-D right-hand sides
                if vector_rhs:
                    B3 = B3[:, :, None]
                if transpose_a or conjugate_a:
                    opA3 = A3.transpose(0, 2, 1)
                    if conjugate_a:
                        opA3 = opA3.conj()
                else:
                    opA3 = A3
                out3 = xb.matmul(opA3, B3)
                if alpha != 1.0:
                    out3 = alpha * out3
                if C is not None and beta != 0.0:
                    C3 = xb.stack([C[i] for i in idx])
                    out3 = out3 + beta * (C3[:, :, None] if C3.ndim == 2 else C3)
                for j, i in enumerate(idx):
                    results[i] = out3[j, :, 0] if vector_rhs else out3[j]

            tasks.append(_packed_bucket)
        else:
            # blocks too large to amortise the pack copy (or a singleton
            # bucket): tight per-problem execution, still one planned launch
            def _loose_bucket(idx=idx):
                for i in idx:
                    Ci = xb.asarray(C[i]) if C is not None else None
                    results[i] = _gemm_block(
                        xb.asarray(A[i]), xb.asarray(B[i]), Ci,
                        alpha, beta, transpose_a, conjugate_a,
                    )

            tasks.append(_loose_bucket)
        total_flops += len(idx) * gemm_flops(m, n, k, cplx)
        total_bytes += float(len(idx) * (a_elements + b_elements + m * n) * itemsize)
        total_elements += float(len(idx) * (a_elements + b_elements + m * n))
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (m, n, k)
    run_tasks(tasks, par, elements=total_elements)
    _record_gemm(nbatch, shape_rep, total_flops, total_bytes, dtype,
                 strided=True, buckets=plan.num_buckets)
    return results  # type: ignore[return-value]


def _record_gemm(nbatch, shape_rep, flops, nbytes, dtype, strided, buckets):
    record_event(
        KernelEvent(
            kernel="gemm_batched",
            batch=nbatch,
            shape=shape_rep,
            flops=flops,
            bytes_moved=nbytes,
            dtype_size=np.dtype(dtype).itemsize,
            strided=strided,
            buckets=buckets,
        )
    )


def _gemm_padded(A, B, C, alpha, beta, transpose_a, conjugate_a, xb, pol, par=None):
    """Pad-to-bucket gemm execution (``DispatchPolicy.pad_buckets``).

    NOTE: this mirrors the packed-bucket branch of :func:`gemm_batched`
    with padding added (the exact-bucket path keeps its 1-D/2-D rhs bucket
    separation and zero-copy stacking, which padding cannot).  A semantic
    change to either executor (operand handling, accounting, the pack
    crossover) must be applied to both.

    Members are described by the dimension vector ``(a0, a1, n)`` (raw
    ``A[i]`` shape plus the right-hand-side width); near-equal vectors are
    merged by the planner and each member is zero-padded to the bucket's
    target shape.  Zero rows/columns contribute zeros to the product, so
    slicing the result back to the member's true shape is exact.
    Accounting charges the *padded* dimensions — that is what the device
    would execute.
    """
    nbatch = _batch_len(A)
    results: List[Optional[np.ndarray]] = [None] * nbatch
    squeeze = [np.ndim(B[i]) == 1 for i in range(nbatch)]
    dims = []
    for i in range(nbatch):
        a0, a1 = np.shape(A[i])
        n = 1 if squeeze[i] else np.shape(B[i])[1]
        dims.append((a0, a1, n))

    plan = plan_batch_padded(dims, pol.pad_max_waste)
    dtype = np.result_type(
        *[_elem_dtype(A[b.indices[0]]) for b in plan.buckets],
        *[_elem_dtype(B[b.indices[0]]) for b in plan.buckets],
    )
    cplx = _is_complex(dtype)
    itemsize = np.dtype(dtype).itemsize
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep: Tuple[int, int, int] = (0, 0, 0)
    rep_size = -1
    tasks: List[Any] = []
    total_elements = 0.0
    for bucket in plan.buckets:
        idx = bucket.indices
        a0, a1, n = bucket.key
        m, k = (a1, a0) if (transpose_a or conjugate_a) else (a0, a1)
        padded = any(dims[i] != bucket.key for i in idx)
        if pol.pack_gemm_bucket(len(idx), a0 * a1, k * n):
            def _padded_bucket(idx=idx, a0=a0, a1=a1, n=n, m=m, k=k, padded=padded):
                if padded:
                    # promote over every member: a merged bucket may mix real
                    # and complex operands, and the first member's dtype alone
                    # would silently truncate the others
                    bucket_dtype = np.result_type(
                        *[_elem_dtype(A[i]) for i in idx],
                        *[_elem_dtype(B[i]) for i in idx],
                    )
                    A3 = xb.zeros((len(idx), a0, a1), dtype=bucket_dtype)
                    B3 = xb.zeros((len(idx), k, n), dtype=bucket_dtype)
                    for j, i in enumerate(idx):
                        ai0, ai1, ni = dims[i]
                        A3[j, :ai0, :ai1] = A[i]
                        Bi = B[i].reshape(-1, 1) if squeeze[i] else B[i]
                        ki = ai0 if (transpose_a or conjugate_a) else ai1
                        B3[j, :ki, :ni] = Bi
                else:
                    bucket_dtype = None
                    A3 = xb.stack([A[i] for i in idx])
                    B3 = xb.stack(
                        [B[i].reshape(-1, 1) if squeeze[i] else B[i] for i in idx]
                    )
                if transpose_a or conjugate_a:
                    opA3 = A3.transpose(0, 2, 1)
                    if conjugate_a:
                        opA3 = opA3.conj()
                else:
                    opA3 = A3
                out3 = xb.matmul(opA3, B3)
                if alpha != 1.0:
                    out3 = alpha * out3
                if C is not None and beta != 0.0:
                    if padded:
                        C3 = xb.zeros(
                            (len(idx), m, n),
                            dtype=np.result_type(
                                bucket_dtype, *[_elem_dtype(C[i]) for i in idx]
                            ),
                        )
                        for j, i in enumerate(idx):
                            Ci = C[i]
                            Ci = Ci.reshape(-1, 1) if np.ndim(Ci) == 1 else Ci
                            C3[j, : Ci.shape[0], : Ci.shape[1]] = Ci
                    else:
                        # a merged bucket may mix (m,) and (m, 1) C operands —
                        # normalise per member, like B above
                        C3 = xb.stack(
                            [C[i].reshape(-1, 1) if np.ndim(C[i]) == 1 else C[i]
                             for i in idx]
                        )
                    out3 = out3 + beta * C3
                for j, i in enumerate(idx):
                    ai0, ai1, ni = dims[i]
                    mi = ai1 if (transpose_a or conjugate_a) else ai0
                    out = out3[j, :mi, :ni]
                    results[i] = out[:, 0] if squeeze[i] else out

            tasks.append(_padded_bucket)
        else:
            # above the pack crossover (or a singleton bucket): tight
            # per-problem execution, still one planned launch
            def _loose_bucket(idx=idx):
                for i in idx:
                    Ci = xb.asarray(C[i]) if C is not None else None
                    results[i] = _gemm_block(
                        xb.asarray(A[i]), xb.asarray(B[i]), Ci,
                        alpha, beta, transpose_a, conjugate_a,
                    )

            tasks.append(_loose_bucket)
        total_flops += len(idx) * gemm_flops(m, n, k, cplx)
        total_bytes += float(len(idx) * (a0 * a1 + k * n + m * n) * itemsize)
        total_elements += float(len(idx) * (a0 * a1 + k * n + m * n))
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (m, n, k)
    run_tasks(tasks, par, elements=total_elements)
    _record_gemm(nbatch, shape_rep, total_flops, total_bytes, dtype,
                 strided=True, buckets=plan.num_buckets)
    return results


def _storage_nbytes(a: np.ndarray) -> int:
    """Physical bytes behind an operand.

    A ``broadcast_to`` view (stride-0 batch axis — e.g. one test matrix
    shared by a whole sampling bucket) reports its *virtual* size through
    ``nbytes``; the traffic model should charge the actual storage once.
    """
    if isinstance(a, np.ndarray) and 0 in a.strides:
        return a.base.nbytes if a.base is not None else a.nbytes
    return a.nbytes


def gemm_strided_batched(
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    transpose_a: bool = False,
    conjugate_a: bool = False,
    backend: Optional[ArrayBackend] = None,
    context: Optional[Any] = None,
    plan: bool = False,
) -> np.ndarray:
    """Strided batched GEMM over 3-D operands (``batch x m x k`` etc.).

    This is the fast path the paper exploits when all low-rank bases at a
    level share the same shape (constant stride between consecutive
    problems).  Internally a single broadcasted ``matmul`` performs the
    whole batch.  ``plan=True`` marks the recorded event as a compiled-plan
    replay launch (see :class:`~repro.backends.counters.KernelEvent`).
    """
    if A.ndim != 3 or B.ndim != 3:
        raise ValueError("gemm_strided_batched expects 3-D operands")
    if A.shape[0] != B.shape[0]:
        raise ValueError("batch dimensions must agree")
    xb, _ = _resolve(backend, None, context)

    if transpose_a or conjugate_a:
        opA = A.transpose(0, 2, 1).conj() if conjugate_a else A.transpose(0, 2, 1)
    else:
        opA = A
    out = xb.matmul(opA, B)
    if alpha != 1.0:  # skip the no-op rescale and its full-size temporary
        out = alpha * out
    if C is not None and beta != 0.0:
        out = out + beta * C

    nbatch, m, k = opA.shape
    n = B.shape[2]
    cplx = _is_complex(out.dtype)
    record_event(
        KernelEvent(
            kernel="gemm_strided_batched",
            batch=nbatch,
            shape=(m, n, k),
            flops=gemm_flops(m, n, k, cplx) * nbatch,
            bytes_moved=float(_storage_nbytes(A) + _storage_nbytes(B) + out.nbytes),
            dtype_size=out.dtype.itemsize,
            strided=True,
            plan=plan,
        )
    )
    return out


# ----------------------------------------------------------------------
# QR / SVD (batched construction kernels)
# ----------------------------------------------------------------------
def _chunk_slices(
    nbatch: int, par: Optional[ParallelPolicy], elements: float
) -> Optional[List[slice]]:
    """Worker-aligned batch-axis slices for one uniform strided launch, or
    ``None`` to stay inline.

    The problems of a strided batch are mutually independent, so executing
    the chunks concurrently and concatenating preserves per-problem results
    bit-exactly; the wrapper still records ONE event for the whole batch.
    """
    if par is None:
        return None
    workers = effective_workers(par)
    nchunks = min(workers, nbatch)
    if nchunks < 2 or not should_run_parallel(par, nchunks, elements):
        return None
    bounds = [round(c * nbatch / nchunks) for c in range(nchunks + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def qr_batched(
    A: np.ndarray,
    backend: Optional[ArrayBackend] = None,
    context: Optional[Any] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strided batched thin QR (cuSOLVER ``geqrfBatched`` + ``orgqr``).

    ``A`` is ``(batch, m, n)``; returns ``(Q, R)`` with ``Q`` of shape
    ``(batch, m, k)`` and ``R`` of shape ``(batch, k, n)``, ``k = min(m, n)``.
    One launch for the whole uniform batch — the construction stage packs
    heterogeneous levels into shape buckets before calling this.
    """
    if A.ndim != 3:
        raise ValueError("qr_batched expects a 3-D strided batch")
    xb, _ = _resolve(backend, None, context)
    chunks = _chunk_slices(A.shape[0], _parallel_of(context), float(A.size))
    if chunks is None:
        Q, R = xb.qr_batch(A)
    else:
        parts = run_tasks(
            [lambda s=s: xb.qr_batch(A[s]) for s in chunks],
            _parallel_of(context),
            elements=float(A.size),
        )
        Q = xb.concat([p[0] for p in parts], axis=0)
        R = xb.concat([p[1] for p in parts], axis=0)
    nbatch, m, n = A.shape
    cplx = _is_complex(A.dtype)
    record_event(
        KernelEvent(
            kernel="geqrf_batched",
            batch=nbatch,
            shape=(m, n, 0),
            flops=geqrf_flops(m, n, cplx) * nbatch,
            bytes_moved=float(A.nbytes + Q.nbytes + R.nbytes),
            dtype_size=A.dtype.itemsize,
            strided=True,
        )
    )
    return Q, R


def svd_batched(
    A: np.ndarray,
    backend: Optional[ArrayBackend] = None,
    context: Optional[Any] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strided batched economy SVD (cuSOLVER ``gesvdjBatched``).

    ``A`` is ``(batch, m, n)``; returns ``(U, s, Vh)`` in the
    ``full_matrices=False`` convention, one launch per uniform batch.
    """
    if A.ndim != 3:
        raise ValueError("svd_batched expects a 3-D strided batch")
    xb, _ = _resolve(backend, None, context)
    chunks = _chunk_slices(A.shape[0], _parallel_of(context), float(A.size))
    if chunks is None:
        U, s, Vh = xb.svd_batch(A)
    else:
        parts = run_tasks(
            [lambda sl=sl: xb.svd_batch(A[sl]) for sl in chunks],
            _parallel_of(context),
            elements=float(A.size),
        )
        U = xb.concat([p[0] for p in parts], axis=0)
        s = xb.concat([p[1] for p in parts], axis=0)
        Vh = xb.concat([p[2] for p in parts], axis=0)
    nbatch, m, n = A.shape
    cplx = _is_complex(A.dtype)
    record_event(
        KernelEvent(
            kernel="gesvd_batched",
            batch=nbatch,
            shape=(m, n, 0),
            flops=gesvd_flops(m, n, cplx) * nbatch,
            bytes_moved=float(A.nbytes + U.nbytes + s.nbytes + Vh.nbytes),
            dtype_size=A.dtype.itemsize,
            strided=True,
        )
    )
    return U, s, Vh


# ----------------------------------------------------------------------
# LU factorization / solve
# ----------------------------------------------------------------------
@dataclass
class BatchedLU:
    """Factorizations produced by :func:`getrf_batched`.

    Attributes
    ----------
    lu:
        List of packed LU factors, one per problem (as returned by
        ``scipy.linalg.lu_factor``).
    piv:
        List of pivot index arrays (empty arrays when ``pivot=False``).
    pivot:
        Whether partial pivoting was applied.
    """

    lu: List[np.ndarray]
    piv: List[np.ndarray]
    pivot: bool = True

    def __len__(self) -> int:
        return len(self.lu)

    @property
    def nbytes(self) -> int:
        return int(sum(m.nbytes for m in self.lu) + sum(p.nbytes for p in self.piv))

    def logdet(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return per-problem ``(sign, log|det|)`` from the stored factors."""
        signs = np.empty(len(self.lu), dtype=complex if _is_complex(self.lu[0].dtype) else float)  # repro-lint: ignore[RL001] -- host-side logdet analysis on downloaded factors
        logs = np.empty(len(self.lu), dtype=float)  # repro-lint: ignore[RL001] -- host-side logdet analysis on downloaded factors
        for i, (lu, piv) in enumerate(zip(self.lu, self.piv)):
            diag = np.diag(lu)  # repro-lint: ignore[RL001] -- host-side logdet analysis on downloaded factors
            logs[i] = float(np.sum(np.log(np.abs(diag))))
            sign = np.prod(diag / np.abs(diag)) if diag.size else 1.0
            if self.pivot and piv.size:
                # each row swap flips the determinant sign
                nswaps = int(np.sum(piv != np.arange(piv.size)))  # repro-lint: ignore[RL001] -- pivot-swap count over host pivot metadata
                sign = sign * ((-1.0) ** nswaps)
            signs[i] = sign
        return signs, logs


def getrf_batched(
    A: ArrayBatch,
    pivot: bool = True,
    backend: Optional[ArrayBackend] = None,
    policy: Optional[DispatchPolicy] = None,
    context: Optional[Any] = None,
) -> BatchedLU:
    """Batched LU factorization (cuBLAS ``getrfBatched``).

    Parameters
    ----------
    A:
        Either a 3-D array of identically sized square matrices or a list of
        square matrices with possibly different sizes.  Equal-size matrices
        are factorized together by the vectorised batched elimination (one
        launch per shape bucket).
    pivot:
        Apply partial pivoting (default).  The non-pivoted path exists to
        model the alternative formulations of equation (9) discussed in the
        paper, which trade pivoting for a right-hand-side shuffle.
    """
    nbatch = _batch_len(A)
    if nbatch == 0:
        return BatchedLU(lu=[], piv=[], pivot=pivot)
    xb, pol = _resolve(backend, policy, context)
    strided_in = _is_strided(A)

    lus: List[Optional[np.ndarray]] = [None] * nbatch
    pivs: List[Optional[np.ndarray]] = [None] * nbatch
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep = (0, 0, 0)
    empty_piv = np.empty(0, dtype=np.int64)

    if not pol.bucketing:
        dtype = _dtype_of(A)
        cplx = _is_complex(dtype)
        for i in range(nbatch):
            Ai = xb.asarray(A[i])
            if Ai.shape[0] != Ai.shape[1]:
                raise ValueError("getrf_batched requires square matrices")
            n = Ai.shape[0]
            shape_rep = (n, n, 0)
            total_flops += getrf_flops(n, cplx)
            total_bytes += 2.0 * Ai.nbytes
            lu, piv = xb.lu_factor(Ai, pivot=pivot)
            lus[i] = lu
            pivs[i] = piv if pivot else empty_piv
        _record_lu("getrf_batched", nbatch, shape_rep, total_flops, total_bytes,
                   dtype, strided=strided_in, buckets=1)
        return BatchedLU(lu=lus, piv=pivs, pivot=pivot)  # type: ignore[arg-type]

    if pol.pad_buckets:
        return _getrf_padded(A, nbatch, pivot, xb, pol, _parallel_of(context))

    plan = plan_batch([np.shape(A[i]) for i in range(nbatch)])
    for bucket in plan.buckets:
        if len(bucket.key) != 2 or bucket.key[0] != bucket.key[1]:
            raise ValueError("getrf_batched requires square matrices")
    dtype = np.result_type(*[_elem_dtype(A[b.indices[0]]) for b in plan.buckets])
    cplx = _is_complex(dtype)
    itemsize = np.dtype(dtype).itemsize
    rep_size = -1
    # bucket thunks with disjoint `lus`/`pivs` writes; accounting stays on
    # the caller thread (see gemm_batched)
    par = _parallel_of(context)
    tasks: List[Any] = []
    total_elements = 0.0
    for bucket in plan.buckets:
        idx = bucket.indices
        n = bucket.key[0]
        if pol.vectorize_lu_factor(len(idx), n):
            def _vector_bucket(idx=idx):
                stack = xb.stack([A[i] for i in idx])
                lu3, piv3 = xb.lu_factor_batch(stack, pivot=pivot)
                for j, i in enumerate(idx):
                    lus[i] = lu3[j]
                    pivs[i] = piv3[j] if pivot else empty_piv

            tasks.append(_vector_bucket)
        else:
            # blocks above the vectorisation crossover: blocked per-problem
            # LAPACK inside the bucket, still one planned launch
            def _loop_bucket(idx=idx):
                for i in idx:
                    lu, piv = xb.lu_factor(xb.asarray(A[i]), pivot=pivot)
                    lus[i] = lu
                    pivs[i] = piv if pivot else empty_piv

            tasks.append(_loop_bucket)
        total_flops += len(idx) * getrf_flops(n, cplx)
        total_bytes += float(len(idx) * 2 * n * n * itemsize)
        total_elements += float(len(idx) * n * n)
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (n, n, 0)
    run_tasks(tasks, par, elements=total_elements)
    _record_lu("getrf_batched", nbatch, shape_rep, total_flops, total_bytes,
               dtype, strided=True, buckets=plan.num_buckets)
    return BatchedLU(lu=lus, piv=pivs, pivot=pivot)  # type: ignore[arg-type]


def _getrf_padded(A, nbatch, pivot, xb, pol, par=None):
    """Pad-to-bucket LU factorization (``DispatchPolicy.pad_buckets``).

    Near-equal sizes merge into one **identity-bordered** padded bucket:
    the padded problem is ``blkdiag(A_i, I)``, whose LU factor is exactly
    ``blkdiag(LU(A_i), I)`` — partial pivoting never selects a border row
    (they are zero in every ``A`` column) — so slicing the leading block of
    the padded factor recovers the *exact* unpadded factorization.  Unlike
    gemm padding there is no approximation anywhere; accounting charges the
    padded shapes, which is what the device would execute.
    """
    dims = []
    for i in range(nbatch):
        shape = np.shape(A[i])
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("getrf_batched requires square matrices")
        dims.append(shape)
    plan = plan_batch_padded(dims, pol.pad_max_waste)
    dtype = np.result_type(*[_elem_dtype(A[b.indices[0]]) for b in plan.buckets])
    cplx = _is_complex(dtype)
    itemsize = np.dtype(dtype).itemsize
    lus: List[Optional[np.ndarray]] = [None] * nbatch
    pivs: List[Optional[np.ndarray]] = [None] * nbatch
    empty_piv = np.empty(0, dtype=np.int64)
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep = (0, 0, 0)
    rep_size = -1
    tasks: List[Any] = []
    total_elements = 0.0
    for bucket in plan.buckets:
        idx = bucket.indices
        n_pad = bucket.key[0]
        if pol.vectorize_lu_factor(len(idx), n_pad):
            def _vector_bucket(idx=idx, n_pad=n_pad):
                # the stack dtype must promote over *every* member (a merged
                # bucket may mix real and complex blocks)
                bucket_dtype = np.result_type(*[_elem_dtype(A[i]) for i in idx])
                stack = pad_identity_stack(
                    xb, [xb.asarray(A[i]) for i in idx], n_pad, bucket_dtype
                )
                lu3, piv3 = xb.lu_factor_batch(stack, pivot=pivot)
                for j, i in enumerate(idx):
                    m = dims[i][0]
                    lus[i] = lu3[j, :m, :m]
                    pivs[i] = piv3[j, :m] if pivot else empty_piv

            tasks.append(_vector_bucket)
        else:
            # a singleton (or tiny) bucket above the vectorisation
            # crossover: blocked per-problem LAPACK, no padding needed
            def _loop_bucket(idx=idx):
                for i in idx:
                    lu, piv = xb.lu_factor(xb.asarray(A[i]), pivot=pivot)
                    lus[i] = lu
                    pivs[i] = piv if pivot else empty_piv

            tasks.append(_loop_bucket)
        total_flops += len(idx) * getrf_flops(n_pad, cplx)
        total_bytes += float(len(idx) * 2 * n_pad * n_pad * itemsize)
        total_elements += float(len(idx) * n_pad * n_pad)
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (n_pad, n_pad, 0)
    run_tasks(tasks, par, elements=total_elements)
    _record_lu("getrf_batched", nbatch, shape_rep, total_flops, total_bytes,
               dtype, strided=True, buckets=plan.num_buckets)
    return BatchedLU(lu=lus, piv=pivs, pivot=pivot)  # type: ignore[arg-type]


def getrs_batched(
    factors: BatchedLU,
    B: ArrayBatch,
    backend: Optional[ArrayBackend] = None,
    policy: Optional[DispatchPolicy] = None,
    context: Optional[Any] = None,
) -> List[np.ndarray]:
    """Batched LU solve (cuBLAS ``getrsBatched``): ``X[i] = A[i]^{-1} B[i]``.

    Problems whose factor size and right-hand-side shape coincide are packed
    and solved with one vectorised substitution per shape bucket.
    """
    nbatch = len(factors)
    if _batch_len(B) != nbatch:
        raise ValueError("right-hand-side batch must match the factor batch")
    if nbatch == 0:
        return []
    xb, pol = _resolve(backend, policy, context)
    strided_in = _is_strided(B)

    xs: List[Optional[np.ndarray]] = [None] * nbatch
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep = (0, 0, 0)

    rhs2d: List[np.ndarray] = []
    squeeze: List[bool] = []
    for i in range(nbatch):
        Bi = xb.asarray(B[i])
        squeeze.append(Bi.ndim == 1)
        rhs2d.append(Bi if Bi.ndim == 2 else Bi.reshape(-1, 1))

    if not pol.bucketing:
        dtype = _dtype_of(B)
        cplx = _is_complex(dtype)
        for i in range(nbatch):
            n = factors.lu[i].shape[0]
            nrhs = rhs2d[i].shape[1]
            shape_rep = (n, nrhs, 0)
            total_flops += getrs_flops(n, nrhs, cplx)
            total_bytes += float(factors.lu[i].nbytes + 2 * rhs2d[i].size * rhs2d[i].dtype.itemsize)
            x = xb.lu_solve(factors.lu[i], factors.piv[i], rhs2d[i], pivot=factors.pivot)
            xs[i] = x.ravel() if squeeze[i] else x
        _record_lu("getrs_batched", nbatch, shape_rep, total_flops, total_bytes,
                   dtype, strided=strided_in, buckets=1)
        return xs  # type: ignore[return-value]

    if pol.pad_buckets:
        return _getrs_padded(factors, rhs2d, squeeze, nbatch, xb, pol,
                             _parallel_of(context))

    plan = plan_batch(
        [(factors.lu[i].shape[0], rhs2d[i].shape[1]) for i in range(nbatch)]
    )
    dtype = np.result_type(*[rhs2d[b.indices[0]].dtype for b in plan.buckets])
    cplx = _is_complex(dtype)
    rhs_itemsize = np.dtype(dtype).itemsize
    rep_size = -1
    # bucket thunks with disjoint `xs` writes; accounting stays on the
    # caller thread (see gemm_batched)
    par = _parallel_of(context)
    tasks: List[Any] = []
    total_elements = 0.0
    for bucket in plan.buckets:
        idx = bucket.indices
        n, nrhs = bucket.key
        lu_itemsize = factors.lu[idx[0]].dtype.itemsize
        if pol.vectorize_lu_solve(len(idx), n):
            def _vector_bucket(idx=idx):
                lu3 = xb.stack([factors.lu[i] for i in idx])
                piv3 = xb.stack([factors.piv[i] for i in idx]) if factors.pivot else None
                rhs3 = xb.stack([rhs2d[i] for i in idx])
                x3 = xb.lu_solve_batch(lu3, piv3, rhs3, pivot=factors.pivot)
                for j, i in enumerate(idx):
                    xs[i] = x3[j].ravel() if squeeze[i] else x3[j]

            tasks.append(_vector_bucket)
        else:
            # above the vectorisation crossover: BLAS-3 substitution per
            # problem inside the bucket, still one planned launch
            def _loop_bucket(idx=idx):
                for i in idx:
                    x = xb.lu_solve(factors.lu[i], factors.piv[i], rhs2d[i], pivot=factors.pivot)
                    xs[i] = x.ravel() if squeeze[i] else x

            tasks.append(_loop_bucket)
        total_flops += len(idx) * getrs_flops(n, nrhs, cplx)
        total_bytes += float(len(idx) * (n * n * lu_itemsize + 2 * n * nrhs * rhs_itemsize))
        total_elements += float(len(idx) * (n * n + n * nrhs))
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (n, nrhs, 0)
    run_tasks(tasks, par, elements=total_elements)
    _record_lu("getrs_batched", nbatch, shape_rep, total_flops, total_bytes,
               dtype, strided=True, buckets=plan.num_buckets)
    return xs  # type: ignore[return-value]


def _getrs_padded(factors, rhs2d, squeeze, nbatch, xb, pol, par=None):
    """Pad-to-bucket LU solve (``DispatchPolicy.pad_buckets``).

    Factors pad with an identity border and right-hand sides with zero
    rows/columns: padded rows solve against the appended identity block and
    padded columns stay zero, so slicing the solution back to the true
    shape is exact (see :func:`_getrf_padded`).
    """
    dims = [(factors.lu[i].shape[0], rhs2d[i].shape[1]) for i in range(nbatch)]
    plan = plan_batch_padded(dims, pol.pad_max_waste)
    dtype = np.result_type(*[rhs2d[b.indices[0]].dtype for b in plan.buckets])
    cplx = _is_complex(dtype)
    rhs_itemsize = np.dtype(dtype).itemsize
    xs: List[Optional[np.ndarray]] = [None] * nbatch
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep = (0, 0, 0)
    rep_size = -1
    tasks: List[Any] = []
    total_elements = 0.0
    for bucket in plan.buckets:
        idx = bucket.indices
        n_pad, nrhs_pad = bucket.key
        lu_itemsize = factors.lu[idx[0]].dtype.itemsize
        if pol.vectorize_lu_solve(len(idx), n_pad):
            def _vector_bucket(idx=idx, key=bucket.key, n_pad=n_pad, nrhs_pad=nrhs_pad):
                padded = any(dims[i] != key for i in idx)
                if padded:
                    lu_dtype = np.result_type(*[factors.lu[i].dtype for i in idx])
                    rhs_dtype = np.result_type(
                        lu_dtype, *[rhs2d[i].dtype for i in idx]
                    )
                    lu3 = pad_identity_stack(
                        xb, [factors.lu[i] for i in idx], n_pad, lu_dtype
                    )
                    piv3 = pad_pivot_stack(
                        [factors.piv[i] for i in idx],
                        [dims[i][0] for i in idx],
                        n_pad,
                    )
                    rhs3 = xb.zeros((len(idx), n_pad, nrhs_pad), dtype=rhs_dtype)
                    for j, i in enumerate(idx):
                        n, nrhs = dims[i]
                        rhs3[j, :n, :nrhs] = rhs2d[i]
                    x3 = xb.lu_solve_batch(lu3, piv3, rhs3, pivot=factors.pivot)
                    for j, i in enumerate(idx):
                        n, nrhs = dims[i]
                        x = x3[j, :n, :nrhs]
                        xs[i] = x.ravel() if squeeze[i] else x
                else:
                    lu3 = xb.stack([factors.lu[i] for i in idx])
                    piv3 = xb.stack([factors.piv[i] for i in idx]) if factors.pivot else None
                    rhs3 = xb.stack([rhs2d[i] for i in idx])
                    x3 = xb.lu_solve_batch(lu3, piv3, rhs3, pivot=factors.pivot)
                    for j, i in enumerate(idx):
                        xs[i] = x3[j].ravel() if squeeze[i] else x3[j]

            tasks.append(_vector_bucket)
        else:
            # above the vectorisation crossover: BLAS-3 substitution per
            # problem inside the bucket, still one planned launch
            def _loop_bucket(idx=idx):
                for i in idx:
                    x = xb.lu_solve(factors.lu[i], factors.piv[i], rhs2d[i],
                                    pivot=factors.pivot)
                    xs[i] = x.ravel() if squeeze[i] else x

            tasks.append(_loop_bucket)
        total_flops += len(idx) * getrs_flops(n_pad, nrhs_pad, cplx)
        total_bytes += float(
            len(idx) * (n_pad * n_pad * lu_itemsize + 2 * n_pad * nrhs_pad * rhs_itemsize)
        )
        total_elements += float(len(idx) * (n_pad * n_pad + n_pad * nrhs_pad))
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (n_pad, nrhs_pad, 0)
    run_tasks(tasks, par, elements=total_elements)
    _record_lu("getrs_batched", nbatch, shape_rep, total_flops, total_bytes,
               dtype, strided=True, buckets=plan.num_buckets)
    return xs  # type: ignore[return-value]


def _record_lu(kernel, nbatch, shape_rep, flops, nbytes, dtype, strided, buckets):
    record_event(
        KernelEvent(
            kernel=kernel,
            batch=nbatch,
            shape=shape_rep,
            flops=flops,
            bytes_moved=nbytes,
            dtype_size=np.dtype(dtype).itemsize,
            strided=strided,
            buckets=buckets,
        )
    )


# convenience aliases mirroring LAPACK naming used in the algorithms
lu_factor_batched = getrf_batched
lu_solve_batched = getrs_batched
