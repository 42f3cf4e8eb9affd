"""NumPy implementations of the batched cuBLAS primitives used by the solver.

The GPU algorithms in the paper (Algorithms 3 and 4) are expressed in terms
of batched dense kernels.  The library lowers every tree level onto one
*strided* launch per shape bucket, so these are the launches it issues:

=====================  ==============================================
cuBLAS/cuSOLVER         this module
=====================  ==============================================
``gemmStridedBatched``  :func:`gemm_strided_batched`
``getrfBatched``        :func:`getrf_batched`
``getrsBatched``        :func:`getrs_batched`
``geqrfBatched``        :func:`qr_batched`
``gesvdjBatched``       :func:`svd_batched`
=====================  ==============================================

There is no pointer-array ``gemmBatched`` entry: the compiled plans
(:class:`~repro.core.factor_plan.FactorPlan`,
:class:`~repro.core.apply_plan.ApplyPlan`) and the construction stage pack
every heterogeneous level into uniform shape buckets up front (exact or
identity/zero-padded, see :mod:`repro.backends.dispatch`), so each launch
sees one 3-D stack with one stride.  The LU pair keeps cuBLAS's
``getrf``/``getrs`` names because they model the same kernels; in cuBLAS
those take pointer arrays, here a 3-D stack.

Every call emits one :class:`~repro.backends.counters.KernelEvent` so that
the performance model can reconstruct what the launch would have cost on a
GPU.  All array arithmetic goes through an :class:`~repro.backends.
dispatch.ArrayBackend` (NumPy by default), which is the seam where real GPU
backends (CuPy) plug in.  Only the LU pair takes a
:class:`~repro.backends.dispatch.DispatchPolicy`: it decides the host
execution inside the launch (vectorised batched elimination/substitution
for many small blocks, per-problem LAPACK otherwise — ``LOOP_POLICY``
always takes the latter).  LU factorization uses partial pivoting by
default; ``pivot=False`` emulates the paper's discussion of the
non-pivoted variants of equation (9).
"""

from __future__ import annotations

from typing import Optional, Tuple

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
from .dispatch import DEFAULT_POLICY, ArrayBackend, DispatchPolicy, get_backend


def _is_complex(dtype) -> bool:
    return np.issubdtype(np.dtype(dtype), np.complexfloating)


def _resolve(backend: Optional[ArrayBackend]) -> ArrayBackend:
    return backend or get_backend("numpy")


# ----------------------------------------------------------------------
# gemm
# ----------------------------------------------------------------------
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
    conjugate_a: bool = False,
    backend: Optional[ArrayBackend] = None,
    plan: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Strided batched GEMM over 3-D operands: ``out[i] = op(A[i]) @ B[i]``.

    ``op`` is the identity, or the conjugate transpose with
    ``conjugate_a=True`` (a plain transpose for real ``A``).  This is the
    fast path the paper exploits when all low-rank bases at a level share
    the same shape (constant stride between consecutive problems).
    Internally a single broadcasted ``matmul`` performs the whole batch.
    ``plan=True`` marks the recorded event as a compiled-plan replay launch
    (see :class:`~repro.backends.counters.KernelEvent`).  ``out``, a
    ``(batch, m, n)`` array of the product's dtype, receives the result
    instead of a fresh allocation (the compiled plans pass row views of a
    per-call workspace).
    """
    if A.ndim != 3 or B.ndim != 3:
        raise ValueError("gemm_strided_batched expects 3-D operands")
    if A.shape[0] != B.shape[0]:
        raise ValueError("batch dimensions must agree")
    xb = _resolve(backend)

    opA = A.transpose(0, 2, 1).conj() if conjugate_a else A
    out = xb.matmul(opA, B, out=out)

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
def qr_batched(
    A: np.ndarray,
    backend: Optional[ArrayBackend] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strided batched thin QR (cuSOLVER ``geqrfBatched`` + ``orgqr``).

    ``A`` is ``(batch, m, n)``; returns ``(Q, R)`` with ``Q`` of shape
    ``(batch, m, k)`` and ``R`` of shape ``(batch, k, n)``, ``k = min(m, n)``.
    One launch for the whole uniform batch — the construction stage packs
    heterogeneous levels into shape buckets before calling this.
    """
    if A.ndim != 3:
        raise ValueError("qr_batched expects a 3-D strided batch")
    Q, R = _resolve(backend).qr_batch(A)
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strided batched economy SVD (cuSOLVER ``gesvdjBatched``).

    ``A`` is ``(batch, m, n)``; returns ``(U, s, Vh)`` in the
    ``full_matrices=False`` convention, one launch per uniform batch.
    """
    if A.ndim != 3:
        raise ValueError("svd_batched expects a 3-D strided batch")
    U, s, Vh = _resolve(backend).svd_batch(A)
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
def getrf_batched(
    A3: np.ndarray,
    pivot: bool = True,
    backend: Optional[ArrayBackend] = None,
    policy: Optional[DispatchPolicy] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strided batched LU factorization (cuBLAS ``getrfBatched``): one launch.

    ``A3`` is a ``(nb, n, n)`` stack; returns ``(lu3, piv3)`` with the
    packed unit-lower/upper factors and ``(nb, n)`` LAPACK-style 0-based
    pivots.  Pivots are always full-length (``arange`` rows for the
    non-pivoted path), so downstream code never branches on pivot storage.
    The dispatch policy decides the host execution inside the launch —
    vectorised batched elimination for many small blocks, per-problem
    LAPACK otherwise.  ``pivot=False`` models the pivot-free formulations
    of equation (9) and raises :class:`numpy.linalg.LinAlgError` on a zero
    pivot.  The library issues LU launches only from compiled
    :class:`~repro.core.factor_plan.FactorPlan` storage, so the event is
    marked ``plan=True``.
    """
    if A3.ndim != 3 or A3.shape[1] != A3.shape[2]:
        raise ValueError("getrf_batched expects a 3-D stack of square matrices")
    xb, pol = _resolve(backend), policy or DEFAULT_POLICY
    nb, n = A3.shape[0], A3.shape[1]
    if pol.vectorize_lu_factor(nb, n):
        lu3, piv3 = xb.lu_factor_batch(A3, pivot=pivot)
        piv3 = np.asarray(piv3, dtype=np.int64)
    else:
        lu3 = xb.zeros(A3.shape, dtype=A3.dtype)
        piv3 = np.zeros((nb, n), dtype=np.int64)
        base = np.arange(n, dtype=np.int64)
        for i in range(nb):
            lu, piv = xb.lu_factor(A3[i], pivot=pivot)
            lu3[i] = lu
            piv3[i] = piv if (pivot and np.size(piv) == n) else base
    record_event(
        KernelEvent(
            kernel="getrf_batched",
            batch=nb,
            shape=(n, n, 0),
            flops=nb * getrf_flops(n, _is_complex(A3.dtype)),
            bytes_moved=float(2 * A3.nbytes),
            dtype_size=np.dtype(A3.dtype).itemsize,
            strided=True,
            buckets=1,
            plan=True,
        )
    )
    return lu3, piv3


def getrs_batched(
    lu3: np.ndarray,
    piv3: np.ndarray,
    rhs3: np.ndarray,
    pivot: bool = True,
    backend: Optional[ArrayBackend] = None,
    policy: Optional[DispatchPolicy] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Strided batched LU solve (cuBLAS ``getrsBatched``): one launch.

    Solves ``A[i] X[i] = rhs3[i]`` for a ``(nb, n, nrhs)`` right-hand-side
    stack against the :func:`getrf_batched` factors ``(lu3, piv3)``; the
    result dtype promotes over both.  The dispatch policy picks vectorised
    batched substitution or per-problem LAPACK, as for the factorization.
    ``out`` (of the promoted dtype) receives the solutions and may be
    ``rhs3`` itself — the in-place solve the compiled sweep runs on row
    views of its working array.
    """
    if rhs3.ndim != 3 or rhs3.shape[:2] != lu3.shape[:2]:
        raise ValueError("getrs_batched expects a (nb, n, nrhs) stack matching the factors")
    xb, pol = _resolve(backend), policy or DEFAULT_POLICY
    nb, n, nrhs = rhs3.shape
    out_dtype = np.result_type(lu3.dtype, rhs3.dtype)
    if rhs3.dtype != out_dtype:
        rhs3 = rhs3.astype(out_dtype)
    if pol.vectorize_lu_solve(nb, n):
        x3 = xb.lu_solve_batch(lu3, piv3, rhs3, pivot=pivot)
        if out is not None:
            out[...] = x3
            x3 = out
    else:
        many = getattr(xb, "lu_solve_many", None)
        if many is not None:
            x3 = many(lu3, piv3, rhs3, pivot=pivot, out=out)
        else:
            x3 = xb.zeros(rhs3.shape, dtype=out_dtype) if out is None else out
            for i in range(nb):
                x3[i] = xb.lu_solve(lu3[i], piv3[i], rhs3[i], pivot=pivot)
    record_event(
        KernelEvent(
            kernel="getrs_batched",
            batch=nb,
            shape=(n, nrhs, 0),
            flops=nb * getrs_flops(n, nrhs, _is_complex(out_dtype)),
            bytes_moved=float(lu3.nbytes + 2 * rhs3.nbytes),
            dtype_size=np.dtype(out_dtype).itemsize,
            strided=True,
            buckets=1,
            plan=True,
        )
    )
    return x3
