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
``potrfBatched``        :func:`potrf_batched` (returns ``C^{-1}``)
``potrsBatched``        :func:`potrs_batched` (two gemms on ``C^{-1}``)
``potrfBatched``        :func:`cholesky_batched` (``C`` and ``C^{-1}`` of a
                        Hermitian stack: the Gram matrices of
                        construction's recompression)
``trtriBatched``        :func:`trtri_batched` (MAGMA; ``L^{-1}``, ``U^{-1}``)
``gemmStridedBatched``  :func:`schur_solve_batched` (three of them: the K
                        systems against ``G``, ``U^{-1}`` and ``T_b``)
``geqrfBatched``        :func:`qr_batched` (the recompression's fallback
                        for ill-conditioned bases, and the bordered
                        update)
``gesvdjBatched``       :func:`svd_batched`
=====================  ==============================================

There is no pointer-array ``gemmBatched`` entry: the compiled plans
(:class:`~repro.core.factor_plan.FactorPlan`,
:class:`~repro.core.apply_plan.ApplyPlan`) and the construction stage pack
every heterogeneous level into exact-shape buckets up front (see
:mod:`repro.backends.dispatch`), so each launch sees one 3-D stack with
one stride.  The LU pair keeps cuBLAS's
``getrf``/``getrs`` names because they model the same kernels; in cuBLAS
those take pointer arrays, here a 3-D stack.  The Cholesky pair keeps
cuSOLVER's ``potrf``/``potrs`` names, but stores the explicit inverse
factor ``C^{-1}`` rather than ``C``, so a solve is two strided products
instead of two triangular substitutions.  :func:`cholesky_batched` keeps
both ``C`` and ``C^{-1}``: construction's recompression reads the
triangular factor ``R`` of a basis off its Gram matrix, so it needs no
Householder QR and forms no ``Q``.
The reduced ``K`` systems of every tree level are eliminated by their
identity blocks: ``getrf_batched`` factors the Schur complements,
``trtri_batched`` inverts both triangular factors once, and every K solve
is :func:`schur_solve_batched`, three strided products.

Every call emits one :class:`~repro.backends.counters.KernelEvent` so that
the performance model can reconstruct what the launch would have cost on a
GPU.  All array arithmetic goes through an :class:`~repro.backends.
dispatch.ArrayBackend` (NumPy by default), which is the seam where real GPU
backends (CuPy) plug in.  No launch takes a dispatch policy.  Inside an
LU factorization launch the shape rule
:func:`~repro.backends.dispatch.vectorize_getrf` picks the host execution
(one vectorised batched elimination for many tiny blocks, per-problem
LAPACK otherwise); an LU solve launch always substitutes per problem.  LU
factorization uses partial pivoting by default; ``pivot=False`` emulates
the paper's discussion of the non-pivoted variants of equation (9).
"""

from __future__ import annotations

from math import prod
from typing import Optional, Tuple

import numpy as np

from .counters import (
    KernelEvent,
    cholesky_flops,
    gemm_flops,
    geqrf_flops,
    gesvd_flops,
    getrf_flops,
    getrs_flops,
    potrf_flops,
    potrs_flops,
    record_event,
    schur_solve_flops,
    trtri_flops,
)
from .dispatch import ArrayBackend, get_backend, vectorize_getrf


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
    """Strided batched GEMM: ``out[i] = op(A[i]) @ B[i]`` over the leading
    batch axes (one for a ``(batch, m, k)`` stack, or more for a view).

    ``op`` is the identity, or the conjugate transpose with
    ``conjugate_a=True`` (a plain transpose for real ``A``).  This is the
    fast path the paper exploits when all low-rank bases at a level share
    the same shape (constant stride between consecutive problems).
    Internally a single broadcasted ``matmul`` performs the whole batch.
    ``plan=True`` marks the recorded event as a compiled-plan replay launch
    (see :class:`~repro.backends.counters.KernelEvent`).  ``out``, a
    ``(batch, m, n)`` array of the product's dtype, receives the result
    instead of a fresh allocation (the compiled plans pass row views of a
    per-call workspace, and a ``(pairs, 2, ...)`` view swaps siblings).
    """
    if A.ndim < 3 or A.ndim != B.ndim:
        raise ValueError("gemm_strided_batched expects 3-D operands")
    if A.shape[:-2] != B.shape[:-2]:
        raise ValueError("batch dimensions must agree")
    xb = _resolve(backend)

    opA = A.swapaxes(-1, -2).conj() if conjugate_a else A
    out = xb.matmul(opA, B, out=out)

    m, k = opA.shape[-2:]
    n = B.shape[-1]
    nbatch = prod(opA.shape[:-2])
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
    *,
    bucket_size: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strided batched LU factorization (cuBLAS ``getrfBatched``): one launch.

    ``A3`` is a ``(nb, n, n)`` stack; returns ``(lu3, piv3)`` with the
    packed unit-lower/upper factors and ``(nb, n)`` LAPACK-style 0-based
    pivots.  Pivots are always full-length (``arange`` rows for the
    non-pivoted path), so downstream code never branches on pivot storage.
    The shape rule :func:`~repro.backends.dispatch.vectorize_getrf` of
    ``(bucket_size, n)`` decides the host execution inside the launch —
    vectorised batched elimination for many tiny blocks, per-problem
    LAPACK otherwise.  ``bucket_size`` defaults to ``nb``; a launch that
    refactorizes some members of a larger bucket passes the whole bucket's
    size, so those members get the bits a factorization of the whole
    bucket gives them.  ``pivot=False`` models the pivot-free formulations
    of equation (9) and raises :class:`numpy.linalg.LinAlgError` on a zero
    pivot.  The library issues LU launches only from compiled
    :class:`~repro.core.factor_plan.FactorPlan` storage, so the event is
    marked ``plan=True``.
    """
    if A3.ndim != 3 or A3.shape[1] != A3.shape[2]:
        raise ValueError("getrf_batched expects a 3-D stack of square matrices")
    xb = _resolve(backend)
    nb, n = A3.shape[0], A3.shape[1]
    if vectorize_getrf(nb if bucket_size is None else bucket_size, n):
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
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Strided batched LU solve (cuBLAS ``getrsBatched``): one launch.

    Solves ``A[i] X[i] = rhs3[i]`` for a ``(nb, n, nrhs)`` right-hand-side
    stack against the :func:`getrf_batched` factors ``(lu3, piv3)``; the
    result dtype promotes over both.  The host substitutes problem by
    problem through the backend's ``lu_solve_many`` (one bound LAPACK
    ``getrs`` per problem), or a loop of ``lu_solve`` on a backend without
    it.  ``out`` (of the promoted dtype) receives the solutions and may be
    ``rhs3`` itself — the in-place solve the compiled sweep runs on row
    views of its working array.
    """
    if rhs3.ndim != 3 or rhs3.shape[:2] != lu3.shape[:2]:
        raise ValueError("getrs_batched expects a (nb, n, nrhs) stack matching the factors")
    xb = _resolve(backend)
    nb, n, nrhs = rhs3.shape
    out_dtype = np.result_type(lu3.dtype, rhs3.dtype)
    if rhs3.dtype != out_dtype:
        rhs3 = rhs3.astype(out_dtype)
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


# ----------------------------------------------------------------------
# Cholesky factorization / solve
# ----------------------------------------------------------------------
def potrf_batched(
    A3: np.ndarray,
    backend: Optional[ArrayBackend] = None,
) -> np.ndarray:
    """Strided batched Cholesky (cuSOLVER ``potrfBatched``): one launch.

    ``A3`` is a ``(nb, n, n)`` stack of real symmetric positive definite
    matrices.  Returns the ``(nb, n, n)`` stack of inverse lower factors
    ``C^{-1}`` (``A3[i] = C C^T``), which :func:`potrs_batched` applies.
    The recorded flops are the ``potrf`` plus the triangular inverse.
    Raises :class:`numpy.linalg.LinAlgError`, and records no event, when a
    member is not symmetric to rounding or not positive definite; the
    compiled plans then factor the bucket with :func:`getrf_batched`
    instead.
    """
    if A3.ndim != 3 or A3.shape[1] != A3.shape[2]:
        raise ValueError("potrf_batched expects a 3-D stack of square matrices")
    cinv3 = _resolve(backend).cholesky_inverse_batch(A3)
    nb, n = A3.shape[0], A3.shape[1]
    record_event(
        KernelEvent(
            kernel="potrf_batched",
            batch=nb,
            shape=(n, n, 0),
            flops=nb * potrf_flops(n),
            bytes_moved=float(2 * A3.nbytes),
            dtype_size=np.dtype(A3.dtype).itemsize,
            strided=True,
            buckets=1,
            plan=True,
        )
    )
    return cinv3


def cholesky_batched(
    A3: np.ndarray,
    backend: Optional[ArrayBackend] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strided batched Cholesky of a Hermitian stack (cuSOLVER
    ``potrfBatched`` plus a batched ``trtri``): one launch.

    ``A3`` is a ``(nb, n, n)`` stack of Hermitian (real symmetric) positive
    definite matrices.  Returns ``(c3, cinv3)``: the lower factors ``C``
    (``A3[i] = C C^H``) and their inverses ``C^{-1}``.  Raises
    :class:`numpy.linalg.LinAlgError`, and records no event, when a member
    is not Hermitian to rounding or not positive definite.  Construction
    takes it on the Gram matrices of the bases it recompresses, so the
    event is not a plan launch.
    """
    if A3.ndim != 3 or A3.shape[1] != A3.shape[2]:
        raise ValueError("cholesky_batched expects a 3-D stack of square matrices")
    c3, cinv3 = _resolve(backend).cholesky_factor_batch(A3)
    nb, n = A3.shape[0], A3.shape[1]
    record_event(
        KernelEvent(
            kernel="cholesky_batched",
            batch=nb,
            shape=(n, n, 0),
            flops=nb * cholesky_flops(n, _is_complex(A3.dtype)),
            bytes_moved=float(3 * A3.nbytes),
            dtype_size=np.dtype(A3.dtype).itemsize,
            strided=True,
            buckets=1,
        )
    )
    return c3, cinv3


#: factor bytes one pass of :func:`potrs_batched` covers (an L2-sized
#: chunk of leaves)
_POTRS_CHUNK_BYTES = 1 << 20


def potrs_batched(
    cinv3: np.ndarray,
    rhs3: np.ndarray,
    backend: Optional[ArrayBackend] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Strided batched Cholesky solve (cuSOLVER ``potrsBatched``): one launch.

    Solves ``A[i] X[i] = rhs3[i]`` as ``X = C^{-T} (C^{-1} rhs)`` against
    the :func:`potrf_batched` inverse factors — two strided products, whose
    flops are recorded as executed (full gemms).  The host runs both
    products chunk by chunk of ``_POTRS_CHUNK_BYTES`` of factors, so each
    factor is read from memory once per launch rather than twice.  The
    result dtype promotes over both operands; ``out`` (of that dtype)
    receives the solutions and may be ``rhs3`` itself, as for
    :func:`getrs_batched`.
    """
    if rhs3.ndim != 3 or rhs3.shape[:2] != cinv3.shape[:2]:
        raise ValueError("potrs_batched expects a (nb, n, nrhs) stack matching the factors")
    xb = _resolve(backend)
    nb, n, nrhs = rhs3.shape
    out_dtype = np.result_type(cinv3.dtype, rhs3.dtype)
    x3 = xb.zeros(rhs3.shape, dtype=out_dtype) if out is None else out
    # both products of a chunk run while its factors are still in cache, so
    # each factor streams from memory once; a chunk reads its right-hand
    # sides before it writes its solutions, so out may alias rhs3
    step = max(1, _POTRS_CHUNK_BYTES // max(1, n * n * cinv3.dtype.itemsize))
    for s in range(0, nb, step):
        c = cinv3[s : s + step]
        half = xb.matmul(c, rhs3[s : s + step])
        xb.matmul(c.swapaxes(-1, -2), half, out=x3[s : s + step])
    record_event(
        KernelEvent(
            kernel="potrs_batched",
            batch=nb,
            shape=(n, nrhs, 0),
            flops=nb * potrs_flops(n, nrhs, _is_complex(x3.dtype)),
            bytes_moved=float(cinv3.nbytes + 2 * rhs3.nbytes),
            dtype_size=np.dtype(x3.dtype).itemsize,
            strided=True,
            buckets=1,
            plan=True,
        )
    )
    return x3


# ----------------------------------------------------------------------
# K systems: inverse LU factors of the Schur complement, and the solve
# ----------------------------------------------------------------------
def trtri_batched(
    lu3: np.ndarray,
    backend: Optional[ArrayBackend] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strided batched inversion of packed LU factors (MAGMA
    ``trtri_batched`` on both triangles): one launch.

    ``lu3`` is a ``(nb, n, n)`` stack of :func:`getrf_batched` factors.
    Returns ``(linv3, uinv3)``: the lower ``L^{-1}`` and the upper
    ``U^{-1}`` of every member, zero outside their triangles.  Raises
    :class:`numpy.linalg.LinAlgError`, and records no event, when an upper
    factor is singular to working precision
    (``min |u_ii| <= n eps max |u_ij|``).  The host runs one batched
    inverse per triangle over the whole stack
    (:func:`~repro.backends.dispatch.triangular_inverse`); the recorded
    flops are the two ``trtri`` of the modelled kernel.
    """
    if lu3.ndim != 3 or lu3.shape[1] != lu3.shape[2]:
        raise ValueError("trtri_batched expects a 3-D stack of square matrices")
    nb, n = lu3.shape[0], lu3.shape[1]
    linv3, uinv3 = _resolve(backend).triangular_inverse_batch(lu3)
    record_event(
        KernelEvent(
            kernel="trtri_batched",
            batch=nb,
            shape=(n, n, 0),
            flops=nb * trtri_flops(n, _is_complex(lu3.dtype)),
            bytes_moved=float(3 * lu3.nbytes),
            dtype_size=np.dtype(lu3.dtype).itemsize,
            strided=True,
            buckets=1,
            plan=True,
        )
    )
    return linv3, uinv3


def schur_solve_batched(
    g3: np.ndarray,
    uinv3: np.ndarray,
    tb3: np.ndarray,
    rhs3: np.ndarray,
    backend: Optional[ArrayBackend] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve the reduced systems ``K = [T_a I; I T_b]`` through their Schur
    complement ``S = I - T_a T_b = P L U``: one launch of three strided
    products (three ``gemmStridedBatched`` on a GPU).

    ``rhs3`` is ``(nb, 2r, nrhs)``, ``[c_a; c_b]`` per member; ``g3`` is
    ``(nb, r, 2r)``, ``G = [L^{-1} P^T | -L^{-1} P^T T_a]``; ``uinv3`` and
    ``tb3`` are ``(nb, r, r)``.  Returns ``[x; y]`` with ``y = U^{-1} (G
    c) = S^{-1} (c_a - T_a c_b)`` and ``x = c_b - T_b y``.  The flops are
    recorded as executed (full gemms).  The result dtype promotes over the
    operands; ``out`` (of that dtype) receives the solutions and may be
    ``rhs3`` itself: every product reads its operands before the halves of
    ``out`` are written.
    """
    shapes = "a (nb, 2r, nrhs) stack matching (nb, r, 2r) G and (nb, r, r) U^{-1}, T_b"
    if rhs3.ndim != 3 or rhs3.shape[1] % 2:
        raise ValueError(f"schur_solve_batched expects {shapes}")
    nb, r2, nrhs = rhs3.shape
    r = r2 // 2
    if g3.shape != (nb, r, r2) or uinv3.shape != (nb, r, r) or tb3.shape != (nb, r, r):
        raise ValueError(f"schur_solve_batched expects {shapes}")
    xb = _resolve(backend)
    out_dtype = np.result_type(g3.dtype, rhs3.dtype)
    x3 = xb.zeros(rhs3.shape, dtype=out_dtype) if out is None else out
    y = xb.matmul(uinv3, xb.matmul(g3, rhs3))
    # x = c_b - T_b y, written over c_a (already consumed by G c): the
    # negated difference -(T_b y - c_b) is the same float
    top = x3[:, :r]
    xb.matmul(tb3, y, out=top)
    top -= rhs3[:, r:]
    top *= -1
    x3[:, r:] = y
    record_event(
        KernelEvent(
            kernel="schur_solve_batched",
            batch=nb,
            shape=(r2, nrhs, 0),
            flops=nb * schur_solve_flops(r, nrhs, _is_complex(out_dtype)),
            bytes_moved=float(g3.nbytes + uinv3.nbytes + tb3.nbytes + 2 * rhs3.nbytes),
            dtype_size=np.dtype(out_dtype).itemsize,
            strided=True,
            buckets=1,
            plan=True,
        )
    )
    return x3
