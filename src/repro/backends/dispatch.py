"""Backend dispatch and shape-bucketed batch planning.

The paper's GPU schedule reduces the HODLR factorization and solve to a
handful of batched BLAS/LAPACK kernels.  cuBLAS executes a *uniform*
batch (all problems the same shape) as a single strided kernel; a
heterogeneous pointer-array batch degrades to the slow generic path.  The
library therefore never submits a heterogeneous batch: it plans shape
buckets up front and issues one strided launch
(:mod:`repro.backends.batched`) per bucket.

:class:`ArrayBackend`
    A protocol describing the array-level primitives the batched kernels
    need (``matmul`` over 3-D stacks, batched LU factorization and solve,
    Cholesky factors and their inverses, inverse triangular LU factors,
    host transfers).  :class:`NumpyBackend` is the default implementation;
    :class:`CupyBackend` registers the same interface behind an optional
    ``cupy`` import so a real GPU backend plugs in without touching the
    solver code.  Backends are looked up by name via :func:`get_backend`.

:class:`BatchPlanner` / :func:`plan_batch`
    Groups the blocks of a tree level into *shape buckets*: maximal index
    sets whose operands share identical shapes.  Each bucket is packed
    into strided 3-D storage and executed with one strided launch, so a
    level with ``k`` distinct shapes costs ``k`` kernel launches instead
    of one per block.  Nothing is padded: a bucket holds one exact shape.

:class:`DispatchPolicy`
    One switch, ``bucketing``: batched construction (the default) or the
    per-block reference schedule :data:`LOOP_POLICY`.

:func:`vectorize_getrf`
    The shape rule deciding how the NumPy emulation executes an LU
    factorization launch on the host: one vectorised batched elimination
    for many tiny blocks, per-problem LAPACK otherwise.  LU solves always
    run per problem.

The planner is deliberately independent of the execution layer: it only
sees shape keys, so it is reusable for any batched primitive (and is unit
tested on bare tuples in ``tests/test_dispatch.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np
from scipy import linalg as sla


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend's runtime dependency is missing."""


# ======================================================================
# shape-bucketed batch planning
# ======================================================================
@dataclass(frozen=True)
class ShapeBucket:
    """A maximal subset of a batch whose problems share one shape key.

    Attributes
    ----------
    key:
        The hashable shape descriptor shared by every member (e.g.
        ``(A_i.shape, B_i.shape)`` for a gemm batch, ``n`` for an LU batch).
    indices:
        Positions of the members in the original batch, in submission
        order.  Results are scattered back to these positions so bucketed
        execution is invisible to the caller.
    """

    key: Hashable
    indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BatchPlan:
    """The bucket decomposition of one heterogeneous batch."""

    buckets: Tuple[ShapeBucket, ...]
    nbatch: int

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)


class BatchPlanner:
    """Groups batch members into uniform shape buckets.

    Grouping preserves first-occurrence order of the keys and submission
    order within each bucket, so plans are deterministic and the scattered
    results are bit-for-bit reproducible across runs.
    """

    def plan(self, keys: Sequence[Hashable]) -> BatchPlan:
        groups: Dict[Hashable, List[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        buckets = tuple(
            ShapeBucket(key=key, indices=tuple(idx)) for key, idx in groups.items()
        )
        return BatchPlan(buckets=buckets, nbatch=len(keys))


_PLANNER = BatchPlanner()


def plan_batch(keys: Sequence[Hashable]) -> BatchPlan:
    """Plan a batch with the module-level :class:`BatchPlanner`."""
    return _PLANNER.plan(keys)


# ======================================================================
# dispatch policy
# ======================================================================
@dataclass(frozen=True)
class DispatchPolicy:
    """How the library schedules its batched kernels.

    Parameters
    ----------
    bucketing:
        Compress with batched kernels: HODLR construction and the
        streaming-update recompression pack the blocks of a level into
        shape buckets and compress each bucket with strided
        gemm/Cholesky/SVD launches.  ``False`` compresses block by block —
        the per-block reference schedule (:data:`LOOP_POLICY`) the
        benchmarks measure the batched construction against.
        Factorization, solve and apply always run their compiled
        per-bucket strided launches, whatever the policy.

    Construction checks the field's type (``TypeError``).  A keyword of a
    removed field (``min_bucket``, ``lu_vectorize``, ``pad_buckets``, ...)
    raises ``TypeError`` naming it.
    """

    bucketing: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.bucketing, bool):
            raise TypeError(f"DispatchPolicy.bucketing must be a bool, got {self.bucketing!r}")

    def replace(self, **changes) -> "DispatchPolicy":
        """A copy with the given fields replaced (the policy is frozen)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)


#: default policy used by the batched primitives
DEFAULT_POLICY = DispatchPolicy()

#: per-block reference policy: block-by-block construction; the compiled
#: factorization, solve and apply launches are the default's
LOOP_POLICY = DispatchPolicy(bucketing=False)


#: the vectorised batched elimination wins over per-problem LAPACK from this
#: many problems per launch ...
_GETRF_VECTORIZE_MIN_BATCH = 24
#: ... and up to this block size (it costs O(n) interpreter steps of rank-1
#: updates, where LAPACK runs blocked BLAS-3)
_GETRF_VECTORIZE_MAX_N = 12


def vectorize_getrf(nb: int, n: int) -> bool:
    """Should an LU factorization launch of ``nb`` problems of size ``n``
    run the vectorised batched elimination on the host?

    Each side wins a workload (2-vCPU Xeon, one BLAS thread, min of 30): a
    ``(512, 2, 2)`` stack, a ``gp_covariance`` Schur-complement level,
    factors in 0.095 ms vectorised against 2.5 ms per problem; a
    ``(64, 23, 23)`` stack, a ``gaussian_kernel`` level, in 1.39 ms against
    0.57 ms.  The launch schedule and every recorded counter are the same
    either way; a GPU backend runs every bucket as one batched kernel.
    """
    return nb >= _GETRF_VECTORIZE_MIN_BATCH and n <= _GETRF_VECTORIZE_MAX_N


# ======================================================================
# vectorised batched LU kernels (generic over the array module)
# ======================================================================
def lu_factor_nopivot(a: np.ndarray) -> np.ndarray:
    """Doolittle LU without pivoting, packed into a single matrix."""
    a = np.array(a, copy=True)
    n = a.shape[0]
    for k in range(n - 1):
        pivot_val = a[k, k]
        if pivot_val == 0:
            raise np.linalg.LinAlgError("zero pivot encountered in non-pivoted LU")
        a[k + 1 :, k] /= pivot_val
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a


def lu_solve_nopivot(lu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triangular substitution against a packed non-pivoted LU factor."""
    y = sla.solve_triangular(lu, b, lower=True, unit_diagonal=True)
    return sla.solve_triangular(lu, y, lower=False)


def _lu_factor_batch(xp, a, pivot: bool = True):
    """Vectorised right-looking LU over the leading batch axis.

    ``a`` is ``(batch, n, n)``; returns ``(lu, piv)`` where ``lu`` packs the
    unit-lower and upper factors per problem and ``piv`` holds LAPACK-style
    0-based row-swap indices (``piv[:, k]`` is the row exchanged with row
    ``k`` at step ``k``), so individual problems interoperate with
    ``scipy.linalg.lu_solve``.  Each elimination step operates on the whole
    batch at once: the Python-level loop is O(n), not O(batch * n).
    """
    a = xp.array(a, copy=True)
    nbatch, n, _ = a.shape
    piv = xp.zeros((nbatch, n), dtype=np.int64)
    bi = xp.arange(nbatch)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            if pivot:
                p = k + xp.argmax(xp.abs(a[:, k:, k]), axis=1)
                piv[:, k] = p
                rows_k = a[bi, k, :].copy()
                a[bi, k, :] = a[bi, p, :]
                a[bi, p, :] = rows_k
            else:
                piv[:, k] = k
            pivot_val = a[:, k, k]
            if k + 1 < n:
                # a zero *final* pivot is tolerated, matching the per-problem
                # lu_factor_nopivot (which only eliminates the first n-1 columns)
                if not pivot and bool(xp.any(pivot_val == 0)):
                    raise np.linalg.LinAlgError("zero pivot encountered in non-pivoted LU")
                a[:, k + 1 :, k] /= pivot_val[:, None]
                a[:, k + 1 :, k + 1 :] -= a[:, k + 1 :, k, None] * a[:, k, None, k + 1 :]
    return a, piv


def _lu_solve_batch(xp, lu, piv, b, pivot: bool = True):
    """Vectorised substitution for a batch of packed LU factors.

    ``lu`` is ``(batch, n, n)``, ``piv`` is ``(batch, n)`` (ignored when
    ``pivot=False``), ``b`` is ``(batch, n, nrhs)``.  Row substitutions are
    expressed as tiny batched matmuls so each of the O(n) steps is one
    vectorised kernel over the whole batch.
    """
    x = xp.array(b, copy=True)
    nbatch, n, _ = x.shape
    bi = xp.arange(nbatch)
    if pivot and n:
        for k in range(n):
            p = piv[:, k]
            rows_k = x[bi, k, :].copy()
            x[bi, k, :] = x[bi, p, :]
            x[bi, p, :] = rows_k
    # forward substitution with the unit-lower factor
    for i in range(1, n):
        x[:, i, :] -= (lu[:, i : i + 1, :i] @ x[:, :i, :])[:, 0, :]
    # back substitution with the upper factor
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[:, i, :] -= (lu[:, i : i + 1, i + 1 :] @ x[:, i + 1 :, :])[:, 0, :]
        x[:, i, :] /= lu[:, i, i][:, None]
    return x


def _check_symmetric_batch(xp, a) -> None:
    """Raise :class:`numpy.linalg.LinAlgError` unless every matrix of a
    ``(batch, n, n)`` stack is symmetric (Hermitian, for a complex stack) to
    rounding.

    The test is ``|A v - A^H v| <= (16 + 2n) eps max|diag A| ||v||_1`` for
    a fixed pseudo-random real ``v``: two batched matrix-vector products
    rather than a transposing pass over the stack.  On a positive definite
    matrix the diagonal bounds every entry, so the right side covers an
    asymmetry of ``16 eps`` (the threshold of ``build_hodlr``'s symmetry
    probe) plus the rounding of both products; a matrix that fails is not
    symmetric, or not definite.
    """
    n = a.shape[-1]
    v = xp.asarray(np.random.default_rng(n).standard_normal(n).astype(a.dtype))
    # v^T conj(A) = (A^H v)^T: the real stack's product is v^T A
    at = a.conj() if a.dtype.kind == "c" else a
    gap = xp.abs(xp.matmul(a, v) - xp.matmul(v, at)).max(axis=-1)
    scale = xp.abs(xp.diagonal(a, axis1=-2, axis2=-1)).max(axis=-1)
    bound = (16 + 2 * n) * np.finfo(a.dtype).eps * float(xp.abs(v).sum())
    bad = xp.flatnonzero(~(gap <= bound * scale))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"problem {int(bad[0])} is not symmetric to rounding: no Cholesky factor"
        )


def cholesky_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse lower Cholesky factors of a ``(batch, n, n)`` real SPD stack.

    Returns ``X`` with ``X[i] = C_i^{-1}``, where ``A[i] = C_i C_i^T`` and
    ``C_i`` is lower triangular; ``X[i]`` is lower triangular too.  Each
    problem is one LAPACK ``potrf`` and one ``trtri``, both in place on a
    C-ordered copy of the stack: the Fortran view of a C-ordered block is
    its transpose, so the upper Cholesky factor ``U = C^T`` of that view,
    inverted in place, reads back in C order as ``U^{-T} = C^{-1}``.
    ``potrf`` reads one triangle only, so the stack is first checked to be
    symmetric (:func:`_check_symmetric_batch`).  Raises
    :class:`numpy.linalg.LinAlgError` when a problem is not symmetric or
    not (numerically) positive definite.  Each problem's result depends on
    that problem alone, so factorizing any subset of a stack gives the
    same bits.
    """
    out = np.array(a, order="C", copy=True)
    if out.dtype.kind != "f":
        raise ValueError(f"cholesky_inverse expects a real stack, got {out.dtype}")
    if out.shape[0] == 0 or out.shape[1] == 0:
        return out
    _check_symmetric_batch(np, out)
    potrf, trtri = sla.get_lapack_funcs(("potrf", "trtri"), (out,))
    for i in range(out.shape[0]):
        w = out[i].T
        _, info = potrf(w, lower=0, clean=1, overwrite_a=1)
        if info == 0:
            _, info = trtri(w, lower=0, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"Cholesky factorization failed on problem {i} (info={info}): "
                "the block is not positive definite"
            )
    return out


def cholesky_factor(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a ``(batch, n, n)`` Hermitian positive
    definite stack, and their inverses.

    Returns ``(C, Cinv)`` with ``A[i] = C_i C_i^H``, ``C_i`` lower
    triangular and ``Cinv[i] = C_i^{-1}``, lower triangular too.  One
    batched ``numpy.linalg.cholesky`` (a single C-level call over the
    stack) gives ``C``; per problem one LAPACK ``trtri`` inverts it in place
    on the Fortran view of a C-ordered copy, whose upper triangle is
    ``C^T``, so it reads back in C order as ``C^{-1}`` (a batched general
    inverse ran about three times slower from ``n = 24`` up on one BLAS
    thread).  Real and
    complex stacks take the same path.  Raises
    :class:`numpy.linalg.LinAlgError` when a problem is not Hermitian to
    rounding (:func:`_check_symmetric_batch`) or not (numerically) positive
    definite.  Each problem's result depends on that problem alone.
    """
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros_like(a), np.zeros_like(a)
    _check_symmetric_batch(np, a)
    c = np.linalg.cholesky(a)
    cinv = np.array(c, order="C", copy=True)
    trtri, = sla.get_lapack_funcs(("trtri",), (cinv,))
    for i in range(cinv.shape[0]):
        _, info = trtri(cinv[i].T, lower=0, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"Cholesky factor of problem {i} is singular (info={info})"
            )
    return c, cinv


def _check_upper_factors(xp, lu) -> None:
    """Raise :class:`numpy.linalg.LinAlgError` when an upper factor of a
    packed ``(batch, n, n)`` LU stack is singular to working precision.

    The test is ``min |u_ii| <= n eps max |u_ij|`` (or a non-finite
    entry): the diagonal bounds the smallest singular value of a
    triangular matrix from above and its largest entry bounds the largest
    from below, so a problem that fails has ``cond(U) >= 1 / (n eps)``,
    the rank tolerance of ``numpy.linalg.matrix_rank``, and no inverse
    factor of it carries a correct digit.
    """
    n = lu.shape[-1]
    diag = xp.abs(xp.diagonal(lu, axis1=-2, axis2=-1)).min(axis=-1)
    scale = xp.abs(xp.triu(lu)).max(axis=(-2, -1))
    bad = xp.flatnonzero(~(diag > n * np.finfo(lu.dtype).eps * scale))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"problem {int(bad[0])} has an upper factor that is singular to "
            "working precision: no inverse triangular factors"
        )


def _triangular_inverse(xp, lu):
    """Inverse triangular factors of a packed ``(batch, n, n)`` LU stack
    through the array module ``xp``: both triangles go through one batched
    ``xp.linalg.inv`` each (a single C-level call over the stack, no
    per-problem Python loop), masked back to their triangles.  For ``U``
    and a unit ``L`` with ``|l_ij| <= 1`` the inverse's own LU is trivial
    (no row interchange, zero or exact multipliers), so each column is
    computed by triangular substitution, as in ``trtri``.  Raises like
    :func:`triangular_inverse`."""
    _check_upper_factors(xp, lu)
    eye = xp.eye(lu.shape[-1], dtype=lu.dtype)
    linv = xp.tril(xp.linalg.inv(xp.tril(lu, -1) + eye))
    return linv, xp.triu(xp.linalg.inv(xp.triu(lu)))


def triangular_inverse(lu: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse triangular factors of a packed ``(batch, n, n)`` LU stack.

    ``lu`` packs a unit lower factor ``L`` (strict lower triangle) and an
    upper factor ``U`` per problem, as :func:`_lu_factor_batch` and LAPACK
    ``getrf`` leave them.  Returns ``(Linv, Uinv)``: ``Linv[i] = L_i^{-1}``
    (lower triangular) and ``Uinv[i] = U_i^{-1}`` (upper triangular), zero
    outside their triangles (:func:`_triangular_inverse`).  Raises
    :class:`numpy.linalg.LinAlgError` when an upper factor is singular to
    working precision (:func:`_check_upper_factors`).  Each problem's
    result depends on that problem alone.
    """
    lu = np.asarray(lu)
    if lu.size == 0:
        return np.zeros_like(lu), np.zeros_like(lu)
    return _triangular_inverse(np, lu)


# ======================================================================
# ArrayBackend protocol and implementations
# ======================================================================
@runtime_checkable
class ArrayBackend(Protocol):
    """Array-level primitives the batched kernels are written against.

    A backend owns one array library (NumPy, CuPy, ...) and provides the
    handful of operations the dispatch layer needs.  Everything above this
    seam — bucketing, kernel-event accounting, the factorization schedules
    — is backend agnostic.
    """

    name: str

    def asarray(self, x: Any) -> Any: ...

    def stack(self, xs: Sequence[Any]) -> Any: ...

    def concat(self, xs: Sequence[Any], axis: int = 0) -> Any: ...

    def zeros(self, shape: Tuple[int, ...], dtype: Any = np.float64) -> Any: ...

    def eye(self, n: int, dtype: Any = np.float64) -> Any: ...

    def broadcast_to(self, x: Any, shape: Tuple[int, ...]) -> Any: ...

    def matmul(self, a: Any, b: Any, out: Any = None) -> Any: ...

    def norm(self, x: Any) -> float: ...

    def lu_factor(self, a: Any, pivot: bool = True) -> Tuple[Any, Any]: ...

    def lu_solve(self, lu: Any, piv: Any, b: Any, pivot: bool = True) -> Any: ...

    def lu_factor_batch(self, a: Any, pivot: bool = True) -> Tuple[Any, Any]: ...

    def cholesky_inverse_batch(self, a: Any) -> Any: ...

    def cholesky_factor_batch(self, a: Any) -> Tuple[Any, Any]: ...

    def triangular_inverse_batch(self, lu: Any) -> Tuple[Any, Any]: ...

    def qr_batch(self, a: Any) -> Tuple[Any, Any]: ...

    def svd_batch(self, a: Any) -> Tuple[Any, Any, Any]: ...

    def to_host(self, x: Any) -> np.ndarray: ...

    def from_host(self, x: Any) -> Any: ...

    def synchronize(self) -> None: ...


class NumpyBackend:
    """Default CPU backend: NumPy arrays, LAPACK via SciPy for 2-D LU."""

    name = "numpy"

    def asarray(self, x):
        return np.asarray(x)

    def stack(self, xs):
        # np.asarray on a list of equal-shape arrays packs in one C-level
        # pass and is measurably faster than np.stack for many small blocks
        return np.asarray(xs if isinstance(xs, list) else list(xs))

    def concat(self, xs, axis: int = 0):
        return np.concatenate(list(xs), axis=axis)

    def zeros(self, shape, dtype=np.float64):
        return np.zeros(shape, dtype=dtype)

    def eye(self, n: int, dtype=np.float64):
        return np.eye(n, dtype=dtype)

    def broadcast_to(self, x, shape):
        return np.broadcast_to(x, shape)

    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)

    def norm(self, x):
        return np.linalg.norm(x)

    def lu_factor(self, a, pivot: bool = True):
        if pivot:
            return sla.lu_factor(a, check_finite=False)
        return lu_factor_nopivot(a), np.empty(0, dtype=np.int64)

    def lu_solve(self, lu, piv, b, pivot: bool = True):
        if pivot:
            return sla.lu_solve((lu, piv), b, check_finite=False)
        return lu_solve_nopivot(lu, b)

    def lu_factor_batch(self, a, pivot: bool = True):
        return _lu_factor_batch(np, np.asarray(a), pivot=pivot)

    def lu_solve_many(self, lu3, piv3, rhs3, pivot: bool = True, out=None):
        """Per-problem substitution over a packed ``(nb, n, n)`` LU stack.

        Semantically a loop of :meth:`lu_solve`, but bound once to the raw
        LAPACK ``getrs`` routine: the compiled solve plans replay this on
        every right-hand side, and scipy's per-call ``lu_solve`` wrapper
        (argument checking, function lookup) costs several times the actual
        n≈64 substitution.  Its callers are the LU leaves of complex and
        non-symmetric matrices (the K systems and Cholesky leaves solve by
        products against inverse factors).  Optional protocol method —
        backends without it fall back to the ``lu_solve`` loop.  ``out``
        (of the promoted dtype) receives the solutions and may be ``rhs3``
        itself: each problem's right-hand side is read before its solution
        is written.
        """
        out_dtype = np.result_type(lu3.dtype, rhs3.dtype)
        lu3 = np.asarray(lu3, dtype=out_dtype)
        rhs3 = np.asarray(rhs3, dtype=out_dtype)
        if out is None:
            out = np.empty(rhs3.shape, dtype=out_dtype)
        if not pivot:
            for i in range(lu3.shape[0]):
                out[i] = lu_solve_nopivot(lu3[i], rhs3[i])
            return out
        if lu3.shape[0] == 0 or lu3.shape[1] == 0:
            return out
        getrs, = sla.get_lapack_funcs(("getrs",), (lu3, rhs3))
        for i in range(lu3.shape[0]):
            x, info = getrs(lu3[i], piv3[i], rhs3[i])
            if info != 0:  # pragma: no cover - defensive
                raise np.linalg.LinAlgError(f"getrs failed with info={info}")
            out[i] = x
        return out

    def cholesky_inverse_batch(self, a):
        return cholesky_inverse(np.asarray(a))

    def cholesky_factor_batch(self, a):
        return cholesky_factor(a)

    def triangular_inverse_batch(self, lu):
        return triangular_inverse(lu)

    def qr_batch(self, a):
        # NumPy's qr vectorises over leading batch axes (one LAPACK call per
        # problem at C level, no Python-loop bookkeeping per block)
        return np.linalg.qr(np.asarray(a))

    def svd_batch(self, a):
        return np.linalg.svd(np.asarray(a), full_matrices=False)

    def to_host(self, x) -> np.ndarray:
        return np.asarray(x)

    def from_host(self, x):
        return np.asarray(x)

    def synchronize(self) -> None:
        return None


class CupyBackend:
    """GPU backend behind an optional ``cupy`` import.

    The batched kernels are expressed through the same vectorised helpers
    as the NumPy backend, so registering this class is all that is needed
    for the factorization variants to run on a CUDA device.  Constructing
    it without ``cupy`` installed raises :class:`BackendUnavailableError`;
    the registry treats that as "not available" rather than an error.
    """

    name = "cupy"

    def __init__(self) -> None:
        try:
            import cupy  # noqa: F401 - optional dependency probed at runtime
        except ImportError as exc:  # pragma: no cover - exercised without cupy only
            raise BackendUnavailableError(
                "the 'cupy' backend requires the cupy package (pip install cupy-cuda12x)"
            ) from exc
        self._cp = cupy

    # everything below runs only when cupy imports, i.e. on a CUDA machine
    def asarray(self, x):  # pragma: no cover - requires cupy
        return self._cp.asarray(x)

    def stack(self, xs):  # pragma: no cover - requires cupy
        return self._cp.stack([self._cp.asarray(x) for x in xs])

    def concat(self, xs, axis: int = 0):  # pragma: no cover - requires cupy
        return self._cp.concatenate([self._cp.asarray(x) for x in xs], axis=axis)

    def zeros(self, shape, dtype=np.float64):  # pragma: no cover - requires cupy
        return self._cp.zeros(shape, dtype=dtype)

    def eye(self, n: int, dtype=np.float64):  # pragma: no cover - requires cupy
        return self._cp.eye(n, dtype=dtype)

    def broadcast_to(self, x, shape):  # pragma: no cover - requires cupy
        return self._cp.broadcast_to(self._cp.asarray(x), shape)

    def matmul(self, a, b, out=None):  # pragma: no cover - requires cupy
        return self._cp.matmul(a, b, out=out)

    def norm(self, x):  # pragma: no cover - requires cupy
        return self._cp.linalg.norm(x)

    def lu_factor(self, a, pivot: bool = True):  # pragma: no cover - requires cupy
        lu, piv = self.lu_factor_batch(self._cp.asarray(a)[None], pivot=pivot)
        return lu[0], (piv[0] if pivot else self._cp.zeros(0, dtype=np.int64))

    def lu_solve(self, lu, piv, b, pivot: bool = True):  # pragma: no cover - requires cupy
        b = self._cp.asarray(b)
        squeeze = b.ndim == 1
        rhs = b[:, None] if squeeze else b
        x = _lu_solve_batch(self._cp, lu[None], piv[None], rhs[None], pivot=pivot)[0]
        return x[:, 0] if squeeze else x

    def lu_factor_batch(self, a, pivot: bool = True):  # pragma: no cover - requires cupy
        return _lu_factor_batch(self._cp, self._cp.asarray(a), pivot=pivot)

    def cholesky_inverse_batch(self, a):  # pragma: no cover - requires cupy
        return self.cholesky_factor_batch(a)[1]

    def cholesky_factor_batch(self, a):  # pragma: no cover - requires cupy
        # batched potrf, then the triangular inverse through a batched
        # inverse; cupy's cholesky leaves NaNs on failure
        a = self._cp.asarray(a)
        _check_symmetric_batch(self._cp, a)
        C = self._cp.linalg.cholesky(a)
        if not bool(self._cp.isfinite(C).all()):
            raise np.linalg.LinAlgError("Cholesky factorization failed: not positive definite")
        return C, self._cp.tril(self._cp.linalg.inv(C))

    def triangular_inverse_batch(self, lu):  # pragma: no cover - requires cupy
        # cupy has no batched trtri: the batched-inverse route of the host
        return _triangular_inverse(self._cp, self._cp.asarray(lu))

    def qr_batch(self, a):  # pragma: no cover - requires cupy
        a = self._cp.asarray(a)
        try:
            return self._cp.linalg.qr(a)
        except Exception:
            # older cupy without batched qr: per-problem cuSOLVER calls
            qs, rs = zip(*(self._cp.linalg.qr(a[i]) for i in range(a.shape[0])))
            return self._cp.stack(qs), self._cp.stack(rs)

    def svd_batch(self, a):  # pragma: no cover - requires cupy
        return self._cp.linalg.svd(self._cp.asarray(a), full_matrices=False)

    def to_host(self, x) -> np.ndarray:  # pragma: no cover - requires cupy
        return self._cp.asnumpy(x)

    def from_host(self, x):  # pragma: no cover - requires cupy
        return self._cp.asarray(x)

    def synchronize(self) -> None:  # pragma: no cover - requires cupy
        self._cp.cuda.get_current_stream().synchronize()


# ======================================================================
# backend registry
# ======================================================================
#: guards the factory/instance dicts — registration and first-lookup
#: instantiation may race with callers' threads resolving backends
_REGISTRY_LOCK = threading.Lock()
_BACKEND_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_BACKEND_INSTANCES: Dict[str, ArrayBackend] = {}


def register_backend(
    name: str, factory: Callable[[], ArrayBackend], overwrite: bool = False
) -> None:
    """Register an :class:`ArrayBackend` factory under ``name``.

    The factory is called lazily on the first :func:`get_backend` lookup; a
    factory may raise :class:`BackendUnavailableError` to signal a missing
    runtime dependency (the backend then shows as registered but not
    available).  Registration and lookup are thread-safe.
    """
    with _REGISTRY_LOCK:
        if not overwrite and name in _BACKEND_FACTORIES:
            raise ValueError(f"backend {name!r} is already registered")
        _BACKEND_FACTORIES[name] = factory
        _BACKEND_INSTANCES.pop(name, None)


def get_backend(name: str = "numpy") -> ArrayBackend:
    """Return the (cached) backend instance registered under ``name``.

    Thread-safe: concurrent first lookups of the same name instantiate the
    factory once (the lock is held across instantiation, which is cheap —
    backends bind module handles, they do not touch devices).
    """
    with _REGISTRY_LOCK:
        if name in _BACKEND_INSTANCES:
            return _BACKEND_INSTANCES[name]
        try:
            factory = _BACKEND_FACTORIES[name]
        except KeyError:
            raise KeyError(
                f"unknown array backend {name!r}; registered: "
                f"{sorted(_BACKEND_FACTORIES)}"
            ) from None
        instance = factory()
        _BACKEND_INSTANCES[name] = instance
        return instance


def registered_backends() -> List[str]:
    """Names of all registered backends (available or not)."""
    with _REGISTRY_LOCK:
        return sorted(_BACKEND_FACTORIES)


def available_backends() -> List[str]:
    """Names of registered backends whose runtime dependencies import."""
    out = []
    for name in registered_backends():
        try:
            get_backend(name)
        except BackendUnavailableError:
            continue
        out.append(name)
    return out


register_backend("numpy", NumpyBackend)
register_backend("cupy", CupyBackend)
