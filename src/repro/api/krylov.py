"""Krylov solves with HODLR operators and preconditioners.

Single right-hand sides go through thin wrappers around
``scipy.sparse.linalg.gmres``/``cg`` that accept any of the facade's
operator spellings — a dense matrix, an
:class:`~repro.core.hodlr.HODLRMatrix`, an
:class:`~repro.api.operator.HODLROperator`, a SciPy ``LinearOperator``, or
a bare matvec callable — and record the residual history, which is the
quantity of interest when comparing preconditioner quality (paper,
section IV-C).

A two-dimensional ``(n, K)`` right-hand side runs the single-column
driver once per column.  Many right-hand sides against one factorized
operator are a direct solve instead:
:meth:`~repro.api.operator.HODLROperator.solve` and
:func:`~repro.api.facade.solve_many` replay the compiled plan once for all
``K`` columns.

The ``preconditioner`` argument takes an :class:`HODLROperator` (its
*inverse* action is used automatically), an
:class:`~repro.api.operator.HODLRInverseOperator`, a factorized
:class:`~repro.core.solver.HODLRSolver`, or any ``LinearOperator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple, Union

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg, gmres

from ..core.hodlr import HODLRMatrix
from ..core.solver import HODLRSolver
from .operator import HODLRInverseOperator, HODLROperator

OperatorLike = Union[
    np.ndarray, HODLRMatrix, LinearOperator, Callable[[np.ndarray], np.ndarray]
]
PreconditionerLike = Optional[Union[HODLROperator, HODLRSolver, LinearOperator]]


@dataclass
class IterationLog:
    """Iteration count and (optional) residual history of a Krylov run.

    GMRES records the preconditioned residual norms SciPy hands to the
    callback for free; CG only counts iterations unless residual recording
    was requested (each recorded CG residual costs one extra matvec).

    Runs over ``(n, K)`` right-hand sides concatenate the columns'
    residual histories, count the iterations of all columns, and fill
    ``converged_at`` with each column's iteration count (``-1`` for columns
    that never met the tolerance).
    """

    residuals: List[float]
    count: int = 0
    converged_at: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def iterations(self) -> int:
        return self.count if self.count > 0 else len(self.residuals)


def _as_matvec(operator: OperatorLike, n: int) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(operator, np.ndarray):
        return lambda x: operator @ x
    if isinstance(operator, HODLRMatrix):
        return operator.matvec
    if isinstance(operator, LinearOperator):
        return operator.matvec
    if callable(operator):
        return operator
    raise TypeError(f"cannot interpret {type(operator)!r} as a linear operator")


def as_preconditioner(M: PreconditionerLike) -> Optional[LinearOperator]:
    """Coerce the accepted preconditioner spellings to a ``LinearOperator``."""
    if M is None:
        return None
    if isinstance(M, HODLROperator):
        return M.as_preconditioner()
    if isinstance(M, HODLRSolver):
        if not M.factored:
            M.factorize()
        return HODLRInverseOperator(M)
    if isinstance(M, LinearOperator):
        return M
    raise TypeError(f"cannot interpret {type(M)!r} as a preconditioner")


def _by_column(
    driver, operator: OperatorLike, b: np.ndarray, preconditioner: PreconditionerLike, **kwargs
) -> Tuple[np.ndarray, int, IterationLog]:
    """Run a single-column ``driver`` on each column of an ``(n, K)`` ``b``.

    ``info`` counts the columns that did not converge; the log concatenates
    the columns' residual histories, sums their iterations, and records
    each column's iteration count in ``converged_at`` (``-1`` where the
    column did not converge).
    """
    M = as_preconditioner(preconditioner)
    xs, log = [], IterationLog(residuals=[], converged_at=np.full(b.shape[1], -1, dtype=np.intp))
    for j in range(b.shape[1]):
        x, info, col = driver(operator, b[:, j], preconditioner=M, **kwargs)
        xs.append(x)
        log.residuals += col.residuals
        log.count += col.iterations
        if info == 0:
            log.converged_at[j] = col.iterations
    X = np.stack(xs, axis=1) if xs else np.zeros(b.shape, dtype=b.dtype)
    return X, int((log.converged_at < 0).sum()), log


def gmres_solve(
    operator: OperatorLike,
    b: np.ndarray,
    preconditioner: PreconditionerLike = None,
    tol: float = 1e-10,
    maxiter: int = 500,
    restart: int = 50,
) -> Tuple[np.ndarray, int, IterationLog]:
    """Run (preconditioned) GMRES; returns ``(x, info, iteration_log)``.

    A two-dimensional ``b`` of shape ``(n, K)`` solves its columns one
    after the other.  ``info`` is then the number of columns that did not
    reach ``tol`` (0 = all converged), and the log's ``converged_at``
    records each column's iteration count.
    """
    b = np.asarray(b)
    if b.ndim == 2:
        return _by_column(
            gmres_solve, operator, b, preconditioner, tol=tol, maxiter=maxiter, restart=restart
        )
    n = b.shape[0]
    matvec = _as_matvec(operator, n)
    dtype = np.result_type(b.dtype, np.asarray(matvec(np.zeros(n, dtype=b.dtype))).dtype)
    A = LinearOperator((n, n), matvec=matvec, dtype=dtype)
    log = IterationLog(residuals=[])

    def callback(rk: Any) -> None:
        # scipy passes either the residual norm (legacy) or the residual vector
        log.residuals.append(float(np.linalg.norm(rk)) if np.ndim(rk) else float(rk))

    x, info = gmres(
        A,
        b,
        rtol=tol,
        atol=0.0,
        maxiter=maxiter,
        restart=restart,
        M=as_preconditioner(preconditioner),
        callback=callback,
        callback_type="pr_norm",
    )
    return x, int(info), log


def cg_solve(
    operator: OperatorLike,
    b: np.ndarray,
    preconditioner: PreconditionerLike = None,
    tol: float = 1e-10,
    maxiter: int = 500,
    record_residuals: bool = False,
) -> Tuple[np.ndarray, int, IterationLog]:
    """Run (preconditioned) CG for SPD operators; returns ``(x, info, log)``.

    SciPy's CG callback only provides the iterate, so computing a residual
    means one extra operator application per iteration —
    ``record_residuals=True`` opts into that; by default the log carries
    the iteration count only.

    A two-dimensional ``b`` of shape ``(n, K)`` solves its columns one
    after the other; ``info`` is the number of columns that did not
    converge, as for :func:`gmres_solve`.
    """
    b = np.asarray(b)
    if b.ndim == 2:
        return _by_column(
            cg_solve, operator, b, preconditioner, tol=tol, maxiter=maxiter,
            record_residuals=record_residuals,
        )
    n = b.shape[0]
    matvec = _as_matvec(operator, n)
    A = LinearOperator((n, n), matvec=matvec, dtype=b.dtype)
    log = IterationLog(residuals=[])

    def callback(xk: Any) -> None:
        log.count += 1
        if record_residuals:
            log.residuals.append(float(np.linalg.norm(b - A.matvec(xk))))

    x, info = cg(
        A,
        b,
        rtol=tol,
        atol=0.0,
        maxiter=maxiter,
        M=as_preconditioner(preconditioner),
        callback=callback,
    )
    return x, int(info), log
