"""Device-resident execution contexts: *where* arrays live and *what* they carry.

:class:`ExecutionContext` holds the orthogonal execution decisions in one
immutable object that is threaded through every layer of the stack, and it
is the only way those layers are told where and how to run (``None`` means
:data:`DEFAULT_CONTEXT`):

``backend``
    The :class:`~repro.backends.dispatch.ArrayBackend` owning array storage
    and the batched kernels (NumPy, CuPy, or anything registered via
    :func:`~repro.backends.dispatch.register_backend`).  Accepts a
    registered name; the instance is resolved on construction.
``policy``
    The :class:`~repro.backends.dispatch.DispatchPolicy`, whose one field
    ``bucketing`` decides how construction compresses a level: shape
    bucket by shape bucket (the default), or block by block under
    :data:`~repro.backends.dispatch.LOOP_POLICY`, the per-block reference.
    Factorization, solve and apply run the same compiled launches under
    either.
``precision``
    A :class:`PrecisionPolicy` describing the dtype each pipeline stage
    carries: the storage dtype of the HODLR blocks and factorization, the
    (possibly demoted) dtype of the compiled apply plan, the accumulation
    dtype of demoted products, and whether direct solves run one step of
    iterative refinement to recover full-precision residuals.

Transfers are explicit and happen only at the facade boundary:
:meth:`ExecutionContext.to_device` / :meth:`ExecutionContext.to_host`.
Inside construction, factorization, and apply, every array operation is
routed through the context's backend — no naked ``numpy`` calls on data
arrays — which is what makes a CuPy (or recording-stub) context run the
whole pipeline without host round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union

import numpy as np

from .dispatch import (
    DEFAULT_POLICY,
    ArrayBackend,
    DispatchPolicy,
    NumpyBackend,
    get_backend,
)

#: float -> complex companions used when a real plan dtype meets complex data
_COMPLEX_OF = {"float32": "complex64", "float64": "complex128"}


def _as_dtype_name(dtype: Any, what: str) -> Optional[str]:
    """Canonical dtype name (or ``None``), rejecting non-float/complex dtypes."""
    if dtype is None:
        return None
    dt = np.dtype(dtype)
    if dt.kind not in "fc":
        raise ValueError(f"{what} must be a floating or complex dtype, got {dt.name!r}")
    return dt.name


@dataclass(frozen=True)
class PrecisionPolicy:
    """What precision each stage of the pipeline carries.

    Parameters
    ----------
    storage:
        Dtype of the stored HODLR blocks and the factorization (``None`` =
        the problem's natural dtype).  This subsumes the old
        ``SolverConfig.dtype`` / ``HODLRSolver(dtype=...)`` override.
    plan:
        Dtype of the compiled :class:`~repro.core.apply_plan.ApplyPlan`
        storage.  ``"float32"`` builds the half-traffic plan the ROADMAP
        calls for: the single-vector apply is memory-bandwidth-bound, so
        demoting the packed ``D``/``U``/``V`` stacks halves the bytes each
        matvec streams.  Complex matrices demote to the matching complex
        dtype (``complex128 -> complex64``).  ``None`` keeps the plan at
        the matrix dtype.
    plan_min_level:
        Demote only tree levels ``>= plan_min_level`` (level 1 is the
        coarsest split, deeper levels hold the many small blocks where the
        traffic concentrates; leaf diagonal blocks count as the deepest
        level).  ``0`` demotes every level.  Shallow levels keep the
        storage dtype, which bounds the demotion error by the (small) mass
        of the deep levels.
    accumulate:
        Accumulation dtype for products of a demoted plan: per-bucket gemms
        run at the plan dtype, but their results are summed into an
        accumulator of this dtype, so rounding does not compound across
        levels.
    refine:
        Run one step of iterative refinement after each direct solve on a
        demoted factorization: the residual is evaluated with the
        full-precision operator and a single correction solve is applied,
        restoring ~full-precision residuals while the factorization (and
        any Krylov matvecs) stay at the cheap dtype.
    factor:
        Dtype of the compiled :class:`~repro.core.factor_plan.FactorPlan`
        storage — the packed LU factors, pivot systems, and Schur-update
        bases the triangular-solve sweeps stream.  ``"float32"`` halves the
        bytes every solve touches; the factorization is *computed* at the
        working dtype and only the stored stacks are demoted, and the
        solution vector keeps accumulating at ``accumulate``.  Combine with
        ``refine=True`` to recover ~full-precision residuals.  ``None``
        keeps the factors at the matrix dtype.
    factor_min_level:
        Demote only factor storage of tree levels ``>= factor_min_level``
        (leaf diagonal factors count as the deepest level; a level's
        K/Y/V storage counts at its child level).  ``0`` demotes every
        level; deep levels hold the many small blocks where the traffic —
        and the representable mass — concentrates, so deep-only demotion
        bounds the error.
    """

    storage: Optional[str] = None
    plan: Optional[str] = None
    plan_min_level: int = 0
    accumulate: str = "float64"
    refine: bool = False
    factor: Optional[str] = None
    factor_min_level: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "storage", _as_dtype_name(self.storage, "storage"))
        object.__setattr__(self, "plan", _as_dtype_name(self.plan, "plan"))
        object.__setattr__(self, "factor", _as_dtype_name(self.factor, "factor"))
        acc = _as_dtype_name(self.accumulate, "accumulate")
        if acc is None:
            raise ValueError("accumulate dtype cannot be None")
        object.__setattr__(self, "accumulate", acc)
        for name in ("plan_min_level", "factor_min_level"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"{name} must be a non-negative int, got {value!r}"
                )
        if not isinstance(self.refine, bool):
            raise ValueError(f"refine must be a bool, got {self.refine!r}")

    # ------------------------------------------------------------------
    # dtype selection
    # ------------------------------------------------------------------
    def storage_dtype(self, natural: Any) -> np.dtype:
        """The dtype stored blocks/factors carry for a problem of dtype ``natural``."""
        return np.dtype(natural) if self.storage is None else np.dtype(self.storage)

    def _match_kind(self, target: np.dtype, data: np.dtype) -> np.dtype:
        """Carry a real plan dtype over to complex data (and vice versa)."""
        if data.kind == "c" and target.kind == "f":
            return np.dtype(_COMPLEX_OF[target.name])
        return target

    def plan_dtype(self, matrix_dtype: Any, level: int) -> np.dtype:
        """Apply-plan storage dtype for blocks whose row nodes live at ``level``.

        Leaf diagonal blocks should be queried at the tree's deepest level.
        """
        dt = np.dtype(matrix_dtype)
        if self.plan is None or level < self.plan_min_level:
            return dt
        return self._match_kind(np.dtype(self.plan), dt)

    def demotes_plan(self, matrix_dtype: Any) -> bool:
        """Does this policy shrink the apply plan below the matrix dtype?"""
        if self.plan is None:
            return False
        dt = np.dtype(matrix_dtype)
        return self._match_kind(np.dtype(self.plan), dt).itemsize < dt.itemsize

    def accumulate_dtype(self, matrix_dtype: Any) -> np.dtype:
        """Accumulator dtype for demoted-plan products over ``matrix_dtype`` data."""
        return self._match_kind(np.dtype(self.accumulate), np.dtype(matrix_dtype))

    def factor_dtype(self, matrix_dtype: Any, level: int) -> np.dtype:
        """Factor-plan storage dtype for factors stored at ``level``.

        Leaf diagonal factors should be queried at the tree's deepest
        level; a level's K/Y/V storage at its child level.
        """
        dt = np.dtype(matrix_dtype)
        if self.factor is None or level < self.factor_min_level:
            return dt
        return self._match_kind(np.dtype(self.factor), dt)

    def demotes_factor(self, matrix_dtype: Any) -> bool:
        """Does this policy shrink the factor plan below the matrix dtype?"""
        if self.factor is None:
            return False
        dt = np.dtype(matrix_dtype)
        return self._match_kind(np.dtype(self.factor), dt).itemsize < dt.itemsize


@dataclass(frozen=True)
class ExecutionContext:
    """One object owning array placement, dispatch, and precision.

    The context is the single seam threaded through construction
    (:func:`~repro.core.hodlr.build_hodlr`), factorization
    (:class:`~repro.core.solver.HODLRSolver` and both variants),
    application (:class:`~repro.core.apply_plan.ApplyPlan`), and the
    :mod:`repro.api` facade.

    >>> from repro.backends import ExecutionContext, PrecisionPolicy
    >>> ctx = ExecutionContext(backend="numpy",
    ...                        precision=PrecisionPolicy(plan="float32"))
    >>> ctx.backend.name
    'numpy'
    """

    backend: Union[str, ArrayBackend] = "numpy"
    policy: DispatchPolicy = field(default_factory=lambda: DEFAULT_POLICY)
    precision: PrecisionPolicy = field(default_factory=PrecisionPolicy)

    def __post_init__(self) -> None:
        if isinstance(self.backend, str):
            object.__setattr__(self, "backend", get_backend(self.backend))
        if self.policy is None:
            object.__setattr__(self, "policy", DEFAULT_POLICY)
        if not isinstance(self.policy, DispatchPolicy):
            raise TypeError(f"policy must be a DispatchPolicy, got {self.policy!r}")
        if not isinstance(self.precision, PrecisionPolicy):
            raise TypeError(
                f"precision must be a PrecisionPolicy, got {self.precision!r}"
            )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    @property
    def device_resident(self) -> bool:
        """Whether arrays live somewhere other than host NumPy memory."""
        return not isinstance(self.backend, NumpyBackend)

    def asarray(self, x: Any) -> Any:
        """Coerce to the context's array type (no transfer for native arrays)."""
        return self.backend.asarray(x)

    def to_device(self, x: Any) -> Any:
        """Explicit host -> device transfer (the facade-boundary entry point)."""
        return self.backend.from_host(x)

    def to_host(self, x: Any) -> np.ndarray:
        """Explicit device -> host transfer (the facade-boundary exit point)."""
        return self.backend.to_host(x)

    # ------------------------------------------------------------------
    # precision
    # ------------------------------------------------------------------
    def storage_dtype(self, natural: Any) -> np.dtype:
        return self.precision.storage_dtype(natural)

    # ------------------------------------------------------------------
    # immutability helper
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "ExecutionContext":
        """A copy with the given fields replaced (backend names re-resolve)."""
        return replace(self, **changes)


#: process-wide default: host NumPy, default bucketing, natural precision
DEFAULT_CONTEXT = ExecutionContext()
