"""Immutable, serialisable configuration objects for the :mod:`repro.api` facade.

Two frozen dataclasses describe everything a solve needs beyond the problem
itself:

:class:`~repro.core.compression.CompressionConfig`
    How the HODLR approximation is built — tolerance, compression method
    (``rook`` / ``svd`` / ``proxy``), rank cap, leaf size, the
    proxy-circle resolution for BIE operators, and the oversampling and
    seed of the matvec-only peeling construction.  It lives in
    :mod:`repro.core.compression` (re-exported here), so
    ``repro.CompressionConfig``, ``repro.api.CompressionConfig`` and
    ``repro.core.CompressionConfig`` are one class, consumed directly by
    :func:`repro.core.build_hodlr` and :func:`repro.bie.build_hodlr_proxy`.

:class:`SolverConfig`
    How the factorization runs — variant (``recursive`` / ``batched``),
    array backend, dispatch policy, storage dtype, and
    pivoting — plus a nested :class:`CompressionConfig`.

Both validate on construction (raising :class:`ConfigError`), are hashable
(usable as sweep keys), and round-trip losslessly through
``to_dict``/``from_dict`` so a parameter sweep can be serialised to JSON
and replayed bit-for-bit:

>>> from repro.api import SolverConfig
>>> cfg = SolverConfig(variant="recursive", dtype="float32")
>>> SolverConfig.from_dict(cfg.to_dict()) == cfg
True
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

import numpy as np

from ..backends.context import ExecutionContext, PrecisionPolicy
from ..backends.dispatch import DispatchPolicy
from ..core.compression import CompressionConfig, ConfigError, _check
from ..core.solver import available_solver_variants

#: built-in factorization variants (mirrors ``repro.core.solver._VARIANTS``);
#: registered baseline variants (``dense_lu``, ``block_sparse``,
#: ``hodlrlib_cpu``, ...) are additionally accepted — see
#: :func:`repro.core.solver.register_solver_variant`
VARIANTS = ("recursive", "batched")


def _normalize_dtype(dtype: Any) -> Optional[str]:
    """Canonical dtype name (``"float32"``, ``"complex128"``, ...) or ``None``."""
    if dtype is None:
        return None
    try:
        dt = np.dtype(dtype)
    except TypeError as exc:
        raise ConfigError(f"dtype {dtype!r} is not understood by numpy") from exc
    _check(dt.kind in "fc", f"dtype must be floating or complex, got {dt.name!r}")
    return dt.name


@dataclass(frozen=True)
class SolverConfig:
    """Immutable description of one solver setup.

    Parameters
    ----------
    variant:
        ``"recursive"`` (the per-node reference) or ``"batched"`` (default;
        the compiled plan).
    backend:
        Name of a registered :class:`~repro.backends.dispatch.ArrayBackend`
        (``"numpy"``, ``"cupy"``, or anything added via
        :func:`repro.register_backend`).  Stored by name so configs stay
        serialisable; the instance is resolved at factorization time.
    dispatch_policy:
        Shape-bucketing policy for construction (``None`` = the default
        policy).  Accepts a :class:`DispatchPolicy` or its dict form; a dict
        naming a removed field (``min_bucket``, ``pad_buckets``, ...)
        raises :class:`ConfigError` naming it.  ``LOOP_POLICY`` selects the
        per-block reference construction; factorization and apply compile
        the same plans under every policy.
    dtype:
        Storage/factorization dtype override as a dtype name (``"float32"``
        reproduces the paper's single-precision runs); ``None`` keeps the
        problem's natural dtype.  NumPy dtype objects are normalised to
        their canonical name.
    pivot:
        Partial pivoting in the reduced ``K`` systems (``batched``).
    compression:
        Nested :class:`CompressionConfig` (accepts a dict form too).
    precision:
        Nested :class:`~repro.backends.context.PrecisionPolicy` (accepts a
        dict form too): apply-plan dtype demotion (``plan``/
        ``plan_min_level``), factor-plan storage demotion (``factor``/
        ``factor_min_level`` — the packed LU/K/Y stacks the compiled
        :class:`~repro.core.factor_plan.SolvePlan` streams), accumulation
        dtype, and iterative refinement for direct solves.  All fields
        round-trip through ``to_dict``/``from_dict``.  ``precision.storage``
        defaults to ``dtype`` when unset, so the two spellings agree.
    """

    variant: str = "batched"
    backend: str = "numpy"
    dispatch_policy: Optional[DispatchPolicy] = None
    dtype: Optional[str] = None
    pivot: bool = True
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    precision: PrecisionPolicy = field(default_factory=PrecisionPolicy)

    def __post_init__(self) -> None:
        _check(
            self.variant in VARIANTS or self.variant in available_solver_variants(),
            f"variant must be one of {tuple(available_solver_variants())}, "
            f"got {self.variant!r}",
        )
        _check(
            isinstance(self.backend, str) and bool(self.backend),
            f"backend must be a registered backend name, got {self.backend!r}",
        )
        if isinstance(self.dispatch_policy, Mapping):
            try:
                object.__setattr__(
                    self, "dispatch_policy", DispatchPolicy(**self.dispatch_policy)
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"dispatch_policy: {exc}") from exc
        _check(
            self.dispatch_policy is None or isinstance(self.dispatch_policy, DispatchPolicy),
            f"dispatch_policy must be a DispatchPolicy or None, got {self.dispatch_policy!r}",
        )
        object.__setattr__(self, "dtype", _normalize_dtype(self.dtype))
        _check(isinstance(self.pivot, bool), f"pivot must be a bool, got {self.pivot!r}")
        if isinstance(self.compression, Mapping):
            object.__setattr__(
                self, "compression", CompressionConfig.from_dict(self.compression)
            )
        _check(
            isinstance(self.compression, CompressionConfig),
            f"compression must be a CompressionConfig, got {self.compression!r}",
        )
        if isinstance(self.precision, Mapping):
            try:
                object.__setattr__(self, "precision", PrecisionPolicy(**self.precision))
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from exc
        _check(
            isinstance(self.precision, PrecisionPolicy),
            f"precision must be a PrecisionPolicy, got {self.precision!r}",
        )
        _check(
            self.precision.storage is None
            or self.dtype is None
            or self.precision.storage == self.dtype,
            f"dtype={self.dtype!r} conflicts with precision.storage="
            f"{self.precision.storage!r}",
        )

    @property
    def numpy_dtype(self) -> Optional[np.dtype]:
        """The storage dtype override as a ``np.dtype`` (or ``None``)."""
        name = self.dtype if self.dtype is not None else self.precision.storage
        return None if name is None else np.dtype(name)

    def execution_context(self) -> ExecutionContext:
        """The :class:`~repro.backends.context.ExecutionContext` this config
        describes: backend resolved by name, dispatch policy, and the
        precision policy (with ``dtype`` folded into ``precision.storage``).

        This is the object the facade threads through construction,
        factorization, and apply.  Resolution happens here — a missing
        backend dependency (e.g. ``backend="cupy"`` without cupy) raises at
        context-creation time.
        """
        precision = self.precision
        if precision.storage is None and self.dtype is not None:
            precision = replace(precision, storage=self.dtype)
        return ExecutionContext(
            backend=self.backend,
            policy=self.dispatch_policy
            if self.dispatch_policy is not None
            else DispatchPolicy(),
            precision=precision,
        )

    def construction_context(self) -> ExecutionContext:
        """The context the facade hands to HODLR *construction*.

        Identical to :meth:`execution_context` except that the storage
        dtype override is cleared: the approximation is built at the
        problem's natural dtype and the cast happens at factorization time.
        This keeps a full-precision base operator around, which is what
        iterative refinement (``precision.refine``) computes residuals
        against, and preserves the sticky dtype-promotion semantics of
        :class:`~repro.api.operator.HODLROperator`.
        """
        ctx = self.execution_context()
        if ctx.precision.storage is None:
            return ctx
        return ctx.replace(precision=replace(ctx.precision, storage=None))

    # -- immutability helpers ------------------------------------------------
    def replace(self, **changes: Any) -> "SolverConfig":
        """A copy with the given fields replaced (validation re-runs).

        Compression fields can be replaced directly for convenience:
        ``cfg.replace(tol=1e-4)`` is ``cfg.replace(compression=cfg.compression.replace(tol=1e-4))``.
        """
        solver_fields = {f.name for f in fields(self)}
        compression_fields = {f.name for f in fields(CompressionConfig)}
        nested = {k: v for k, v in changes.items() if k in compression_fields - solver_fields}
        direct = {k: v for k, v in changes.items() if k not in nested}
        unknown = sorted(set(direct) - solver_fields)
        _check(not unknown, f"unknown SolverConfig fields: {unknown}")
        if nested:
            _check(
                "compression" not in direct,
                f"cannot combine compression= with compression fields {sorted(nested)}",
            )
            direct["compression"] = self.compression.replace(**nested)
        return replace(self, **direct)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict; inverse of :meth:`from_dict`."""
        return {
            "variant": self.variant,
            "backend": self.backend,
            "dispatch_policy": None
            if self.dispatch_policy is None
            else asdict(self.dispatch_policy),
            "dtype": self.dtype,
            "pivot": self.pivot,
            "compression": self.compression.to_dict(),
            "precision": asdict(self.precision),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverConfig":
        """Rebuild from :meth:`to_dict` output (unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        _check(not unknown, f"unknown SolverConfig keys: {unknown}")
        return cls(**dict(data))
