"""Immutable, serialisable configuration objects for the :mod:`repro.api` facade.

Two frozen dataclasses describe everything a solve needs beyond the problem
itself:

:class:`CompressionConfig`
    How the HODLR approximation is built — tolerance, compression method
    (``svd`` / ``rook`` / ``randomized`` / ``proxy``), rank cap, leaf size,
    and the proxy-circle resolution for BIE operators.

:class:`SolverConfig`
    How the factorization runs — variant (``recursive`` / ``batched``),
    array backend, dispatch policy, storage dtype, and
    pivoting — plus a nested :class:`CompressionConfig`.

Both validate on construction, are hashable (usable as sweep keys), and
round-trip losslessly through ``to_dict``/``from_dict`` so a parameter
sweep can be serialised to JSON and replayed bit-for-bit:

>>> from repro.api import SolverConfig
>>> cfg = SolverConfig(variant="recursive", dtype="float32")
>>> SolverConfig.from_dict(cfg.to_dict()) == cfg
True

Note the distinction from :class:`repro.core.compression.CompressionConfig`:
the core object is the low-level knob set of :func:`repro.core.build_hodlr`
(it can carry a live random generator and is therefore not serialisable);
the API object here is the stable, immutable front-door configuration that
*converts* to the core object via :meth:`CompressionConfig.core_config`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

import numpy as np

from ..backends.context import ExecutionContext, PrecisionPolicy
from ..backends.dispatch import DispatchPolicy
from ..backends.parallel import (
    ParallelPolicy,
    ParallelPolicyError,
    parallel_to_jsonable,
    resolve_parallel,
)
from ..bie.proxy import ProxyCompressionConfig
from ..core.compression import CompressionConfig as CoreCompressionConfig
from ..core.solver import available_solver_variants

#: compression methods the facade accepts (``proxy`` needs a BIE-style operator)
COMPRESSION_METHODS = ("svd", "rook", "randomized", "proxy")

#: built-in factorization variants (mirrors ``repro.core.solver._VARIANTS``);
#: registered baseline variants (``dense_lu``, ``block_sparse``,
#: ``hodlrlib_cpu``, ...) are additionally accepted — see
#: :func:`repro.core.solver.register_solver_variant`
VARIANTS = ("recursive", "batched")

#: HODLR construction schedules: level-major batched, or matvec-only
#: randomized peeling (no entry evaluation — see
#: :func:`repro.core.peeling.peel_hodlr`).  The per-block baseline is the
#: batched schedule under ``dispatch_policy=LOOP_POLICY``.
CONSTRUCTION_MODES = ("batched", "peeling")

#: policy tuning modes: ``"default"`` uses the hard-coded crossover
#: constants; ``"auto"`` derives them from the host's calibrated
#: :class:`~repro.backends.calibration.MachineProfile`
TUNING_MODES = ("default", "auto")


class ConfigError(ValueError):
    """Raised when a configuration value fails validation."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CompressionConfig:
    """Immutable options for building the HODLR approximation.

    Parameters
    ----------
    tol:
        Relative tolerance of the low-rank approximation (the paper uses
        ~1e-12/1e-8 for the direct solvers and ~1e-4 for preconditioners).
    method:
        ``"svd"``, ``"rook"``, ``"randomized"``, or ``"proxy"`` (the latter
        only for operators implementing the proxy-surface protocol).
    max_rank:
        Hard cap on off-diagonal ranks (``None`` = uncapped).
    leaf_size:
        Cluster-tree leaf size.
    oversampling:
        Extra samples for the randomized range finder.
    n_proxy:
        Points per proxy circle (``method="proxy"`` only).
    construction:
        ``"batched"`` (default) builds the HODLR approximation level-major
        through the shape-bucketed batched kernels (one gathered entry
        evaluation and one batched compression per tree level; ``"rook"``
        advances all blocks of a level in lockstep, one gathered
        evaluation per cross step); ``"peeling"`` builds from matvec
        probes alone.  The per-block baseline the benchmarks measure
        against is ``"batched"`` under ``dispatch_policy=LOOP_POLICY``.
    """

    tol: float = 1e-10
    method: str = "rook"
    max_rank: Optional[int] = None
    leaf_size: int = 64
    oversampling: int = 10
    n_proxy: int = 64
    construction: str = "batched"

    def __post_init__(self) -> None:
        _check(
            isinstance(self.tol, (int, float)) and 0.0 < float(self.tol) < 1.0,
            f"tol must be in (0, 1), got {self.tol!r}",
        )
        _check(
            self.method in COMPRESSION_METHODS,
            f"method must be one of {COMPRESSION_METHODS}, got {self.method!r}",
        )
        _check(
            self.max_rank is None or (isinstance(self.max_rank, int) and self.max_rank >= 1),
            f"max_rank must be None or a positive int, got {self.max_rank!r}",
        )
        _check(
            isinstance(self.leaf_size, int) and self.leaf_size >= 2,
            f"leaf_size must be an int >= 2, got {self.leaf_size!r}",
        )
        _check(
            isinstance(self.oversampling, int) and self.oversampling >= 0,
            f"oversampling must be a non-negative int, got {self.oversampling!r}",
        )
        _check(
            isinstance(self.n_proxy, int) and self.n_proxy >= 4,
            f"n_proxy must be an int >= 4, got {self.n_proxy!r}",
        )
        _check(
            self.construction in CONSTRUCTION_MODES,
            f"construction must be one of {CONSTRUCTION_MODES}, got {self.construction!r}",
        )

    # -- conversion to the low-level configs ---------------------------------
    def core_config(self, rng: Optional[np.random.Generator] = None) -> CoreCompressionConfig:
        """The :func:`repro.core.build_hodlr` options equivalent to this config.

        ``method="proxy"`` maps to ``"rook"`` here because proxy compression
        is not an entrywise method; use :meth:`proxy_config` for it.
        """
        return CoreCompressionConfig(
            tol=float(self.tol),
            max_rank=self.max_rank,
            method=self.method if self.method != "proxy" else "rook",
            oversampling=self.oversampling,
            rng=rng,
            construction=self.construction,
        )

    def proxy_config(self) -> ProxyCompressionConfig:
        """The :func:`repro.bie.proxy.build_hodlr_proxy` options for this config."""
        return ProxyCompressionConfig(
            tol=float(self.tol), n_proxy=self.n_proxy, max_rank=self.max_rank
        )

    # -- immutability helpers ------------------------------------------------
    def replace(self, **changes: Any) -> "CompressionConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompressionConfig":
        """Rebuild from :meth:`to_dict` output (unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        _check(not unknown, f"unknown CompressionConfig keys: {unknown}")
        return cls(**dict(data))


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
        Shape-bucketing policy for the batched primitives (``None`` = the
        default policy).  Accepts a :class:`DispatchPolicy` or its dict form.
        ``LOOP_POLICY`` selects the per-block reference schedule for
        construction, factorization and apply.
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
    tuning:
        ``"default"`` keeps the hard-coded dispatch crossovers;
        ``"auto"`` derives the dispatch policy (and, under a
        ``residual_budget``, the precision demotion depth) from the host's
        calibrated :class:`~repro.backends.calibration.MachineProfile`.
        An explicit ``dispatch_policy`` always wins over the derived one.
    residual_budget:
        Largest acceptable relative residual for ``tuning="auto"``'s
        precision derivation (``None`` = no derived demotion).  Ignored
        when ``precision`` already demands an explicit plan/factor dtype.
    parallel:
        Thread-pool execution spec: ``"off"`` pins serial execution,
        ``"auto"`` derives the worker count from the calibrated machine
        profile, an ``int >= 2`` forces that many workers, and a
        :class:`~repro.backends.parallel.ParallelPolicy` (or its dict form)
        gives full control.  ``None`` (default) defers to the
        ``REPRO_PARALLEL`` environment variable at context-creation time
        (unset = serial).  The spec is stored as given — not resolved —
        so configs serialise losslessly and independently of this host.
    """

    variant: str = "batched"
    backend: str = "numpy"
    dispatch_policy: Optional[DispatchPolicy] = None
    dtype: Optional[str] = None
    pivot: bool = True
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    precision: PrecisionPolicy = field(default_factory=PrecisionPolicy)
    tuning: str = "default"
    residual_budget: Optional[float] = None
    parallel: Any = None

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
            object.__setattr__(self, "dispatch_policy", DispatchPolicy(**self.dispatch_policy))
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
        _check(
            self.tuning in TUNING_MODES,
            f"tuning must be one of {TUNING_MODES}, got {self.tuning!r}",
        )
        _check(
            self.residual_budget is None
            or (
                isinstance(self.residual_budget, (int, float))
                and float(self.residual_budget) > 0.0
            ),
            f"residual_budget must be None or a positive number, "
            f"got {self.residual_budget!r}",
        )
        if self.residual_budget is not None:
            object.__setattr__(self, "residual_budget", float(self.residual_budget))
        # canonicalise the dict form to the frozen policy (hashability);
        # every other spelling is stored as given and validated by a dry
        # resolution — ``None`` stays None so the env deferral survives
        # serialisation
        if isinstance(self.parallel, Mapping):
            try:
                object.__setattr__(
                    self, "parallel", ParallelPolicy(**dict(self.parallel))
                )
            except (TypeError, ParallelPolicyError) as exc:
                raise ConfigError(str(exc)) from exc
        _check(
            self.parallel is None
            or isinstance(self.parallel, (str, ParallelPolicy))
            or (isinstance(self.parallel, int) and not isinstance(self.parallel, bool)),
            f"parallel must be None, 'off', 'auto', an int, a ParallelPolicy, "
            f"or its dict form, got {self.parallel!r}",
        )
        if self.parallel is not None:
            try:
                resolve_parallel(self.parallel)
            except ParallelPolicyError as exc:
                raise ConfigError(str(exc)) from exc

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

        With ``tuning="auto"`` the dispatch policy is derived from the
        host's calibrated :class:`~repro.backends.calibration.MachineProfile`
        (unless an explicit ``dispatch_policy`` pins it) and, when a
        ``residual_budget`` is set, the precision demotion depth is chosen
        by the calibrated performance model.  The derivation here uses the
        generic balanced-tree level-mass model;
        :class:`~repro.api.operator.HODLROperator` re-derives with the
        built matrix's actual level mass.
        """
        ctx = self._untuned_context()
        if self.tuning == "auto":
            # imported lazily: first "auto" use may trigger (cached) host
            # calibration
            from ..backends.calibration import auto_tune_context

            ctx = auto_tune_context(
                ctx,
                residual_budget=self.residual_budget,
                tune_policy=self.dispatch_policy is None,
            )
        return ctx

    def _untuned_context(self) -> ExecutionContext:
        """The context exactly as configured, before any ``tuning="auto"``
        derivation.  :class:`~repro.api.operator.HODLROperator` starts from
        this and re-tunes with the built matrix's actual level mass."""
        precision = self.precision
        if precision.storage is None and self.dtype is not None:
            precision = replace(precision, storage=self.dtype)
        return ExecutionContext(
            backend=self.backend,
            policy=self.dispatch_policy
            if self.dispatch_policy is not None
            else DispatchPolicy(),
            precision=precision,
            parallel=self.parallel,
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
            "tuning": self.tuning,
            "residual_budget": self.residual_budget,
            "parallel": parallel_to_jsonable(self.parallel),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverConfig":
        """Rebuild from :meth:`to_dict` output (unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        _check(not unknown, f"unknown SolverConfig keys: {unknown}")
        return cls(**dict(data))
