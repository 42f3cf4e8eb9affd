"""The front door: ``repro.solve`` and ``repro.build_operator``.

One call covers every scenario and every solver configuration::

    import repro
    result = repro.solve("helmholtz_bie", config=cfg, n=4096, kappa=25.0)
    result = repro.solve(my_problem)              # any Problem instance
    result = repro.solve(hodlr_matrix, b)         # a prebuilt HODLRMatrix
    result = repro.solve(dense_array, b)          # a dense matrix

``problem`` may be:

* a registered problem name (see :func:`repro.available_problems`), with
  constructor parameters passed as keyword arguments;
* a :class:`~repro.api.problem.Problem` instance;
* an already-assembled :class:`~repro.api.problem.AssembledProblem`
  (assemble once, solve under many configs);
* a :class:`~repro.core.hodlr.HODLRMatrix`;
* a :class:`~repro.kernels.kernel_matrix.KernelMatrix`;
* a square dense ``numpy.ndarray`` (compressed on the fly).

:func:`build_operator` performs the same resolution but stops at the
:class:`~repro.api.operator.HODLROperator`, for workflows that need the
operator itself (Krylov preconditioning, log-determinants, repeated
solves) rather than one solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.cluster_tree import ClusterTree
from ..core.hodlr import HODLRMatrix, build_hodlr
from ..core.solver import SolveStats
from ..kernels.kernel_matrix import KernelMatrix
from .cache import (
    OperatorCache,
    operator_cache,
    operator_cache_enabled,
    problem_fingerprint,
)
from .config import ConfigError, SolverConfig
from .operator import HODLROperator
from .problem import AssembledProblem, Problem, get_problem
from .problems import _kernel_assembled

ProblemLike = Union[str, Problem, AssembledProblem, HODLRMatrix, KernelMatrix, np.ndarray]

#: the ``cache=`` argument of :func:`solve` / :func:`build_operator`:
#: ``None`` defers to the process-wide switch (see
#: :func:`repro.enable_operator_cache`), ``True``/``False`` force it per
#: call, an :class:`OperatorCache` supplies a private cache instance.
CacheLike = Union[None, bool, OperatorCache]


@dataclass
class SolveResult:
    """Everything :func:`solve` produced.

    Attributes
    ----------
    x:
        The solution (same leading shape as the right-hand side).
    operator:
        The factorized :class:`HODLROperator` — reusable for further
        solves, determinants, or as a Krylov preconditioner.
    problem:
        The :class:`AssembledProblem` that was solved (geometry and
        scenario data live in ``problem.metadata``).
    config:
        The :class:`SolverConfig` used.
    relative_residual:
        ``||b - A x|| / ||b||`` — by default against the HODLR matvec;
        against the exact operator when ``compute_residual="exact"`` was
        requested and the problem provides one; ``None`` when residual
        computation was disabled.
    """

    x: np.ndarray
    operator: HODLROperator
    problem: AssembledProblem
    config: SolverConfig
    relative_residual: Optional[float] = None
    #: per-column relative residuals — set by :func:`solve_many` (the scalar
    #: ``relative_residual`` is then their maximum)
    column_residuals: Optional[np.ndarray] = None

    @property
    def stats(self) -> SolveStats:
        """Timings/diagnostics of the underlying solver."""
        return self.operator.stats


def _coerce_config(
    config: Optional[Union[SolverConfig, Mapping]], problem: Any = None
) -> SolverConfig:
    if config is None:
        # a resolved problem may carry its own default (e.g. the BIE
        # problems default to proxy compression, complex-aware settings)
        default = getattr(problem, "default_config", None)
        return default if isinstance(default, SolverConfig) else SolverConfig()
    if isinstance(config, SolverConfig):
        return config
    if isinstance(config, Mapping):
        return SolverConfig.from_dict(config)
    raise ConfigError(f"config must be a SolverConfig, a dict, or None, got {config!r}")


def _resolve_problem(
    problem: ProblemLike,
    config: Optional[Any],
    problem_params: dict,
    tuning: Optional[str] = None,
    parallel: Optional[Any] = None,
    construction: Optional[str] = None,
) -> Tuple[Any, SolverConfig]:
    """Instantiate a named problem and settle the effective config.

    The problem is resolved *before* the config so that, when no config was
    passed, the problem's ``default_config`` (see
    :func:`repro.get_problem`) applies.  Explicit ``tuning=`` / ``parallel=``
    arguments override the config's own fields.
    """
    if isinstance(problem, str):
        problem = get_problem(problem, **problem_params)
    elif problem_params:
        raise TypeError(
            "problem parameters are only accepted together with a registered "
            f"problem name, got problem={type(problem).__name__} with "
            f"params {sorted(problem_params)}"
        )
    config = _coerce_config(config, problem)
    if tuning is not None and tuning != config.tuning:
        config = config.replace(tuning=tuning)
    if parallel is not None and parallel != config.parallel:
        config = config.replace(parallel=parallel)
    if construction is not None and construction != config.compression.construction:
        config = config.replace(
            compression=config.compression.replace(construction=construction)
        )
    return problem, config


def assemble(
    problem: ProblemLike,
    config: Optional[SolverConfig] = None,
    *,
    tuning: Optional[str] = None,
    **problem_params: Any,
) -> AssembledProblem:
    """Resolve any accepted ``problem`` spelling to an :class:`AssembledProblem`."""
    problem, config = _resolve_problem(problem, config, problem_params, tuning)
    comp = config.compression
    if isinstance(problem, AssembledProblem):
        return problem
    if isinstance(problem, HODLRMatrix):
        return AssembledProblem(name="hodlr", hodlr=problem)
    if isinstance(problem, KernelMatrix):
        return _kernel_assembled(
            "kernel_matrix", problem, config, rhs=None, reorder=True, metadata={}
        )
    if isinstance(problem, np.ndarray):
        A = problem
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"dense input must be a square 2-D array, got shape {A.shape}")
        if comp.method == "proxy":
            raise ConfigError("method='proxy' needs a BIE operator, not a dense matrix")
        tree = ClusterTree.balanced(A.shape[0], leaf_size=comp.leaf_size)
        if comp.construction == "peeling":
            # matvec-only construction: probe the operator instead of reading
            # entries (exercises the same path a matrix-free source would)
            source: Any = SimpleNamespace(
                matvec=lambda x, _A=A: _A @ x,
                rmatvec=lambda x, _A=A: _A.conj().T @ x,
                dtype=A.dtype,
            )
        else:
            source = A
        hodlr = build_hodlr(
            source, tree, config=comp.core_config(), context=config.construction_context()
        )
        return AssembledProblem(
            name="dense", hodlr=hodlr, operator=lambda x, _A=A: _A @ x
        )
    if isinstance(problem, Problem):
        return problem.assemble(config)
    raise TypeError(
        f"cannot interpret {type(problem).__name__!r} as a problem: expected a "
        "registered name, a Problem, an AssembledProblem, an HODLRMatrix, a "
        "KernelMatrix, or a square ndarray"
    )


def _resolve_cache(cache: CacheLike) -> Optional[OperatorCache]:
    """Settle the effective :class:`OperatorCache` of one facade call."""
    if cache is None:
        return operator_cache() if operator_cache_enabled() else None
    if cache is True:
        return operator_cache()
    if cache is False:
        return None
    if isinstance(cache, OperatorCache):
        return cache
    raise TypeError(
        f"cache must be None, a bool, or an OperatorCache, got {type(cache).__name__}"
    )


def _cached_build(
    problem: ProblemLike,
    config: Optional[Union[SolverConfig, Mapping]],
    problem_params: dict,
    tuning: Optional[str],
    cache: CacheLike,
    parallel: Optional[Any] = None,
    construction: Optional[str] = None,
) -> Tuple[AssembledProblem, HODLROperator, SolverConfig]:
    """Shared assemble+factorize path of :func:`solve`/:func:`build_operator`.

    Consults the operator cache when one is in effect *and* the problem
    spelling is fingerprintable (see
    :func:`repro.api.cache.problem_fingerprint`); a hit skips assembly and
    factorization entirely and returns the cached
    ``(AssembledProblem, HODLROperator)`` pair.
    """
    cache_obj = _resolve_cache(cache)
    fp = (
        problem_fingerprint(problem, problem_params)
        if cache_obj is not None
        else None
    )
    problem, cfg = _resolve_problem(
        problem, config, problem_params, tuning, parallel, construction
    )
    if fp is not None:
        cached = cache_obj.get(fp, cfg)
        if cached is not None:
            assembled, operator = cached
            return assembled, operator, cfg
    assembled = assemble(problem, cfg)
    operator = _operator_for(assembled, cfg)
    if fp is not None:
        cache_obj.put(fp, cfg, (assembled, operator))
    return assembled, operator, cfg


def _operator_for(assembled: AssembledProblem, config: SolverConfig) -> HODLROperator:
    """The problem's shared operator if it matches ``config``, else a new one."""
    shared = assembled.solver_operator
    if (
        isinstance(shared, HODLROperator)
        and shared.config == config
        and (
            (shared.perm is None and assembled.perm is None)
            or (
                shared.perm is not None
                and assembled.perm is not None
                and np.array_equal(shared.perm, assembled.perm)
            )
        )
    ):
        return shared
    return HODLROperator(assembled.hodlr, config, perm=assembled.perm)


def build_operator(
    problem: ProblemLike,
    config: Optional[SolverConfig] = None,
    *,
    tuning: Optional[str] = None,
    cache: CacheLike = None,
    parallel: Optional[Any] = None,
    construction: Optional[str] = None,
    **problem_params: Any,
) -> HODLROperator:
    """Assemble ``problem`` and wrap it as a lazy :class:`HODLROperator`.

    The operator acts in the *caller's* ordering: any internal cluster-tree
    permutation of the problem is carried on the operator and conjugated
    away on every matvec/solve.  ``tuning="auto"`` derives the dispatch
    (and budgeted precision) policies from the host's calibrated machine
    profile — see :mod:`repro.backends.calibration`.

    ``cache=True`` (or a process-wide :func:`repro.enable_operator_cache`)
    reuses an already-built operator for an identical
    ``(problem, config)`` request — see :mod:`repro.api.cache`.  Cached
    operators are shared objects: their :class:`SolveStats` accumulate
    across calls.

    ``parallel=`` overrides the config's thread-pool execution spec
    (``"off"``, ``"auto"``, a worker count, or a
    :class:`~repro.backends.parallel.ParallelPolicy`) — see
    :mod:`repro.backends.parallel`.

    ``construction=`` overrides the compression config's construction
    schedule: ``"batched"`` (default) or ``"peeling"`` —
    the latter builds the HODLR approximation from matvec probes alone
    (a dense problem is wrapped as a matvec source; cap the sampled rank
    with ``config.compression.max_rank``).
    """
    _, operator, _ = _cached_build(
        problem, config, problem_params, tuning, cache, parallel, construction
    )
    return operator


def update_operator(
    operator: HODLROperator,
    *,
    source: Any = None,
    points_added: Optional[np.ndarray] = None,
    points_removed: Optional[np.ndarray] = None,
    points_moved: Optional[np.ndarray] = None,
    diag_shift: Any = None,
    low_rank: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
) -> HODLROperator:
    """Stream an incremental change into an existing operator.

    Thin facade over :meth:`HODLROperator.update`: the operator's HODLR
    matrix absorbs the change incrementally (only the O(log N) dirty
    blocks are recompressed), then a held factorization is refactorized
    and a compiled apply plan recompiled, both eagerly and in place.
    ``operator.last_update_info`` reports the path (``"rebuild"`` /
    ``"deferred"``) and the dirty-block accounting.

    The operator is mutated **in place** (it keeps acting in the caller's
    ordering; inserted points take the appended caller indices
    ``n, ..., n+k-1``), and any process-wide operator-cache entries
    referencing it are invalidated — a cached ``(problem, config)`` key
    must not resolve to an operator that no longer matches the problem.
    """
    operator.update(
        source=source,
        points_added=points_added,
        points_removed=points_removed,
        points_moved=points_moved,
        diag_shift=diag_shift,
        low_rank=low_rank,
        tol=tol,
        max_rank=max_rank,
    )
    # entries persist while caching is disabled, so invalidate unconditionally
    operator_cache().invalidate(operator=operator)
    return operator


def solve(
    problem: ProblemLike,
    b: Optional[np.ndarray] = None,
    config: Optional[SolverConfig] = None,
    *,
    compute_residual: Union[bool, str] = True,
    tuning: Optional[str] = None,
    cache: CacheLike = None,
    parallel: Optional[Any] = None,
    **problem_params: Any,
) -> SolveResult:
    """Assemble, factorize, and solve ``problem`` under ``config``.

    ``b`` defaults to the problem's natural right-hand side (boundary data,
    training targets, ...) when it provides one.  Both ``b`` and the
    returned solution are in the *caller's* ordering; any internal
    cluster-tree permutation (``AssembledProblem.perm``) is applied on the
    way in and inverted on the way out.  ``b`` may also be an ``(n, K)``
    block — all ``K`` right-hand sides then ride **one** compiled
    :class:`~repro.core.factor_plan.SolvePlan` replay, so the kernel-launch
    count is independent of ``K`` (see :func:`solve_many`, which adds
    per-column residual reporting).

    ``compute_residual`` controls the reported relative residual:
    ``True`` (default) measures against the HODLR matvec — an O(N log N)
    check of the factorization; ``"exact"`` measures against the problem's
    exact operator — an O(N^2) end-to-end check including the compression
    error (raises if the problem provides no exact operator); ``False``
    skips it.

    ``tuning="auto"`` replaces the hard-coded dispatch crossovers with the
    host's calibrated machine profile (and, when the config carries a
    ``residual_budget``, derives the precision demotion depth from it);
    it is shorthand for ``config.replace(tuning="auto")``.

    ``cache=True`` (or a process-wide :func:`repro.enable_operator_cache`)
    reuses a cached factorized operator for an identical
    ``(problem, config)`` request, skipping assembly and factorization —
    see :mod:`repro.api.cache`.  For many related systems that differ only
    in one kernel parameter, see :func:`repro.run_sweep`, which recycles
    construction across the parameter axis instead.

    ``parallel=`` overrides the config's thread-pool execution spec
    (``"off"`` pins today's serial schedule; ``"auto"`` / a worker count /
    a :class:`~repro.backends.parallel.ParallelPolicy` enable bucket- and
    pipeline-level parallelism) — shorthand for
    ``config.replace(parallel=...)``.

    Returns a :class:`SolveResult`; the factorized operator inside it acts
    in the caller's ordering too and can be reused for more solves without
    re-assembly.
    """
    if compute_residual not in (True, False, "exact"):
        raise ValueError(
            f"compute_residual must be True, False, or 'exact', got {compute_residual!r}"
        )
    assembled, operator, config = _cached_build(
        problem, config, problem_params, tuning, cache, parallel
    )
    if compute_residual == "exact" and assembled.operator is None:
        raise ValueError(
            f"problem {assembled.name!r} provides no exact operator; "
            "compute_residual='exact' is unavailable (use True for the HODLR residual)"
        )
    if b is None:
        b = assembled.rhs
        if b is None:
            raise ValueError(
                f"problem {assembled.name!r} provides no natural right-hand side; "
                "pass b explicitly"
            )
    b = np.asarray(b)
    x = operator.solve(b)
    relres: Optional[float] = None
    if compute_residual:
        if compute_residual == "exact":
            r = b - np.asarray(assembled.operator(x))
        else:
            # HODLR residual via the perm-aware operator: no O(N^2) work
            r = _residual(b, operator @ x)
        denom = float(np.linalg.norm(b))
        relres = float(np.linalg.norm(r)) / denom if denom > 0 else float(np.linalg.norm(r))
        operator.solver.stats.relative_residual = relres
    return SolveResult(
        x=x,
        operator=operator,
        problem=assembled,
        config=config,
        relative_residual=relres,
    )


def _residual(b: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """``b - ax``, written into ``ax`` (a fresh product the caller owns)
    when its dtype holds the difference, saving one ``(n, K)`` temporary."""
    if ax.dtype == np.result_type(b.dtype, ax.dtype):
        return np.subtract(b, ax, out=ax)
    return b - ax


def solve_many(
    problem: ProblemLike,
    B: np.ndarray,
    config: Optional[SolverConfig] = None,
    *,
    compute_residual: Union[bool, str] = True,
    tuning: Optional[str] = None,
    cache: CacheLike = None,
    parallel: Optional[Any] = None,
    **problem_params: Any,
) -> SolveResult:
    """Solve ``problem`` against a block of ``K`` right-hand sides at once.

    ``B`` must be an ``(n, K)`` array.  All ``K`` columns are driven
    through **one** replay of the compiled
    :class:`~repro.core.factor_plan.SolvePlan` — every batched triangular
    solve and Schur gemm operates on the full ``(rows, K)`` panel — so the
    kernel-launch count equals ``operator.solver.plan.launches_per_solve``
    regardless of ``K``, and the per-RHS cost falls as the launches
    amortize (this is the paper's batched-execution win applied across
    right-hand sides instead of across tree nodes).

    The returned :class:`SolveResult` holds the ``(n, K)`` solution block
    in ``x``; ``column_residuals`` carries the per-column relative
    residuals ``||b_j - A x_j|| / ||b_j||`` and ``relative_residual``
    their maximum.  ``compute_residual`` has the same three settings as
    :func:`solve`.  Stats: the fused call records ``num_solves += K`` with
    the elapsed time amortized per right-hand side (see
    :class:`~repro.core.solver.SolveStats`).

    For *iterative* block solving (HODLR operator as preconditioner), see
    :func:`repro.gmres_solve` / :func:`repro.cg_solve`, which accept the
    same ``(n, K)`` blocks and advance all unconverged columns through a
    single fused matvec per iteration.
    """
    B = np.asarray(B)
    if B.ndim != 2:
        raise ValueError(
            f"solve_many expects an (n, K) right-hand-side block, got ndim={B.ndim} "
            "(use repro.solve for a single vector)"
        )
    if compute_residual not in (True, False, "exact"):
        raise ValueError(
            f"compute_residual must be True, False, or 'exact', got {compute_residual!r}"
        )
    result = solve(
        problem,
        B,
        config,
        compute_residual=False,
        tuning=tuning,
        cache=cache,
        parallel=parallel,
        **problem_params,
    )
    if not compute_residual:
        return result
    assembled, operator, x = result.problem, result.operator, result.x
    if compute_residual == "exact":
        if assembled.operator is None:
            raise ValueError(
                f"problem {assembled.name!r} provides no exact operator; "
                "compute_residual='exact' is unavailable (use True for the HODLR residual)"
            )
        R = B - np.asarray(assembled.operator(x))
    else:
        R = _residual(B, operator @ x)
    norms = np.linalg.norm(B, axis=0)
    resids = np.linalg.norm(R, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    column_residuals = resids / safe
    relres = float(column_residuals.max()) if column_residuals.size else 0.0
    operator.solver.stats.relative_residual = relres
    result.column_residuals = column_residuals
    result.relative_residual = relres
    return result
