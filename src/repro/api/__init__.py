"""repro.api — the unified, operator-centric public API.

One stable front door over the whole library:

* :func:`solve` / :func:`build_operator` — run any registered scenario (or
  any matrix-like input) under an immutable :class:`SolverConfig`;
* :class:`Problem` / :func:`register_problem` / :func:`get_problem` — the
  named problem registry (kernel matrices, RPY, Laplace/Helmholtz BIE, GP
  covariance, elliptic Schur complements ship built in);
* :class:`HODLROperator` — the HODLR factorization as a SciPy
  ``LinearOperator`` with lazy factorization, ``solve``, ``logdet``, and
  ``as_preconditioner()`` for Krylov methods;
* :func:`gmres_solve` / :func:`cg_solve` — Krylov drivers accepting HODLR
  operators and preconditioners directly, including fused ``(n, K)``
  block right-hand sides;
* :func:`solve_many` — fused multi-RHS direct solves (one compiled plan
  replay for a whole ``(n, K)`` block);
* :class:`OperatorCache` / :func:`enable_operator_cache` — a bounded
  process-wide LRU of factorized operators (see :mod:`repro.api.cache`);
* :func:`run_sweep` — parameter sweeps (one :func:`solve` per point) and
  solver-config sweeps that share one assembly (see :mod:`repro.api.sweep`).

>>> import repro
>>> from repro.api import CompressionConfig, SolverConfig
>>> cfg = SolverConfig(compression=CompressionConfig(tol=1e-8, method="rook"))
>>> result = repro.solve("gaussian_kernel", config=cfg, n=512)   # doctest: +SKIP
"""

from ..backends.context import ExecutionContext, PrecisionPolicy
from ..core.compression import COMPRESSION_METHODS, CompressionConfig, ConfigError
from .config import VARIANTS, SolverConfig
from .problem import (
    AssembledProblem,
    Problem,
    ProblemNotFoundError,
    available_problems,
    get_problem,
    register_problem,
    unregister_problem,
)
from .operator import HODLRInverseOperator, HODLROperator
from .krylov import IterationLog, as_preconditioner, cg_solve, gmres_solve
from .cache import (
    CacheStats,
    OperatorCache,
    cache_stats,
    clear_operator_cache,
    configure_operator_cache,
    disable_operator_cache,
    enable_operator_cache,
    operator_cache,
    operator_cache_enabled,
)
from . import problems  # noqa: F401  (registers the built-in problem adapters)
from .facade import (
    SolveResult,
    assemble,
    build_operator,
    solve,
    solve_many,
    update_operator,
)
from .sweep import SweepResult, SweepStep, run_sweep

__all__ = [
    "COMPRESSION_METHODS",
    "VARIANTS",
    "CompressionConfig",
    "ConfigError",
    "ExecutionContext",
    "PrecisionPolicy",
    "SolverConfig",
    "AssembledProblem",
    "Problem",
    "ProblemNotFoundError",
    "available_problems",
    "get_problem",
    "register_problem",
    "unregister_problem",
    "HODLRInverseOperator",
    "HODLROperator",
    "IterationLog",
    "as_preconditioner",
    "cg_solve",
    "gmres_solve",
    "SolveResult",
    "assemble",
    "build_operator",
    "solve",
    "solve_many",
    "update_operator",
    "CacheStats",
    "OperatorCache",
    "cache_stats",
    "clear_operator_cache",
    "configure_operator_cache",
    "disable_operator_cache",
    "enable_operator_cache",
    "operator_cache",
    "operator_cache_enabled",
    "SweepResult",
    "SweepStep",
    "run_sweep",
]
