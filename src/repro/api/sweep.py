"""Parameter and solver-config sweeps over one problem.

A frequency sweep (Helmholtz ``kappa``), a length-scale sweep (GP
hyper-parameter search) or a regularisation path solves one problem
family at a sequence of points.  :func:`run_sweep` runs the sequence and
returns one :class:`SweepStep` (a trace row) per point.

Two sweep axes
--------------
``configs`` may be a sequence of

* **parameter mappings** (``{"kappa": 30.0}``) — each step is exactly
  ``repro.solve(dataclasses.replace(problem, **overrides), rhs, config)``:
  an independent assembly, factorization and solve.  A mapping may name
  any field of the problem dataclass, geometry included (``n``, ``seed``).
  Point insertions and removals are not sweep steps; they go through
  :func:`repro.update_operator`.
* :class:`~repro.api.config.SolverConfig` objects — a solver-config sweep
  over a *fixed* problem: assembly is shared between configs whose
  construction settings agree (only factorization re-runs), and re-done
  only when they differ.

Parameter steps share nothing.  Batched rook construction evaluates
``O((m + n) r)`` entries per block, so recycling an anchor step's
skeletons (a ``C M⁺ R`` cross over cached distances) across the parameter
axis measured no faster than independent solves.

Example
-------
>>> import repro
>>> res = repro.run_sweep(                                # doctest: +SKIP
...     "helmholtz_kernel",
...     [{"kappa": k} for k in [10, 12, 14, 16]],
...     n=4096,
... )
>>> [row["relative_residual"] for row in res.trace()]     # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
import time  # repro-lint: file-ignore[RL004] -- per-step sweep trace rows report wall-clock timings by design, like SolveStats
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..core.hodlr import HODLRMatrix
from ..core.solver import SolveStats
from .config import SolverConfig
from .operator import HODLROperator
from .problem import AssembledProblem

__all__ = ["SweepResult", "SweepStep", "run_sweep"]


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------
@dataclass
class SweepStep:
    """One solved point of a sweep (a per-step trace row)."""

    #: the step's parameter overrides (parameter sweep) or config label
    params: Dict[str, Any]
    x: np.ndarray
    relative_residual: Optional[float]
    #: True when a config step reused an earlier step's assembly
    recycled: bool
    #: wall-clock breakdown: rebuild / factorize / solve / total seconds
    #: (``rebuild`` is a parameter step's time before its solve, and the
    #: assembly a config step built, 0 when it reused one)
    seconds: Dict[str, float]
    max_rank: int
    stats: Optional[SolveStats] = field(default=None, repr=False)
    operator: Optional[HODLROperator] = field(default=None, repr=False)

    def trace_row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = dict(self.params)
        row.update(
            relative_residual=self.relative_residual,
            recycled=self.recycled,
            max_rank=self.max_rank,
        )
        row.update({f"{k}_seconds": v for k, v in self.seconds.items()})
        return row


@dataclass
class SweepResult:
    """All steps of one :func:`run_sweep` call."""

    steps: List[SweepStep]

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int) -> SweepStep:
        return self.steps[i]

    @property
    def solutions(self) -> List[np.ndarray]:
        return [s.x for s in self.steps]

    @property
    def residuals(self) -> List[Optional[float]]:
        return [s.relative_residual for s in self.steps]

    def trace(self) -> List[Dict[str, Any]]:
        """The per-step trace rows (one dict per solved point)."""
        return [s.trace_row() for s in self.steps]


def _max_rank(hodlr: HODLRMatrix) -> int:
    return max((u.shape[1] for u in hodlr.U.values()), default=0)


# ----------------------------------------------------------------------
# the two sweep axes
# ----------------------------------------------------------------------
def _parameter_step(
    problem: Any, overrides: Mapping[str, Any], config: SolverConfig,
    rhs: Optional[np.ndarray], compute_residual: Union[bool, str],
    keep_operator: bool,
) -> SweepStep:
    """One parameter point: a :func:`repro.solve` of the overridden problem."""
    from .facade import solve  # local import: facade imports nothing from here

    t0 = time.perf_counter()
    step_problem = (
        dataclasses.replace(problem, **overrides) if overrides else problem
    )
    result = solve(step_problem, rhs, config, compute_residual=compute_residual)
    total = time.perf_counter() - t0
    stats = result.stats
    return SweepStep(
        params=dict(overrides),
        x=result.x,
        relative_residual=result.relative_residual,
        recycled=False,
        seconds={
            "rebuild": total - stats.last_solve_seconds,
            "factorize": stats.factor_seconds,
            "solve": stats.last_solve_seconds,
            "total": total,
        },
        max_rank=_max_rank(result.problem.hodlr),
        stats=stats,
        operator=result.operator if keep_operator else None,
    )


def _config_sweep(
    problem: Any,
    configs: Sequence[SolverConfig],
    rhs: Optional[np.ndarray],
    compute_residual: bool,
    keep_operators: bool = True,
) -> SweepResult:
    """Sweep solver configs over one fixed problem, sharing assembly."""
    from .facade import assemble

    # phase 1 (serial): assemble once per distinct construction key — the
    # key is everything assembly depends on: compression settings plus the
    # construction context (backend / dtype / precision / dispatch)
    keys = [
        (cfg.compression, cfg.backend, cfg.dtype, cfg.precision, cfg.dispatch_policy)
        for cfg in configs
    ]
    assembled_by_comp: Dict[Any, AssembledProblem] = {}
    assemble_seconds: Dict[Any, float] = {}
    recycled_flags: List[bool] = []
    for cfg, key in zip(configs, keys):
        recycled_flags.append(key in assembled_by_comp)
        if key not in assembled_by_comp:
            t0 = time.perf_counter()
            assembled_by_comp[key] = assemble(problem, cfg)
            assemble_seconds[key] = time.perf_counter() - t0

    # phase 2: factorize + solve per config, in order.  Each step builds
    # its own operator from the shared (read-only from here on) assembly
    steps: List[SweepStep] = []
    for cfg, key, recycled in zip(configs, keys, recycled_flags):
        assembled = assembled_by_comp[key]
        t_start = time.perf_counter()
        operator = HODLROperator(assembled.hodlr, cfg, perm=assembled.perm)
        b = assembled.rhs if rhs is None else rhs
        if b is None:
            raise ValueError(
                "the swept problem provides no natural right-hand side; pass rhs="
            )
        b = np.asarray(b)
        t0 = time.perf_counter()
        operator.factorize()
        factor_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        x = operator.solve(b)
        solve_seconds = time.perf_counter() - t0
        relres: Optional[float] = None
        if compute_residual:
            r = b - (operator @ x)
            nb = float(np.linalg.norm(b))
            relres = float(np.linalg.norm(r)) / nb if nb > 0 else float(np.linalg.norm(r))
            operator.solver.stats.relative_residual = relres
        total = time.perf_counter() - t_start
        if not recycled:
            # the step that first built this assembly owns its wall-clock
            total += assemble_seconds[key]
        steps.append(SweepStep(
            params={"config": cfg.to_dict()},
            x=x,
            relative_residual=relres,
            recycled=recycled,
            seconds={
                "rebuild": 0.0 if recycled else assemble_seconds[key],
                "factorize": factor_seconds,
                "solve": solve_seconds,
                "total": total,
            },
            max_rank=_max_rank(assembled.hodlr),
            stats=operator.stats,
            operator=operator if keep_operators else None,
        ))
    return SweepResult(steps=steps)


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def run_sweep(
    problem: Any,
    configs: Sequence[Union[Mapping[str, Any], SolverConfig]],
    config: Optional[SolverConfig] = None,
    *,
    rhs: Optional[np.ndarray] = None,
    compute_residual: Union[bool, str] = True,
    keep_operators: bool = False,
    **problem_params: Any,
) -> SweepResult:
    """Solve a family of related systems, one :class:`SweepStep` per point.

    Parameters
    ----------
    problem:
        A registered problem name or :class:`~repro.api.problem.Problem`
        dataclass instance (a parameter sweep re-instantiates it per step
        with :func:`dataclasses.replace`).
    configs:
        The sweep axis: a sequence of parameter-override mappings
        (``[{"kappa": 10.0}, {"kappa": 12.5}, ...]``) for a parameter
        sweep, or a sequence of :class:`SolverConfig` objects for a
        solver-config sweep over the fixed problem.
    config:
        The :class:`SolverConfig` shared by every step of a parameter
        sweep (defaults to the problem's own default config).
    rhs:
        Right-hand side shared by all steps; defaults to the problem's
        natural one.
    compute_residual:
        As for :func:`repro.solve`.
    keep_operators:
        Retain every step's factorized :class:`HODLROperator` on its
        :class:`SweepStep`.  Off by default: a full-size factorization is
        hundreds of MB, so a long sweep retaining all of them would hoard
        memory; solutions, residuals, stats, and trace rows are always
        kept.
    problem_params:
        Parameters of a registered problem name, as for
        :func:`repro.solve` (``n=4096, seed=7``).

    Each parameter step equals ``repro.solve`` of the same overrides
    bitwise.  A mapping that names ``points_added``, ``points_removed`` or
    ``rhs_added`` raises :class:`ValueError`: geometry updates go through
    :func:`repro.update_operator`.
    """
    from .facade import _resolve_problem

    configs = list(configs)
    if configs and all(isinstance(c, SolverConfig) for c in configs):
        if config is not None:
            raise ValueError(
                "pass either a sequence of SolverConfigs or a shared config=, not both"
            )
        problem_r, _ = _resolve_problem(problem, configs[0], problem_params)
        return _config_sweep(problem_r, configs, rhs, compute_residual, keep_operators)
    if any(isinstance(c, SolverConfig) for c in configs):
        raise TypeError("configs mixes SolverConfig objects and parameter mappings")

    problem_r, cfg = _resolve_problem(problem, config, problem_params)
    overrides: List[Dict[str, Any]] = [dict(c) for c in configs]
    for ov in overrides:
        for key in ("points_added", "points_removed", "rhs_added"):
            if key in ov:
                raise ValueError(
                    f"sweep step {sorted(ov)} names {key!r}: run_sweep has no "
                    "geometry-update steps; stream point insertions and "
                    "removals through repro.update_operator"
                )
    return SweepResult(steps=[
        _parameter_step(problem_r, ov, cfg, rhs, compute_residual, keep_operators)
        for ov in overrides
    ])
