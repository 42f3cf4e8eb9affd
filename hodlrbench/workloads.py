"""The four benchmark workloads and the inputs they draw from ``--seed``.

Why each workload was chosen, and which layers should move which metric on
it, is recorded in ``BENCHMARK.json``.

Each workload is a registered ``repro`` problem at a fixed size plus a
closed-loop operation cycle: one caller issues the next operation only
after the previous one returned.  Operations:

``solve``  one single-RHS ``HODLROperator.solve``
``round``  one ``repro.solve_many`` call on a K=32 block (operator-cache
           hit, default HODLR residual included)
``step``   one ``repro.update_operator`` call removing k=16 contiguous
           points and inserting k=16 clustered points elsewhere, then one
           solve plus its HODLR residual on the patched operator
``reset``  untimed: a fresh operator over the initial points

Streams are cut into epochs of :data:`STREAM_EPOCH` steps, each starting
from a fresh operator (the seeded stream continues across epochs).
Patched plans fragment as a stream grows (at n=16384 the launches per
solve went 70 -> 795 over 60 steps), so an open-ended stream would make
every read metric depend on how many steps the host managed to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import KernelMatrix

#: right-hand sides per ``solve_many`` round
BLOCK_K = 32
#: points removed and inserted per stream step
STREAM_K = 16
#: exact operator rows sampled by the GP correctness checks
CHECK_ROWS = 64
#: stream steps between resets
STREAM_EPOCH = 8


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    n: int
    smoke_n: int
    #: e2e operation cycle, repeated until the run's time is up
    cycle: Tuple[str, ...]
    #: fixed operation counts of the traced / untraced comparison passes
    traced_solves: int
    traced_rounds: int
    traced_steps: int
    #: "full": exact residual over all rows; "rows": CHECK_ROWS sampled rows
    exact: str
    params: Dict[str, float] = field(default_factory=dict)

    def problem_params(self, seed: int, smoke: bool) -> dict:
        return dict(self.params, n=self.smoke_n if smoke else self.n, seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gaussian_direct",
            problem="gaussian_kernel",
            n=8192,
            smoke_n=1024,
            cycle=("solve",) * 2 + ("round",),
            traced_solves=10,
            traced_rounds=2,
            traced_steps=1,
            exact="full",
        ),
        Workload(
            name="gp_many_rhs",
            problem="gp_covariance",
            n=65536,
            smoke_n=4096,
            cycle=("solve",) * 4 + ("round",),
            traced_solves=5,
            traced_rounds=2,
            traced_steps=1,
            exact="rows",
        ),
        Workload(
            name="gp_stream",
            problem="gp_covariance",
            n=16384,
            smoke_n=2048,
            cycle=("reset",) + ("step",) * STREAM_EPOCH,
            traced_solves=0,
            traced_rounds=1,
            traced_steps=4,
            exact="rows",
        ),
        Workload(
            name="helmholtz_scatter",
            problem="helmholtz_kernel",
            n=4096,
            smoke_n=1024,
            cycle=("solve", "round"),
            traced_solves=3,
            traced_rounds=2,
            traced_steps=1,
            exact="full",
            params={"kappa": 20.0},
        ),
    )
}


def problem_points(problem) -> np.ndarray:
    """The point set ``problem.assemble`` draws from its seed (caller order).

    Mirrors the adapters in ``repro.api.problems``; the traced pass checks
    that its build from these points has the same ranks and solutions as
    the facade's own build.
    """
    rng = np.random.default_rng(problem.seed)
    if problem.name == "gp_covariance":
        return np.sort(rng.uniform(0.0, 1.0, problem.n))
    return rng.uniform(-1.0, 1.0, size=(problem.n, problem.dim))


def reorders(problem) -> bool:
    """Whether the adapter kd-tree reorders its points (sorted 1-D GP does not)."""
    return problem.name != "gp_covariance"


def exact_matrix(problem, points: np.ndarray) -> KernelMatrix:
    kernel, shift = problem.kernel_spec()
    return KernelMatrix(kernel=kernel, points=points, diagonal_shift=shift)


class RhsSource:
    """Seeded right-hand sides: Gaussian vectors, or plane waves for Helmholtz."""

    def __init__(self, problem, points: np.ndarray, rng: np.random.Generator) -> None:
        self.rng = rng
        self.kappa: Optional[float] = getattr(problem, "kappa", None)
        self.points = np.asarray(points)

    def _plane_waves(self, count: int) -> np.ndarray:
        theta = self.rng.uniform(0.0, 2.0 * np.pi, count)
        direction = np.stack([np.cos(theta), np.sin(theta)])
        return np.exp(1j * self.kappa * (self.points @ direction))

    def single(self, n: int) -> np.ndarray:
        if self.kappa is not None:
            return self._plane_waves(1)[:, 0]
        return self.rng.standard_normal(n)

    def block(self, n: int) -> np.ndarray:
        if self.kappa is not None:
            return self._plane_waves(BLOCK_K)
        return self.rng.standard_normal((n, BLOCK_K))


@dataclass
class StreamChange:
    removed: np.ndarray
    added: np.ndarray
    source: KernelMatrix


class PointStream:
    """Seeded k-point remove+insert steps over an operator's point set.

    Each step removes ``k`` points that are contiguous in the operator's
    internal (cluster-tree) order and inserts ``k`` points clustered around
    another interior point, away from the removal; both stay at least one
    leaf from the ends so no leaf empties.
    """

    def __init__(self, problem, points: np.ndarray, leaf_size: int,
                 rng: np.random.Generator, k: int = STREAM_K) -> None:
        self.problem = problem
        self.points = np.asarray(points)
        self.leaf = int(leaf_size)
        self.rng = rng
        self.k = k

    def _interior(self, n: int) -> int:
        return int(self.rng.integers(self.leaf, n - self.leaf - self.k))

    def next(self, perm: Optional[np.ndarray]) -> StreamChange:
        P, k = self.points, self.k
        n = P.shape[0]
        start = self._interior(n)
        if perm is None:
            # sorted 1-D points: internal order is the caller order, and new
            # points drawn inside one gap keep the set sorted
            removed = np.arange(start, start + k)
            mid = np.delete(P, removed)
            j = self._interior(mid.shape[0])
            Z = np.sort(self.rng.uniform(mid[j - 1], mid[j], k))
            new = np.concatenate([mid[:j], Z, mid[j:]])
            added = j + np.arange(k)
        else:
            removed = np.asarray(perm[start:start + k])
            j = self._interior(n)
            while abs(j - start) < 2 * k:
                j = self._interior(n)
            anchor = P[perm[j]]
            Z = anchor + 1e-3 * self.rng.standard_normal((k, P.shape[1]))
            # survivors keep their relative caller order; new points append
            new = np.concatenate([np.delete(P, removed, axis=0), Z])
            added = (j if j < start else j - k) + np.arange(k)
        self.points = new
        return StreamChange(removed, added, exact_matrix(self.problem, new))
