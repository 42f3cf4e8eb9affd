"""HODLRlib-style CPU baseline.

HODLRlib (Ambikasaran, Singh & Sankaran, JOSS 2019) factorizes a HODLR
matrix with the same recursion as section III-A, issuing one ordinary BLAS/
LAPACK call per tree node and parallelising with an OpenMP ``parallel for``
over the nodes of a level — *no* batching across levels and no
parallelism inside a node.  The paper uses it as the CPU reference for the
kernel-matrix benchmark (Table III), and its single-core execution is the
"Serial HODLR Solver" column of Tables IV and V.

This module reimplements that execution model:

* the numerics are the recursive factorization of
  :class:`~repro.core.factor_recursive.RecursiveFactorization` (so solutions
  agree with the GPU solver to round-off), and
* an analytic CPU cost model reproduces the timing behaviour: per-node
  flops are priced on a single-core spec, per-level times are divided by
  the usable parallelism ``min(#nodes at level, #threads)``, and a per-call
  overhead represents the many small BLAS invocations that the paper's
  batching eliminates.
"""

from __future__ import annotations

import time  # repro-lint: file-ignore[RL004] -- baseline harness: measures wall-clock factor/solve time by design
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..backends.counters import gemm_flops, getrf_flops, getrs_flops
from ..backends.device import DeviceSpec, CPU_XEON_6254_SINGLE_CORE
from ..core.factor_recursive import RecursiveFactorization
from ..core.hodlr import HODLRMatrix


@dataclass
class CPUCostModel:
    """Analytic timing model of the per-node, level-parallel CPU execution."""

    core: DeviceSpec = CPU_XEON_6254_SINGLE_CORE
    threads: int = 36
    #: efficiency lost to OpenMP scheduling / NUMA when many threads are used
    parallel_efficiency: float = 0.75
    #: fixed overhead per BLAS/LAPACK call (seconds)
    call_overhead: float = 2.0e-6

    def level_time(self, per_node_flops: np.ndarray, calls_per_node: int, parallel: bool) -> float:
        """Time for one tree level given per-node work."""
        per_node_seconds = np.array(
            [
                f / self.core.effective_flops(f) + calls_per_node * self.call_overhead
                for f in per_node_flops
            ]
        )
        if not parallel or self.threads <= 1:
            return float(np.sum(per_node_seconds))
        usable = min(len(per_node_flops), self.threads)
        speedup = max(1.0, usable * self.parallel_efficiency)
        return float(np.sum(per_node_seconds) / speedup)


@dataclass
class HODLRlibStyleSolver:
    """Recursive per-node HODLR solver with a HODLRlib-style cost model."""

    hodlr: HODLRMatrix
    parallel: bool = True
    cost_model: CPUCostModel = field(default_factory=CPUCostModel)

    _impl: Optional[RecursiveFactorization] = field(default=None, repr=False)
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0

    # ------------------------------------------------------------------
    # numerics (shared with the core recursive factorization)
    # ------------------------------------------------------------------
    def factorize(self) -> "HODLRlibStyleSolver":
        t0 = time.perf_counter()
        self._impl = RecursiveFactorization(hodlr=self.hodlr).factorize()
        self.factor_seconds = time.perf_counter() - t0
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._impl is None:
            raise RuntimeError("call factorize() first")
        t0 = time.perf_counter()
        x = self._impl.solve(b)
        self.solve_seconds = time.perf_counter() - t0
        return x

    def logdet(self) -> float:
        if self._impl is None:
            raise RuntimeError("call factorize() first")
        return self._impl.logdet()

    @property
    def memory_gb(self) -> float:
        if self._impl is None:
            raise RuntimeError("call factorize() first")
        return self._impl.factorization_nbytes() / 1.0e9

    # ------------------------------------------------------------------
    # cost model (modeled CPU wall-clock, used by the benchmark harnesses)
    # ------------------------------------------------------------------
    def _per_level_flops(self) -> Dict[int, np.ndarray]:
        """Factorization flops of each node, grouped by tree level."""
        tree = self.hodlr.tree
        out: Dict[int, np.ndarray] = {}
        cplx = np.issubdtype(self.hodlr.dtype, np.complexfloating)

        # leaf level: LU of each diagonal block + solves for all U columns that
        # pass through the leaf (its own level plus every ancestor level).
        leaf_flops = []
        for leaf in tree.leaves:
            m = leaf.size
            # total number of right-hand-side columns routed through this leaf
            ncols = 0
            node = leaf
            while not node.is_root:
                ncols += self.hodlr.U[node.index].shape[1]
                node = tree.parent(node)
            leaf_flops.append(getrf_flops(m, cplx) + getrs_flops(m, ncols, cplx))
        out[tree.levels] = np.array(leaf_flops)

        # non-leaf levels: form K (two gemms), LU-factorize it, solve the
        # reduced systems, and apply the low-rank update.
        for level in range(tree.levels - 1, -1, -1):
            flops = []
            for gamma in tree.level_nodes(level):
                alpha, beta = tree.children(gamma)
                ra = self.hodlr.U[alpha.index].shape[1]
                rb = self.hodlr.U[beta.index].shape[1]
                na, nb = alpha.size, beta.size
                # columns of coarser levels passing through gamma
                ncoarse = 0
                node = gamma
                while not node.is_root:
                    ncoarse += self.hodlr.U[node.index].shape[1]
                    node = tree.parent(node)
                work = gemm_flops(ra, ra, na, cplx) + gemm_flops(rb, rb, nb, cplx)  # V* Y
                work += getrf_flops(ra + rb, cplx)
                if ncoarse:
                    work += gemm_flops(ra, ncoarse, na, cplx) + gemm_flops(rb, ncoarse, nb, cplx)
                    work += getrs_flops(ra + rb, ncoarse, cplx)
                    work += gemm_flops(na, ncoarse, ra, cplx) + gemm_flops(nb, ncoarse, rb, cplx)
                flops.append(work)
            out[level] = np.array(flops)
        return out

    def _per_level_solve_flops(self, nrhs: int = 1) -> Dict[int, np.ndarray]:
        tree = self.hodlr.tree
        out: Dict[int, np.ndarray] = {}
        cplx = np.issubdtype(self.hodlr.dtype, np.complexfloating)
        out[tree.levels] = np.array(
            [getrs_flops(leaf.size, nrhs, cplx) for leaf in tree.leaves]
        )
        for level in range(tree.levels - 1, -1, -1):
            flops = []
            for gamma in tree.level_nodes(level):
                alpha, beta = tree.children(gamma)
                ra = self.hodlr.U[alpha.index].shape[1]
                rb = self.hodlr.U[beta.index].shape[1]
                work = gemm_flops(ra, nrhs, alpha.size, cplx) + gemm_flops(rb, nrhs, beta.size, cplx)
                work += getrs_flops(ra + rb, nrhs, cplx)
                work += gemm_flops(alpha.size, nrhs, ra, cplx) + gemm_flops(beta.size, nrhs, rb, cplx)
                flops.append(work)
            out[level] = np.array(flops)
        return out

    def modeled_factor_time(self) -> float:
        """Modeled wall-clock of the factorization on the HODLRlib execution model."""
        total = 0.0
        for level, flops in self._per_level_flops().items():
            calls = 2 if level == self.hodlr.tree.levels else 8
            total += self.cost_model.level_time(flops, calls, self.parallel)
        return total

    def modeled_solve_time(self, nrhs: int = 1) -> float:
        total = 0.0
        for level, flops in self._per_level_solve_flops(nrhs).items():
            calls = 1 if level == self.hodlr.tree.levels else 5
            total += self.cost_model.level_time(flops, calls, self.parallel)
        return total

    def total_factor_flops(self) -> float:
        return float(sum(np.sum(f) for f in self._per_level_flops().values()))

    def total_solve_flops(self, nrhs: int = 1) -> float:
        return float(sum(np.sum(f) for f in self._per_level_solve_flops(nrhs).values()))
