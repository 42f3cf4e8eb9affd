"""Ablation benchmarks for the design choices called out in DESIGN.md / section III-C.

These are not paper tables; they isolate the individual ingredients of the
contribution so their effect can be measured separately:

* level-batched kernels vs per-node recursion (the core claim: batching
  reduces kernel launches by orders of magnitude);
* strided per-bucket launches on ragged (non-power-of-two) trees;
* partial pivoting in the reduced K systems vs the reordered pivot-free
  formulation of equation (9)'s alternatives;
* double vs single precision.
"""

import numpy as np
import pytest

from repro import (
    BatchedFactorization,
    ClusterTree,
    HODLRSolver,
    RecursiveFactorization,
    build_hodlr,
)
from repro.backends.counters import get_recorder

from common import GPU_MODEL, TableRow, save_rows, timed


def structured_matrix(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    return 1.0 / (1.0 + 40.0 * np.abs(x[:, None] - x[None, :])) + n * np.eye(n)


@pytest.fixture(scope="module")
def ablation_problem():
    n = 2048
    A = structured_matrix(n)
    tree = ClusterTree.balanced(n, leaf_size=64)
    H = build_hodlr(A, tree, tol=1e-9, method="svd")
    b = np.random.default_rng(1).standard_normal(n)
    return A, H, b


class TestVariantAblation:
    """Level-batched vs recursive execution of the same factorization."""

    def test_recursive_factorization(self, ablation_problem, benchmark):
        _, H, b = ablation_problem
        fac = benchmark(lambda: RecursiveFactorization(hodlr=H).factorize())
        assert fac.factored

    def test_batched_factorization(self, ablation_problem, benchmark):
        _, H, b = ablation_problem
        fac = benchmark(lambda: BatchedFactorization(hodlr=H).factorize())
        assert fac.factored

    def test_batched_solve(self, ablation_problem, benchmark):
        A, H, b = ablation_problem
        fac = BatchedFactorization(hodlr=H).factorize()
        x = benchmark(lambda: fac.solve(b))
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-7

    def test_launch_count_report(self, ablation_problem, benchmark):
        """The batched schedule issues O(levels) launches; per-node execution would issue
        several per node.  Print the counts and the modeled times side by side."""
        _, H, b = ablation_problem
        benchmark(lambda: None)
        solver = HODLRSolver(H, variant="batched").factorize()
        solver.solve(b)
        trace = solver.factor_trace
        per_node_calls = 4 * H.tree.num_nodes  # per-node schedule: >= 4 BLAS calls per node
        rows = [
            TableRow(
                experiment="ablation_launches",
                n=H.n,
                relres=0.0,
                extra={
                    "batched_launches": float(trace.num_launches),
                    "per_node_calls": float(per_node_calls),
                    "modeled_gpu_factor": GPU_MODEL.estimate(trace).total_time,
                },
            )
        ]
        save_rows("ablation_launches", rows)
        print(f"\nkernel launches: batched schedule = {trace.num_launches}, "
              f"per-node schedule >= {per_node_calls}")
        assert trace.num_launches < per_node_calls


#: the factor/solve launches of repro.backends.batched (all strided)
STRIDED_KERNELS = {
    "gemm_strided_batched",
    "getrf_batched",
    "getrs_batched",
    "potrf_batched",
    "potrs_batched",
    "trtri_batched",
    "schur_solve_batched",
}


class TestDispatchAblation:
    """Strided per-bucket launches on uniform and ragged trees."""

    def test_strided_batches_are_used_for_uniform_levels(self, ablation_problem):
        """With a uniform tree the deep levels go through gemmStridedBatched."""
        _, H, b = ablation_problem
        solver = HODLRSolver(H, variant="batched").factorize()
        kernels = {e.kernel for e in solver.factor_trace.events}
        assert "gemm_strided_batched" in kernels

    def test_nonuniform_tree_uses_strided_bucket_launches(self):
        """A non-power-of-two size gives ragged levels; they still lower onto
        strided per-bucket launches, never a pointer-array gemm.  Reports
        factorize seconds and modeled GPU time."""
        n = 1800
        A = structured_matrix(n, seed=2)
        tree = ClusterTree.balanced(n, leaf_size=64)
        H = build_hodlr(A, tree, tol=1e-9, method="svd")
        b = np.random.default_rng(3).standard_normal(n)
        solver, factor_s = min(
            (timed(HODLRSolver(H, variant="batched").factorize) for _ in range(3)),
            key=lambda r: r[1],
        )
        modeled = GPU_MODEL.estimate(solver.factor_trace).total_time
        with get_recorder().recording() as solve_trace:
            x = solver.solve(b)
        events = solver.factor_trace.events + solve_trace.events
        assert events and all(e.strided for e in events)
        # only the strided launches of repro.backends.batched: no
        # pointer-array gemm anywhere in the schedule
        assert {e.kernel for e in events} <= STRIDED_KERNELS
        relres = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
        assert relres < 1e-7
        extra = {"factor_s_default": factor_s, "modeled_gpu_factor_default": modeled}
        save_rows("ablation_nonuniform_strided", [
            TableRow(experiment="ablation_nonuniform_strided", n=n, relres=relres, extra=extra)
        ])
        print(f"\nn={n} factorize: {factor_s * 1e3:.1f} ms; modeled V100 "
              f"{modeled * 1e3:.3f} ms")


class TestPivotingAblation:
    @pytest.mark.parametrize("pivot", [True, False])
    def test_pivot_variants(self, ablation_problem, benchmark, pivot):
        """Equation (9) with partial pivoting vs the reordered pivot-free variant."""
        A, H, b = ablation_problem
        solver = HODLRSolver(H, variant="batched", pivot=pivot)
        benchmark(solver.factorize)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-7


class TestPrecisionAblation:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_precision(self, ablation_problem, benchmark, dtype):
        """Single precision halves memory and roughly halves modeled time (Table IVb)."""
        A, H, b = ablation_problem
        solver = HODLRSolver(H, variant="batched", dtype=dtype)
        benchmark(solver.factorize)
        x = solver.solve(b.astype(dtype))
        tol = 1e-7 if dtype == np.float64 else 5e-3
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < tol

    def test_single_precision_memory_and_model(self, ablation_problem):
        _, H, b = ablation_problem
        s64 = HODLRSolver(H, variant="batched", dtype=np.float64).factorize()
        s32 = HODLRSolver(H, variant="batched", dtype=np.float32).factorize()
        s64.solve(b)
        s32.solve(b.astype(np.float32))
        assert s32.stats.factorization_bytes < 0.6 * s64.stats.factorization_bytes
        t64 = s64.modeled_times(GPU_MODEL)["factorization"].total_time
        t32 = s32.modeled_times(GPU_MODEL)["factorization"].total_time
        assert t32 < t64
