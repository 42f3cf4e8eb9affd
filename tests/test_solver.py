"""Tests for the user-facing HODLRSolver API."""

import numpy as np
import pytest

from repro import (
    BatchedFactorization,
    ClusterTree,
    HODLROperator,
    HODLRSolver,
    PerformanceModel,
    build_hodlr,
)
from repro.backends.device import CPU_XEON_6254_DUAL
from conftest import hodlr_friendly_matrix


class TestAPI:
    @pytest.mark.parametrize("variant", ["recursive", "flat", "batched"])
    def test_factorize_solve(self, small_dense, small_hodlr, variant, rng):
        solver = HODLRSolver(small_hodlr, variant=variant).factorize()
        assert solver.factored
        b = rng.standard_normal(small_dense.shape[0])
        x = solver.solve(b, compute_residual=True)
        assert solver.stats.relative_residual < 1e-9
        assert np.linalg.norm(small_dense @ x - b) / np.linalg.norm(b) < 1e-9

    def test_invalid_variant(self, small_hodlr):
        with pytest.raises(ValueError):
            HODLRSolver(small_hodlr, variant="gpu")

    def test_solve_before_factorize_raises(self, small_hodlr):
        with pytest.raises(RuntimeError):
            HODLRSolver(small_hodlr).solve(np.ones(small_hodlr.n))

    def test_stats_populated(self, small_hodlr, rng):
        solver = HODLRSolver(small_hodlr, variant="batched").factorize()
        solver.solve(rng.standard_normal(small_hodlr.n))
        assert solver.stats.factor_seconds > 0
        assert solver.stats.solve_seconds > 0
        assert solver.stats.factorization_bytes > 0
        assert solver.memory_gb == pytest.approx(solver.stats.factorization_bytes / 1e9)

    def test_relative_residual_helper(self, small_dense, small_hodlr, rng):
        solver = HODLRSolver(small_hodlr).factorize()
        b = rng.standard_normal(small_hodlr.n)
        x = solver.solve(b)
        relres = solver.relative_residual(x, b)
        direct = np.linalg.norm(small_dense @ x - b) / np.linalg.norm(b)
        # residual measured through the HODLR matvec tracks the dense residual
        assert relres == pytest.approx(direct, abs=1e-10)

    def test_matvec_passthrough(self, small_dense, small_hodlr, rng):
        solver = HODLRSolver(small_hodlr)
        x = rng.standard_normal(small_hodlr.n)
        np.testing.assert_allclose(solver.matvec(x), small_dense @ x, rtol=1e-9, atol=1e-9)

    def test_logdet(self, small_dense, small_hodlr):
        solver = HODLRSolver(small_hodlr, variant="batched").factorize()
        assert solver.logdet() == pytest.approx(np.linalg.slogdet(small_dense)[1], rel=1e-8)


class TestPrecision:
    def test_float32_roundtrip(self, small_dense, small_hodlr, rng):
        """Single-precision factorization (Table IVb regime): ~1e-4 accuracy, half memory."""
        solver64 = HODLRSolver(small_hodlr, variant="batched").factorize()
        solver32 = HODLRSolver(small_hodlr, variant="batched", dtype=np.float32).factorize()
        b = rng.standard_normal(small_dense.shape[0])
        x64 = solver64.solve(b)
        x32 = solver32.solve(b.astype(np.float32))
        res32 = np.linalg.norm(small_dense @ x32 - b) / np.linalg.norm(b)
        res64 = np.linalg.norm(small_dense @ x64 - b) / np.linalg.norm(b)
        assert res64 < 1e-9
        assert res32 < 1e-3
        assert solver32.stats.factorization_bytes < 0.6 * solver64.stats.factorization_bytes


class TestTracesAndModeling:
    def test_batched_traces_exist(self, small_hodlr, rng):
        solver = HODLRSolver(small_hodlr, variant="batched").factorize()
        solver.solve(rng.standard_normal(small_hodlr.n))
        assert solver.factor_trace is not None
        assert solver.factor_trace.total_flops > 0
        assert solver.last_solve_trace is not None
        assert solver.last_solve_trace.total_flops > 0
        # factorization does much more work than a single solve
        assert solver.factor_trace.total_flops > 5 * solver.last_solve_trace.total_flops

    def test_flat_variant_records_trace(self, small_hodlr, rng):
        solver = HODLRSolver(small_hodlr, variant="flat").factorize()
        solver.solve(rng.standard_normal(small_hodlr.n))
        assert solver.factor_trace.total_flops > 0
        assert solver.last_solve_trace.num_plan_launches > 0

    def test_modeled_times_structure(self, small_hodlr, rng):
        solver = HODLRSolver(small_hodlr, variant="batched").factorize()
        solver.solve(rng.standard_normal(small_hodlr.n))
        times = solver.modeled_times()
        assert set(times) == {"factorization", "solution"}
        assert times["factorization"].total_time > 0
        assert times["solution"].total_time > 0
        assert times["factorization"].compute_time > times["solution"].compute_time

    def test_gpu_speedup_grows_with_problem_size(self, rng):
        """The GPU/CPU modeled-time ratio improves as N grows (Fig. 5 behaviour).

        At small N the GPU's launch overhead and low utilisation dominate; as
        the batched kernels get bigger the GPU model catches up and overtakes.
        The test checks the *trend* on the real kernel traces of two problem
        sizes rather than an absolute crossover point.
        """
        speedups = []
        for n in [256, 2048]:
            A = hodlr_friendly_matrix(n, seed=3)
            tree = ClusterTree.balanced(n, leaf_size=64)
            H = build_hodlr(A, tree, tol=1e-8, method="svd")
            solver = HODLRSolver(H, variant="batched").factorize()
            solver.solve(rng.standard_normal(n))
            gpu = solver.modeled_times(PerformanceModel(link=None))
            cpu = solver.modeled_times(PerformanceModel(device=CPU_XEON_6254_DUAL, link=None))
            speedups.append(
                cpu["factorization"].compute_time / gpu["factorization"].compute_time
            )
        assert speedups[1] > speedups[0]

    def test_pivot_toggle(self, small_dense, small_hodlr, rng):
        """Disabling partial pivoting in the K solves (paper's alternative to (9)) still works."""
        solver = HODLRSolver(small_hodlr, variant="batched", pivot=False).factorize()
        b = rng.standard_normal(small_hodlr.n)
        x = solver.solve(b)
        assert np.linalg.norm(small_dense @ x - b) / np.linalg.norm(b) < 1e-8


class TestVariantAliases:
    """``"flat"`` and ``"batched"`` name one plan-backed factorization."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_flat_and_batched_build_same_class(self, kind, request, rng):
        H = request.getfixturevalue(f"{'small' if kind == 'real' else 'complex'}_hodlr")
        b = rng.standard_normal(H.n)
        if kind == "complex":
            b = b + 1j * rng.standard_normal(H.n)
        flat = HODLRSolver(H, variant="flat").factorize()
        batched = HODLRSolver(H, variant="batched").factorize()
        assert type(flat._impl) is type(batched._impl) is BatchedFactorization
        assert np.array_equal(flat.solve(b), batched.solve(b))

    def test_flat_variant_honours_pivot_false(self, small_dense, small_hodlr, rng):
        op = HODLROperator(small_hodlr, variant="flat", pivot=False).factorize()
        assert op.solver.factor_plan.pivot is False
        b = rng.standard_normal(small_hodlr.n)
        x = op.solve(b)
        assert np.linalg.norm(small_dense @ x - b) / np.linalg.norm(b) < 1e-9
