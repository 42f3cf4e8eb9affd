"""Tests for matrix-free peeling construction and device memory accounting."""

import numpy as np
import pytest

from repro import (
    ClusterTree,
    DeviceMemoryTracker,
    HODLRSolver,
    build_hodlr,
    hodlr_device_footprint,
    max_problem_size,
    peel_hodlr,
)
from repro.backends.memory import V100_CAPACITY_BYTES
from conftest import complex_test_matrix, hodlr_friendly_matrix, spd_kernel_matrix


class TestPeeling:
    def _problem(self, n=256, leaf=32, seed=31):
        A = hodlr_friendly_matrix(n, seed=seed)
        tree = ClusterTree.balanced(n, leaf_size=leaf)
        return A, tree

    def test_peeled_hodlr_matches_operator(self):
        A, tree = self._problem()
        H = peel_hodlr(
            matvec=lambda X: A @ X,
            rmatvec=lambda X: A.T @ X,
            tree=tree,
            rank=20,
            rng=np.random.default_rng(0),
        )
        assert H.approximation_error(A) < 1e-7

    def test_peeled_hodlr_is_solvable(self, rng):
        A, tree = self._problem(seed=32)
        H = peel_hodlr(lambda X: A @ X, lambda X: A.T @ X, tree, rank=20,
                       rng=np.random.default_rng(1))
        solver = HODLRSolver(H, variant="batched").factorize()
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-6

    def test_peeling_matches_direct_construction(self):
        A, tree = self._problem(seed=33)
        H_direct = build_hodlr(A, tree, tol=1e-10, method="svd")
        H_peeled = peel_hodlr(lambda X: A @ X, lambda X: A.T @ X, tree, rank=24,
                              rng=np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal(A.shape[0])
        np.testing.assert_allclose(H_peeled.matvec(x), H_direct.matvec(x), rtol=1e-5, atol=1e-6)

    def test_symmetric_operator(self, rng):
        A = spd_kernel_matrix(192, seed=34, nugget=0.5)
        tree = ClusterTree.balanced(192, leaf_size=24)
        H = peel_hodlr(lambda X: A @ X, lambda X: A @ X, tree, rank=16,
                       rng=np.random.default_rng(4))
        assert H.approximation_error(A) < 1e-6

    def test_rank_cap(self):
        A, tree = self._problem(seed=41)
        H = peel_hodlr(lambda X: A @ X, lambda X: A.T @ X, tree, rank=4, tol=0.0,
                       rng=np.random.default_rng(11))
        assert H.max_rank == 4

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.complex128])
    def test_factors_keep_the_operator_dtype(self, dtype):
        """Real Gaussian probes of a single-precision or complex operator
        yield factors of the operator's dtype, accurate to its precision
        (or to the recompression ``tol``, whichever is coarser)."""
        n = 256
        if np.dtype(dtype).kind == "c":
            A = complex_test_matrix(n, seed=42)
        else:
            A = hodlr_friendly_matrix(n, seed=42)
        A = A.astype(dtype)
        tree = ClusterTree.balanced(n, leaf_size=32)
        H = peel_hodlr(lambda X: A @ X, lambda X: A.conj().T @ X, tree, rank=40,
                       rng=np.random.default_rng(12), dtype=dtype)
        assert {u.dtype for u in H.U.values()} | {v.dtype for v in H.V.values()} == {
            np.dtype(dtype)
        }
        assert H.approximation_error(A) <= 10 * max(np.finfo(dtype).eps, 1e-10)

    def test_rank_cap_limits_probe_cost(self):
        """The peeling never requests more than rank+oversampling probes per block."""
        A, tree = self._problem(seed=35)
        calls = {"matvec_cols": 0}

        def counting_matvec(X):
            calls["matvec_cols"] += X.shape[1]
            return A @ X

        peel_hodlr(counting_matvec, lambda X: A.T @ X, tree, rank=10, oversampling=5,
                   rng=np.random.default_rng(5))
        # per level: 2*(rank+oversampling) probe columns; plus leaf extraction
        expected_max = 2 * 15 * tree.levels + max(l.size for l in tree.leaves)
        assert calls["matvec_cols"] <= expected_max

    def test_explicit_context_matches_default(self):
        """Peeling routes through the context's array backend; the default
        NumPy context must reproduce the implicit-context result exactly."""
        from repro.backends.context import DEFAULT_CONTEXT

        A, tree = self._problem(seed=36)
        kw = dict(rank=20, oversampling=8)
        H_default = peel_hodlr(lambda X: A @ X, lambda X: A.T @ X, tree,
                               rng=np.random.default_rng(6), **kw)
        H_ctx = peel_hodlr(lambda X: A @ X, lambda X: A.T @ X, tree,
                           rng=np.random.default_rng(6),
                           context=DEFAULT_CONTEXT, **kw)
        np.testing.assert_array_equal(H_default.to_dense(), H_ctx.to_dense())

    def test_build_hodlr_peeling_construction(self):
        """build_hodlr(construction='peeling') consumes matvec sources and
        matches the entrywise direct construction."""
        from repro.core.compression import CompressionConfig

        A, tree = self._problem(seed=37)

        class Op:
            dtype = A.dtype

            def matvec(self, X):
                return A @ X

            def rmatvec(self, X):
                return A.T @ X

        cfg = CompressionConfig(construction="peeling", max_rank=24, tol=1e-10, seed=7)
        H_peeled = build_hodlr(Op(), tree, config=cfg)
        H_direct = build_hodlr(A, tree, tol=1e-10, method="svd")
        denom = np.linalg.norm(A)
        assert np.linalg.norm(H_peeled.to_dense() - H_direct.to_dense()) / denom < 1e-6

    def test_facade_peeling_equivalence(self):
        """repro.build_operator(..., construction='peeling') solves the same
        system as the direct entrywise construction."""
        import repro

        A, _ = self._problem(n=256, leaf=32, seed=38)
        cfg = {"compression": {"tol": 1e-10, "max_rank": 24, "leaf_size": 32}}
        op_direct = repro.build_operator(A, config=cfg)
        op_peeled = repro.build_operator(A, config=cfg, construction="peeling")
        b = np.random.default_rng(8).standard_normal(A.shape[0])
        x_d = op_direct.solve(b)
        x_p = op_peeled.solve(b)
        assert np.linalg.norm(A @ x_p - b) / np.linalg.norm(b) < 1e-6
        assert np.linalg.norm(x_d - x_p) / np.linalg.norm(x_d) < 1e-5


class TestDeviceMemory:
    def test_footprint_components_sum(self):
        fp = hodlr_device_footprint(2 ** 20, rank=20, leaf_size=64)
        parts = fp["diag_bytes"] + fp["basis_bytes"] + fp["k_bytes"] + fp["rhs_bytes"]
        assert fp["total_bytes"] == pytest.approx(parts + fp["workspace_bytes"])

    def test_paper_scale_problems_fit_in_32gb(self):
        """The paper solves N = 2^21 (Table III) and N = 2^24 single precision (Table IVb)
        on a 32 GB V100; the footprint model must agree that those fit."""
        fp_rpy = hodlr_device_footprint(2 ** 21, rank=56, leaf_size=64, dtype_size=8)
        assert fp_rpy["total_bytes"] < V100_CAPACITY_BYTES
        fp_laplace = hodlr_device_footprint(2 ** 24, rank=11, leaf_size=64, dtype_size=4)
        assert fp_laplace["total_bytes"] < V100_CAPACITY_BYTES
        # while the dense matrix at N = 2^21 would be vastly larger
        assert 8.0 * (2 ** 21) ** 2 > 100 * V100_CAPACITY_BYTES

    def test_max_problem_size_monotonicity(self):
        small_rank = max_problem_size(rank=10, leaf_size=64)
        large_rank = max_problem_size(rank=100, leaf_size=64)
        assert small_rank >= large_rank
        single = max_problem_size(rank=10, leaf_size=64, dtype_size=4)
        assert single >= small_rank

    def test_tracker_allocate_free(self):
        tracker = DeviceMemoryTracker(capacity_bytes=1000)
        tracker.allocate("a", 400)
        tracker.allocate("b", 500)
        assert tracker.allocated_bytes == 900
        assert tracker.free_bytes == 100
        tracker.free("a")
        assert tracker.allocated_bytes == 500
        assert tracker.high_water_bytes == 900
        report = tracker.report()
        assert report["capacity_gb"] == pytest.approx(1e-6)

    def test_tracker_over_allocation_raises(self):
        tracker = DeviceMemoryTracker(capacity_bytes=1000)
        tracker.allocate("a", 900)
        with pytest.raises(MemoryError):
            tracker.allocate("b", 200)
        with pytest.raises(ValueError):
            tracker.allocate("a", 1)
        with pytest.raises(KeyError):
            tracker.free("zzz")

    def test_plan_hodlr_solve(self):
        tracker = DeviceMemoryTracker()  # 32 GB
        fp = tracker.plan_hodlr_solve(2 ** 20, rank=20, leaf_size=64)
        assert tracker.allocated_bytes == pytest.approx(fp["total_bytes"])
        too_big = DeviceMemoryTracker(capacity_bytes=1e6)
        with pytest.raises(MemoryError):
            too_big.plan_hodlr_solve(2 ** 20, rank=20, leaf_size=64)


class TestPaperData:
    def test_paper_tables_consistency(self):
        """Sanity checks on the transcribed paper numbers (speedups and scaling)."""
        from repro.analysis.paper_data import (
            FIGURE_SPEEDUPS,
            TABLE3_RPY,
            TABLE4A_LAPLACE_HIGH,
            scaling_exponent,
            speedup_table,
        )

        speedups = speedup_table(TABLE3_RPY, "hodlrlib_tf", "gpu_tf")
        # Fig. 5 annotations: ~20x at the smallest size, ~27x at the largest
        assert speedups[2 ** 17] == pytest.approx(FIGURE_SPEEDUPS["fig5_factorization"][0], rel=0.1)
        assert speedups[2 ** 21] == pytest.approx(FIGURE_SPEEDUPS["fig5_factorization"][1], rel=0.1)
        # GPU factorization scales near-linearly in the paper: exponent between 1 and 1.4
        slope = scaling_exponent(TABLE3_RPY, "gpu_tf")
        assert 1.0 <= slope <= 1.4
        # solution speedup at the largest N exceeds the factorization speedup
        sol_speedups = speedup_table(TABLE3_RPY, "hodlrlib_ts", "gpu_ts")
        assert sol_speedups[2 ** 21] > speedups[2 ** 21]
        # GPU is consistently the fastest column of Table IVa
        for n, row in TABLE4A_LAPLACE_HIGH.items():
            assert row["gpu_tf"] < row["serial_bs_tf"]
            assert row["gpu_ts"] < row["parallel_bs_ts"]

    def test_scaling_exponent_requires_two_sizes(self):
        from repro.analysis.paper_data import scaling_exponent

        with pytest.raises(ValueError):
            scaling_exponent({1024: {"x": 1.0}}, "x")
