"""Batched level-parallel construction + compiled apply plan (PR 3).

Equivalence suite: the batched construction schedule and the compiled apply
plan must match the per-block loop path to 1e-12 across all three
factorization variants, complex dtypes, adaptive ranks, and
non-power-of-two N — plus counter tests asserting the launch count drops to
O(levels x buckets).
"""

import numpy as np
import pytest

from repro.api import CompressionConfig as ApiCompressionConfig
from repro.api import ConfigError, HODLROperator, SolverConfig
from repro.backends.context import ExecutionContext
from repro.backends.counters import get_recorder
from repro.backends.dispatch import DEFAULT_POLICY, LOOP_POLICY
from repro.core import (
    BatchedFactorization,
    BigMatrices,
    ClusterTree,
    HODLRSolver,
    build_hodlr,
)
from repro.core.compression import (
    CompressionConfig,
    compress_blocks_batched,
    randomized_compress_batched,
    svd_compress_batched,
)
from repro.kernels import GaussianKernel, KernelMatrix


def smooth_matrix(n, rng, complex_dtype=False, lengthscale=0.5):
    """A HODLR-compressible kernel matrix with rapidly decaying off-diag ranks."""
    x = np.sort(rng.uniform(0.0, 1.0, n))
    A = np.exp(-np.abs(x[:, None] - x[None, :]) / lengthscale)
    if complex_dtype:
        A = A * np.exp(1j * 0.3 * (x[:, None] - x[None, :]))
    return A + np.eye(n)


def build_both(A, tree, method, tol=1e-12, max_rank=None):
    Hb = build_hodlr(
        A, tree, config=CompressionConfig(tol=tol, max_rank=max_rank, method=method,
                                          construction="batched")
    )
    Hl = build_hodlr(
        A, tree, config=CompressionConfig(tol=tol, max_rank=max_rank, method=method,
                                          construction="loop")
    )
    return Hb, Hl


# ======================================================================
# construction equivalence
# ======================================================================
class TestBatchedConstructionEquivalence:
    @pytest.mark.parametrize("method", ["svd", "randomized", "rook"])
    @pytest.mark.parametrize("complex_dtype", [False, True])
    def test_batched_matches_loop_dense(self, method, complex_dtype):
        rng = np.random.default_rng(0)
        A = smooth_matrix(256, rng, complex_dtype=complex_dtype)
        tree = ClusterTree.balanced(256, leaf_size=32)
        Hb, Hl = build_both(A, tree, method)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(Hb.to_dense() - A) <= 1e-10 * scale
        assert np.linalg.norm(Hb.to_dense() - Hl.to_dense()) <= 1e-12 * scale

    @pytest.mark.parametrize("method", ["svd", "randomized"])
    def test_non_power_of_two(self, method):
        rng = np.random.default_rng(1)
        n = 300  # uneven node sizes at every level -> multiple shape buckets
        A = smooth_matrix(n, rng)
        tree = ClusterTree.balanced(n, leaf_size=32)
        Hb, Hl = build_both(A, tree, method)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(Hb.to_dense() - A) <= 1e-10 * scale
        assert np.linalg.norm(Hb.to_dense() - Hl.to_dense()) <= 1e-12 * scale

    def test_adaptive_ranks(self):
        # no max_rank: the shared sample count cannot resolve every block at
        # once, exercising the doubling rounds and the straggler fallback
        rng = np.random.default_rng(2)
        A = smooth_matrix(256, rng, lengthscale=0.05)  # higher ranks
        tree = ClusterTree.balanced(256, leaf_size=32)
        Hb, Hl = build_both(A, tree, "randomized", tol=1e-11)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(Hb.to_dense() - A) <= 1e-9 * scale
        assert np.linalg.norm(Hb.to_dense() - Hl.to_dense()) <= 1e-9 * scale

    def test_max_rank_cap_respected(self):
        rng = np.random.default_rng(3)
        A = smooth_matrix(128, rng, lengthscale=0.05)
        tree = ClusterTree.balanced(128, leaf_size=16)
        Hb = build_hodlr(
            A, tree,
            config=CompressionConfig(tol=1e-14, max_rank=5, method="randomized",
                                     construction="batched"),
        )
        assert Hb.max_rank <= 5

    def test_kernel_matrix_gather_path(self):
        # KernelMatrix exposes entries_blocks: the whole level is evaluated in
        # one vectorized kernel call; results must match the loop build
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, (400, 2))
        km = KernelMatrix(kernel=GaussianKernel(lengthscale=0.4), points=pts,
                          diagonal_shift=0.1)
        Hb, permb = km.to_hodlr(leaf_size=32, tol=1e-12, method="randomized",
                                construction="batched")
        Hl, perml = km.to_hodlr(leaf_size=32, tol=1e-12, method="randomized",
                                construction="loop")
        assert np.array_equal(permb, perml)
        dense = km.entries(permb, permb)[np.ix_(np.arange(400), np.arange(400))]
        scale = np.linalg.norm(dense)
        assert np.linalg.norm(Hb.to_dense() - dense) <= 1e-10 * scale
        assert np.linalg.norm(Hb.to_dense() - Hl.to_dense()) <= 1e-12 * scale

    def test_bare_evaluator_without_gather_support(self):
        # a plain closure (no entries_blocks) falls back to per-block
        # evaluation but still compresses through the batched kernels
        rng = np.random.default_rng(5)
        A = smooth_matrix(128, rng)

        def entries(rows, cols):
            return A[np.ix_(rows, cols)]

        tree = ClusterTree.balanced(128, leaf_size=16)
        Hb = build_hodlr(entries, tree,
                         config=CompressionConfig(tol=1e-12, method="svd",
                                                  construction="batched"))
        assert np.linalg.norm(Hb.to_dense() - A) <= 1e-10 * np.linalg.norm(A)

    def test_invalid_construction_raises(self):
        rng = np.random.default_rng(6)
        A = smooth_matrix(64, rng)
        tree = ClusterTree.balanced(64, leaf_size=16)
        with pytest.raises(ValueError, match="construction"):
            build_hodlr(A, tree, config=CompressionConfig(construction="turbo"))

    @pytest.mark.parametrize("variant", ["recursive", "flat", "batched"])
    def test_solve_equivalence_across_variants(self, variant):
        rng = np.random.default_rng(7)
        A = smooth_matrix(256, rng)
        tree = ClusterTree.balanced(256, leaf_size=32)
        Hb, Hl = build_both(A, tree, "svd")
        b = rng.standard_normal(256)
        xb = HODLRSolver(Hb, variant=variant).factorize().solve(b)
        xl = HODLRSolver(Hl, variant=variant).factorize().solve(b)
        assert np.linalg.norm(xb - xl) <= 1e-12 * np.linalg.norm(xl)
        assert np.linalg.norm(A @ xb - b) <= 1e-8 * np.linalg.norm(b)


# ======================================================================
# batched compressors (unit level)
# ======================================================================
class TestBatchedCompressors:
    def _blocks(self, rng, shapes, rank=6):
        out = []
        for m, n in shapes:
            out.append(
                rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
            )
        return out

    def test_svd_batched_heterogeneous_shapes(self):
        rng = np.random.default_rng(0)
        blocks = self._blocks(rng, [(20, 30), (16, 16), (20, 30), (16, 16), (8, 40)])
        factors = svd_compress_batched(blocks, tol=1e-12)
        for blk, f in zip(blocks, factors):
            assert f.error_vs(blk) <= 1e-10 * np.linalg.norm(blk)
            assert f.rank <= 7

    def test_randomized_batched_matches_blocks(self):
        rng = np.random.default_rng(1)
        blocks = self._blocks(rng, [(32, 32)] * 6 + [(24, 40)] * 3, rank=5)
        factors = randomized_compress_batched(
            blocks, tol=1e-11, rng=np.random.default_rng(2)
        )
        for blk, f in zip(blocks, factors):
            assert f.error_vs(blk) <= 1e-9 * np.linalg.norm(blk)

    def test_loop_policy_reproduces_per_block_path(self):
        rng = np.random.default_rng(2)
        blocks = self._blocks(rng, [(16, 16)] * 4, rank=3)
        cfg = CompressionConfig(tol=1e-12, method="svd")
        batched = compress_blocks_batched(blocks, cfg, policy=DEFAULT_POLICY)
        looped = compress_blocks_batched(blocks, cfg, policy=LOOP_POLICY)
        for fb, fl, blk in zip(batched, looped, blocks):
            scale = np.linalg.norm(blk)
            assert np.linalg.norm(fb.to_dense() - fl.to_dense()) <= 1e-12 * scale

    def test_empty_batch(self):
        assert svd_compress_batched([]) == []
        assert randomized_compress_batched([]) == []

    def test_complex_blocks(self):
        rng = np.random.default_rng(3)
        blocks = [
            (rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4)))
            @ (rng.standard_normal((4, 24)) + 1j * rng.standard_normal((4, 24)))
            for _ in range(5)
        ]
        for factors in (
            svd_compress_batched(blocks, tol=1e-12),
            randomized_compress_batched(blocks, tol=1e-12, rng=np.random.default_rng(4)),
        ):
            for blk, f in zip(blocks, factors):
                assert np.iscomplexobj(f.U)
                assert f.error_vs(blk) <= 1e-10 * np.linalg.norm(blk)


# ======================================================================
# the compiled apply plan
# ======================================================================
class TestApplyPlan:
    @pytest.mark.parametrize("complex_dtype", [False, True])
    @pytest.mark.parametrize("n,leaf", [(256, 32), (300, 32)])
    def test_plan_matches_loop_matvec(self, complex_dtype, n, leaf):
        rng = np.random.default_rng(0)
        A = smooth_matrix(n, rng, complex_dtype=complex_dtype)
        tree = ClusterTree.balanced(n, leaf_size=leaf)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        x = rng.standard_normal(n)
        X = rng.standard_normal((n, 3))
        y_loop, Y_loop = H.matvec(x), H.matvec(X)
        H.build_apply_plan()
        scale = np.linalg.norm(y_loop)
        assert np.linalg.norm(H.matvec(x) - y_loop) <= 1e-12 * scale
        assert np.linalg.norm(H.matvec(X) - Y_loop) <= 1e-12 * np.linalg.norm(Y_loop)

    def test_plan_handles_adaptive_ranks(self):
        # tol-driven ranks differ per block -> several (m, n, r) buckets
        # (2-D Gaussian kernel: off-diagonal ranks genuinely vary per level)
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0.0, 1.0, 300))
        A = np.exp(-0.5 * ((x[:, None] - x[None, :]) / 0.15) ** 2) + np.eye(300)
        tree = ClusterTree.balanced(300, leaf_size=32)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-8, method="svd"))
        ranks = {H.U[i].shape[1] for i in H.U}
        assert len(ranks) > 1  # genuinely heterogeneous
        x = rng.standard_normal(300)
        y_loop = H.matvec(x)
        H.build_apply_plan()
        assert np.linalg.norm(H.matvec(x) - y_loop) <= 1e-12 * np.linalg.norm(y_loop)

    def test_plan_dtype_promotion(self):
        rng = np.random.default_rng(2)
        A = smooth_matrix(128, rng)
        tree = ClusterTree.balanced(128, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        z = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y_loop = H.matvec(z)
        H.build_apply_plan()
        y_plan = H.matvec(z)
        assert np.iscomplexobj(y_plan)
        assert np.linalg.norm(y_plan - y_loop) <= 1e-12 * np.linalg.norm(y_loop)

    def test_plan_caching_and_invalidation(self):
        rng = np.random.default_rng(3)
        A = smooth_matrix(64, rng)
        tree = ClusterTree.balanced(64, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        assert H.apply_plan is None
        p1 = H.build_apply_plan()
        assert H.build_apply_plan() is p1  # cached
        p2 = H.build_apply_plan(force=True)
        assert p2 is not p1
        H.clear_apply_plan()
        assert H.apply_plan is None
        # astype / copy do not inherit a stale plan
        H.build_apply_plan()
        assert H.astype(np.float32).apply_plan is None
        assert H.copy().apply_plan is None

    def test_plan_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        A = smooth_matrix(64, rng)
        tree = ClusterTree.balanced(64, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        H.build_apply_plan()
        with pytest.raises(ValueError, match="dimension mismatch"):
            H.matvec(np.zeros(63))

    def test_operator_builds_plan_lazily(self):
        rng = np.random.default_rng(5)
        A = smooth_matrix(128, rng)
        op = HODLROperator(
            build_hodlr(A, ClusterTree.balanced(128, leaf_size=16),
                        config=CompressionConfig(tol=1e-12, method="svd")),
            SolverConfig(),
        )
        assert op.apply_plan is None
        x = rng.standard_normal(128)
        y = op @ x
        assert op.apply_plan is not None  # compiled on first application
        # the plan is owned by the operator: the caller's matrix is untouched
        assert op.hodlr.apply_plan is None
        assert np.linalg.norm(y - A @ x) <= 1e-8 * np.linalg.norm(x)
        # reused across subsequent applications (the Krylov-loop case)
        plan = op.apply_plan
        _ = op @ x
        assert op.apply_plan is plan
        # dtype refactorization invalidates it
        z = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        op.solve(z)
        assert op.apply_plan is None or op.apply_plan is not plan


# ======================================================================
# launch counting: O(levels x buckets), not O(nodes)
# ======================================================================
class TestLaunchCounters:
    def test_apply_plan_launch_count(self):
        rng = np.random.default_rng(0)
        n, leaf = 512, 32  # uniform tree: one shape bucket per level
        A = smooth_matrix(n, rng)
        tree = ClusterTree.balanced(n, leaf_size=leaf)
        H = build_hodlr(
            A, tree, config=CompressionConfig(tol=1e-10, method="svd", max_rank=8)
        )
        plan = H.build_apply_plan()
        rec = get_recorder()
        with rec.recording() as trace:
            H.matvec(rng.standard_normal(n))
        assert trace.num_kernel_launches == plan.launches_per_apply
        # uniform ranks: 1 diag bucket + 2 launches per level
        assert plan.launches_per_apply <= 1 + 2 * tree.levels
        # versus one Python iteration per node in the loop path
        assert plan.launches_per_apply < tree.num_nodes

    def test_batched_construction_launch_count(self):
        rng = np.random.default_rng(1)
        n, leaf = 512, 32
        A = smooth_matrix(n, rng)
        tree = ClusterTree.balanced(n, leaf_size=leaf)
        rec = get_recorder()
        with rec.recording() as trace:
            build_hodlr(
                A, tree,
                config=CompressionConfig(tol=1e-10, method="svd", construction="batched"),
            )
        # one batched SVD per shape bucket per level (uniform tree: 1 bucket)
        assert trace.num_kernel_launches == tree.levels
        with rec.recording() as trace_rand:
            build_hodlr(
                A, tree,
                config=CompressionConfig(tol=1e-10, method="randomized", max_rank=12,
                                         construction="batched"),
            )
        # fixed-rank randomized: sample gemm + qr + project gemm + svd per
        # bucket per level (no straggler rounds)
        assert trace_rand.num_kernel_launches == 4 * tree.levels
        # the loop path records no batched kernels at all (pure per-block numpy)
        with rec.recording() as trace_loop:
            build_hodlr(
                A, tree,
                config=CompressionConfig(tol=1e-10, method="svd", construction="loop"),
            )
        assert trace_loop.num_kernel_launches == 0


# ======================================================================
# KernelMatrix: diagonal shift + gather evaluator
# ======================================================================
class TestKernelMatrixEntries:
    def _km(self, n=60, shift=0.7):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, (n, 2))
        return KernelMatrix(kernel=GaussianKernel(lengthscale=0.3), points=pts,
                            diagonal_shift=shift)

    def _reference(self, km, rows, cols):
        block = np.asarray(km.kernel(km.points[rows], km.points[cols]))
        return block + km.diagonal_shift * (rows[:, None] == cols[None, :])

    def test_disjoint_ranges_skip_shift_work(self):
        km = self._km()
        rows, cols = np.arange(0, 20), np.arange(30, 55)
        np.testing.assert_allclose(km.entries(rows, cols),
                                   self._reference(km, rows, cols), rtol=0, atol=0)

    def test_overlapping_ranges_sparse_intersection(self):
        km = self._km()
        rows, cols = np.arange(10, 40), np.arange(25, 55)
        np.testing.assert_allclose(km.entries(rows, cols),
                                   self._reference(km, rows, cols), rtol=0, atol=0)

    def test_shuffled_and_duplicate_indices(self):
        km = self._km()
        rng = np.random.default_rng(1)
        rows = rng.permutation(60)[:30]
        cols = rng.permutation(60)[:30]
        np.testing.assert_allclose(km.entries(rows, cols),
                                   self._reference(km, rows, cols), rtol=0, atol=0)
        # duplicate columns exercise the dense-mask fallback
        cols_dup = np.concatenate([cols[:10], cols[:10], cols[10:20]])
        np.testing.assert_allclose(km.entries(rows, cols_dup),
                                   self._reference(km, rows, cols_dup), rtol=0, atol=0)

    def test_diagonal_block_gets_shift(self):
        km = self._km()
        rows = np.arange(12, 24)
        blk = km.entries(rows, rows)
        np.testing.assert_allclose(np.diag(blk),
                                   1.0 + km.diagonal_shift * np.ones(12))

    def test_entries_blocks_matches_entries(self):
        km = self._km()
        rows = np.stack([np.arange(0, 16), np.arange(16, 32), np.arange(5, 21)])
        cols = np.stack([np.arange(32, 48), np.arange(40, 56), np.arange(10, 26)])
        stack = km.entries_blocks(rows, cols)
        assert stack.shape == (3, 16, 16)
        for b in range(3):
            np.testing.assert_allclose(stack[b], km.entries(rows[b], cols[b]),
                                       rtol=0, atol=1e-14)

    def test_entries_blocks_shape_validation(self):
        km = self._km()
        with pytest.raises(ValueError, match="entries_blocks"):
            km.entries_blocks(np.arange(4), np.arange(4))

    def test_entries_never_mutates_kernel_output(self):
        # a kernel returning a cached buffer must not have the diagonal
        # shift accumulated into its own storage across calls
        cache = {}

        def caching_kernel(X, Y):
            key = (X.shape, Y.shape)
            if key not in cache:
                cache[key] = np.ones(X.shape[:-1] + (Y.shape[-2],))
            return cache[key]

        km = KernelMatrix(kernel=caching_kernel, points=np.arange(8.0),
                          diagonal_shift=1.0)
        rows = np.arange(4)
        first = km.entries(rows, rows)
        second = km.entries(rows, rows)
        np.testing.assert_allclose(first, second)
        np.testing.assert_allclose(np.diag(second), 2.0 * np.ones(4))
        # same guarantee for the multi-block gather evaluator
        rows2 = np.stack([np.arange(4), np.arange(4, 8)])
        s1 = km.entries_blocks(rows2, rows2)
        s2 = km.entries_blocks(rows2, rows2)
        np.testing.assert_allclose(s1, s2)
        np.testing.assert_allclose(np.diag(s2[0]), 2.0 * np.ones(4))

    def test_entries_blocks_readonly_kernel_output(self):
        # kernels built on np.broadcast_to return read-only stacks; the
        # shift path must copy instead of raising
        def const_kernel(X, Y):
            return np.broadcast_to(1.0, X.shape[:-1] + (Y.shape[-2],))

        km = KernelMatrix(kernel=const_kernel, points=np.arange(8.0),
                          diagonal_shift=0.5)
        rows = np.stack([np.arange(4), np.arange(4, 8)])
        stack = km.entries_blocks(rows, rows)
        np.testing.assert_allclose(stack[0], np.ones((4, 4)) + 0.5 * np.eye(4))
        np.testing.assert_allclose(stack[1], np.ones((4, 4)) + 0.5 * np.eye(4))


# ======================================================================
# the plan factorization on the batched kernels
# ======================================================================
class TestFlatBatchedLU:
    def test_policy_equivalence(self):
        rng = np.random.default_rng(0)
        A = smooth_matrix(256, rng)
        tree = ClusterTree.balanced(256, leaf_size=16)  # small leaves: the
        # vectorised batched LU crossover actually engages
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        b = rng.standard_normal(256)
        data = BigMatrices.from_hodlr(H)
        x_def = BatchedFactorization(
            data=data.copy(), context=ExecutionContext(policy=DEFAULT_POLICY)
        ).factorize().solve(b)
        x_loop = BatchedFactorization(
            data=data.copy(), context=ExecutionContext(policy=LOOP_POLICY)
        ).factorize().solve(b)
        assert np.linalg.norm(x_def - x_loop) <= 1e-12 * np.linalg.norm(x_loop)
        assert np.linalg.norm(A @ x_def - b) <= 1e-8 * np.linalg.norm(b)

    def test_flat_solver_respects_dispatch_policy(self):
        rng = np.random.default_rng(1)
        A = smooth_matrix(128, rng)
        tree = ClusterTree.balanced(128, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        b = rng.standard_normal(128)
        s1 = HODLRSolver(H, variant="flat", dispatch_policy=LOOP_POLICY).factorize()
        s2 = HODLRSolver(H, variant="flat").factorize()
        assert s1._impl.context.policy.bucketing is False
        assert s2._impl.context.policy.bucketing is True
        assert np.linalg.norm(s1.solve(b) - s2.solve(b)) <= 1e-12 * np.linalg.norm(b)

    def test_slogdet_unchanged(self):
        rng = np.random.default_rng(2)
        A = smooth_matrix(128, rng)
        A = A @ A.T + 128 * np.eye(128)  # SPD: well-defined logdet
        tree = ClusterTree.balanced(128, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        fac = BatchedFactorization(data=BigMatrices.from_hodlr(H)).factorize()
        _, expected = np.linalg.slogdet(A)
        assert abs(fac.logdet() - expected) <= 1e-6 * abs(expected)


# ======================================================================
# facade plumbing
# ======================================================================
class TestConstructionConfig:
    def test_round_trip(self):
        cfg = SolverConfig(compression=ApiCompressionConfig(construction="loop"))
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.compression.core_config().construction == "loop"
        assert ApiCompressionConfig().construction == "batched"

    def test_validation(self):
        with pytest.raises(ConfigError, match="construction"):
            ApiCompressionConfig(construction="nope")

    def test_facade_solves_agree(self):
        import repro

        rng = np.random.default_rng(0)
        b = rng.standard_normal(512)
        kwargs = dict(n=512, seed=11)
        res_b = repro.solve(
            "gaussian_kernel", b,
            config=SolverConfig(compression=ApiCompressionConfig(
                tol=1e-10, method="randomized", construction="batched")),
            **kwargs,
        )
        res_l = repro.solve(
            "gaussian_kernel", b,
            config=SolverConfig(compression=ApiCompressionConfig(
                tol=1e-10, method="randomized", construction="loop")),
            **kwargs,
        )
        assert res_b.relative_residual <= 1e-8
        assert np.linalg.norm(res_b.x - res_l.x) <= 1e-6 * np.linalg.norm(res_l.x)
