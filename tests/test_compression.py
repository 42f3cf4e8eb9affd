"""Unit tests for the compression kernels (SVD, rook-pivoted ACA, randomized)."""

import numpy as np
import pytest

from repro import (
    ClusterTree,
    CompressionConfig,
    ExecutionContext,
    build_hodlr,
    compress_block,
    svd_compress,
)
from repro.backends.dispatch import LOOP_POLICY
from repro.core.compression import (
    compress_block_stack,
    randomized_compress,
    randomized_compress_dense,
    rook_pivot_compress,
    rook_pivot_compress_dense,
)


def smooth_block(m, n, seed=0, scale=5.0):
    """A numerically low-rank block: samples of a smooth kernel off the diagonal."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, m))
    y = np.sort(rng.uniform(2.0, 3.0, n))
    return 1.0 / (1.0 + scale * np.abs(x[:, None] - y[None, :]))


class TestSVDCompress:
    def test_accuracy(self):
        B = smooth_block(60, 50)
        f = svd_compress(B, tol=1e-10)
        assert np.linalg.norm(f.to_dense() - B) <= 1e-8 * np.linalg.norm(B)

    def test_rank_is_minimal(self):
        B = smooth_block(60, 50)
        f = svd_compress(B, tol=1e-6)
        s = np.linalg.svd(B, compute_uv=False)
        expected = int(np.sum(s > 1e-6 * s[0]))
        assert f.rank == expected

    def test_max_rank_cap(self):
        B = smooth_block(40, 40)
        f = svd_compress(B, tol=0.0, max_rank=3)
        assert f.rank == 3


class TestRookPivot:
    def test_accuracy_vs_dense(self):
        B = smooth_block(80, 70, seed=1)
        f = rook_pivot_compress_dense(B, tol=1e-10)
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-8

    def test_rank_close_to_svd_rank(self):
        B = smooth_block(80, 70, seed=2)
        f_rook = rook_pivot_compress_dense(B, tol=1e-8)
        f_svd = svd_compress(B, tol=1e-8)
        assert f_rook.rank <= f_svd.rank + 5

    def test_lazy_evaluation_counts(self):
        """Rook pivoting should evaluate O((m + n) r) entries, not the full block."""
        B = smooth_block(200, 180, seed=3)
        counter = {"entries": 0}

        def entries(rows, cols):
            counter["entries"] += len(rows) * len(cols)
            return B[np.ix_(rows, cols)]

        f = rook_pivot_compress(entries, 200, 180, tol=1e-8)
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-6
        assert counter["entries"] < 0.5 * B.size

    def test_exactly_low_rank_block(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 25))
        f = rook_pivot_compress_dense(B, tol=1e-12)
        assert f.rank <= 6
        np.testing.assert_allclose(f.to_dense(), B, atol=1e-9 * np.abs(B).max())

    def test_zero_block(self):
        B = np.zeros((10, 12))
        f = rook_pivot_compress_dense(B, tol=1e-12)
        np.testing.assert_array_equal(f.to_dense(), B)

    def test_empty_block(self):
        f = rook_pivot_compress_dense(np.zeros((0, 5)), tol=1e-12)
        assert f.shape == (0, 5)

    def test_complex_block(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0, 1, 40))
        y = np.sort(rng.uniform(2, 3, 35))
        B = np.exp(1j * 3.0 * np.abs(x[:, None] - y[None, :])) / (
            1.0 + np.abs(x[:, None] - y[None, :])
        )
        f = rook_pivot_compress_dense(B, tol=1e-9)
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-7

    def test_max_rank_respected(self):
        B = smooth_block(50, 50, seed=6)
        f = rook_pivot_compress_dense(B, tol=0.0, max_rank=5)
        assert f.rank <= 5


class TestRandomized:
    def test_accuracy_from_matvec_access(self):
        B = smooth_block(90, 75, seed=7)
        f = randomized_compress(
            matvec=lambda X: B @ X,
            rmatvec=lambda X: B.T @ X,
            m=90,
            n=75,
            tol=1e-9,
            rng=np.random.default_rng(0),
        )
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-7

    def test_dense_wrapper(self):
        B = smooth_block(60, 60, seed=8)
        f = randomized_compress_dense(B, tol=1e-8, rng=np.random.default_rng(1))
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-6

    def test_max_rank(self):
        B = smooth_block(50, 50, seed=9)
        f = randomized_compress_dense(B, tol=0.0, max_rank=4, rng=np.random.default_rng(2))
        assert f.rank <= 4

    def test_reproducible_with_seeded_rng(self):
        B = smooth_block(40, 40, seed=10)
        f1 = randomized_compress_dense(B, tol=1e-8, rng=np.random.default_rng(7))
        f2 = randomized_compress_dense(B, tol=1e-8, rng=np.random.default_rng(7))
        np.testing.assert_allclose(f1.to_dense(), f2.to_dense())

    @pytest.mark.parametrize("dtype", [np.complex64, np.float32])
    def test_single_precision_factors_keep_the_block_dtype(self, dtype):
        rng = np.random.default_rng(12)
        B = rng.standard_normal((100, 5)) @ rng.standard_normal((5, 120))
        if dtype == np.complex64:
            B = B + 1j * rng.standard_normal((100, 5)) @ rng.standard_normal((5, 120))
        B = B.astype(dtype)
        cfg = CompressionConfig(tol=1e-5, method="randomized")
        factors = [randomized_compress_dense(B, tol=1e-5, rng=np.random.default_rng(0))]
        for ctx in (None, ExecutionContext(policy=LOOP_POLICY)):
            factors += compress_block_stack(B[None], cfg, context=ctx)
        for f in factors:
            assert f.U.dtype == dtype and f.V.dtype == dtype
            assert np.linalg.norm(f.to_dense() - B) <= 1e-4 * np.linalg.norm(B)

        x = np.sort(rng.uniform(0.0, 1.0, 256))
        A = (np.exp(-np.abs(x[:, None] - x[None, :]) / 0.5) + np.eye(256)).astype(dtype)
        H = build_hodlr(
            A, ClusterTree.balanced(256, leaf_size=32),
            tol=1e-5, method="randomized", context=ExecutionContext(policy=LOOP_POLICY),
        )
        assert {u.dtype for u in H.U.values()} | {v.dtype for v in H.V.values()} == {
            np.dtype(dtype)
        }


class TestDispatcher:
    @pytest.mark.parametrize("method", ["svd", "rook", "randomized"])
    def test_all_methods_agree(self, method):
        B = smooth_block(64, 60, seed=11)

        def entries(rows, cols):
            return B[np.ix_(rows, cols)]

        config = CompressionConfig(tol=1e-9, method=method, rng=np.random.default_rng(3))
        f = compress_block(entries, 64, 60, config)
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-7

    def test_unknown_method_raises(self):
        config = CompressionConfig(method="nope")
        with pytest.raises(ValueError):
            compress_block(lambda r, c: np.zeros((len(r), len(c))), 4, 4, config)
