"""Unit tests for the HODLR matrix container."""

import numpy as np
import pytest

from repro import ClusterTree, CompressionConfig, build_hodlr, build_hodlr_from_dense
from conftest import hodlr_friendly_matrix


class TestConstruction:
    def test_from_dense_approximation_error(self, small_dense, small_tree):
        H = build_hodlr(small_dense, small_tree, tol=1e-12, method="svd")
        assert H.approximation_error(small_dense) < 1e-10

    def test_from_dense_convenience(self, small_dense):
        H = build_hodlr_from_dense(
            small_dense, config=CompressionConfig(leaf_size=32, tol=1e-10, method="svd")
        )
        assert H.approximation_error(small_dense) < 1e-8

    def test_from_evaluator(self, small_dense, small_tree):
        def entries(rows, cols):
            return small_dense[np.ix_(rows, cols)]

        H = build_hodlr(entries, small_tree, tol=1e-10, method="rook")
        assert H.approximation_error(small_dense) < 1e-8

    def test_shape_mismatch_raises(self, small_tree):
        with pytest.raises(ValueError):
            build_hodlr(np.zeros((10, 10)), small_tree)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            build_hodlr_from_dense(np.zeros((10, 12)))

    def test_from_dense_defaults_are_build_hodlr_defaults(self):
        n = 300
        A = hodlr_friendly_matrix(n, seed=3)
        H = build_hodlr_from_dense(A)
        ref = build_hodlr(A, ClusterTree.balanced(n, 64))
        assert [nd.index for nd in H.tree.leaves] == [nd.index for nd in ref.tree.leaves]
        for got, want in ((H.diag, ref.diag), (H.U, ref.U), (H.V, ref.V)):
            assert got.keys() == want.keys()
            for k in want:
                np.testing.assert_array_equal(got[k], want[k])

    def test_tolerance_controls_rank(self, small_dense, small_tree):
        loose = build_hodlr(small_dense, small_tree, tol=1e-3, method="svd")
        tight = build_hodlr(small_dense, small_tree, tol=1e-12, method="svd")
        assert loose.max_rank < tight.max_rank
        assert loose.nbytes < tight.nbytes

    def test_complex_matrix(self, complex_dense, complex_hodlr):
        assert complex_hodlr.dtype == np.complex128
        assert complex_hodlr.approximation_error(complex_dense) < 1e-10


class TestArithmetic:
    def test_matvec_matches_dense(self, small_dense, small_hodlr, rng):
        x = rng.standard_normal(small_dense.shape[0])
        np.testing.assert_allclose(small_hodlr.matvec(x), small_dense @ x, rtol=1e-9, atol=1e-9)

    def test_matvec_multiple_rhs(self, small_dense, small_hodlr, rng):
        X = rng.standard_normal((small_dense.shape[0], 4))
        np.testing.assert_allclose(small_hodlr.matvec(X), small_dense @ X, rtol=1e-9, atol=1e-9)

    def test_matmul_operator(self, small_dense, small_hodlr, rng):
        x = rng.standard_normal(small_dense.shape[0])
        np.testing.assert_allclose(small_hodlr @ x, small_dense @ x, rtol=1e-9, atol=1e-9)

    def test_matvec_dimension_mismatch(self, small_hodlr):
        with pytest.raises(ValueError, match="dimension mismatch"):
            small_hodlr.matvec(np.ones(10))
        # a 3-D operand gets the same message as ApplyPlan.matvec
        with pytest.raises(ValueError, match=r"a vector or a \(n, K\) block, got ndim=3"):
            small_hodlr.matvec(np.ones((small_hodlr.n, 2, 2)))

    def test_to_dense_round_trip(self, small_dense, small_tree):
        H = build_hodlr(small_dense, small_tree, tol=1e-13, method="svd")
        np.testing.assert_allclose(H.to_dense(), small_dense, atol=1e-9 * np.abs(small_dense).max())

    def test_complex_matvec(self, complex_dense, complex_hodlr, rng):
        x = rng.standard_normal(complex_dense.shape[0]) + 1j * rng.standard_normal(
            complex_dense.shape[0]
        )
        np.testing.assert_allclose(
            complex_hodlr.matvec(x), complex_dense @ x, rtol=1e-8, atol=1e-8
        )

    def test_diagonal_block_of_internal_node(self, small_dense, small_hodlr, small_tree):
        node = small_tree.node(2)
        blk = small_hodlr.diagonal_block(node)
        ref = small_dense[node.start : node.stop, node.start : node.stop]
        assert np.linalg.norm(blk - ref) / np.linalg.norm(ref) < 1e-9


class TestDiagnostics:
    def test_rank_profile_length(self, small_hodlr, small_tree):
        profile = small_hodlr.rank_profile()
        assert len(profile) == small_tree.levels
        assert all(r >= 1 for r in profile)
        assert small_hodlr.max_rank == max(profile)

    def test_storage_report_consistency(self, small_hodlr):
        report = small_hodlr.storage_report()
        assert report["total_bytes"] == pytest.approx(
            report["diag_bytes"] + report["basis_bytes"]
        )
        assert small_hodlr.nbytes == int(report["total_bytes"])
        assert small_hodlr.memory_gb == pytest.approx(report["total_gb"])

    def test_memory_smaller_than_dense(self):
        n = 1024
        A = hodlr_friendly_matrix(n, seed=5)
        H = build_hodlr_from_dense(
            A, config=CompressionConfig(leaf_size=64, tol=1e-8, method="svd")
        )
        assert H.nbytes < 0.5 * A.nbytes

    def test_astype_float32(self, small_dense, small_hodlr):
        H32 = small_hodlr.astype(np.float32)
        assert H32.dtype == np.float32
        assert H32.nbytes == pytest.approx(small_hodlr.nbytes / 2, rel=0.01)
        assert H32.approximation_error(small_dense) < 1e-5

    def test_copy_is_independent(self, small_hodlr):
        H2 = small_hodlr.copy()
        leaf_idx = small_hodlr.tree.leaves[0].index
        H2.diag[leaf_idx][0, 0] += 1000.0
        assert small_hodlr.diag[leaf_idx][0, 0] != H2.diag[leaf_idx][0, 0]
