"""Tests for structure-preserving HODLR arithmetic."""

import numpy as np
import pytest

from repro import ClusterTree, HODLRSolver, build_hodlr
from repro.core import arithmetic
from conftest import hodlr_friendly_matrix, spd_kernel_matrix


@pytest.fixture
def pair():
    n = 192
    A = hodlr_friendly_matrix(n, seed=21)
    B = spd_kernel_matrix(n, seed=22, nugget=1.0)
    tree = ClusterTree.balanced(n, leaf_size=24)
    HA = build_hodlr(A, tree, tol=1e-12, method="svd")
    HB = build_hodlr(B, tree, tol=1e-12, method="svd")
    return A, B, HA, HB


class TestAdd:
    def test_add_matches_dense(self, pair):
        A, B, HA, HB = pair
        HC = arithmetic.add(HA, HB, tol=1e-12)
        assert HC.approximation_error(A + B) < 1e-9

    def test_add_then_factorize(self, pair, rng):
        A, B, HA, HB = pair
        HC = arithmetic.add(HA, HB, tol=1e-12)
        solver = HODLRSolver(HC, variant="batched").factorize()
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm((A + B) @ x - b) / np.linalg.norm(b) < 1e-8

    def test_recompression_controls_rank_growth(self, pair):
        A, B, HA, HB = pair
        loose = arithmetic.add(HA, HB, tol=1e-4)
        tight = arithmetic.add(HA, HB, tol=1e-13)
        assert max(loose.rank_profile()) <= max(tight.rank_profile())
        # ranks never exceed the sum of the operand ranks
        assert max(tight.rank_profile()) <= max(HA.rank_profile()) + max(HB.rank_profile())

    def test_mismatched_trees_raise(self, pair):
        A, _, HA, _ = pair
        other_tree = ClusterTree.balanced(A.shape[0], leaf_size=48)
        H_other = build_hodlr(A, other_tree, tol=1e-10, method="svd")
        with pytest.raises(ValueError):
            arithmetic.add(HA, H_other)


class TestScaleAndDiagonal:
    def test_scale(self, pair, rng):
        A, _, HA, _ = pair
        H2 = arithmetic.scale(HA, -2.5)
        x = rng.standard_normal(A.shape[0])
        np.testing.assert_allclose(H2.matvec(x), -2.5 * (A @ x), rtol=1e-8, atol=1e-8)

    def test_add_scalar_diagonal(self, pair):
        A, _, HA, _ = pair
        H2 = arithmetic.add_diagonal(HA, 3.0)
        assert H2.approximation_error(A + 3.0 * np.eye(A.shape[0])) < 1e-9
        assert H2.symmetric == HA.symmetric

    def test_diagonal_shift_keeps_symmetric(self):
        n = 256
        x = np.sort(np.random.default_rng(4).uniform(0.0, 1.0, n))
        A = np.exp(-8.0 * np.abs(x[:, None] - x[None, :]))
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=32), tol=1e-12, method="svd")
        assert H.symmetric
        H2 = arithmetic.add_diagonal(H, 0.5)
        assert H2.symmetric
        assert H2.approximation_error(A + 0.5 * np.eye(n)) < 1e-9

    def test_add_vector_diagonal(self, pair, rng):
        A, _, HA, _ = pair
        d = rng.uniform(1.0, 2.0, A.shape[0])
        H2 = arithmetic.add_diagonal(HA, d)
        assert H2.approximation_error(A + np.diag(d)) < 1e-9

    def test_bad_diagonal_shape(self, pair):
        _, _, HA, _ = pair
        with pytest.raises(ValueError):
            arithmetic.add_diagonal(HA, np.ones(3))

    def test_diagonal_and_trace(self, pair):
        A, _, HA, _ = pair
        np.testing.assert_allclose(arithmetic.diagonal(HA), np.diag(A), rtol=1e-10)
        assert arithmetic.trace(HA) == pytest.approx(np.trace(A), rel=1e-10)


class TestLowRankUpdate:
    def test_rank_k_update(self, pair, rng):
        A, _, HA, _ = pair
        n = A.shape[0]
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n, 3))
        H2 = arithmetic.add_low_rank_update(HA, X, Y, tol=1e-12)
        assert H2.approximation_error(A + X @ Y.T) < 1e-9

    def test_update_then_solve(self, pair, rng):
        A, _, HA, _ = pair
        n = A.shape[0]
        X = rng.standard_normal((n, 2))
        Y = rng.standard_normal((n, 2))
        H2 = arithmetic.add_low_rank_update(HA, X, Y, tol=1e-12)
        solver = HODLRSolver(H2, variant="batched").factorize()
        b = rng.standard_normal(n)
        x = solver.solve(b)
        assert np.linalg.norm((A + X @ Y.T) @ x - b) / np.linalg.norm(b) < 1e-8

    def test_shape_validation(self, pair, rng):
        _, _, HA, _ = pair
        with pytest.raises(ValueError):
            arithmetic.add_low_rank_update(HA, rng.standard_normal((10, 2)),
                                           rng.standard_normal((HA.n, 2)))


class TestTranspose:
    def test_transpose_matches_dense(self, pair, rng):
        A, _, HA, _ = pair
        HT = arithmetic.transpose(HA)
        x = rng.standard_normal(A.shape[0])
        np.testing.assert_allclose(HT.matvec(x), A.T @ x, rtol=1e-8, atol=1e-8)

    def test_transpose_of_complex_matrix_is_conjugate(self, complex_dense, complex_hodlr, rng):
        HT = arithmetic.transpose(complex_hodlr)
        x = rng.standard_normal(complex_dense.shape[0])
        np.testing.assert_allclose(HT.matvec(x), complex_dense.conj().T @ x, rtol=1e-7, atol=1e-8)

    def test_double_transpose_is_identity(self, pair, rng):
        A, _, HA, _ = pair
        HTT = arithmetic.transpose(arithmetic.transpose(HA))
        x = rng.standard_normal(A.shape[0])
        np.testing.assert_allclose(HTT.matvec(x), HA.matvec(x), rtol=1e-10)
