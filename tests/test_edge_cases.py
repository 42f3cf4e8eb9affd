"""Edge-case tests: degenerate ranks, minimal trees, and unusual inputs."""

import numpy as np
import pytest

from repro import (
    BatchedFactorization,
    ClusterTree,
    HODLRSolver,
    build_hodlr,
)
from conftest import hodlr_friendly_matrix


class TestZeroRankOffDiagonals:
    """A block-diagonal matrix compresses to rank-0 off-diagonal blocks, which
    exercises the ``r == 0`` branches of every factorization variant."""

    @pytest.fixture
    def block_diag_problem(self, rng):
        n = 128
        A = np.zeros((n, n))
        for start in range(0, n, 32):
            block = rng.standard_normal((32, 32)) + 32 * np.eye(32)
            A[start : start + 32, start : start + 32] = block
        tree = ClusterTree.balanced(n, leaf_size=32)
        H = build_hodlr(A, tree, tol=1e-10, method="svd")
        return A, H

    def test_ranks_are_zero(self, block_diag_problem):
        _, H = block_diag_problem
        assert max(H.rank_profile()) == 0
        assert H.storage.level_ranks == [0] * H.tree.levels

    @pytest.mark.parametrize("variant", ["recursive", "batched"])
    def test_solve_block_diagonal(self, block_diag_problem, variant, rng):
        A, H = block_diag_problem
        solver = HODLRSolver(H, variant=variant).factorize()
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_logdet_block_diagonal(self, block_diag_problem):
        A, H = block_diag_problem
        solver = HODLRSolver(H, variant="batched").factorize()
        sign_ref, logdet_ref = np.linalg.slogdet(A)
        sign, logabs = solver.slogdet()
        assert logabs == pytest.approx(logdet_ref, rel=1e-9)


class TestPartiallyZeroLevels:
    """Matrices whose coupling only exists at the coarsest level: the finer
    levels carry rank-0 blocks while level 1 does not."""

    def test_mixed_rank_levels(self, rng):
        n = 128
        A = np.zeros((n, n))
        for start in range(0, n, 16):
            A[start : start + 16, start : start + 16] = (
                rng.standard_normal((16, 16)) + 16 * np.eye(16)
            )
        # rank-2 coupling only between the two coarsest halves
        u = rng.standard_normal((64, 2))
        v = rng.standard_normal((64, 2))
        A[:64, 64:] += u @ v.T
        A[64:, :64] += v @ u.T
        tree = ClusterTree.balanced(n, leaf_size=16)
        H = build_hodlr(A, tree, tol=1e-10, method="svd")
        profile = H.rank_profile()
        assert profile[0] >= 2 and all(r == 0 for r in profile[1:])
        fac = BatchedFactorization(hodlr=H).factorize()
        b = rng.standard_normal(n)
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9


class TestMinimalTrees:
    def test_single_level_tree(self, rng):
        """L = 1: two leaves and a single off-diagonal pair."""
        n = 96
        A = hodlr_friendly_matrix(n, seed=40)
        tree = ClusterTree(n, levels=1)
        H = build_hodlr(A, tree, tol=1e-12, method="svd")
        for variant in ["recursive", "batched"]:
            solver = HODLRSolver(H, variant=variant).factorize()
            b = rng.standard_normal(n)
            x = solver.solve(b)
            assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    def test_tiny_leaves(self, rng):
        """Leaves of size 2 (the smallest allowed by the tree construction)."""
        n = 64
        A = hodlr_friendly_matrix(n, seed=41)
        tree = ClusterTree.balanced(n, leaf_size=2)
        assert tree.levels == 5
        H = build_hodlr(A, tree, tol=1e-12, method="svd")
        solver = HODLRSolver(H, variant="batched").factorize()
        b = rng.standard_normal(n)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_odd_sizes_and_deep_trees(self, rng):
        """Non-power-of-two sizes with the deepest tree the size allows."""
        for n in [97, 211, 333]:
            A = hodlr_friendly_matrix(n, seed=n)
            tree = ClusterTree.balanced(n, leaf_size=8)
            H = build_hodlr(A, tree, tol=1e-11, method="svd")
            solver = HODLRSolver(H, variant="batched").factorize()
            b = rng.standard_normal(n)
            x = solver.solve(b)
            assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8


class TestIdentityAndDiagonalMatrices:
    @pytest.mark.parametrize("variant", ["recursive", "batched"])
    def test_identity(self, variant, rng):
        n = 64
        tree = ClusterTree.balanced(n, leaf_size=16)
        H = build_hodlr(np.eye(n), tree, tol=1e-14, method="svd")
        solver = HODLRSolver(H, variant=variant).factorize()
        b = rng.standard_normal(n)
        np.testing.assert_allclose(solver.solve(b), b, atol=1e-12)
        assert solver.logdet() == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_matrix(self, rng):
        n = 80
        d = rng.uniform(1.0, 5.0, n)
        tree = ClusterTree.balanced(n, leaf_size=20)
        H = build_hodlr(np.diag(d), tree, tol=1e-14, method="svd")
        solver = HODLRSolver(H, variant="batched").factorize()
        b = rng.standard_normal(n)
        np.testing.assert_allclose(solver.solve(b), b / d, rtol=1e-10)
        assert solver.logdet() == pytest.approx(np.sum(np.log(d)), rel=1e-10)


class TestMultipleSolvesReuseFactorization:
    def test_many_right_hand_sides_sequentially(self, small_dense, small_hodlr, rng):
        solver = HODLRSolver(small_hodlr, variant="batched").factorize()
        for _ in range(5):
            b = rng.standard_normal(small_hodlr.n)
            x = solver.solve(b)
            assert np.linalg.norm(small_dense @ x - b) / np.linalg.norm(b) < 1e-9

    def test_recursive_solution_is_deterministic(self, small_hodlr, rng):
        solver = HODLRSolver(small_hodlr, variant="recursive").factorize()
        b = rng.standard_normal(small_hodlr.n)
        x1 = solver.solve(b)
        x2 = solver.solve(b)
        np.testing.assert_array_equal(x1, x2)


class TestNonFiniteRightHandSides:
    """A NaN or inf in ``b`` would spread through every sweep into all of
    ``x``; the operator refuses it before solving."""

    def test_solve_rejects_nan(self):
        import repro

        op = repro.build_operator("gaussian_kernel", n=512)
        b = np.random.default_rng(0).standard_normal(512)
        x = op.solve(b)
        b[7] = np.nan
        b[300] = np.inf
        with pytest.raises(ValueError, match="2 non-finite"):
            op.solve(b)
        b[[7, 300]] = 1.0
        assert np.all(np.isfinite(op.solve(b)))
        assert not np.array_equal(op.solve(b), x)

    def test_solve_many_rejects_nan(self):
        import repro

        B = np.random.default_rng(1).standard_normal((512, 4))
        B[3, 2] = np.nan
        with pytest.raises(ValueError, match="1 non-finite"):
            repro.solve_many("gaussian_kernel", B, n=512)
