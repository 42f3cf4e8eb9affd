"""Correctness tests for both factorization variants.

The recursive algorithm (section III-A) and the plan-backed level-batched
algorithm (Algorithms 1-4) must solve the same systems to round-off, for
real and complex matrices, single and multiple right-hand sides, and
varying tree depths.
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
from conftest import hodlr_friendly_matrix, complex_test_matrix, spd_kernel_matrix


def make_problem(n=256, leaf=32, tol=1e-12, seed=0, kind="real"):
    if kind == "real":
        A = hodlr_friendly_matrix(n, seed=seed)
    elif kind == "complex":
        A = complex_test_matrix(n, seed=seed)
    elif kind == "spd":
        A = spd_kernel_matrix(n, seed=seed)
    else:  # pragma: no cover
        raise ValueError(kind)
    tree = ClusterTree.balanced(n, leaf_size=leaf)
    H = build_hodlr(A, tree, tol=tol, method="svd")
    return A, H


def factorize(H, variant):
    if variant == "recursive":
        return RecursiveFactorization(hodlr=H).factorize()
    if variant == "batched":
        return BatchedFactorization(hodlr=H).factorize()
    raise ValueError(variant)


VARIANTS = ["recursive", "batched"]


class TestSolveCorrectness:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_residual_real(self, variant, rng):
        A, H = make_problem()
        fac = factorize(H, variant)
        b = rng.standard_normal(A.shape[0])
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_residual_complex(self, variant, rng):
        A, H = make_problem(n=192, leaf=24, kind="complex")
        fac = factorize(H, variant)
        b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_multiple_rhs(self, variant, rng):
        A, H = make_problem()
        fac = factorize(H, variant)
        B = rng.standard_normal((A.shape[0], 5))
        X = fac.solve(B)
        assert X.shape == B.shape
        assert np.linalg.norm(A @ X - B) / np.linalg.norm(B) < 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_dense_solve(self, variant, rng):
        A, H = make_problem()
        fac = factorize(H, variant)
        b = rng.standard_normal(A.shape[0])
        x_ref = np.linalg.solve(A, b)
        x = fac.solve(b)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_all_variants_agree(self, rng):
        A, H = make_problem(seed=3)
        b = rng.standard_normal(A.shape[0])
        sols = [factorize(H, v).solve(b) for v in VARIANTS]
        np.testing.assert_allclose(sols[0], sols[1], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_varying_tree_depth(self, variant, levels, rng):
        n = 256
        A = hodlr_friendly_matrix(n, seed=levels)
        tree = ClusterTree.balanced(n, levels=levels)
        H = build_hodlr(A, tree, tol=1e-12, method="svd")
        fac = factorize(H, variant)
        b = rng.standard_normal(n)
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_power_of_two_size(self, variant, rng):
        n = 300
        A = hodlr_friendly_matrix(n, seed=11)
        tree = ClusterTree.balanced(n, leaf_size=40)
        H = build_hodlr(A, tree, tol=1e-12, method="svd")
        fac = factorize(H, variant)
        b = rng.standard_normal(n)
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_solve_before_factorize_raises(self, variant):
        _, H = make_problem(n=64, leaf=16)
        if variant == "recursive":
            fac = RecursiveFactorization(hodlr=H)
        else:
            fac = BatchedFactorization(hodlr=H)
        with pytest.raises(RuntimeError):
            fac.solve(np.ones(64))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_wrong_rhs_size_raises(self, variant):
        _, H = make_problem(n=64, leaf=16)
        fac = factorize(H, variant)
        with pytest.raises(ValueError):
            fac.solve(np.ones(65))


class TestFactorizationEquivalence:
    """Theorem 5: the algorithms compute the factorization A = A^(L) ... A^(1)."""

    def test_flat_Ybig_equals_recursive_Y(self):
        """The Y bases produced by Algorithm 1 equal A_alpha^{-1} U_alpha."""
        A, H = make_problem(n=128, leaf=32, seed=5)
        tree = H.tree
        flat = BatchedFactorization(hodlr=H).factorize()
        Y = flat.factor_plan.y_views()
        for level in range(1, tree.levels + 1):
            for idx in tree.level_indices(level):
                node = tree.node(idx)
                Asub = A[node.start : node.stop, node.start : node.stop]
                U = H.U[idx]
                Y_expected = np.linalg.solve(Asub, U)
                Y_stored = Y[idx][:, : U.shape[1]]
                assert (
                    np.linalg.norm(Y_stored - Y_expected)
                    / max(np.linalg.norm(Y_expected), 1e-300)
                    < 1e-7
                )

    def test_batched_and_flat_produce_same_Ybig(self):
        """The solver's plan factorization equals the directly built one."""
        _, H = make_problem(n=256, leaf=32, seed=6)
        flat = HODLRSolver(H, variant="batched").factorize()._impl
        batched = BatchedFactorization(hodlr=H).factorize()
        Y_flat = flat.factor_plan.y_views()
        Y_batched = batched.factor_plan.y_views()
        assert Y_flat.keys() == Y_batched.keys()
        assert all(np.array_equal(Y_flat[k], Y_batched[k]) for k in Y_flat)


class TestDeterminant:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_logdet_matches_dense(self, variant):
        A, H = make_problem(n=192, leaf=24, seed=7)
        fac = factorize(H, variant)
        sign_ref, logdet_ref = np.linalg.slogdet(A)
        sign, logabs = fac.slogdet()
        assert np.real(sign) * sign_ref > 0
        assert logabs == pytest.approx(logdet_ref, rel=1e-8)
        assert fac.logdet() == pytest.approx(logdet_ref, rel=1e-8)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_logdet_complex(self, variant):
        A, H = make_problem(n=128, leaf=16, kind="complex", seed=8)
        fac = factorize(H, variant)
        sign_ref, logdet_ref = np.linalg.slogdet(A)
        sign, logabs = fac.slogdet()
        assert logabs == pytest.approx(logdet_ref, rel=1e-8)
        # phases agree
        assert np.abs(sign - sign_ref) < 1e-6

    def test_spd_logdet_positive(self):
        A, H = make_problem(n=128, leaf=16, kind="spd", seed=9)
        fac = factorize(H, "batched")
        assert fac.logdet() == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-7)


class TestLowAccuracyFactorization:
    """Loose compression gives an approximate inverse (the preconditioner regime)."""

    def test_loose_tolerance_residual_scales_with_tol(self, rng):
        n = 256
        A = hodlr_friendly_matrix(n, seed=10, shift=float(n))
        tree = ClusterTree.balanced(n, leaf_size=32)
        b = rng.standard_normal(n)
        residuals = {}
        for tol in [1e-2, 1e-6, 1e-12]:
            H = build_hodlr(A, tree, tol=tol, method="svd")
            fac = BatchedFactorization(hodlr=H).factorize()
            x = fac.solve(b)
            residuals[tol] = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
        assert residuals[1e-12] < residuals[1e-6] < residuals[1e-2]
        assert residuals[1e-12] < 1e-9
