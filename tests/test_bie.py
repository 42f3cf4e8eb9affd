"""Tests for the Laplace and Helmholtz boundary integral equations and proxy compression."""

import numpy as np
import pytest

from repro import (
    EllipseContour,
    HODLRSolver,
    HelmholtzCombinedBIE,
    LaplaceDoubleLayerBIE,
    CompressionConfig,
    StarContour,
    build_hodlr_proxy,
    helmholtz_dirichlet_reference,
    laplace_dirichlet_reference,
)
from repro.bie.proxy import compress_block_proxy, interpolative_row_skeleton
from repro.core.cluster_tree import ClusterTree

EXTERIOR_TEST_POINTS = np.array([[3.0, 1.0], [-2.6, -2.1], [0.4, 2.6], [4.0, -0.5]])


@pytest.fixture(scope="module")
def laplace_bie():
    return LaplaceDoubleLayerBIE(contour=StarContour(), n=512)


@pytest.fixture(scope="module")
def helmholtz_bie():
    return HelmholtzCombinedBIE(contour=StarContour(), n=768, kappa=10.0)


class TestLaplaceBIE:
    def test_exterior_solution_accuracy(self, laplace_bie):
        """Solve (21) for manufactured data and check the potential at exterior points."""
        u_exact = laplace_dirichlet_reference(
            np.array([[0.1, -0.05], [0.3, 0.2]]),
            charges=np.array([1.0, -0.4]),
            dipoles=np.array([0.5 + 0.2j, 0.0]),
        )
        f = laplace_bie.boundary_data(u_exact)
        A = laplace_bie.dense()
        sigma = np.linalg.solve(A, f)
        u_num = laplace_bie.evaluate_potential(sigma, EXTERIOR_TEST_POINTS)
        err = np.max(np.abs(u_num - u_exact(EXTERIOR_TEST_POINTS)))
        assert err < 1e-10

    def test_convergence_with_n(self):
        """The trapezoidal Nystrom discretization converges rapidly on a smooth contour."""
        u_exact = laplace_dirichlet_reference(np.array([[0.2, 0.1]]), charges=np.array([1.0]))
        errors = []
        for n in [64, 128, 256]:
            bie = LaplaceDoubleLayerBIE(contour=StarContour(), n=n)
            sigma = np.linalg.solve(bie.dense(), bie.boundary_data(u_exact))
            u_num = bie.evaluate_potential(sigma, EXTERIOR_TEST_POINTS)
            errors.append(np.max(np.abs(u_num - u_exact(EXTERIOR_TEST_POINTS))))
        assert errors[2] < errors[0]
        assert errors[2] < 1e-8

    def test_second_kind_conditioning(self, laplace_bie):
        """Second-kind formulation: the system stays well conditioned as N grows."""
        A = laplace_bie.dense()
        cond = np.linalg.cond(A)
        assert cond < 100.0

    def test_entries_match_dense(self, laplace_bie, rng):
        A = laplace_bie.dense()
        rows = rng.integers(0, laplace_bie.n, size=7)
        cols = rng.integers(0, laplace_bie.n, size=9)
        np.testing.assert_allclose(laplace_bie.entries(rows, cols), A[np.ix_(rows, cols)])

    def test_matvec_matches_dense(self, laplace_bie, rng):
        A = laplace_bie.dense()
        x = rng.standard_normal(laplace_bie.n)
        np.testing.assert_allclose(laplace_bie.matvec(x, block_size=100), A @ x, rtol=1e-11)

    def test_hodlr_compressibility(self, laplace_bie):
        """Off-diagonal blocks of the Laplace BIE matrix have small epsilon-rank (paper appendix)."""
        A = laplace_bie.dense()
        n = laplace_bie.n
        block = A[: n // 2, n // 2 :]
        s = np.linalg.svd(block, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        assert rank <= 48


class TestHelmholtzBIE:
    def test_exterior_solution_accuracy(self, helmholtz_bie):
        u_exact = helmholtz_dirichlet_reference(
            np.array([[0.1, 0.0], [-0.3, 0.1]]),
            strengths=np.array([1.0, 0.5 - 0.25j]),
            kappa=helmholtz_bie.kappa,
        )
        f = helmholtz_bie.boundary_data(u_exact)
        A = helmholtz_bie.dense()
        sigma = np.linalg.solve(A, f)
        u_num = helmholtz_bie.evaluate_potential(sigma, EXTERIOR_TEST_POINTS)
        err = np.max(np.abs(u_num - u_exact(EXTERIOR_TEST_POINTS)))
        assert err < 1e-5

    def test_high_order_quadrature_beats_low_order(self):
        """The 6th-order Kapur-Rokhlin rule is much more accurate than the 2nd-order one."""
        kappa = 8.0
        u_exact = helmholtz_dirichlet_reference(np.array([[0.1, 0.0]]), np.array([1.0]), kappa)
        errs = {}
        for order in [2, 6]:
            bie = HelmholtzCombinedBIE(contour=StarContour(), n=512, kappa=kappa,
                                       quadrature_order=order)
            sigma = np.linalg.solve(bie.dense(), bie.boundary_data(u_exact))
            u_num = bie.evaluate_potential(sigma, EXTERIOR_TEST_POINTS)
            errs[order] = np.max(np.abs(u_num - u_exact(EXTERIOR_TEST_POINTS)))
        assert errs[6] < 0.05 * errs[2]

    def test_matrix_is_complex_and_well_conditioned(self, helmholtz_bie):
        A = helmholtz_bie.dense()
        assert np.iscomplexobj(A)
        assert np.linalg.cond(A) < 1e4

    def test_eta_defaults_to_kappa(self):
        bie = HelmholtzCombinedBIE(contour=EllipseContour(), n=128, kappa=5.0)
        assert bie.eta == 5.0

    def test_entries_match_dense(self, helmholtz_bie, rng):
        A = helmholtz_bie.dense()
        rows = rng.integers(0, helmholtz_bie.n, size=6)
        cols = rng.integers(0, helmholtz_bie.n, size=8)
        np.testing.assert_allclose(helmholtz_bie.entries(rows, cols), A[np.ix_(rows, cols)])

    def test_ranks_exceed_laplace_ranks(self, laplace_bie):
        """Oscillatory Helmholtz kernels compress worse than Laplace (paper, section IV-C)."""
        n = 512
        lap = LaplaceDoubleLayerBIE(contour=StarContour(), n=n)
        hel = HelmholtzCombinedBIE(contour=StarContour(), n=n, kappa=20.0)
        s_lap = np.linalg.svd(lap.dense()[: n // 2, n // 2 :], compute_uv=False)
        s_hel = np.linalg.svd(hel.dense()[: n // 2, n // 2 :], compute_uv=False)
        rank_lap = int(np.sum(s_lap > 1e-8 * s_lap[0]))
        rank_hel = int(np.sum(s_hel > 1e-8 * s_hel[0]))
        assert rank_hel > rank_lap


class TestInterpolativeDecomposition:
    def test_id_reconstruction(self, rng):
        x = np.sort(rng.uniform(0, 1, 60))
        y = np.sort(rng.uniform(2, 3, 40))
        S = 1.0 / (x[:, None] - y[None, :]) ** 2
        skel, X = interpolative_row_skeleton(S, tol=1e-10)
        assert len(skel) < 30
        np.testing.assert_allclose(X @ S[skel, :], S, rtol=1e-7, atol=1e-9)
        # skeleton rows interpolate themselves exactly
        np.testing.assert_allclose(X[skel, :], np.eye(len(skel)), atol=1e-12)

    def test_id_max_rank(self, rng):
        S = rng.standard_normal((30, 20))
        skel, X = interpolative_row_skeleton(S, tol=0.0, max_rank=5)
        assert len(skel) == 5
        assert X.shape == (30, 5)

    def test_id_empty(self):
        skel, X = interpolative_row_skeleton(np.zeros((5, 0)), tol=1e-10)
        assert len(skel) == 0 and X.shape == (5, 0)


class TestProxyCompression:
    def test_block_compression_accuracy(self, laplace_bie):
        n = laplace_bie.n
        tree = ClusterTree.balanced(n, leaf_size=64)
        left, right = tree.sibling_pairs(1)[0]
        config = CompressionConfig(method="proxy", tol=1e-10)
        factor = compress_block_proxy(laplace_bie, left.indices, right.indices, config)
        dense_block = laplace_bie.entries(left.indices, right.indices)
        rel = np.linalg.norm(factor.to_dense() - dense_block) / np.linalg.norm(dense_block)
        assert rel < 1e-8
        assert factor.rank < 60

    def test_build_hodlr_proxy_laplace(self, laplace_bie, rng):
        H = build_hodlr_proxy(
            laplace_bie, config=CompressionConfig(method="proxy", tol=1e-10, leaf_size=64)
        )
        A = laplace_bie.dense()
        assert H.approximation_error(A) < 1e-8
        solver = HODLRSolver(H, variant="batched").factorize()
        u_exact = laplace_dirichlet_reference(np.array([[0.2, 0.1]]), charges=np.array([1.0]))
        f = laplace_bie.boundary_data(u_exact)
        sigma = solver.solve(f)
        assert np.linalg.norm(A @ sigma - f) / np.linalg.norm(f) < 1e-7

    def test_build_hodlr_proxy_helmholtz(self, helmholtz_bie, rng):
        H = build_hodlr_proxy(
            helmholtz_bie, config=CompressionConfig(method="proxy", tol=1e-8, leaf_size=96)
        )
        A = helmholtz_bie.dense()
        assert H.approximation_error(A) < 1e-6
        solver = HODLRSolver(H, variant="batched").factorize()
        b = rng.standard_normal(helmholtz_bie.n) + 1j * rng.standard_normal(helmholtz_bie.n)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-5

    def test_loose_tolerance_gives_lower_ranks(self, laplace_bie):
        tight, loose = (
            build_hodlr_proxy(
                laplace_bie, config=CompressionConfig(method="proxy", tol=tol, leaf_size=64)
            )
            for tol in (1e-12, 1e-4)
        )
        assert max(loose.rank_profile()) < max(tight.rank_profile())
        assert loose.nbytes < tight.nbytes
