"""Tests for point generators, radial kernels, the RPY tensor, and KernelMatrix."""

import numpy as np
import pytest

from repro import ClusterTree, GaussianKernel, HODLRSolver, KernelMatrix, MaternKernel, RPYKernel
from repro.kernels.points import (
    gaussian_mixture_points,
    points_on_circle,
    points_on_sphere,
    regular_grid_points,
    uniform_points,
)
from repro.kernels.radial import (
    ExponentialKernel,
    HelmholtzKernel2D,
    InverseMultiquadricKernel,
    ThinPlateSplineKernel,
    pairwise_distances,
)
from repro.kernels.rpy import rpy_scalar_kernel


class TestPoints:
    def test_uniform_points_bounds(self):
        pts = uniform_points(500, dim=3, rng=np.random.default_rng(0))
        assert pts.shape == (500, 3)
        assert pts.min() >= -1.0 and pts.max() <= 1.0

    def test_gaussian_mixture_points(self):
        pts = gaussian_mixture_points(300, dim=2, num_clusters=3, rng=np.random.default_rng(1))
        assert pts.shape == (300, 2)

    def test_points_on_circle(self):
        pts = points_on_circle(128, radius=2.0)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 2.0, rtol=1e-12)

    def test_points_on_sphere(self):
        pts = points_on_sphere(200, radius=1.5)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.5, rtol=1e-12)
        # quasi-uniform: centroid near the origin
        assert np.linalg.norm(pts.mean(axis=0)) < 0.1

    def test_regular_grid(self):
        pts = regular_grid_points(5, dim=2)
        assert pts.shape == (25, 2)
        assert pts.min() == 0.0 and pts.max() == 1.0


class TestRadialKernels:
    def test_pairwise_distances(self, rng):
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal((15, 3))
        D = pairwise_distances(X, Y)
        brute = np.array([[np.linalg.norm(x - y) for y in Y] for x in X])
        np.testing.assert_allclose(D, brute, rtol=1e-10, atol=1e-12)

    def test_gaussian_properties(self, rng):
        X = rng.standard_normal((30, 2))
        K = GaussianKernel(lengthscale=0.5)(X, X)
        np.testing.assert_allclose(np.diag(K), 1.0)
        np.testing.assert_allclose(K, K.T)
        assert np.all(K > 0) and np.all(K <= 1.0)

    def test_gaussian_nugget_spd(self, rng):
        X = rng.standard_normal((50, 2))
        K = GaussianKernel(lengthscale=0.3, nugget=1e-6)(X, X)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > 0

    def test_matern_half_integer_matches_exponential(self, rng):
        X = rng.standard_normal((20, 2))
        Y = rng.standard_normal((25, 2))
        K_matern = MaternKernel(lengthscale=0.7, nu=0.5)(X, Y)
        K_exp = ExponentialKernel(lengthscale=0.7)(X, Y)
        np.testing.assert_allclose(K_matern, K_exp, rtol=1e-12)

    def test_matern_bessel_matches_closed_form(self, rng):
        X = rng.standard_normal((15, 2))
        Y = rng.standard_normal((15, 2))
        closed = MaternKernel(lengthscale=0.6, nu=1.5)(X, Y)
        # the Bessel branch is taken for non-half-integer nu; 1.5+1e-9 is close
        bessel = MaternKernel(lengthscale=0.6, nu=1.5 + 1e-9)(X, Y)
        np.testing.assert_allclose(closed, bessel, rtol=1e-5, atol=1e-7)

    def test_matern_off_diagonal_ranks_are_small(self, rng):
        """1-D Matern kernel blocks are highly compressible; nu = 1/2 is exactly rank 1.

        The exponential kernel (Matern with nu = 1/2) is a Markov process
        covariance, so an off-diagonal block over separated index ranges is
        exactly rank one; smoother Matern kernels have slightly larger but
        still tiny epsilon-ranks.  This is the regime Remark 1 of the paper
        describes (1-D problems: ranks independent of N).
        """
        x = np.sort(rng.uniform(0, 1, 200)).reshape(-1, 1)
        ranks = {}
        for nu in [0.5, 2.5]:
            K = MaternKernel(lengthscale=0.5, nu=nu)(x, x)
            block = K[:100, 100:]
            s = np.linalg.svd(block, compute_uv=False)
            ranks[nu] = int(np.sum(s > 1e-8 * s[0]))
        assert ranks[0.5] == 1
        assert ranks[2.5] <= 10

    def test_inverse_multiquadric_and_tps(self, rng):
        X = rng.standard_normal((10, 2))
        K = InverseMultiquadricKernel(c=1.0)(X, X)
        np.testing.assert_allclose(np.diag(K), 1.0)
        T = ThinPlateSplineKernel()(X, X)
        np.testing.assert_allclose(np.diag(T), 0.0)


class TestRPY:
    def test_matrix_shape_and_symmetry(self, rng):
        pts = uniform_points(20, dim=3, rng=rng)
        kernel = RPYKernel()
        A = kernel.matrix(pts)
        assert A.shape == (60, 60)
        np.testing.assert_allclose(A, A.T, rtol=1e-12)

    def test_spd(self, rng):
        """The RPY mobility matrix is symmetric positive definite by construction."""
        pts = uniform_points(25, dim=3, rng=rng)
        A = RPYKernel().matrix(pts)
        eigs = np.linalg.eigvalsh(A)
        assert eigs.min() > 0

    def test_self_interaction_block(self, rng):
        pts = uniform_points(5, dim=3, rng=rng)
        kernel = RPYKernel()
        a = kernel.effective_radius(pts)
        A = kernel.matrix(pts)
        expected = kernel.k * kernel.T / (6.0 * np.pi * kernel.eta * a)
        np.testing.assert_allclose(A[:3, :3], expected * np.eye(3), rtol=1e-12)

    def test_far_field_formula(self):
        """Two well-separated particles: check the far-field tensor entry by entry."""
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        kernel = RPYKernel(a=0.5)
        A = kernel.matrix(pts, a=0.5)
        r = 3.0
        pref = 1.0 / (8.0 * np.pi * r)
        rr = np.zeros((3, 3))
        rr[0, 0] = 1.0
        expected = pref * (np.eye(3) + rr + (2 * 0.25 / (3 * r * r)) * (np.eye(3) - 3 * rr))
        np.testing.assert_allclose(A[:3, 3:], expected, rtol=1e-12)

    def test_block_evaluator_consistency(self, rng):
        pts = uniform_points(16, dim=3, rng=rng)
        kernel = RPYKernel()
        A = kernel.matrix(pts)
        rows = np.array([0, 5, 10, 33])
        cols = np.array([2, 3, 20, 47, 11])
        np.testing.assert_allclose(kernel.block(pts, rows, cols), A[np.ix_(rows, cols)], rtol=1e-12)
        entries = kernel.evaluator(pts)
        np.testing.assert_allclose(entries(rows, cols), A[np.ix_(rows, cols)], rtol=1e-12)

    def test_effective_radius_default(self, rng):
        pts = uniform_points(10, dim=3, rng=rng)
        kernel = RPYKernel()
        a = kernel.effective_radius(pts)
        d = pairwise_distances(pts, pts)
        np.fill_diagonal(d, np.inf)
        assert a == pytest.approx(0.5 * d.min())
        assert RPYKernel(a=0.123).effective_radius(pts) == 0.123

    @pytest.mark.parametrize("coincident", [False, True])
    def test_effective_radius_matches_brute_force(self, rng, coincident):
        pts = uniform_points(300, dim=3, rng=rng)
        if coincident:
            pts[17] = pts[230]
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(d, np.inf)
        a = RPYKernel().effective_radius(pts)
        assert a == pytest.approx(0.5 * d.min(), rel=1e-14, abs=0.0)
        assert (a == 0.0) == coincident

    def test_requires_3d_points(self):
        with pytest.raises(ValueError):
            RPYKernel().matrix(np.zeros((5, 2)))

    def test_scalar_profile(self):
        X = np.array([[0.0, 0.0, 0.0]])
        Y = np.array([[2.0, 0.0, 0.0]])
        val = rpy_scalar_kernel(X, Y, a=0.5)
        expected = 1.0 / (8 * np.pi * 2.0) * (1 + 2 * 0.25 / (3 * 4.0))
        assert val[0, 0] == pytest.approx(expected)

    def test_hodlr_solve_of_rpy_system(self, rng):
        """End-to-end: HODLR-factorize a small RPY kernel matrix and solve (Table III in miniature)."""
        pts = uniform_points(128, dim=3, rng=np.random.default_rng(42))
        kernel = RPYKernel()
        dense = kernel.matrix(pts)
        n_dof = dense.shape[0]
        # order the scalar DOFs by a kd-tree over the particles (x, y, z stay together)
        tree_pts, perm_particles = ClusterTree.from_points(pts, leaf_size=16)
        dof_perm = (3 * perm_particles[:, None] + np.arange(3)[None, :]).ravel()
        A = dense[np.ix_(dof_perm, dof_perm)]
        tree = ClusterTree.balanced(n_dof, leaf_size=48)
        from repro import build_hodlr

        H = build_hodlr(A, tree, tol=1e-10, method="svd")
        solver = HODLRSolver(H, variant="batched").factorize()
        b = rng.standard_normal(n_dof)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-7


class TestKernelMatrix:
    def test_entries_and_dense(self, rng):
        pts = rng.standard_normal((40, 2))
        km = KernelMatrix(kernel=GaussianKernel(lengthscale=0.5), points=pts, diagonal_shift=2.0)
        A = km.dense()
        assert A.shape == (40, 40)
        np.testing.assert_allclose(np.diag(A), 1.0 + 2.0)
        rows = np.array([1, 5])
        cols = np.array([2, 5, 7])
        np.testing.assert_allclose(km.entries(rows, cols), A[np.ix_(rows, cols)])

    def test_matvec_blocked(self, rng):
        pts = rng.standard_normal((150, 2))
        km = KernelMatrix(kernel=GaussianKernel(lengthscale=0.4), points=pts)
        x = rng.standard_normal(150)
        np.testing.assert_allclose(km.matvec(x, block_size=32), km.dense() @ x, rtol=1e-10)

    @pytest.mark.parametrize("x_complex", [False, True])
    @pytest.mark.parametrize("ncols", [None, 3])
    def test_matvec_keeps_complex_operator_part(self, rng, x_complex, ncols):
        from repro.api.problems import _entries_matvec

        pts = rng.uniform(-1, 1, size=(300, 2))
        km = KernelMatrix(kernel=HelmholtzKernel2D(kappa=5.0), points=pts,
                          diagonal_shift=600.0)
        shape = (300,) if ncols is None else (300, ncols)
        x = rng.standard_normal(shape)
        if x_complex:
            x = x + 1j * rng.standard_normal(shape)
        ref = km.dense() @ x
        for y in (km.matvec(x, block_size=64), _entries_matvec(km.entries, 300, 64)(x)):
            assert y.shape == shape and np.iscomplexobj(y)
            assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_to_hodlr_with_reordering(self, rng):
        pts = rng.uniform(-1, 1, size=(300, 2))
        km = KernelMatrix(
            kernel=ExponentialKernel(lengthscale=0.3), points=pts, diagonal_shift=5.0
        )
        H, perm = km.to_hodlr(leaf_size=32, tol=1e-8, method="rook")
        A = km.dense()[np.ix_(perm, perm)]
        assert H.approximation_error(A) < 1e-6
        solver = HODLRSolver(H, variant="batched").factorize()
        b = rng.standard_normal(300)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-5

    def test_to_hodlr_without_reordering(self, rng):
        x1d = np.sort(rng.uniform(0, 1, 200))
        km = KernelMatrix(kernel=GaussianKernel(lengthscale=0.2), points=x1d, diagonal_shift=1.0)
        H, perm = km.to_hodlr(leaf_size=25, tol=1e-10, method="svd", reorder=False)
        np.testing.assert_array_equal(perm, np.arange(200))
        assert H.approximation_error(km.dense()) < 1e-8

    def test_kdtree_reordering_reduces_ranks(self, rng):
        """Spatial reordering is what makes scattered-data kernel matrices HODLR-compressible."""
        pts = rng.uniform(-1, 1, size=(256, 2))
        shuffled = pts[rng.permutation(256)]
        km = KernelMatrix(kernel=GaussianKernel(lengthscale=0.4), points=shuffled)
        H_ordered, _ = km.to_hodlr(leaf_size=32, tol=1e-6, method="svd", reorder=True)
        H_natural, _ = km.to_hodlr(leaf_size=32, tol=1e-6, method="svd", reorder=False)
        assert max(H_ordered.rank_profile()) < max(H_natural.rank_profile())
