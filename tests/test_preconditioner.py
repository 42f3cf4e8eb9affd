"""Tests for low-accuracy HODLR factorizations used as Krylov preconditioners.

These exercise the :mod:`repro.api` spellings (``HODLROperator`` /
``gmres_solve`` / ``cg_solve``), the only Krylov entry points the package
provides.
"""

import numpy as np
import pytest

from repro import ClusterTree, HODLRSolver, build_hodlr
from repro.api import HODLROperator, as_preconditioner, cg_solve, gmres_solve
from conftest import hodlr_friendly_matrix, spd_kernel_matrix


@pytest.fixture
def hard_system(rng):
    """A moderately ill-conditioned dense system plus its loose HODLR approximation."""
    n = 384
    A = hodlr_friendly_matrix(n, seed=6, shift=2.0)  # small shift => worse conditioning
    tree = ClusterTree.balanced(n, leaf_size=48)
    H = build_hodlr(A, tree, tol=1e-4, method="svd")
    b = rng.standard_normal(n)
    return A, H, b


class TestPreconditioner:
    def test_preconditioner_is_approximate_inverse(self, hard_system, rng):
        A, H, _ = hard_system
        M = HODLROperator(H).as_preconditioner()
        x = rng.standard_normal(A.shape[0])
        # M A x should be close to x (loose tolerance => few percent error)
        y = M.matvec(A @ x)
        assert np.linalg.norm(y - x) / np.linalg.norm(x) < 0.1

    def test_gmres_unpreconditioned_vs_preconditioned(self, hard_system):
        A, H, b = hard_system
        x0, info0, log0 = gmres_solve(A, b, preconditioner=None, tol=1e-10, maxiter=400)
        M = HODLROperator(H, variant="batched")
        x1, info1, log1 = gmres_solve(A, b, preconditioner=M, tol=1e-10, maxiter=400)
        assert info1 == 0
        assert np.linalg.norm(A @ x1 - b) / np.linalg.norm(b) < 1e-8
        # preconditioning must reduce the iteration count substantially
        assert log1.iterations < log0.iterations
        assert log1.iterations <= 30

    def test_gmres_matvec_operator_input(self, hard_system):
        A, H, b = hard_system
        M = HODLROperator(H, variant="flat")
        x, info, _ = gmres_solve(lambda v: A @ v, b, preconditioner=M, tol=1e-10)
        assert info == 0
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_gmres_with_hodlr_operator(self, hard_system):
        A, H, b = hard_system
        # use the HODLR approximation itself as the operator (consistent system)
        op = HODLROperator(H, variant="batched")
        x, info, log = gmres_solve(op, b, preconditioner=op, tol=1e-12)
        assert info == 0
        assert np.linalg.norm(H.matvec(x) - b) / np.linalg.norm(b) < 1e-10
        # preconditioner built from the same matrix: should converge almost immediately
        assert log.iterations <= 3

    def test_cg_spd_preconditioned(self, rng):
        n = 256
        A = spd_kernel_matrix(n, seed=7, nugget=1e-3)
        tree = ClusterTree.balanced(n, leaf_size=32)
        H = build_hodlr(A, tree, tol=1e-3, method="svd")
        b = rng.standard_normal(n)
        M = HODLROperator(H, variant="batched")
        x_plain, info_plain, log_plain = cg_solve(A, b, tol=1e-10, maxiter=2000)
        x_prec, info_prec, log_prec = cg_solve(A, b, preconditioner=M, tol=1e-10, maxiter=2000)
        assert info_prec == 0
        assert np.linalg.norm(A @ x_prec - b) / np.linalg.norm(b) < 1e-8
        assert log_prec.iterations < log_plain.iterations

    def test_bare_solver_as_preconditioner(self, hard_system):
        """A HODLRSolver is accepted directly (and lazily factorized)."""
        A, H, b = hard_system
        solver = HODLRSolver(H, variant="flat")
        assert not solver.factored
        M = as_preconditioner(solver)
        assert solver.factored
        assert M.shape == (H.n, H.n)
        x, info, _ = gmres_solve(A, b, preconditioner=solver, tol=1e-10)
        assert info == 0

    def test_iteration_log(self, hard_system):
        A, H, b = hard_system
        _, _, log = gmres_solve(A, b, preconditioner=HODLROperator(H), tol=1e-10)
        assert log.iterations == len(log.residuals)
        assert all(r >= 0 for r in log.residuals)
