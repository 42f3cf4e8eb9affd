"""Tests for the unified operator-centric API (repro.api).

Covers the facade (`repro.solve` / `repro.build_operator`), the immutable
config objects and their dict round-trips, the problem registry, the
`HODLROperator` SciPy interop (operator and preconditioner inside
`scipy.sparse.linalg.gmres`), dtype-change refactorization, accumulating
solve stats, and the deprecation shims for the old constructors.
"""

import json
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import repro
from repro import ClusterTree, HODLRSolver, build_hodlr
from repro.api import (
    AssembledProblem,
    CompressionConfig,
    ConfigError,
    HODLRInverseOperator,
    HODLROperator,
    ProblemNotFoundError,
    SolverConfig,
    available_problems,
    cg_solve,
    get_problem,
    gmres_solve,
    register_problem,
    unregister_problem,
)
from repro.backends.dispatch import DispatchPolicy
from conftest import hodlr_friendly_matrix, spd_kernel_matrix


@pytest.fixture
def system(rng):
    """A dense HODLR-friendly system, its tight HODLR approximation, and a rhs."""
    n = 256
    A = hodlr_friendly_matrix(n, seed=3)
    tree = ClusterTree.balanced(n, leaf_size=32)
    H = build_hodlr(A, tree, tol=1e-12, method="svd")
    b = rng.standard_normal(n)
    return A, H, b


@pytest.fixture
def hard_system(rng):
    """An ill-conditioned system plus a loose HODLR approximation (preconditioning)."""
    n = 384
    A = hodlr_friendly_matrix(n, seed=6, shift=2.0)
    tree = ClusterTree.balanced(n, leaf_size=48)
    H = build_hodlr(A, tree, tol=1e-4, method="svd")
    b = rng.standard_normal(n)
    return A, H, b


# ======================================================================
# configs
# ======================================================================
class TestCompressionConfig:
    def test_defaults_valid(self):
        cfg = CompressionConfig()
        assert cfg.method == "rook" and cfg.tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tol=0.0),
            dict(tol=-1e-8),
            dict(tol=2.0),
            dict(method="qr"),
            dict(max_rank=0),
            dict(leaf_size=1),
            dict(oversampling=-1),
            dict(n_proxy=2),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            CompressionConfig(**kwargs)

    def test_immutable(self):
        cfg = CompressionConfig()
        with pytest.raises(Exception):
            cfg.tol = 1e-4

    def test_round_trip(self):
        cfg = CompressionConfig(tol=1e-6, method="randomized", max_rank=40, leaf_size=48)
        d = cfg.to_dict()
        json.dumps(d)  # JSON-compatible
        assert CompressionConfig.from_dict(d) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            CompressionConfig.from_dict({"tol": 1e-8, "tolerance": 1e-8})

    def test_replace_revalidates(self):
        cfg = CompressionConfig()
        assert cfg.replace(tol=1e-4).tol == 1e-4
        with pytest.raises(ConfigError):
            cfg.replace(method="nope")

    def test_core_config_mapping(self):
        cfg = CompressionConfig(tol=1e-6, method="proxy", max_rank=17, n_proxy=48)
        core = cfg.core_config()
        assert core.tol == 1e-6 and core.max_rank == 17
        assert core.method == "rook"  # proxy is not an entrywise method
        proxy = cfg.proxy_config()
        assert proxy.tol == 1e-6 and proxy.n_proxy == 48 and proxy.max_rank == 17


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.variant == "batched" and cfg.backend == "numpy" and cfg.dtype is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="dense"),
            dict(backend=""),
            dict(tuning="fast"),
            dict(pivot=1),
            dict(dtype="int32"),
            dict(dtype="not-a-dtype"),
            dict(variant="flat"),  # the retired alias of "batched"
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_dtype_normalisation(self):
        assert SolverConfig(dtype=np.float32).dtype == "float32"
        assert SolverConfig(dtype="complex128").dtype == "complex128"
        assert SolverConfig(dtype=np.dtype("float64")).numpy_dtype == np.float64

    def test_round_trip_including_policy_and_compression(self):
        cfg = SolverConfig(
            variant="recursive",
            dtype="float32",
            pivot=False,
            dispatch_policy=DispatchPolicy(bucketing=False, min_bucket=3),
            compression=CompressionConfig(tol=1e-5, method="svd"),
        )
        d = json.loads(json.dumps(cfg.to_dict()))
        restored = SolverConfig.from_dict(d)
        assert restored == cfg
        assert restored.dispatch_policy == DispatchPolicy(bucketing=False, min_bucket=3)

    def test_round_trip_defaults(self):
        cfg = SolverConfig()
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg

    def test_replace_reaches_compression_fields(self):
        cfg = SolverConfig()
        assert cfg.replace(tol=1e-3).compression.tol == 1e-3
        assert cfg.replace(variant="recursive").variant == "recursive"
        with pytest.raises(ConfigError):
            cfg.replace(no_such_field=1)

    def test_replace_rejects_conflicting_compression(self):
        # compression= together with a nested field would silently drop the
        # nested value; it must raise instead
        cfg = SolverConfig()
        with pytest.raises(ConfigError, match="cannot combine"):
            cfg.replace(compression=CompressionConfig(tol=1e-3), tol=1e-6)

    def test_hashable(self):
        assert len({SolverConfig(), SolverConfig(), SolverConfig(variant="recursive")}) == 2


# ======================================================================
# problem registry
# ======================================================================
class TestProblemRegistry:
    def test_builtins_registered(self):
        names = available_problems()
        for expected in (
            "gaussian_kernel",
            "gp_covariance",
            "rpy_mobility",
            "laplace_bie",
            "helmholtz_bie",
            "elliptic_schur",
        ):
            assert expected in names

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(ProblemNotFoundError, match="gaussian_kernel"):
            get_problem("no_such_problem")

    def test_duplicate_registration_rejected(self):
        register_problem("api_test_dup", lambda **kw: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_problem("api_test_dup", lambda **kw: None)
            # overwrite=True replaces silently
            register_problem("api_test_dup", lambda **kw: "new", overwrite=True)
            assert get_problem("api_test_dup") == "new"
        finally:
            unregister_problem("api_test_dup")

    def test_params_forwarded(self):
        p = get_problem("gaussian_kernel", n=128, lengthscale=0.5)
        assert p.n == 128 and p.lengthscale == 0.5

    def test_custom_problem_through_facade(self, system):
        _, H, b = system

        @register_problem("api_test_custom")
        class CustomProblem:
            name = "api_test_custom"

            def assemble(self, config):
                return AssembledProblem(name=self.name, hodlr=H, rhs=b)

        try:
            result = repro.solve("api_test_custom")
            assert result.problem.name == "api_test_custom"
            assert result.relative_residual < 1e-9
        finally:
            unregister_problem("api_test_custom")


# ======================================================================
# HODLROperator + SciPy interop
# ======================================================================
class TestHODLROperator:
    def test_lazy_factorization(self, system):
        _, H, b = system
        op = HODLROperator(H)
        assert not op.factored
        op.solve(b)
        assert op.factored

    def test_matvec_matches_hodlr(self, system, rng):
        _, H, _ = system
        op = HODLROperator(H)
        x = rng.standard_normal(H.n)
        assert np.allclose(op @ x, H.matvec(x))
        assert not op.factored  # matvec never needs the factorization

    def test_solve_accuracy(self, system):
        A, H, b = system
        x = HODLROperator(H).solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    def test_multiple_rhs(self, system, rng):
        _, H, _ = system
        B = rng.standard_normal((H.n, 3))
        X = HODLROperator(H).solve(B)
        assert X.shape == (H.n, 3)

    def test_logdet_matches_dense(self, system):
        A, H, _ = system
        op = HODLROperator(H)
        _, ref = np.linalg.slogdet(A)
        assert abs(op.logdet() - ref) / abs(ref) < 1e-6

    def test_operator_inside_scipy_gmres(self, system):
        _, H, b = system
        op = HODLROperator(H)
        # the operator *is* a LinearOperator: usable as the GMRES system matrix
        x, info = spla.gmres(op, b, rtol=1e-10, atol=0.0, maxiter=400)
        assert info == 0
        assert np.linalg.norm(H.matvec(x) - b) / np.linalg.norm(b) < 1e-8

    def test_preconditioner_inside_scipy_gmres(self, hard_system):
        """The acceptance-criterion test: HODLROperator as M in scipy GMRES
        converges to the paper's residual tolerance."""
        A, H, b = hard_system
        op = HODLROperator(H)
        M = op.as_preconditioner()
        assert isinstance(M, HODLRInverseOperator)
        x, info = spla.gmres(A, b, M=M, rtol=1e-10, atol=0.0, maxiter=400)
        assert info == 0
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_preconditioning_reduces_iterations(self, hard_system):
        A, H, b = hard_system
        _, info0, log0 = gmres_solve(A, b, tol=1e-10, maxiter=400)
        op = repro.build_operator(H)
        x, info1, log1 = gmres_solve(A, b, preconditioner=op, tol=1e-10, maxiter=400)
        assert info1 == 0
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8
        assert log1.iterations < log0.iterations
        assert log1.iterations <= 30

    def test_cg_with_operator_preconditioner(self, rng):
        n = 256
        A = spd_kernel_matrix(n, seed=7, nugget=1e-3)
        tree = ClusterTree.balanced(n, leaf_size=32)
        H = build_hodlr(A, tree, tol=1e-3, method="svd")
        b = rng.standard_normal(n)
        op = HODLROperator(H)
        x, info, _ = cg_solve(A, b, preconditioner=op, tol=1e-10, maxiter=2000)
        assert info == 0
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_refactorizes_on_complex_rhs(self, system):
        A, H, b = system
        op = HODLROperator(H)
        op.solve(b)
        assert np.dtype(op.dtype) == np.float64
        xc = op.solve(b.astype(np.complex128))
        assert np.dtype(op.dtype) == np.complex128
        assert np.iscomplexobj(xc)
        assert np.linalg.norm(A @ xc - b) / np.linalg.norm(b) < 1e-9

    def test_configured_dtype_is_sticky(self, system):
        _, H, b = system
        op = HODLROperator(H, dtype="float32")
        x = op.solve(b)  # float64 rhs must NOT silently upcast a float32 run
        assert x.dtype == np.float32
        assert np.dtype(op.dtype) == np.float32

    def test_astype_refactorizes(self, system):
        A, H, b = system
        op32 = HODLROperator(H).astype(np.float32)
        x = op32.solve(b)
        assert x.dtype == np.float32
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-3

    def test_config_overrides(self, system):
        _, H, _ = system
        op = HODLROperator(H, variant="recursive", pivot=False)
        assert op.config.variant == "recursive" and op.config.pivot is False


# ======================================================================
# facade
# ======================================================================
class TestFacade:
    def test_solve_dense(self, system):
        A, _, b = system
        result = repro.solve(
            A, b, config=SolverConfig(compression=CompressionConfig(tol=1e-10, method="svd"))
        )
        assert result.relative_residual < 1e-8
        assert np.linalg.norm(A @ result.x - b) / np.linalg.norm(b) < 1e-8

    def test_solve_hodlr_matrix(self, system):
        _, H, b = system
        result = repro.solve(H, b)
        assert result.problem.name == "hodlr"
        assert result.relative_residual < 1e-9

    def test_solve_registered_problem(self):
        result = repro.solve(
            "gaussian_kernel",
            config=SolverConfig(compression=CompressionConfig(tol=1e-8)),
            n=256,
        )
        assert result.relative_residual < 1e-6
        assert result.stats.num_solves == 1

    def test_solve_uses_problem_rhs(self):
        result = repro.solve(
            "gp_covariance",
            config=SolverConfig(compression=CompressionConfig(tol=1e-8)),
            n=256,
        )
        y = result.problem.metadata["y_train"]
        r = result.problem.hodlr.matvec(result.x) - y
        assert np.linalg.norm(r) / np.linalg.norm(y) < 1e-6

    def test_solve_kernel_matrix_explicit_rhs_in_caller_ordering(self, rng):
        """Regression: a reordered kernel problem must accept b and return x
        in the caller's point ordering, not the kd-tree ordering."""
        from repro import GaussianKernel, KernelMatrix

        n = 256
        points = rng.uniform(-1.0, 1.0, size=(n, 2))
        km = KernelMatrix(GaussianKernel(lengthscale=0.4), points, diagonal_shift=float(n))
        b = rng.standard_normal(n)
        result = repro.solve(
            km, b, config=SolverConfig(compression=CompressionConfig(tol=1e-10, method="svd"))
        )
        assert result.problem.perm is not None  # the ordering really is non-trivial
        x_ref = np.linalg.solve(km.dense(), b)
        assert np.linalg.norm(result.x - x_ref) / np.linalg.norm(x_ref) < 1e-8
        # the caller-frame matvec helper agrees too
        assert np.linalg.norm(result.problem.matvec(result.x) - b) / np.linalg.norm(b) < 1e-8

    def test_solve_registered_problem_explicit_rhs(self, rng):
        b = rng.standard_normal(256)
        result = repro.solve(
            "gaussian_kernel",
            b,
            config=SolverConfig(compression=CompressionConfig(tol=1e-9, method="svd")),
            n=256,
            compute_residual="exact",
        )
        km = result.problem.metadata["kernel_matrix"]
        x_ref = np.linalg.solve(km.dense(), b)
        assert np.linalg.norm(result.x - x_ref) / np.linalg.norm(x_ref) < 1e-7
        assert result.relative_residual < 1e-7  # exact-operator residual, caller frame

    def test_compute_residual_validation(self, system):
        _, H, b = system
        with pytest.raises(ValueError, match="compute_residual"):
            repro.solve(H, b, compute_residual="Exact")
        # a bare HODLRMatrix has no exact operator: 'exact' must refuse, not degrade
        with pytest.raises(ValueError, match="exact operator"):
            repro.solve(H, b, compute_residual="exact")
        assert repro.solve(H, b, compute_residual=False).relative_residual is None

    def test_elliptic_schur_metadata_solver_usable(self):
        cfg = SolverConfig(compression=CompressionConfig(tol=1e-10, leaf_size=16))
        result = repro.solve("elliptic_schur", config=cfg, nx=15, ny=31)
        schur = result.problem.metadata["schur"]
        # the facade and the full-grid path share ONE factorization
        assert schur.schur_solver is result.operator
        u_exact = result.problem.metadata["u_exact"]
        u = schur.solve(result.problem.metadata["f"])  # full-grid recovery
        assert np.linalg.norm(u - u_exact) / np.linalg.norm(u_exact) < 1e-6
        assert max(schur.schur_rank_profile()) >= 1

    def test_build_operator_acts_in_caller_ordering(self, rng):
        """Regression: build_operator on a reordered kernel problem must not
        expose the internal cluster-tree ordering."""
        cfg = SolverConfig(compression=CompressionConfig(tol=1e-9, method="svd"))
        op = repro.build_operator("gaussian_kernel", config=cfg, n=256)
        assert op.perm is not None
        km = repro.api.assemble("gaussian_kernel", cfg, n=256).metadata["kernel_matrix"]
        A = km.dense()
        b = rng.standard_normal(256)
        x = op.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-7
        # forward matvec too
        assert np.linalg.norm((op @ b) - A @ b) / np.linalg.norm(A @ b) < 1e-7
        # and as preconditioner in caller-frame GMRES
        xg, info = spla.gmres(A, b, M=op.as_preconditioner(), rtol=1e-10, atol=0.0)
        assert info == 0 and np.linalg.norm(A @ xg - b) / np.linalg.norm(b) < 1e-8

    def test_cg_residual_recording_opt_in(self, rng):
        n = 128
        A = spd_kernel_matrix(n, seed=2, nugget=1e-1)
        b = rng.standard_normal(n)
        _, _, log = cg_solve(A, b, tol=1e-10)
        assert log.iterations > 0 and log.residuals == []
        _, _, log_rec = cg_solve(A, b, tol=1e-10, record_residuals=True)
        assert log_rec.iterations == len(log_rec.residuals) > 0

    def test_missing_rhs_raises(self, system):
        _, H, _ = system
        with pytest.raises(ValueError, match="right-hand side"):
            repro.solve(H)

    def test_params_only_with_names(self, system):
        _, H, b = system
        with pytest.raises(TypeError, match="registered"):
            repro.solve(H, b, n=128)

    def test_dense_input_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            repro.solve(np.zeros((4, 5)), np.zeros(4))

    def test_config_dict_accepted(self, system):
        A, _, b = system
        cfg = SolverConfig(compression=CompressionConfig(tol=1e-10, method="svd"))
        result = repro.solve(A, b, config=cfg.to_dict())
        assert result.config == cfg

    def test_proxy_method_rejected_for_dense(self, system):
        A, _, b = system
        with pytest.raises(ConfigError, match="proxy"):
            repro.solve(A, b, config=SolverConfig(compression=CompressionConfig(method="proxy")))

    def test_build_operator_reusable(self, system):
        A, H, b = system
        op = repro.build_operator(H)
        x1 = op.solve(b)
        x2 = op.solve(2.0 * b)
        assert np.allclose(2.0 * x1, x2)
        assert op.stats.num_solves == 2


# ======================================================================
# SolveStats accumulation (satellite fix)
# ======================================================================
class TestSolveStats:
    def test_solve_seconds_accumulate(self, system, rng):
        _, H, _ = system
        solver = HODLRSolver(H, variant="batched").factorize()
        total = 0.0
        for _ in range(3):
            solver.solve(rng.standard_normal(H.n))
            assert solver.stats.solve_seconds >= total  # accumulates, not clobbered
            total = solver.stats.solve_seconds
        assert solver.stats.num_solves == 3
        assert 0.0 < solver.stats.last_solve_seconds <= solver.stats.solve_seconds
        assert solver.stats.mean_solve_seconds == pytest.approx(total / 3.0)

    def test_relative_residual_backend_routed(self, system, rng):
        _, H, b = system
        solver = HODLRSolver(H, variant="batched").factorize()
        x = solver.solve(b)
        relres = solver.relative_residual(x, b)
        assert isinstance(relres, float)
        assert relres < 1e-9
        # list inputs go through the backend's asarray
        assert solver.relative_residual(list(x), list(b)) == pytest.approx(relres)


# ======================================================================
# the facade paths raise no DeprecationWarning
# ======================================================================
class TestDeprecationShims:
    def test_new_paths_do_not_warn(self, system):
        _, H, b = system
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            op = repro.build_operator(H)
            gmres_solve(H, b, preconditioner=op, tol=1e-10)
