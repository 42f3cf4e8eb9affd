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
            dict(seed=-1),
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
        cfg = CompressionConfig(tol=1e-6, method="svd", max_rank=40, leaf_size=48, seed=7)
        d = cfg.to_dict()
        json.dumps(d)  # JSON-compatible
        assert CompressionConfig.from_dict(d) == cfg and d["seed"] == 7

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            CompressionConfig.from_dict({"tol": 1e-8, "tolerance": 1e-8})

    def test_replace_revalidates(self):
        cfg = CompressionConfig()
        assert cfg.replace(tol=1e-4).tol == 1e-4
        with pytest.raises(ConfigError):
            cfg.replace(method="nope")

    def test_one_class_across_import_paths(self):
        assert repro.CompressionConfig is CompressionConfig
        assert repro.core.CompressionConfig is CompressionConfig
        assert repro.core.compression.ConfigError is ConfigError

    def test_top_level_names_compose(self):
        cfg = repro.SolverConfig(compression=repro.CompressionConfig(tol=1e-8))
        assert cfg.compression.tol == 1e-8

    def test_hashable(self):
        cfg = CompressionConfig(tol=1e-6, method="proxy", max_rank=17, n_proxy=48)
        assert hash(cfg) == hash(CompressionConfig.from_dict(cfg.to_dict()))
        assert len({cfg, CompressionConfig(), CompressionConfig()}) == 2

    def test_generator_is_a_fresh_seeded_stream(self):
        cfg = CompressionConfig(seed=7)
        draws = [g.standard_normal(4) for g in (cfg.generator(), cfg.generator())]
        assert np.array_equal(draws[0], draws[1])
        assert np.array_equal(draws[0], np.random.default_rng(7).standard_normal(4))

    def test_build_hodlr_rejects_proxy(self, system):
        A, _, _ = system
        with pytest.raises(ConfigError, match="proxy"):
            build_hodlr(A, ClusterTree.balanced(A.shape[0], leaf_size=32), method="proxy")


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.variant == "batched" and cfg.backend == "numpy" and cfg.dtype is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="dense"),
            dict(backend=""),
            dict(dispatch_policy="auto"),  # the retired string policy
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
            dispatch_policy=DispatchPolicy(bucketing=False),
            compression=CompressionConfig(tol=1e-5, method="svd"),
        )
        d = json.loads(json.dumps(cfg.to_dict()))
        restored = SolverConfig.from_dict(d)
        assert restored == cfg
        assert restored.dispatch_policy == DispatchPolicy(bucketing=False)

    def test_round_trip_defaults(self):
        cfg = SolverConfig()
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_retired_parallel_key(self):
        # a payload written before the thread pool was retired
        d = dict(SolverConfig().to_dict(), parallel=None)
        with pytest.raises(ConfigError, match="parallel"):
            SolverConfig.from_dict(d)

    def test_parallel_keyword_is_gone(self):
        with pytest.raises(TypeError):
            repro.solve("gaussian_kernel", n=256, parallel="auto")

    @pytest.mark.parametrize(
        "key, value", [("tuning", "auto"), ("residual_budget", 1e-6)]
    )
    def test_from_dict_rejects_retired_tuning_keys(self, key, value):
        # a payload written while the auto-tuner existed
        d = dict(SolverConfig().to_dict(), **{key: value})
        with pytest.raises(ConfigError, match=key):
            SolverConfig.from_dict(d)

    @pytest.mark.parametrize("entry", [repro.solve, repro.build_operator])
    def test_tuning_keyword_is_gone(self, entry):
        with pytest.raises(TypeError):
            entry("gaussian_kernel", n=256, tuning="auto")

    @pytest.mark.parametrize(
        "policy, match",
        [
            ({"min_bukket": 3}, "min_bukket"),  # unknown field
            # the fields DispatchPolicy no longer has: an old payload fails
            # naming the field instead of being read some other way
            ({"lu_solve_min_batch_ratio": "x"}, "lu_solve_min_batch_ratio"),
            ({"min_bucket": -1}, "min_bucket"),
            ({"min_bucket": 3}, "min_bucket"),
            ({"lu_vectorize": False}, "lu_vectorize"),
            ({"lu_factor_max_n": 12}, "lu_factor_max_n"),
            ({"lu_factor_min_batch": 24}, "lu_factor_min_batch"),
            ({"lu_solve_max_n": 48}, "lu_solve_max_n"),
            ({"pad_buckets": True}, "pad_buckets"),
            ({"bucketing": True, "pad_max_waste": 0.25}, "pad_max_waste"),
            ({"bucketing": "no"}, "bucketing"),  # type
            # a whole payload written before the fields were removed
            ({"bucketing": True, "min_bucket": 2, "lu_vectorize": True, "lu_factor_max_n": 12,
              "lu_factor_min_batch": 24, "lu_solve_max_n": 48, "lu_solve_min_batch_ratio": 4.0,
              "pad_buckets": False, "pad_max_waste": 0.25}, "min_bucket"),
        ],
    )
    def test_from_dict_rejects_malformed_dispatch_policy(self, policy, match):
        # the field's type check is in test_dispatch.py; this checks that a
        # payload's failures surface as ConfigError naming the field
        d = dict(SolverConfig().to_dict(), dispatch_policy=policy)
        with pytest.raises(ConfigError, match=match):
            SolverConfig.from_dict(d)

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

    def test_peeling_build_honours_config_seed(self):
        # the matvec-only peeling construction draws its probes from ``seed``
        A = hodlr_friendly_matrix(256, seed=5)

        def u_stacks(seed):
            cfg = SolverConfig(compression=CompressionConfig(
                construction="peeling", max_rank=16, tol=1e-8, leaf_size=32, seed=seed))
            H = repro.build_operator(A, cfg, cache=False).hodlr
            return [H.U[k] for k in sorted(H.U)]

        first, again, other = u_stacks(3), u_stacks(3), u_stacks(4)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        assert any(
            a.shape != c.shape or not np.array_equal(a, c) for a, c in zip(first, other)
        )


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

    def test_complex_rhs_keeps_real_factorization(self, rng):
        # a complex rhs on an SPD operator solves against the real Cholesky
        # factorization: no refactorization, and later real solves stay real
        op = repro.build_operator("gp_covariance", cache=False, n=1024)
        br, bi = rng.standard_normal(1024), rng.standard_normal(1024)
        xc = op.solve(br + 1j * bi)
        assert xc.dtype == np.complex128
        assert np.dtype(op.dtype) == np.float64
        assert op.solver.factor_plan.dtype == np.float64
        assert {lb.kind for lb in op.solver.factor_plan.leaf_buckets} == {"cholesky"}
        xr, xi = op.solve(br), op.solve(bi)
        assert xr.dtype == np.float64
        assert np.linalg.norm(xc - (xr + 1j * xi)) <= 1e-12 * np.linalg.norm(xc)

    def test_complex_block_rhs_keeps_real_factorization(self, rng):
        op = repro.build_operator("gp_covariance", cache=False, n=1024)
        Br, Bi = rng.standard_normal((1024, 3)), rng.standard_normal((1024, 3))
        Xc = op.solve(Br + 1j * Bi)
        assert Xc.shape == (1024, 3) and Xc.dtype == np.complex128
        assert op.solver.factor_plan.dtype == np.float64
        Xr, Xi = op.solve(Br), op.solve(Bi)
        assert Xr.dtype == np.float64
        assert np.linalg.norm(Xc - (Xr + 1j * Xi)) <= 1e-12 * np.linalg.norm(Xc)

    def test_complex_rhs_on_lu_operator_keeps_real_factorization(self, system, rng):
        # the non-symmetric system takes LU leaves: they stay real too
        A, H, b = system
        op = HODLROperator(H)
        bi = rng.standard_normal(H.n)
        xc = op.solve(b + 1j * bi)
        plan = op.solver.factor_plan
        assert plan.dtype == np.float64
        views = plan.leaf_factor_views()
        assert all(piv is not None and lu.dtype == np.float64 for lu, piv in views)
        assert np.linalg.norm(A @ xc - (b + 1j * bi)) / np.linalg.norm(b + 1j * bi) < 1e-9
        # the next real solve reuses the same real factorization
        assert op.solve(b).dtype == np.float64
        assert op.solver.factor_plan is plan

    @pytest.mark.parametrize("variant", ["dense_lu", "block_sparse", "hodlrlib_cpu"])
    def test_complex_rhs_on_registered_variant_refactorizes(self, system, rng, variant):
        # a registered variant solves against a matrix cast to the solve
        # dtype, so a complex rhs refactorizes it at complex128
        A, H, b = system
        op = HODLROperator(H, variant=variant)
        assert op.solve(b).dtype == np.float64
        bc = b + 1j * rng.standard_normal(H.n)
        xc = op.solve(bc)
        assert xc.dtype == np.complex128 and np.dtype(op.dtype) == np.complex128
        assert np.linalg.norm(A @ xc - bc) / np.linalg.norm(bc) < 1e-9

    def test_complex_rhs_on_float32_factorization_stays_complex64(self, system):
        A, H, b = system
        op = HODLROperator(H, dtype="float32")
        xc = op.solve(b + 1j * b)
        assert xc.dtype == np.complex64 and np.dtype(op.dtype) == np.float32
        # the imaginary part is solved, not dropped
        assert np.linalg.norm(xc.imag - op.solve(b)) <= 1e-5 * np.linalg.norm(xc.imag)

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

    def test_peeling_honours_oversampling(self):
        # the facade hands the whole config to build_hodlr, so the peeling
        # construction sees ``oversampling``
        A = hodlr_friendly_matrix(256, seed=6)
        dense = []
        for oversampling in (0, 10):
            cfg = SolverConfig(compression=CompressionConfig(
                construction="peeling", max_rank=16, tol=1e-8, leaf_size=32,
                oversampling=oversampling))
            op = repro.build_operator(A, cfg, cache=False)
            dense.append(op.hodlr.to_dense())
        assert not np.array_equal(dense[0], dense[1])

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
