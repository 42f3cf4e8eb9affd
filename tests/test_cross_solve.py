"""Cross-solve reuse (PR 8): fused multi-RHS solves, operator cache, sweeps.

Covers the acceptance criteria of the cross-solve layer:

* ``solve_many`` / block-``gmres_solve`` / block-``cg_solve`` agree with
  per-column solves to 1e-12 (relative) across all three factorization
  variants, real and complex, including mixed-converged columns;
* kernel-launch counts per fused solve equal ``launches_per_solve``
  regardless of K, and the block Krylov drivers apply the operator once
  per iteration regardless of K;
* operator-cache hits / LRU eviction / dtype-keyed invalidation, and the
  opt-in default leaving per-call stats isolated;
* ``run_sweep`` agreement with independent full rebuilds, the sampled
  fallback guard, and assembly sharing in config sweeps.
"""

import numpy as np
import pytest

from conftest import complex_test_matrix, hodlr_friendly_matrix, spd_kernel_matrix

import repro
from repro import (
    HODLROperator,
    OperatorCache,
    build_operator,
    cg_solve,
    gmres_solve,
    run_sweep,
    solve_many,
)
from repro.api import CompressionConfig, SolverConfig
from repro.api.cache import problem_fingerprint
from repro.api.krylov import IterationLog

VARIANTS = ["recursive", "batched"]


def _config(variant="batched", **kw):
    return SolverConfig(
        variant=variant, compression=CompressionConfig(tol=1e-12, method="svd"), **kw
    )


def _block(rng, n, k, kind="real"):
    B = rng.standard_normal((n, k))
    if kind == "complex":
        B = B + 1j * rng.standard_normal((n, k))
    return B


# ======================================================================
# fused direct solves: solve_many / HODLROperator.solve on (n, K) blocks
# ======================================================================
class TestSolveMany:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_block_matches_columns(self, variant, kind, rng):
        n = 192 if kind == "complex" else 256
        A = complex_test_matrix(n) if kind == "complex" else hodlr_friendly_matrix(n)
        B = _block(rng, n, 7, kind)
        res = solve_many(A, B, _config(variant))
        assert res.x.shape == (n, 7)
        op = res.operator
        cols = np.stack([op.solve(np.ascontiguousarray(B[:, j])) for j in range(7)], axis=1)
        assert np.linalg.norm(res.x - cols) / np.linalg.norm(cols) < 1e-12
        # per-column residuals are reported and direct-solve small
        assert res.column_residuals.shape == (7,)
        assert res.column_residuals.max() < 1e-9
        assert res.relative_residual == pytest.approx(float(res.column_residuals.max()))

    def test_rejects_vector_rhs(self, rng):
        A = hodlr_friendly_matrix(128)
        with pytest.raises(ValueError, match=r"\(n, K\)"):
            solve_many(A, rng.standard_normal(128))

    def test_stats_count_rhs_not_calls(self, rng):
        """A fused K-RHS solve records num_solves += K (amortized seconds)."""
        A = hodlr_friendly_matrix(128)
        res = solve_many(A, _block(rng, 128, 5), _config())
        stats = res.stats
        assert stats.num_solves == 5
        assert stats.last_batch_size == 5
        res.operator.solve(_block(rng, 128, 3))
        assert stats.num_solves == 8
        assert stats.last_batch_size == 3
        res.operator.solve(np.ones(128))
        assert stats.num_solves == 9
        assert stats.last_batch_size == 1

    @pytest.mark.parametrize("k", [1, 4, 32])
    def test_launches_independent_of_k(self, k, rng):
        """One plan replay per fused solve: launch count never scales with K."""
        A = hodlr_friendly_matrix(256)
        op = build_operator(A, _config("batched")).factorize()
        plan = op.solver.solve_plan
        assert plan is not None
        op.solve(_block(rng, 256, k))
        trace = op.solver.last_solve_trace
        assert trace.num_kernel_launches == plan.launches_per_solve
        assert trace.num_plan_launches == plan.launches_per_solve

    def test_apply_plan_block_matches_columns(self, rng):
        """The precomputed-gather ApplyPlan applies (n, K) blocks fused."""
        from repro import ApplyPlan, ClusterTree, build_hodlr

        n = 256
        A = hodlr_friendly_matrix(n)
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=32), tol=1e-12, method="svd")
        plan = ApplyPlan(H)
        X = _block(rng, n, 6)
        Y = plan.matvec(X)
        cols = np.stack([plan.matvec(X[:, j].copy()) for j in range(6)], axis=1)
        assert np.linalg.norm(Y - cols) / np.linalg.norm(cols) < 1e-13
        with pytest.raises(ValueError, match="ndim"):
            plan.matvec(X[:, :, None])


# ======================================================================
# block-iterative Krylov drivers
# ======================================================================
class TestBlockKrylov:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_gmres_block_matches_single_column_runs(self, kind, rng):
        n = 160
        A = complex_test_matrix(n) if kind == "complex" else hodlr_friendly_matrix(n)
        B = _block(rng, n, 4, kind)
        X, info, log = gmres_solve(A, B, tol=1e-12, maxiter=40)
        assert info == 0
        assert X.shape == (n, 4)
        for j in range(4):
            xj, info_j, _ = gmres_solve(A, B[:, j : j + 1], tol=1e-12, maxiter=40)
            assert info_j == 0
            assert np.linalg.norm(X[:, j] - xj[:, 0]) / np.linalg.norm(xj) < 1e-12
        # all columns meet the per-column tolerance
        R = B - A @ X
        assert (
            np.linalg.norm(R, axis=0) <= 1e-10 * np.linalg.norm(B, axis=0)
        ).all()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_cg_block_matches_single_column_runs(self, kind, rng):
        n = 160
        A = spd_kernel_matrix(n, nugget=1.0)
        if kind == "complex":
            # complex Hermitian positive definite
            rng_l = np.random.default_rng(7)
            L = rng_l.standard_normal((n, n)) + 1j * rng_l.standard_normal((n, n))
            A = A + 0.05 * (L @ L.conj().T) / n
        B = _block(rng, n, 4, kind)
        X, info, _ = cg_solve(A, B, tol=1e-12, maxiter=300)
        assert info == 0
        for j in range(4):
            xj, info_j, _ = cg_solve(A, B[:, j : j + 1], tol=1e-12, maxiter=300)
            assert info_j == 0
            assert np.linalg.norm(X[:, j] - xj[:, 0]) / np.linalg.norm(xj) < 1e-12

    @pytest.mark.parametrize("driver", [gmres_solve, cg_solve])
    def test_mixed_convergence_masks(self, driver, rng):
        """Columns converge independently; the per-column mask freezes the
        converged ones and ``info`` counts the stragglers."""
        n = 64
        vals = np.repeat([1.0, 2.0, 3.0, 4.0], n // 4)
        A = np.diag(vals)
        # column 0 lives on one eigenvalue: converges in a single iteration;
        # column 1 spans all four: needs four
        b_easy = np.zeros(n)
        b_easy[: n // 4] = rng.standard_normal(n // 4)
        b_hard = rng.standard_normal(n)
        B = np.stack([b_easy, b_hard], axis=1)
        # cap the iteration budget between the easy column's need (1) and
        # the hard one's (4); gmres counts maxiter in restart cycles
        budget = {"maxiter": 1, "restart": 2} if driver is gmres_solve else {"maxiter": 2}
        X, info, log = driver(A, B, tol=1e-12, **budget)
        assert info == 1  # one unconverged column
        assert isinstance(log, IterationLog)
        assert log.converged_at is not None
        assert log.converged_at[0] >= 0  # easy column converged...
        assert log.converged_at[1] < 0  # ...hard one did not
        # the converged column's solution is exact despite the early stop
        assert (
            np.linalg.norm(A @ X[:, 0] - b_easy) / np.linalg.norm(b_easy) < 1e-10
        )
        # full run converges both
        X2, info2, log2 = driver(A, B, tol=1e-12, maxiter=50)
        assert info2 == 0
        assert (log2.converged_at >= 0).all()

    def test_one_fused_matvec_per_iteration(self, rng):
        """The block driver applies the operator once per iteration — the
        application count does not scale with K."""
        n = 128
        A = hodlr_friendly_matrix(n)
        counts = {}

        def counted(X):
            counts["n"] = counts.get("n", 0) + 1
            return A @ X

        b = rng.standard_normal((n, 1))
        counts["n"] = 0
        _, info1, _ = gmres_solve(counted, b, tol=1e-10, maxiter=30)
        calls_k1 = counts["n"]
        # the same column replicated: identical convergence trajectory
        counts["n"] = 0
        _, info8, _ = gmres_solve(counted, np.repeat(b, 8, axis=1), tol=1e-10, maxiter=30)
        calls_k8 = counts["n"]
        assert info1 == 0 and info8 == 0
        assert calls_k8 == calls_k1

    def test_hodlr_preconditioned_block_solve(self, rng):
        """(n, K) RHS through gmres with a HODLR preconditioner: fused end to end."""
        n = 256
        A = hodlr_friendly_matrix(n)
        op = build_operator(
            A, SolverConfig(compression=CompressionConfig(tol=1e-4, method="svd"))
        )
        B = _block(rng, n, 3)
        X, info, log = gmres_solve(A, B, preconditioner=op, tol=1e-11, maxiter=30)
        assert info == 0
        R = B - A @ X
        assert (np.linalg.norm(R, axis=0) <= 1e-9 * np.linalg.norm(B, axis=0)).all()

    def test_1d_path_unchanged(self, rng):
        """1-D right-hand sides keep the scipy-driver contract (shape, log)."""
        n = 128
        A = hodlr_friendly_matrix(n)
        b = rng.standard_normal(n)
        x, info, log = gmres_solve(A, b, tol=1e-10)
        assert x.shape == (n,)
        assert info == 0
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9


# ======================================================================
# the operator cache
# ======================================================================
class TestOperatorCache:
    def test_hit_returns_same_operator(self):
        cache = OperatorCache(maxsize=4)
        r1 = repro.solve("gaussian_kernel", n=192, cache=cache)
        r2 = repro.solve("gaussian_kernel", n=192, cache=cache)
        assert r2.operator is r1.operator
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        # a cached hit shares SolveStats: num_solves accumulates
        assert r2.stats.num_solves == 2

    def test_lru_eviction(self):
        cache = OperatorCache(maxsize=2)
        for n in (128, 160, 192):
            repro.build_operator("gaussian_kernel", n=n, cache=cache)
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        # the oldest entry (n=128) was evicted: re-requesting misses
        misses = cache.stats.misses
        repro.build_operator("gaussian_kernel", n=128, cache=cache)
        assert cache.stats.misses == misses + 1

    def test_dtype_change_invalidates(self):
        """A config dtype change hashes to a new key — never a stale operator."""
        cache = OperatorCache(maxsize=4)
        op64 = repro.build_operator("gaussian_kernel", n=128, cache=cache)
        opc = repro.build_operator(
            "gaussian_kernel",
            SolverConfig(dtype="complex128"),
            n=128,
            cache=cache,
        )
        assert opc is not op64
        assert cache.stats.misses == 2
        assert np.dtype(opc.dtype).kind == "c"

    def test_param_change_misses(self):
        cache = OperatorCache(maxsize=4)
        repro.build_operator("gaussian_kernel", n=128, cache=cache)
        repro.build_operator("gaussian_kernel", n=128, lengthscale=0.5, cache=cache)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_default_is_isolated(self):
        """Without opting in, repeated solves build fresh operators with
        fresh per-call stats (the PR-2 contract)."""
        r1 = repro.solve("gaussian_kernel", n=128)
        r2 = repro.solve("gaussian_kernel", n=128)
        assert r1.operator is not r2.operator
        assert r1.stats.num_solves == 1
        assert r2.stats.num_solves == 1

    def test_global_switch(self):
        from repro.api import cache as cache_mod

        repro.clear_operator_cache()
        try:
            repro.enable_operator_cache(maxsize=4)
            op1 = repro.build_operator("gaussian_kernel", n=128)
            op2 = repro.build_operator("gaussian_kernel", n=128)
            assert op1 is op2
            # per-call opt-out beats the global switch
            op3 = repro.build_operator("gaussian_kernel", n=128, cache=False)
            assert op3 is not op1
        finally:
            repro.disable_operator_cache()
            repro.clear_operator_cache()
        assert not cache_mod.operator_cache_enabled()

    def test_assembled_inputs_bypass(self):
        """Mutable spellings (AssembledProblem, HODLRMatrix) are never cached."""
        assembled = repro.api.assemble("gaussian_kernel", n=128)
        assert problem_fingerprint(assembled) is None
        assert problem_fingerprint(assembled.hodlr) is None
        cache = OperatorCache(maxsize=4)
        repro.build_operator(assembled, cache=cache)
        assert cache.stats.misses == 0
        assert cache.stats.hits == 0
        assert len(cache) == 0

    def test_dense_array_fingerprint_is_content_based(self, rng):
        A = hodlr_friendly_matrix(96)
        f1 = problem_fingerprint(A)
        f2 = problem_fingerprint(A.copy())
        assert f1 == f2
        A2 = A.copy()
        A2[0, 0] += 1.0
        assert problem_fingerprint(A2) != f1

    def test_resize_evicts(self):
        cache = OperatorCache(maxsize=3)
        for n in (96, 128, 160):
            repro.build_operator("gaussian_kernel", n=n, cache=cache)
        cache.resize(1)
        assert len(cache) == 1
        assert cache.stats.evictions == 2


# ======================================================================
# the parameter-sweep engine
# ======================================================================
class TestRunSweep:
    def test_helmholtz_sweep_matches_rebuild(self):
        kappas = [10.0, 13.0, 16.0]
        res = run_sweep("helmholtz_kernel", [{"kappa": k} for k in kappas], n=384)
        assert len(res) == 3
        assert all(s.recycled for s in res.steps)
        for k, step in zip(kappas, res.steps):
            full = repro.solve("helmholtz_kernel", n=384, kappa=k)
            # both are tol-accurate approximations of the same matrix
            rel = np.linalg.norm(step.x - full.x) / np.linalg.norm(full.x)
            assert rel < 5e-6
            # the recycled factorization is solved exactly (direct solver)
            assert step.relative_residual < 1e-12
            # equal residual against the *exact* operator
            exact = full.problem.operator
            b = full.problem.rhs
            r_sweep = np.linalg.norm(b - exact(step.x)) / np.linalg.norm(b)
            r_full = np.linalg.norm(b - exact(full.x)) / np.linalg.norm(b)
            assert r_sweep < 10 * max(r_full, 1e-12)

    def test_gp_lengthscale_sweep_matches_rebuild(self):
        scales = [0.05, 0.08, 0.12]
        res = run_sweep("gp_covariance", [{"lengthscale": s} for s in scales], n=384)
        assert all(s.recycled for s in res.steps)
        for s_val, step in zip(scales, res.steps):
            full = repro.solve("gp_covariance", n=384, lengthscale=s_val)
            rel = np.linalg.norm(step.x - full.x) / np.linalg.norm(full.x)
            assert rel < 1e-8

    def test_large_jump_triggers_fallback_and_stays_accurate(self):
        res = run_sweep(
            "helmholtz_kernel", [{"kappa": 10.0}, {"kappa": 60.0}], n=384
        )
        jump = res.steps[1]
        assert jump.fallback_blocks > 0  # the sampled guard caught the drift
        full = repro.solve("helmholtz_kernel", n=384, kappa=60.0)
        rel = np.linalg.norm(jump.x - full.x) / np.linalg.norm(full.x)
        assert rel < 5e-5

    def test_trace_rows(self):
        res = run_sweep("helmholtz_kernel", [{"kappa": 10.0}, {"kappa": 11.0}], n=256)
        rows = res.trace()
        assert len(rows) == 2
        for row in rows:
            assert {"kappa", "relative_residual", "recycled", "fallback_blocks",
                    "max_rank", "eval_seconds", "factorize_seconds",
                    "solve_seconds", "total_seconds"} <= set(row)

    def test_geometry_key_falls_back_to_full_solve(self):
        res = run_sweep(
            "gaussian_kernel", [{"lengthscale": 0.3}, {"n": 192}], n=256
        )
        assert res.steps[0].recycled is True
        assert res.steps[1].recycled is False
        assert res.steps[1].x.shape == (192,)

    def test_config_sweep_shares_assembly(self):
        cfgs = [
            SolverConfig(variant=v, compression=CompressionConfig(tol=1e-10))
            for v in VARIANTS
        ]
        res = run_sweep("gaussian_kernel", cfgs, n=256)
        # first config assembles; the others reuse it (same compression)
        assert [s.recycled for s in res.steps] == [False, True]
        xs = res.solutions
        for x in xs[1:]:
            assert np.linalg.norm(x - xs[0]) / np.linalg.norm(xs[0]) < 1e-10

    def test_incremental_workspace(self):
        res = run_sweep(
            "helmholtz_kernel", [{"kappa": 10.0}], n=256, keep_workspace=True
        )
        assert res.workspace is not None
        extra = res.workspace.step({"kappa": 11.5})
        assert extra.recycled
        assert extra.relative_residual < 1e-12

    def test_shared_rhs_comes_from_problem(self):
        res = run_sweep("gp_covariance", [{"lengthscale": 0.06}], n=256)
        full = repro.solve("gp_covariance", n=256, lengthscale=0.06)
        # both solved the problem's natural rhs (training targets)
        assert np.linalg.norm(res.steps[0].x - full.x) / np.linalg.norm(full.x) < 1e-8
