"""Tests for the backend dispatch layer: shape-bucketed planning, the
vectorised batched LU kernels, the ArrayBackend registry, and the threading
of the dispatch through the batched primitives and the solver."""

import numpy as np
import pytest

from repro.backends.batched import (
    gemm_batched,
    getrf_batched,
    getrs_batched,
)
from repro.backends.counters import get_recorder
from repro.backends.dispatch import (
    DEFAULT_POLICY,
    LOOP_POLICY,
    BackendUnavailableError,
    BatchPlanner,
    DispatchPolicy,
    NumpyBackend,
    available_backends,
    get_backend,
    plan_batch,
    register_backend,
    registered_backends,
)


class TestBatchPlanner:
    def test_mixed_shapes_grouped_into_buckets(self):
        keys = [(3, 5), (4, 4), (3, 5), (4, 4), (3, 5), (2, 2)]
        plan = BatchPlanner().plan(keys)
        assert plan.nbatch == 6
        assert plan.num_buckets == 3
        by_key = {b.key: b.indices for b in plan.buckets}
        assert by_key[(3, 5)] == (0, 2, 4)
        assert by_key[(4, 4)] == (1, 3)
        assert by_key[(2, 2)] == (5,)

    def test_bucket_order_follows_first_occurrence(self):
        plan = plan_batch(["b", "a", "b", "c", "a"])
        assert [b.key for b in plan.buckets] == ["b", "a", "c"]

    def test_singleton_buckets(self):
        plan = plan_batch([(1,), (2,), (3,)])
        assert plan.num_buckets == 3
        assert plan.max_bucket == 1
        assert plan.packed_buckets(min_bucket=2) == []

    def test_uniform_batch_is_one_bucket(self):
        plan = plan_batch([(8, 8)] * 10)
        assert plan.num_buckets == 1
        assert len(plan.buckets[0]) == 10
        assert plan.packed_buckets() == list(plan.buckets)

    def test_empty_batch(self):
        plan = plan_batch([])
        assert plan.nbatch == 0
        assert plan.num_buckets == 0
        assert plan.max_bucket == 0


class TestBackendRegistry:
    def test_numpy_backend_is_default(self):
        xb = get_backend("numpy")
        assert isinstance(xb, NumpyBackend)
        assert get_backend("numpy") is xb  # cached instance

    def test_numpy_and_cupy_are_registered(self):
        names = registered_backends()
        assert "numpy" in names and "cupy" in names
        # numpy always imports; cupy only on CUDA machines
        assert "numpy" in available_backends()

    def test_unknown_backend_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown array backend"):
            get_backend("no-such-backend")

    def test_register_custom_backend(self):
        class Custom(NumpyBackend):
            name = "custom-test"

        register_backend("custom-test", Custom, overwrite=True)
        assert isinstance(get_backend("custom-test"), Custom)
        with pytest.raises(ValueError):
            register_backend("custom-test", Custom)  # no silent overwrite

    def test_unavailable_backend_excluded(self):
        def broken():
            raise BackendUnavailableError("missing dependency")

        register_backend("broken-test", broken, overwrite=True)
        assert "broken-test" in registered_backends()
        assert "broken-test" not in available_backends()


class TestBucketedGemm:
    def test_empty_batch_returns_empty(self):
        assert gemm_batched([], []) == []

    def test_heterogeneous_batch_bucketed_equivalence(self, rng):
        """Bucketed execution matches the per-block loop to 1e-12."""
        A = (
            [rng.standard_normal((5, 7)) for _ in range(4)]
            + [rng.standard_normal((6, 2)) for _ in range(3)]
            + [rng.standard_normal((9, 9))]
        )
        B = (
            [rng.standard_normal((7, 3)) for _ in range(4)]
            + [rng.standard_normal((2, 4)) for _ in range(3)]
            + [rng.standard_normal((9, 1))]
        )
        bucketed = gemm_batched(A, B, policy=DEFAULT_POLICY)
        looped = gemm_batched(A, B, policy=LOOP_POLICY)
        for xb_out, loop_out in zip(bucketed, looped):
            np.testing.assert_allclose(xb_out, loop_out, rtol=1e-12, atol=1e-12)

    def test_alpha_beta_bucketed(self, rng):
        A = [rng.standard_normal((4, 4)) for _ in range(3)]
        B = [rng.standard_normal((4, 4)) for _ in range(3)]
        C = [rng.standard_normal((4, 4)) for _ in range(3)]
        out = gemm_batched(A, B, C=C, alpha=2.0, beta=-1.0)
        for i in range(3):
            np.testing.assert_allclose(out[i], 2.0 * A[i] @ B[i] - C[i])

    def test_conjugate_transpose_bucketed(self, rng):
        A = [rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)) for _ in range(3)]
        B = [rng.standard_normal((5, 2)) for _ in range(3)]
        out = gemm_batched(A, B, conjugate_a=True)
        for i in range(3):
            np.testing.assert_allclose(out[i], A[i].conj().T @ B[i])

    def test_vector_rhs_bucket(self, rng):
        A = [rng.standard_normal((4, 6)) for _ in range(3)]
        B = [rng.standard_normal(6) for _ in range(3)]
        out = gemm_batched(A, B)
        for i in range(3):
            assert out[i].shape == (4,)
            np.testing.assert_allclose(out[i], A[i] @ B[i])

    def test_event_records_buckets_and_strided(self, rng):
        rec = get_recorder()
        A = [rng.standard_normal((3, 3))] * 4 + [rng.standard_normal((5, 5))] * 2
        B = [rng.standard_normal((3, 2))] * 4 + [rng.standard_normal((5, 2))] * 2
        with rec.recording() as trace:
            gemm_batched(A, B)
        (event,) = trace.events
        assert event.kernel == "gemm_batched"
        assert event.batch == 6
        assert event.buckets == 2
        assert event.strided  # >= 2 equal-shape blocks execute as strided buckets
        assert trace.num_kernel_launches == 2
        assert trace.num_bucketed_launches == 2

    def test_loop_policy_records_seed_event(self, rng):
        rec = get_recorder()
        A = [rng.standard_normal((3, 3))] * 4
        B = [rng.standard_normal((3, 2))] * 4
        with rec.recording() as trace:
            gemm_batched(A, B, policy=LOOP_POLICY)
        (event,) = trace.events
        assert not event.strided
        assert event.buckets == 1

    def test_flops_match_between_policies(self, rng):
        rec = get_recorder()
        A = [rng.standard_normal((5, 7)) for _ in range(4)] + [rng.standard_normal((2, 3))]
        B = [rng.standard_normal((7, 3)) for _ in range(4)] + [rng.standard_normal((3, 1))]
        with rec.recording() as bucketed_trace:
            gemm_batched(A, B)
        with rec.recording() as loop_trace:
            gemm_batched(A, B, policy=LOOP_POLICY)
        assert bucketed_trace.total_flops == pytest.approx(loop_trace.total_flops)
        assert bucketed_trace.total_bytes == pytest.approx(loop_trace.total_bytes)


#: forces the vectorised batched LU kernels regardless of problem size, so
#: the packed execution path is covered even on tiny test batches
VECTORIZE_ALWAYS = DispatchPolicy(
    lu_factor_max_n=4096,
    lu_factor_min_batch=2,
    lu_solve_max_n=4096,
    lu_solve_min_batch_ratio=0.0,
)


class TestBucketedLU:
    def _mixed_problems(self, rng, shift=6.0):
        mats = [rng.standard_normal((6, 6)) + shift * np.eye(6) for _ in range(5)] + [
            rng.standard_normal((4, 4)) + shift * np.eye(4) for _ in range(3)
        ]
        rhs = [rng.standard_normal((6, 2)) for _ in range(5)] + [
            rng.standard_normal(4) for _ in range(3)
        ]
        return mats, rhs

    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, VECTORIZE_ALWAYS])
    def test_bucketed_matches_per_block_loop_to_1e12(self, rng, policy):
        mats, rhs = self._mixed_problems(rng)
        fast = getrs_batched(getrf_batched(mats, policy=policy), rhs, policy=policy)
        slow = getrs_batched(getrf_batched(mats, policy=LOOP_POLICY), rhs, policy=LOOP_POLICY)
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_bucketed_roundtrip_residual(self, rng):
        mats, rhs = self._mixed_problems(rng)
        xs = getrs_batched(getrf_batched(mats), rhs)
        for A, b, x in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, VECTORIZE_ALWAYS])
    def test_pivot_false_bucketed(self, rng, policy):
        mats, rhs = self._mixed_problems(rng, shift=12.0)  # diagonally dominant
        lu = getrf_batched(mats, pivot=False, policy=policy)
        assert not lu.pivot
        xs = getrs_batched(lu, rhs, policy=policy)
        ref = getrs_batched(getrf_batched(mats, pivot=False, policy=LOOP_POLICY),
                            rhs, policy=LOOP_POLICY)
        for a, b in zip(xs, ref):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, VECTORIZE_ALWAYS])
    def test_pivot_false_zero_pivot_raises_in_bucket(self, policy):
        singular_leading = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            getrf_batched([singular_leading, singular_leading], pivot=False, policy=policy)

    def test_empty_batch(self):
        lu = getrf_batched([])
        assert len(lu) == 0
        assert getrs_batched(lu, []) == []

    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, VECTORIZE_ALWAYS])
    def test_complex_bucketed(self, rng, policy):
        mats = [
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 5 * np.eye(5)
            for _ in range(4)
        ]
        rhs = [rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)) for _ in range(4)]
        xs = getrs_batched(getrf_batched(mats, policy=policy), rhs, policy=policy)
        for A, b, x in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    def test_cross_policy_factors_interoperate(self, rng):
        """Factors from the vectorised kernel plug into the per-block solve."""
        mats = [rng.standard_normal((6, 6)) + 6 * np.eye(6) for _ in range(4)]
        rhs = [rng.standard_normal((6, 1)) for _ in range(4)]
        lu_fast = getrf_batched(mats, policy=VECTORIZE_ALWAYS)  # vectorised bucket
        xs = getrs_batched(lu_fast, rhs, policy=LOOP_POLICY)  # scipy lu_solve
        for A, b, x in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    def test_event_records_buckets(self, rng):
        rec = get_recorder()
        mats = [rng.standard_normal((4, 4)) + 4 * np.eye(4) for _ in range(3)] + [
            rng.standard_normal((6, 6)) + 6 * np.eye(6) for _ in range(2)
        ]
        with rec.recording() as trace:
            lu = getrf_batched(mats)
            getrs_batched(lu, [np.ones((4, 1))] * 3 + [np.ones((6, 1))] * 2)
        getrf_event, getrs_event = trace.events
        assert getrf_event.buckets == 2 and getrf_event.strided
        assert getrs_event.buckets == 2 and getrs_event.strided

    def test_logdet_from_vectorised_factors(self, rng):
        mats = [rng.standard_normal((5, 5)) + 5 * np.eye(5) for _ in range(4)]
        signs, logs = getrf_batched(mats, policy=VECTORIZE_ALWAYS).logdet()
        for i, A in enumerate(mats):
            s_ref, l_ref = np.linalg.slogdet(A)
            assert np.real(signs[i]) * s_ref > 0
            assert logs[i] == pytest.approx(l_ref, rel=1e-10)


class TestVectorisedKernelDirect:
    def test_lu_factor_batch_matches_scipy(self, rng):
        from scipy import linalg as sla

        stack = rng.standard_normal((6, 8, 8)) + 8 * np.eye(8)
        lu3, piv3 = NumpyBackend().lu_factor_batch(stack)
        for i in range(6):
            lu_ref, piv_ref = sla.lu_factor(stack[i], check_finite=False)
            np.testing.assert_allclose(lu3[i], lu_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(piv3[i], piv_ref)

    def test_lu_solve_batch_matches_scipy(self, rng):
        from scipy import linalg as sla

        stack = rng.standard_normal((5, 7, 7)) + 7 * np.eye(7)
        rhs = rng.standard_normal((5, 7, 3))
        xb = NumpyBackend()
        lu3, piv3 = xb.lu_factor_batch(stack)
        x3 = xb.lu_solve_batch(lu3, piv3, rhs)
        for i in range(5):
            ref = sla.lu_solve((lu3[i], piv3[i]), rhs[i], check_finite=False)
            np.testing.assert_allclose(x3[i], ref, rtol=1e-12, atol=1e-12)


class TestSolverThreading:
    @pytest.fixture()
    def small_hodlr(self):
        from conftest import hodlr_friendly_matrix
        from repro import ClusterTree, build_hodlr

        n = 300  # non-power-of-two => heterogeneous leaf/level shapes
        A = hodlr_friendly_matrix(n, seed=3)
        tree = ClusterTree.balanced(n, leaf_size=32)
        return A, build_hodlr(A, tree, tol=1e-11, method="svd")

    @pytest.mark.parametrize("variant", ["recursive", "flat", "batched"])
    def test_named_backend_accepted(self, small_hodlr, variant, rng):
        from repro import HODLRSolver

        A, H = small_hodlr
        solver = HODLRSolver(H, variant=variant, backend="numpy").factorize()
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_dispatch_policy_threaded_to_batched_variant(self, small_hodlr, rng):
        from repro import HODLRSolver

        A, H = small_hodlr
        b = rng.standard_normal(A.shape[0])
        fast = HODLRSolver(H, dispatch_policy=DEFAULT_POLICY).factorize()
        slow = HODLRSolver(H, dispatch_policy=LOOP_POLICY).factorize()
        np.testing.assert_allclose(fast.solve(b), slow.solve(b), rtol=1e-10, atol=1e-10)
        fast_events = [e for e in fast.factor_trace.events if e.kernel == "getrf_batched"]
        assert any(e.strided for e in fast_events)
        slow_events = [e for e in slow.factor_trace.events if e.kernel == "getrf_batched"]
        assert all(e.buckets == 1 for e in slow_events)

    def test_bucketed_launches_counted_by_perfmodel(self, small_hodlr, rng):
        from repro import HODLRSolver, PerformanceModel

        _, H = small_hodlr
        solver = HODLRSolver(H).factorize()
        est = PerformanceModel().estimate(solver.factor_trace)
        assert est.num_kernel_launches >= est.num_launches

    def test_batched_backend_policy_override(self, rng):
        """An explicit ``policy=`` overrides the batched primitives' default."""
        rec = get_recorder()
        with rec.recording() as trace:
            gemm_batched(
                [np.eye(3)] * 3, [np.eye(3)] * 3,
                policy=DispatchPolicy(bucketing=False),
            )
        assert trace.events[0].buckets == 1
        assert not trace.events[0].strided
