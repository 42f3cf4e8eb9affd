"""Tests for the backend dispatch layer: shape-bucketed planning, the
vectorised batched LU kernels, the ArrayBackend registry, and the threading
of the dispatch through the strided per-bucket launches and the solver."""

import numpy as np
import pytest

from repro.backends.batched import (
    gemm_strided_batched,
    getrf_batched,
    getrs_batched,
)
from repro.backends.counters import get_recorder, getrf_flops, getrs_flops
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
from repro.core.factor_recursive import _lu_slogdet


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
        assert all(len(b) == 1 for b in plan.buckets)

    def test_uniform_batch_is_one_bucket(self):
        plan = plan_batch([(8, 8)] * 10)
        assert plan.num_buckets == 1
        assert plan.buckets[0].indices == tuple(range(10))

    def test_empty_batch(self):
        plan = plan_batch([])
        assert plan.nbatch == 0
        assert plan.num_buckets == 0
        assert plan.buckets == ()


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


def _per_bucket_gemm(A, B, conjugate_a=False):
    """One strided launch per shape bucket, scattered back in batch order —
    the lowering the compiled plans use for a heterogeneous level."""
    out = [None] * len(A)
    for bucket in plan_batch([(a.shape, b.shape) for a, b in zip(A, B)]).buckets:
        idx = bucket.indices
        out3 = gemm_strided_batched(np.stack([A[i] for i in idx]), np.stack([B[i] for i in idx]),
                                    conjugate_a=conjugate_a)
        for j, i in enumerate(idx):
            out[i] = out3[j]
    return out


class TestBucketedGemm:
    def test_empty_batch_returns_empty(self):
        out = gemm_strided_batched(np.zeros((0, 4, 3)), np.zeros((0, 3, 2)))
        assert out.shape == (0, 4, 2)

    def test_heterogeneous_batch_bucketed_equivalence(self, rng):
        """Per-bucket strided launches match per-block products to 1e-12."""
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
        for out, a, b in zip(_per_bucket_gemm(A, B), A, B):
            np.testing.assert_allclose(out, a @ b, rtol=1e-12, atol=1e-12)

    def test_conjugate_transpose_bucketed(self, rng):
        A = [rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)) for _ in range(3)]
        A.append(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        B = [rng.standard_normal((5, 2)) for _ in range(3)] + [rng.standard_normal((4, 3))]
        for out, a, b in zip(_per_bucket_gemm(A, B, conjugate_a=True), A, B):
            np.testing.assert_allclose(out, a.conj().T @ b)

    def test_vector_rhs_bucket(self, rng):
        """Vector right-hand sides ride as a width-1 strided stack."""
        A = rng.standard_normal((3, 4, 6))
        B = rng.standard_normal((3, 6))
        out = gemm_strided_batched(A, B[:, :, None])
        assert out.shape == (3, 4, 1)
        for i in range(3):
            np.testing.assert_allclose(out[i, :, 0], A[i] @ B[i])

    def test_event_records_buckets_and_strided(self, rng):
        rec = get_recorder()
        A = [rng.standard_normal((3, 3))] * 4 + [rng.standard_normal((5, 5))] * 2
        B = [rng.standard_normal((3, 2))] * 4 + [rng.standard_normal((5, 2))] * 2
        with rec.recording() as trace:
            _per_bucket_gemm(A, B)
        assert [e.batch for e in trace.events] == [4, 2]
        for event in trace.events:
            assert event.kernel == "gemm_strided_batched"
            assert event.strided and event.buckets == 1
        assert trace.num_kernel_launches == 2
        assert trace.num_bucketed_launches == 2

    def test_flops_match_between_policies(self):
        """The policy changes host execution only: the compiled schedule's
        launches, flops and bytes are identical under ``LOOP_POLICY``."""
        from conftest import hodlr_friendly_matrix
        from repro import ClusterTree, ExecutionContext, HODLRSolver, build_hodlr

        n = 300
        H = build_hodlr(hodlr_friendly_matrix(n, seed=3), ClusterTree.balanced(n, leaf_size=32),
                        tol=1e-11, method="svd")
        traces = [
            HODLRSolver(H, context=ExecutionContext(policy=policy)).factorize().factor_trace
            for policy in (DEFAULT_POLICY, LOOP_POLICY)
        ]
        fast, slow = ([(e.kernel, e.batch, e.shape) for e in t.events] for t in traces)
        assert fast == slow
        assert traces[0].total_flops == pytest.approx(traces[1].total_flops)
        assert traces[0].total_bytes == pytest.approx(traces[1].total_bytes)


#: forces the vectorised batched LU kernels regardless of problem size, so
#: the packed execution path is covered even on tiny test batches
VECTORIZE_ALWAYS = DispatchPolicy(
    lu_factor_max_n=4096,
    lu_factor_min_batch=2,
    lu_solve_max_n=4096,
    lu_solve_min_batch_ratio=0.0,
)


def _bucketed_lu_solve(mats, rhs, factor_policy=None, solve_policy=None, pivot=True):
    """Factor and solve a heterogeneous batch with one strided getrf/getrs
    launch per shape bucket; 1-D right-hand sides come back 1-D."""
    out = [None] * len(mats)
    for bucket in plan_batch([(m.shape[0], np.shape(b)) for m, b in zip(mats, rhs)]).buckets:
        idx = bucket.indices
        lu3, piv3 = getrf_batched(np.stack([mats[i] for i in idx]), pivot=pivot,
                                  policy=factor_policy)
        rhs3 = np.stack([np.reshape(rhs[i], (mats[i].shape[0], -1)) for i in idx])
        x3 = getrs_batched(lu3, piv3, rhs3, pivot=pivot, policy=solve_policy)
        for j, i in enumerate(idx):
            out[i] = x3[j].reshape(np.shape(rhs[i]))
    return out


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
        fast = _bucketed_lu_solve(mats, rhs, policy, policy)
        slow = _bucketed_lu_solve(mats, rhs, LOOP_POLICY, LOOP_POLICY)
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_bucketed_roundtrip_residual(self, rng):
        mats, rhs = self._mixed_problems(rng)
        xs = _bucketed_lu_solve(mats, rhs)
        for A, b, x in zip(mats, rhs, xs):
            assert x.shape == b.shape
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, VECTORIZE_ALWAYS])
    def test_pivot_false_bucketed(self, rng, policy):
        mats, rhs = self._mixed_problems(rng, shift=12.0)  # diagonally dominant
        xs = _bucketed_lu_solve(mats, rhs, policy, policy, pivot=False)
        ref = _bucketed_lu_solve(mats, rhs, LOOP_POLICY, LOOP_POLICY, pivot=False)
        for a, b in zip(xs, ref):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, VECTORIZE_ALWAYS])
    def test_pivot_false_zero_pivot_raises_in_bucket(self, policy):
        singular_leading = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            getrf_batched(np.stack([singular_leading] * 2), pivot=False, policy=policy)

    def test_empty_batch(self):
        lu3, piv3 = getrf_batched(np.zeros((0, 4, 4)))
        assert lu3.shape == (0, 4, 4) and piv3.shape == (0, 4)
        assert getrs_batched(lu3, piv3, np.zeros((0, 4, 1))).shape == (0, 4, 1)

    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, VECTORIZE_ALWAYS])
    def test_complex_bucketed(self, rng, policy):
        mats = [
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 5 * np.eye(5)
            for _ in range(4)
        ]
        rhs = [rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)) for _ in range(4)]
        xs = _bucketed_lu_solve(mats, rhs, policy, policy)
        for A, b, x in zip(mats, rhs, xs):
            assert np.iscomplexobj(x)
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    def test_cross_policy_factors_interoperate(self, rng):
        """Factors from the vectorised kernel plug into the per-problem solve."""
        mats = [rng.standard_normal((6, 6)) + 6 * np.eye(6) for _ in range(4)]
        rhs = [rng.standard_normal((6, 1)) for _ in range(4)]
        xs = _bucketed_lu_solve(mats, rhs, VECTORIZE_ALWAYS, LOOP_POLICY)
        for A, b, x in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    def test_event_records_buckets(self, rng):
        rec = get_recorder()
        mats = [rng.standard_normal((4, 4)) + 4 * np.eye(4) for _ in range(3)] + [
            rng.standard_normal((6, 6)) + 6 * np.eye(6) for _ in range(2)
        ]
        rhs = [np.ones((4, 1))] * 3 + [np.ones((6, 1))] * 2
        with rec.recording() as trace:
            _bucketed_lu_solve(mats, rhs)
        getrf_events = trace.filter(kernel="getrf_batched").events
        getrs_events = trace.filter(kernel="getrs_batched").events
        assert [e.shape for e in getrf_events] == [(4, 4, 0), (6, 6, 0)]
        assert [e.shape for e in getrs_events] == [(4, 1, 0), (6, 1, 0)]
        for e in getrf_events + getrs_events:
            assert e.buckets == 1 and e.strided and e.plan
        assert trace.filter(kernel="getrf_batched").total_flops == pytest.approx(
            3 * getrf_flops(4) + 2 * getrf_flops(6)
        )
        assert trace.filter(kernel="getrs_batched").total_flops == pytest.approx(
            3 * getrs_flops(4, 1) + 2 * getrs_flops(6, 1)
        )

    def test_logdet_from_vectorised_factors(self, rng):
        mats = rng.standard_normal((4, 5, 5)) + 5 * np.eye(5)
        lu3, piv3 = getrf_batched(mats, policy=VECTORIZE_ALWAYS)
        for i, A in enumerate(mats):
            sign, logabs = _lu_slogdet(lu3[i], piv3[i])
            s_ref, l_ref = np.linalg.slogdet(A)
            assert np.real(sign) * s_ref > 0
            assert logabs == pytest.approx(l_ref, rel=1e-10)


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

    @pytest.mark.parametrize("variant", ["recursive", "batched"])
    def test_named_backend_accepted(self, small_hodlr, variant, rng):
        from repro import ExecutionContext, HODLRSolver

        A, H = small_hodlr
        ctx = ExecutionContext(backend="numpy")
        solver = HODLRSolver(H, variant=variant, context=ctx).factorize()
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_dispatch_policy_threaded_to_batched_variant(self, small_hodlr, rng):
        from repro import ExecutionContext, HODLRSolver

        A, H = small_hodlr
        b = rng.standard_normal(A.shape[0])
        fast = HODLRSolver(H, context=ExecutionContext(policy=DEFAULT_POLICY)).factorize()
        slow = HODLRSolver(H, context=ExecutionContext(policy=LOOP_POLICY)).factorize()
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
        """An explicit ``policy=`` overrides the LU pair's default host
        execution: vectorised batched LU or per-problem LAPACK."""

        class Spy(NumpyBackend):
            def __init__(self):
                self.calls = []

            def lu_factor(self, a, pivot=True):
                self.calls.append("lu_factor")
                return super().lu_factor(a, pivot=pivot)

            def lu_factor_batch(self, a, pivot=True):
                self.calls.append("lu_factor_batch")
                return super().lu_factor_batch(a, pivot=pivot)

        A3 = rng.standard_normal((4, 3, 3)) + 3 * np.eye(3)
        for policy, expected in ((None, ["lu_factor"] * 4),
                                 (VECTORIZE_ALWAYS, ["lu_factor_batch"]),
                                 (LOOP_POLICY, ["lu_factor"] * 4)):
            spy = Spy()
            getrf_batched(A3, backend=spy, policy=policy)
            assert spy.calls == expected, policy
