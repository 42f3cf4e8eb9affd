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
    _lu_solve_batch,
    available_backends,
    get_backend,
    plan_batch,
    register_backend,
    registered_backends,
    vectorize_getrf,
)
from repro.api import SolverConfig
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
        """The policy changes construction only: the compiled factorization's
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


def _vectorised_getrf(A3, pivot=True):
    """The vectorised batched elimination on any stack, whatever the shape
    rule would pick for it."""
    return NumpyBackend().lu_factor_batch(A3, pivot=pivot)


def _vectorised_getrs(lu3, piv3, rhs3, pivot=True):
    """The vectorised batched substitution (the CuPy backend's LU solve)."""
    return _lu_solve_batch(np, lu3, piv3, rhs3, pivot=pivot)


#: the two host executions of an LU factor/solve pair: the launches as the
#: library issues them (the shape rule picks per-problem LAPACK on these
#: small batches), and the vectorised kernels forced on every stack
LAUNCHES = (getrf_batched, getrs_batched)
VECTORIZE_ALWAYS = (_vectorised_getrf, _vectorised_getrs)

#: every field DispatchPolicy no longer has
REMOVED_FIELDS = (
    "min_bucket",
    "lu_vectorize",
    "lu_factor_max_n",
    "lu_factor_min_batch",
    "lu_solve_max_n",
    "lu_solve_min_batch_ratio",
    "pad_buckets",
    "pad_max_waste",
)


class TestDispatchPolicyValidation:
    @pytest.mark.parametrize(
        "policy",
        [
            DEFAULT_POLICY,
            LOOP_POLICY,
            DispatchPolicy(),
            DispatchPolicy(bucketing=False),
            DEFAULT_POLICY.replace(bucketing=False),
            SolverConfig().execution_context().policy,
            SolverConfig.from_dict({"dispatch_policy": {"bucketing": False}}).dispatch_policy,
        ],
    )
    def test_policies_in_use_are_accepted(self, policy):
        assert policy.replace() == policy  # replace() validates again

    @pytest.mark.parametrize(
        "changes",
        [
            dict(bucketing=1),
            dict(bucketing="no"),
            dict(bucketing=None),
            dict(bucketing=0),
            dict(bucketing=1.0),
            dict(bucketing=np.int64(1)),
            dict(bucketing=[True]),
            dict(bucketing="True"),
        ],
    )
    def test_wrong_types_raise_type_error(self, changes):
        with pytest.raises(TypeError, match=next(iter(changes))):
            DispatchPolicy(**changes)

    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    def test_removed_fields_raise_type_error_naming_them(self, name):
        with pytest.raises(TypeError, match=name):
            DispatchPolicy(**{name: 1})
        with pytest.raises(TypeError, match=name):
            DEFAULT_POLICY.replace(**{name: 1})

    def test_replace_validates(self):
        with pytest.raises(TypeError, match="bucketing"):
            DEFAULT_POLICY.replace(bucketing="yes")


def _bucketed_lu_solve(mats, rhs, policy=LAUNCHES, pivot=True):
    """Factor and solve a heterogeneous batch with one strided factor and
    one solve call per shape bucket (``policy`` is the ``(factor, solve)``
    pair); 1-D right-hand sides come back 1-D."""
    factor, solve = policy
    out = [None] * len(mats)
    for bucket in plan_batch([(m.shape[0], np.shape(b)) for m, b in zip(mats, rhs)]).buckets:
        idx = bucket.indices
        lu3, piv3 = factor(np.stack([mats[i] for i in idx]), pivot=pivot)
        rhs3 = np.stack([np.reshape(rhs[i], (mats[i].shape[0], -1)) for i in idx])
        x3 = solve(lu3, piv3, rhs3, pivot=pivot)
        for j, i in enumerate(idx):
            out[i] = x3[j].reshape(np.shape(rhs[i]))
    return out


def _per_block_lu_solve(mats, rhs, pivot=True):
    """The reference: one LAPACK factor and solve (or the non-pivoted
    elimination) per matrix."""
    xb = get_backend("numpy")
    out = []
    for A, b in zip(mats, rhs):
        lu, piv = xb.lu_factor(A, pivot=pivot)
        out.append(xb.lu_solve(lu, piv, b, pivot=pivot))
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

    @pytest.mark.parametrize("policy", [LAUNCHES, VECTORIZE_ALWAYS])
    def test_bucketed_matches_per_block_loop_to_1e12(self, rng, policy):
        mats, rhs = self._mixed_problems(rng)
        fast = _bucketed_lu_solve(mats, rhs, policy)
        slow = _per_block_lu_solve(mats, rhs)
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_bucketed_roundtrip_residual(self, rng):
        mats, rhs = self._mixed_problems(rng)
        xs = _bucketed_lu_solve(mats, rhs)
        for A, b, x in zip(mats, rhs, xs):
            assert x.shape == b.shape
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("policy", [LAUNCHES, VECTORIZE_ALWAYS])
    def test_pivot_false_bucketed(self, rng, policy):
        mats, rhs = self._mixed_problems(rng, shift=12.0)  # diagonally dominant
        xs = _bucketed_lu_solve(mats, rhs, policy, pivot=False)
        ref = _per_block_lu_solve(mats, rhs, pivot=False)
        for a, b in zip(xs, ref):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("policy", [LAUNCHES, VECTORIZE_ALWAYS])
    def test_pivot_false_zero_pivot_raises_in_bucket(self, policy):
        singular_leading = np.array([[0.0, 1.0], [1.0, 0.0]])
        factor, _ = policy
        with pytest.raises(np.linalg.LinAlgError):
            factor(np.stack([singular_leading] * 2), pivot=False)

    def test_empty_batch(self):
        lu3, piv3 = getrf_batched(np.zeros((0, 4, 4)))
        assert lu3.shape == (0, 4, 4) and piv3.shape == (0, 4)
        assert getrs_batched(lu3, piv3, np.zeros((0, 4, 1))).shape == (0, 4, 1)

    @pytest.mark.parametrize("policy", [LAUNCHES, VECTORIZE_ALWAYS])
    def test_complex_bucketed(self, rng, policy):
        mats = [
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 5 * np.eye(5)
            for _ in range(4)
        ]
        rhs = [rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)) for _ in range(4)]
        xs = _bucketed_lu_solve(mats, rhs, policy)
        for A, b, x in zip(mats, rhs, xs):
            assert np.iscomplexobj(x)
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    def test_cross_policy_factors_interoperate(self, rng):
        """Factors from the vectorised kernel plug into the per-problem solve."""
        mats = [rng.standard_normal((6, 6)) + 6 * np.eye(6) for _ in range(4)]
        rhs = [rng.standard_normal((6, 1)) for _ in range(4)]
        xs = _bucketed_lu_solve(mats, rhs, (_vectorised_getrf, getrs_batched))
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
        lu3, piv3 = _vectorised_getrf(mats)
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
        lu3, piv3 = _vectorised_getrf(stack)
        x3 = _vectorised_getrs(lu3, piv3, rhs)
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
        """The shape rule picks the LU launch's host execution from the batch
        count, which ``bucket_size=`` overrides: refactorizing 4 members of a
        24-member bucket runs the vectorised elimination the whole bucket
        gets."""
        A3 = rng.standard_normal((4, 3, 3)) + 3 * np.eye(3)
        for bucket_size, expected in ((None, ["lu_factor"] * 4),
                                      (24, ["lu_factor_batch"]),
                                      (23, ["lu_factor"] * 4)):
            spy = _SpyBackend()
            getrf_batched(A3, backend=spy, bucket_size=bucket_size)
            assert spy.calls == expected, bucket_size

    @pytest.mark.parametrize(
        "nb, n, vectorised",
        [(23, 12, False), (24, 12, True), (24, 13, False), (23, 13, False), (512, 2, True)],
    )
    def test_shape_rule_boundaries(self, rng, nb, n, vectorised):
        """``getrf`` vectorises from 24 problems of size at most 12; ``getrs``
        always substitutes per problem."""
        assert vectorize_getrf(nb, n) is vectorised
        A3 = rng.standard_normal((nb, n, n)) + n * np.eye(n)
        spy = _SpyBackend()
        lu3, piv3 = getrf_batched(A3, backend=spy)
        assert spy.calls == (["lu_factor_batch"] if vectorised else ["lu_factor"] * nb)
        spy.calls.clear()
        getrs_batched(lu3, piv3, rng.standard_normal((nb, n, 1)), backend=spy)
        assert spy.calls == ["lu_solve_many"]


class _SpyBackend(NumpyBackend):
    """The NumPy backend, logging which LU host path each launch takes."""

    def __init__(self):
        self.calls = []

    def lu_factor(self, a, pivot=True):
        self.calls.append("lu_factor")
        return super().lu_factor(a, pivot=pivot)

    def lu_factor_batch(self, a, pivot=True):
        self.calls.append("lu_factor_batch")
        return super().lu_factor_batch(a, pivot=pivot)

    def lu_solve_many(self, lu3, piv3, rhs3, pivot=True, out=None):
        self.calls.append("lu_solve_many")
        return super().lu_solve_many(lu3, piv3, rhs3, pivot=pivot, out=out)
