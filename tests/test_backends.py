"""Tests for the batched backend, kernel tracing, and the performance model."""

import numpy as np
import pytest

from repro.backends.batched import (
    gemm_batched,
    gemm_strided_batched,
    getrf_batched,
    getrs_batched,
)
from repro.backends.counters import (
    KernelEvent,
    KernelTrace,
    gemm_flops,
    getrf_flops,
    getrs_flops,
    get_recorder,
)
from repro.backends.device import CPU_XEON_6254_DUAL, GPU_V100, PCIE3_X16, DeviceSpec
from repro.backends.dispatch import get_backend
from repro.backends.perfmodel import PerformanceModel


class TestGemmBatched:
    def test_pointer_batch_matches_numpy(self, rng):
        A = [rng.standard_normal((5, 7)) for _ in range(4)]
        B = [rng.standard_normal((7, 3)) for _ in range(4)]
        out = gemm_batched(A, B)
        for i in range(4):
            np.testing.assert_allclose(out[i], A[i] @ B[i])

    def test_conjugate_transpose(self, rng):
        A = [rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)) for _ in range(3)]
        B = [rng.standard_normal((5, 2)) for _ in range(3)]
        out = gemm_batched(A, B, conjugate_a=True)
        for i in range(3):
            np.testing.assert_allclose(out[i], A[i].conj().T @ B[i])

    def test_alpha_beta(self, rng):
        A = [rng.standard_normal((4, 4)) for _ in range(2)]
        B = [rng.standard_normal((4, 4)) for _ in range(2)]
        C = [rng.standard_normal((4, 4)) for _ in range(2)]
        out = gemm_batched(A, B, C=C, alpha=2.0, beta=-1.0)
        for i in range(2):
            np.testing.assert_allclose(out[i], 2.0 * A[i] @ B[i] - C[i])

    def test_heterogeneous_shapes(self, rng):
        A = [rng.standard_normal((3, 5)), rng.standard_normal((6, 2))]
        B = [rng.standard_normal((5, 4)), rng.standard_normal((2, 4))]
        out = gemm_batched(A, B)
        np.testing.assert_allclose(out[0], A[0] @ B[0])
        np.testing.assert_allclose(out[1], A[1] @ B[1])

    def test_batch_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            gemm_batched([np.eye(2)], [np.eye(2), np.eye(2)])

    def test_strided_batch_matches_numpy(self, rng):
        A = rng.standard_normal((6, 5, 7))
        B = rng.standard_normal((6, 7, 3))
        out = gemm_strided_batched(A, B)
        np.testing.assert_allclose(out, np.matmul(A, B))

    def test_strided_conjugate(self, rng):
        A = rng.standard_normal((4, 5, 2)) + 1j * rng.standard_normal((4, 5, 2))
        B = rng.standard_normal((4, 5, 3))
        out = gemm_strided_batched(A, B, conjugate_a=True)
        np.testing.assert_allclose(out, np.matmul(np.conj(A.transpose(0, 2, 1)), B))

    def test_strided_requires_3d(self, rng):
        with pytest.raises(ValueError):
            gemm_strided_batched(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))


class TestLUBatched:
    def test_factor_solve_roundtrip(self, rng):
        mats = [rng.standard_normal((6, 6)) + 6 * np.eye(6) for _ in range(5)]
        rhs = [rng.standard_normal((6, 2)) for _ in range(5)]
        lu = getrf_batched(mats)
        xs = getrs_batched(lu, rhs)
        for A, B, X in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ X, B, rtol=1e-10, atol=1e-12)

    def test_strided_input(self, rng):
        mats = rng.standard_normal((4, 5, 5)) + 5 * np.eye(5)
        rhs = rng.standard_normal((4, 5, 3))
        lu = getrf_batched(mats)
        xs = getrs_batched(lu, rhs)
        for i in range(4):
            np.testing.assert_allclose(mats[i] @ xs[i], rhs[i], rtol=1e-10, atol=1e-12)

    def test_vector_rhs(self, rng):
        mats = [rng.standard_normal((4, 4)) + 4 * np.eye(4)]
        rhs = [rng.standard_normal(4)]
        lu = getrf_batched(mats)
        xs = getrs_batched(lu, rhs)
        assert xs[0].shape == (4,)
        np.testing.assert_allclose(mats[0] @ xs[0], rhs[0], rtol=1e-10)

    def test_no_pivot_variant(self, rng):
        # diagonally dominant matrices are safe without pivoting
        mats = [rng.standard_normal((5, 5)) + 10 * np.eye(5) for _ in range(3)]
        rhs = [rng.standard_normal((5, 1)) for _ in range(3)]
        lu = getrf_batched(mats, pivot=False)
        assert not lu.pivot
        xs = getrs_batched(lu, rhs)
        for A, B, X in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ X, B, rtol=1e-8, atol=1e-10)

    def test_no_pivot_zero_pivot_raises(self):
        singular_leading = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            getrf_batched([singular_leading], pivot=False)

    def test_non_square_raises(self, rng):
        with pytest.raises(ValueError):
            getrf_batched([rng.standard_normal((3, 4))])

    def test_rhs_batch_mismatch_raises(self, rng):
        lu = getrf_batched([np.eye(3)])
        with pytest.raises(ValueError):
            getrs_batched(lu, [np.ones(3), np.ones(3)])

    def test_batched_logdet(self, rng):
        mats = [rng.standard_normal((5, 5)) + 5 * np.eye(5) for _ in range(4)]
        lu = getrf_batched(mats)
        signs, logs = lu.logdet()
        for i, A in enumerate(mats):
            s_ref, l_ref = np.linalg.slogdet(A)
            assert np.real(signs[i]) * s_ref > 0
            assert logs[i] == pytest.approx(l_ref, rel=1e-10)


class TestTracing:
    def test_events_recorded_with_flop_counts(self, rng):
        rec = get_recorder()
        A = rng.standard_normal((3, 8, 4))
        B = rng.standard_normal((3, 4, 6))
        with rec.recording() as trace:
            gemm_strided_batched(A, B)
            getrf_batched([np.eye(5) + rng.standard_normal((5, 5)) * 0.1])
        assert trace.num_launches == 2
        kernels = {e.kernel for e in trace.events}
        assert kernels == {"gemm_strided_batched", "getrf_batched"}
        expected_gemm = 3 * gemm_flops(8, 6, 4)
        assert trace.flops_by_kernel()["gemm_strided_batched"] == pytest.approx(expected_gemm)
        assert trace.flops_by_kernel()["getrf_batched"] == pytest.approx(getrf_flops(5))

    def test_nothing_recorded_outside_context(self, rng):
        rec = get_recorder()
        gemm_batched([np.eye(3)], [np.eye(3)])  # no active recording: silently ignored
        with rec.recording() as trace:
            pass
        assert trace.num_launches == 0

    def test_nested_recordings_bubble_up(self, rng):
        rec = get_recorder()
        with rec.recording() as outer:
            with rec.recording() as inner:
                gemm_batched([np.eye(3)], [np.eye(3)])
            assert inner.num_launches == 1
        assert outer.num_launches == 1

    def test_context_metadata(self, rng):
        rec = get_recorder()
        with rec.recording() as trace:
            with rec.context(level=3, tag="factor"):
                gemm_batched([np.eye(3)], [np.eye(3)])
        assert trace.events[0].level == 3
        assert trace.events[0].tag == "factor"
        assert trace.launches_by_level() == {3: 1}

    def test_transfer_accounting(self):
        rec = get_recorder()
        with rec.recording() as trace:
            rec.add_transfer(1000, "h2d")
            rec.add_transfer(500, "d2h")
        assert trace.h2d_bytes == 1000
        assert trace.d2h_bytes == 500

    def test_trace_filter_and_summary(self, rng):
        rec = get_recorder()
        with rec.recording() as trace:
            with rec.context(tag="factor"):
                gemm_batched([np.eye(3)], [np.eye(3)])
            with rec.context(tag="solve"):
                gemm_batched([np.eye(3)], [np.eye(3)])
        assert trace.filter(tag="factor").num_launches == 1
        assert trace.filter(kernel="gemm_batched").num_launches == 2
        summary = trace.summary()
        assert summary["launches"] == 2


class TestPerformanceModel:
    def _trace(self, flops, nbytes, launches=1, dtype_size=8):
        t = KernelTrace()
        for _ in range(launches):
            t.append(
                KernelEvent(
                    kernel="gemm_batched",
                    batch=1,
                    shape=(10, 10, 10),
                    flops=flops / launches,
                    bytes_moved=nbytes / launches,
                    dtype_size=dtype_size,
                )
            )
        return t

    def test_more_work_takes_longer(self):
        model = PerformanceModel()
        small = model.estimate(self._trace(1e8, 1e6))
        large = model.estimate(self._trace(1e10, 1e8))
        assert large.total_time > small.total_time

    def test_gpu_beats_cpu_on_large_kernels(self):
        trace = self._trace(1e11, 1e9)
        gpu = PerformanceModel(device=GPU_V100, link=None).estimate(trace)
        cpu = PerformanceModel(device=CPU_XEON_6254_DUAL, link=None).estimate(trace)
        assert gpu.total_time < cpu.total_time

    def test_launch_overhead_penalises_many_small_kernels(self):
        model = PerformanceModel(link=None)
        fused = model.estimate(self._trace(1e8, 1e6, launches=1))
        split = model.estimate(self._trace(1e8, 1e6, launches=1000))
        assert split.total_time > fused.total_time

    def test_single_precision_is_faster(self):
        model = PerformanceModel(link=None)
        double = model.estimate(self._trace(1e10, 1e8, dtype_size=8))
        single = model.estimate(self._trace(1e10, 0.5e8, dtype_size=4))
        assert single.total_time < double.total_time

    def test_transfer_time_included(self):
        model = PerformanceModel()
        trace = self._trace(1e8, 1e6)
        trace.h2d_bytes = 1e9
        est = model.estimate(trace)
        assert est.transfer_time >= 1e9 / PCIE3_X16.bandwidth
        est_no = model.estimate(trace, include_transfer=False)
        assert est_no.transfer_time == 0.0

    def test_gflops_property(self):
        model = PerformanceModel(link=None)
        est = model.estimate(self._trace(1e10, 1e8))
        assert est.gflops == pytest.approx(1e10 / est.total_time / 1e9)

    def test_device_efficiency_ramp(self):
        dev = DeviceSpec(
            name="toy", peak_flops=1e12, mem_bandwidth=1e11, launch_overhead=1e-6,
            min_efficiency=0.1, saturation_flops=1e9,
        )
        assert dev.effective_flops(1e6) < dev.effective_flops(1e9)
        assert dev.effective_flops(1e9) == pytest.approx(1e12)
        assert dev.effective_flops(1e9, dtype_size=4) == pytest.approx(2e12)

    def test_flop_helpers(self):
        assert gemm_flops(2, 3, 4) == 48
        assert gemm_flops(2, 3, 4, complex_arith=True) == 192
        assert getrf_flops(3) == pytest.approx(18.0)
        assert getrs_flops(3, 2) == pytest.approx(36.0)

    def test_backend_facade(self, rng):
        """The batched primitives run on an explicitly passed array backend."""
        xb = get_backend("numpy")
        A = [rng.standard_normal((3, 3))]
        B = [rng.standard_normal((3, 3))]
        np.testing.assert_allclose(gemm_batched(A, B, backend=xb)[0], A[0] @ B[0])
        lu = getrf_batched([np.eye(3)], backend=xb)
        np.testing.assert_allclose(
            getrs_batched(lu, [np.ones(3)], backend=xb)[0], np.ones(3)
        )
