"""Execution contexts: backend placement, precision policies, pad-to-bucket
packing, baseline solver variants, and per-problem default configs (PR 4).

The recording stub backend below is the proof required by the PR's
acceptance criteria: a ``SolverConfig(backend="cupy")`` (with the stub
registered under the ``cupy`` name) drives construction, factorization, and
apply end to end without touching the NumPy backend in the hot paths and
without a single host round-trip inside them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from scipy import linalg as sla

import repro
from repro import (
    ApplyPlan,
    ClusterTree,
    ExecutionContext,
    GaussianKernel,
    HODLROperator,
    HODLRSolver,
    KernelMatrix,
    PrecisionPolicy,
    available_solver_variants,
    build_hodlr,
    resolve_context,
)
from repro.api import CompressionConfig, ConfigError, SolverConfig, get_problem
from repro.backends import dispatch
from repro.backends.context import DEFAULT_CONTEXT
from repro.backends.dispatch import (
    DispatchPolicy,
    NumpyBackend,
    _lu_factor_batch,
    _lu_solve_batch,
    lu_factor_nopivot,
    lu_solve_nopivot,
    plan_batch_padded,
)
from repro.backends.batched import gemm_batched
from repro.backends.counters import get_recorder


# ======================================================================
# helpers
# ======================================================================
def _gaussian_km(n=512, seed=0, lengthscale=0.4):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n, 2))
    return KernelMatrix(
        kernel=GaussianKernel(lengthscale=lengthscale), points=points, diagonal_shift=1.0
    )


def _gaussian_hodlr(n=512, tol=1e-9, leaf_size=32, method="randomized", seed=0):
    H, _ = _gaussian_km(n, seed=seed).to_hodlr(
        leaf_size=leaf_size, tol=tol, method=method
    )
    return H


# ======================================================================
# the recording stub backend ("cupy" without a GPU)
# ======================================================================
class _DeviceArray(np.ndarray):
    """Marker subclass standing in for device-resident memory."""


def _wrap(x):
    return np.asarray(x).view(_DeviceArray)


class RecordingStubBackend:
    """An ArrayBackend that computes with NumPy but *records* every call.

    It deliberately does NOT subclass :class:`NumpyBackend`: the stub must
    count as a non-host backend (``ExecutionContext.device_resident``) and
    its calls must not trip the NumPy-backend spies.  Every produced array
    is wrapped in :class:`_DeviceArray`, so device residency of downstream
    storage is checkable with ``isinstance``.
    """

    name = "cupy"

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.to_host_calls = 0

    # -- placement ----------------------------------------------------
    def asarray(self, x):
        self.calls["asarray"] += 1
        return _wrap(x)

    def to_host(self, x):
        self.to_host_calls += 1
        return np.asarray(x).view(np.ndarray)

    def from_host(self, x):
        self.calls["from_host"] += 1
        return _wrap(x)

    def synchronize(self):
        return None

    # -- allocation / packing -----------------------------------------
    def stack(self, xs):
        self.calls["stack"] += 1
        return _wrap(np.asarray([np.asarray(x) for x in xs]))

    def concat(self, xs, axis=0):
        self.calls["concat"] += 1
        return _wrap(np.concatenate([np.asarray(x) for x in xs], axis=axis))

    def zeros(self, shape, dtype=np.float64):
        self.calls["zeros"] += 1
        return _wrap(np.zeros(shape, dtype=dtype))

    def eye(self, n, dtype=np.float64):
        self.calls["eye"] += 1
        return _wrap(np.eye(n, dtype=dtype))

    def broadcast_to(self, x, shape):
        self.calls["broadcast_to"] += 1
        return np.broadcast_to(np.asarray(x), shape).view(_DeviceArray)

    # -- compute kernels ----------------------------------------------
    def matmul(self, a, b):
        self.calls["matmul"] += 1
        return _wrap(np.matmul(np.asarray(a), np.asarray(b)))

    def norm(self, x):
        self.calls["norm"] += 1
        return np.linalg.norm(np.asarray(x))

    def lu_factor(self, a, pivot=True):
        self.calls["lu_factor"] += 1
        a = np.asarray(a)
        if pivot:
            lu, piv = sla.lu_factor(a, check_finite=False)
            return _wrap(lu), piv
        return _wrap(lu_factor_nopivot(a)), np.empty(0, dtype=np.int64)

    def lu_solve(self, lu, piv, b, pivot=True):
        self.calls["lu_solve"] += 1
        lu, b = np.asarray(lu), np.asarray(b)
        if pivot:
            return _wrap(sla.lu_solve((lu, np.asarray(piv)), b, check_finite=False))
        return _wrap(lu_solve_nopivot(lu, b))

    def lu_factor_batch(self, a, pivot=True):
        self.calls["lu_factor_batch"] += 1
        lu, piv = _lu_factor_batch(np, np.asarray(a), pivot=pivot)
        return _wrap(lu), piv

    def lu_solve_batch(self, lu, piv, b, pivot=True):
        self.calls["lu_solve_batch"] += 1
        return _wrap(_lu_solve_batch(np, np.asarray(lu), piv, np.asarray(b), pivot=pivot))

    def qr_batch(self, a):
        self.calls["qr_batch"] += 1
        Q, R = np.linalg.qr(np.asarray(a))
        return _wrap(Q), _wrap(R)

    def svd_batch(self, a):
        self.calls["svd_batch"] += 1
        U, s, Vh = np.linalg.svd(np.asarray(a), full_matrices=False)
        return _wrap(U), _wrap(s), _wrap(Vh)


#: NumPy-backend compute methods that must stay silent during a stub run
_NUMPY_COMPUTE = (
    "matmul",
    "lu_factor",
    "lu_solve",
    "lu_factor_batch",
    "lu_solve_batch",
    "qr_batch",
    "svd_batch",
)


@pytest.fixture
def stub_cupy(monkeypatch):
    """Register the recording stub as the ``cupy`` backend + spy on NumPy.

    Yields ``(stub, numpy_compute_counts)``.  Class-level patching of
    :class:`NumpyBackend` catches every instance — the registry default and
    any ad-hoc ones — so a single hot-path escape to the host backend shows
    up in the counter.
    """
    stub = RecordingStubBackend()
    monkeypatch.setitem(dispatch._BACKEND_INSTANCES, "cupy", stub)
    counts: Counter = Counter()
    for method in _NUMPY_COMPUTE:
        original = getattr(NumpyBackend, method)

        def patched(self, *args, __name=method, __orig=original, **kwargs):
            counts[__name] += 1
            return __orig(self, *args, **kwargs)

        monkeypatch.setattr(NumpyBackend, method, patched)
    yield stub, counts


class TestRecordingStub:
    def test_device_construction_factorization_apply_no_host_roundtrips(self, stub_cupy):
        """The acceptance-criteria test: backend="cupy" (stub) end to end."""
        stub, numpy_counts = stub_cupy
        cfg = SolverConfig(
            backend="cupy",
            variant="batched",
            compression=CompressionConfig(tol=1e-10, method="svd", leaf_size=32),
        )
        ctx = cfg.execution_context()
        assert ctx.backend is stub
        assert ctx.device_resident

        km = _gaussian_km(256)
        hodlr, perm = km.to_hodlr(
            leaf_size=32, tol=1e-10, method="svd", context=ctx
        )

        # construction ran on the stub: gathered evaluation + batched SVD
        assert stub.calls["svd_batch"] > 0
        assert stub.calls["asarray"] > 0
        # ... and produced device-resident storage
        assert all(isinstance(d, _DeviceArray) for d in hodlr.diag.values())
        assert all(isinstance(u, _DeviceArray) for u in hodlr.U.values())
        assert all(isinstance(v, _DeviceArray) for v in hodlr.V.values())

        # factorization through the config (variant="batched")
        solver = HODLRSolver.from_config(hodlr, cfg, dtype=None).factorize()
        assert stub.calls["lu_factor_batch"] + stub.calls["lu_factor"] > 0
        assert all(
            isinstance(lu, _DeviceArray) for lu, _ in solver.factor_plan.leaf_lu_views()
        )

        # compiled apply plan + matvec, device in / device out
        plan = hodlr.build_apply_plan(context=ctx)
        assert all(isinstance(b.U3, _DeviceArray) for b in plan.lowrank_buckets)
        rng = np.random.default_rng(3)
        x_dev = stub.from_host(rng.standard_normal(km.n))
        y = plan.matvec(x_dev)
        assert isinstance(y, _DeviceArray)

        # direct solve on the device
        b_dev = stub.from_host(rng.standard_normal(km.n))
        x_sol = solver.solve(b_dev)
        assert isinstance(x_sol, _DeviceArray)

        # the two hard guarantees: zero host round-trips inside the hot
        # paths, and the NumPy backend never computed anything
        assert stub.to_host_calls == 0
        assert sum(numpy_counts.values()) == 0, dict(numpy_counts)

        # numerics: the device pipeline matches a host run
        hodlr_h, perm_h = km.to_hodlr(leaf_size=32, tol=1e-10, method="svd")
        assert np.array_equal(perm, perm_h)
        solver_h = HODLRSolver(hodlr_h, variant="batched").factorize()
        x_h = solver_h.solve(np.asarray(b_dev).view(np.ndarray))
        assert np.linalg.norm(np.asarray(x_sol) - x_h) <= 1e-10 * np.linalg.norm(x_h)

    def test_facade_operator_boundary_transfers(self, stub_cupy):
        """HODLROperator moves host arrays in/out exactly at the boundary."""
        stub, numpy_counts = stub_cupy
        cfg = SolverConfig(
            backend="cupy",
            compression=CompressionConfig(tol=1e-9, method="svd", leaf_size=32),
        )
        hodlr, _ = _gaussian_km(256).to_hodlr(
            leaf_size=32, tol=1e-9, method="svd", context=cfg.execution_context()
        )
        op = HODLROperator(hodlr, cfg)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(256)
        y = op @ b
        x = op.solve(b)
        # caller sees plain host arrays
        assert type(y) is np.ndarray and type(x) is np.ndarray
        # the matvec and both solve boundaries went through to_host
        assert stub.to_host_calls >= 2
        assert sum(numpy_counts.values()) == 0, dict(numpy_counts)
        # the solution solves the (host view of the) HODLR system
        r = np.asarray(hodlr.matvec(np.asarray(x)))
        assert np.linalg.norm(r - b) / np.linalg.norm(b) < 1e-8


# ======================================================================
# ExecutionContext / PrecisionPolicy basics
# ======================================================================
class TestContextBasics:
    def test_backend_name_resolution(self):
        ctx = ExecutionContext(backend="numpy")
        assert isinstance(ctx.backend, NumpyBackend)
        assert not ctx.device_resident

    def test_resolve_context_legacy_and_merge(self):
        assert resolve_context() is DEFAULT_CONTEXT
        ctx = resolve_context(backend=NumpyBackend(), policy=DispatchPolicy(min_bucket=3))
        assert ctx.policy.min_bucket == 3
        # PR-5 precedence audit: explicit backend=/policy= override only the
        # matching context field; everything else (the precision policy in
        # particular) is preserved instead of raising or being dropped
        base = ExecutionContext(precision=PrecisionPolicy(storage="float32"))
        merged = resolve_context(
            context=base, policy=DispatchPolicy(bucketing=False)
        )
        assert not merged.policy.bucketing
        assert merged.precision.storage == "float32"
        assert merged.backend is base.backend
        # no overrides -> the context object itself comes back
        assert resolve_context(context=base) is base

    def test_precision_policy_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(plan="int32")
        with pytest.raises(ValueError):
            PrecisionPolicy(plan_min_level=-1)
        pol = PrecisionPolicy(plan=np.float32)
        assert pol.plan == "float32"

    def test_plan_dtype_complex_matching(self):
        pol = PrecisionPolicy(plan="float32", plan_min_level=2)
        assert pol.plan_dtype(np.complex128, level=3) == np.dtype("complex64")
        assert pol.plan_dtype(np.complex128, level=1) == np.dtype("complex128")
        assert pol.plan_dtype(np.float64, level=2) == np.dtype("float32")
        assert pol.demotes_plan(np.float64)
        assert not PrecisionPolicy().demotes_plan(np.float64)

    def test_solver_config_round_trip_with_precision(self):
        cfg = SolverConfig(
            precision=PrecisionPolicy(plan="float32", plan_min_level=2, refine=True),
            dispatch_policy=DispatchPolicy(pad_buckets=True, pad_max_waste=0.3),
        )
        restored = SolverConfig.from_dict(cfg.to_dict())
        assert restored == cfg
        assert restored.precision.refine is True
        assert restored.dispatch_policy.pad_buckets is True

    def test_dtype_precision_conflict_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(dtype="float64", precision=PrecisionPolicy(storage="float32"))
        # agreeing spellings are fine
        cfg = SolverConfig(dtype="float32", precision=PrecisionPolicy(storage="float32"))
        assert cfg.numpy_dtype == np.dtype("float32")

    def test_execution_context_folds_dtype_into_storage(self):
        cfg = SolverConfig(dtype="float32")
        assert cfg.execution_context().precision.storage == "float32"
        # construction context drops it so the base stays full precision
        assert cfg.construction_context().precision.storage is None

    def test_legacy_and_context_construction_agree(self):
        km = _gaussian_km(128)
        tree = ClusterTree.balanced(128, leaf_size=32)
        cfg = CompressionConfig(tol=1e-10, method="svd").core_config()
        H_legacy = build_hodlr(km, tree, config=cfg)
        H_ctx = build_hodlr(km, tree, config=cfg, context=DEFAULT_CONTEXT)
        x = np.random.default_rng(0).standard_normal(128)
        assert np.allclose(H_legacy.matvec(x), H_ctx.matvec(x), rtol=0, atol=1e-14)


# ======================================================================
# mixed-precision apply plan
# ======================================================================
class TestMixedPrecisionPlan:
    def test_float32_plan_matvec_accuracy_and_footprint(self):
        H = _gaussian_hodlr(n=1024, tol=1e-9)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(H.n)
        plan64 = ApplyPlan(H)
        ctx32 = ExecutionContext(precision=PrecisionPolicy(plan="float32"))
        plan32 = ApplyPlan(H, context=ctx32)
        assert plan32.demoted and not plan64.demoted

        y64 = plan64.matvec(x)
        y32 = plan32.matvec(x)
        # output dtype is unchanged (float64 accumulation), but the values
        # carry float32-level rounding: close to 1e-6, far from 1e-12
        assert y32.dtype == np.float64
        rel = np.linalg.norm(y32 - y64) / np.linalg.norm(y64)
        assert rel < 1e-5
        assert rel > 1e-12  # the demotion genuinely happened
        # half the traffic (index arrays keep a few bytes of overhead)
        assert plan32.nbytes < 0.62 * plan64.nbytes
        # same launch schedule
        assert plan32.launches_per_apply == plan64.launches_per_apply

    def test_deep_level_only_demotion(self):
        H = _gaussian_hodlr(n=1024, tol=1e-9)
        cutoff = 3
        ctx = ExecutionContext(
            precision=PrecisionPolicy(plan="float32", plan_min_level=cutoff)
        )
        plan = ApplyPlan(H, context=ctx)
        dtypes = plan.storage_dtypes()
        for level, dt in dtypes.items():
            expected = np.float32 if level >= cutoff else np.float64
            assert dt == np.dtype(expected), (level, dt)
        # shallow levels at full precision → tighter agreement than full demotion
        x = np.random.default_rng(1).standard_normal(H.n)
        y64 = ApplyPlan(H).matvec(x)
        rel = np.linalg.norm(plan.matvec(x) - y64) / np.linalg.norm(y64)
        assert rel < 1e-5

    def test_complex_plan_demotes_to_complex64(self):
        n = 256
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0, 1, n))
        A = np.exp(1j * np.subtract.outer(x, x)) / (
            1.0 + 30.0 * np.abs(np.subtract.outer(x, x))
        ) + n * np.eye(n)
        H = repro.build_hodlr_from_dense(A, leaf_size=32, tol=1e-10)
        ctx = ExecutionContext(precision=PrecisionPolicy(plan="float32"))
        plan = ApplyPlan(H, context=ctx)
        assert all(b.U3.dtype == np.complex64 for b in plan.lowrank_buckets)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = plan.matvec(v)
        assert y.dtype == np.complex128
        y_ref = ApplyPlan(H).matvec(v)
        assert np.linalg.norm(y - y_ref) / np.linalg.norm(y_ref) < 1e-5

    def test_hodlr_matvec_uses_demoted_cached_plan(self):
        H = _gaussian_hodlr(n=256, tol=1e-9)
        ctx = ExecutionContext(precision=PrecisionPolicy(plan="float32"))
        H.build_apply_plan(context=ctx, force=True)
        assert H.apply_plan.demoted
        x = np.random.default_rng(0).standard_normal(H.n)
        y = H.matvec(x)  # routed through the cached demoted plan
        H.clear_apply_plan()
        y_ref = H.matvec(x)
        assert np.linalg.norm(y - y_ref) / np.linalg.norm(y_ref) < 1e-5


# ======================================================================
# iterative refinement + dtype semantics
# ======================================================================
class TestRefinement:
    def _system(self, n=512):
        H = _gaussian_hodlr(n=n, tol=1e-10, method="svd")
        b = np.random.default_rng(5).standard_normal(n)
        return H, b

    def _relres(self, H, x, b):
        r = np.asarray(H.matvec(np.asarray(x, dtype=np.float64))) - b
        return float(np.linalg.norm(r) / np.linalg.norm(b))

    def test_refined_float32_solve_restores_float64_residuals(self):
        H, b = self._system()
        plain32 = HODLROperator(H, precision=PrecisionPolicy(storage="float32"))
        refined = HODLROperator(
            H, precision=PrecisionPolicy(storage="float32", refine=True)
        )
        full = HODLROperator(H)

        x32 = plain32.solve(b)
        xr = refined.solve(b)
        x64 = full.solve(b)

        assert x32.dtype == np.float32
        assert xr.dtype == np.float64  # refinement returns the wide dtype
        res32 = self._relres(H, x32, b)
        res_r = self._relres(H, xr, b)
        res64 = self._relres(H, x64, b)
        assert res32 > 1e-7          # float32-level residual
        assert res_r < 1e-11         # refinement restored ~full precision
        assert abs(res_r - res64) < 1e-10  # matches the float64-plan residual

    def test_refined_solve_stats_report_refined_residual_and_one_solve(self):
        H, b = self._system(n=256)
        op = HODLROperator(
            H, precision=PrecisionPolicy(storage="float32", refine=True)
        )
        x = op.solve(b, compute_residual=True)
        # the recorded residual describes the *refined* solution, and the
        # direct + correction pair counts as one user-visible solve
        assert op.stats.relative_residual < 1e-10
        assert abs(op.stats.relative_residual - self._relres(H, x, b)) < 1e-11
        assert op.stats.num_solves == 1
        assert op.stats.last_solve_seconds <= op.stats.solve_seconds

    def test_refinement_bypasses_demoted_cached_plan(self):
        # the README quickstart combination: a demoted plan cached on the
        # base matrix must not poison the refinement residual
        H, b = self._system(n=256)
        H.build_apply_plan(
            context=ExecutionContext(precision=PrecisionPolicy(plan="float32")),
            force=True,
        )
        assert H.apply_plan.demoted
        op = HODLROperator(
            H, precision=PrecisionPolicy(storage="float32", refine=True)
        )
        x = op.solve(b)
        H.clear_apply_plan()
        assert self._relres(H, x, b) < 1e-11

    def test_refine_noop_at_full_precision(self):
        H, b = self._system(n=256)
        op = HODLROperator(H, precision=PrecisionPolicy(refine=True))
        x = op.solve(b)
        assert x.dtype == np.float64
        assert self._relres(H, x, b) < 1e-12

    def test_sticky_dtype_promotion_still_holds(self):
        H, b = self._system(n=256)
        op = HODLROperator(H, precision=PrecisionPolicy(storage="float32"))
        # float64 rhs does not undo the requested float32 factorization
        assert op.solve(b).dtype == np.float32
        # complex rhs promotes to complex64 (real storage widened to complex)
        xc = op.solve(b.astype(np.complex128))
        assert xc.dtype == np.complex64

    def test_astype_keeps_precision_storage_consistent(self):
        H, b = self._system(n=256)
        op = HODLROperator(H, precision=PrecisionPolicy(storage="float32", refine=True))
        op64 = op.astype(np.float64)
        assert op64.config.precision.storage == "float64"
        assert op64.config.precision.refine is True
        assert op64.solve(b).dtype == np.float64


# ======================================================================
# pad-to-bucket packing
# ======================================================================
class TestPadToBucket:
    def test_planner_merges_near_equal_shapes(self):
        shapes = [(16, 16), (15, 16), (16, 15), (4, 4)]
        plan = plan_batch_padded(shapes, max_waste=0.25)
        # three near-equal shapes merge under target (16, 16); (4, 4) stays
        assert plan.num_buckets == 2
        big = next(b for b in plan.buckets if b.key == (16, 16))
        assert sorted(big.indices) == [0, 1, 2]

    def test_planner_zero_waste_is_exact_plan(self):
        shapes = [(8, 8), (7, 8), (8, 8)]
        plan = plan_batch_padded(shapes, max_waste=0.0)
        assert plan.num_buckets == 2

    def test_planner_respects_waste_budget(self):
        # (8, 8) into (16, 16) would waste 75% — must not merge at 25%
        plan = plan_batch_padded([(16, 16), (8, 8)], max_waste=0.25)
        assert plan.num_buckets == 2

    def test_gemm_padded_equivalence_and_fewer_launches(self):
        rng = np.random.default_rng(11)
        # singleton-shape regime: ranks differ by a column or two per block
        A = [rng.standard_normal((20, 10 + (i % 3))) for i in range(24)]
        B = [rng.standard_normal((A[i].shape[1], 5)) for i in range(24)]
        rec = get_recorder()

        with rec.recording() as tr_plain:
            ref = gemm_batched(A, B)
        pad_policy = DispatchPolicy(pad_buckets=True, pad_max_waste=0.25)
        with rec.recording() as tr_pad:
            out = gemm_batched(A, B, policy=pad_policy)

        for o, r in zip(out, ref):
            assert np.allclose(o, r, rtol=0, atol=1e-12)
        assert tr_pad.events[-1].buckets < tr_plain.events[-1].buckets
        assert tr_pad.events[-1].buckets == 1

    def test_gemm_padded_transpose_conjugate_and_beta(self):
        rng = np.random.default_rng(13)
        A = [
            (rng.standard_normal((9 + (i % 2), 12)) + 1j * rng.standard_normal((9 + (i % 2), 12)))
            for i in range(8)
        ]
        B = [rng.standard_normal((A[i].shape[0], 3)) for i in range(8)]
        C = [rng.standard_normal((12, 3)) for _ in range(8)]
        pad_policy = DispatchPolicy(pad_buckets=True, pad_max_waste=0.25)
        ref = gemm_batched(A, B, C, alpha=2.0, beta=0.5, conjugate_a=True)
        out = gemm_batched(A, B, C, alpha=2.0, beta=0.5, conjugate_a=True, policy=pad_policy)
        for o, r in zip(out, ref):
            assert np.allclose(o, r, rtol=0, atol=1e-12)

    def test_gemm_padded_mixed_ndim_rhs_and_c(self):
        # a merged bucket mixing (m,) and (m, 1) B/C operands: the padded
        # planner's dim keys erase the ndim distinction the exact path keeps
        rng = np.random.default_rng(31)
        A = [rng.standard_normal((6, 4)) for _ in range(4)]
        B = [rng.standard_normal(4) if i % 2 else rng.standard_normal((4, 1))
             for i in range(4)]
        C = [rng.standard_normal(6) if i % 2 else rng.standard_normal((6, 1))
             for i in range(4)]
        pad_policy = DispatchPolicy(pad_buckets=True)
        ref = gemm_batched(A, B, C, beta=2.0)
        out = gemm_batched(A, B, C, beta=2.0, policy=pad_policy)
        for o, r in zip(out, ref):
            assert o.shape == r.shape
            assert np.allclose(o, r, rtol=0, atol=1e-12)

    def test_gemm_padded_vector_rhs(self):
        rng = np.random.default_rng(17)
        A = [rng.standard_normal((8, 6 + (i % 2))) for i in range(10)]
        B = [rng.standard_normal(A[i].shape[1]) for i in range(10)]
        pad_policy = DispatchPolicy(pad_buckets=True)
        ref = gemm_batched(A, B)
        out = gemm_batched(A, B, policy=pad_policy)
        for o, r in zip(out, ref):
            assert o.shape == r.shape
            assert np.allclose(o, r, rtol=0, atol=1e-12)

    def test_factorization_with_padding_policy_matches_default(self):
        H = _gaussian_hodlr(n=256, tol=1e-6)  # adaptive ranks → ragged shapes
        b = np.random.default_rng(19).standard_normal(H.n)
        x_ref = HODLRSolver(H, variant="flat").factorize().solve(b)
        pad_policy = DispatchPolicy(pad_buckets=True, pad_max_waste=0.25)
        x_pad = (
            HODLRSolver(H, variant="flat", dispatch_policy=pad_policy)
            .factorize()
            .solve(b)
        )
        assert np.allclose(x_pad, x_ref, rtol=0, atol=1e-10)


# ======================================================================
# baseline solver variants through the facade
# ======================================================================
class TestBaselineVariants:
    def test_registry_lists_baselines(self):
        names = available_solver_variants()
        for name in ("recursive", "flat", "batched", "dense_lu", "block_sparse",
                     "hodlrlib_cpu"):
            assert name in names

    @pytest.mark.parametrize("variant", ["dense_lu", "block_sparse", "hodlrlib_cpu"])
    def test_baseline_solve_through_facade(self, variant):
        cfg = SolverConfig(
            variant=variant,
            compression=CompressionConfig(tol=1e-11, method="svd"),
        )
        res = repro.solve("gaussian_kernel", config=cfg, n=192)
        assert res.relative_residual is not None
        assert res.relative_residual < 1e-8
        # the factorized operator is reusable for further solves
        b2 = np.random.default_rng(23).standard_normal(192)
        x2 = res.operator.solve(b2)
        assert x2.shape == (192,)

    def test_baselines_match_batched_solution(self):
        comp = CompressionConfig(tol=1e-11, method="svd")
        b = np.random.default_rng(29).standard_normal(192)
        ref = repro.solve(
            "gaussian_kernel", b, config=SolverConfig(variant="batched", compression=comp), n=192
        ).x
        for variant in ("dense_lu", "block_sparse", "hodlrlib_cpu"):
            x = repro.solve(
                "gaussian_kernel", b,
                config=SolverConfig(variant=variant, compression=comp), n=192,
            ).x
            assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-7, variant

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(variant="sparta")

    def test_builtin_name_cannot_be_reregistered(self):
        with pytest.raises(ValueError):
            repro.register_solver_variant("batched", lambda h, s: None)


# ======================================================================
# per-problem default configs
# ======================================================================
class TestProblemDefaults:
    def test_bie_problems_solve_without_config(self):
        # previously raised ConfigError (default method is not "proxy")
        res = repro.solve("laplace_bie", n=256)
        assert res.config.compression.method == "proxy"
        assert res.relative_residual < 1e-6

    def test_get_problem_exposes_default_config(self):
        prob = get_problem("helmholtz_bie", n=128)
        assert isinstance(prob.default_config, SolverConfig)
        assert prob.default_config.compression.method == "proxy"
        assert get_problem("gaussian_kernel").default_config == SolverConfig()

    def test_explicit_config_still_wins(self):
        with pytest.raises(ConfigError):
            repro.solve("laplace_bie", n=128, config=SolverConfig())

    def test_dict_config_still_accepted(self):
        cfg = SolverConfig(compression=CompressionConfig(tol=1e-8, method="svd"))
        res = repro.solve("gaussian_kernel", config=cfg.to_dict(), n=128)
        assert res.relative_residual < 1e-6
