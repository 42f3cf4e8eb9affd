"""Execution contexts: backend placement, precision policies, pad-to-bucket
packing, baseline solver variants, and per-problem default configs (PR 4).

The recording stub backend below is the proof required by the PR's
acceptance criteria: a ``SolverConfig(backend="cupy")`` (with the stub
registered under the ``cupy`` name) drives construction, factorization, and
apply end to end without touching the NumPy backend in the hot paths and
without a single host round-trip inside them.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

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
)
from repro.api import CompressionConfig, ConfigError, SolverConfig, get_problem
from repro.backends import dispatch
from repro.backends.context import DEFAULT_CONTEXT
from repro.backends.dispatch import (
    DispatchPolicy,
    NumpyBackend,
    _lu_factor_batch,
    cholesky_factor,
    cholesky_inverse,
    lu_factor_nopivot,
    lu_solve_nopivot,
    triangular_inverse,
)
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


def _gaussian_hodlr(n=512, tol=1e-9, leaf_size=32, method="svd", seed=0):
    H, _ = _gaussian_km(n, seed=seed).to_hodlr(
        CompressionConfig(leaf_size=leaf_size, tol=tol, method=method)
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
    def matmul(self, a, b, out=None):
        self.calls["matmul"] += 1
        if out is not None:
            np.matmul(np.asarray(a), np.asarray(b), out=np.asarray(out))
            return out
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

    def cholesky_inverse_batch(self, a):
        self.calls["cholesky_inverse_batch"] += 1
        return _wrap(cholesky_inverse(np.asarray(a)))

    def cholesky_factor_batch(self, a):
        self.calls["cholesky_factor_batch"] += 1
        c, cinv = cholesky_factor(np.asarray(a))
        return _wrap(c), _wrap(cinv)

    def triangular_inverse_batch(self, lu):
        self.calls["triangular_inverse_batch"] += 1
        linv, uinv = triangular_inverse(np.asarray(lu))
        return _wrap(linv), _wrap(uinv)

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
    "cholesky_inverse_batch",
    "cholesky_factor_batch",
    "triangular_inverse_batch",
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
        hodlr, perm = km.to_hodlr(cfg.compression, context=ctx)

        # construction ran on the stub: gathered evaluation + batched SVD
        assert stub.calls["svd_batch"] > 0
        assert stub.calls["asarray"] > 0
        # ... and produced device-resident storage
        assert all(isinstance(d, _DeviceArray) for d in hodlr.diag.values())
        assert all(isinstance(u, _DeviceArray) for u in hodlr.U.values())
        assert all(isinstance(v, _DeviceArray) for v in hodlr.V.values())

        # factorization through the config (variant="batched")
        solver = HODLRSolver.from_config(hodlr, cfg, dtype=None).factorize()
        # the symmetric Gaussian kernel: Cholesky leaves, and K systems
        # through the LU of their Schur complements and its inverse factors
        assert stub.calls["cholesky_inverse_batch"] > 0
        assert stub.calls["lu_factor_batch"] + stub.calls["lu_factor"] > 0
        assert stub.calls["triangular_inverse_batch"] > 0
        assert all(
            isinstance(a, _DeviceArray)
            for sw in solver.factor_plan.sweeps
            for a in (sw.g3, sw.uinv3, sw.tb3)
        )
        assert all(
            isinstance(lu, _DeviceArray) for lu, _ in solver.factor_plan.leaf_factor_views()
        )

        # compiled apply plan + matvec, device in / device out
        plan = ApplyPlan(hodlr, context=ctx)
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
        hodlr_h, perm_h = km.to_hodlr(cfg.compression)
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
            cfg.compression, context=cfg.execution_context()
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

    def test_string_policy_rejected(self):
        # "auto" once resolved to a host-tuned policy; now only a
        # DispatchPolicy (or None for the default) is accepted
        with pytest.raises(TypeError):
            ExecutionContext(policy="auto")

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
            dispatch_policy=DispatchPolicy(bucketing=False),
        )
        restored = SolverConfig.from_dict(cfg.to_dict())
        assert restored == cfg
        assert restored.precision.refine is True
        assert restored.dispatch_policy.bucketing is False

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
        cfg = CompressionConfig(tol=1e-10, method="svd")
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
        # half the traffic: the bytes one matvec's kernels stream
        # (the float64 plan owns only views, so owned bytes would not show it)
        def streamed(plan):
            with get_recorder().recording() as trace:
                plan.matvec(x)
            return trace.total_bytes

        assert streamed(plan32) < 0.62 * streamed(plan64)
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
        H = repro.build_hodlr_from_dense(
            A, config=repro.CompressionConfig(leaf_size=32, tol=1e-10, method="svd")
        )
        ctx = ExecutionContext(precision=PrecisionPolicy(plan="float32"))
        plan = ApplyPlan(H, context=ctx)
        assert all(b.U3.dtype == np.complex64 for b in plan.lowrank_buckets)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = plan.matvec(v)
        assert y.dtype == np.complex128
        y_ref = ApplyPlan(H).matvec(v)
        assert np.linalg.norm(y - y_ref) / np.linalg.norm(y_ref) < 1e-5

    def test_demoted_plan_leaves_hodlr_matvec_full_precision(self):
        # the plan is a separate object: compiling a demoted one does not
        # reroute the matrix's own (reference) matvec
        H = _gaussian_hodlr(n=256, tol=1e-9)
        ctx = ExecutionContext(precision=PrecisionPolicy(plan="float32"))
        plan = ApplyPlan(H, context=ctx)
        assert plan.demoted
        x = np.random.default_rng(0).standard_normal(H.n)
        y_ref = H.to_dense() @ x
        assert np.linalg.norm(H.matvec(x) - y_ref) <= 1e-12 * np.linalg.norm(y_ref)
        assert np.linalg.norm(plan.matvec(x) - y_ref) < 1e-5 * np.linalg.norm(y_ref)


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
        # the README quickstart combination: neither a demoted apply plan
        # compiled over the base matrix nor the operator's own float32 plan
        # may poison the refinement residual
        H, b = self._system(n=256)
        demoted = ExecutionContext(precision=PrecisionPolicy(plan="float32"))
        assert ApplyPlan(H, context=demoted).demoted
        op = HODLROperator(
            H, precision=PrecisionPolicy(storage="float32", refine=True)
        )
        _ = op @ b  # compiles the operator's float32 apply plan
        assert op.apply_plan.dtype == np.float32
        x = op.solve(b)
        assert self._relres(H, x, b) < 1e-11

    def test_refine_noop_at_full_precision(self):
        H, b = self._system(n=256)
        op = HODLROperator(H, precision=PrecisionPolicy(refine=True))
        x = op.solve(b)
        assert x.dtype == np.float64
        assert self._relres(H, x, b) < 1e-12

    def test_refined_float32_solve_of_complex_rhs(self):
        # the float32 factorization solves at complex64 and refinement
        # restores float64-grade residuals on both parts of the rhs
        H, b = self._system(n=256)
        bi = np.random.default_rng(6).standard_normal(H.n)
        bc = b + 1j * bi
        op = HODLROperator(H, precision=PrecisionPolicy(storage="float32", refine=True))
        x = op.solve(bc)
        assert x.dtype == np.complex128
        assert np.dtype(op.dtype) == np.float32
        r = np.asarray(H.matvec(x)) - bc
        assert np.linalg.norm(r) / np.linalg.norm(bc) < 1e-11

    def test_complex_rhs_alone_does_not_refine(self, monkeypatch):
        # a complex128 rhs on a float64 factorization is not a narrower
        # factorization: refinement is decided on real precision
        H, b = self._system(n=256)
        op = HODLROperator(H, precision=PrecisionPolicy(refine=True))

        def refine(*args):
            raise AssertionError("refinement ran for a complex rhs")

        monkeypatch.setattr(op, "_refine_once", refine)
        x = op.solve(b + 1j * b)
        assert x.dtype == np.complex128
        assert np.linalg.norm(x - (1 + 1j) * op.solve(b)) <= 1e-12 * np.linalg.norm(x)

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
# baseline solver variants through the facade
# ======================================================================
class TestBaselineVariants:
    def test_registry_lists_baselines(self):
        names = available_solver_variants()
        for name in ("recursive", "batched", "dense_lu", "block_sparse",
                     "hodlrlib_cpu"):
            assert name in names
        assert "flat" not in names

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


# ======================================================================
# README examples
# ======================================================================
class TestReadmeSnippets:
    def test_policy_keywords_are_fields(self):
        """Every keyword a README ```python block passes to an execution
        dataclass is a field of that class (a stale keyword raises
        ``TypeError`` for anyone copying the snippet)."""
        classes = {
            cls.__name__: {f.name for f in dataclasses.fields(cls)}
            for cls in (
                DispatchPolicy, PrecisionPolicy, ExecutionContext, CompressionConfig, SolverConfig
            )
        }
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        checked = 0
        for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
            for node in ast.walk(ast.parse(block)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name not in classes:
                    continue
                for kw in node.keywords:
                    if kw.arg is not None:
                        assert kw.arg in classes[name], f"README: {name}({kw.arg}=...)"
                        checked += 1
        assert checked > 0
