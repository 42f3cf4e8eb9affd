"""The parallel execution engine (PR 9): policy, pool, and the three layers.

Covers the acceptance criteria of the parallel layer:

* serial vs parallel solves agree to 1e-12 across all three factorization
  variants, real and complex (parallelism is forced with an explicit
  two-worker policy so the tests exercise the pool on any host);
* kernel-trace counters are deterministic across repeated parallel runs
  and identical to the serial counters (sub-traces merge in stable task
  order, never completion order);
* the oversubscription guard: worker BLAS thread caps are exported while
  the pool is live and restored exactly on ``shutdown_pool()``;
* ``parallel="off"`` reproduces serial behavior with zero pool
  submissions;
* policy resolution (``"off"``/``"auto"``/ints/mappings/env var), config
  round-trips, ``run_tasks`` ordering, nested-dispatch suppression,
  ``prefetch_iter`` equivalence, and the sweep/portfolio fan-out layers.
"""

import os
import threading

import numpy as np
import pytest

from conftest import complex_test_matrix, hodlr_friendly_matrix

import repro
from repro import run_sweep, solve_portfolio
from repro.api import CompressionConfig, ConfigError, SolverConfig
from repro.backends import parallel as par
from repro.backends.counters import get_recorder
from repro.backends.parallel import (
    ParallelPolicy,
    ParallelPolicyError,
    ParallelPolicyError as _PPE,  # noqa: F401  (re-import guards __all__)
    pool_stats,
    prefetch_iter,
    reset_pool_stats,
    resolve_parallel,
    run_tasks,
    should_run_parallel,
    shutdown_pool,
)

VARIANTS = ["recursive", "batched"]

#: forces pool execution on any host (explicit workers bypass calibration,
#: zero element floor admits every launch)
FORCED = ParallelPolicy(workers=2, min_tasks=2, min_task_elements=0)


@pytest.fixture(autouse=True)
def _pool_isolation():
    """Each test starts and ends with no pool and a zeroed counter."""
    shutdown_pool()
    reset_pool_stats()
    yield
    shutdown_pool()
    reset_pool_stats()


def _config(variant="batched", parallel=None, **kw):
    return SolverConfig(
        variant=variant,
        compression=CompressionConfig(tol=1e-12, method="svd"),
        parallel=parallel,
        **kw,
    )


def _rel_diff(a, b):
    denom = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / denom


def _trace_key(trace):
    """Everything counter-like about a trace, in event order."""
    return [
        (e.kernel, e.buckets, e.batch, e.flops, e.bytes_moved, e.level, e.tag)
        for e in trace.events
    ]


# ======================================================================
# policy resolution and validation
# ======================================================================
class TestPolicy:
    @pytest.mark.parametrize("spec", [None, "off", "", "none", "serial", 0, 1])
    def test_serial_spellings(self, spec, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert resolve_parallel(spec) is None

    def test_auto(self):
        policy = resolve_parallel("auto")
        assert isinstance(policy, ParallelPolicy) and policy.workers == "auto"

    def test_explicit_int(self):
        policy = resolve_parallel(3)
        assert policy.workers == 3
        assert par.effective_workers(policy) == 3  # honoured as given

    def test_mapping(self):
        policy = resolve_parallel({"workers": 2, "min_task_elements": 0})
        assert policy == ParallelPolicy(workers=2, min_task_elements=0)

    def test_policy_passthrough(self):
        assert resolve_parallel(FORCED) is FORCED

    def test_single_worker_policy_is_serial(self):
        assert resolve_parallel(ParallelPolicy(workers=1)) is None

    @pytest.mark.parametrize("bad", [True, False])
    def test_bool_rejected(self, bad):
        with pytest.raises(ParallelPolicyError):
            resolve_parallel(bad)

    def test_bad_string_rejected(self):
        with pytest.raises(ParallelPolicyError):
            resolve_parallel("sideways")

    def test_bad_mapping_key_rejected(self):
        with pytest.raises(ParallelPolicyError):
            resolve_parallel({"wrkrs": 2})

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        assert resolve_parallel(None).workers == 2
        monkeypatch.setenv("REPRO_PARALLEL", "off")
        assert resolve_parallel(None) is None
        monkeypatch.delenv("REPRO_PARALLEL")
        assert resolve_parallel(None) is None

    def test_auto_single_core_short_circuits(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert par.effective_workers(ParallelPolicy(workers="auto")) == 1

    def test_should_run_parallel_floors(self):
        policy = ParallelPolicy(workers=2, min_tasks=4, min_task_elements=100)
        assert not should_run_parallel(policy, 3, None)  # below min_tasks
        assert not should_run_parallel(policy, 4, 300.0)  # 75 < 100 per task
        assert should_run_parallel(policy, 4, 800.0)
        assert not should_run_parallel(None, 8, 1e9)


class TestConfig:
    @pytest.mark.parametrize(
        "spec",
        [None, "off", "auto", 2, {"workers": 2, "min_task_elements": 0}],
    )
    def test_round_trip(self, spec):
        cfg = SolverConfig(parallel=spec)
        restored = SolverConfig.from_dict(cfg.to_dict())
        assert restored.parallel == cfg.parallel
        assert restored == cfg

    def test_mapping_canonicalized_hashable(self):
        cfg = SolverConfig(parallel={"workers": 2})
        assert isinstance(cfg.parallel, ParallelPolicy)
        hash(cfg)  # the config must stay usable as a cache key

    @pytest.mark.parametrize("bad", ["bogus", True, {"wrkrs": 2}, 2.5])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            SolverConfig(parallel=bad)

    def test_context_resolves(self):
        ctx = repro.ExecutionContext(parallel="off")
        assert ctx.parallel is None
        ctx2 = repro.ExecutionContext(parallel={"workers": 2})
        assert isinstance(ctx2.parallel, ParallelPolicy)


# ======================================================================
# run_tasks / prefetch_iter mechanics
# ======================================================================
class TestRunTasks:
    def test_results_in_task_order_despite_completion_order(self):
        # task 0 blocks until task 1 has finished: completion order is
        # provably reversed, submission order must still win
        gate = threading.Event()

        def first():
            assert gate.wait(timeout=30.0)
            return "first"

        def second():
            gate.set()
            return "second"

        out = run_tasks([first, second], FORCED)
        assert out == ["first", "second"]
        assert pool_stats().submissions == 2

    def test_inline_path_zero_submissions(self):
        out = run_tasks([lambda: 1, lambda: 2], None)
        assert out == [1, 2]
        assert pool_stats().submissions == 0

    def test_nested_dispatch_suppressed(self):
        def probe():
            return should_run_parallel(FORCED, 8, None)

        assert probe() is True  # on the caller thread the pool is open
        inner = run_tasks([probe, probe], FORCED)
        assert inner == [False, False]  # inside workers it is not

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("inside worker")

        with pytest.raises(RuntimeError, match="inside worker"):
            run_tasks([boom, lambda: 1], FORCED)

    def test_worker_traces_absorbed_in_task_order(self):
        from repro.backends.batched import gemm_strided_batched

        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((1, k, k)) for k in (2, 3, 4, 5)]

        def task(A):
            return gemm_strided_batched(A, A)

        rec = get_recorder()
        with rec.recording() as serial:
            run_tasks([lambda A=A: task(A) for A in mats], None)
        with rec.recording() as parallel:
            run_tasks([lambda A=A: task(A) for A in mats], FORCED)
        assert pool_stats().submissions == 4
        assert _trace_key(parallel) == _trace_key(serial)


class TestPrefetchIter:
    def test_matches_plain_iteration(self):
        items = [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]
        assert list(prefetch_iter(iter(items), FORCED)) == items

    def test_serial_policy_is_passthrough(self):
        items = [1, 2, 3]
        assert list(prefetch_iter(iter(items), None)) == items
        assert pool_stats().submissions == 0

    def test_early_exit_does_not_hang(self):
        def gen():
            for i in range(1000):
                yield i

        for value in prefetch_iter(gen(), FORCED):
            if value == 3:
                break
        shutdown_pool()  # joins the producer; a leak would deadlock here

    def test_producer_exception_propagates(self):
        def gen():
            yield 1
            raise ValueError("producer died")

        with pytest.raises(ValueError, match="producer died"):
            list(prefetch_iter(gen(), FORCED))


# ======================================================================
# serial vs parallel equivalence (the 1e-12 acceptance gate)
# ======================================================================
class TestEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_solve_matches_serial(self, variant, kind):
        n = 256
        A = (
            hodlr_friendly_matrix(n, seed=3)
            if kind == "real"
            else complex_test_matrix(n, seed=3)
        )
        rng = np.random.default_rng(7)
        b = rng.standard_normal(n)
        if kind == "complex":
            b = b + 1j * rng.standard_normal(n)
        serial = repro.solve(A, b, _config(variant, parallel="off"), cache=False)
        reset_pool_stats()
        parallel = repro.solve(A, b, _config(variant, parallel=FORCED), cache=False)
        assert pool_stats().submissions > 0, "parallel run never used the pool"
        assert _rel_diff(parallel.x, serial.x) <= 1e-12
        assert serial.relative_residual <= 1e-8

    def test_solve_off_zero_submissions(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        A = hodlr_friendly_matrix(256, seed=3)
        b = np.random.default_rng(7).standard_normal(256)
        reset_pool_stats()
        repro.solve(A, b, _config("batched", parallel="off"), cache=False)
        assert pool_stats().submissions == 0
        assert not pool_stats().active

    def test_parallel_override_kwarg(self):
        A = hodlr_friendly_matrix(256, seed=3)
        b = np.random.default_rng(7).standard_normal(256)
        serial = repro.solve(A, b, _config("batched"), parallel="off", cache=False)
        reset_pool_stats()
        forced = repro.solve(A, b, _config("batched"), parallel=FORCED, cache=False)
        assert pool_stats().submissions > 0
        assert _rel_diff(forced.x, serial.x) <= 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trace_counters_deterministic_across_runs(self, variant):
        A = hodlr_friendly_matrix(256, seed=3)
        b = np.random.default_rng(7).standard_normal(256)
        rec = get_recorder()

        def traced(parallel):
            with rec.recording() as trace:
                repro.solve(A, b, _config(variant, parallel=parallel), cache=False)
            return _trace_key(trace)

        serial_key = traced("off")
        first = traced(FORCED)
        second = traced(FORCED)
        assert first == second, "parallel trace varies between identical runs"
        assert first == serial_key, "parallel trace differs from serial"


# ======================================================================
# the oversubscription guard
# ======================================================================
class TestBlasCaps:
    def test_caps_exported_while_pool_lives_and_restored_after(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        run_tasks([lambda: 0, lambda: 1], FORCED)  # spins the pool up
        assert pool_stats().active
        # FORCED.blas_threads == 1: workers x blas threads == worker count
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        shutdown_pool()
        assert "OMP_NUM_THREADS" not in os.environ  # was unset: unset again
        assert os.environ["OPENBLAS_NUM_THREADS"] == "8"  # was 8: 8 again

    def test_uncapped_policy_leaves_env_alone(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        policy = ParallelPolicy(workers=2, min_task_elements=0, blas_threads=None)
        run_tasks([lambda: 0, lambda: 1], policy)
        assert "OMP_NUM_THREADS" not in os.environ
        shutdown_pool()
        assert "OMP_NUM_THREADS" not in os.environ


# ======================================================================
# sweep- and portfolio-level parallelism
# ======================================================================
class TestSweepParallel:
    def test_parameter_sweep_matches_serial(self):
        steps = [{"kappa": 10.0}, {"kappa": 12.0}, {"n": 192}, {"n": 224}]
        serial = run_sweep("helmholtz_kernel", steps, n=256, parallel="off")
        reset_pool_stats()
        parallel = run_sweep("helmholtz_kernel", steps, n=256, parallel=FORCED)
        assert pool_stats().submissions >= 2  # the two non-recycled steps
        assert [s.params for s in parallel.steps] == [s.params for s in serial.steps]
        assert [s.recycled for s in parallel.steps] == [s.recycled for s in serial.steps]
        for a, b in zip(parallel.steps, serial.steps):
            assert _rel_diff(a.x, b.x) <= 1e-12

    def test_config_sweep_matches_serial(self):
        cfgs = [_config("batched"), _config("recursive"), _config("batched")]
        serial = run_sweep("gaussian_kernel", cfgs, n=256, parallel="off")
        reset_pool_stats()
        parallel = run_sweep("gaussian_kernel", cfgs, n=256, parallel=FORCED)
        assert pool_stats().submissions >= 3
        assert [s.recycled for s in parallel.steps] == [s.recycled for s in serial.steps]
        for a, b in zip(parallel.steps, serial.steps):
            assert _rel_diff(a.x, b.x) <= 1e-12


class TestPortfolio:
    ITEMS = [
        {"problem": "gaussian_kernel", "n": 192},
        {"problem": "gaussian_kernel", "n": 256},
        {"problem": "helmholtz_kernel", "n": 192, "kappa": 12.0},
    ]

    def test_matches_serial_in_order(self):
        serial = solve_portfolio(self.ITEMS, parallel="off", cache=False)
        reset_pool_stats()
        parallel = solve_portfolio(self.ITEMS, parallel=FORCED, cache=False)
        assert pool_stats().submissions >= len(self.ITEMS)
        assert len(parallel) == len(serial) == len(self.ITEMS)
        for a, b in zip(parallel, serial):
            assert a.x.shape == b.x.shape
            assert _rel_diff(a.x, b.x) <= 1e-12

    def test_dense_entries_and_shared_config(self):
        A = hodlr_friendly_matrix(192, seed=5)
        b = np.random.default_rng(11).standard_normal(192)
        items = [{"problem": A, "b": b}, {"problem": A, "b": b}]
        out = solve_portfolio(items, _config("batched"), parallel=FORCED, cache=False)
        assert len(out) == 2
        assert _rel_diff(out[0].x, out[1].x) == 0.0

    def test_mapping_without_problem_key_rejected(self):
        with pytest.raises(TypeError, match="problem"):
            solve_portfolio([{"n": 128}], parallel="off")

    def test_shared_cache_reuses_operator(self):
        items = [
            {"problem": "gaussian_kernel", "n": 192},
            {"problem": "gaussian_kernel", "n": 192},
        ]
        cache = repro.OperatorCache(maxsize=4)
        first, second = solve_portfolio(items, parallel="off", cache=cache)
        assert first.operator is second.operator
