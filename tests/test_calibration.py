"""Tests for host calibration, auto-tuned contexts, and the CI perf gate.

Everything here runs timing-free: a fixed synthetic :class:`MachineProfile`
is pinned with :func:`use_profile` so no test depends on the wall clock of
the machine running the suite.  The only measured path exercised is the
cache protocol of :func:`calibrate`, and there ``measure_profile`` is
monkeypatched to either raise (proving a cache hit) or return the fixture.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import DispatchPolicy, ExecutionContext, MachineProfile, use_profile
from repro.api import CompressionConfig, SolverConfig
from repro.backends import calibration
from repro.backends.calibration import (
    EPS32_DEMOTION_ERROR,
    PROFILE_VERSION,
    auto_tune_context,
    calibrate,
    derive_precision_policy,
    get_active_profile,
    hodlr_level_bytes,
    machine_fingerprint,
)
from conftest import hodlr_friendly_matrix


@pytest.fixture
def profile():
    """A fixed synthetic profile: no timing, deterministic derivations."""
    return MachineProfile(
        version=PROFILE_VERSION,
        fingerprint=machine_fingerprint(),
        created="2026-01-01T00:00:00",
        min_bucket=3,
        lu_factor_max_n=16,
        lu_factor_min_batch=8,
        lu_solve_max_n=32,
        lu_solve_min_batch_ratio=2.0,
        pad_max_waste=0.3,
        launch_overhead=5.0e-6,
        peak_gflops=80.0,
        mem_bandwidth=3.0e10,
        curves={"gemm_pack": [[16.0, 1.0e-4, 2.0e-4]]},
    )


# ======================================================================
# MachineProfile serialization + cache protocol
# ======================================================================
class TestMachineProfile:
    def test_json_round_trip(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = MachineProfile.load(path)
        assert loaded == profile
        # the on-disk form is plain versioned JSON
        raw = json.loads(path.read_text())
        assert raw["version"] == PROFILE_VERSION
        assert raw["fingerprint"] == machine_fingerprint()

    def test_from_dict_rejects_unknown_keys(self, profile):
        data = profile.to_dict()
        data["frobnication_factor"] = 7
        with pytest.raises(ValueError, match="frobnication_factor"):
            MachineProfile.from_dict(data)

    def test_dispatch_policy_carries_measured_crossovers(self, profile):
        pol = profile.dispatch_policy()
        assert isinstance(pol, DispatchPolicy)
        assert pol.min_bucket == 3
        assert pol.lu_factor_max_n == 16
        assert pol.lu_solve_min_batch_ratio == 2.0
        assert pol.pad_max_waste == 0.3
        # overrides win over measured values
        assert profile.dispatch_policy(min_bucket=9).min_bucket == 9

    def test_performance_model_prices_traces(self, profile):
        model = profile.performance_model()
        spec = profile.device_spec()
        assert spec.launch_overhead == 5.0e-6
        assert spec.peak_flops == 80.0e9
        est = model.estimate(
            calibration._solve_trace({1: 1.0e6, 2: 1.0e6}, None),
            include_transfer=False,
        )
        assert est.total_time > 0

    def test_calibrate_uses_cache_without_measuring(self, profile, tmp_path, monkeypatch):
        path = tmp_path / "cache" / "profile.json"
        profile.save(path)

        def boom(**kwargs):  # pragma: no cover - failure mode
            raise AssertionError("measure_profile ran despite a valid cache")

        monkeypatch.setattr(calibration, "measure_profile", boom)
        assert calibrate(cache_path=path) == profile

    def test_calibrate_remeasures_on_fingerprint_mismatch(
        self, profile, tmp_path, monkeypatch
    ):
        path = tmp_path / "profile.json"
        profile.replace(fingerprint="deadbeefdeadbeef").save(path)
        monkeypatch.setattr(calibration, "measure_profile", lambda **kw: profile)
        assert calibrate(cache_path=path) == profile
        # the stale cache file was overwritten with the fresh profile
        assert MachineProfile.load(path) == profile

    def test_calibrate_remeasures_on_version_mismatch(
        self, profile, tmp_path, monkeypatch
    ):
        path = tmp_path / "profile.json"
        profile.replace(version=PROFILE_VERSION + 1).save(path)
        monkeypatch.setattr(calibration, "measure_profile", lambda **kw: profile)
        assert calibrate(cache_path=path) == profile
        # an older-schema cache still carrying a field the schema dropped
        stale = dict(profile.to_dict(), version=PROFILE_VERSION - 1, retired_crossover=2048)
        path.write_text(json.dumps(stale))
        assert calibrate(cache_path=path) == profile
        assert MachineProfile.load(path) == profile

    def test_calibrate_remeasures_v3_profile_with_parallel_fields(
        self, profile, tmp_path, monkeypatch
    ):
        path = tmp_path / "p.json"
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(path))
        v3 = dict(
            profile.to_dict(),
            version=3,
            parallel_workers=2,
            parallel_efficiency=0.6,
            parallel_min_elements=4096,
        )
        path.write_text(json.dumps(v3))
        with pytest.raises(ValueError, match="parallel_workers"):
            MachineProfile.load(path)
        monkeypatch.setattr(calibration, "measure_profile", lambda **kw: profile)
        assert calibrate() == profile
        assert MachineProfile.load(path) == profile

    def test_calibrate_remeasures_on_corrupt_cache(self, profile, tmp_path, monkeypatch):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        monkeypatch.setattr(calibration, "measure_profile", lambda **kw: profile)
        assert calibrate(cache_path=path) == profile

    def test_default_cache_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "p.json"))
        assert calibration.default_cache_path() == tmp_path / "p.json"
        monkeypatch.delenv("REPRO_PROFILE_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert calibration.default_cache_path() == (
            tmp_path / "repro" / "machine_profile.json"
        )


# ======================================================================
# policy="auto" resolution
# ======================================================================
class TestAutoPolicy:
    def test_auto_resolves_to_profile_policy(self, profile):
        with use_profile(profile):
            ctx = ExecutionContext(policy="auto")
        assert ctx.policy == profile.dispatch_policy()

    def test_auto_is_deterministic_under_fixed_profile(self, profile):
        with use_profile(profile):
            a = ExecutionContext(policy="auto")
            b = ExecutionContext(policy="auto")
        assert a.policy == b.policy == profile.dispatch_policy()

    def test_unknown_policy_string_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            ExecutionContext(policy="turbo")

    def test_use_profile_restores_previous(self, profile):
        with use_profile(profile):
            assert get_active_profile() is profile
            inner = profile.replace(min_bucket=7)
            with use_profile(inner):
                assert get_active_profile() is inner
            assert get_active_profile() is profile

    def test_auto_tune_context_preserves_pad_buckets(self, profile):
        ctx = ExecutionContext(policy=DispatchPolicy(pad_buckets=True))
        tuned = auto_tune_context(ctx, profile=profile)
        assert tuned.policy.pad_buckets is True
        assert tuned.policy.min_bucket == profile.min_bucket

    def test_auto_tune_context_can_keep_pinned_policy(self, profile):
        pinned = DispatchPolicy(min_bucket=11)
        ctx = ExecutionContext(policy=pinned)
        tuned = auto_tune_context(ctx, tune_policy=False, profile=profile)
        assert tuned.policy == pinned


# ======================================================================
# precision derivation under a residual budget
# ======================================================================
class TestPrecisionDerivation:
    def test_no_budget_keeps_base(self, profile):
        pol = derive_precision_policy(profile, None)
        assert pol == calibration.PrecisionPolicy()

    def test_budget_must_be_positive(self, profile):
        with pytest.raises(ValueError, match="positive"):
            derive_precision_policy(profile, -1.0e-6)

    def test_tight_budget_stays_full_precision(self, profile):
        pol = derive_precision_policy(profile, 1.0e-14, levels=6)
        assert pol.factor is None
        assert pol.plan is None

    def test_loose_budget_demotes_factor_and_plan(self, profile):
        assert EPS32_DEMOTION_ERROR < 1.0e-4
        pol = derive_precision_policy(profile, 1.0e-4, levels=6)
        assert pol.factor == "float32"
        assert pol.plan == "float32"
        assert pol.factor_min_level >= 1

    def test_derivation_is_deterministic(self, profile):
        a = derive_precision_policy(profile, 1.0e-5, levels=6)
        b = derive_precision_policy(profile, 1.0e-5, levels=6)
        assert a == b

    def test_explicit_demotion_takes_precedence(self, profile):
        base = calibration.PrecisionPolicy(factor="float32", factor_min_level=2)
        pol = derive_precision_policy(profile, 1.0e-4, base=base)
        assert pol == base

    def test_float32_input_not_demoted(self, profile):
        pol = derive_precision_policy(profile, 1.0e-4, dtype="float32")
        assert pol.factor is None

    def test_modeled_error_within_budget(self, profile):
        budget = 5.0e-6
        pol = derive_precision_policy(profile, budget, levels=6)
        if pol.factor is not None:
            lb = calibration._synthetic_level_bytes(6)
            err = calibration._candidate_error(lb, pol.factor_min_level, pol.refine)
            assert err <= budget

    def test_hodlr_level_bytes_accounts_all_storage(self):
        A = hodlr_friendly_matrix(256)
        H = repro.build_hodlr_from_dense(
            A, config=repro.CompressionConfig(leaf_size=32, tol=1e-10, method="svd")
        )
        lb = hodlr_level_bytes(H)
        total = sum(lb.values())
        expected = sum(H.U[i].nbytes + H.V[i].nbytes for i in H.U)
        expected += sum(d.nbytes for d in H.diag.values())
        assert total == pytest.approx(expected)
        assert set(lb) <= set(range(1, H.tree.levels + 1))


# ======================================================================
# facade: tuning="auto" end to end
# ======================================================================
class TestFacadeAutoTuning:
    def test_config_round_trips_tuning_fields(self):
        cfg = SolverConfig(tuning="auto", residual_budget=1.0e-6)
        again = SolverConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.tuning == "auto"
        assert again.residual_budget == 1.0e-6

    def test_config_rejects_bad_tuning(self):
        with pytest.raises(ValueError, match="tuning"):
            SolverConfig(tuning="magic")
        with pytest.raises(ValueError, match="residual_budget"):
            SolverConfig(residual_budget=0.0)

    def test_auto_matches_default_solve(self, profile):
        A = hodlr_friendly_matrix(256)
        b = np.random.default_rng(1).standard_normal(256)
        cfg = SolverConfig(compression=CompressionConfig(tol=1e-10, method="svd"))
        res_default = repro.solve(A, b, config=cfg, tuning="default")
        with use_profile(profile):
            res_auto = repro.solve(A, b, config=cfg, tuning="auto")
        rel = np.linalg.norm(res_auto.x - res_default.x) / np.linalg.norm(
            res_default.x
        )
        assert rel < 1.0e-12

    def test_registered_problem_with_auto_tuning(self, profile):
        with use_profile(profile):
            result = repro.solve("gaussian_kernel", n=256, tuning="auto")
        assert result.relative_residual < 1.0e-6

    def test_operator_context_uses_hodlr_mass(self, profile):
        cfg = SolverConfig(
            compression=CompressionConfig(tol=1e-10, method="svd"),
            tuning="auto",
            residual_budget=1.0e-4,
        )
        A = hodlr_friendly_matrix(512)
        with use_profile(profile):
            op = repro.build_operator(A, config=cfg)
            ctx = op.context
        assert ctx.policy == profile.dispatch_policy()
        # a 1e-4 budget is loose enough for demotion under the level mass
        assert ctx.precision.factor == "float32"


# ======================================================================
# check_bench: the CI perf gate
# ======================================================================
def _load_check_bench():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench.py"
    spec = importlib.util.spec_from_file_location("check_bench", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def check_bench():
    return _load_check_bench()


BASE_COUNTERS = {
    "n": 2048,
    "launches_per_solve": 16,
    "factor_launches": 24,
    "construction_flops": 1.0e9,
    "factor_plan_bytes": 4.0e6,
}


class TestCheckBench:
    def test_identical_counters_pass(self, check_bench):
        reg, imp, rows = check_bench.compare_counters(BASE_COUNTERS, BASE_COUNTERS)
        assert reg == [] and imp == []
        assert all(r["status"] == "ok" for r in rows)
        # "n" is descriptive, not a gated counter
        assert "n" not in {r["key"] for r in rows}

    def test_launch_regression_fails(self, check_bench):
        current = dict(BASE_COUNTERS, launches_per_solve=17)  # +6% > 2% tol
        reg, _imp, rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert any("launches_per_solve" in r for r in reg)
        assert any(r["status"] == "REGRESSION" for r in rows)

    def test_flops_within_tolerance_pass(self, check_bench):
        current = dict(BASE_COUNTERS, construction_flops=1.04e9)  # +4% < 5% tol
        reg, _imp, _rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert reg == []

    def test_bytes_regression_fails(self, check_bench):
        current = dict(BASE_COUNTERS, factor_plan_bytes=4.5e6)  # +12.5%
        reg, _imp, _rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert any("factor_plan_bytes" in r for r in reg)

    def test_evaluation_count_regression_fails(self, check_bench):
        # per-block rook multiplies the probe's gather calls by the blocks
        # per level; a rank wobble moves them by a few calls
        base = dict(BASE_COUNTERS, rook_construction_evaluations=1750)
        wobble = dict(base, rook_construction_evaluations=1790)
        assert check_bench.compare_counters(wobble, base)[0] == []
        per_block = dict(base, rook_construction_evaluations=9575)
        reg, _imp, _rows = check_bench.compare_counters(per_block, base)
        assert any("rook_construction_evaluations" in r for r in reg)

    def test_missing_counter_is_regression(self, check_bench):
        current = {k: v for k, v in BASE_COUNTERS.items() if k != "factor_launches"}
        reg, _imp, rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert any("missing" in r for r in reg)
        assert any(r["status"] == "MISSING" for r in rows)

    def test_improvement_reported_not_failed(self, check_bench):
        current = dict(BASE_COUNTERS, launches_per_solve=12)
        reg, imp, _rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert reg == []
        assert any("launches_per_solve" in i for i in imp)

    def test_new_counter_is_informational(self, check_bench):
        current = dict(BASE_COUNTERS, apply_launches_per_matvec=9)
        reg, _imp, rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert reg == []
        assert any(r["status"] == "new" for r in rows)

    def test_main_exit_codes(self, check_bench, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"counters": BASE_COUNTERS}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"counters": BASE_COUNTERS}))
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"counters": dict(BASE_COUNTERS, launches_per_solve=32)})
        )
        summary = tmp_path / "summary.md"
        argv_ok = [
            "--current", str(good), "--baseline", str(baseline),
            "--summary", str(summary),
        ]
        assert check_bench.main(argv_ok) == 0
        assert "Perf gate" in summary.read_text()
        argv_bad = ["--current", str(bad), "--baseline", str(baseline)]
        assert check_bench.main(argv_bad) == 1

    def test_main_requires_counters_section(self, check_bench, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"benchmarks": {}}))
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps({"counters": BASE_COUNTERS}))
        assert check_bench.main(["--current", str(ok), "--baseline", str(empty)]) == 1
        assert check_bench.main(["--current", str(empty), "--baseline", str(ok)]) == 1


# ======================================================================
# record_bench: the recorder behind the gate baseline
# ======================================================================
class TestRecordBench:
    @pytest.fixture(scope="class")
    def record_bench(self):
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "record_bench.py"
        spec = importlib.util.spec_from_file_location("record_bench", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_full_mode_needs_output_before_measuring(self, record_bench, monkeypatch, capsys):
        def measured(*args, **kwargs):
            raise AssertionError("a measurement ran")

        monkeypatch.setattr(record_bench, "bench_gaussian_construction", measured)
        monkeypatch.setattr(record_bench, "collect_counters", measured)
        with pytest.raises(SystemExit) as exc:
            record_bench.main(["--pr", "3"])
        assert exc.value.code == 2
        assert "--output" in capsys.readouterr().err
