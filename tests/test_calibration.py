"""Tests for the host probe and the CI perf gate.

:func:`~repro.backends.calibration.measure_profile` is the one measured
path here: the benchmarks read its peak flop rate and copy bandwidth, so
the test checks only that both come back positive, never their values.
No solver path reads the probe: a context's dispatch and precision
policies are the config's own, whatever the host, and two classes check
that.  Everything else (``check_bench.py``, ``record_bench.py``) runs on
fixed inputs with no clock.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import DispatchPolicy, ExecutionContext, MachineProfile, PrecisionPolicy
from repro.api import SolverConfig
from repro.backends.calibration import measure_profile
from conftest import hodlr_friendly_matrix


# ======================================================================
# measure_profile: the host probe the benchmarks report against
# ======================================================================
class TestMeasureProfile:
    def test_reports_positive_peak_and_bandwidth(self):
        profile = measure_profile(repeats=1)
        assert isinstance(profile, MachineProfile)
        assert profile.peak_gflops > 0
        assert profile.mem_bandwidth > 0
        assert profile.launch_overhead > 0

    def test_profile_holds_only_host_fields(self):
        names = [f.name for f in fields(MachineProfile)]
        assert names == ["launch_overhead", "peak_gflops", "mem_bandwidth"]


# ======================================================================
# no policy="auto": a context's policy is the one it was given
# ======================================================================
class TestAutoPolicy:
    def test_unknown_policy_string_rejected(self):
        # "auto" is checked in test_context.py; no other string resolves either
        with pytest.raises(TypeError, match="DispatchPolicy"):
            ExecutionContext(policy="turbo")

    def test_auto_tune_context_can_keep_pinned_policy(self):
        pinned = DispatchPolicy(bucketing=False)
        cfg = SolverConfig(dispatch_policy=pinned)
        assert cfg.execution_context().policy == pinned
        op = repro.build_operator(hodlr_friendly_matrix(256), config=cfg)
        assert op.context.policy == pinned


# ======================================================================
# no residual budget: a context's precision is the config's own
# ======================================================================
class TestPrecisionDerivation:
    def test_no_budget_keeps_base(self):
        assert SolverConfig().execution_context().precision == PrecisionPolicy()

    def test_explicit_demotion_takes_precedence(self):
        base = PrecisionPolicy(factor="float32", factor_min_level=2)
        ctx = SolverConfig(precision=base).execution_context()
        assert ctx.precision == base

    def test_float32_input_not_demoted(self):
        A = hodlr_friendly_matrix(256).astype(np.float32)
        op = repro.build_operator(A)
        assert op.context.precision == PrecisionPolicy()
        assert op.context.precision.factor is None


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
