"""Tests for the repo-specific static analyzer (``repro.lint``).

Each rule gets at least one fixture snippet it must flag and a clean twin
it must not; pragma suppression, the JSON schema, CLI exit codes, and —
as the acceptance criterion — a full-repo lint that must come back clean
are all exercised here.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    load_config,
    run_lint,
    scan_pragmas,
)
from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfigError, config_from_mapping

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write(root: Path, relpath: str, body: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def _codes(result):
    return sorted(v.code for v in result.violations)


# ======================================================================
# RL001 — backend purity
# ======================================================================
class TestRL001:
    def config(self, tmp_path):
        return LintConfig(root=tmp_path, rl001_modules=("mod.py",))

    def test_flags_numpy_constructor(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            import numpy as np

            def f(dtype):
                return np.zeros((3, 3), dtype=dtype)
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL001"]
        (v,) = result.violations
        assert "numpy.zeros" in v.message and v.path == "mod.py"

    def test_flags_scipy_linalg_through_alias(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            from scipy import linalg as sla

            def f(a):
                return sla.lu_factor(a)
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL001"]
        assert "scipy.linalg.lu_factor" in result.violations[0].message

    def test_flags_np_linalg(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            import numpy as xp

            def f(a):
                return xp.linalg.svd(a)
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL001"]

    def test_int_dtype_metadata_exempt(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            import numpy as np

            def f(rows):
                # gather indices / pivots: host integer metadata by design
                idx = np.zeros(len(rows), dtype=np.intp)
                piv = np.arange(4, dtype=np.int64)
                mask = np.ones(4, dtype=bool)
                return idx, piv, mask
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert result.ok

    def test_backend_calls_clean(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            def f(xb, blocks, dtype):
                stack = xb.stack(blocks)
                return xb.zeros((2, 2), dtype=dtype), stack
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert result.ok

    def test_out_of_scope_module_untouched(self, tmp_path):
        _write(
            tmp_path,
            "other.py",
            """
            import numpy as np

            def f():
                return np.zeros(3)
            """,
        )
        result = run_lint(["other.py"], config=self.config(tmp_path))
        assert result.ok


# ======================================================================
# RL002 — dtype hardcoding
# ======================================================================
class TestRL002:
    def config(self, tmp_path):
        return LintConfig(
            root=tmp_path, rl001_modules=(), rl002_modules=("plan.py",)
        )

    @pytest.mark.parametrize(
        "expr",
        [
            "xb.zeros((2, 2), dtype=np.float64)",
            "xb.zeros((2, 2), dtype='float32')",
            "xb.zeros((2, 2), dtype=float)",
            "x.astype('complex64')",
            "x.astype(np.float32)",
        ],
    )
    def test_flags_float_literals(self, tmp_path, expr):
        _write(
            tmp_path,
            "plan.py",
            f"""
            import numpy as np

            def f(xb, x):
                return {expr}
            """,
        )
        result = run_lint(["plan.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL002"]

    def test_policy_derived_dtype_clean(self, tmp_path):
        _write(
            tmp_path,
            "plan.py",
            """
            import numpy as np

            def f(xb, x, precision, level):
                dt = precision.plan_dtype(x.dtype, level)
                idx = np.arange(5, dtype=np.int64)  # int metadata stays fine
                return xb.zeros((2, 2), dtype=dt), x.astype(np.result_type(x, dt)), idx
            """,
        )
        result = run_lint(["plan.py"], config=self.config(tmp_path))
        assert result.ok


# ======================================================================
# RL004 — determinism
# ======================================================================
class TestRL004:
    def config(self, tmp_path):
        return LintConfig(root=tmp_path, rl004_include=("src", "tests"))

    @pytest.mark.parametrize(
        "body",
        [
            "import time\nt0 = time.perf_counter()",
            "from time import perf_counter\nt0 = perf_counter()",
            "import numpy as np\nx = np.random.default_rng().normal(size=3)",
            "import numpy as np\nx = np.random.rand(3)",
            "import random\nx = random.random()",
        ],
    )
    def test_flags_timing_and_unseeded_rng(self, tmp_path, body):
        _write(tmp_path, "src/mod.py", body + "\n")
        result = run_lint(["src"], config=self.config(tmp_path))
        assert _codes(result) == ["RL004"]

    def test_seeded_rng_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            import numpy as np

            rng = np.random.default_rng(1234)
            x = rng.normal(size=3)
            also = np.random.default_rng(seed=7)
            """,
        )
        result = run_lint(["src"], config=self.config(tmp_path))
        assert result.ok

    def test_benchmarks_out_of_scope(self, tmp_path):
        _write(
            tmp_path,
            "benchmarks/bench.py",
            """
            import time

            t0 = time.perf_counter()
            """,
        )
        result = run_lint(["benchmarks"], config=self.config(tmp_path))
        assert result.ok


# ======================================================================
# RL003 — trace accounting (synthetic project tree)
# ======================================================================
class TestRL003:
    DISPATCH = """
        from typing import Protocol

        class MiniBackend(Protocol):
            def asarray(self, x): ...
            def matmul(self, a, b): ...
            def lu_factor_batch(self, a): ...
    """
    BATCHED = """
        from .counters import gemm_flops, getrf_flops, KernelEvent

        def gemm_batched(a, b, trace=None):
            flops = gemm_flops(2, 2, 2, False)
            if trace is not None:
                trace.record(KernelEvent(kernel="gemm_batched", flops=flops))
            return a @ b

        def getrf_batched(a, trace=None):
            flops = getrf_flops(2, False)
            if trace is not None:
                trace.record(KernelEvent(kernel="getrf_batched", flops=flops))
            return a
    """
    COUNTERS = """
        class KernelEvent:
            def __init__(self, kernel, flops):
                self.kernel, self.flops = kernel, flops

        def gemm_flops(m, n, k, cplx):
            return 2 * m * n * k

        def getrf_flops(n, cplx):
            return 2 * n ** 3 // 3
    """

    def project(self, tmp_path, dispatch=None, batched=None, counters=None):
        _write(tmp_path, "pkg/__init__.py", "")
        _write(tmp_path, "pkg/dispatch.py", dispatch or self.DISPATCH)
        _write(tmp_path, "pkg/batched.py", batched or self.BATCHED)
        _write(tmp_path, "pkg/counters.py", counters or self.COUNTERS)
        return LintConfig(
            root=tmp_path,
            rl001_modules=(),
            rl003_dispatch="pkg/dispatch.py",
            rl003_batched="pkg/batched.py",
            rl003_counters="pkg/counters.py",
            rl003_protocol="MiniBackend",
            rl003_exempt=("asarray",),
            rl003_kernels={
                "matmul": ("gemm_batched",),
                "lu_factor_batch": ("getrf_batched",),
            },
        )

    def test_complete_accounting_clean(self, tmp_path):
        config = self.project(tmp_path)
        result = run_lint(["pkg"], config=config, select=["RL003"])
        assert result.ok

    def test_unmapped_protocol_method_flagged(self, tmp_path):
        # DISPATCH ends with 4 spaces before its closing quote; 8 more land
        # the method inside the protocol class after dedent
        dispatch = self.DISPATCH + "        def svd_batch(self, a): ...\n"
        config = self.project(tmp_path, dispatch=dispatch)
        result = run_lint(["pkg"], config=config, select=["RL003"])
        assert _codes(result) == ["RL003"]
        assert "svd_batch" in result.violations[0].message

    def test_unrecorded_kernel_event_flagged(self, tmp_path):
        batched = """
            from .counters import gemm_flops, KernelEvent

            def gemm_batched(a, b, trace=None):
                flops = gemm_flops(2, 2, 2, False)
                if trace is not None:
                    trace.record(KernelEvent(kernel="gemm_batched", flops=flops))
                return a @ b
        """
        config = self.project(tmp_path, batched=batched)
        result = run_lint(["pkg"], config=config, select=["RL003"])
        # lu_factor_batch maps to getrf_batched, which is never recorded,
        # and getrf's flop model goes unreferenced in the wrappers module
        assert "RL003" in _codes(result)
        assert any("getrf_batched" in v.message for v in result.violations)

    def test_missing_flop_model_flagged(self, tmp_path):
        counters = """
            class KernelEvent:
                def __init__(self, kernel, flops):
                    self.kernel, self.flops = kernel, flops

            def gemm_flops(m, n, k, cplx):
                return 2 * m * n * k
        """
        batched = """
            from .counters import gemm_flops, KernelEvent

            def gemm_batched(a, b, trace=None):
                trace.record(KernelEvent(kernel="gemm_batched", flops=0))
                return a @ b

            def getrf_batched(a, trace=None):
                trace.record(KernelEvent(kernel="getrf_batched", flops=0))
                return a
        """
        config = self.project(tmp_path, batched=batched, counters=counters)
        result = run_lint(["pkg"], config=config, select=["RL003"])
        assert any(
            v.code == "RL003" and "getrf_flops" in v.message
            for v in result.violations
        )

    def test_skips_when_files_absent(self, tmp_path):
        _write(tmp_path, "lonely.py", "x = 1\n")
        config = LintConfig(root=tmp_path, rl001_modules=())
        result = run_lint(["lonely.py"], config=config, select=["RL003"])
        assert result.ok


# ======================================================================
# RL005 — config serialization drift (synthetic config module)
# ======================================================================
class TestRL005:
    def config(self, tmp_path):
        return LintConfig(
            root=tmp_path, rl001_modules=(), rl005_files=("cfg.py",)
        )

    def test_missing_field_in_to_dict_flagged(self, tmp_path):
        _write(
            tmp_path,
            "cfg.py",
            """
            from dataclasses import dataclass

            @dataclass
            class C:
                tol: float = 1e-6
                max_rank: int = 0

                def to_dict(self):
                    return {"tol": self.tol}

                @classmethod
                def from_dict(cls, data):
                    return cls(**dict(data))
            """,
        )
        result = run_lint(["cfg.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL005"]
        assert "max_rank" in result.violations[0].message

    def test_missing_from_dict_flagged(self, tmp_path):
        _write(
            tmp_path,
            "cfg.py",
            """
            from dataclasses import asdict, dataclass

            @dataclass
            class C:
                tol: float = 1e-6

                def to_dict(self):
                    return asdict(self)
            """,
        )
        result = run_lint(["cfg.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL005"]
        assert "from_dict" in result.violations[0].message

    def test_asdict_and_kwargs_expansion_clean(self, tmp_path):
        _write(
            tmp_path,
            "cfg.py",
            """
            from dataclasses import asdict, dataclass

            @dataclass
            class C:
                tol: float = 1e-6
                max_rank: int = 0

                def to_dict(self):
                    return asdict(self)

                @classmethod
                def from_dict(cls, data):
                    return cls(**dict(data))
            """,
        )
        result = run_lint(["cfg.py"], config=self.config(tmp_path))
        assert result.ok

    def test_explicit_key_enumeration_clean(self, tmp_path):
        _write(
            tmp_path,
            "cfg.py",
            """
            from dataclasses import dataclass

            @dataclass
            class C:
                tol: float = 1e-6
                max_rank: int = 0

                def to_dict(self):
                    return {"tol": self.tol, "max_rank": self.max_rank}

                @classmethod
                def from_dict(cls, data):
                    return cls(tol=data["tol"], max_rank=data["max_rank"])
            """,
        )
        result = run_lint(["cfg.py"], config=self.config(tmp_path))
        assert result.ok

    def test_non_dataclass_ignored(self, tmp_path):
        _write(
            tmp_path,
            "cfg.py",
            """
            class Plain:
                tol: float = 1e-6
            """,
        )
        result = run_lint(["cfg.py"], config=self.config(tmp_path))
        assert result.ok


# ======================================================================
# RL006 — unsynchronized module-global mutation in shared modules
# ======================================================================
class TestRL006:
    def config(self, tmp_path):
        return LintConfig(root=tmp_path, rl006_modules=("mod.py",))

    def test_flags_unguarded_mutation(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            _CACHE = {}
            _SEEN = []
            _COUNT = 0

            def f(key, value):
                global _COUNT
                _CACHE[key] = value
                _SEEN.append(key)
                _COUNT += 1
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL006", "RL006", "RL006"]
        messages = " ".join(v.message for v in result.violations)
        assert "_CACHE" in messages and "_SEEN" in messages and "_COUNT" in messages

    def test_lock_guarded_mutation_clean(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}
            _COUNT = 0

            def f(key, value):
                global _COUNT
                with _LOCK:
                    _CACHE[key] = value
                    _CACHE.setdefault(key, value)
                    _COUNT += 1
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert result.ok

    def test_thread_local_state_exempt(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            import threading

            _TLS = threading.local()

            def f(flag):
                _TLS.active = flag
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert result.ok

    def test_local_variables_clean(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            _SHARED = {}

            def f(items):
                groups = {}
                for item in items:
                    groups.setdefault(item, []).append(item)
                local = dict(_SHARED)
                local["x"] = 1
                return groups, local
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert result.ok

    def test_nested_function_not_covered_by_enclosing_guard(self, tmp_path):
        # a def under a `with lock` runs at *call* time — the guard at its
        # definition site proves nothing about who holds the lock later
        _write(
            tmp_path,
            "mod.py",
            """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def f(key, value):
                with _LOCK:
                    def callback():
                        _CACHE[key] = value
                    return callback
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL006"]

    def test_pragma_escape(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            _BEST = None

            def f(score):
                global _BEST
                _BEST = score  # repro-lint: ignore[RL006] -- benign last-write-wins hint, consumers tolerate staleness
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert result.ok

    def test_out_of_scope_module_untouched(self, tmp_path):
        _write(
            tmp_path,
            "other.py",
            """
            _CACHE = {}

            def f(key, value):
                _CACHE[key] = value
            """,
        )
        result = run_lint(["other.py"], config=self.config(tmp_path))
        assert result.ok


# ======================================================================
# pragmas
# ======================================================================
class TestPragmas:
    def config(self, tmp_path):
        return LintConfig(root=tmp_path, rl001_modules=("mod.py",))

    def test_line_pragma_suppresses(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            import numpy as np

            x = np.zeros(3)  # repro-lint: ignore[RL001] -- host scratch for a unit fixture
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert result.ok
        (pragma,) = result.pragmas
        assert pragma.used and pragma.reason.startswith("host scratch")

    def test_file_pragma_suppresses_whole_module(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            # repro-lint: file-ignore[RL001] -- legacy module scheduled for backend port
            import numpy as np

            x = np.zeros(3)
            y = np.ones(4)
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert result.ok

    def test_pragma_without_reason_is_rl000(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            import numpy as np

            x = np.zeros(3)  # repro-lint: ignore[RL001]
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        # the reasonless pragma is reported AND does not suppress
        assert _codes(result) == ["RL000", "RL001"]

    def test_malformed_pragma_is_rl000(self, tmp_path):
        _write(tmp_path, "mod.py", "x = 1  # repro-lint: ignroe[RL001] -- typo\n")
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL000"]

    def test_rl000_cannot_be_suppressed(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            "x = 1  # repro-lint: ignore[RL000] -- nice try\n",
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL000"]

    def test_pragma_only_covers_its_own_rule(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """
            import numpy as np

            x = np.zeros(3)  # repro-lint: ignore[RL004] -- wrong rule named
            """,
        )
        result = run_lint(["mod.py"], config=self.config(tmp_path))
        assert _codes(result) == ["RL001"]

    def test_scan_pragmas_multi_code(self, tmp_path):
        pragmas, problems = scan_pragmas(
            "mod.py",
            "x = 1  # repro-lint: ignore[RL001, RL002] -- both deliberate\n",
        )
        assert not problems
        assert pragmas[0].codes == ("RL001", "RL002")


# ======================================================================
# output formats, config, CLI
# ======================================================================
class TestOutputsAndCli:
    def violating_project(self, tmp_path):
        _write(
            tmp_path,
            "pyproject.toml",
            """
            [tool.repro-lint]
            paths = ["src"]
            rl001-modules = ["src/mod.py"]
            """,
        )
        _write(
            tmp_path,
            "src/mod.py",
            """
            import numpy as np

            x = np.zeros(3)
            """,
        )
        return tmp_path

    def test_json_schema(self, tmp_path):
        root = self.violating_project(tmp_path)
        config = load_config(start=root)
        result = run_lint(["src"], config=config)
        payload = result.to_json_dict()
        assert set(payload) == {"ok", "files_checked", "violations", "pragmas"}
        assert payload["ok"] is False and payload["files_checked"] == 1
        (v,) = payload["violations"]
        assert set(v) == {"path", "line", "col", "code", "message"}
        assert v["code"] == "RL001" and v["path"] == "src/mod.py"

    def test_github_format(self, tmp_path):
        root = self.violating_project(tmp_path)
        config = load_config(start=root)
        (v,) = run_lint(["src"], config=config).violations
        line = v.format_github()
        assert line.startswith("::error file=src/mod.py,line=")
        assert "title=RL001" in line

    def test_config_kebab_case_and_unknown_key(self, tmp_path):
        config = config_from_mapping({"rl004-include": ["src"]}, root=tmp_path)
        assert config.rl004_include == ("src",)
        with pytest.raises(LintConfigError):
            config_from_mapping({"no-such-key": []}, root=tmp_path)

    def test_cli_exit_codes(self, tmp_path, monkeypatch, capsys):
        root = self.violating_project(tmp_path)
        monkeypatch.chdir(root)
        assert lint_main(["src"]) == 1
        capsys.readouterr()
        _write(root, "src/mod.py", "x = 1\n")
        assert lint_main(["src"]) == 0
        capsys.readouterr()
        assert lint_main(["--select", "RLXYZ", "src"]) == 2
        assert lint_main(["does/not/exist"]) == 2

    def test_cli_select_restricts_rules(self, tmp_path, monkeypatch, capsys):
        root = self.violating_project(tmp_path)
        monkeypatch.chdir(root)
        # the only violation is RL001; selecting RL004 must come back clean
        assert lint_main(["--select", "RL004", "src"]) == 0
        capsys.readouterr()

    def test_cli_list_pragmas(self, tmp_path, monkeypatch, capsys):
        root = self.violating_project(tmp_path)
        _write(
            root,
            "src/ok.py",
            """
            import numpy as np

            y = np.ones(1)  # repro-lint: ignore[RL001] -- fixture twin
            """,
        )
        monkeypatch.chdir(root)
        assert lint_main(["--list-pragmas", "src"]) == 0
        out = capsys.readouterr().out
        assert "ignore[RL001]" in out and "fixture twin" in out

    def test_cli_list_pragmas_fails_on_reasonless(self, tmp_path, monkeypatch, capsys):
        root = self.violating_project(tmp_path)
        _write(root, "src/bad.py", "z = 1  # repro-lint: ignore[RL004]\n")
        monkeypatch.chdir(root)
        assert lint_main(["--list-pragmas", "src"]) == 1
        assert "no reason" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        root = self.violating_project(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--format=json", "src"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["violations"][0]["code"] == "RL001"


# ======================================================================
# acceptance: this repository lints clean with its own configuration
# ======================================================================
class TestRepoAcceptance:
    def test_repo_lints_clean(self):
        config = load_config(start=REPO_ROOT)
        assert config.root == REPO_ROOT
        result = run_lint(["src", "tests", "benchmarks"], config=config)
        assert result.violations == []

    def test_every_repo_pragma_is_used_and_reasoned(self):
        config = load_config(start=REPO_ROOT)
        result = run_lint(["src", "tests", "benchmarks"], config=config)
        assert result.pragmas, "expected baseline suppressions to exist"
        for pragma in result.pragmas:
            assert pragma.reason, f"{pragma.path}:{pragma.line} lacks a reason"
            assert pragma.used, f"{pragma.path}:{pragma.line} suppresses nothing"
