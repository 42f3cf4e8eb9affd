"""``[tool.repro-lint]`` configuration: rule scopes and project-file layout.

The defaults below mirror this repository's layout, so ``python -m
repro.lint`` works from a bare checkout; ``pyproject.toml`` overrides them
(kebab-case keys).  All paths are relative to the *project root* — the
directory holding the ``pyproject.toml`` that was loaded (or the current
working directory when none is found).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple


class LintConfigError(ValueError):
    """Raised when ``[tool.repro-lint]`` contains unknown or ill-typed keys."""


#: protocol methods that are array plumbing, not compute kernels — they move
#: or allocate storage and have no flop model by design
DEFAULT_RL003_EXEMPT = (
    "asarray",
    "stack",
    "concat",
    "zeros",
    "eye",
    "broadcast_to",
    "to_host",
    "from_host",
    "synchronize",
    # vector norm: an O(n) reduction used only for residual reporting at the
    # facade boundary, never inside a factorization schedule
    "norm",
)

#: kernel method -> KernelEvent names its recording wrappers must emit
DEFAULT_RL003_KERNELS: Mapping[str, Tuple[str, ...]] = {
    "matmul": ("gemm_strided_batched",),
    # getrf_batched runs per-problem lu_factor, or lu_factor_batch where the
    # shape rule vectorises; getrs_batched runs lu_solve_many (lu_solve on a
    # backend without it)
    "lu_factor": ("getrf_batched",),
    "lu_factor_batch": ("getrf_batched",),
    "lu_solve": ("getrs_batched",),
    "lu_solve_many": ("getrs_batched",),
    "cholesky_inverse_batch": ("potrf_batched",),
    "cholesky_factor_batch": ("cholesky_batched",),
    "triangular_inverse_batch": ("trtri_batched",),
    "qr_batch": ("geqrf_batched",),
    "svd_batch": ("gesvd_batched",),
}


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration (defaults + ``[tool.repro-lint]``)."""

    #: project root all relative paths resolve against
    root: Path = field(default_factory=Path.cwd)
    #: default lint roots when the CLI gets no paths
    paths: Tuple[str, ...] = ("src", "tests", "benchmarks")
    #: path prefixes excluded from collection
    exclude: Tuple[str, ...] = (".git", ".venv", "build", "dist", "__pycache__")

    #: RL001 scope: context-threaded modules that must stay backend-pure
    rl001_modules: Tuple[str, ...] = (
        "src/repro/core/factor_plan.py",
        "src/repro/core/apply_plan.py",
        "src/repro/core/packing.py",
        "src/repro/core/arithmetic.py",
        "src/repro/core/update.py",
        "src/repro/backends/batched.py",
    )
    #: RL002 scope: plan/factor storage paths where dtypes must come from
    #: the PrecisionPolicy, never from literals
    rl002_modules: Tuple[str, ...] = (
        "src/repro/core/factor_plan.py",
        "src/repro/core/apply_plan.py",
        "src/repro/core/packing.py",
        "src/repro/core/arithmetic.py",
        "src/repro/core/update.py",
    )
    #: RL003 project files (the cross-module accounting contract)
    rl003_dispatch: str = "src/repro/backends/dispatch.py"
    rl003_batched: str = "src/repro/backends/batched.py"
    rl003_counters: str = "src/repro/backends/counters.py"
    rl003_protocol: str = "ArrayBackend"
    rl003_exempt: Tuple[str, ...] = DEFAULT_RL003_EXEMPT
    rl003_kernels: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_RL003_KERNELS)
    )
    #: RL004 scope: directory prefixes where timing/unseeded RNG is banned
    #: (benchmarks/ is deliberately absent — it times on purpose)
    rl004_include: Tuple[str, ...] = ("src", "tests")
    #: RL005 project files: every dataclass in them must serialise fully
    rl005_files: Tuple[str, ...] = (
        "src/repro/api/config.py",
        "src/repro/core/compression.py",
    )
    #: RL006 scope: modules whose functions concurrent callers' threads may
    #: run at once — module-global mutation there must sit under a
    #: ``with <lock>`` block
    rl006_modules: Tuple[str, ...] = (
        "src/repro/backends/batched.py",
        "src/repro/backends/dispatch.py",
        "src/repro/core/apply_plan.py",
        "src/repro/core/factor_plan.py",
        "src/repro/core/arithmetic.py",
        "src/repro/core/update.py",
    )

    def resolve(self, relpath: str) -> Path:
        return self.root / relpath

    def replace(self, **changes: Any) -> "LintConfig":
        return replace(self, **changes)


def _coerce(name: str, value: Any) -> Any:
    """Coerce a TOML value onto the dataclass field type, strictly."""
    if name == "root":
        raise LintConfigError("'root' is derived from the pyproject location, not set")
    if name == "rl003_kernels":
        if not isinstance(value, Mapping) or not all(
            isinstance(k, str)
            and isinstance(v, list)
            and all(isinstance(s, str) for s in v)
            for k, v in value.items()
        ):
            raise LintConfigError(
                "rl003-kernels must be a table of method -> [kernel names]"
            )
        return {k: tuple(v) for k, v in value.items()}
    if name in ("rl003_dispatch", "rl003_batched", "rl003_counters", "rl003_protocol"):
        if not isinstance(value, str):
            raise LintConfigError(f"{name.replace('_', '-')} must be a string")
        return value
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise LintConfigError(f"{name.replace('_', '-')} must be a list of strings")
    return tuple(value)


def config_from_mapping(data: Mapping[str, Any], root: Path) -> LintConfig:
    """Build a :class:`LintConfig` from a ``[tool.repro-lint]`` table."""
    known = {f.name for f in fields(LintConfig)} - {"root"}
    changes: Dict[str, Any] = {}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in known:
            raise LintConfigError(
                f"unknown [tool.repro-lint] key {key!r}; known: "
                f"{sorted(k.replace('_', '-') for k in known)}"
            )
        changes[name] = _coerce(name, value)
    return LintConfig(root=root, **changes)


def find_pyproject(start: Path) -> Optional[Path]:
    """The nearest ``pyproject.toml`` at or above ``start``."""
    cur = start if start.is_dir() else start.parent
    for candidate in (cur, *cur.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(
    start: Optional[Path] = None, explicit: Optional[Path] = None
) -> LintConfig:
    """Load configuration for a lint run.

    ``explicit`` names a pyproject file directly (CLI ``--config``);
    otherwise the nearest ``pyproject.toml`` at or above ``start`` (default:
    the current directory) is used.  A missing ``[tool.repro-lint]`` table
    simply yields the defaults, rooted at the pyproject's directory.
    """
    pyproject = explicit if explicit is not None else find_pyproject(start or Path.cwd())
    if pyproject is None:
        return LintConfig(root=(start or Path.cwd()).resolve())
    pyproject = pyproject.resolve()
    try:
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
    except tomllib.TOMLDecodeError as exc:
        raise LintConfigError(f"could not parse {pyproject}: {exc}") from exc
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, Mapping):
        raise LintConfigError("[tool.repro-lint] must be a table")
    return config_from_mapping(table, root=pyproject.parent)
