"""Host calibration: measured crossover curves -> derived dispatch/precision.

The :class:`~repro.backends.dispatch.DispatchPolicy` crossover constants
(batched-LU vectorize thresholds, minimum bucket size, pad-waste
break-even) were measured once, on one machine, and baked in as
class defaults.  Whether the dispatch layer's packed paths actually win on
*this* host depends on its BLAS build, core count, and cache sizes — the
1.15x-3.3x speedup spread in the committed benchmarks is exactly that
sensitivity.  This module closes the loop the ROADMAP calls for:

:func:`calibrate`
    A one-shot pass that times small synthetic bucket sweeps of the
    kernels the dispatcher schedules — packed-vs-loop gemm over block
    sizes and bucket sizes, vectorised-vs-LAPACK batched LU factorization
    and substitution — plus the host's launch overhead, peak flop rate,
    and copy bandwidth, and fits the crossovers into a
    :class:`MachineProfile`.

:class:`MachineProfile`
    A serializable (JSON, versioned) record of those measurements, keyed
    by a machine/numpy/BLAS fingerprint so a cached profile from a
    different host or library build is rejected and re-measured.  The
    profile derives a :class:`~repro.backends.dispatch.DispatchPolicy`
    (:meth:`MachineProfile.dispatch_policy`), a
    :class:`~repro.backends.device.DeviceSpec` describing the host
    (:meth:`MachineProfile.device_spec`), and a host
    :class:`~repro.backends.perfmodel.PerformanceModel` used to price
    precision-demotion candidates (:meth:`MachineProfile.performance_model`).

:func:`derive_precision_policy`
    Chooses the :class:`~repro.backends.context.PrecisionPolicy` demotion
    depth under a caller-supplied residual budget: candidate policies
    (float32 factor/plan storage at varying minimum levels, with or
    without iterative refinement) are priced by building a synthetic
    per-level :class:`~repro.backends.counters.KernelTrace` and running it
    through the calibrated performance model; the fastest candidate whose
    modeled residual stays within the budget wins.

:func:`auto_tune_context` / ``ExecutionContext(policy="auto")``
    The integration seam: an execution context resolves ``"auto"`` to the
    active profile's derived policy, and the API layer upgrades the
    derivation with the actual HODLR level mass once an operator exists.

Profiles are cached at ``$REPRO_PROFILE_CACHE`` (a file path) or
``$XDG_CACHE_HOME/repro/machine_profile.json`` (default
``~/.cache/repro/machine_profile.json``); delete the file or pass
``force=True`` to re-measure.  Tests pin a fixed synthetic profile with
:func:`use_profile` so nothing in the suite depends on wall-clock timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import sys
import threading
import time  # repro-lint: file-ignore[RL004] -- calibration exists to measure kernel wall-clock; sweeps are not tests
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy import linalg as sla

from .context import ExecutionContext, PrecisionPolicy
from .counters import KernelEvent, KernelTrace
from .device import DeviceSpec
from .dispatch import DispatchPolicy, _lu_factor_batch, _lu_solve_batch
from .perfmodel import PerformanceModel

#: bump when the profile schema or the measurement methodology changes;
#: cached profiles with a different version are re-measured.
#: v2: parallel-efficiency sweep (parallel_workers / parallel_efficiency /
#: parallel_min_elements) joined the schema.
#: v3: the gemm pack-size crossover left the schema (no launch read it).
#: v4: the parallel-efficiency fields left the schema with the thread pool.
PROFILE_VERSION = 4

#: relative residual floor of a float32-demoted factorization/plan
#: (unit roundoff of float32 with a modest accumulation constant).
EPS32_DEMOTION_ERROR = 2.0e-6

#: residual floor after one step of iterative refinement (the correction
#: solve re-introduces demoted-factor noise at second order).
REFINED_ERROR_FLOOR = 5.0e-12


# ======================================================================
# fingerprint
# ======================================================================
def _blas_signature() -> str:
    """A stable string identifying the BLAS/LAPACK numpy was built against."""
    try:
        cfg = np.show_config(mode="dicts")  # numpy >= 1.25
    except TypeError:  # pragma: no cover - older numpy
        return "unknown-blas"
    deps = cfg.get("Build Dependencies", {}) if isinstance(cfg, dict) else {}
    parts = []
    for key in sorted(deps):
        info = deps[key]
        if isinstance(info, dict):
            parts.append(f"{key}={info.get('name', '?')}-{info.get('version', '?')}")
    return ";".join(parts) or "unknown-blas"


def machine_fingerprint() -> str:
    """Hash of the machine + interpreter + numpy/BLAS identity.

    A cached :class:`MachineProfile` is only trusted when this fingerprint
    matches: moving the cache file to another host, or upgrading numpy (and
    with it the BLAS kernels whose crossovers were measured), invalidates
    it.
    """
    raw = "|".join(
        [
            platform.machine(),
            platform.processor() or platform.platform(),
            f"cpython-{sys.version_info.major}.{sys.version_info.minor}",
            f"numpy-{np.__version__}",
            _blas_signature(),
        ]
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


# ======================================================================
# machine profile
# ======================================================================
@dataclass(frozen=True)
class MachineProfile:
    """Measured host characteristics + fitted dispatch crossovers.

    The first block of fields mirrors the
    :class:`~repro.backends.dispatch.DispatchPolicy` tunables (fitted from
    the timing sweeps); the second block describes the host for the
    analytic performance model.  ``curves`` keeps the raw sweep rows
    (``[x, t_packed, t_loop]`` triples per sweep) for introspection and for
    the benchmark report — nothing downstream consumes them.
    """

    version: int = PROFILE_VERSION
    fingerprint: str = ""
    created: str = ""

    # fitted DispatchPolicy tunables
    min_bucket: int = 2
    lu_factor_max_n: int = 12
    lu_factor_min_batch: int = 24
    lu_solve_max_n: int = 48
    lu_solve_min_batch_ratio: float = 4.0
    pad_max_waste: float = 0.25

    # measured host characteristics
    launch_overhead: float = 2.0e-6
    peak_gflops: float = 50.0
    mem_bandwidth: float = 2.0e10

    #: raw sweep measurements: name -> list of [x, t_fast_path, t_loop] rows
    curves: Dict[str, List[List[float]]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # derivations
    # ------------------------------------------------------------------
    def dispatch_policy(self, **overrides: Any) -> DispatchPolicy:
        """The measured-crossover :class:`DispatchPolicy` for this host."""
        kwargs: Dict[str, Any] = dict(
            min_bucket=self.min_bucket,
            lu_factor_max_n=self.lu_factor_max_n,
            lu_factor_min_batch=self.lu_factor_min_batch,
            lu_solve_max_n=self.lu_solve_max_n,
            lu_solve_min_batch_ratio=self.lu_solve_min_batch_ratio,
            pad_max_waste=self.pad_max_waste,
        )
        kwargs.update(overrides)
        return DispatchPolicy(**kwargs)

    def device_spec(self) -> DeviceSpec:
        """A :class:`DeviceSpec` describing this host's measured envelope."""
        return DeviceSpec(
            name=f"calibrated-host-{self.fingerprint or 'unknown'}",
            peak_flops=self.peak_gflops * 1.0e9,
            mem_bandwidth=self.mem_bandwidth,
            launch_overhead=self.launch_overhead,
            single_precision_speedup=2.0,
            min_efficiency=0.2,
            saturation_flops=1.0e8,
        )

    def performance_model(self) -> PerformanceModel:
        """A host performance model pricing traces on the measured device."""
        return PerformanceModel.for_host(self.device_spec())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MachineProfile":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown MachineProfile keys: {sorted(unknown)}")
        return cls(**data)

    def save(self, path: os.PathLike) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: os.PathLike) -> "MachineProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def matches_host(self) -> bool:
        """Is this profile valid for the current process (version + host)?"""
        return self.version == PROFILE_VERSION and self.fingerprint == machine_fingerprint()

    def replace(self, **changes: Any) -> "MachineProfile":
        return replace(self, **changes)


# ======================================================================
# timing sweeps
# ======================================================================
def _best_of(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` timed calls (after one warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _gemm_blocks(rng: np.random.Generator, nb: int, n: int) -> Tuple[list, list]:
    a = [rng.standard_normal((n, n)) for _ in range(nb)]
    b = [rng.standard_normal((n, n)) for _ in range(nb)]
    return a, b


def _sweep_gemm_pack(rng: np.random.Generator, repeats: int) -> List[List[float]]:
    """Packed vs per-block gemm timings of 48 square blocks per size.

    The rows feed :func:`_fit_pad_max_waste` (the per-block loop column
    prices one small-block gemm) and the benchmark report.
    """
    nb = 48
    rows: List[List[float]] = []
    for n in (8, 16, 24, 32, 48, 64, 96):
        a, b = _gemm_blocks(rng, nb, n)

        def packed(a=a, b=b):
            return np.matmul(np.asarray(a), np.asarray(b))

        def loop(a=a, b=b):
            return [x @ y for x, y in zip(a, b)]

        rows.append([float(n), _best_of(packed, repeats), _best_of(loop, repeats)])
    return rows


def _sweep_min_bucket(rng: np.random.Generator, repeats: int) -> Tuple[int, List[List[float]]]:
    """Smallest gemm bucket worth packing (strided batch of few blocks)."""
    n = 16
    rows: List[List[float]] = []
    fitted = 8
    for nb in (8, 6, 4, 3, 2):
        a, b = _gemm_blocks(rng, nb, n)

        def packed(a=a, b=b):
            return np.matmul(np.asarray(a), np.asarray(b))

        def loop(a=a, b=b):
            return [x @ y for x, y in zip(a, b)]

        tp, tl = _best_of(packed, repeats), _best_of(loop, repeats)
        rows.append([float(nb), tp, tl])
        if tp <= tl:
            fitted = nb
        else:
            break
    return fitted, rows[::-1]


def _sweep_lu_factor(
    rng: np.random.Generator, repeats: int
) -> Tuple[int, int, List[List[float]]]:
    """Crossovers of the vectorised batched LU elimination vs a LAPACK loop."""
    nb = 48
    rows: List[List[float]] = []
    max_n = 4
    for n in (4, 6, 8, 12, 16, 24, 32):
        blocks = rng.standard_normal((nb, n, n)) + n * np.eye(n)

        def vec(blocks=blocks):
            return _lu_factor_batch(np, blocks)

        def loop(blocks=blocks):
            return [sla.lu_factor(blocks[i]) for i in range(len(blocks))]

        tv, tl = _best_of(vec, repeats), _best_of(loop, repeats)
        rows.append([float(n), tv, tl])
        if tv <= tl:
            max_n = n
    max_n = int(np.clip(max_n, 4, 32))

    n = min(8, max_n)
    min_batch = 128
    batch_rows: List[List[float]] = []
    for nb in (4, 8, 16, 24, 32, 48):
        blocks = rng.standard_normal((nb, n, n)) + n * np.eye(n)

        def vec(blocks=blocks):
            return _lu_factor_batch(np, blocks)

        def loop(blocks=blocks):
            return [sla.lu_factor(blocks[i]) for i in range(len(blocks))]

        tv, tl = _best_of(vec, repeats), _best_of(loop, repeats)
        batch_rows.append([float(nb), tv, tl])
        if tv <= tl:
            min_batch = nb
            break
    rows.extend(batch_rows)
    return max_n, int(np.clip(min_batch, 2, 128)), rows


def _sweep_lu_solve(
    rng: np.random.Generator, repeats: int
) -> Tuple[int, float, List[List[float]]]:
    """Crossovers of the vectorised batched substitution vs a LAPACK loop."""
    rows: List[List[float]] = []
    max_n = 8
    for n in (8, 16, 32, 48, 64):
        nb = max(32, 4 * n)
        blocks = rng.standard_normal((nb, n, n)) + n * np.eye(n)
        rhs = rng.standard_normal((nb, n, 1))
        lu, piv = _lu_factor_batch(np, blocks)
        factors = [sla.lu_factor(blocks[i]) for i in range(nb)]

        def vec(lu=lu, piv=piv, rhs=rhs):
            return _lu_solve_batch(np, lu, piv, rhs)

        def loop(factors=factors, rhs=rhs):
            return [sla.lu_solve(f, rhs[i]) for i, f in enumerate(factors)]

        tv, tl = _best_of(vec, repeats), _best_of(loop, repeats)
        rows.append([float(n), tv, tl])
        if tv <= tl:
            max_n = n
    max_n = int(np.clip(max_n, 8, 64))

    n = min(16, max_n)
    ratio = 16.0
    ratio_rows: List[List[float]] = []
    for r in (1.0, 2.0, 4.0, 8.0):
        nb = max(2, int(r * n))
        blocks = rng.standard_normal((nb, n, n)) + n * np.eye(n)
        rhs = rng.standard_normal((nb, n, 1))
        lu, piv = _lu_factor_batch(np, blocks)
        factors = [sla.lu_factor(blocks[i]) for i in range(nb)]

        def vec(lu=lu, piv=piv, rhs=rhs):
            return _lu_solve_batch(np, lu, piv, rhs)

        def loop(factors=factors, rhs=rhs):
            return [sla.lu_solve(f, rhs[i]) for i, f in enumerate(factors)]

        tv, tl = _best_of(vec, repeats), _best_of(loop, repeats)
        ratio_rows.append([r, tv, tl])
        if tv <= tl:
            ratio = r
            break
    rows.extend(ratio_rows)
    return max_n, float(np.clip(ratio, 1.0, 16.0)), rows


def _measure_machine(
    rng: np.random.Generator, repeats: int
) -> Tuple[float, float, float]:
    """(launch_overhead, peak_gflops, mem_bandwidth) of the host."""
    tiny_a, tiny_b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    launch = _best_of(lambda: tiny_a @ tiny_b, repeats=max(repeats, 5))
    launch = float(np.clip(launch, 1.0e-7, 1.0e-4))

    n = 256
    big_a, big_b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    t = _best_of(lambda: big_a @ big_b, repeats)
    peak_gflops = float(2.0 * n**3 / max(t, 1.0e-9) / 1.0e9)

    buf = rng.standard_normal(4 * 1024 * 1024)  # 32 MB
    dst = np.empty_like(buf)
    t = _best_of(lambda: np.copyto(dst, buf), repeats)
    bandwidth = float(2.0 * buf.nbytes / max(t, 1.0e-9))
    return launch, peak_gflops, bandwidth


def _fit_pad_max_waste(launch_overhead: float, gemm_rows: List[List[float]]) -> float:
    """Break-even padding waste: wasted block compute vs saved launches.

    Merging a singleton shape into a padded bucket saves one kernel launch
    and costs ``waste`` of one typical small-block gemm, so the break-even
    waste is ``launch_overhead / t_block``.  ``t_block`` is read off the
    measured loop column of the gemm sweep at the 16x16 probe (48 blocks).
    """
    t_block = None
    for n, _tp, tl in gemm_rows:
        if int(n) == 16:
            t_block = tl / 48.0
            break
    if not t_block or t_block <= 0:
        return 0.25
    return float(np.clip(launch_overhead / t_block, 0.1, 0.5))


def measure_profile(repeats: int = 3, seed: int = 0) -> MachineProfile:
    """Run the calibration sweeps and fit a :class:`MachineProfile`.

    Total cost is a couple of seconds of small synthetic kernels; use
    :func:`calibrate` to get the cached version.
    """
    rng = np.random.default_rng(seed)
    curves: Dict[str, List[List[float]]] = {}

    curves["gemm_pack"] = _sweep_gemm_pack(rng, repeats)
    min_bucket, curves["min_bucket"] = _sweep_min_bucket(rng, repeats)
    lu_factor_max_n, lu_factor_min_batch, curves["lu_factor"] = _sweep_lu_factor(
        rng, repeats
    )
    lu_solve_max_n, lu_solve_ratio, curves["lu_solve"] = _sweep_lu_solve(rng, repeats)
    launch, peak_gflops, bandwidth = _measure_machine(rng, repeats)

    return MachineProfile(
        version=PROFILE_VERSION,
        fingerprint=machine_fingerprint(),
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
        min_bucket=min_bucket,
        lu_factor_max_n=lu_factor_max_n,
        lu_factor_min_batch=lu_factor_min_batch,
        lu_solve_max_n=lu_solve_max_n,
        lu_solve_min_batch_ratio=lu_solve_ratio,
        pad_max_waste=_fit_pad_max_waste(launch, curves["gemm_pack"]),
        launch_overhead=launch,
        peak_gflops=peak_gflops,
        mem_bandwidth=bandwidth,
        curves=curves,
    )


# ======================================================================
# cache + active profile
# ======================================================================
def default_cache_path() -> Path:
    """Where :func:`calibrate` persists the profile for this user."""
    env = os.environ.get("REPRO_PROFILE_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "machine_profile.json"


def calibrate(
    cache_path: Optional[os.PathLike] = None,
    force: bool = False,
    repeats: int = 3,
) -> MachineProfile:
    """Return the host's :class:`MachineProfile`, measuring at most once.

    A cached profile is reused only when its schema version matches
    :data:`PROFILE_VERSION` and its fingerprint matches
    :func:`machine_fingerprint`; otherwise (or with ``force=True``) the
    sweeps re-run and the cache file is overwritten.
    """
    path = Path(cache_path) if cache_path is not None else default_cache_path()
    if not force and path.exists():
        try:
            cached = MachineProfile.load(path)
        except (ValueError, TypeError, json.JSONDecodeError, OSError):
            cached = None
        if cached is not None and cached.matches_host():
            return cached
    profile = measure_profile(repeats=repeats)
    try:
        profile.save(path)
    except OSError:  # pragma: no cover - read-only cache dir is non-fatal
        pass
    return profile


#: guards the process-wide active profile — concurrent callers resolving
#: ``policy="auto"`` may race the first lazy calibration
_ACTIVE_LOCK = threading.RLock()

#: process-wide active profile (lazily calibrated on first "auto" use)
_ACTIVE: Optional[MachineProfile] = None


def get_active_profile() -> MachineProfile:
    """The profile ``policy="auto"`` / ``tuning="auto"`` derive from.

    Calibrates (through the cache) on first use; pin a fixed profile with
    :func:`set_active_profile` or :func:`use_profile`.  Thread-safe: the
    lock is held across the lazy calibration, so concurrent first uses
    measure at most once.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is None:
            _ACTIVE = calibrate()
        return _ACTIVE


def set_active_profile(profile: Optional[MachineProfile]) -> None:
    """Pin (or with ``None`` reset) the process-wide active profile."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = profile


@contextlib.contextmanager
def use_profile(profile: MachineProfile) -> Iterator[MachineProfile]:
    """Temporarily pin the active profile (tests use this to stay timing-free)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        old = _ACTIVE
        _ACTIVE = profile
    try:
        yield profile
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = old


# ======================================================================
# precision derivation under a residual budget
# ======================================================================
def _synthetic_level_bytes(levels: int) -> Dict[int, float]:
    """Generic level-mass model when no HODLR matrix is at hand.

    A balanced HODLR tree stores roughly equal off-diagonal bytes per
    level (each level holds ``2^l`` blocks of size ``~n/2^l x k``), with
    the leaf diagonal blocks — counted at the deepest level — carrying
    about twice one level's mass.
    """
    bytes_by_level = {level: 1.0 for level in range(1, levels + 1)}
    bytes_by_level[levels] = bytes_by_level.get(levels, 0.0) + 2.0
    return bytes_by_level


def hodlr_level_bytes(hodlr) -> Dict[int, float]:
    """Per-level factor storage bytes of a built HODLR matrix.

    Mirrors the :class:`~repro.backends.context.PrecisionPolicy` level
    conventions: a level's U/V storage counts at its *child* level (that
    is where the factor plan stores the corresponding K/Y/V stacks) and
    leaf diagonal blocks count at the deepest level.
    """
    tree = hodlr.tree
    out: Dict[int, float] = {}
    for level in range(1, tree.levels + 1):
        stored_at = min(level + 1, tree.levels)
        nbytes = 0.0
        for idx in tree.level_indices(level):
            nbytes += float(hodlr.U[idx].nbytes + hodlr.V[idx].nbytes)
        out[stored_at] = out.get(stored_at, 0.0) + nbytes
    diag = float(sum(d.nbytes for d in hodlr.diag.values()))
    out[tree.levels] = out.get(tree.levels, 0.0) + diag
    return out


def _solve_trace(
    bytes_by_level: Dict[int, float],
    demoted_from: Optional[int],
    *,
    tag: str = "solve",
) -> KernelTrace:
    """Synthetic one-solve trace: each level streams its factor bytes once.

    A compiled solve sweep reads every stored factor byte once and does
    ~2 flops per streamed element (triangular substitution), so pricing
    one ``getrs``-like launch per level with those totals reproduces the
    memory-bound character of the real solve without running one.
    """
    trace = KernelTrace()
    for level in sorted(bytes_by_level):
        nbytes = bytes_by_level[level]
        demoted = demoted_from is not None and level >= demoted_from
        dtype_size = 4 if demoted else 8
        elements = nbytes / 8.0
        trace.append(
            KernelEvent(
                kernel="getrs_batched",
                batch=1,
                shape=(0, 1, 0),
                flops=2.0 * elements,
                bytes_moved=nbytes / 2.0 if demoted else nbytes,
                dtype_size=dtype_size,
                strided=True,
                level=level,
                tag=tag,
                plan=True,
            )
        )
    return trace


def _candidate_error(
    bytes_by_level: Dict[int, float], min_level: int, refine: bool
) -> float:
    """Modeled relative residual of demoting levels ``>= min_level``.

    The demotion error scales with the square root of the demoted storage
    fraction (independent float32 rounding over the demoted mass); one
    refinement step squares it down to the refined floor.
    """
    total = sum(bytes_by_level.values())
    demoted = sum(b for level, b in bytes_by_level.items() if level >= min_level)
    if total <= 0 or demoted <= 0:
        return 0.0
    err = EPS32_DEMOTION_ERROR * float(np.sqrt(demoted / total))
    if refine:
        err = max(REFINED_ERROR_FLOOR, err * err / EPS32_DEMOTION_ERROR * 1.0e-3)
    return err


def derive_precision_policy(
    profile: MachineProfile,
    residual_budget: Optional[float],
    *,
    dtype: Any = "float64",
    levels: Optional[int] = None,
    level_bytes: Optional[Dict[int, float]] = None,
    base: Optional[PrecisionPolicy] = None,
) -> PrecisionPolicy:
    """Pick the fastest demotion depth whose modeled residual fits the budget.

    Candidates enumerate float32 factor storage at every minimum level
    (with and without one refinement step) plus, for generous budgets,
    matching apply-plan demotion.  Each candidate is priced by running a
    synthetic per-level solve trace through the profile's calibrated
    performance model; the cheapest candidate whose modeled relative
    residual stays at or below ``residual_budget`` wins.  With no budget
    (``None``) the base policy is returned untouched, as it is when the
    caller already demanded an explicit plan/factor dtype.
    """
    base = base if base is not None else PrecisionPolicy()
    if residual_budget is None:
        return base
    if residual_budget <= 0:
        raise ValueError(f"residual_budget must be positive, got {residual_budget!r}")
    if base.factor is not None or base.plan is not None:
        return base  # explicit demotion choices take precedence
    if np.dtype(dtype).itemsize <= 4:
        return base  # already single precision: nothing to demote

    if level_bytes is None:
        level_bytes = _synthetic_level_bytes(levels if levels else 6)
    if not level_bytes:
        return base
    deepest = max(level_bytes)
    model = profile.performance_model()

    def cost(min_level: Optional[int], refine: bool) -> float:
        trace = _solve_trace(level_bytes, min_level)
        if refine:
            # refinement: one full-precision residual matvec + one more solve
            trace.extend(_solve_trace(level_bytes, min_level, tag="refine"))
            trace.extend(_solve_trace(level_bytes, None, tag="matvec"))
        return model.estimate(trace, include_transfer=False).total_time

    # (policy-changes, modeled error, modeled time); full precision first so
    # exact ties keep the conservative choice
    candidates: List[Tuple[Dict[str, Any], float, float]] = [
        ({}, 0.0, cost(None, False))
    ]
    for min_level in range(deepest, 0, -1):
        for refine in (False, True):
            err = _candidate_error(level_bytes, min_level, refine)
            changes: Dict[str, Any] = {
                "factor": "float32",
                "factor_min_level": min_level,
                "refine": refine,
            }
            if residual_budget >= EPS32_DEMOTION_ERROR and not refine:
                # budget tolerates raw float32 residuals: demote the apply
                # plan too so Krylov matvecs stream half the bytes
                changes["plan"] = "float32"
                changes["plan_min_level"] = min_level
            candidates.append((changes, err, cost(min_level, refine)))

    feasible = [c for c in candidates if c[1] <= residual_budget]
    changes = min(feasible, key=lambda c: c[2])[0]
    return replace(base, **changes) if changes else base


# ======================================================================
# context auto-tuning
# ======================================================================
def auto_tune_context(
    context: ExecutionContext,
    *,
    residual_budget: Optional[float] = None,
    hodlr=None,
    tune_policy: bool = True,
    profile: Optional[MachineProfile] = None,
) -> ExecutionContext:
    """Replace a context's policies with profile-derived ones.

    ``tune_policy=False`` keeps the context's dispatch policy (the caller
    pinned one explicitly) and only derives precision.  With a built
    ``hodlr`` the precision derivation uses the matrix's actual per-level
    storage mass instead of the generic balanced-tree model.
    """
    profile = profile if profile is not None else get_active_profile()
    changes: Dict[str, Any] = {}
    if tune_policy:
        changes["policy"] = profile.dispatch_policy(
            pad_buckets=context.policy.pad_buckets
        )
    level_bytes = hodlr_level_bytes(hodlr) if hodlr is not None else None
    dtype = hodlr.dtype if hodlr is not None else "float64"
    derived = derive_precision_policy(
        profile,
        residual_budget,
        dtype=dtype,
        level_bytes=level_bytes,
        base=context.precision,
    )
    if derived != context.precision:
        changes["precision"] = derived
    return context.replace(**changes) if changes else context
