"""Measurement passes of the HODLR benchmark (imported by ``run.py``).

``run.py`` fixes the BLAS thread count and the library path before this
module, and with it numpy, is imported.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro import (
    AssembledProblem,
    ClusterTree,
    CompressionConfig,
    HODLROperator,
    KernelMatrix,
    OperatorCache,
    build_hodlr,
)
from repro.api.cache import problem_fingerprint
from repro.backends.calibration import measure_profile

import host
from host import SpeedProbe
from layers import CountingKernel, Tracer, hooked_update_functions, instrument_operator
from workloads import (
    BLOCK_K,
    CHECK_ROWS,
    PointStream,
    RhsSource,
    exact_matrix,
    problem_points,
    reorders,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: speed-probe runs per batch
PROBE_REPEATS = 8
#: measured-loop seconds between speed-probe batches
SEGMENT_S = 1.0
#: process CPU time over wall time above which a probe batch shows other
#: threads of the program busy: BLAS is pinned to one thread and the
#: schedule is serial, so nothing else should run while the probe does
PROBE_CPU_RATIO_MAX = 1.25
#: bytes of each array the calibration bandwidth probe copies
#: (``repro.backends.calibration._measure_machine``)
BANDWIDTH_PROBE_BYTES = 32 * 1024 * 1024


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(samples):
    """``(value, percentile)``: the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported (percentile 100).
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def spread(samples):
    """min / median / IQR of a sample list, as reported for every timing."""
    if not samples:
        return {"n": 0}
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {
        "n": len(samples),
        "min": min(samples),
        "median": statistics.median(samples),
        "iqr": q[2] - q[0],
    }


def relres(r, b) -> float:
    denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(r)) / denom if denom > 0 else float(np.linalg.norm(r))


# ----------------------------------------------------------------------
# one benchmark session: inputs, checks, failure accounting
# ----------------------------------------------------------------------
class Session:
    def __init__(self, workload, seed: int, smoke: bool) -> None:
        self.w = workload
        self.seed = seed
        self.params = workload.problem_params(seed, smoke)
        self.problem = repro.get_problem(workload.problem, **self.params)
        self.config = self.problem.default_config
        self.tol = float(self.config.compression.tol)
        #: thresholds scale with the compression tolerance: the HODLR
        #: residual checks the factorization, the exact one the compression
        self.hodlr_thr = 100.0 * self.tol
        self.exact_thr = 1000.0 * self.tol
        self.points = problem_points(self.problem)
        self.exact = exact_matrix(self.problem, self.points)
        self.rhs = RhsSource(self.problem, self.points, np.random.default_rng([seed, 1]))
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def stream(self, rng=None):
        """A stream over the initial points; ``rng`` continues an earlier one."""
        if rng is None:
            rng = np.random.default_rng([self.seed, 2])
        return PointStream(self.problem, self.points, self.config.compression.leaf_size, rng)

    def check_rng(self, salt: int):
        return np.random.default_rng([self.seed, 3, salt])

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count one attempted operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the run continues past a failed operation
            self.fail(f"{what}: {type(exc).__name__}: {exc}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(message)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            raise AssertionError(message)

    def exact_relres(self, exact, x, b, salt: int) -> float:
        """Residual against the exact operator: all rows, or CHECK_ROWS seeded rows."""
        if self.w.exact == "full":
            return relres(exact.matvec(x) - b, b)
        n = x.shape[0]
        rows = np.sort(self.check_rng(salt).choice(n, CHECK_ROWS, replace=False))
        return relres(exact.entries(rows, np.arange(n)) @ x - b[rows], b[rows])

    def check_solution(self, x, what: str) -> None:
        self.require(bool(np.all(np.isfinite(x))), f"{what}: non-finite solution")

    def check_round(self, result) -> None:
        self.check_solution(result.x, "solve_many")
        worst = float(np.max(result.column_residuals))
        self.require(worst <= self.hodlr_thr,
                     f"solve_many column residual {worst:.3e} > {self.hodlr_thr:.1e}")


def operator_bytes(op) -> int:
    """HODLR + FactorPlan + ApplyPlan bytes (computed from array sizes)."""
    total = op.hodlr.nbytes
    if op.factored and op.solver.factor_plan is not None:
        total += op.solver.factor_plan.nbytes
    if op.apply_plan is not None:
        total += op.apply_plan.nbytes
    return int(total)


# ----------------------------------------------------------------------
# end-to-end measurement (tracing off)
# ----------------------------------------------------------------------
def facade_setup(s: Session, x0):
    cache = OperatorCache(maxsize=2)
    op = repro.build_operator(s.w.problem, cache=cache, **s.params).factorize()
    op @ x0  # the first application compiles the apply plan
    return op, cache


def measure(s: Session, seconds: float) -> dict:
    """The e2e metrics: three setups, then the workload cycle for ``seconds``.

    Every timing is scaled to the reference host speed by
    :class:`host.SpeedProbe` batches taken outside the timed windows: one
    before and one after each setup, and one between loop segments of
    about :data:`SEGMENT_S`, so an operation is scaled by the batches that
    bound its segment.  The unscaled value of every metric is kept in the
    report as ``raw_value``.
    """
    probe = SpeedProbe()
    cpu_ratios = []

    def probe_batch():
        times, ratio = probe.batch(PROBE_REPEATS)
        cpu_ratios.append(ratio)
        return times

    n = s.problem.n
    x0 = s.rhs.single(n)
    setups = []  # (raw seconds, speed factor)
    op = cache = None
    for i in range(SETUP_REPEATS):
        op = cache = None
        gc.collect()
        before = probe_batch()
        with s.operation(f"setup {i}"):
            t0 = time.perf_counter()
            op, cache = facade_setup(s, x0)
            elapsed = time.perf_counter() - t0
            setups.append((elapsed, probe.factor(before + probe_batch())))
    if op is None:
        raise RuntimeError("every setup failed: " + "; ".join(s.errors))

    batches = [probe_batch()]  # probe times between loop segments
    loop = {}  # kind -> [(raw seconds, index of the batch before it)]
    exact = s.exact
    stream = s.stream()
    last = None  # (x, b, exact operator) of the latest single-RHS solve

    def timed(kind, elapsed):
        loop.setdefault(kind, []).append((elapsed, len(batches) - 1))

    def solve_op():
        nonlocal last
        b = s.rhs.single(n)
        t0 = time.perf_counter()
        x = op.solve(b)
        timed("solve", time.perf_counter() - t0)
        s.check_solution(x, "solve")
        last = (x, b, exact)

    def round_op():
        B = s.rhs.block(n)
        t0 = time.perf_counter()
        result = repro.solve_many(s.w.problem, B, cache=cache, **s.params)
        timed("round", time.perf_counter() - t0)
        s.check_round(result)

    def reset_op():
        nonlocal op, cache, exact, stream
        op = cache = None
        op, cache = facade_setup(s, x0)
        exact, stream = s.exact, s.stream(stream.rng)

    def step_op():
        nonlocal exact, last
        change = stream.next(op.perm)
        b = s.rhs.single(n)
        t0 = time.perf_counter()
        repro.update_operator(op, source=change.source, points_removed=change.removed,
                              points_added=change.added, tol=s.tol)
        t1 = time.perf_counter()
        x = op.solve(b)
        t2 = time.perf_counter()
        r = b - op @ x
        t3 = time.perf_counter()
        timed("update", t1 - t0)
        timed("solve", t2 - t1)
        timed("step", t3 - t0)
        exact = change.source
        last = (x, b, exact)
        s.check_solution(x, "stream solve")
        res = relres(r, b)
        s.require(res <= s.hodlr_thr, f"stream HODLR residual {res:.3e} > {s.hodlr_thr:.1e}")
        res = s.exact_relres(exact, x, b, salt=len(loop.get("step", ())))
        s.require(res <= s.exact_thr, f"stream exact residual {res:.3e} > {s.exact_thr:.1e}")

    ops = {"solve": solve_op, "round": round_op, "reset": reset_op, "step": step_op}
    # warm-up, untimed: one of each read operation the cycle uses
    for kind in dict.fromkeys(s.w.cycle):
        if kind in ("solve", "round"):
            with s.operation(f"warm-up {kind}"):
                ops[kind]()
    loop.clear()

    deadline = time.perf_counter() + seconds
    segment_end = time.perf_counter() + SEGMENT_S
    while not loop or time.perf_counter() < deadline:
        for kind in s.w.cycle:
            with s.operation(kind):
                ops[kind]()
        if time.perf_counter() >= segment_end:
            batches.append(probe_batch())
            segment_end = time.perf_counter() + SEGMENT_S
    batches.append(probe_batch())

    accuracy = 0.0  # stays 0 digits when the check itself raises
    with s.operation("exact residual"):
        if last is None:
            solve_op()
        x, b, exact = last
        res = s.exact_relres(exact, x, b, salt=0)
        accuracy = -math.log10(max(res, 1e-300))
        s.require(res <= s.exact_thr, f"exact residual {res:.3e} > {s.exact_thr:.1e}")

    with s.operation("speed probe"):
        worst = max(cpu_ratios)
        s.require(worst <= PROBE_CPU_RATIO_MAX,
                  f"process CPU / wall {worst:.2f} during a speed probe: other "
                  "threads of the program were busy, so scaling would hide their cost")

    raw = {"setup": [t for t, _ in setups]}
    norm = {"setup": [t * f for t, f in setups]}
    factors = [f for _, f in setups]
    for kind, samples in loop.items():
        for elapsed, k in samples:
            factor = probe.factor(batches[k] + batches[k + 1])
            factors.append(factor)
            raw.setdefault(kind, []).append(elapsed)
            norm.setdefault(kind, []).append(elapsed * factor)

    def timing(kind):
        return dict(spread(norm[kind]), raw_value=statistics.median(raw[kind]))

    def tail_info(kind):
        value, pct = tail(norm[kind])
        info = {"n": len(norm[kind]), "percentile": pct, "raw_value": tail(raw[kind])[0]}
        return value, info

    step_kind = "step" if "step" in s.w.cycle else "round"
    per_step = 1 if step_kind == "step" else BLOCK_K
    solve_tail, solve_tail_info = tail_info("solve")
    metrics = {
        "setup_s": (statistics.median(norm["setup"]), "s", timing("setup")),
        "solve_s": (statistics.median(norm["solve"]), "s", timing("solve")),
        "solve_tail_s": (solve_tail, "s", solve_tail_info),
        "rhs_per_s": (per_step / statistics.median(norm[step_kind]), "1/s",
                      dict(spread(norm[step_kind]), path=step_kind,
                           raw_value=per_step / statistics.median(raw[step_kind]))),
        "accuracy_digits": (accuracy, "digits", {"n": 1}),
        "operator_mb": (operator_bytes(op) / 1e6, "MB", {"n": 1, "bytes": "computed"}),
    }
    extra = {
        "failed_frac": (s.failed / max(s.attempted, 1), "1", {"n": s.attempted}),
    }
    if "update" in norm:
        update_tail, update_tail_info = tail_info("update")
        extra["update_s"] = (statistics.median(norm["update"]), "s", timing("update"))
        extra["update_tail_s"] = (update_tail, "s", update_tail_info)
    conditions = {"speed_factor": spread(factors), "probe_batches": len(cpu_ratios),
                  "probe_cpu_ratio_max": max(cpu_ratios)}
    return {"metrics": metrics, "extra": extra, "host": conditions}


# ----------------------------------------------------------------------
# fixed comparison passes (untraced facade vs traced layer calls)
# ----------------------------------------------------------------------
def traced_setup(s: Session, tracer, x0):
    """``build_operator(...).factorize()`` spelled as the layer calls it makes."""
    with tracer.span("facade", "setup"):
        cache = OperatorCache(maxsize=2)
        fingerprint = problem_fingerprint(s.w.problem, s.params)
        cache.get(fingerprint, s.config)
        comp = s.config.compression
        km = s.exact
        with tracer.span("cluster_tree"):
            if reorders(s.problem):
                tree, perm = ClusterTree.from_points(km.points, leaf_size=comp.leaf_size)
            else:
                tree, perm = ClusterTree.balanced(km.n, leaf_size=comp.leaf_size), None
        source = km if perm is None else KernelMatrix(
            kernel=km.kernel, points=km.points[perm], diagonal_shift=km.diagonal_shift)
        core = CompressionConfig(tol=comp.tol, max_rank=comp.max_rank, method=comp.method,
                                 construction=comp.construction)
        with tracer.span("hodlr", record=True):
            H = build_hodlr(CountingKernel(source, tracer), tree, config=core,
                            context=s.config.construction_context())
        assembled = AssembledProblem(name=s.problem.name, hodlr=H, operator=km.matvec,
                                     perm=perm)
        op = HODLROperator(H, s.config, perm=perm)
        cache.put(fingerprint, s.config, (assembled, op))
        with tracer.span("factor_plan", record=True):
            op.factorize()
        with tracer.span("apply_plan", "build", record=True):
            op @ x0
    return op, cache


def fixed_pass(s: Session, tracer=None) -> dict:
    """The comparison sequence: setup, solves, K=32 rounds, stream steps.

    With ``tracer`` the setup runs layer by layer and every facade call
    sits in a ``facade`` span with the layers it drives nested inside;
    without, it is plain facade calls.  Correctness checks run after the
    timed sequence, on the outputs it kept.
    """
    n = s.problem.n
    s.rhs.rng = s.check_rng(99)  # both passes draw the same inputs
    x0 = s.rhs.single(n)
    singles = [s.rhs.single(n) for _ in range(s.w.traced_solves)]
    blocks = [s.rhs.block(n) for _ in range(s.w.traced_rounds)]
    stream = s.stream()
    step_rhs = [s.rhs.single(n) for _ in range(s.w.traced_steps)]

    def span(kind):
        return tracer.span("facade", kind) if tracer else contextlib.nullcontext()

    def ready(op):
        if tracer is None:
            return
        if not op.factored:
            with tracer.span("factor_plan", record=True):
                op.factorize()
        if op.apply_plan is None:
            with tracer.span("apply_plan", "build", record=True):
                op @ x0
        instrument_operator(op, tracer)

    out = {"solutions": [], "rounds": [], "steps": []}
    t_start = time.perf_counter()
    if tracer is None:
        op, cache = facade_setup(s, x0)
    else:
        op, cache = traced_setup(s, tracer, x0)
    out["setup_s"] = time.perf_counter() - t_start
    out["ranks"] = op.hodlr.rank_profile()
    out["mean_rank"] = statistics.fmean(u.shape[1] for u in op.hodlr.U.values())
    out["hodlr_mb"] = op.hodlr.nbytes / 1e6
    out["factor_mb"] = op.solver.factor_plan.nbytes / 1e6
    out["apply_mb"] = op.apply_plan.nbytes / 1e6
    for b in singles:
        ready(op)
        with span("solve"):
            out["solutions"].append((op.solve(b), b))
    for B in blocks:
        ready(op)
        with span("solve_many"):
            out["rounds"].append(repro.solve_many(s.w.problem, B, cache=cache, **s.params))
    for b in step_rhs:
        change = stream.next(op.perm)
        source = change.source if tracer is None else CountingKernel(change.source, tracer)
        ready(op)
        with span("update"):
            repro.update_operator(op, source=source, points_removed=change.removed,
                                  points_added=change.added, tol=s.tol)
        ready(op)
        with span("solve"):
            x = op.solve(b)
        with span("matvec"):
            r = b - op @ x
        out["solutions"].append((x, b))
        out["steps"].append((dict(op.last_update_info), relres(r, b), change.source))
    out["total_s"] = time.perf_counter() - t_start
    out["cache"] = cache.stats.to_dict()
    out["operator"] = op
    return out


def check_pass(s: Session, out: dict, label: str) -> None:
    """Correctness of one fixed pass, counted like the e2e operations."""
    exact = s.exact
    for i, (x, b) in enumerate(out["solutions"][: s.w.traced_solves]):
        with s.operation(f"{label} solve"):
            s.check_solution(x, "solve")
            if i == 0:
                res = s.exact_relres(exact, x, b, salt=i)
                s.require(res <= s.exact_thr, f"{label} exact residual {res:.3e}")
    for result in out["rounds"]:
        with s.operation(f"{label} solve_many"):
            s.check_round(result)
    for (x, b), (_, res, source) in zip(out["solutions"][s.w.traced_solves:], out["steps"]):
        with s.operation(f"{label} update step"):
            s.check_solution(x, "stream solve")
            s.require(res <= s.hodlr_thr, f"{label} stream HODLR residual {res:.3e}")
            res = s.exact_relres(source, x, b, salt=7)
            s.require(res <= s.exact_thr, f"{label} stream exact residual {res:.3e}")


def layer_metrics(tracer, traced: dict, peak: float) -> dict:
    """Per-layer metrics of the traced pass, as ``name: (value, unit)``."""
    m = {}

    def rate(layer, kind=None):
        busy = tracer.busy(layer, kind)
        flops = tracer.total(layer, "flops", kind)
        gflops = flops / busy / 1e9 if busy > 0 else 0.0
        return flops, gflops, gflops / peak if peak > 0 else 0.0

    def per_flop(layer):
        flops = tracer.total(layer, "flops")
        return tracer.total(layer, "bytes_moved") / flops if flops > 0 else 0.0

    c = tracer.counts
    m["kernels.calls"] = (c["kernels.calls"], "count")
    m["kernels.block_calls"] = (c["kernels.block_calls"], "count")
    m["kernels.entries"] = (c["kernels.entries"], "count")
    m["kernels.busy_s"] = (tracer.busy("kernels"), "s")
    m["cluster_tree.busy_s"] = (tracer.busy("cluster_tree"), "s")

    flops, gflops, frac = rate("hodlr")
    m["hodlr.busy_s"] = (tracer.busy("hodlr"), "s")
    m["hodlr.self_s"] = (tracer.self_time("hodlr"), "s")
    m["hodlr.launches"] = (tracer.total("hodlr", "launches"), "count")
    m["hodlr.flops"] = (flops, "flop")
    m["hodlr.gflops"] = (gflops, "GFLOP/s")
    m["hodlr.peak_frac"] = (frac, "1")
    m["hodlr.max_rank"] = (max(traced["ranks"]), "count")
    m["hodlr.mean_rank"] = (traced["mean_rank"], "count")
    m["hodlr.mb"] = (traced["hodlr_mb"], "MB")

    flops, gflops, frac = rate("factor_plan")
    m["factor_plan.busy_s"] = (tracer.busy("factor_plan"), "s")
    m["factor_plan.launches"] = (tracer.total("factor_plan", "launches"), "count")
    m["factor_plan.flops"] = (flops, "flop")
    m["factor_plan.gflops"] = (gflops, "GFLOP/s")
    m["factor_plan.peak_frac"] = (frac, "1")
    m["factor_plan.bytes_per_flop"] = (per_flop("factor_plan"), "B/flop")
    m["factor_plan.mb"] = (traced["factor_mb"], "MB")

    flops, gflops, frac = rate("solve_plan")
    m["solve_plan.busy_s"] = (tracer.busy("solve_plan", "single"), "s")
    m["solve_plan.block_busy_s"] = (tracer.busy("solve_plan", "block"), "s")
    m["solve_plan.launches"] = (tracer.total("solve_plan", "launches"), "count")
    m["solve_plan.flops"] = (flops, "flop")
    m["solve_plan.gflops"] = (gflops, "GFLOP/s")
    m["solve_plan.peak_frac"] = (frac, "1")
    m["solve_plan.bytes_per_flop"] = (per_flop("solve_plan"), "B/flop")

    flops, gflops, frac = rate("apply_plan")
    m["apply_plan.build_s"] = (tracer.busy("apply_plan", "build"), "s")
    m["apply_plan.busy_s"] = (tracer.busy("apply_plan", "single"), "s")
    m["apply_plan.block_busy_s"] = (tracer.busy("apply_plan", "block"), "s")
    m["apply_plan.launches"] = (tracer.total("apply_plan", "launches"), "count")
    m["apply_plan.flops"] = (flops, "flop")
    m["apply_plan.peak_frac"] = (frac, "1")
    m["apply_plan.bytes_per_flop"] = (per_flop("apply_plan"), "B/flop")
    m["apply_plan.mb"] = (traced["apply_mb"], "MB")

    infos = [info for info, _, _ in traced["steps"]]
    m["update.remove_s"] = (tracer.busy("update", "remove"), "s")
    m["update.insert_s"] = (tracer.busy("update", "insert"), "s")
    m["update.patch_s"] = (tracer.busy("update", "patch"), "s")
    m["update.apply_patch_s"] = (tracer.busy("update", "apply_patch"), "s")
    m["update.patch_launches"] = (
        tracer.total("update", "launches", "patch")
        + tracer.total("update", "launches", "apply_patch"), "count")
    m["update.dirty_fraction"] = (
        statistics.fmean(i["dirty_fraction"] for i in infos) if infos else 0.0, "1")
    m["update.patch_ratio"] = (
        sum(i["path"] == "patch" for i in infos) / len(infos) if infos else 0.0, "1")

    m["facade.overhead_s"] = (tracer.self_time("facade"), "s")
    m["cache.hits"] = (traced["cache"]["hits"], "count")
    m["cache.misses"] = (traced["cache"]["misses"], "count")
    return m


def layer_self_times(tracer) -> dict:
    layers = sorted({s.layer for s in tracer.spans})
    return {layer: tracer.self_time(layer) for layer in layers}


def baseline_nt(args) -> dict:
    """One traced pass in a ``--baseline`` child: one BLAS thread per core."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
           "--baseline"]
    cmd += ["--smoke"] if args.smoke else []
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"all-core baseline failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_traced(s: Session, args) -> dict:
    """The per-layer metrics: untraced and traced passes, then the all-core child."""
    tracer = Tracer()
    if args.baseline:
        with hooked_update_functions(tracer):
            traced = fixed_pass(s, tracer)
        check_pass(s, traced, "all-core")
        return {"total_s": traced["total_s"], "setup_s": traced["setup_s"],
                "blas_threads": host.blas_threads(), "failed": s.failed}

    profile = measure_profile()
    untraced = fixed_pass(s)
    check_pass(s, untraced, "untraced")
    ranks_untraced = untraced["ranks"]
    solutions_untraced = [x for x, _ in untraced["solutions"]]
    untraced_total = untraced["total_s"]
    del untraced
    gc.collect()
    with hooked_update_functions(tracer):
        traced = fixed_pass(s, tracer)
    check_pass(s, traced, "traced")

    with s.operation("traced build matches facade build"):
        s.require(traced["ranks"] == ranks_untraced,
                  f"ranks differ: {traced['ranks']} vs {ranks_untraced}")
        for (x, _), y in zip(traced["solutions"], solutions_untraced):
            diff = float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))
            s.require(diff <= 1e-12, f"traced solution differs by {diff:.2e}")
    traced.pop("operator")
    gc.collect()

    base = {}
    with s.operation("all-core baseline"):
        base = baseline_nt(args)
        s.require(base["failed"] == 0, "all-core baseline pass failed a check")

    peak = float(profile.peak_gflops)
    metrics = layer_metrics(tracer, traced, peak)
    total = traced["total_s"]
    metrics["trace.total_s"] = (total, "s")
    metrics["trace.unattributed_s"] = (total - tracer.covered(), "s")
    metrics["trace.overhead_frac"] = (total / untraced_total - 1.0, "1")
    if base:
        metrics["baseline_nt.total_s"] = (base["total_s"], "s")
        metrics["baseline_nt.setup_s"] = (base["setup_s"], "s")
        # > 1: more BLAS threads pay off; < 1: they cost more than they give
        metrics["baseline_nt.speedup"] = (total / base["total_s"], "1")
    llc = host.last_level_cache_bytes()
    if llc is None or BANDWIDTH_PROBE_BYTES < 4 * llc:
        bandwidth = (
            f"omitted: the calibration bandwidth probe copies "
            f"{BANDWIDTH_PROBE_BYTES / 2**20:.0f} MiB arrays, under 4x the "
            f"{(llc or 0) / 2**20:.0f} MiB last-level cache; computed bytes per "
            "flop are reported instead")
    else:
        bandwidth = {
            layer: tracer.total(layer, "bytes_moved") / busy / profile.mem_bandwidth
            for layer in ("factor_plan", "solve_plan", "apply_plan")
            if (busy := tracer.busy(layer)) > 0
        }
    notes = {
        "untraced_total_s": untraced_total,
        "layer_self_s": layer_self_times(tracer),
        "covered_s": tracer.covered(),
        "baseline_nt_blas_threads": base.get("blas_threads"),
        "mem_bandwidth_gbs": profile.mem_bandwidth / 1e9,
        "bandwidth_ratio": bandwidth,
    }
    return {"metrics": {k: (v, u, {"n": 1}) for k, (v, u) in metrics.items()},
            "extra": {}, "notes": notes, "host": {"peak_gflops": peak}}
