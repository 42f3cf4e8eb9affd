"""Record wall-clock benchmark rows and the CI perf gate's counters.

Times the hot paths of the batched pipeline — HODLR **construction**, the
**matvec/GMRES apply loop**, the **end-to-end solve**, the **compiled
SolvePlan** rows (repeated direct solves and the GMRES-preconditioner
apply loop through the packed :class:`~repro.core.factor_plan.FactorPlan`
against the per-node recursion of ``variant="recursive"``), the float32
*factor*-storage rows, the variant equivalence check, the cross-solve
reuse row — the **fused multi-RHS solve** (one compiled-plan replay for
a whole ``(n, K)`` block vs K sequential plan solves through the same
factorization) — and the **streaming update** rows: k-point inserts
(factored bordering of the dirty blocks + a refactorization of the
updated matrix) and a k-point delete against full construction +
factorization rebuilds, at equal *exact* residual.

Besides the wall-clock rows the run records a ``counters`` section:
deterministic kernel-trace counters (launch counts, flops, plan storage
bytes) of an **SVD-compressed probe problem at a fixed size** — the same
size in ``--smoke`` and full mode, so the committed baseline is directly
comparable to a CI smoke run.  PR 8 adds the fused K=8 multi-RHS launch
counter (a fused block solve must replay the plan exactly once, so the
count cannot scale with K) and the operator-cache hit/miss/eviction
counters of a fixed access script.  ``benchmarks/check_bench.py`` diffs
these counters against the committed baseline and fails CI on regression;
the wall-clock rows stay informational.

Usage::

    python benchmarks/record_bench.py --smoke         # CI perf-gate sizes -> BENCH_smoke.json
    python benchmarks/record_bench.py --smoke --output BENCH_pr31.json --pr 31
                                                      # regenerate the gate baseline
    python benchmarks/record_bench.py --output out.json --pr N
                                                      # full sizes (--output required)

``--pr`` stamps ``meta.pr`` of the payload (``null`` without it).  A full
run has no default output, so it cannot overwrite a committed trajectory
file such as ``BENCH_pr10.json`` by accident.

The full run reproduces the acceptance numbers: a fused K=32 block solve
>= 4x faster than 32 sequential plan solves at N=16384 with identical
solutions to 1e-12, and the k=1/k=16 streaming insert and k=16 delete
each >= 2x faster than a full rebuild at N=16384 and equal exact
residual (bordered update + refactorization against construction +
factorization).  Both the full and smoke runs also *assert the plan path
is actually taken* via the kernel trace (``num_plan_launches ==
launches_per_solve``, for block right-hand sides independent of K), so a
regression off the compiled plan path fails the job loudly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro  # noqa: E402
from repro import ApplyPlan, HODLROperator, HODLRSolver, PrecisionPolicy  # noqa: E402
from repro.api import CompressionConfig, SolverConfig  # noqa: E402
from repro.backends import LOOP_POLICY, ExecutionContext, get_recorder  # noqa: E402
from repro.kernels import GaussianKernel, KernelMatrix  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def _timed(fn):
    # collect before timing so garbage from setup/earlier runs cannot pay
    # its collection cost inside the measured window
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _timed_pair_best(fn_a, fn_b, repeats=4):
    """Interleaved best-of-N wall clock for an A/B comparison.

    The sub-second benchmarks are too noisy for single-shot timing on a
    shared machine, and background load drifts on the scale of one
    benchmark — so the two sides alternate (A B A B ...) and each reports
    its best repeat, sampling the same load windows.  (Construction is not
    repeated: at tens of seconds a single shot is representative.)
    """
    best_a = best_b = None
    out_a = out_b = None
    for _ in range(repeats):
        t, out_a = _timed(fn_a)
        best_a = t if best_a is None else min(best_a, t)
        t, out_b = _timed(fn_b)
        best_b = t if best_b is None else min(best_b, t)
    return best_a, best_b, out_a, out_b


def _row(name, fast_s, slow_s, fast_label="batched", slow_label="loop", **params):
    row = {
        f"{fast_label}_s": round(fast_s, 4),
        f"{slow_label}_s": round(slow_s, 4),
        "speedup": round(slow_s / fast_s, 2) if fast_s > 0 else None,
    }
    row.update(params)
    print(
        f"  {name:<38s} {fast_label} {fast_s:8.3f}s   {slow_label} {slow_s:8.3f}s   "
        f"speedup {row['speedup']:.2f}x"
    )
    return row


def _gaussian_km(n):
    rng = np.random.default_rng(0)
    points = rng.uniform(-1.0, 1.0, size=(n, 2))
    return KernelMatrix(
        kernel=GaussianKernel(lengthscale=0.25), points=points, diagonal_shift=1.0
    )


#: the per-block reference schedule: bucketing off in every layer
LOOP_CONTEXT = ExecutionContext(policy=LOOP_POLICY)


def bench_gaussian_construction(n, max_rank, tol=1e-8, leaf_size=64):
    """Batched vs per-block (``LOOP_POLICY``) construction of the
    Gaussian-kernel HODLR."""
    km = _gaussian_km(n)
    cfg = CompressionConfig(leaf_size=leaf_size, tol=tol, method="rook", max_rank=max_rank)
    tb, (Hb, _) = _timed(lambda: km.to_hodlr(cfg))
    tl, (Hl, _) = _timed(lambda: km.to_hodlr(cfg, context=LOOP_CONTEXT))
    rng = np.random.default_rng(9)
    x = rng.standard_normal(n)
    yb, yl = Hb.matvec(x), Hl.matvec(x)
    rel = float(np.linalg.norm(yb - yl) / np.linalg.norm(yl))
    # both sides are independent approximations at (tol, max_rank); their
    # matvecs agree to the compression accuracy, not machine precision
    row = _row("gaussian_construction", tb, tl, slow_label="loop_policy", n=n,
               max_rank=max_rank, tol=tol, leaf_size=leaf_size, matvec_agreement=rel)
    assert rel < 1e-4, f"batched/per-block construction disagree: {rel}"
    return row, Hb


def bench_apply_loop(H, iters=50, **params):
    """The Krylov-iteration cost: ``iters`` matvecs, compiled plan vs tree walk."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal(H.n)

    def run_loop(matvec):
        v = x
        for _ in range(iters):
            v = matvec(v)
            v = v / np.linalg.norm(v)
        return v

    def run_compiled_plan():
        return run_loop(ApplyPlan(H).matvec)

    tl, tb, vl, vb = _timed_pair_best(lambda: run_loop(H.matvec), run_compiled_plan)
    rel = float(np.linalg.norm(vb - vl) / np.linalg.norm(vl))
    row = _row(f"matvec_apply_loop_{iters}it", tb, tl, n=H.n, iters=iters,
               agreement=rel, **params)
    assert rel < 1e-10
    return row


def _reference_solver(H):
    """The per-node recursion (no compiled plan): the plan rows' baseline."""
    return HODLRSolver(H, variant="recursive").factorize()


def bench_repeated_solve(H, iters=50):
    """The PR-5 acceptance row: ``iters`` direct solves through the compiled
    SolvePlan vs the per-node recursion, same HODLR matrix."""
    solver = HODLRSolver(H, variant="batched").factorize()
    reference = _reference_solver(H)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(H.n)

    def run(s):
        x = None
        for _ in range(iters):
            x = s.solve(b)
        return x

    ts, tp, xs, xp = _timed_pair_best(lambda: run(reference), lambda: run(solver))
    rel = float(np.linalg.norm(xp - xs) / np.linalg.norm(xs))
    # trace check: the plan path really executed as plan-replay launches
    solver.solve(b)
    trace = solver.last_solve_trace
    plan = solver.solve_plan
    assert plan is not None, "compiled SolvePlan missing"
    assert trace.num_plan_launches == plan.launches_per_solve, (
        f"plan path not taken: {trace.num_plan_launches} plan launches vs "
        f"plan size {plan.launches_per_solve}"
    )
    row = _row(f"repeated_solve_{iters}x", tp, ts, fast_label="plan",
               slow_label="recursive", n=H.n, iters=iters, agreement=rel,
               launches_per_solve=plan.launches_per_solve)
    assert rel < 1e-12, f"plan and recursive solves disagree: {rel}"
    return row


def bench_gmres_preconditioner(H, iters=50):
    """GMRES-preconditioner apply: every inner iteration is one HODLR solve,
    through the compiled SolvePlan vs the per-node recursion."""
    from scipy.sparse.linalg import LinearOperator, gmres

    solver = HODLRSolver(H, variant="batched").factorize()
    reference = _reference_solver(H)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(H.n)
    # both sides share the compiled forward operator
    A_op = LinearOperator(shape=(H.n, H.n), dtype=H.dtype, matvec=ApplyPlan(H).matvec)

    def run(s):
        M = LinearOperator(shape=(H.n, H.n), dtype=H.dtype, matvec=s.solve)
        # one restart cycle of `iters` preconditioned iterations; tolerance
        # forced unreachable — we measure the apply loop, not convergence
        x, _ = gmres(A_op, b, M=M, rtol=1e-300, atol=0.0, restart=iters, maxiter=1)
        return x

    ts, tp, xs, xp = _timed_pair_best(lambda: run(reference), lambda: run(solver))
    rel = float(np.linalg.norm(xp - xs) / max(np.linalg.norm(xs), 1e-300))
    row = _row(f"gmres_precond_apply_{iters}it", tp, ts, fast_label="plan",
               slow_label="recursive", n=H.n, iters=iters, agreement=rel)
    assert rel < 1e-8
    return row


def bench_multi_rhs(H, K=32, min_speedup=None):
    """The PR-8 acceptance row: one fused ``(n, K)`` solve through the
    compiled SolvePlan vs K sequential plan solves, same factorization.

    Also trace-asserts launch-count independence of K: a fused block solve
    replays the plan exactly once whether K is 1, 8, or 32.
    """
    solver = HODLRSolver(H, variant="batched").factorize()
    rng = np.random.default_rng(8)
    B = rng.standard_normal((H.n, K))
    solver.solve(B[:, 0])  # warm: attach plan state outside the timing

    def run_fused():
        return solver.solve(B)

    def run_sequential():
        return np.stack(
            [solver.solve(np.ascontiguousarray(B[:, j])) for j in range(K)], axis=1
        )

    tf, ts, Xf, Xs = _timed_pair_best(run_fused, run_sequential)
    rel = float(np.linalg.norm(Xf - Xs) / np.linalg.norm(Xs))
    plan = solver.solve_plan
    assert plan is not None, "compiled SolvePlan missing"
    rec = get_recorder()
    for k in (1, 8, K):
        with rec.recording() as tr:
            solver.solve(np.ascontiguousarray(B[:, :k]))
        assert tr.num_plan_launches == plan.launches_per_solve, (
            f"fused K={k} solve took {tr.num_plan_launches} plan launches, "
            f"expected {plan.launches_per_solve} (independent of K)"
        )
    row = _row(f"multi_rhs_solve_K{K}", tf, ts, fast_label="fused",
               slow_label="sequential", n=H.n, K=K, agreement=rel,
               launches_per_solve=plan.launches_per_solve)
    assert rel < 1e-12, f"fused and sequential solves disagree: {rel}"
    if min_speedup is not None:
        assert row["speedup"] >= min_speedup, (
            f"fused multi-RHS speedup {row['speedup']} below {min_speedup}x"
        )
    return row


def _gauss1d_entries(x, lengthscale=0.25, shift=1.0):
    """Entry evaluator of a shifted 1-D Gaussian kernel matrix over ``x``.

    Sorted 1-D points need no cluster-tree reordering, so insertion indices
    mean the same thing to the caller and the tree — the bench measures the
    update machinery, not permutation bookkeeping.
    """

    def entries(rows, cols):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        d = x[rows][:, None] - x[cols][None, :]
        out = np.exp(-0.5 * (d / lengthscale) ** 2)
        if shift:
            out = out + shift * (rows[:, None] == cols[None, :])
        return out

    return entries


def _exact_matvec(entries, n, v, chunk=1024):
    """Dense operator applied in row chunks (never materialises (n, n))."""
    out = np.empty(n, dtype=np.asarray(v).dtype)
    cols = np.arange(n, dtype=np.intp)
    for s in range(0, n, chunk):
        r = np.arange(s, min(s + chunk, n), dtype=np.intp)
        out[r] = entries(r, cols) @ v
    return out


def bench_incremental_update(n, ks=(1, 16, 256), tol=1e-8, leaf_size=64,
                             min_speedup=None):
    """The PR-10 rows: k-point streaming insert vs a full rebuild.

    The update side runs :func:`repro.update_points` (factored bordering of
    the O(log N) dirty blocks) followed by
    :meth:`~repro.core.solver.HODLRSolver.patch_factorize` (an in-place
    refactorization of the updated matrix); the rebuild side re-runs
    construction + factorization from scratch on the extended point set.
    Residual parity is checked against the *exact* operator (chunked dense
    matvec), so the speedup is at equal accuracy, not a cheaper answer.
    The k new points arrive in one contiguous region (streaming arrivals
    are local), keeping the dirty-block fraction low.  Both sides take the
    best of two single-shot runs (the sub-second noise convention of
    :func:`_timed_pair_best`), with a fresh factorization set up untimed
    before each update repeat.

    The arrival window sits in a leaf *interior* (``n // 3`` lands mid-leaf
    for power-of-two balanced trees): a generic local arrival straddles the
    root split only with probability ~k/N, so centering the window on the
    global median — the one place that doubles the dirty path — would
    measure the measure-zero worst case instead of the streaming case the
    row is named for.
    """
    from repro import ClusterTree, build_hodlr, update_points

    rng = np.random.default_rng(0)
    rows = {}
    for k in ks:
        n_new = n + k
        x_all = np.sort(rng.uniform(0.0, 1.0, n_new))
        start = n // 3
        where = np.arange(start, start + k)
        x_old = np.delete(x_all, where)
        ent_new = _gauss1d_entries(x_all)
        ent_old = _gauss1d_entries(x_old)
        tree = ClusterTree.balanced(n, leaf_size=leaf_size)
        H_old = build_hodlr(ent_old, tree, tol=tol, method="rook")

        def run_update(s):
            upd = update_points(H_old, ent_new, where, tol=tol)
            s.patch_factorize(upd.matrix)
            return upd

        def run_rebuild():
            tree_new = ClusterTree.balanced(n_new, leaf_size=leaf_size)
            H = build_hodlr(ent_new, tree_new, tol=tol, method="rook")
            return HODLRSolver(H, variant="batched").factorize()

        # untimed warmup pass on a throwaway factorization
        run_update(HODLRSolver(H_old, variant="batched").factorize())

        # best-of-2 single-shot pairs (the sub-second A/B convention,
        # adapted for the stateful update side: a fresh factorization is
        # set up untimed before each repeat)
        tu = tb = float("inf")
        for _ in range(2):
            s_i = HODLRSolver(H_old, variant="batched").factorize()
            t_i, u_i = _timed(lambda: run_update(s_i))
            if t_i < tu:
                tu, upd, solver = t_i, u_i, s_i
            t_i, f_i = _timed(run_rebuild)
            if t_i < tb:
                tb, fresh = t_i, f_i

        b = rng.standard_normal(n_new)
        x_u = solver.solve(b)
        x_r = fresh.solve(b)
        bnorm = np.linalg.norm(b)
        relres_u = float(np.linalg.norm(_exact_matvec(ent_new, n_new, x_u) - b) / bnorm)
        relres_r = float(np.linalg.norm(_exact_matvec(ent_new, n_new, x_r) - b) / bnorm)
        assert relres_u < 10 * max(relres_r, 1e-12), (
            f"k={k} updated residual {relres_u:.2e} worse than rebuild {relres_r:.2e}"
        )
        row = _row(f"incremental_update_k{k}", tu, tb, fast_label="update",
                   slow_label="rebuild", n=n, k=k,
                   relres_update=relres_u, relres_rebuild=relres_r,
                   dirty_fraction=round(upd.dirty_fraction, 4))
        if min_speedup is not None and k <= 16:
            assert row["speedup"] >= min_speedup, (
                f"k={k} update speedup {row['speedup']} below {min_speedup}x"
            )
        rows[f"incremental_update_k{k}"] = row
    return rows


def bench_incremental_downdate(n, k=16, tol=1e-8, leaf_size=64,
                               min_speedup=None):
    """The PR-10 delete row: k-point downdate (no kernel evaluation at all)
    + refactorization vs rebuilding construction + factorization on the
    surviving points."""
    from repro import ClusterTree, build_hodlr, remove_points

    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    start = n // 3  # leaf interior — see bench_incremental_update
    where = np.arange(start, start + k)
    ent = _gauss1d_entries(x)
    ent_small = _gauss1d_entries(np.delete(x, where))
    tree = ClusterTree.balanced(n, leaf_size=leaf_size)
    H = build_hodlr(ent, tree, tol=tol, method="rook")

    def run_update(s):
        upd = remove_points(H, where, tol=tol)
        s.patch_factorize(upd.matrix)
        return upd

    def run_rebuild():
        tree_new = ClusterTree.balanced(n - k, leaf_size=leaf_size)
        Hs = build_hodlr(ent_small, tree_new, tol=tol, method="rook")
        return HODLRSolver(Hs, variant="batched").factorize()

    # untimed warmup pass (mirrors bench_incremental_update)
    run_update(HODLRSolver(H, variant="batched").factorize())

    # best-of-2 single-shot pairs with fresh update-side state per repeat
    # (see bench_incremental_update)
    tu = tb = float("inf")
    for _ in range(2):
        s_i = HODLRSolver(H, variant="batched").factorize()
        t_i, u_i = _timed(lambda: run_update(s_i))
        if t_i < tu:
            tu, upd, solver = t_i, u_i, s_i
        t_i, f_i = _timed(run_rebuild)
        if t_i < tb:
            tb, fresh = t_i, f_i
    n_small = n - k
    b = rng.standard_normal(n_small)
    bnorm = np.linalg.norm(b)
    relres_u = float(np.linalg.norm(
        _exact_matvec(ent_small, n_small, solver.solve(b)) - b) / bnorm)
    relres_r = float(np.linalg.norm(
        _exact_matvec(ent_small, n_small, fresh.solve(b)) - b) / bnorm)
    assert relres_u < 10 * max(relres_r, 1e-12), (
        f"downdate residual {relres_u:.2e} worse than rebuild {relres_r:.2e}"
    )
    row = _row(f"incremental_downdate_k{k}", tu, tb, fast_label="update",
               slow_label="rebuild", n=n, k=k,
               relres_update=relres_u, relres_rebuild=relres_r,
               dirty_fraction=round(upd.dirty_fraction, 4))
    if min_speedup is not None:
        assert row["speedup"] >= min_speedup, (
            f"downdate speedup {row['speedup']} below {min_speedup}x"
        )
    return row


def bench_variant_equivalence(n, tol=1e-10):
    """``recursive`` and the plan-backed ``batched`` variant through the
    shared FactorPlan, identical to 1e-12."""
    km = _gaussian_km(n)
    H, _ = km.to_hodlr(CompressionConfig(tol=tol, method="rook"))
    rng = np.random.default_rng(5)
    b = rng.standard_normal(n)
    sols = {}
    times = {}
    for variant in ("recursive", "batched"):
        solver = HODLRSolver(H, variant=variant).factorize()
        t, x = _timed(lambda s=solver: s.solve(b))
        sols[variant] = x
        times[variant] = round(t, 4)
    ref = np.linalg.norm(sols["batched"])
    diffs = {
        "recursive_vs_batched": float(np.linalg.norm(sols["recursive"] - sols["batched"]) / ref),
    }
    print(f"  {'variant_equivalence':<38s} rec-vs-bat {diffs['recursive_vs_batched']:.2e}")
    for key, val in diffs.items():
        assert val < 1e-12, f"{key} disagree through the shared plan: {val}"
    return {"n": n, "solve_seconds": times, **diffs}


def bench_factor_precision(n, tol=1e-10):
    """float32 FactorPlan storage: accuracy, refinement round-trip, footprint."""
    km = _gaussian_km(n)
    H, _ = km.to_hodlr(CompressionConfig(tol=tol, method="rook"))
    rng = np.random.default_rng(6)
    b = rng.standard_normal(n)

    def relres(x):
        x64 = np.asarray(x, dtype=np.float64)
        r = np.asarray(H.matvec(x64)) - b
        return float(np.linalg.norm(r) / np.linalg.norm(b))

    op64 = HODLROperator(H).factorize()
    op32 = HODLROperator(H, precision=PrecisionPolicy(factor="float32")).factorize()
    opref = HODLROperator(
        H, precision=PrecisionPolicy(factor="float32", refine=True)
    ).factorize()
    t64, x64 = _timed(lambda: op64.solve(b))
    t32, x32 = _timed(lambda: op32.solve(b))
    tref, xref = _timed(lambda: opref.solve(b))
    res64, res32, res_ref = relres(x64), relres(x32), relres(xref)
    nb64 = op64.solver.factor_plan.nbytes
    nb32 = op32.solver.factor_plan.nbytes

    def streamed(op):
        """Bytes one plan solve's kernels stream (the float64 plan owns only
        views of V^*, so owned bytes do not measure the demotion)."""
        with get_recorder().recording() as trace:
            op.solver.factor_plan.solve_plan().solve(b)
        return trace.total_bytes

    row = {
        "n": n,
        "relres_float64": res64,
        "relres_float32_factor": res32,
        "relres_float32_refined": res_ref,
        "residual_match_vs_float64": abs(res_ref - res64),
        "plan_mb_float64": round(nb64 / 1e6, 1),
        "plan_mb_float32": round(nb32 / 1e6, 1),
        "solve_float64_s": round(t64, 4),
        "solve_float32_s": round(t32, 4),
        "solve_refined_s": round(tref, 4),
    }
    print(
        f"  {'float32_factor_solve':<38s} relres f64 {res64:.2e}   "
        f"f32 {res32:.2e}   refined {res_ref:.2e}   "
        f"plan {row['plan_mb_float32']}/{row['plan_mb_float64']} MB"
    )
    assert res32 < 1e-4
    # the documented claim: refined residuals match float64 to 1e-10
    assert abs(res_ref - res64) < 1e-10, (
        f"refined residual {res_ref} does not match float64 residual {res64}"
    )
    assert streamed(op32) < 0.75 * streamed(op64)
    return row


def _peak_ratio(fn, B):
    """Peak bytes ``tracemalloc`` sees while ``fn(B)`` runs, over ``B.nbytes``."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(B)
        return round(tracemalloc.get_traced_memory()[1] / B.nbytes, 2)
    finally:
        tracemalloc.stop()


def collect_counters(n=2048, tol=1e-8, leaf_size=64):
    """Deterministic trace counters of a fixed-size SVD-compressed probe.

    This is the section the CI perf-gate diffs (``check_bench.py``): SVD
    compression has no sampling, the probe size is the same in smoke and
    full runs, and every value below is a launch count, flop total, or
    plan byte count — not a wall-clock — so the committed numbers are
    reproducible across hosts up to BLAS-rounding rank wobble (covered by
    the gate's tolerances).
    """
    km = _gaussian_km(n)
    cfg = CompressionConfig(leaf_size=leaf_size, tol=tol, method="svd")
    rec = get_recorder()
    with rec.recording() as tr_con:
        H, _ = km.to_hodlr(cfg)
    with rec.recording() as tr_fac:
        solver = HODLRSolver(H, variant="batched").factorize()
    rng = np.random.default_rng(7)
    b = rng.standard_normal(n)
    solver.solve(b)  # first solve may build/attach plan state
    with rec.recording() as tr_sol:
        solver.solve(b)
    plan = solver.solve_plan
    assert plan is not None and tr_sol.num_plan_launches == plan.launches_per_solve
    # fused multi-RHS probe (PR 8): an (n, 8) block solve must replay the
    # plan exactly once — the launch count cannot scale with K
    B8 = rng.standard_normal((n, 8))
    solver.solve(B8)  # warm any 2-D scratch outside the recorded solve
    with rec.recording() as tr_blk:
        solver.solve(B8)
    assert tr_blk.num_plan_launches == plan.launches_per_solve, (
        f"fused K=8 probe took {tr_blk.num_plan_launches} plan launches, "
        f"expected {plan.launches_per_solve}"
    )
    apply_plan = ApplyPlan(H)
    # peak traced memory of one K=32 block solve / apply over the block's
    # bytes: the view-based replay needs the result plus one update
    # workspace.  Informational: the key names are not gated.
    B32 = np.random.default_rng(8).standard_normal((n, 32))
    solver.solve_plan.solve(B32)
    apply_plan.matvec(B32)
    block_solve_peak = _peak_ratio(solver.solve_plan.solve, B32)
    block_apply_peak = _peak_ratio(apply_plan.matvec, B32)
    counters = {
        "n": n,
        "construction_launches": tr_con.num_kernel_launches,
        "construction_flops": tr_con.total_flops,
        "factor_launches": tr_fac.num_kernel_launches,
        "factor_flops": tr_fac.total_flops,
        "launches_per_solve": plan.launches_per_solve,
        "solve_plan_launches": tr_sol.num_plan_launches,
        "solve_flops": tr_sol.total_flops,
        "multirhs_k8_plan_launches": tr_blk.num_plan_launches,
        "factor_plan_bytes": int(solver.factor_plan.nbytes),
        "apply_plan_bytes": int(apply_plan.nbytes),
        "apply_launches_per_matvec": apply_plan.launches_per_apply,
        "block_solve_peak_ratio": block_solve_peak,
        "block_apply_peak_ratio": block_apply_peak,
    }
    counters.update(collect_rook_counters())
    counters.update(collect_helmholtz_counters())
    counters.update(collect_update_counters())
    counters.update(collect_stream_counters())
    counters.update(collect_cache_counters())
    print(f"  {'counters_probe':<38s} n={n}  launches/solve "
          f"{counters['launches_per_solve']}  factor launches "
          f"{counters['factor_launches']}  construction launches "
          f"{counters['construction_launches']}")
    return counters


class _CountingEvaluator:
    """A KernelMatrix's ``entries`` / ``entries_blocks``, counting calls
    and evaluated entries."""

    def __init__(self, km):
        self.km = km
        self.calls = 0
        self.evaluated = 0

    def entries(self, rows, cols):
        self.calls += 1
        out = self.km.entries(rows, cols)
        self.evaluated += int(out.size)
        return out

    def entries_blocks(self, rows, cols):
        self.calls += 1
        out = self.km.entries_blocks(rows, cols)
        self.evaluated += int(out.size)
        return out


def _assert_mirrored(H, probe):
    """The symmetric kernel was compressed once per sibling pair: every
    mirror block reuses ``U_right = conj(V_right)``, ``V_left = conj(U_left)``."""
    for level in range(1, H.tree.levels + 1):
        for left, right in H.tree.sibling_pairs(level):
            assert np.array_equal(H.U[right.index], H.V[right.index].conj()) and \
                np.array_equal(H.V[left.index], H.U[left.index].conj()), (
                    f"{probe}: sibling pair ({left.index}, {right.index}) "
                    "was not mirrored"
                )


def collect_rook_counters(n=2048, tol=1e-8, leaf_size=64):
    """Deterministic launch and evaluation counts of a fixed rook build.

    The default construction (``method="rook"``) advances every block of
    a tree level's shape bucket in lockstep: a cross step gathers the
    pivot rows and columns of all active blocks in a few ``entries_blocks``
    calls, and each bucket ends with one batched recompression through the
    Gram matrices of its bases (gemm, Cholesky, SVD launches; the blocked
    steps' intersection and grid SVDs and tail trims are launches too).
    ``rook_construction_evaluations`` counts every ``entries`` and
    ``entries_blocks`` call of the build, so it scales with levels x cross
    steps; a return to per-block rook multiplies it by the blocks per
    level and trips the gate.  ``rook_construction_entry_evaluations``
    totals the kernel entries those calls evaluate: the Gaussian kernel is
    symmetric, so each sibling pair is compressed once and mirrored, and
    compressing both blocks again doubles the off-diagonal share.  The
    build must reproduce the ranks of the per-block build under
    ``LOOP_POLICY``.
    """
    from repro import ClusterTree, build_hodlr

    km = _gaussian_km(n)
    tree, perm = ClusterTree.from_points(km.points, leaf_size=leaf_size)
    permuted = KernelMatrix(kernel=km.kernel, points=km.points[perm],
                            diagonal_shift=km.diagonal_shift)
    source = _CountingEvaluator(permuted)
    rec = get_recorder()
    with rec.recording() as tr_rook:
        H = build_hodlr(source, tree, tol=tol, method="rook")
    H_loop = build_hodlr(permuted, tree, tol=tol, method="rook", context=LOOP_CONTEXT)
    assert H.rank_profile() == H_loop.rank_profile(), (
        f"lockstep rook ranks {H.rank_profile()} differ from per-block "
        f"{H_loop.rank_profile()}"
    )
    _assert_mirrored(H, "rook_probe")
    counters = {
        "rook_construction_launches": tr_rook.num_kernel_launches,
        "rook_construction_evaluations": source.calls,
        "rook_construction_entry_evaluations": source.evaluated,
    }
    print(f"  {'rook_probe':<38s} n={n}  launches "
          f"{counters['rook_construction_launches']}  evaluations "
          f"{counters['rook_construction_evaluations']}  entries "
          f"{counters['rook_construction_entry_evaluations']}")
    return counters


def collect_helmholtz_counters(n=1024, kappa=20.0, tol=1e-6, leaf_size=64):
    """Deterministic counts of a fixed complex build, factorization and solve.

    The Gaussian ``counters_probe`` is SPD, so its leaves factor by
    Cholesky; this probe prices the pivoted-LU path every complex or
    non-symmetric input takes.  A complex Helmholtz kernel matrix (the
    ``helmholtz_kernel`` problem's kernel and shift) is built with rook,
    the problem's default, at ``tol`` 1e-6 and no rank cap; the kernel is
    complex symmetric, so each sibling pair is compressed once and
    mirrored.  ``helmholtz_construction_launches`` and
    ``helmholtz_construction_entry_evaluations`` count the build's batched
    recompressions and evaluated kernel entries; the ``helmholtz_factor_*``,
    ``helmholtz_launches_per_solve`` and ``helmholtz_solve_flops`` counters
    are those of its complex LU-leaf factor plan (``getrf_batched`` /
    ``getrs_batched`` leaves).  The ranks must stay within one of
    truncated-SVD compression on the same tree.
    """
    from repro import ClusterTree, build_hodlr
    from repro.api.problems import HelmholtzKernelProblem

    kernel, shift = HelmholtzKernelProblem(n=n, kappa=kappa).kernel_spec()
    points = np.random.default_rng(0).uniform(-1.0, 1.0, size=(n, 2))
    tree, perm = ClusterTree.from_points(points, leaf_size=leaf_size)
    km = KernelMatrix(kernel=kernel, points=points[perm], diagonal_shift=shift)
    source = _CountingEvaluator(km)
    rec = get_recorder()
    with rec.recording() as tr_con:
        H = build_hodlr(source, tree, tol=tol, method="rook")
    ranks = H.rank_profile()
    svd_ranks = build_hodlr(km, tree, tol=tol, method="svd").rank_profile()
    assert all(abs(a - b) <= 1 for a, b in zip(ranks, svd_ranks)), (
        f"rook ranks {ranks} differ from truncated-SVD {svd_ranks}"
    )
    _assert_mirrored(H, "helmholtz_probe")
    with rec.recording() as tr_fac:
        solver = HODLRSolver(H, variant="batched").factorize()
    assert all(piv is not None for _, piv in solver.factor_plan.leaf_factor_views()), (
        "helmholtz_probe: complex leaves must factor by pivoted LU"
    )
    rng = np.random.default_rng(7)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    solver.solve(b)  # first solve may build/attach plan state
    with rec.recording() as tr_sol:
        solver.solve(b)
    plan = solver.solve_plan
    assert plan is not None and tr_sol.num_plan_launches == plan.launches_per_solve
    counters = {
        "helmholtz_construction_launches": tr_con.num_kernel_launches,
        "helmholtz_construction_entry_evaluations": source.evaluated,
        "helmholtz_factor_flops": tr_fac.total_flops,
        "helmholtz_launches_per_solve": plan.launches_per_solve,
        "helmholtz_solve_flops": tr_sol.total_flops,
        "helmholtz_factor_plan_bytes": int(solver.factor_plan.nbytes),
    }
    print(f"  {'helmholtz_probe':<38s} n={n}  launches/solve "
          f"{counters['helmholtz_launches_per_solve']}  factor flops "
          f"{counters['helmholtz_factor_flops']:.3e}  entries "
          f"{counters['helmholtz_construction_entry_evaluations']}  ranks {ranks}")
    return counters


def collect_update_counters(n=2048, k=4, tol=1e-8, leaf_size=64):
    """Deterministic launch count of a fixed-size streaming update.

    An SVD-compressed 1-D Gaussian probe absorbs a fixed ``k``-point
    contiguous removal the way :meth:`repro.HODLROperator.update` does:
    ``remove_points`` downdates the dirty blocks, the factorization is
    rebuilt in place and the apply plan recompiled.  ``update_launches``
    counts every kernel launch of the three, so the perf gate catches a
    regression that widens the downdate or bloats the refactorization.
    """
    from repro import ClusterTree, build_hodlr, remove_points

    rng = np.random.default_rng(2)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    start = (n - k) // 2
    where = np.arange(start, start + k)
    tree = ClusterTree.balanced(n, leaf_size=leaf_size)
    H = build_hodlr(_gauss1d_entries(x), tree, tol=tol, method="svd")
    solver = HODLRSolver(H, variant="batched").factorize()
    apply_plan = ApplyPlan(H)
    rec = get_recorder()
    with rec.recording() as tr_update:
        upd = remove_points(H, where, tol=tol)
        solver.patch_factorize(upd.matrix)
        apply_plan.patch(upd.matrix)
    counters = {"update_launches": tr_update.num_kernel_launches}
    print(f"  {'update_probe':<38s} n={n} k={k}  launches "
          f"{counters['update_launches']}")
    return counters


def collect_stream_counters(n=2048, k=4, tol=1e-8, leaf_size=64):
    """Deterministic counters of one streaming step on a symmetric probe.

    The SVD-compressed 1-D Gaussian probe (a symmetric source, so the
    matrix stores ``U`` only) runs one ``gp_stream``-style step through
    :meth:`repro.HODLROperator.update`: ``k`` contiguous points leave, ``k``
    new points arrive inside one gap elsewhere, and the factorization and
    apply plan are refreshed in place.  ``stream_step_launches`` counts
    every kernel launch of the step and ``stream_step_evaluations`` every
    ``entries`` call of the source; bordering one block per dirty sibling
    pair (the mirror is stored, not evaluated) keeps the latter low.
    """
    from repro import ClusterTree, HODLROperator, build_hodlr

    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    tree = ClusterTree.balanced(n, leaf_size=leaf_size)
    H = build_hodlr(_gauss1d_entries(x), tree, tol=tol, method="svd")
    assert H.symmetric, "the Gaussian probe must build symmetric storage"
    op = HODLROperator(H)
    op @ op.solve(rng.standard_normal(n))  # factorize and compile the apply plan
    removed = np.arange(n // 3, n // 3 + k)
    mid = np.delete(x, removed)
    j = 2 * n // 3
    x_new = np.concatenate([mid[:j], np.sort(rng.uniform(mid[j - 1], mid[j], k)), mid[j:]])
    entries = _gauss1d_entries(x_new)
    calls = []

    def source(rows, cols):
        calls.append(1)
        return entries(rows, cols)

    with get_recorder().recording() as tr_step:
        op.update(source=source, points_removed=removed,
                  points_added=j + np.arange(k), tol=tol)
    assert op.hodlr.symmetric, "a symmetric stream step must keep U-only storage"
    counters = {
        "stream_step_launches": tr_step.num_kernel_launches,
        "stream_step_evaluations": len(calls),
    }
    print(f"  {'stream_step_probe':<38s} n={n} k={k}  launches "
          f"{counters['stream_step_launches']}  evaluations "
          f"{counters['stream_step_evaluations']}")
    return counters


def collect_cache_counters(n=256):
    """Deterministic operator-cache counters of a fixed access script.

    A private two-slot LRU runs a scripted sequence — build A, rebuild A
    (hit), build B (miss), build C (miss + evict A) — so the committed
    hit/miss/eviction counts are exact integers the perf gate can diff at
    zero tolerance: a keying bug that turns hits into misses (or serves a
    stale operator) shifts the script's counts.
    """
    from repro import OperatorCache

    cache = OperatorCache(maxsize=2)
    repro.build_operator("gaussian_kernel", n=n, cache=cache)
    repro.build_operator("gaussian_kernel", n=n, cache=cache)
    repro.build_operator("gaussian_kernel", n=n, lengthscale=0.5, cache=cache)
    repro.build_operator("gaussian_kernel", n=n + 64, cache=cache)
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.evictions) == (1, 3, 1), (
        f"cache access script drifted: {stats.to_dict()}"
    )
    print(f"  {'cache_probe':<38s} hits {stats.hits}  misses {stats.misses}  "
          f"evictions {stats.evictions}")
    return {
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_evictions": stats.evictions,
    }


def bench_end_to_end(problem, **params):
    """``repro.solve`` wall-clock (assemble + factorize + solve), batched vs
    the per-block schedule (``LOOP_POLICY``: block-by-block construction,
    the same compiled factorization)."""

    def run(dispatch_policy):
        cfg = SolverConfig(
            dispatch_policy=dispatch_policy,
            compression=CompressionConfig(tol=1e-8, method="rook"),
        )
        t0 = time.perf_counter()
        res = repro.solve(problem, config=cfg, **params)
        return time.perf_counter() - t0, res

    tb, res_b = run(None)
    tl, res_l = run(LOOP_POLICY)
    row = _row(f"solve_{problem}", tb, tl, slow_label="loop_policy",
               relres_batched=res_b.relative_residual,
               relres_loop_policy=res_l.relative_residual, **params)
    assert res_b.relative_residual < 1e-6
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes for the CI perf-gate job")
    ap.add_argument("--output", default=None,
                    help="output path (required in full mode; default "
                         "BENCH_smoke.json at the repo root with --smoke)")
    ap.add_argument("--pr", type=int, default=None,
                    help="change number stamped as meta.pr (default: null)")
    args = ap.parse_args(argv)
    if not args.smoke and args.output is None:
        ap.error("a full run needs --output (committed BENCH_pr*.json files "
                 "are never a default target)")

    n_solve = 2048 if args.smoke else 16384
    n_equiv = 1024 if args.smoke else 4096
    n_e2e = 1024 if args.smoke else 4096
    rpy_particles = 96 if args.smoke else 400
    out_path = args.output or os.path.join(REPO_ROOT, "BENCH_smoke.json")
    print(f"recording {'smoke' if args.smoke else 'full'} benchmark "
          f"(solve N={n_solve}) ...")
    benchmarks = {}
    row, H = bench_gaussian_construction(n_solve, max_rank=64)
    benchmarks["gaussian_construction"] = row
    benchmarks["gaussian_matvec_apply_loop"] = bench_apply_loop(
        H, iters=50, tol=1e-8, leaf_size=64
    )
    # repeated direct solves + GMRES-preconditioner apply through the
    # compiled SolvePlan vs the per-node recursion (informational: the
    # plan-path trace assert and the 1e-12 agreement run in both modes)
    benchmarks["repeated_solve_plan"] = bench_repeated_solve(H, iters=50)
    benchmarks["gmres_precond_plan"] = bench_gmres_preconditioner(H, iters=50)
    # the PR-8 acceptance row: fused (n, 32) block solve vs 32 sequential
    # plan solves, >= 4x on the full run, launches independent of K
    benchmarks["multi_rhs_solve"] = bench_multi_rhs(
        H, K=32, min_speedup=None if args.smoke else 4.0
    )
    del H
    # the PR-10 acceptance rows: k-point streaming insert/delete (factored
    # bordering + refactorization) vs a full rebuild at equal exact
    # residual — >= 2x at k <= 16, N=16384 on the full run
    benchmarks.update(bench_incremental_update(
        n_solve, ks=(1, 16, 256), min_speedup=None if args.smoke else 2.0
    ))
    benchmarks["incremental_downdate_k16"] = bench_incremental_downdate(
        n_solve, k=16, min_speedup=None if args.smoke else 2.0
    )
    benchmarks["variant_equivalence"] = bench_variant_equivalence(n_equiv)
    benchmarks["float32_factor_solve"] = bench_factor_precision(n_equiv)
    benchmarks["gaussian_end_to_end"] = bench_end_to_end(
        "gaussian_kernel", n=n_e2e
    )
    benchmarks["rpy_end_to_end"] = bench_end_to_end(
        "rpy_mobility", num_particles=rpy_particles
    )

    # deterministic counters at a FIXED probe size (same in smoke and full
    # mode): this is the section the CI perf-gate diffs against the
    # committed baseline
    counters = collect_counters()

    payload = {
        "meta": {
            "pr": args.pr,
            "smoke": bool(args.smoke),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "description": "deterministic counters of the SVD, rook, "
                           "Helmholtz LU, update, stream and cache probes, "
                           "alongside the PR-3..10 wall-clock trajectory",
        },
        "benchmarks": benchmarks,
        "counters": counters,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")
    return payload


if __name__ == "__main__":
    main()
