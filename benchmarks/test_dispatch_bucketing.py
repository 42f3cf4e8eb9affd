"""Batched per-bucket schedule vs the per-block reference schedule.

The library lowers every tree level onto one strided launch per shape
bucket (:mod:`repro.backends.batched`).  ``LOOP_POLICY`` is the per-block
reference: block-by-block construction and per-problem LAPACK inside
every LU launch of the compiled plan.  This harness measures the default
schedule against it on the paper's workloads:

* **Table III (RPY)** — end-to-end factorization wall clock, default vs
  ``LOOP_POLICY``;
* **Table V (Helmholtz)** — end-to-end factorize+solve wall clock with
  the default policy vs ``LOOP_POLICY`` (complex arithmetic), and
  agreement of the two solutions to round-off.
"""

import time

import numpy as np

from repro import DispatchPolicy, ExecutionContext, HODLRSolver
from repro.backends.dispatch import LOOP_POLICY

from common import TableRow, save_rows
from test_table3_rpy import build_rpy_hodlr
from test_table5_helmholtz import build_helmholtz_hodlr

RPY_DOFS = 3072  # largest Table-III sweep size used in this repo
REPEATS = 5
#: the per-block reference schedule the bucketed dispatch is measured against
LOOP_CONTEXT = ExecutionContext(policy=LOOP_POLICY)


def _best_of(fn, repeats=REPEATS):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestTable3RPYDispatch:
    def test_end_to_end_factorization_report(self):
        """Full Algorithm-3 factorization, default policy vs ``LOOP_POLICY``
        (reported; both compile the same per-bucket plan, only the host
        execution inside its LU launches differs)."""
        hodlr, _, _ = build_rpy_hodlr(RPY_DOFS)
        b = np.random.default_rng(11).standard_normal(RPY_DOFS)

        t_fast = _best_of(
            lambda: HODLRSolver(hodlr).factorize(), repeats=3
        )
        t_slow = _best_of(
            lambda: HODLRSolver(hodlr, context=LOOP_CONTEXT).factorize(),
            repeats=3,
        )
        solver = HODLRSolver(hodlr).factorize()
        x = solver.solve(b)
        relres = float(np.linalg.norm(hodlr.matvec(x) - b) / np.linalg.norm(b))
        print(
            f"\nRPY end-to-end factorize: loop {t_slow * 1e3:.1f} ms, "
            f"bucketed {t_fast * 1e3:.1f} ms, relres {relres:.2e}"
        )
        assert relres < 1e-7
        # the bucketed schedule must not regress the end-to-end time materially
        assert t_fast < 1.25 * t_slow


class TestTable5HelmholtzDispatch:
    def test_complex_workload_bucketed_and_correct(self):
        """Table-V Helmholtz: complex arithmetic through the bucketed path."""
        n = 1024
        bie, hodlr = build_helmholtz_hodlr(n, tol=1e-8)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        t_fast = _best_of(
            lambda: HODLRSolver(hodlr).factorize(), repeats=3
        )
        t_slow = _best_of(
            lambda: HODLRSolver(hodlr, context=LOOP_CONTEXT).factorize(),
            repeats=3,
        )
        solver = HODLRSolver(hodlr).factorize()
        x = solver.solve(b)
        relres = float(np.linalg.norm(bie.matvec(x) - b) / np.linalg.norm(b))

        rows = [
            TableRow(
                experiment="dispatch_bucketing_helmholtz",
                n=n,
                relres=relres,
                extra={
                    "t_factor_loop": t_slow,
                    "t_factor_bucketed": t_fast,
                    "speedup": t_slow / t_fast,
                },
            )
        ]
        save_rows("dispatch_bucketing_helmholtz", rows)
        print(
            f"\nHelmholtz factorize: loop {t_slow * 1e3:.1f} ms, "
            f"bucketed {t_fast * 1e3:.1f} ms ({t_slow / t_fast:.2f}x), relres {relres:.2e}"
        )
        assert relres < 1e-6
        trace = solver.factor_trace
        assert any(e.strided for e in trace.events if e.kernel == "getrf_batched")
        assert t_fast < 1.25 * t_slow

    def test_policy_equivalence_on_helmholtz(self):
        """Bucketed and looped dispatch agree to round-off on the complex BIE."""
        n = 512
        _, hodlr = build_helmholtz_hodlr(n, tol=1e-8)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fast = HODLRSolver(hodlr).factorize().solve(b)
        slow = HODLRSolver(
            hodlr,
            context=ExecutionContext(
                policy=DispatchPolicy(bucketing=False, lu_vectorize=False)
            ),
        ).factorize().solve(b)
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-10)
