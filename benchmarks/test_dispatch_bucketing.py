"""Batched per-bucket schedule vs the per-block reference schedule.

The library lowers every tree level onto one strided launch per shape
bucket (:mod:`repro.backends.batched`).  ``LOOP_POLICY`` is the per-block
reference: it compresses block by block during construction, and its
factorization compiles the same plan and issues the same launches as the
default.  This harness checks, on the paper's workloads:

* **Table III (RPY)** — SVD construction wall clock, bucketed default vs
  the per-block ``LOOP_POLICY`` build, and the factorized solve's
  residual;
* **Table V (Helmholtz)** — complex arithmetic through strided LU
  launches, and agreement of the default and ``LOOP_POLICY`` solutions
  to round-off.
"""

import time

import numpy as np

from repro import ExecutionContext, HODLRSolver, build_hodlr
from repro.backends.dispatch import LOOP_POLICY

from common import TableRow, save_rows
from test_table3_rpy import TOLERANCE, build_rpy_hodlr
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
    def test_construction_report(self):
        """SVD construction of the RPY matrix, bucketed default vs the
        per-block ``LOOP_POLICY`` build (the policy changes construction's
        launches; factorization compiles the same plan either way)."""
        hodlr, kernel, points = build_rpy_hodlr(RPY_DOFS)
        source = kernel.evaluator(points)

        def build(context=None):
            return build_hodlr(
                source, hodlr.tree, tol=TOLERANCE, method="svd", context=context
            )

        t_fast = _best_of(build, repeats=2)
        t_slow = _best_of(lambda: build(LOOP_CONTEXT), repeats=2)
        b = np.random.default_rng(11).standard_normal(RPY_DOFS)
        x = HODLRSolver(hodlr).factorize().solve(b)
        relres = float(np.linalg.norm(hodlr.matvec(x) - b) / np.linalg.norm(b))
        print(
            f"\nRPY SVD construction: loop {t_slow * 1e3:.1f} ms, "
            f"bucketed {t_fast * 1e3:.1f} ms, relres {relres:.2e}"
        )
        assert relres < 1e-7
        # the bucketed schedule must not regress construction materially
        assert t_fast < 1.25 * t_slow


class TestTable5HelmholtzDispatch:
    def test_complex_workload_bucketed_and_correct(self):
        """Table-V Helmholtz: complex arithmetic through the bucketed path.

        The matrix is proxy-compressed, which ``LOOP_POLICY`` does not
        touch, so no default-vs-loop timing is taken here."""
        n = 1024
        bie, hodlr = build_helmholtz_hodlr(n, tol=1e-8)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        t_factor = _best_of(lambda: HODLRSolver(hodlr).factorize(), repeats=3)
        solver = HODLRSolver(hodlr).factorize()
        x = solver.solve(b)
        relres = float(np.linalg.norm(bie.matvec(x) - b) / np.linalg.norm(b))

        rows = [
            TableRow(
                experiment="dispatch_bucketing_helmholtz",
                n=n,
                relres=relres,
                extra={"t_factor_bucketed": t_factor},
            )
        ]
        save_rows("dispatch_bucketing_helmholtz", rows)
        print(f"\nHelmholtz factorize: {t_factor * 1e3:.1f} ms, relres {relres:.2e}")
        assert relres < 1e-6
        trace = solver.factor_trace
        assert any(e.strided for e in trace.events if e.kernel == "getrf_batched")

    def test_policy_equivalence_on_helmholtz(self):
        """Bucketed and looped dispatch agree to round-off on the complex BIE."""
        n = 512
        _, hodlr = build_helmholtz_hodlr(n, tol=1e-8)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fast = HODLRSolver(hodlr).factorize().solve(b)
        slow = HODLRSolver(hodlr, context=LOOP_CONTEXT).factorize().solve(b)
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-10)
