"""Fig. 9: achieved GFlop/s of the solvers on the Helmholtz benchmark.

The paper reports the floating-point throughput achieved by each solver
during the high-accuracy Helmholtz factorization and solution (Fig. 9);
the GPU factorization approaches 2 TFlop/s while the solution phase is
bandwidth-bound and much lower, and both grow with N as the device fills
up.

This harness computes the same quantity from the recorded kernel traces:
useful flops divided by modeled execution time, for the GPU HODLR solver
and the modeled 36-core CPU executions, across the sweep sizes.
"""

import numpy as np
import pytest

from repro import CompressionConfig, HODLRSolver, HelmholtzCombinedBIE, StarContour, build_hodlr_proxy
from repro.baselines.hodlrlib_cpu import HODLRlibStyleSolver

from common import GPU_MODEL, TableRow, save_rows

SWEEP_N = [512, 1024, 2048]
KAPPA = 15.0


@pytest.fixture(scope="module")
def flops_sweep(bench_rng):
    rows = []
    for n in SWEEP_N:
        bie = HelmholtzCombinedBIE(contour=StarContour(), n=n, kappa=KAPPA)
        hodlr = build_hodlr_proxy(
            bie, config=CompressionConfig(method="proxy", tol=1e-8, n_proxy=96, leaf_size=64)
        )
        solver = HODLRSolver(hodlr, variant="batched").factorize()
        b = bench_rng.standard_normal(n) + 1j * bench_rng.standard_normal(n)
        x = solver.solve(b)

        gpu_factor = GPU_MODEL.estimate(solver.factor_trace)
        gpu_solve = GPU_MODEL.estimate(solver.last_solve_trace)
        cpu = HODLRlibStyleSolver(hodlr=hodlr, parallel=True)
        cpu_factor_gflops = cpu.total_factor_flops() / cpu.modeled_factor_time() / 1e9
        cpu_solve_gflops = cpu.total_solve_flops() / cpu.modeled_solve_time() / 1e9

        row = TableRow(
            experiment="fig9_flops",
            n=n,
            relres=float(np.linalg.norm(bie.matvec(x) - b) / np.linalg.norm(b)),
        )
        row.extra.update(
            {
                "gpu_factor_gflops": gpu_factor.gflops,
                "gpu_solve_gflops": gpu_solve.gflops,
                "cpu_factor_gflops": cpu_factor_gflops,
                "cpu_solve_gflops": cpu_solve_gflops,
                "factor_flops": solver.factor_trace.total_flops,
                "solve_flops": solver.last_solve_trace.total_flops,
            }
        )
        rows.append(row)
    save_rows("fig9_flops", rows)
    return rows


class TestFig9:
    def test_report(self, flops_sweep, benchmark):
        benchmark(lambda: None)
        print("\nFig. 9 achieved GFlop/s (modeled):")
        print(f"{'N':>8} {'GPU factor':>12} {'CPU factor':>12} {'GPU solve':>12} {'CPU solve':>12}")
        for row in flops_sweep:
            e = row.extra
            print(f"{row.n:>8} {e['gpu_factor_gflops']:>12.1f} {e['cpu_factor_gflops']:>12.1f} "
                  f"{e['gpu_solve_gflops']:>12.1f} {e['cpu_solve_gflops']:>12.1f}")

    def test_factorization_throughput_exceeds_solution_throughput(self, flops_sweep):
        """Fig. 9: the factorization runs at much higher Flop rates than the solve
        (the solve is a memory-bound, single-right-hand-side sweep)."""
        for row in flops_sweep:
            assert row.extra["gpu_factor_gflops"] > row.extra["gpu_solve_gflops"]

    def test_gpu_throughput_grows_with_n(self, flops_sweep):
        """Device utilisation improves with problem size (the upward slope of Fig. 9a)."""
        gflops = [row.extra["gpu_factor_gflops"] for row in flops_sweep]
        assert gflops[-1] > gflops[0]

    def test_factorization_flops_dominate_solution_flops(self, flops_sweep):
        for row in flops_sweep:
            assert row.extra["factor_flops"] > 5 * row.extra["solve_flops"]
