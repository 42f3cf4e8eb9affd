"""Tables IV(a)/IV(b) and Fig. 7: the exterior Laplace BIE benchmark.

Paper configuration: the BIE (21) on the smooth contour of Fig. 6,
discretized with the 2nd-order (trapezoidal) quadrature, N = 2^18 .. 2^24.
Four solvers are compared: the serial HODLR solver, the serial and parallel
Ho-Greengard block-sparse solvers, and the GPU HODLR solver.  Table IV(a)
uses high-accuracy compression (fast direct solver, relres ~1e-9); Table
IV(b) uses low-accuracy compression in single precision (relres ~1e-4,
roughly half the memory and time).

The harness reproduces the same four-solver comparison at reduced N and
checks the qualitative claims of section IV-B: near-linear scaling of the
GPU solver, GPU speedup over the parallel block-sparse solver, the
symbolic-factorization overhead that makes the parallel block-sparse
*factorization* slower than the serial one, and the ~2x memory/time saving
of the single-precision low-accuracy mode.
"""

import numpy as np
import pytest

from repro import (
    LaplaceDoubleLayerBIE,
    CompressionConfig,
    StarContour,
    build_hodlr_proxy,
)

from common import (
    TableRow,
    print_scaling_check,
    print_table,
    run_block_sparse,
    run_gpu_hodlr,
    run_serial_hodlr,
    save_rows,
)

SWEEP_N = [512, 1024, 2048]
LEAF_SIZE = 64


def build_laplace_hodlr(n: int, tol: float):
    bie = LaplaceDoubleLayerBIE(contour=StarContour(), n=n)
    hodlr = build_hodlr_proxy(
        bie, config=CompressionConfig(method="proxy", tol=tol, leaf_size=LEAF_SIZE)
    )
    return bie, hodlr


def run_sweep(tol: float, dtype, experiment: str, rng) -> list:
    rows = []
    for n in SWEEP_N:
        bie, hodlr = build_laplace_hodlr(n, tol)
        b = rng.standard_normal(n)
        gpu_row, x, solver = run_gpu_hodlr(hodlr, b, dtype=dtype)
        relres = float(np.linalg.norm(bie.matvec(x) - b) / np.linalg.norm(b))
        row = TableRow(experiment=experiment, n=n, relres=relres)
        row.solvers["gpu_hodlr"] = gpu_row
        row.solvers["serial_hodlr"] = run_serial_hodlr(hodlr, b)
        row.solvers.update(run_block_sparse(hodlr, b))
        row.extra["max_rank"] = float(max(hodlr.rank_profile()))
        rows.append(row)
    save_rows(experiment, rows)
    return rows


@pytest.fixture(scope="module")
def table4a(bench_rng):
    """High-accuracy sweep (Table IVa): tol 1e-10, double precision."""
    return run_sweep(1e-10, None, "table4a_laplace_high", bench_rng)


@pytest.fixture(scope="module")
def table4b(bench_rng):
    """Low-accuracy sweep (Table IVb): tol 1e-5, single precision."""
    return run_sweep(1e-5, np.float32, "table4b_laplace_low", bench_rng)


SOLVER_ORDER = ["serial_hodlr", "serial_block_sparse", "parallel_block_sparse", "gpu_hodlr"]


class TestTable4a:
    def test_report(self, table4a, benchmark):
        bie, hodlr = build_laplace_hodlr(SWEEP_N[-1], 1e-10)
        b = np.random.default_rng(1).standard_normal(SWEEP_N[-1])
        benchmark(lambda: run_gpu_hodlr(hodlr, b))
        print_table(
            "Table IV(a) (Laplace BIE, high accuracy): serial HODLR / block-sparse / GPU HODLR",
            table4a,
            solver_order=SOLVER_ORDER,
        )
        print_scaling_check(table4a, "gpu_hodlr")

    def test_high_accuracy_residuals(self, table4a):
        """Table IVa reports relres of roughly 1e-9 .. 1e-8."""
        for row in table4a:
            assert row.relres < 1e-7

    def test_gpu_factorization_is_fastest(self, table4a):
        """Fig. 7(a): the GPU factorization beats every CPU solver.

        (The paper's solve-phase win over the *parallel* block-sparse solver
        appears only at its full problem sizes, where the PCIe transfer and
        launch overheads are negligible relative to the solve; at the
        miniature sizes of this harness only the comparison against the
        serial solvers is meaningful, see EXPERIMENTS.md.)
        """
        last = table4a[-1]
        gpu = last.solvers["gpu_hodlr"]
        for other in ("serial_hodlr", "serial_block_sparse", "parallel_block_sparse"):
            assert gpu.modeled_tf < last.solvers[other].modeled_tf
        assert gpu.modeled_ts < last.solvers["serial_block_sparse"].modeled_ts

    def test_parallel_block_sparse_factorization_overhead(self, table4a):
        """Section IV-B observation: the parallel block-sparse *factorization* is slower
        than the serial one (symbolic-analysis overhead), even though its solve is faster."""
        last = table4a[-1]
        assert (
            last.solvers["parallel_block_sparse"].modeled_tf
            >= last.solvers["serial_block_sparse"].modeled_tf
        )
        assert (
            last.solvers["parallel_block_sparse"].modeled_ts
            <= last.solvers["serial_block_sparse"].modeled_ts
        )

    def test_near_linear_scaling(self, table4a):
        first, last = table4a[0], table4a[-1]
        growth = last.solvers["gpu_hodlr"].modeled_tf / first.solvers["gpu_hodlr"].modeled_tf
        assert growth < (last.n / first.n) ** 1.6


class TestTable4b:
    def test_report(self, table4b, benchmark):
        bie, hodlr = build_laplace_hodlr(SWEEP_N[-1], 1e-5)
        b = np.random.default_rng(2).standard_normal(SWEEP_N[-1]).astype(np.float32)
        benchmark(lambda: run_gpu_hodlr(hodlr, b, dtype=np.float32))
        print_table(
            "Table IV(b) (Laplace BIE, low accuracy, single precision)",
            table4b,
            solver_order=SOLVER_ORDER,
        )

    def test_low_accuracy_residuals(self, table4b):
        """Table IVb reports relres of roughly 1e-5 .. 1e-4."""
        for row in table4b:
            assert 1e-8 < row.relres < 5e-3

    def test_low_accuracy_saves_memory_and_time(self, table4a, table4b):
        """Single precision + loose tolerance roughly halves memory (paper: ~2x)."""
        for hi, lo in zip(table4a, table4b):
            assert lo.solvers["gpu_hodlr"].mem_gb < 0.7 * hi.solvers["gpu_hodlr"].mem_gb
            assert lo.solvers["gpu_hodlr"].modeled_tf <= hi.solvers["gpu_hodlr"].modeled_tf

    def test_ranks_smaller_than_high_accuracy(self, table4a, table4b):
        for hi, lo in zip(table4a, table4b):
            assert lo.extra["max_rank"] <= hi.extra["max_rank"]


class TestFig7Series:
    def test_fig7_series_printed(self, table4a, table4b, benchmark):
        """Emit the four panels of Fig. 7 as (N, series...) rows."""
        benchmark(lambda: None)
        for label, rows, attr in [
            ("Fig. 7(a) high-accuracy factorization", table4a, "modeled_tf"),
            ("Fig. 7(b) high-accuracy solution", table4a, "modeled_ts"),
            ("Fig. 7(c) low-accuracy factorization", table4b, "modeled_tf"),
            ("Fig. 7(d) low-accuracy solution", table4b, "modeled_ts"),
        ]:
            print(f"\n{label} (N, serial block-sparse, parallel block-sparse, GPU HODLR):")
            for row in rows:
                print(
                    f"  {row.n:>8} "
                    f"{getattr(row.solvers['serial_block_sparse'], attr):12.4e} "
                    f"{getattr(row.solvers['parallel_block_sparse'], attr):12.4e} "
                    f"{getattr(row.solvers['gpu_hodlr'], attr):12.4e}"
                )
