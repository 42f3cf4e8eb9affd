"""Tables V(a)/V(b) and Fig. 8: the exterior Helmholtz BIE benchmark.

Paper configuration: the combined-field BIE (24) with eta = kappa = 100,
6th-order Kapur-Rokhlin quadrature, N = 2^15 .. 2^20, comparing the serial
HODLR solver, the serial/parallel block-sparse solvers and the GPU HODLR
solver.  Table V(a) is the high-accuracy fast direct solver; Table V(b) the
low-accuracy robust preconditioner.

Scaled-down reproduction: kappa is reduced proportionally to the boundary
size so the discretization stays resolved (the paper's kappa = 100 needs
N >= 32768 on this contour), and the sweep covers N = 512 .. 2048.  The
harness checks the qualitative claims of section IV-C: complex arithmetic
throughout, Helmholtz ranks larger than Laplace ranks at the same accuracy,
costs larger than the Laplace problem, near-linear scaling, and GPU speedup
over the parallel block-sparse solver.
"""

import numpy as np
import pytest

from repro import (
    HelmholtzCombinedBIE,
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
KAPPA = 15.0
LEAF_SIZE = 64


def build_helmholtz_hodlr(n: int, tol: float):
    bie = HelmholtzCombinedBIE(contour=StarContour(), n=n, kappa=KAPPA)
    hodlr = build_hodlr_proxy(
        bie, config=CompressionConfig(method="proxy", tol=tol, n_proxy=96, leaf_size=LEAF_SIZE)
    )
    return bie, hodlr


def run_sweep(tol: float, experiment: str, rng) -> list:
    rows = []
    for n in SWEEP_N:
        bie, hodlr = build_helmholtz_hodlr(n, tol)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gpu_row, x, solver = run_gpu_hodlr(hodlr, b)
        relres = float(np.linalg.norm(bie.matvec(x) - b) / np.linalg.norm(b))
        row = TableRow(experiment=experiment, n=n, relres=relres)
        row.solvers["gpu_hodlr"] = gpu_row
        row.solvers["serial_hodlr"] = run_serial_hodlr(hodlr, b)
        # Helmholtz regime of the block-sparse model: the numerical factorization
        # dominates, so the parallel solver's analysis overhead is comparatively
        # small and its factorization is *faster* than the serial one (paper, IV-C)
        row.solvers.update(run_block_sparse(hodlr, b, symbolic_overhead_factor=0.3))
        row.extra["max_rank"] = float(max(hodlr.rank_profile()))
        rows.append(row)
    save_rows(experiment, rows)
    return rows


@pytest.fixture(scope="module")
def table5a(bench_rng):
    """High-accuracy sweep (Table Va): tol 1e-8."""
    return run_sweep(1e-8, "table5a_helmholtz_high", bench_rng)


@pytest.fixture(scope="module")
def table5b(bench_rng):
    """Low-accuracy sweep (Table Vb): tol 1e-4 (robust preconditioner regime)."""
    return run_sweep(1e-4, "table5b_helmholtz_low", bench_rng)


SOLVER_ORDER = ["serial_hodlr", "serial_block_sparse", "parallel_block_sparse", "gpu_hodlr"]


class TestTable5a:
    def test_report(self, table5a, benchmark):
        bie, hodlr = build_helmholtz_hodlr(SWEEP_N[-1], 1e-8)
        b = np.random.default_rng(3).standard_normal(SWEEP_N[-1]) + 0j
        benchmark(lambda: run_gpu_hodlr(hodlr, b))
        print_table(
            "Table V(a) (Helmholtz BIE, high accuracy): serial HODLR / block-sparse / GPU HODLR",
            table5a,
            solver_order=SOLVER_ORDER,
        )
        print_scaling_check(table5a, "gpu_hodlr")

    def test_high_accuracy_residuals(self, table5a):
        """Table Va reports relres ~1e-9; the scaled-down run should reach ~tolerance."""
        for row in table5a:
            assert row.relres < 1e-6

    def test_gpu_faster_than_parallel_block_sparse(self, table5a):
        last = table5a[-1]
        assert last.solvers["gpu_hodlr"].modeled_tf < last.solvers["parallel_block_sparse"].modeled_tf

    def test_parallel_block_sparse_factorization_beats_serial(self, table5a):
        """Section IV-C: for the Helmholtz system the parallel block-sparse factorization
        is faster than the serial one (unlike the Laplace case of Table IV)."""
        last = table5a[-1]
        assert (
            last.solvers["parallel_block_sparse"].modeled_tf
            < last.solvers["serial_block_sparse"].modeled_tf
        )

    def test_near_linear_scaling(self, table5a):
        first, last = table5a[0], table5a[-1]
        growth = last.solvers["gpu_hodlr"].modeled_tf / first.solvers["gpu_hodlr"].modeled_tf
        assert growth < (last.n / first.n) ** 1.8


class TestTable5b:
    def test_report(self, table5b, benchmark):
        bie, hodlr = build_helmholtz_hodlr(SWEEP_N[-1], 1e-4)
        b = np.random.default_rng(4).standard_normal(SWEEP_N[-1]) + 0j
        benchmark(lambda: run_gpu_hodlr(hodlr, b))
        print_table(
            "Table V(b) (Helmholtz BIE, low accuracy / preconditioner regime)",
            table5b,
            solver_order=SOLVER_ORDER,
        )

    def test_preconditioner_accuracy_regime(self, table5b):
        """Table Vb reports relres of ~1e-4: loose but usable as a preconditioner."""
        for row in table5b:
            assert 1e-8 < row.relres < 5e-2

    def test_low_accuracy_cheaper_than_high_accuracy(self, table5a, table5b):
        """The preconditioner build is faster and uses less memory (paper, section IV-C)."""
        for hi, lo in zip(table5a, table5b):
            assert lo.solvers["gpu_hodlr"].mem_gb < hi.solvers["gpu_hodlr"].mem_gb
            assert lo.solvers["gpu_hodlr"].modeled_tf <= hi.solvers["gpu_hodlr"].modeled_tf
            assert lo.extra["max_rank"] < hi.extra["max_rank"]

    def test_costs_exceed_laplace(self, table5a):
        """Helmholtz ranks (and hence costs) exceed the Laplace ones at the same N and tolerance."""
        from repro import LaplaceDoubleLayerBIE, build_hodlr_proxy as bhp

        n = SWEEP_N[-1]
        lap = LaplaceDoubleLayerBIE(contour=StarContour(), n=n)
        lap_hodlr = bhp(lap, config=CompressionConfig(method="proxy", tol=1e-8, leaf_size=LEAF_SIZE))
        assert table5a[-1].extra["max_rank"] > max(lap_hodlr.rank_profile())


class TestFig8Series:
    def test_fig8_series_printed(self, table5a, table5b, benchmark):
        """Emit the four speedup panels of Fig. 8 (GPU HODLR vs parallel block-sparse)."""
        benchmark(lambda: None)
        for label, rows, attr in [
            ("Fig. 8(a) high-accuracy factorization", table5a, "modeled_tf"),
            ("Fig. 8(b) high-accuracy solution", table5a, "modeled_ts"),
            ("Fig. 8(c) low-accuracy factorization", table5b, "modeled_tf"),
            ("Fig. 8(d) low-accuracy solution", table5b, "modeled_ts"),
        ]:
            print(f"\n{label} (N, parallel block-sparse, GPU HODLR, speedup):")
            for row in rows:
                bs = getattr(row.solvers["parallel_block_sparse"], attr)
                gpu = getattr(row.solvers["gpu_hodlr"], attr)
                print(f"  {row.n:>8} {bs:12.4e} {gpu:12.4e} {bs / gpu:8.2f}x")
