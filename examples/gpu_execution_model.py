#!/usr/bin/env python
"""Inspecting the batched execution schedule and the device performance model.

The paper's central engineering claim is that concatenating all low-rank
bases into ``Ubig``/``Vbig`` turns the factorization into a handful of
*batched* kernel launches per tree level, which a GPU executes at high
efficiency.  This example makes that schedule visible — with every solver
constructed through ``repro.build_operator`` and a ``SolverConfig``, so
pivoting and precision choices are plain configuration:

* it factorizes a HODLR matrix with the level-batched schedule and prints
  the recorded kernel trace — launch counts, batch sizes, flops — level by
  level,
* prices the trace on the V100-like and Xeon-like device models, showing
  how the modeled speedup grows with the problem size (the shape of Fig. 5),
* compares pivoting in the reduced K systems (section III-C) and single
  precision (Table IVb) against the pivoted double-precision default.

Run with:  python examples/gpu_execution_model.py   (REPRO_SMOKE=1 for a small run)
"""

import os

import numpy as np

import repro
from repro import PerformanceModel
from repro.api import CompressionConfig, SolverConfig
from repro.backends.device import CPU_XEON_6254_DUAL, GPU_V100

SMOKE = os.environ.get("REPRO_SMOKE") == "1"

CONFIG = SolverConfig(compression=CompressionConfig(tol=1e-8, method="svd", leaf_size=64))


def structured_matrix(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    return 1.0 / (1.0 + 40.0 * np.abs(x[:, None] - x[None, :])) + n * np.eye(n)


def trace_table(trace) -> str:
    lines = ["  kernel                    launches   batch(max)      GFlops"]
    by_kernel = {}
    for ev in trace.events:
        rec = by_kernel.setdefault(ev.kernel, {"launches": 0, "batch": 0, "flops": 0.0})
        rec["launches"] += 1
        rec["batch"] = max(rec["batch"], ev.batch)
        rec["flops"] += ev.flops
    for kernel, rec in sorted(by_kernel.items()):
        lines.append(
            f"  {kernel:<25} {rec['launches']:>8} {rec['batch']:>12} "
            f"{rec['flops'] / 1e9:>11.3f}"
        )
    return "\n".join(lines)


def main(smoke: bool = SMOKE) -> None:
    rng = np.random.default_rng(5)
    gpu_model = PerformanceModel(device=GPU_V100)
    cpu_model = PerformanceModel(device=CPU_XEON_6254_DUAL, link=None)

    print("=== batched execution schedule ===")
    n = 1024 if smoke else 8192
    op = repro.build_operator(structured_matrix(n), config=CONFIG).factorize()
    op.solve(rng.standard_normal(n))

    hodlr = op.hodlr
    print(f"matrix size {n}, {hodlr.tree.levels} levels, ranks {hodlr.rank_profile()}")
    print("factorization trace:")
    print(trace_table(op.factor_trace))
    print("solution trace:")
    print(trace_table(op.last_solve_trace))
    print(f"kernel launches per level (factorization): "
          f"{dict(sorted((k, v) for k, v in op.factor_trace.launches_by_level().items() if k is not None))}")

    print("\n=== modeled device times (same kernel trace priced on two devices) ===")
    print(f"{'N':>8} {'GPU factor':>12} {'CPU factor':>12} {'speedup':>9} "
          f"{'GPU solve':>12} {'CPU solve':>12} {'speedup':>9}")
    sizes = [512, 1024] if smoke else [1024, 2048, 4096, 8192]
    for size in sizes:
        s = repro.build_operator(structured_matrix(size), config=CONFIG).factorize()
        s.solve(rng.standard_normal(size))
        g = s.modeled_times(gpu_model)
        c = s.modeled_times(cpu_model)
        print(
            f"{size:>8} "
            f"{g['factorization'].total_time * 1e3:>10.2f}ms "
            f"{c['factorization'].total_time * 1e3:>10.2f}ms "
            f"{c['factorization'].total_time / g['factorization'].total_time:>8.2f}x "
            f"{g['solution'].total_time * 1e3:>10.3f}ms "
            f"{c['solution'].total_time * 1e3:>10.3f}ms "
            f"{c['solution'].total_time / g['solution'].total_time:>8.2f}x"
        )

    print("\n=== ablations: pivoting (section III-C), precision (Table IVb) ===")
    n = 1024 if smoke else 4096
    A = structured_matrix(n)
    assembled = repro.api.assemble(A, CONFIG)     # compress once, factorize per config
    for label, overrides in [
        ("pivoted LU, float64 (default)", {}),
        ("no pivoting in K solves", dict(pivot=False)),
        ("single precision (float32)", dict(dtype="float32")),
    ]:
        s = repro.build_operator(assembled, config=CONFIG.replace(**overrides)).factorize()
        b = rng.standard_normal(n)
        x = s.solve(b)
        est = s.modeled_times(gpu_model)["factorization"]
        print(f"  {label:<38}: {est.total_time * 1e3:7.2f} ms modeled, "
              f"{est.num_launches:4d} launches, residual {s.relative_residual(x, b):.1e}")


if __name__ == "__main__":
    main()
