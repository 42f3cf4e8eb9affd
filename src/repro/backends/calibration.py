"""Host probe: the launch overhead, peak flop rate and copy bandwidth.

:func:`measure_profile` times three tiny synthetic kernels on this host and
returns them as a frozen :class:`MachineProfile`.  Benchmarks read it to
report achieved GFLOP/s and bytes/s as fractions of what the host can do
(``peak_frac``, ``mem_bandwidth_gbs``).  Nothing in the solver reads it:
the LU launches' host execution follows a fixed shape rule
(:func:`~repro.backends.dispatch.vectorize_getrf`), the same on every
host.
"""

from __future__ import annotations

import time  # repro-lint: file-ignore[RL004] -- the probe exists to measure host wall-clock; it is not a test
from dataclasses import dataclass
from typing import Any, Callable, Tuple

import numpy as np


@dataclass(frozen=True)
class MachineProfile:
    """Measured host characteristics.

    ``launch_overhead`` is the seconds of one tiny (2x2) matmul,
    ``peak_gflops`` the rate of one 256x256 matmul, and ``mem_bandwidth``
    the bytes/s of a 32 MB copy (read plus write).
    """

    launch_overhead: float = 2.0e-6
    peak_gflops: float = 50.0
    mem_bandwidth: float = 2.0e10


def _best_of(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` timed calls (after one warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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


def measure_profile(repeats: int = 3, seed: int = 0) -> MachineProfile:
    """Measure this host's :class:`MachineProfile` (well under a second)."""
    launch, peak_gflops, bandwidth = _measure_machine(
        np.random.default_rng(seed), repeats
    )
    return MachineProfile(
        launch_overhead=launch, peak_gflops=peak_gflops, mem_bandwidth=bandwidth
    )
