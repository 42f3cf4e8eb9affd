"""Host conditions recorded with every benchmark run.

Everything here is read-only: the live OpenBLAS thread counts are queried
through ``ctypes`` on the libraries already mapped into the process, never
set, so recording them does not change what is measured.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

#: thread-count getters of the OpenBLAS builds numpy and scipy ship
#: (``64_`` suffix: numpy's ILP64 copy)
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_GETTERS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_openblas() -> list:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() and path.endswith(".so"):
                    paths.add(path)
    except OSError:
        return []
    return sorted(paths)


def _call(lib: ctypes.CDLL, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is None:
            continue
        fn.argtypes = []
        fn.restype = restype
        return fn()
    return None


def blas_libraries() -> Dict[str, dict]:
    """``{library file: {"threads": n, "config": "..."}}`` for loaded OpenBLAS."""
    out: Dict[str, dict] = {}
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _call(lib, _THREAD_GETTERS, ctypes.c_int)
        config = _call(lib, _CONFIG_GETTERS, ctypes.c_char_p)
        out[os.path.basename(path)] = {
            "threads": threads,
            "config": config.decode() if isinstance(config, bytes) else None,
        }
    return out


def blas_threads() -> int:
    """The largest live OpenBLAS thread count (0 when none is loaded)."""
    counts = [v["threads"] for v in blas_libraries().values() if v["threads"]]
    return max(counts) if counts else 0


def load_1m() -> float:
    return float(os.getloadavg()[0])


def last_level_cache_bytes() -> Optional[int]:
    """Size of the highest cache level of cpu0, from sysfs (``None`` if unknown)."""
    best_level, best_size = -1, None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text().strip())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        digits = size.rstrip("KMG")
        if digits.isdigit() and level > best_level:
            best_level, best_size = level, int(digits) * scale
    return best_size


def describe() -> dict:
    """Host conditions for the run report: cores, BLAS threads, versions."""
    import numpy
    import scipy

    libs = blas_libraries()
    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas": libs,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "llc_bytes": last_level_cache_bytes(),
    }


class SpeedProbe:
    """A fixed numpy-only reference workload that tracks the host's speed.

    Shared virtual hosts switch between fast and slow states for seconds to
    minutes at a time: on a 2-vCPU Xeon SkylakeX VM the probe read 2.5 ms
    in the usual state and 1.95 ms in the fast one, and the solver's
    operations moved by the same ~25%.  The probe mixes the three costs the
    solver's operations mix -- BLAS-3 gemms, memory copies and interpreter
    overhead -- and touches no library code.  ``factor()`` scales a timing
    to the reference host speed, at which one probe takes :data:`NOMINAL_S`.
    """

    #: probe time on the reference host in its usual state (2-vCPU Xeon
    #: SkylakeX VM, numpy 2.4.6, OpenBLAS 0.3.31 pinned to one thread)
    NOMINAL_S = 2.5e-3

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((160, 160))
        self._v = rng.standard_normal(1 << 19)
        self._w = np.empty_like(self._v)

    def run(self) -> float:
        import time

        import numpy as np

        np.copyto(self._w, self._v)
        self._a.sum()
        t0 = time.perf_counter()
        for _ in range(4):
            self._a @ self._a
        for _ in range(2):
            np.copyto(self._w, self._v)
        total = 0
        for i in range(10000):
            total += i
        return time.perf_counter() - t0

    def batch(self, repeats: int) -> tuple:
        """``repeats`` probe times, and the process CPU time over their wall time.

        The ratio is ~1 when only the probing thread runs; above 1, other
        threads of the process were busy and slowed the probe.
        """
        import time

        cpu0, wall0 = time.process_time(), time.perf_counter()
        times = [self.run() for _ in range(repeats)]
        return times, (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    def factor(self, times: list) -> float:
        import statistics

        return self.NOMINAL_S / statistics.median(times)
