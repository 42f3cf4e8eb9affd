"""HODLR end-to-end benchmark: setup, solve and update metrics per workload.

Usage (from the repository root)::

    python3 hodlrbench/run.py --workload gaussian_direct --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics through the public API with
no tracing: the operator is set up three times (``setup_s`` is the median),
then the workload's operation cycle (see ``workloads.py``) runs in a closed
loop for ``--seconds``.  Timings are scaled to a reference host speed by a
numpy-only speed probe run between the timed windows (``bench.measure``);
the report keeps every unscaled value.  ``--trace 1`` runs a fixed operation sequence twice
-- once through the facade untraced, once calling each layer in the order
the facade does with spans around every call (``layers.py``) -- and reports
the per-layer metrics, plus the same traced pass in a child process with
one BLAS thread per core (measured runs pin BLAS to one thread).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``report``, holds every metric with its sample count and spread
plus the host conditions of the run.  The library is imported from the
``src/`` directory next to this one; the run exits non-zero without a
result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: environment variables that size every BLAS runtime's thread pool when
#: set before numpy loads
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small problem sizes, for the benchmark's self-test")
    # the traced run's all-core BLAS child pass
    parser.add_argument("--baseline", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # measure the serial default schedule regardless of the caller's shell,
    # with the BLAS thread count fixed before numpy loads.  Measured runs pin
    # BLAS to one thread: on a 2-vCPU shared host a 2-thread OpenBLAS ran
    # K=32 rounds 2.5x slower with a 9x wider tail spread.
    os.environ.pop("REPRO_PARALLEL", None)
    threads = (os.cpu_count() or 1) if args.baseline else 1
    for name in BLAS_THREAD_ENV:
        os.environ[name] = str(threads)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no library sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench
    import host
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    s = bench.Session(WORKLOADS[args.workload], args.seed, args.smoke)
    if args.baseline:
        print(json.dumps(bench.run_traced(s, args)))
        return 0

    conditions = host.describe()
    conditions["load_1m_before"] = host.load_1m()
    t0 = time.perf_counter()
    result = bench.run_traced(s, args) if args.trace else bench.measure(s, args.seconds)
    conditions["wall_s"] = time.perf_counter() - t0
    conditions["load_1m_after"] = host.load_1m()
    conditions.update(result.get("host", {}))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"n {s.problem.n}  cpus {conditions['cpu_count']}  "
          f"blas threads {conditions['blas_threads']}  "
          f"load {conditions['load_1m_before']:.2f}->{conditions['load_1m_after']:.2f}")
    rows = dict(result["metrics"], **result["extra"])
    for name, (value, unit, info) in rows.items():
        stats = "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in info.items())
        print(f"  {name:<28s} {value:>14.6g} {unit:<8s} {stats}")
    for message in s.errors:
        print(f"  FAILED {message}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": conditions,
        "metrics": {k: dict(info, value=v, unit=u) for k, (v, u, info) in rows.items()},
        "notes": result.get("notes", {}),
        "errors": s.errors,
    }
    print("report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
