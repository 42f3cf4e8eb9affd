"""CI perf gate: diff deterministic counters against the committed baseline.

``record_bench.py`` writes a ``counters`` section — launch counts, flop
totals, and plan storage bytes of a fixed-size SVD-compressed probe — that
is reproducible across hosts (no wall-clock in it).  This script compares
a fresh smoke run against the committed ``BENCH_pr31.json`` with explicit
per-class tolerances and exits nonzero when a counter regressed, which is
what makes the CI ``perf-gate`` job *blocking*: a change that doubles the
launches per solve or bloats the plan storage fails the build even though
every correctness test still passes.

Tolerances (relative, against the baseline value):

* launch counts (``*_launches``, ``launches_per_*``, ``*_per_matvec``):
  2% — launch counts are schedule facts, but a BLAS-rounding rank wobble
  of +-1 can merge or split a shape bucket;
* flops (``*_flops``) and plan bytes (``*_bytes``): 5% — rank wobble
  moves these proportionally to the affected blocks;
* entry-evaluation calls (``*_evaluations``): 5% — the rook probe gathers
  a fixed number of stacks per cross step, so a rank wobble moves the
  count by a few calls, while a return to per-block evaluation multiplies
  it by the number of blocks;
* operator-cache counters (``cache_*``): exact — hits, misses, and
  evictions of the fixed access script are scripted integers, so any
  drift means a keying bug (a hit became a rebuild, or worse, a stale
  operator was served).

Improvements (counters *below* baseline by more than the tolerance) are
reported but never fail; commit a regenerated baseline to lock them in.
Wall-clock benchmark rows are rendered into the markdown summary for
visibility but are informational only.

Usage::

    python benchmarks/check_bench.py --current BENCH_smoke.json \
        --baseline BENCH_pr31.json [--summary out.md]

With ``$GITHUB_STEP_SUMMARY`` set (GitHub Actions), the markdown report is
appended there automatically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: relative tolerance per counter class, matched by key suffix/substring
DEFAULT_TOLERANCES = {
    "launches": 0.02,
    "flops": 0.05,
    "bytes": 0.05,
    "evaluations": 0.05,
    "cache": 0.0,
}

#: counter keys that are descriptive, not gated
SKIP_KEYS = {"n"}


def classify(key: str) -> Optional[str]:
    """The tolerance class of a counter key (``None`` = not gated)."""
    if key in SKIP_KEYS:
        return None
    if key.startswith("cache_"):
        return "cache"
    if key.endswith("_flops"):
        return "flops"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith("_evaluations"):
        return "evaluations"
    if "launches" in key or key.endswith("_per_matvec") or key.endswith("_per_solve"):
        return "launches"
    return None


def compare_counters(
    current: Dict[str, float],
    baseline: Dict[str, float],
    tolerances: Optional[Dict[str, float]] = None,
) -> Tuple[List[str], List[str], List[dict]]:
    """Diff two counter sections.

    Returns ``(regressions, improvements, rows)`` where ``rows`` holds one
    report record per gated counter.  A baseline counter missing from the
    current run is a regression (the probe stopped measuring it); counters
    new in the current run are reported informationally.
    """
    tolerances = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    regressions: List[str] = []
    improvements: List[str] = []
    rows: List[dict] = []
    for key in sorted(baseline):
        cls = classify(key)
        if cls is None:
            continue
        base = float(baseline[key])
        tol = tolerances[cls]
        if key not in current:
            regressions.append(f"{key}: missing from current run (baseline {base:g})")
            rows.append({"key": key, "baseline": base, "current": None,
                         "ratio": None, "tol": tol, "status": "MISSING"})
            continue
        cur = float(current[key])
        ratio = cur / base if base != 0 else (1.0 if cur == 0 else float("inf"))
        status = "ok"
        if cur > base * (1.0 + tol):
            status = "REGRESSION"
            regressions.append(
                f"{key}: {cur:g} vs baseline {base:g} "
                f"(+{(ratio - 1.0) * 100:.1f}%, tol {tol * 100:.0f}%)"
            )
        elif cur < base * (1.0 - tol):
            status = "improved"
            improvements.append(
                f"{key}: {cur:g} vs baseline {base:g} "
                f"({(ratio - 1.0) * 100:.1f}%)"
            )
        rows.append({"key": key, "baseline": base, "current": cur,
                     "ratio": ratio, "tol": tol, "status": status})
    for key in sorted(set(current) - set(baseline)):
        if classify(key) is not None:
            rows.append({"key": key, "baseline": None, "current": float(current[key]),
                         "ratio": None, "tol": None, "status": "new"})
    return regressions, improvements, rows


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value >= 1e6:
        return f"{value:.4g}"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return f"{value:g}"


def counters_markdown(rows: List[dict]) -> str:
    lines = [
        "### Perf gate: deterministic counters",
        "",
        "| counter | baseline | current | delta | tol | status |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for r in rows:
        delta = "-" if r["ratio"] is None else f"{(r['ratio'] - 1.0) * 100:+.1f}%"
        tol = "-" if r["tol"] is None else f"{r['tol'] * 100:.0f}%"
        lines.append(
            f"| {r['key']} | {_fmt(r['baseline'])} | {_fmt(r['current'])} "
            f"| {delta} | {tol} | {r['status']} |"
        )
    return "\n".join(lines) + "\n"


def bench_markdown(payload: dict) -> str:
    """Informational wall-clock table from a ``record_bench.py`` payload."""
    benches = payload.get("benchmarks", {})
    lines = [
        "### Bench rows (informational wall clock)",
        "",
        "| benchmark | fast s | slow s | speedup |",
        "|---|---:|---:|---:|",
    ]
    for name, row in benches.items():
        if not isinstance(row, dict) or "speedup" not in row:
            continue
        times = sorted(
            (k, v) for k, v in row.items()
            if k.endswith("_s") and isinstance(v, (int, float))
        )
        fast = min((v for _k, v in times), default=None)
        slow = max((v for _k, v in times), default=None)
        lines.append(
            f"| {name} | {_fmt(fast)} | {_fmt(slow)} | {row['speedup']}x |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True,
                    help="freshly recorded bench JSON (e.g. BENCH_smoke.json)")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline JSON (e.g. BENCH_pr6.json)")
    ap.add_argument("--summary", default=None,
                    help="also append the markdown report to this file "
                         "(defaults to $GITHUB_STEP_SUMMARY when set)")
    args = ap.parse_args(argv)

    with open(args.current) as fh:
        current_payload = json.load(fh)
    with open(args.baseline) as fh:
        baseline_payload = json.load(fh)

    current = current_payload.get("counters")
    baseline = baseline_payload.get("counters")
    if not isinstance(baseline, dict) or not baseline:
        print(f"error: no counters section in baseline {args.baseline}", file=sys.stderr)
        return 1
    if not isinstance(current, dict) or not current:
        print(f"error: no counters section in current run {args.current}", file=sys.stderr)
        return 1

    regressions, improvements, rows = compare_counters(current, baseline)

    report = counters_markdown(rows) + "\n" + bench_markdown(current_payload)
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(report)
            fh.write("\n")
    print(report)

    for line in improvements:
        print(f"improved: {line}")
    if regressions:
        for line in regressions:
            print(f"REGRESSION: {line}", file=sys.stderr)
        print(f"{len(regressions)} counter regression(s) vs {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"perf gate passed: {sum(1 for r in rows if r['status'] != 'new')} "
          f"counters within tolerance of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
