#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_*.json telemetry.

Each bench binary writes, through obs::BenchReport, a telemetry file
``BENCH_<name>.json`` whose ``items_per_sec`` is the headline throughput
of the run. This gate compares those numbers against the checked-in
baseline ``bench/perf_baseline.json`` and fails when any gated bench
drops below ``min_ratio`` of its baseline.

The tolerance band is deliberately wide: CI runners differ in clock
speed, core count and noisiness, and the smoke-sized runs are short. The
gate exists to catch order-of-magnitude regressions (an accidentally
quadratic queue, a debug build, a lock on the hot path), not 5% drift.
Ratcheting the baseline is a deliberate act: rerun with ``--update``
on a quiet machine and commit the result.

Usage:
  tools/perf_gate.py --telemetry-dir bench-telemetry \
      [--baseline bench/perf_baseline.json] [--min-ratio 0.2] [--update] \
      [--benches name1,name2]

``--benches`` restricts the run to a comma-separated subset of baseline
entries — CI jobs that only produce some of the telemetry (the serve
smoke produces serve_throughput but not the fig3 sweeps) gate just their
own benches without tripping MISSING failures for the others. With
``--update`` the subset is merged into the existing baseline instead of
replacing it.

Environment:
  FTMC_PERF_MIN_RATIO  overrides the tolerance (and --min-ratio).

Exit codes: 0 ok, 1 regression (or telemetry missing for a gated bench),
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def load_items_per_sec(path: Path) -> float | None:
    with open(path) as fh:
        doc = json.load(fh)
    value = doc.get("items_per_sec")
    if value is None:
        return None
    return float(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--telemetry-dir", required=True, type=Path,
                        help="directory holding BENCH_*.json files")
    parser.add_argument("--baseline", type=Path,
                        default=Path("bench/perf_baseline.json"))
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="measured/baseline must be >= this "
                             "(default: the baseline file's min_ratio)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from current telemetry "
                             "instead of gating")
    parser.add_argument("--benches", type=str, default=None,
                        help="comma-separated bench names: gate (or merge-"
                             "update) only these baseline entries")
    args = parser.parse_args()

    selected: set[str] | None = None
    if args.benches is not None:
        selected = {n.strip() for n in args.benches.split(",") if n.strip()}
        if not selected:
            print("perf_gate: --benches selected nothing", file=sys.stderr)
            return 2

    if not args.telemetry_dir.is_dir():
        print(f"perf_gate: no such telemetry dir: {args.telemetry_dir}",
              file=sys.stderr)
        return 2

    measured: dict[str, float] = {}
    for path in sorted(args.telemetry_dir.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        value = load_items_per_sec(path)
        if value is not None:
            measured[name] = value

    if selected is not None:
        measured = {k: v for k, v in measured.items() if k in selected}

    if args.update:
        doc = {
            "_comment": "Perf-regression baseline for tools/perf_gate.py: "
                        "items_per_sec per bench at CI smoke sizes. "
                        "Regenerate with tools/perf_gate.py --update.",
            "min_ratio": 0.2,
            "items_per_sec": {k: round(v, 1) for k, v in
                              sorted(measured.items())},
        }
        if args.baseline.exists():
            old = json.loads(args.baseline.read_text())
            doc["_comment"] = old.get("_comment", doc["_comment"])
            doc["min_ratio"] = old.get("min_ratio", doc["min_ratio"])
            if selected is not None:
                merged = dict(old.get("items_per_sec", {}))
                merged.update(doc["items_per_sec"])
                doc["items_per_sec"] = dict(sorted(merged.items()))
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"perf_gate: baseline updated with {len(measured)} benches "
              f"-> {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"perf_gate: no baseline at {args.baseline} "
              "(run with --update to create one)", file=sys.stderr)
        return 2
    baseline_doc = json.loads(args.baseline.read_text())
    baseline: dict[str, float] = baseline_doc.get("items_per_sec", {})
    if selected is not None:
        missing = selected - set(baseline)
        if missing:
            print(f"perf_gate: --benches names not in the baseline: "
                  f"{', '.join(sorted(missing))}", file=sys.stderr)
            return 2
        baseline = {k: v for k, v in baseline.items() if k in selected}
    if not baseline:
        print("perf_gate: baseline gates no benches", file=sys.stderr)
        return 2

    min_ratio = baseline_doc.get("min_ratio", 0.2)
    if args.min_ratio is not None:
        min_ratio = args.min_ratio
    env_ratio = os.environ.get("FTMC_PERF_MIN_RATIO")
    if env_ratio is not None:
        min_ratio = float(env_ratio)
    if not 0.0 < min_ratio <= 1.0:
        print(f"perf_gate: nonsensical min ratio {min_ratio}",
              file=sys.stderr)
        return 2

    failures = []
    width = max(len(n) for n in baseline)
    print(f"perf_gate: min ratio {min_ratio:.2f} "
          f"(baseline {args.baseline})")
    for name, base in sorted(baseline.items()):
        got = measured.get(name)
        if got is None:
            print(f"  {name:<{width}}  MISSING telemetry "
                  f"(expected {args.telemetry_dir}/BENCH_{name}.json)")
            failures.append(name)
            continue
        ratio = got / base if base > 0 else float("inf")
        verdict = "ok" if ratio >= min_ratio else "REGRESSION"
        print(f"  {name:<{width}}  {got:>12.1f} items/s  "
              f"baseline {base:>12.1f}  ratio {ratio:5.2f}  {verdict}")
        if ratio < min_ratio:
            failures.append(name)
    for name in sorted(set(measured) - set(baseline)):
        print(f"  {name:<{width}}  {measured[name]:>12.1f} items/s  "
              "(ungated; add via --update)")

    if failures:
        print(f"perf_gate: FAILED for {', '.join(sorted(failures))}",
              file=sys.stderr)
        return 1
    print("perf_gate: all gated benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
