#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, per metric, the median
and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--trace 0|1]

Each run lasts BENCHMARK.json's run_seconds. --trace 0 gives the spreads of
the end-to-end metrics, --trace 1 those of the per-layer metrics.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    here = Path(__file__).resolve().parent
    run = here / "run.py"
    config = json.loads((here.parent / "BENCHMARK.json").read_text())
    seconds = str(config["run_seconds"])
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, str(run), "--workload", args.workload, "--seed",
             str(seed), "--seconds", seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false", file=sys.stderr)
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            file=sys.stderr)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:24s} median {med:12.6g}  spread {spread:7.2%}")
    print(f"failed/attempted shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
