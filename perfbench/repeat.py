#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workload report-1m --seeds 1-10 [--trace 0] [--seconds 10]

For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread
``(q3 - q1) / median`` and, when there are enough runs, the highest
percentile with at least ten runs beyond it. Runs are sequential, so they
never compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import tail_percentile

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    correct = True
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        shown = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            shown.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(shown[:6]), flush=True)

    print(f"{args.workload}: correct={correct} failed={failed}/{attempted}")
    for name, vals in values.items():
        median = statistics.median(vals)
        line = f"  {name:<40} median {median:.6g} {units[name]}"
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            line += f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
        tail = tail_percentile(vals)
        if tail:
            line += f"  p{tail[0]} {tail[1]:.6g}"
        print(line + f"  (n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
