#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 0-9 [--seconds 20] [--trace 0]

Runs are sequential, one process each. For every metric it prints the
median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound, and it checks that every run was correct and that runs of
the same seed agree on their output digest.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402

BOUNDS = {name: bound for name, _, _, bound in catalog.END_TO_END}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float,
                    default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values: dict = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        stem = f"{args.workload}-seed{seed}-trace{args.trace}"
        record = json.loads((BENCH / "results" / f"{stem}.json").read_text())
        ok &= result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} misses={record['misses']} "
              f"digest={str(record['output_digest'])[:12]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = BOUNDS.get(name)
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
        print(f"{name:36s} median {med:12.6g}  spread {spread:7.4f}"
              f"{'' if bound is None else f'  bound {bound}'}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
