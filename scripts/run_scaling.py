#!/usr/bin/env python3
"""Query-count scaling of the k-maxima search over random tables.

Sweeps the table size at fixed k and the neighbor count at fixed M=256,
printing mean oracle queries (total, and up to the first moment the top-k
set is assembled) with fitted log-log slopes.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qknn_sim import experiments  # noqa: E402
from qknn_sim.statevec import SimulationError  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--M", default="16,32,64,128,256,512,1024")
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=606)
    args = ap.parse_args()

    try:
        study = experiments.scaling_study([int(v) for v in args.M.split(",")], args.k,
                                          args.trials, args.seed)
    except SimulationError as exc:
        sys.exit(f"error: {exc}")
    print(f"{'M':>6s} {'total':>10s} {'to-solution':>12s} {'exact':>6s}")
    for r in study.rows:
        print(f"{r.M:6d} {r.mean_queries:10.1f} {r.mean_queries_to_solution:12.1f} "
              f"{r.success_rate:6.2f}")
    if study.slopes is not None:
        slope_tot, slope_sol = study.slopes
        print(f"slope: to-solution {slope_sol:.3f}, total {slope_tot:.3f}")

    print(f"\nsqrt(k) trend at M={experiments.SQRT_K_M}:")
    for k, mean in zip(experiments.SQRT_K_VALUES, study.k_means):
        print(f"  k={k}: {mean:.1f}")
    print(f"  max relative deviation from c*sqrt(k): {study.k_max_rel_dev:.3f}")


if __name__ == "__main__":
    main()
