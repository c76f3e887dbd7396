#!/usr/bin/env python3
"""Entanglement-classification experiment across all schemes and both modes.

Generates a fresh corpus per scheme and seed, runs the classical baseline
and the quantum search path on a 90/10 split, and prints a table of mean
accuracies plus the classical/quantum prediction agreement rate.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qknn_sim import datasets, experiments  # noqa: E402
from qknn_sim.statevec import SimulationError  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--per-class", type=int, default=1000)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--b", type=int, default=12)
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    print(f"{'scheme':20s} {'classical':>10s} {'quantum':>10s} {'agreement':>10s}")
    for scheme in datasets.SCHEMES:
        try:
            row = experiments.entanglement_experiment(scheme, args.per_class, args.k, args.b,
                                                      range(args.seeds))
        except SimulationError as exc:
            sys.exit(f"error: {exc}")
        print(f"{scheme:20s} {row.classical:10.4f} {row.quantum:>10.4f} {row.agreement:>10.4f}")


if __name__ == "__main__":
    main()
