#!/usr/bin/env python3
"""Estimation study: consistency of the (z, w) solver and mixture
identification.

Part 1 draws single samples on windows of growing mass and tabulates
median absolute estimation errors, which must shrink as the window
grows.  Part 2 draws from a two-atom mixture and reports how often a
single observation identifies its component: at large window mass the
parameter posterior is effectively a point mass.

Usage: python scripts/estimator_study.py [--replicas 100] [--seed 0]
"""

import argparse
import sys

import numpy as np

from polyasum import (MixingMeasure, PolyaParams, ReferenceMeasure, RngSeed,
                      Window, density_batch, sample_mixed_batch,
                      sample_polya_direct_batch, solve_zw_batch)


def consistency_table(replicas: int, seed: int) -> None:
    z_true, w_true = 0.5, 1.0
    window = Window.interval(0.0, 1.0, 8)
    print(f"consistency at (z, w) = ({z_true}, {w_true}), "
          f"{replicas} replicas per mass")
    print(f"{'mass':>10} {'median |dz|':>12} {'median |dw|':>12} "
          f"{'feasible':>9}")
    for i, mass in enumerate((1e2, 1e3, 1e4)):
        rho0 = ReferenceMeasure.uniform(window, mass)
        batch = sample_polya_direct_batch(
            PolyaParams(z_true, rho0.scale(w_true)), replicas,
            RngSeed(seed, stream=10 + i))
        u, v, _ = density_batch(batch, rho0)
        z_hat, w_hat, ok = solve_zw_batch(u, v)
        print(f"{mass:>10.0e} "
              f"{np.median(np.abs(z_hat[ok] - z_true)):>12.5f} "
              f"{np.median(np.abs(w_hat[ok] - w_true)):>12.5f} "
              f"{ok.mean():>9.1%}")


def classification_table(replicas: int, seed: int) -> None:
    atoms = ((0.3, 1.0, 0.5), (0.7, 1.0, 0.5))
    window = Window.interval(0.0, 1.0, 8)
    print(f"\nmixture identification, atoms {atoms[0][:2]} and "
          f"{atoms[1][:2]}, {replicas} replicas per mass")
    print(f"{'mass':>10} {'accuracy':>9}")
    for i, mass in enumerate((1e2, 1e3, 1e4)):
        rho0 = ReferenceMeasure.uniform(window, mass)
        mixing = MixingMeasure(rho0, atoms)
        batch, z_lat, _ = sample_mixed_batch(
            mixing, "direct", 1e-6, replicas, RngSeed(seed, stream=20 + i))
        u, v, _ = density_batch(batch, rho0)
        z_hat, w_hat, ok = solve_zw_batch(u, v)
        d0 = (z_hat - 0.3) ** 2 + (w_hat - 1.0) ** 2
        d1 = (z_hat - 0.7) ** 2 + (w_hat - 1.0) ** 2
        assigned = np.where(d0 < d1, 0.3, 0.7)
        accuracy = (assigned == z_lat)[ok].mean()
        print(f"{mass:>10.0e} {accuracy:>9.1%}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicas", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    consistency_table(args.replicas, args.seed)
    classification_table(args.replicas, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
