"""Scan the Werner mixing parameter and tabulate every certificate.

For prime p the verdict flips exactly at the threshold 1/(1 + p^(n-1));
the sufficient bound saturates only at p = n = 2.

Usage: python scripts/werner_scan.py [--p 3] [--n 2] [--steps 12]
"""

import argparse

import numpy as np

from spinsep import (
    INSEPARABLE,
    WernerSpec,
    necessary_check,
    peres_check,
    spin_l1_norm,
    sufficient_certificate,
    to_spin,
    werner_density,
    werner_threshold,
)
from spinsep.werner import is_prime, werner_bound


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()

    if args.steps < 0:
        parser.error(f"--steps must be non-negative, got {args.steps}")
    try:
        WernerSpec(args.p, args.n, 0.0)  # checks p >= 2 and n >= 2
        if is_prime(args.p):
            s_star = werner_threshold(args.p, args.n)
            print(f"p={args.p} n={args.n}  threshold s* = {s_star:.6f}")
        else:
            s_star = werner_bound(args.p, args.n)
            print(f"p={args.p} n={args.n}  necessary bound = {s_star:.6f} (composite p)")
    except ValueError as err:
        parser.error(str(err))
    print(f"{'s':>8}  {'L1 norm':>10}  {'necessary':>12}  {'peres':>12}  {'sufficient':>12}")

    grid = sorted(set(np.linspace(0.0, 1.0, args.steps).tolist() + [s_star]))
    for s in grid:
        w = werner_density(WernerSpec(args.p, args.n, s))
        norm = spin_l1_norm(to_spin(w))
        nec = necessary_check(w).verdict
        per = (
            INSEPARABLE
            if any(
                peres_check(w, r).verdict == INSEPARABLE for r in range(1, args.n + 1)
            )
            else "inconclusive"
        )
        suf = sufficient_certificate(w).verdict
        marker = "  <- s*" if abs(s - s_star) < 1e-12 else ""
        print(f"{s:8.4f}  {norm:10.4f}  {nec:>12}  {per:>12}  {suf:>12}{marker}")

    if is_prime(args.p):
        print(
            "\nbelow s* an explicit decomposition exists "
            "(spinsep werner --emit-decomposition); above it the necessary "
            "condition certifies inseparability."
        )


if __name__ == "__main__":
    main()
