"""Estimate how far random densities can be pushed from the maximally mixed
state while the norm certificate still applies.

For each sample rho the blend lambda rho + (1-lambda) I/N has spin L1 norm
lambda * ||rho||, so the certified radius is lambda* = 1 / ||rho||; the
script confirms the certificate constructively at lambda* and reports the
distribution of radii.

Usage: python scripts/separable_neighborhood.py [--dims 2,3] [--samples 50]
"""

import argparse

import numpy as np

from spinsep import (
    SEPARABLE,
    DimVector,
    check_density,
    random_density,
    spin_l1_norm,
    sufficient_certificate,
    to_spin,
    verify_decomposition,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=str, default="2,3")
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.samples < 1:
        parser.error(f"--samples must be at least 1, got {args.samples}")
    try:
        dims = DimVector(tuple(int(x) for x in args.dims.split(",")))
    except ValueError as err:
        parser.error(f"--dims {args.dims}: {err}")
    n = dims.size
    rng = np.random.default_rng(args.seed)

    radii = []
    for _ in range(args.samples):
        rho0 = random_density(dims, rng)
        norm0 = spin_l1_norm(to_spin(rho0))
        lam = min(1.0, 1.0 / norm0)
        blend = check_density(lam * rho0.matrix + (1 - lam) * np.eye(n) / n, dims)
        report = sufficient_certificate(blend)
        assert report.verdict == SEPARABLE, report
        assert verify_decomposition(report.witness, blend)
        radii.append(lam)

    radii = np.array(radii)
    print(f"dims={dims}  N={n}  samples={args.samples}")
    print(f"certified mixing radius lambda*: min={radii.min():.4f}  "
          f"mean={radii.mean():.4f}  max={radii.max():.4f}")
    print("every blend at lambda* was certified with a verified decomposition")


if __name__ == "__main__":
    main()
