#!/usr/bin/env python3
"""Bracket the chaotic onset: scan the maximum Lyapunov exponent across rho.

Seeds the flow next to the C+ equilibrium so the sign change tracks the loss
of local stability (the subcritical Hopf at rho = 470/19 ~ 24.74) instead of
preturbulent transients.

Usage: python scripts/onset_scan.py [--lo 23] [--hi 27] [--step 0.25]
"""

import argparse

from topospec import dynamics
from topospec.serialize import write_csv


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lo", type=float, default=23.0)
    ap.add_argument("--hi", type=float, default=27.0)
    ap.add_argument("--step", type=float, default=0.25)
    ap.add_argument("--out", default="runs/onset/lyapunov_scan.csv")
    args = ap.parse_args(argv)
    if not args.step > 0:
        ap.error("--step must be > 0")

    rows = []
    prev = None
    bracket = None
    k = 0
    # each point from lo, so the grid does not drift by summed rounding
    while (rho := args.lo + k * args.step) <= args.hi + 1e-9:
        p = dynamics.LorenzParams(rho=rho)
        c = dynamics.fixed_points(p)[1]
        r = dynamics.lyapunov_max(p, (c[0] + 0.1, c[1], c[2]), 0.005, 300.0, 20)
        rows.append((rho, r.lambda_max))
        print(f"rho={rho:6.3f}: lambda_max = {r.lambda_max:+.4f}")
        if prev is not None and (prev[1] > 0) != (r.lambda_max > 0):
            bracket = (prev[0], rho)
        prev = (rho, r.lambda_max)
        k += 1
    write_csv(args.out, ("rho", "lambda_max"), rows)
    if bracket:
        print(f"sign change bracketed in [{bracket[0]:.3f}, {bracket[1]:.3f}]")
    else:
        print("no sign change in the scanned range")


if __name__ == "__main__":
    main()
