#!/usr/bin/env python3
"""Full-grid experiment: the six diagnostics over rho = 20..46.

Runs ``topospec sweep`` over the grid into --out, which writes the record
table and its companions (sweep_records.csv, sweep_smoothed.csv,
sweep_correlations.json, manifest.json), then splits the records into the
Fig-3-style panel data (panel_a..f_*.csv, one diagnostic each) and the
persistence/gap overlay for the 36..42 window
(overlay_gap_vs_persistence.csv). Expect a few minutes of runtime; pass
--quick for a coarse grid.

Usage: python scripts/rho_sweep_full.py [--out runs/full] [--quick] [--seed 0]
"""

import argparse
import csv
import sys
from pathlib import Path

from topospec import cli
from topospec.serialize import write_csv

PANELS = {
    "panel_a_spectral_entropy": "h_spec",
    "panel_b_curvature": "f_curvature",
    "panel_c_fidelity": "fidelity_to_next",
    "panel_d_lyapunov": "lambda_max",
    "panel_e_h1_persistence": "ell_max_h1",
    "panel_f_gap": "gamma",
}
OVERLAY = ("rho", "ell_max_h1", "delta1_susy_sim")
OVERLAY_WINDOW = (36.0, 42.0)


def split_panels(out: Path) -> None:
    """Write the panel and overlay CSVs from the sweep's records in ``out``,
    copying each cell as the sweep wrote it."""
    with open(out / "sweep_records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    for fname, col in PANELS.items():
        write_csv(out / f"{fname}.csv", ("rho", col), [(r["rho"], r[col]) for r in records])
    lo, hi = OVERLAY_WINDOW
    write_csv(
        out / "overlay_gap_vs_persistence.csv",
        OVERLAY,
        [[r[c] for c in OVERLAY] for r in records if lo <= float(r["rho"]) <= hi],
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/full")
    ap.add_argument("--quick", action="store_true", help="step 2 instead of 1")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    grid = "20:46:2" if args.quick else "20:46:1"
    rc = cli.main(["--seed", str(args.seed), "--out", args.out, "sweep", "--grid", grid])
    if rc != 2:  # a failed rho point still leaves a record row
        split_panels(Path(args.out))
    return rc


if __name__ == "__main__":
    sys.exit(main())
