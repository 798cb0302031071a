#!/usr/bin/env python3
"""Coincidence rate against baseline for the bundled channel families.

Writes one CSV per channel (lossy fiber, birefringent/depolarizing fiber,
perfect distribution) with normalized and log rates, ready to plot. The
fiber curve is exactly linear in log space; the depolarizing curve flattens
onto its 5/18 asymptote.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from entbase.channels import RateModel, log_rate_depol_approx
from entbase.cli import write_csv
from entbase.validation import channel_rates


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L0", type=float, default=10.0, help="fiber attenuation length")
    ap.add_argument("--beta", type=float, default=0.1, help="depolarization inverse length")
    ap.add_argument("--B-max", type=float, default=80.0)
    ap.add_argument("--points", type=int, default=81)
    ap.add_argument("--out", default="out/rates")
    args = ap.parse_args()

    rates = RateModel(1.0, 1.0)
    baselines = np.linspace(0.0, args.B_max, args.points)
    # the rates `sweep` computes for these channels, the curves `entbase validate` checks
    r_fiber = channel_rates("amplitude_damping", {"L0": args.L0}, rates, baselines)[0]
    r_depol = channel_rates("depolarizing", {"beta": args.beta}, rates, baselines)[0]

    approx = [log_rate_depol_approx(b, args.beta, rates) for b in baselines.tolist()]
    path = Path(args.out) / "rate_vs_baseline.csv"
    # R_ideal_norm = 0.5: perfect distribution
    write_csv(path, ("B", "R_fiber_norm", "R_depol_norm", "R_ideal_norm", "ln_R_depol_approx"),
              (baselines, r_fiber, r_depol, 0.5,
               [a.value if a.in_regime else math.nan for a in approx]))
    print(f"wrote {path} ({baselines.size} rows)")
    print(f"fiber slope check: d(ln R)/dB = {-1 / (2 * args.L0):.6f} expected")


if __name__ == "__main__":
    main()
