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
from entbase.config import ChannelConfig
from entbase.imaging import resource_figures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L0", type=float, default=10.0, help="fiber attenuation length")
    ap.add_argument("--beta", type=float, default=0.1, help="depolarization inverse length")
    ap.add_argument("--B-max", type=float, default=80.0)
    ap.add_argument("--points", type=int, default=81)
    ap.add_argument("--out", default="out/rates")
    args = ap.parse_args()

    rates = RateModel(1.0, 1.0)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    baselines = np.linspace(0.0, args.B_max, args.points)
    # the resources and rates `sweep` computes for these channels, all baselines at once
    fiber = ChannelConfig("amplitude_damping", {"L0": args.L0}).resource_factory()
    depol = ChannelConfig("depolarizing", {"beta": args.beta}).resource_factory()
    r_fiber = resource_figures(fiber(baselines), baselines, rates, None)[3]
    r_depol = resource_figures(depol(baselines), baselines, rates, None)[3]

    rows = []
    for b, r_f, r_d in zip(baselines.tolist(), r_fiber.tolist(), r_depol.tolist()):
        approx = log_rate_depol_approx(b, args.beta, rates)
        # R_ideal_norm = 0.5: perfect distribution
        rows.append((b, r_f, r_d, 0.5, approx.value if approx.in_regime else math.nan))

    path = outdir / "rate_vs_baseline.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("B,R_fiber_norm,R_depol_norm,R_ideal_norm,ln_R_depol_approx\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")
    print(f"fiber slope check: d(ln R)/dB = {-1 / (2 * args.L0):.6f} expected")


if __name__ == "__main__":
    main()
