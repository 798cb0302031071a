#!/usr/bin/env python3
"""Monte Carlo study of visibility-estimate errors against sample size and
resource quality (concurrence and subspace weight).

Produces two CSVs: rmse_vs_n.csv (log-log slope should be -1/2) and
rmse_vs_resource.csv, where rmse_V_a * C * sqrt(xi) and
rmse_V_p * sqrt(xi) stay flat across the grid when the incident-photon
budget is held fixed and the postselected sample scales with xi. The tables
are those `entbase validate` asserts: entbase.validation's rmse_vs_n, rmse_vs_resource.
"""

import argparse
import time
from pathlib import Path

# numpy loads numpy.random on its first use: loaded here, that stays out of the timing
import numpy.random  # noqa: F401

from entbase.cli import write_csv
from entbase.validation import n_slope, rmse_vs_n, rmse_vs_resource


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicates", type=int, default=200)
    ap.add_argument("--budget", type=int, default=100_000,
                    help="incident-photon budget per phase setting")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="out/error_scaling")
    args = ap.parse_args()

    # the tables' in-process time, nearly all of it replicate_rmse's (unlike the process's)
    start = time.perf_counter()
    by_n = rmse_vs_n(args.seed, args.replicates)
    by_resource = rmse_vs_resource(args.seed, args.replicates, args.budget)
    seconds = time.perf_counter() - start

    outdir = Path(args.out)
    path_n, path_r = outdir / "rmse_vs_n.csv", outdir / "rmse_vs_resource.csv"
    write_csv(path_n, ("N", "rmse_V_a", "rmse_V_p"), zip(*by_n), {"N": "%d"})
    print(f"wrote {path_n}; RMSE(V_a) log-log slope = {n_slope(by_n):.3f} (expect -0.5)")
    # the grid's C and xi cells are str of the grid's floats: 0.3, not 0.29999999999999999
    write_csv(path_r, ("C", "xi", "N_post", "rmse_V_a", "rmse_V_p", "rmse_V_a_CsqrtXi",
                       "rmse_V_p_sqrtXi"),
              zip(*by_resource), {"C": "%s", "xi": "%s", "N_post": "%d"})
    print(f"wrote {path_r}")
    row_replicates = (len(by_n) + len(by_resource)) * args.replicates
    print(f"replicate_rmse: {row_replicates} row-replicates in {seconds:.6f} s")


if __name__ == "__main__":
    main()
