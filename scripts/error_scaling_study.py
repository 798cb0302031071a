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

from entbase.validation import n_slope, rmse_vs_n, rmse_vs_resource


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicates", type=int, default=200)
    ap.add_argument("--budget", type=int, default=100_000,
                    help="incident-photon budget per phase setting")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="out/error_scaling")
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    # the tables' in-process time, nearly all of it replicate_rmse's (unlike the process's)
    start = time.perf_counter()
    by_n = rmse_vs_n(args.seed, args.replicates)
    by_resource = rmse_vs_resource(args.seed, args.replicates, args.budget)
    seconds = time.perf_counter() - start

    path_n = outdir / "rmse_vs_n.csv"
    with open(path_n, "w", encoding="utf-8") as fh:
        fh.write("N,rmse_V_a,rmse_V_p\n")
        for n, r_a, r_p in by_n:
            fh.write(f"{n},{r_a:.17g},{r_p:.17g}\n")
    print(f"wrote {path_n}; RMSE(V_a) log-log slope = {n_slope(by_n):.3f} (expect -0.5)")

    path_r = outdir / "rmse_vs_resource.csv"
    with open(path_r, "w", encoding="utf-8") as fh:
        fh.write("C,xi,N_post,rmse_V_a,rmse_V_p,rmse_V_a_CsqrtXi,rmse_V_p_sqrtXi\n")
        for conc, xi, n_post, *errors in by_resource:
            fh.write(f"{conc},{xi},{n_post}," + ",".join(f"{e:.17g}" for e in errors) + "\n")
    print(f"wrote {path_r}")
    row_replicates = (len(by_n) + len(by_resource)) * args.replicates
    print(f"replicate_rmse: {row_replicates} row-replicates in {seconds:.6f} s")


if __name__ == "__main__":
    main()
