#!/usr/bin/env python3
"""Monte Carlo study of visibility-estimate errors against sample size and
resource quality (concurrence and subspace weight).

Produces two CSVs: rmse_vs_n.csv (log-log slope should be -1/2) and
rmse_vs_resource.csv, where rmse_V_a * C * sqrt(xi) and
rmse_V_p * sqrt(xi) stay flat across the grid when the incident-photon
budget is held fixed and the postselected sample scales with xi.
"""

import argparse
import math
import time
from pathlib import Path

import numpy as np

from entbase.protocol import PhaseSettings, derive_seed, replicate_rmse
from entbase.qcore import AstroVisibility, XState

SETTINGS = PhaseSettings(0.0, 0.5 * math.pi)


def resource(conc, xi):
    return XState(a=1.0 - xi, g=xi / 2, f=xi / 2, h=0.0, w_a=conc * xi / 2)


def rmse(points, replicates, seed):
    """(rmse_V_a, rmse_V_p) of each (v, x, n, tag) point, seeded by derive_seed(seed, tag),
    and the perf_counter seconds of the one replicate_rmse call whose rows they are.
    """
    rows = [(v, x, SETTINGS, n, np.random.default_rng(derive_seed(seed, tag)))
            for v, x, n, tag in points]
    start = time.perf_counter()
    r_a, r_p = replicate_rmse(rows, replicates)
    return zip(r_a.tolist(), r_p.tolist()), time.perf_counter() - start


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

    v = AstroVisibility(0.7, 0.9)
    ideal = resource(1.0, 1.0)
    path_n = outdir / "rmse_vs_n.csv"
    with open(path_n, "w", encoding="utf-8") as fh:
        fh.write("N,rmse_V_a,rmse_V_p\n")
        pts = []
        ns = (10 ** 3, 10 ** 4, 10 ** 5)
        errors, seconds = rmse([(v, ideal, n, n) for n in ns], args.replicates, args.seed)
        for n, (r_a, r_p) in zip(ns, errors):
            pts.append((math.log10(n), math.log10(r_a)))
            fh.write(f"{n},{r_a:.17g},{r_p:.17g}\n")
    slope = np.polyfit(*zip(*pts), 1)[0]
    print(f"wrote {path_n}; RMSE(V_a) log-log slope = {slope:.3f} (expect -0.5)")

    grid = (0.3, 0.6, 1.0)
    path_r = outdir / "rmse_vs_resource.csv"
    with open(path_r, "w", encoding="utf-8") as fh:
        fh.write("C,xi,N_post,rmse_V_a,rmse_V_p,rmse_V_a_CsqrtXi,rmse_V_p_sqrtXi\n")
        cells = [(conc, xi, int(round(args.budget * xi / 2.0))) for conc in grid for xi in grid]
        # hold the fringe amplitude V_a * C fixed across the grid
        points = [(AstroVisibility(0.21 / conc, 0.9), resource(conc, xi), n_post,
                   int(1000 * conc + 10 * xi)) for conc, xi, n_post in cells]
        errors, grid_seconds = rmse(points, args.replicates, args.seed)
        for (conc, xi, n_post), (r_a, r_p) in zip(cells, errors):
            fh.write(f"{conc},{xi},{n_post},{r_a:.17g},{r_p:.17g},"
                     f"{r_a * conc * math.sqrt(xi):.17g},"
                     f"{r_p * math.sqrt(xi):.17g}\n")
    print(f"wrote {path_r}")
    # the engine's own time: at the default sizes the process is mostly Python start-up
    row_replicates = (len(ns) + len(points)) * args.replicates
    print(f"replicate_rmse: {row_replicates} row-replicates in "
          f"{seconds + grid_seconds:.6f} s")


if __name__ == "__main__":
    main()
