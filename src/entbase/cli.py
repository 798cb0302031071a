"""Config-driven scenario runner, and the package's one command line.

Verbs: ``run <config>`` (single observation, writes visibility.csv,
intensity.csv and summary.json), ``sweep <config> --param --values``
(one CSV row per swept value), ``validate`` (invariant suite), ``study
rates`` and ``study errors`` (the paper's two studies, written as CSVs).
Exit codes: 0 success, 1 invalid config or arguments (message names the
offending key or option), 2 runtime failure (message names the error).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import elementwise as ew
from .channels import RateModel, log_rate_depol_approx
from .config import (ChannelConfig, ConfigError, check_phase, check_study_option, load_config,
                     parse_sweep_args, swept_config)
from .imaging import observe_and_image, resolution, true_visibility
# parse_config and run_observation are unused here but stay bound: the benchmark
# tracer rebinds them by name
from .config import parse_config  # noqa: F401
from .protocol import (  # noqa: F401
    derive_seed, replicate_rmse, run_observation, scaling_laws)
from .qcore import AstroVisibility, XState, wrap_phase

__all__ = ["main", "write_csv"]


VISIBILITY_HEADER = ("B", "V_a_true", "V_p_true", "V_a_hat", "V_p_hat", "dV_a", "dV_p",
                     "xi", "C", "R_M_norm", "ln_R_M", "log10_R_M", "N")
VISIBILITY_FORMATS = {"N": "%d"}
INTENSITY_HEADER = ("theta", "I_true", "I_exact", "I_est")
SWEEP_HEADER = ("value", "xi", "C", "R_M_norm", "ln_R_M", "log10_R_M", "rmse_V_a", "rmse_V_p")
# the RMSE cells arrive as text: "%.17g" of the value, or empty when there is none
SWEEP_FORMATS = {"rmse_V_a": "%s", "rmse_V_p": "%s"}


def write_csv(path: Path, header, columns, formats=None):
    """Write path, creating its directory: header, then one row per cell of columns.

    Every CSV the package writes (run, sweep and both study verbs) goes through here. A cell is
    %.17g of its value (what format(x, ".17g") writes, in one call per row)
    unless formats maps its column's name to another %-format: %d for an
    integer column, since %.17g would round integers above 2**53. Rows end in
    "\n" on every platform.

    A column is an iterable with one cell per row, or a Python scalar: one cell for
    every row. A scalar, and a nonempty array whose cells all hold the same bytes (so
    0.0 and -0.0, or two nan payloads, never merge), is formatted once into the row
    template; only the other columns are formatted per row (an empty array: no rows).
    """
    formats = [(formats or {}).get(name, "%.17g") for name in header]
    varying, n_rows = [], 0
    for j, column in enumerate(columns):
        if isinstance(column, np.ndarray):
            n_rows = column.size
            # a bytes comparison costs ~0.4 us, less than %.17g of two cells; an
            # int64 view's == costs more and pages in 128 KB of numpy's int64 loops
            cells = column.tobytes()
            if not n_rows or cells != cells[:column.itemsize] * n_rows:
                varying.append(column.tolist())
                continue
            column = column.item(0)
        elif not isinstance(column, (int, float, str)):
            varying.append(column)
            continue
        formats[j] = (formats[j] % column).replace("%", "%%")
    row_template = ",".join(formats) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if varying:
            fh.writelines(row_template % row for row in zip(*varying))
        else:  # every column formatted once: n_rows copies of one row
            fh.write(row_template % () * n_rows)


def _resource_state(x: XState) -> list:
    """summary.json's resource_state: x's 4x4 density matrix as rows of [re, im] pairs."""
    m = x.density_matrix()
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _emit_gnuplot(outdir: Path, kind: str):
    plots = [
        "set output 'visibility.png'",
        "set xlabel 'baseline'",
        "set ylabel 'visibility amplitude'",
        "plot 'visibility.csv' using 1:2 with lines, '' using 1:4:6 with yerrorbars",
        "set output 'intensity.png'",
        "set xlabel 'angle [rad]'",
        "set ylabel 'intensity'",
        "plot 'intensity.csv' using 1:2 with lines, '' using 1:3 with lines, "
        "'' using 1:4 with lines",
    ] if kind == "run" else [
        "set output 'sweep.png'",
        "set xlabel 'swept value'",
        "set ylabel 'ln R_M'",
        "plot 'sweep.csv' using 1:5 with linespoints",
    ]
    lines = ["set datafile separator ','", "set key autotitle columnhead",
             "set terminal pngcairo size 900,600", *plots]
    (outdir / "plot.gp").write_text("\n".join(lines) + "\n", encoding="utf-8")


# Above this concurrence the phase error dominates the intensity error budget.
PHASE_LIMITED_CONCURRENCE = 0.9
# Error bars beyond these are treated as carrying no usable information.
LOW_CONFIDENCE_DVA = 0.5
LOW_CONFIDENCE_DVP = 0.5 * math.pi


def cmd_run(config_path: str, gnuplot: bool = False) -> int:
    cfg = load_config(config_path)
    if len(cfg.plan.baselines) < 2:  # sweep evaluates one baseline; the map needs two
        raise ConfigError("baselines", "run needs at least two baselines to image")
    report = observe_and_image(
        sky=cfg.sky, plan=cfg.plan, resource_factory=cfg.channel.resource_factory(),
        settings=cfg.settings, n_per_setting=cfg.n_per_setting, seed=cfg.seed,
        theta_grid=cfg.theta_grid)
    resource, table = cfg.channel.resource_table(report.baselines, cfg.rates)
    xi, conc, r_norm = table[:3]

    outdir = Path(cfg.output_dir)
    est = report.estimates
    write_csv(outdir / "visibility.csv", VISIBILITY_HEADER,
              (report.baselines, map(abs, report.v_true),
               map(wrap_phase, map(cmath.phase, report.v_true)), est.V_a_hat,
               est.V_p_hat, est.dV_a, est.dV_p, *table, cfg.n_per_setting), VISIBILITY_FORMATS)
    write_csv(outdir / "intensity.csv", INTENSITY_HEADER,
              (report.theta_grid, report.intensity_true,
               report.intensity_exact, report.intensity_est))

    # the worst baseline has the largest amplitude trend scale 1/(C sqrt(xi R_X)),
    # the first one on ties; every resource figure below is taken there
    worst = int(np.argmin(conc * np.sqrt(xi)))
    c_worst, state = ew.item(conc, worst), resource.row(worst)
    scales = scaling_laws(state, cfg.rates.R_E)  # R_X: the network-supplied photon fraction
    max_dva, max_dvp = float(est.dV_a.max()), float(est.dV_p.max())
    summary = {
        "channel": cfg.channel.kind,
        "wavelength": cfg.sky.wavelength,
        "B_max": cfg.plan.B_m,
        "n_baselines": len(report.baselines),
        "N_per_setting": cfg.n_per_setting,
        "seed": cfg.seed,
        "resolution": resolution(cfg.plan.B_m, cfg.sky.wavelength),
        "xi": ew.item(xi, worst),
        "C": c_worst,
        "R_M_norm": ew.item(r_norm, worst),
        "dVa_scale": scales.dV_a_scale,
        "dVp_scale": scales.dV_p_scale,
        "dI": math.hypot(max_dva, max_dvp),
        "dI_scale": math.hypot(scales.dV_a_scale, scales.dV_p_scale),
        "error_regime": ("phase-limited" if c_worst >= PHASE_LIMITED_CONCURRENCE
                         else "amplitude-limited"),
        "low_confidence": max_dva > LOW_CONFIDENCE_DVA or max_dvp > LOW_CONFIDENCE_DVP,
        # estimates more than three of their dV_a above |V| = 1, imaged unclipped
        "n_above_unit": int(np.count_nonzero(est.V_a_hat > 1.0 + 3.0 * est.dV_a + 1e-12)),
        "resource_state": _resource_state(state),
    }
    # RFC 8259 has no NaN or Infinity: a non-finite figure (the trend scales at R_E = 0) is null
    summary = {key: None if isinstance(v, float) and not math.isfinite(v) else v
               for key, v in summary.items()}
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    (outdir / "summary.json").write_text(text + "\n", encoding="utf-8", newline="\n")
    if gnuplot:
        _emit_gnuplot(outdir, "run")
    return 0


def cmd_sweep(config_path: str, param: str, values, mc_replicates: int = 0,
              gnuplot: bool = False) -> int:
    swept = np.asarray(values, dtype=float)
    n = swept.size
    # the config, then the swept array through its section's parser, before any row is
    # computed: the array stands in for its parameter in every row at once. N, w1 and
    # w2 leave the resource as it is, and R_E, R_T only scale the rate.
    cfg = swept_config(load_config(config_path), param, swept)
    b_eval = swept if param in ("B", "L") else cfg.plan.B_m
    resource, table = cfg.channel.resource_table(b_eval, cfg.rates)
    conc = table[1]
    rmse_a = rmse_p = ""
    # C is nan with no coincidence weight and 0 with no coherence: a dead
    # resource, whose RMSE cells stay empty
    live = [r for r in range(n) if ew.item(conc, r) > 0.0] if mc_replicates > 0 else []
    if live:
        rmse_a, rmse_p = [""] * n, [""] * n
        # the sky at each row's evaluation baseline, once its phase passes check_phase
        # (the base config's B_max has passed it); each row draws from its own
        # generator, and one replicate_rmse call inverts them all
        observations = []
        for r in live:
            b = ew.item(b_eval, r)
            check_phase(f"sweep.{param}", b, (cfg.sky.max_phase(b),))
            v_c = true_visibility(cfg.sky, b)
            observations.append((AstroVisibility(abs(v_c), cmath.phase(v_c)), resource.row(r),
                                 cfg.settings.row(r), ew.item(cfg.n_per_setting, r),
                                 np.random.default_rng(derive_seed(cfg.seed, r))))
        va, vp = replicate_rmse(observations, mc_replicates)
        for r, a, p in zip(live, va.tolist(), vp.tolist()):
            rmse_a[r], rmse_p[r] = "%.17g" % a, "%.17g" % p

    outdir = Path(cfg.output_dir)
    write_csv(outdir / "sweep.csv", SWEEP_HEADER,
              (swept, *table, rmse_a, rmse_p), SWEEP_FORMATS)
    if gnuplot:
        _emit_gnuplot(outdir, "sweep")
    return 0


def cmd_validate() -> int:
    from . import validation  # the suite and its references stay out of run and sweep
    return 0 if validation.run_all() else 1


def cmd_study_rates(L0: float, beta: float, B_max: float, points: int, out: str) -> int:
    """rate_vs_baseline.csv: the fiber, depolarizing and perfect-distribution rate curves."""
    rates = RateModel(1.0, 1.0)
    baselines = np.linspace(0.0, B_max, points)
    # the R_M_norm columns `sweep` writes for these channels, the curves `entbase validate` checks
    r_fiber, r_depol = (ChannelConfig(kind, params).resource_table(baselines, rates)[1][2]
                        for kind, params in (("amplitude_damping", {"L0": L0}),
                                             ("depolarizing", {"beta": beta})))
    ln_approx, in_regime = log_rate_depol_approx(baselines, beta, rates)
    path = Path(out) / "rate_vs_baseline.csv"
    # R_ideal_norm = 0.5: perfect distribution
    write_csv(path, ("B", "R_fiber_norm", "R_depol_norm", "R_ideal_norm", "ln_R_depol_approx"),
              (baselines, r_fiber, r_depol, 0.5, np.where(in_regime, ln_approx, math.nan)))
    print(f"wrote {path} ({baselines.size} rows)")
    print(f"fiber slope check: d(ln R)/dB = {-1 / (2 * L0):.6f} expected")
    return 0


def cmd_study_errors(replicates: int, seed: int, budget: int, out: str) -> int:
    """rmse_vs_n.csv and rmse_vs_resource.csv: validation's two error-scaling tables."""
    from . import validation  # the studies and their references stay out of run and sweep
    import numpy.random  # noqa: F401 -- numpy loads it on first use: here, out of the timing
    if (fault := validation.budget_fault(budget)) is not None:
        raise _ArgumentsError(f"--budget: {fault}")
    # the tables' in-process time, nearly all of it replicate_rmse's (unlike the process's)
    start = time.perf_counter()
    by_n = validation.rmse_vs_n(seed, replicates)
    by_resource = validation.rmse_vs_resource(seed, replicates, budget)
    seconds = time.perf_counter() - start

    path_n, path_r = Path(out) / "rmse_vs_n.csv", Path(out) / "rmse_vs_resource.csv"
    write_csv(path_n, ("N", "rmse_V_a", "rmse_V_p"), zip(*by_n), {"N": "%d"})
    print(f"wrote {path_n}; RMSE(V_a) log-log slope = {validation.n_slope(by_n):.3f} "
          "(expect -0.5)")
    # the grid's C and xi cells are str of the grid's floats: 0.3, not 0.29999999999999999
    write_csv(path_r, ("C", "xi", "N_post", "rmse_V_a", "rmse_V_p", "rmse_V_a_CsqrtXi",
                       "rmse_V_p_sqrtXi"),
              zip(*by_resource), {"C": "%s", "xi": "%s", "N_post": "%d"})
    print(f"wrote {path_r}")
    row_replicates = (len(by_n) + len(by_resource)) * replicates
    print(f"replicate_rmse: {row_replicates} row-replicates in {seconds:.6f} s")
    return 0


class _ArgumentsError(Exception):
    """Malformed command-line arguments; the message names the argument."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and so its subparsers) that raises on a usage error instead of exiting 2."""

    def error(self, message):
        raise _ArgumentsError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main() call and reused by later ones."""
    parser = _Parser(prog="entbase",
                     description="Entanglement-assisted interferometry simulator")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one observation scenario")
    p_run.add_argument("config")
    p_run.add_argument("--gnuplot", action="store_true",
                       help="also emit a plain-text plotting script")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a value list")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list, e.g. 0,10,20")
    p_sweep.add_argument("--mc-replicates", type=int, default=0,
                         help="Monte Carlo replicates per value for the RMSE columns")
    p_sweep.add_argument("--gnuplot", action="store_true")

    sub.add_parser("validate", help="run the invariant suite")

    studies = sub.add_parser("study", help="write one of the paper's two study tables")
    study = studies.add_subparsers(dest="study", required=True)
    p_rates = study.add_parser("rates", help="coincidence rate against baseline")
    p_rates.add_argument("--L0", type=float, default=10.0, help="fiber attenuation length")
    p_rates.add_argument("--beta", type=float, default=0.1, help="depolarization inverse length")
    p_rates.add_argument("--B-max", type=float, default=80.0)
    p_rates.add_argument("--points", type=int, default=81)
    p_rates.add_argument("--out", default="out/rates")
    p_errors = study.add_parser("errors", help="visibility RMSE against N, C and xi")
    p_errors.add_argument("--replicates", type=int, default=200)
    p_errors.add_argument("--budget", type=int, default=100_000,
                          help="incident-photon budget per phase setting")
    p_errors.add_argument("--seed", type=int, default=42)
    p_errors.add_argument("--out", default="out/error_scaling")
    return parser


def _study_options(args, *options) -> list:
    """The study options' values, as config.check_study_option passes them; a refused one
    is an arguments error."""
    try:
        return [check_study_option(option, getattr(args, option[2:].replace("-", "_")))
                for option in options]
    except ConfigError as exc:
        raise _ArgumentsError(exc) from None


def _join_values(argv: list) -> list:
    """argv with each `--values LIST` pair given as one `--values=LIST` token.

    argparse reads a token that starts with '-' as an option unless it is a
    single negative number, so a list such as -1,0 would not reach the value
    check that names the bad value. An abbreviation (`--val`) is joined too;
    a following `--` option is left alone.
    """
    argv = list(argv)
    for i in reversed(range(len(argv) - 1)):
        option = argv[i]
        if len(option) > 2 and "--values".startswith(option) and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"{option}={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
        if args.verb == "run":
            return cmd_run(args.config, gnuplot=args.gnuplot)
        if args.verb == "sweep":
            values, replicates = parse_sweep_args(args.values, args.mc_replicates)
            return cmd_sweep(args.config, args.param, values, mc_replicates=replicates,
                             gnuplot=args.gnuplot)
        if args.verb == "validate":
            return cmd_validate()
        if args.study == "rates":
            return cmd_study_rates(*_study_options(args, "--L0", "--beta", "--B-max", "--points"),
                                   args.out)
        return cmd_study_errors(*_study_options(args, "--replicates", "--seed"), args.budget,
                                args.out)
    except _ArgumentsError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
