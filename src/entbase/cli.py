"""Config-driven scenario runner.

Verbs: ``run <config>`` (single observation, writes visibility.csv,
intensity.csv and summary.json), ``sweep <config> --param --values``
(one CSV row per swept value), ``validate`` (invariant suite).
Exit codes: 0 success, 1 invalid config or arguments (message names the
offending key or argument), 2 runtime failure (message names the error).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import elementwise as ew
from .config import ConfigError, check_phase, load_config, parse_sweep_args, swept_config
from .imaging import observe_and_image, resolution, resource_figures, true_visibility
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


def _log_rate_columns(r_abs):
    """The ln_R_M and log10_R_M columns of the rates r_abs: -inf where a rate is 0 or nan.

    A float rate gives two floats, an array of rates two arrays. ln is libm's
    math.log element by element (np.log may differ from it in the last bit);
    log10 is ln / ln(10), one IEEE division, the same bits in numpy.
    """
    if isinstance(r_abs, float):
        ln_r = math.log(r_abs) if r_abs > 0.0 else -math.inf
        return ln_r, ln_r / math.log(10.0)
    positive = r_abs > 0.0
    ln_r = np.full(r_abs.shape, -math.inf)
    ln_r[positive] = list(map(math.log, r_abs[positive].tolist()))
    return ln_r, ln_r / math.log(10.0)


def write_csv(path: Path, header, columns, formats=None):
    """Write path, creating its directory: header, then one row per cell of columns.

    Every CSV the package and its scripts write goes through here. A cell is
    %.17g of its value (what format(x, ".17g") writes, in one call per row)
    unless formats maps its column's name to another %-format: %d for an
    integer column, since %.17g would round integers above 2**53. Rows end in
    "\n" on every platform.

    A column is an iterable with one cell per row, or a Python scalar: one cell for
    every row. A scalar, and an array whose cells all hold the same bytes (so 0.0 and
    -0.0, or two nan payloads, never merge), is formatted once into the row template;
    only the other columns are formatted per row.
    """
    formats = [(formats or {}).get(name, "%.17g") for name in header]
    varying, n_rows = [], 0
    for j, column in enumerate(columns):
        if isinstance(column, np.ndarray):
            n_rows = column.size
            # a bytes comparison costs ~0.4 us, less than %.17g of two cells; an
            # int64 view's == costs more and pages in 128 KB of numpy's int64 loops
            cells = column.tobytes()
            if cells != cells[:column.itemsize] * n_rows:
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
    resource_factory = cfg.channel.resource_factory()
    report = observe_and_image(
        sky=cfg.sky, plan=cfg.plan, resource_factory=resource_factory,
        settings=cfg.settings, n_per_setting=cfg.n_per_setting, seed=cfg.seed,
        rates=cfg.rates, theta_grid=cfg.theta_grid,
        rate_norm_fn=cfg.channel.rate_norm_fn())

    outdir = Path(cfg.output_dir)
    est = report.estimates
    ln_r, log10_r = _log_rate_columns(report.rate_abs)
    write_csv(outdir / "visibility.csv", VISIBILITY_HEADER,
              (report.baselines, map(abs, report.v_true),
               map(wrap_phase, map(cmath.phase, report.v_true)), est.V_a_hat,
               est.V_p_hat, est.dV_a, est.dV_p, est.xi_used, est.C_used, report.rate_norm,
               ln_r, log10_r, est.N_used), VISIBILITY_FORMATS)
    write_csv(outdir / "intensity.csv", INTENSITY_HEADER,
              (report.theta_grid, report.intensity_true,
               report.intensity_exact, report.intensity_est))

    # the worst baseline has the largest amplitude trend scale 1/(C sqrt(xi R_X)),
    # the first one on ties; every resource figure below is taken there
    worst = int(np.argmin(est.C_used * np.sqrt(est.xi_used)))
    c_worst = est.C_used[worst]
    resource = resource_factory(cfg.plan.baselines[worst])
    scales = scaling_laws(resource, cfg.rates.R_E)  # R_X: the network-supplied photon fraction
    max_dva, max_dvp = float(est.dV_a.max()), float(est.dV_p.max())
    summary = {
        "channel": cfg.channel.kind,
        "wavelength": cfg.sky.wavelength,
        "B_max": cfg.plan.B_m,
        "n_baselines": len(report.baselines),
        "N_per_setting": cfg.n_per_setting,
        "seed": cfg.seed,
        "resolution": resolution(cfg.plan.B_m, cfg.sky.wavelength),
        "xi": est.xi_used[worst],
        "C": c_worst,
        "R_M_norm": report.rate_norm[worst],
        "dVa_scale": scales.dV_a_scale,
        "dVp_scale": scales.dV_p_scale,
        "dI": math.hypot(max_dva, max_dvp),
        "dI_scale": math.hypot(scales.dV_a_scale, scales.dV_p_scale),
        "error_regime": ("phase-limited" if c_worst >= PHASE_LIMITED_CONCURRENCE
                         else "amplitude-limited"),
        "low_confidence": max_dva > LOW_CONFIDENCE_DVA or max_dvp > LOW_CONFIDENCE_DVP,
        # estimates more than three of their dV_a above |V| = 1, imaged unclipped
        "n_above_unit": int(np.count_nonzero(est.V_a_hat > 1.0 + 3.0 * est.dV_a + 1e-12)),
        "resource_state": _resource_state(resource),
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
    resource = cfg.channel.resource_factory()(b_eval)
    # each figure an (n,) array, or one float when it is the same in every row
    xi, conc, r_norm, r_abs = (
        column if isinstance(column, np.ndarray) else float(column)
        for column in resource_figures(resource, b_eval, cfg.rates, cfg.channel.rate_norm_fn()))
    ln_r, log10_r = _log_rate_columns(r_abs)
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
              (swept, xi, conc, r_norm, ln_r, log10_r, rmse_a, rmse_p), SWEEP_FORMATS)
    if gnuplot:
        _emit_gnuplot(outdir, "sweep")
    return 0


def cmd_validate() -> int:
    from . import validation  # the suite and its references stay out of run and sweep
    return 0 if validation.run_all() else 1


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
    return parser


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
    except _ArgumentsError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 1
    try:
        if args.verb == "run":
            return cmd_run(args.config, gnuplot=args.gnuplot)
        if args.verb == "sweep":
            values, replicates = parse_sweep_args(args.values, args.mc_replicates)
            return cmd_sweep(args.config, args.param, values, mc_replicates=replicates,
                             gnuplot=args.gnuplot)
        return cmd_validate()
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
