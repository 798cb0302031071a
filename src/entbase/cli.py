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

from .config import ConfigError, load_config, swept_fields
from .imaging import observe_and_image, resolution, resource_figures, true_visibility
# parse_config and run_observation are unused here but stay bound: the benchmark
# tracer rebinds them by name
from .config import parse_config  # noqa: F401
from .protocol import (  # noqa: F401
    derive_seed, replicate_rmse, run_observation, scaling_laws)
from .qcore import AstroVisibility, XState, wrap_phase

__all__ = ["main"]


def _csv_template(header, formats=None) -> str:
    """The %-template of one CSV row: %.17g per column unless formats names another.

    %.17g writes each double as format(x, ".17g") would, in one call per row;
    an integer column takes %d, since %.17g would round integers above 2**53.
    """
    formats = formats or {}
    return ",".join(formats.get(name, "%.17g") for name in header) + "\n"


VISIBILITY_HEADER = ("B", "V_a_true", "V_p_true", "V_a_hat", "V_p_hat", "dV_a", "dV_p",
                     "xi", "C", "R_M_norm", "ln_R_M", "log10_R_M", "N")
VISIBILITY_TEMPLATE = _csv_template(VISIBILITY_HEADER, {"N": "%d"})
INTENSITY_HEADER = ("theta", "I_true", "I_exact", "I_est")
INTENSITY_TEMPLATE = _csv_template(INTENSITY_HEADER)
SWEEP_HEADER = ("value", "xi", "C", "R_M_norm", "ln_R_M", "log10_R_M", "rmse_V_a", "rmse_V_p")
# the RMSE cells arrive as text from _optional_cell: empty when there is no value
SWEEP_TEMPLATE = _csv_template(SWEEP_HEADER, {"rmse_V_a": "%s", "rmse_V_p": "%s"})


def _optional_cell(x) -> str:
    return "" if x is None else "%.17g" % x


def _log_rates(r_abs) -> tuple[float, float]:
    """The ln_R_M and log10_R_M cells of the rate r_abs: both -inf when it is 0."""
    ln_r = math.log(r_abs) if r_abs > 0.0 else -math.inf
    return ln_r, ln_r / math.log(10.0) if math.isfinite(ln_r) else -math.inf


def _write_csv(path: Path, header, template: str, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % row for row in rows)


def _resource_state(x: XState) -> list:
    """summary.json's resource_state: x's 4x4 density matrix as rows of [re, im] pairs.

    Built from the fields XState has already checked. Each upper coherence is
    the conjugate of the lower one, so a lower imaginary part 0.0 is -0.0 above.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = x.a, x.g, x.f, x.h
    m[2, 1] = x.w_a * np.exp(1j * x.w_p)
    m[3, 0] = x.z_a * np.exp(1j * x.z_p)
    m[1, 2], m[0, 3] = np.conj(m[2, 1]), np.conj(m[3, 0])
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _emit_gnuplot(outdir: Path, kind: str):
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
    ]
    if kind == "run":
        lines += [
            "set terminal pngcairo size 900,600",
            "set output 'visibility.png'",
            "set xlabel 'baseline'",
            "set ylabel 'visibility amplitude'",
            "plot 'visibility.csv' using 1:2 with lines, '' using 1:4:6 with yerrorbars",
            "set output 'intensity.png'",
            "set xlabel 'angle [rad]'",
            "set ylabel 'intensity'",
            "plot 'intensity.csv' using 1:2 with lines, '' using 1:3 with lines, "
            "'' using 1:4 with lines",
        ]
    else:
        lines += [
            "set terminal pngcairo size 900,600",
            "set output 'sweep.png'",
            "set xlabel 'swept value'",
            "set ylabel 'ln R_M'",
            "plot 'sweep.csv' using 1:5 with linespoints",
        ]
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
    outdir.mkdir(parents=True, exist_ok=True)

    est = report.estimates
    vis_rows = []
    for b, v_c, v_a, v_p, dv_a, dv_p, xi, conc, r_norm, r_abs in zip(
            report.baselines, report.v_true, est.V_a_hat, est.V_p_hat, est.dV_a, est.dV_p,
            est.xi_used, est.C_used, report.rate_norm, report.rate_abs):
        vis_rows.append((
            b, abs(v_c), wrap_phase(cmath.phase(v_c)), v_a, v_p, dv_a, dv_p, xi, conc, r_norm,
            *_log_rates(r_abs), est.N_used,
        ))
    _write_csv(outdir / "visibility.csv", VISIBILITY_HEADER, VISIBILITY_TEMPLATE, vis_rows)
    _write_csv(outdir / "intensity.csv", INTENSITY_HEADER, INTENSITY_TEMPLATE,
               zip(report.theta_grid, report.intensity_true,
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
    base = load_config(config_path)
    if param in ("B", "L") and min(values) < 0.0:
        raise ConfigError(f"sweep.{param}", "baseline must be nonnegative")
    # every value is validated before any row is computed
    changes = [swept_fields(base, param, value) for value in values]
    rows = []
    channel = base.channel
    resource_factory, rate_norm_fn = channel.resource_factory(), channel.rate_norm_fn()
    for row_index, (value, changed) in enumerate(zip(values, changes)):
        if "channel" in changed:  # a channel sweep: each row has a channel of its own
            channel = changed["channel"]
            resource_factory, rate_norm_fn = channel.resource_factory(), channel.rate_norm_fn()
        b_eval = float(value) if param in ("B", "L") else base.plan.B_m
        resource = resource_factory(b_eval)
        xi, conc, r_norm, r_abs = resource_figures(
            resource, b_eval, changed.get("rates", base.rates), rate_norm_fn)
        rmse_va = rmse_vp = None
        # C is nan with no coincidence weight and 0 with no coherence: a dead
        # resource, whose RMSE cells stay empty
        if mc_replicates > 0 and conc > 0.0:
            v_c = true_visibility(base.sky, b_eval)
            v = AstroVisibility(abs(v_c), cmath.phase(v_c))
            rng = np.random.default_rng(derive_seed(base.seed, row_index))
            rmse_va, rmse_vp = replicate_rmse(
                v, resource, changed.get("settings", base.settings),
                changed.get("n_per_setting", base.n_per_setting), mc_replicates, rng)
        rows.append((value, xi, conc, r_norm, *_log_rates(r_abs),
                     _optional_cell(rmse_va), _optional_cell(rmse_vp)))

    outdir = Path(base.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "sweep.csv", SWEEP_HEADER, SWEEP_TEMPLATE, rows)
    if gnuplot:
        _emit_gnuplot(outdir, "sweep")
    return 0


def cmd_validate() -> int:
    from . import validation  # the suite and its references stay out of run and sweep
    return 0 if validation.run_all() else 1


def _parse_values(raw: str):
    try:
        values = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("sweep.values", f"not a comma-separated number list: {raw!r}")
    if not values:
        raise ConfigError("sweep.values", f"no values given: {raw!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("sweep.values", f"values must be finite: {raw!r}")
    return values


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


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _ArgumentsError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 1
    try:
        if args.verb == "run":
            return cmd_run(args.config, gnuplot=args.gnuplot)
        if args.verb == "sweep":
            if args.mc_replicates < 0:
                raise ConfigError("sweep.mc_replicates", "must be nonnegative")
            return cmd_sweep(args.config, args.param, _parse_values(args.values),
                             mc_replicates=args.mc_replicates, gnuplot=args.gnuplot)
        return cmd_validate()
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
