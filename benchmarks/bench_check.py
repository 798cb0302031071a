"""Output checks for benchmark operations.

The checks are statistical or recompute a quantity independently; none
compares bytes, so they keep holding when the program's seed scheme or
arithmetic order changes. A failed check raises :class:`CheckFailed`
carrying a short error class used in the benchmark's failure tally.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from bench_inputs import Op, visibility

VIS_HEADER = ["B", "V_a_true", "V_p_true", "V_a_hat", "V_p_hat", "dV_a", "dV_p",
              "xi", "C", "R_M_norm", "ln_R_M", "log10_R_M", "N"]
INT_HEADER = ["theta", "I_true", "I_exact", "I_est"]
SWEEP_HEADER = ["value", "xi", "C", "R_M_norm", "ln_R_M", "log10_R_M",
                "rmse_V_a", "rmse_V_p"]

# Statistical tolerances, in units of the reported one-sigma errors.
Z_OUTLIER = 5.0            # a visibility estimate this many sigma off is an outlier
MAX_OUTLIER_FRAC = 0.01    # ... and at most this share of baselines may be one
MAP_RMS_SIGMAS = 3.0       # RMS of (I_est - I_exact) against its predicted sigma
MAP_MAX_SIGMAS = 10.0
RMSE_SCALE_MAX = 3.0       # rmse_V_a * C * sqrt(N) must stay below this
RMSE_SCALE_MIN = 0.5       # ... and above this share of its binomial floor


class CheckFailed(Exception):
    """An operation's output failed a check; `kind` is its error class."""

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        super().__init__(f"{kind}: {detail}")


def _require(cond, kind: str, detail: str):
    if not cond:
        raise CheckFailed(kind, detail)


def _read_csv(path: Path, header: list) -> list:
    _require(path.is_file(), "missing_file", path.name)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, "parse", f"{path.name} header {rows[:1]}")
    return rows[1:]


def _numeric(rows: list, name: str, blank_ok: bool = False) -> np.ndarray:
    try:
        arr = np.array([[math.nan if (blank_ok and v == "") else float(v) for v in row]
                        for row in rows], dtype=float)
    except ValueError as exc:
        raise CheckFailed("parse", f"{name}: {exc}") from exc
    _require(arr.ndim == 2, "parse", f"{name}: ragged rows")
    return arr


def _finite(arr, name: str):
    _require(np.all(np.isfinite(arr)), "nonfinite", name)


def _close(a, b, name: str, rtol=1e-9, atol=1e-12):
    _require(np.allclose(a, b, rtol=rtol, atol=atol), "mismatch", name)


def check_op(op: Op):
    """Check the outputs of an operation that exited 0."""
    if op.argv[0] == "run":
        check_run(op)
    else:
        check_sweep(op)


def _trapezoid_weights(b_full: np.ndarray) -> np.ndarray:
    w = np.empty_like(b_full)
    w[1:-1] = 0.5 * (b_full[2:] - b_full[:-2])
    w[0] = 0.5 * (b_full[1] - b_full[0])
    w[-1] = 0.5 * (b_full[-1] - b_full[-2])
    return w


def _dirty_map(theta, b_pos, v_pos, wavelength):
    """Unnormalized dirty map at the given angles (independent re-derivation)."""
    b_full = np.concatenate([-b_pos[::-1], [0.0], b_pos])
    v_full = np.concatenate([np.conj(v_pos[::-1]), [1.0], v_pos])
    w = _trapezoid_weights(b_full)
    phases = np.exp(2j * math.pi * np.outer(theta, b_full) / wavelength)
    return (phases @ (w * v_full)).real, w[len(b_pos) + 1:]


def _scale_to(mapped: np.ndarray, reference: np.ndarray) -> float:
    """Least-squares factor s with reference ~= s * mapped."""
    return float(mapped @ reference / (mapped @ mapped))


def check_run(op: Op):
    cfg = op.config
    out = op.output_dir
    n = cfg["baselines"]["count"]
    b_max = cfg["baselines"]["B_max"]
    lam = cfg["wavelength"]
    n_per = cfg["N_per_setting"]

    vis = _numeric(_read_csv(out / "visibility.csv", VIS_HEADER), "visibility.csv")
    _require(vis.shape == (n, len(VIS_HEADER)), "shape", f"visibility.csv {vis.shape}")
    _finite(vis, "visibility.csv")
    b, va, vp, va_hat, vp_hat, dva, dvp, xi, conc, r_norm, ln_r, log10_r, n_col = vis.T
    _close(b, b_max * np.arange(1, n + 1) / n, "baselines")
    _require(np.all(n_col == n_per), "mismatch", "N column")
    v_true = visibility(cfg["sky"], lam, b)
    _require(np.abs(va * np.exp(1j * vp) - v_true).max() <= 1e-9, "mismatch",
             "V_true is not the sky's visibility")
    _require(np.all((xi > 0.0) & (xi <= 1.0 + 1e-12)), "range", "xi")
    _require(np.all((conc > 0.0) & (conc <= 1.0 + 1e-9)), "range", "C")
    _require(np.all((dva >= 0.0) & (dvp >= 0.0) & (dvp <= math.pi + 1e-12)), "range", "dV")
    r_abs = r_norm * cfg["rates"]["R_E"] * cfg["rates"]["R_T"]
    _close(ln_r, np.log(r_abs), "ln_R_M")
    _close(log10_r, ln_r / math.log(10.0), "log10_R_M")

    # estimates scatter around the truth on the scale of their own error bars
    z_a = np.abs(va_hat - va) / np.maximum(dva, 1e-300)
    _require(np.mean(z_a > Z_OUTLIER) <= MAX_OUTLIER_FRAC, "estimate",
             f"{np.mean(z_a > Z_OUTLIER):.3%} of V_a estimates beyond {Z_OUTLIER} sigma")
    phased = (va > 0.2) & (dvp < 0.5)
    if np.any(phased):
        dphi = np.angle(np.exp(1j * (vp_hat - vp)))[phased]
        z_p = np.abs(dphi) / np.maximum(dvp[phased], 1e-300)
        _require(np.mean(z_p > Z_OUTLIER) <= MAX_OUTLIER_FRAC, "estimate",
                 f"{np.mean(z_p > Z_OUTLIER):.3%} of V_p estimates beyond {Z_OUTLIER} sigma")

    inten = _numeric(_read_csv(out / "intensity.csv", INT_HEADER), "intensity.csv")
    _finite(inten, "intensity.csv")
    theta, i_true, i_exact, i_est = inten.T
    if "theta_grid" in cfg:
        tg = cfg["theta_grid"]
        _require(len(theta) == tg["count"], "shape", "theta grid count")
        _close(theta, np.linspace(-tg["half_span"], tg["half_span"], tg["count"]), "theta grid")
    else:
        _require(len(theta) >= 17 and np.all(np.diff(theta) > 0.0), "shape", "theta grid")
    for name, col in (("I_true", i_true), ("I_exact", i_exact), ("I_est", i_est)):
        _require(abs(col.sum() - 1.0) <= 1e-9, "normalization", f"{name} sums to {col.sum()}")
    _require(np.all(i_true >= 0.0), "range", "I_true")

    # I_exact is the normalized dirty map of the true visibilities: recompute
    # it at a few angles, fit the normalization, and compare shapes
    picks = np.unique(np.linspace(0, len(theta) - 1, 16).astype(int))
    m_exact, w_pos = _dirty_map(theta[picks], b, v_true, lam)
    s_exact = _scale_to(m_exact, i_exact[picks])
    _require(s_exact > 0.0 and np.allclose(s_exact * m_exact, i_exact[picks], rtol=1e-6,
                                           atol=1e-9 * np.abs(i_exact).max()),
             "map", "I_exact is not the dirty map of the true visibilities")
    v_hat = va_hat * np.exp(1j * vp_hat)
    m_est, _ = _dirty_map(theta[picks], b, v_hat, lam)
    s_est = _scale_to(m_est, i_est[picks])
    _require(s_est > 0.0 and np.allclose(s_est * m_est, i_est[picks], rtol=1e-6,
                                         atol=1e-9 * np.abs(i_est).max()),
             "map", "I_est is not the dirty map of the estimates")
    # I_est - I_exact in unnormalized units against the noise the error bars predict
    diff = i_est / s_est - i_exact / s_exact
    sigma = math.sqrt(float(np.sum(2.0 * w_pos ** 2
                                   * (dva ** 2 + np.maximum(va, va_hat) ** 2 * dvp ** 2))))
    rms = float(np.sqrt(np.mean(diff ** 2)))
    _require(rms <= MAP_RMS_SIGMAS * sigma and np.abs(diff).max() <= MAP_MAX_SIGMAS * sigma,
             "map", f"I_est off I_exact by rms {rms:.3g} vs sigma {sigma:.3g}")

    summary_path = out / "summary.json"
    _require(summary_path.is_file(), "missing_file", "summary.json")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckFailed("parse", f"summary.json: {exc}") from exc
    expect = {"channel": cfg["channel"]["kind"], "n_baselines": n,
              "N_per_setting": n_per, "seed": cfg["seed"]}
    for key, val in expect.items():
        _require(summary.get(key) == val, "mismatch", f"summary {key}")
    _close(summary.get("B_max", math.nan), b_max, "summary B_max")
    _close(summary.get("resolution", math.nan), lam / (2.0 * b_max), "summary resolution")
    numbers = [summary[k] for k in ("xi", "C", "R_M_norm", "dVa_scale", "dVp_scale",
                                    "dI", "dI_scale", "wavelength")]
    numbers += [x for row in summary["resource_state"] for pair in row for x in pair]
    _finite(np.array(numbers, dtype=float), "summary.json")
    _require(isinstance(summary.get("low_confidence"), bool), "parse", "low_confidence")
    _require(summary.get("error_regime") in ("phase-limited", "amplitude-limited"),
             "parse", "error_regime")


def check_sweep(op: Op):
    cfg = op.config
    rows = _read_csv(op.output_dir / "sweep.csv", SWEEP_HEADER)
    arr = _numeric(rows, "sweep.csv", blank_ok=True)
    _require(arr.shape == (len(op.values), len(SWEEP_HEADER)), "shape", f"sweep.csv {arr.shape}")
    value, xi, conc, r_norm, ln_r, log10_r, rmse_a, rmse_p = arr.T
    _finite(arr[:, :6], "sweep.csv")
    _require(np.array_equal(value, np.array(op.values, dtype=float)), "mismatch", "value column")
    _require(np.all((xi > 0.0) & (xi <= 1.0 + 1e-12)), "range", "xi")
    _require(np.all((conc > 0.0) & (conc <= 1.0 + 1e-9)), "range", "C")

    rates = dict(cfg["rates"])
    if op.param in ("R_E", "R_T"):
        rates = {**rates, op.param: value}
    _close(ln_r, np.log(r_norm * rates["R_E"] * rates["R_T"]), "ln_R_M")
    _close(log10_r, ln_r / math.log(10.0), "log10_R_M")
    ch = cfg["channel"]
    b_eval = value if op.param == "B" else np.full_like(value, cfg["baselines"]["B_max"])
    if ch["kind"] == "custom_rate":
        table = np.array(ch["table"])
        _close(r_norm, np.interp(b_eval, table[:, 0], table[:, 1]), "R_M_norm")
    else:
        _close(r_norm, 0.5 * xi, "R_M_norm")
    if ch["kind"] == "amplitude_damping" and "L0" in ch:
        # the fiber rate law: ln R_M falls linearly in B with slope -1/(2 L0)
        l0 = value if op.param == "L0" else ch["L0"]
        _close(xi, np.exp(-b_eval / (2.0 * l0)), "fiber rate law")

    if not op.mc_replicates:
        _require(np.all(np.isnan(rmse_a)) and np.all(np.isnan(rmse_p)), "mismatch",
                 "RMSE columns filled without Monte Carlo")
        return
    _finite(arr[:, 6:], "sweep.csv RMSE")
    _require(np.all(rmse_p <= math.pi + 1e-12), "range", "rmse_V_p")
    n_per = value if op.param == "N" else np.full_like(value, cfg["N_per_setting"])
    v_a = np.abs(visibility(cfg["sky"], cfg["wavelength"], b_eval))
    scale = rmse_a * conc * np.sqrt(n_per)
    floor = np.sqrt(np.clip(1.0 - (v_a * conc) ** 2, 0.0, 1.0))
    _require(np.all(scale <= RMSE_SCALE_MAX), "rmse_scale",
             f"rmse_V_a * C * sqrt(N) up to {scale.max():.3g}")
    _require(np.all(scale >= RMSE_SCALE_MIN * floor), "rmse_scale",
             f"rmse_V_a * C * sqrt(N) = {scale.min():.3g} below its binomial floor")
