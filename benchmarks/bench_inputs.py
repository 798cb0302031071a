"""Seeded input generator for the entbase benchmark workloads.

Every operation is a pure function of ``(workload, seed, index)``: the same
triple gives byte-identical config files, value lists and argument lists.
Configs and value lists are written under a caller-supplied work directory
and every ``output_dir`` points inside it, so the bundled configs (which
write into the tracked ``out/``) are never run.

Operation sizes follow a fixed low-discrepancy ladder: operation 0 is the
largest, and any prefix of a run covers the size range evenly. The seed
varies everything else (sky, channel parameters, sample sizes, the
program's own master seed), so run-to-run differences in composition stay
small while the inputs still change with the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("scan", "mc", "image", "rate_sweep")

# Resource variants cycled by the `run` workloads: all six channel kinds,
# amplitude damping in both its fiber (L0) and fixed-lambda forms.
RUN_VARIANTS = ("ideal", "fiber", "damping", "dephasing", "depolarizing",
                "memory_swap", "custom_rate")

# (swept parameter, channel variant it belongs to); None means any variant.
MC_PARAMS = (("N", None), ("mu_L", "dephasing"), ("lambda_L", "damping"),
             ("kappa_L", "depolarizing_kappa"), ("t1", "memory_swap"),
             ("L0", "fiber"), ("beta", "depolarizing"))
RATE_PARAMS = (("B", None), ("L0", "fiber"), ("beta", "depolarizing"),
               ("t1", "memory_swap"), ("mu_L", "dephasing"), ("lambda_L", "damping"),
               ("kappa_L", "depolarizing_kappa"), ("tau_c", "memory_swap"),
               ("R_E", None))

# Size ranges per workload (see README.md for why these and not larger).
SCAN_BASELINES = (800, 3200)
IMAGE_BASELINES = (300, 900)
IMAGE_THETA = (1500, 3000)
MC_REPLICATES = (200, 1000)
MC_VALUES = (2, 3, 4)
RATE_ROWS = (200, 2000)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a call of ``entbase.cli.main(argv)``."""

    argv: tuple
    config: dict
    op_dir: Path
    items: int              # items an accepted operation delivers
    baselines: int = 0      # baselines observed by a `run` operation
    param: str | None = None
    values: tuple = ()
    mc_replicates: int = 0

    @property
    def output_dir(self) -> Path:
        return Path(self.config["output_dir"])


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of index in the given base, in [0, 1)."""
    inv, result = 1.0, 0.0
    while index > 0:
        inv /= base
        result += inv * (index % base)
        index //= base
    return result


def ladder(index: int, lo: int, hi: int, base: int = 2) -> int:
    """Operation size on a log scale: index 0 gets hi, later ones fill [lo, hi] evenly."""
    u = 1.0 - radical_inverse(index, base)
    return int(round(lo * (hi / lo) ** u))


def op_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), WORKLOADS.index(workload), int(index)]))


def _sky(rng, extent: float) -> dict:
    """Two or three sources within +-extent, the outermost one at the edge."""
    n_src = int(rng.integers(2, 4))
    thetas = rng.uniform(-extent, extent, n_src)
    thetas[0] = extent if rng.random() < 0.5 else -extent
    fluxes = rng.uniform(0.3, 1.0, n_src)
    return {"sources": [{"theta": float(t), "flux": float(f)}
                        for t, f in sorted(zip(thetas, fluxes))]}


def _channel(variant: str, rng, b_max: float) -> dict:
    if variant == "ideal":
        return {"kind": "ideal"}
    if variant == "fiber":
        return {"kind": "amplitude_damping", "L0": float(b_max * rng.uniform(0.2, 1.0))}
    if variant == "damping":
        return {"kind": "amplitude_damping", "lambda_L": float(rng.uniform(0.0, 0.6)),
                "lambda_R": float(rng.uniform(0.0, 0.6))}
    if variant == "dephasing":
        return {"kind": "dephasing", "mu_L": float(rng.uniform(0.0, 0.5)),
                "mu_R": float(rng.uniform(0.0, 0.5))}
    if variant == "depolarizing":
        return {"kind": "depolarizing", "beta": float(rng.uniform(0.1, 1.0) / b_max)}
    if variant == "depolarizing_kappa":
        return {"kind": "depolarizing", "kappa_L": float(rng.uniform(0.0, 0.4)),
                "kappa_R": float(rng.uniform(0.0, 0.4))}
    if variant == "memory_swap":
        return {"kind": "memory_swap", "t1": float(rng.uniform(0.05, 1.0)),
                "t2": float(rng.uniform(0.05, 1.0)), "tau_c": float(rng.uniform(1.0, 4.0)),
                "sign": "+" if rng.random() < 0.5 else "-"}
    if variant == "custom_rate":
        n_rows = int(rng.integers(3, 6))
        bs = np.linspace(0.0, 1.5 * b_max, n_rows)
        rates = np.sort(rng.uniform(0.05, 0.5, n_rows))[::-1]
        return {"kind": "custom_rate",
                "table": [[float(b), float(r)] for b, r in zip(bs, rates)]}
    raise ValueError(f"unknown channel variant {variant!r}")


def _config(rng, variant: str, count: int, out_dir: Path, n_range=(4.0, 6.0)) -> dict:
    wavelength = float(rng.uniform(0.5, 2.0))
    b_max = float(rng.uniform(40.0, 100.0) * wavelength)
    # the sky spans about three beams (wavelength / B_max) either side of the
    # pointing centre, which keeps the default theta grid near 193 points
    extent = float(rng.uniform(2.9, 3.1) * wavelength / b_max)
    return {
        "sky": _sky(rng, extent),
        "wavelength": wavelength,
        "baselines": {"B_max": b_max, "count": int(count), "spacing": "linear"},
        "channel": _channel(variant, rng, b_max),
        "N_per_setting": int(round(10.0 ** rng.uniform(*n_range))),
        "rates": {"R_E": float(rng.uniform(0.5, 1.0)),
                  "R_T": float(10.0 ** rng.uniform(3.0, 7.0))},
        "seed": int(rng.integers(0, 2 ** 31)),
        "output_dir": str(out_dir),
    }


def _sweep_values(param: str, cfg: dict, rng, count: int) -> list:
    b_max = cfg["baselines"]["B_max"]
    if param == "N":
        picks = rng.choice(np.arange(1000, 300_001), size=count, replace=False)
        return [int(v) for v in np.sort(picks)]
    if param == "B":
        lo, hi = 0.0, b_max * rng.uniform(1.0, 3.0)
    elif param == "L0":
        lo, hi = b_max * 0.2, b_max * rng.uniform(0.5, 2.0)
    elif param == "beta":
        lo, hi = 0.1 / b_max, rng.uniform(0.5, 1.5) / b_max
    elif param == "t1":
        lo, hi = 0.0, rng.uniform(0.5, 2.0)
    elif param == "tau_c":
        lo, hi = 0.5, rng.uniform(2.0, 6.0)
    elif param in ("mu_L", "kappa_L"):
        lo, hi = 0.0, rng.uniform(0.2, 0.4)
    elif param == "lambda_L":
        lo, hi = 0.0, rng.uniform(0.3, 0.6)
    elif param == "R_E":
        lo, hi = 0.05, 1.0
    else:
        raise ValueError(f"no value range for {param!r}")
    return [float(v) for v in np.linspace(lo, hi, count)]


def format_values(values) -> str:
    return ",".join(str(v) if isinstance(v, int) else repr(v) for v in values)


def make_op(workload: str, seed: int, index: int, work_dir: Path) -> Op:
    """Generate operation `index` of a workload and write its inputs under work_dir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = op_rng(workload, seed, index)
    op_dir = Path(work_dir) / f"{workload}-{index:06d}"
    op_dir.mkdir(parents=True, exist_ok=True)
    out_dir = op_dir / "out"
    cfg_path = op_dir / "config.json"

    if workload in ("scan", "image"):
        variant = RUN_VARIANTS[index % len(RUN_VARIANTS)]
        if workload == "scan":
            count = ladder(index, *SCAN_BASELINES)
            cfg = _config(rng, variant, count, out_dir)
        else:
            count = ladder(index, *IMAGE_BASELINES)
            cfg = _config(rng, variant, count, out_dir)
            extent = max(abs(s["theta"]) for s in cfg["sky"]["sources"])
            cfg["theta_grid"] = {"half_span": float(extent * rng.uniform(1.2, 2.0)),
                                 "count": ladder(index, *IMAGE_THETA, base=3)}
        _write_json(cfg_path, cfg)
        if workload == "image":
            items = cfg["theta_grid"]["count"] * (2 * count + 1)
        else:
            items = count
        return Op(("run", str(cfg_path)), cfg, op_dir,
                  items=items, baselines=count)

    if workload == "mc":
        param, variant = MC_PARAMS[index % len(MC_PARAMS)]
        n_values = MC_VALUES[index % len(MC_VALUES)]
        replicates = ladder(index, *MC_REPLICATES)
        n_range = (3.0, 5.0)
    else:
        param, variant = RATE_PARAMS[index % len(RATE_PARAMS)]
        n_values = ladder(index, *RATE_ROWS)
        replicates = 0
        n_range = (4.0, 6.0)
    if variant is None:
        variant = RUN_VARIANTS[(index // 7) % len(RUN_VARIANTS)]
    cfg = _config(rng, variant, 16, out_dir, n_range)
    values = _sweep_values(param, cfg, rng, n_values)
    _write_json(cfg_path, cfg)
    value_text = format_values(values)
    (op_dir / "values.txt").write_text(value_text + "\n", encoding="utf-8")
    argv = ["sweep", str(cfg_path), "--param", param, "--values", value_text]
    if replicates:
        argv += ["--mc-replicates", str(replicates)]
    items = len(values) * replicates if replicates else len(values)
    return Op(tuple(argv), cfg, op_dir, items=items,
              param=param, values=tuple(values), mc_replicates=replicates)


def _write_json(path: Path, obj: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def visibility(sky: dict, wavelength: float, b) -> np.ndarray:
    """Flux-normalized complex visibility of the configured sky at baselines b."""
    b = np.asarray(b, dtype=float)
    acc = np.zeros(b.shape, dtype=complex)
    total = 0.0
    for src in sky["sources"]:
        acc += src["flux"] * np.exp(-2j * math.pi * b * src["theta"] / wavelength)
        total += src["flux"]
    return acc / total
