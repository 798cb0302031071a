"""JSON scenario configs: parsing, strict validation, resource factories.

The schema is documented in docs/schema.md. Validation is eager and names
the offending key; unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channels import (
    RateModel,
    depol_prob,
    fiber_loss_prob,
    ideal_bell_xstate,
    swap_memories,
    xstate_amplitude_damping,
    xstate_dephasing,
    xstate_depolarizing,
)
from .imaging import BaselinePlan, SkyModel, default_theta_grid
from .protocol import MAX_TRIALS, PhaseSettings

__all__ = ["ChannelConfig", "ConfigError", "ScenarioConfig", "load_config", "parse_config",
           "check_swept_values"]

CHANNEL_KINDS = ("ideal", "amplitude_damping", "dephasing", "depolarizing",
                 "memory_swap", "custom_rate")

# bound on theta_grid.count: one key must not be able to ask for gigabytes of map
MAX_THETA_POINTS = 1_000_000

class ConfigError(ValueError):
    """Invalid scenario config; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _require_keys(obj: dict, context: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ConfigError(context, "expected an object")
    for key in sorted(obj):
        if key not in required and key not in optional:
            raise ConfigError(f"{context}.{key}" if context else key, "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{context}.{key}" if context else key, "missing required key")


def _is_finite_number(val) -> bool:
    """The one rule for numeric config values: a finite int or float, not a bool."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _number(obj: dict, context: str, key: str, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if not _is_finite_number(val):
        raise ConfigError(f"{context}.{key}" if context else key, "expected a finite number")
    return float(val)


def _integer(obj: dict, context: str, key: str, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{context}.{key}" if context else key, "expected an integer")
    return int(val)


class _Range(NamedTuple):
    """A numeric range: broken(value) flags a value outside it, message names why.

    broken is written with operators alone, so it flags a float and each
    element of an (n,) array alike; message is formatted with value=.
    """

    broken: Callable
    message: str


_UNIT_INTERVAL = _Range(lambda v: (v != v) | (v < 0.0) | (v > 1.0),
                        "value {value} outside [0, 1]")
_POSITIVE = _Range(lambda v: v <= 0.0, "value {value} must be positive")
_STORAGE_TIME = _Range(lambda v: v < 0.0, "storage time must be nonnegative")


def _in_range(context: str, key: str, value: float, rule: _Range) -> float:
    if rule.broken(value):
        raise ConfigError(f"{context}.{key}", rule.message.format(value=value))
    return value


def _positive(context: str, key: str, value: float) -> float:
    return _in_range(context, key, value, _POSITIVE)


# The range of every numeric channel parameter; parse_config checks a value
# and check_swept_values a whole swept array through this table.
CHANNEL_PARAM_RULES = {
    "lambda_L": _UNIT_INTERVAL, "lambda_R": _UNIT_INTERVAL,
    "mu_L": _UNIT_INTERVAL, "mu_R": _UNIT_INTERVAL,
    "kappa_L": _UNIT_INTERVAL, "kappa_R": _UNIT_INTERVAL,
    "L0": _POSITIVE, "beta": _POSITIVE,
    "t1": _STORAGE_TIME, "t2": _STORAGE_TIME, "tau_c": _POSITIVE,
}


def _channel_param(obj: dict, key: str) -> float:
    """obj[key] as a finite float within its CHANNEL_PARAM_RULES range."""
    return _in_range("channel", key, _number(obj, "channel", key), CHANNEL_PARAM_RULES[key])


@dataclass(frozen=True)
class ChannelConfig:
    kind: str
    params: dict = field(default_factory=dict)

    def resource_factory(self):
        """Baseline -> XState callable for this channel.

        A baseline array, or parameters held as (n,) arrays (a sweep over one
        of them), give the (n,) array state; a resource that depends on
        neither is one float state, whatever the baseline.
        """
        p = self.params
        if self.kind in ("ideal", "custom_rate"):
            return lambda B: ideal_bell_xstate()
        if self.kind == "amplitude_damping":
            if "L0" in p:
                L0 = p["L0"]

                def fiber_factory(B):
                    loss = fiber_loss_prob(B / 2.0, L0)  # equal arms, source midway
                    return xstate_amplitude_damping(loss, loss)

                return fiber_factory
            return lambda B: xstate_amplitude_damping(p["lambda_L"], p["lambda_R"])
        if self.kind == "dephasing":
            return lambda B: xstate_dephasing(p["mu_L"], p["mu_R"])
        if self.kind == "depolarizing":
            if "beta" in p:
                beta = p["beta"]

                def depol_fiber_factory(B):
                    kappa = depol_prob(B, beta)  # both arms span the whole fiber
                    return xstate_depolarizing(kappa, kappa)

                return depol_fiber_factory
            return lambda B: xstate_depolarizing(p["kappa_L"], p["kappa_R"])
        if self.kind == "memory_swap":
            return lambda B: swap_memories(p["t1"], p["t2"], p["tau_c"], p.get("sign", +1))
        raise ConfigError("channel.kind", f"unknown kind {self.kind!r}")

    def rate_norm_fn(self):
        """Optional override of the coincidence fraction; tabulated for custom_rate.

        The override maps a baseline, or an array of them, to the fraction there.
        """
        if self.kind != "custom_rate":
            return None
        table = self.params["table"]
        bs = np.array([row[0] for row in table])
        rs = np.array([row[1] for row in table])
        return lambda B: np.interp(B, bs, rs)


def _parse_channel(obj) -> ChannelConfig:
    ctx = "channel"
    if not isinstance(obj, dict):
        raise ConfigError(ctx, "expected an object")
    kind = obj.get("kind")
    if kind not in CHANNEL_KINDS:
        raise ConfigError(f"{ctx}.kind", f"must be one of {', '.join(CHANNEL_KINDS)}")
    params: dict = {}
    if kind == "ideal":
        _require_keys(obj, ctx, ("kind",))
    elif kind == "amplitude_damping":
        _require_keys(obj, ctx, ("kind",), ("L0", "lambda_L", "lambda_R"))
        if "L0" in obj:
            if "lambda_L" in obj or "lambda_R" in obj:
                raise ConfigError(f"{ctx}.L0", "give either L0 or lambda_L/lambda_R, not both")
            params["L0"] = _channel_param(obj, "L0")
        else:
            for key in ("lambda_L", "lambda_R"):
                if key not in obj:
                    raise ConfigError(f"{ctx}.{key}", "missing required key")
                params[key] = _channel_param(obj, key)
    elif kind == "dephasing":
        _require_keys(obj, ctx, ("kind", "mu_L", "mu_R"))
        for key in ("mu_L", "mu_R"):
            params[key] = _channel_param(obj, key)
    elif kind == "depolarizing":
        _require_keys(obj, ctx, ("kind",), ("beta", "kappa_L", "kappa_R"))
        if "beta" in obj:
            if "kappa_L" in obj or "kappa_R" in obj:
                raise ConfigError(f"{ctx}.beta", "give either beta or kappa_L/kappa_R, not both")
            params["beta"] = _channel_param(obj, "beta")
        else:
            for key in ("kappa_L", "kappa_R"):
                if key not in obj:
                    raise ConfigError(f"{ctx}.{key}", "missing required key")
                params[key] = _channel_param(obj, key)
    elif kind == "memory_swap":
        _require_keys(obj, ctx, ("kind", "t1", "t2", "tau_c"), ("sign",))
        for key in ("t1", "t2", "tau_c"):
            params[key] = _channel_param(obj, key)
        if "sign" in obj:
            sign = obj["sign"]
            # an integer sign is a JSON integer, as for every integer key: not 1.0, not true
            is_integer = isinstance(sign, int) and not isinstance(sign, bool)
            if not (sign in ("+", "-") or is_integer and sign in (1, -1)):
                raise ConfigError(f"{ctx}.sign", "must be '+', '-', 1 or -1")
            params["sign"] = +1 if sign in ("+", 1) else -1
    elif kind == "custom_rate":
        _require_keys(obj, ctx, ("kind", "table"))
        table = obj["table"]
        if (not isinstance(table, list) or len(table) < 2
                or any(not isinstance(row, list) or len(row) != 2 for row in table)):
            raise ConfigError(f"{ctx}.table", "expected a list of [baseline, rate] pairs")
        prev = -math.inf
        rows = []
        for i, (b, r) in enumerate(table):
            if not (_is_finite_number(b) and _is_finite_number(r)):
                raise ConfigError(f"{ctx}.table[{i}]", "expected a pair of finite numbers")
            if b <= prev:
                raise ConfigError(f"{ctx}.table", "baselines must be strictly increasing")
            if not (0.0 <= r <= 0.5):
                raise ConfigError(f"{ctx}.table", f"normalized rate {r} outside [0, 0.5]")
            prev = b
            rows.append([float(b), float(r)])
        params["table"] = rows
    return ChannelConfig(kind=kind, params=params)


def _parse_sky(obj, wavelength: float) -> SkyModel:
    ctx = "sky"
    _require_keys(obj, ctx, ("sources",))
    sources = obj["sources"]
    if not isinstance(sources, list) or not sources:
        raise ConfigError(f"{ctx}.sources", "expected a nonempty list")
    parsed = []
    for i, src in enumerate(sources):
        sctx = f"{ctx}.sources[{i}]"
        _require_keys(src, sctx, ("theta", "flux"))
        parsed.append((_number(src, sctx, "theta"), _number(src, sctx, "flux")))
    try:
        return SkyModel(tuple(parsed), wavelength)
    except ValueError as exc:
        raise ConfigError(f"{ctx}.sources", str(exc)) from exc


def _parse_baselines(obj) -> BaselinePlan:
    ctx = "baselines"
    if isinstance(obj, list):
        if not obj:
            raise ConfigError(ctx, "expected a nonempty list of numbers")
        for i, b in enumerate(obj):
            if not _is_finite_number(b):
                raise ConfigError(f"{ctx}[{i}]", "expected a finite number")
        try:
            return BaselinePlan(tuple(float(b) for b in obj))
        except ValueError as exc:
            raise ConfigError(ctx, str(exc)) from exc
    _require_keys(obj, ctx, ("B_max", "count"), ("spacing",))
    b_max = _positive(ctx, "B_max", _number(obj, ctx, "B_max"))
    count = _integer(obj, ctx, "count")
    if count is None or count < 1:
        raise ConfigError(f"{ctx}.count", "must be a positive integer")
    spacing = obj.get("spacing", "linear")
    if spacing != "linear":
        raise ConfigError(f"{ctx}.spacing", "only 'linear' spacing is supported")
    return BaselinePlan.linear(b_max, count)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    sky: SkyModel
    plan: BaselinePlan
    channel: ChannelConfig
    settings: PhaseSettings
    n_per_setting: int
    rates: RateModel
    seed: int
    output_dir: str
    # (half_span, count) of an explicit theta_grid; None for default_theta_grid
    theta_span: tuple | None

    @property
    def theta_grid(self) -> np.ndarray:
        """The map's theta grid, built on each read: only `run` reads it."""
        if self.theta_span is None:
            return default_theta_grid(self.sky, self.plan.B_m)
        half_span, count = self.theta_span
        return np.linspace(-half_span, half_span, count)


def _phase_settings(w1, w2) -> PhaseSettings:
    try:
        return PhaseSettings(w1, w2)
    except ValueError as exc:
        raise ConfigError("phase_settings", str(exc)) from exc


def _parse_settings(obj) -> PhaseSettings:
    _require_keys(obj, "phase_settings", ("w1", "w2"))
    return _phase_settings(_number(obj, "phase_settings", "w1"),
                           _number(obj, "phase_settings", "w2"))


def _check_n_per_setting(n: int) -> int:
    if not 1 <= n <= MAX_TRIALS:
        raise ConfigError("N_per_setting", f"must be an integer in [1, {MAX_TRIALS}]")
    return n


def _rate_model(R_E, R_T) -> RateModel:
    """RateModel(R_E, R_T), floats or a swept (n,) array, its ValueError a ConfigError."""
    try:
        return RateModel(R_E, R_T)
    except ValueError as exc:
        raise ConfigError("rates", str(exc)) from exc


def _parse_rates(obj) -> RateModel:
    _require_keys(obj, "rates", ("R_E", "R_T"))
    return _rate_model(_number(obj, "rates", "R_E"), _number(obj, "rates", "R_T"))


def parse_config(obj: dict) -> ScenarioConfig:
    _require_keys(obj, "", ("sky", "wavelength", "baselines", "channel"),
                  ("phase_settings", "N_per_setting", "rates", "seed", "output_dir",
                   "theta_grid"))
    wavelength = _positive("", "wavelength", _number(obj, "", "wavelength"))
    sky = _parse_sky(obj["sky"], wavelength)
    plan = _parse_baselines(obj["baselines"])
    channel = _parse_channel(obj["channel"])
    settings = (_parse_settings(obj["phase_settings"]) if "phase_settings" in obj
                else PhaseSettings(0.0, 0.5 * math.pi))
    n_per_setting = _check_n_per_setting(_integer(obj, "", "N_per_setting", 100_000))
    rates = _parse_rates(obj["rates"]) if "rates" in obj else RateModel(1.0, 1.0)

    seed = _integer(obj, "", "seed", 0)
    if seed < 0:
        raise ConfigError("seed", "must be nonnegative")

    output_dir = obj.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", "expected a nonempty string")

    theta_span = None
    if "theta_grid" in obj:
        tg = obj["theta_grid"]
        _require_keys(tg, "theta_grid", ("half_span", "count"))
        half_span = _positive("theta_grid", "half_span", _number(tg, "theta_grid", "half_span"))
        if half_span < sky.extent:
            # the sky deposit would pile the outer sources onto the edge cells
            raise ConfigError("theta_grid.half_span",
                              f"value {half_span} does not cover the source at "
                              f"|theta| = {sky.extent}")
        count = _integer(tg, "theta_grid", "count")
        if count is None or not 2 <= count <= MAX_THETA_POINTS:
            raise ConfigError("theta_grid.count",
                              f"must be an integer in [2, {MAX_THETA_POINTS}]")
        theta_span = (half_span, count)

    return ScenarioConfig(sky=sky, plan=plan, channel=channel, settings=settings,
                          n_per_setting=n_per_setting, rates=rates, seed=seed,
                          output_dir=output_dir, theta_span=theta_span)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config", "top level must be an object")
    return parse_config(obj)


def check_swept_values(cfg: ScenarioConfig, name: str, values: np.ndarray) -> dict:
    """The ScenarioConfig fields that sweeping parameter name over values changes.

    values is the (n,) array of finite swept values; each section is checked
    once for the whole array. A rejected sweep raises the ConfigError that
    parse_config raises for cfg's JSON with the parameter set to the first
    value, in list order, that it rejects, formatted from that value as a
    Python float. A sweep adds checks of its own: `sweep.N_per_setting` for
    an N that is not a positive integer, `sweep.param.<name>` for an
    unknown name and `sweep.B`/`sweep.L` for a negative baseline.

    Each field holds the whole sweep: n_per_setting as a list of ints,
    settings as a list of PhaseSettings, one per value, and rates or channel
    as one RateModel or ChannelConfig holding values in place of the swept
    parameter. Empty for B and L, which set the evaluation baseline of a
    sweep row, not a config field.
    """
    if name in ("B", "L"):
        if (values < 0.0).any():
            raise ConfigError(f"sweep.{name}", "baseline must be nonnegative")
        return {}
    if name in ("N", "N_per_setting"):
        not_positive_integer = (values < 1.0) | (values % 1.0 != 0.0)
        # the integral floats above MAX_TRIALS = 2**63 - 1 start at 2**63, which is a
        # float exactly; float(MAX_TRIALS) rounds to it too, so it cannot be the bound
        bad = not_positive_integer | (values >= float(MAX_TRIALS + 1))
        if bad.any():
            i = bad.argmax()
            if not_positive_integer[i]:
                raise ConfigError("sweep.N_per_setting",
                                  f"value {values.item(i)} is not a positive integer")
            _check_n_per_setting(int(values.item(i)))
        return {"n_per_setting": values.astype(np.int64).tolist()}
    if name in ("R_E", "R_T"):
        return {"rates": _rate_model(**{"R_E": cfg.rates.R_E, "R_T": cfg.rates.R_T,
                                        name: values})}
    if name in ("w1", "w2"):
        settings = {"w1": cfg.settings.w1, "w2": cfg.settings.w2}
        return {"settings": [_phase_settings(**{**settings, name: value})
                             for value in values.tolist()]}
    rule = CHANNEL_PARAM_RULES.get(name)
    if rule is None:
        raise ConfigError(f"sweep.param.{name}", "not a sweepable parameter")
    kind, params = cfg.channel.kind, cfg.channel.params
    if name not in params:  # a key the form does not take: the full parse names the error
        _parse_channel({"kind": kind, **params, name: values.item(0)})
    bad = rule.broken(values)
    if bad.any():
        _in_range("channel", name, values.item(bad.argmax()), rule)
    return {"channel": ChannelConfig(kind, {**params, name: values})}
