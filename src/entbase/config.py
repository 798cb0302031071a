"""JSON scenario configs: parsing, strict validation, resource factories.

The schema is documented in docs/schema.md. Validation is eager and names
the offending key; unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import elementwise as ew
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
           "swept_config"]

# bounds on theta_grid.count and baselines.count: one key must not be able to ask
# for gigabytes of map or of baseline plan
MAX_THETA_POINTS = 1_000_000
MAX_BASELINES = 1_000_000

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
    if isinstance(val, np.ndarray):  # a swept column, never JSON; its values are finite
        return val
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
    broken = rule.broken(value)
    if ew.any_set(broken):
        raise ConfigError(f"{context}.{key}",
                          rule.message.format(value=ew.first_set(value, broken)))
    return value


def _positive(context: str, key: str, value: float) -> float:
    return _in_range(context, key, value, _POSITIVE)


# The range of every numeric channel parameter, each one a sweep may set.
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


def _fiber_xstate(B, L0):
    loss = fiber_loss_prob(B / 2.0, L0)  # equal arms, source midway
    return xstate_amplitude_damping(loss, loss)


def _depol_fiber_xstate(B, beta):
    kappa = depol_prob(B, beta)  # both arms span the whole fiber
    return xstate_depolarizing(kappa, kappa)


# Each channel kind's parameter forms, in the order the parser tries them: the keys
# a form requires -> its builder, called as build(B, **params) for the XState at
# baseline B. memory_swap also takes an optional sign; custom_rate's table gives
# the coincidence fraction (rate_norm_fn), its resource is ideal.
CHANNEL_TABLE = {
    "ideal": {(): lambda B: ideal_bell_xstate()},
    "amplitude_damping": {
        ("L0",): _fiber_xstate,
        ("lambda_L", "lambda_R"):
            lambda B, lambda_L, lambda_R: xstate_amplitude_damping(lambda_L, lambda_R)},
    "dephasing": {("mu_L", "mu_R"): lambda B, mu_L, mu_R: xstate_dephasing(mu_L, mu_R)},
    "depolarizing": {
        ("beta",): _depol_fiber_xstate,
        ("kappa_L", "kappa_R"):
            lambda B, kappa_L, kappa_R: xstate_depolarizing(kappa_L, kappa_R)},
    "memory_swap": {("t1", "t2", "tau_c"):
                    lambda B, t1, t2, tau_c, sign=+1: swap_memories(t1, t2, tau_c, sign)},
    "custom_rate": {("table",): lambda B, table: ideal_bell_xstate()},
}
CHANNEL_KINDS = tuple(CHANNEL_TABLE)


@dataclass(frozen=True)
class ChannelConfig:
    kind: str
    params: dict = field(default_factory=dict)

    def resource_factory(self):
        """Baseline -> XState callable for this channel: its form's CHANNEL_TABLE builder.

        A baseline array, or parameters held as (n,) arrays (a sweep over one
        of them), give the (n,) array state; a resource that depends on
        neither is one float state, whatever the baseline.
        """
        if self.kind not in CHANNEL_TABLE:
            raise ConfigError("channel.kind", f"unknown kind {self.kind!r}")
        p = self.params
        build = next(build for keys, build in CHANNEL_TABLE[self.kind].items()
                     if all(key in p for key in keys))
        return partial(build, **p)

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
    """The channel through CHANNEL_TABLE: unknown keys, then one form, then its values."""
    ctx = "channel"
    if not isinstance(obj, dict):
        raise ConfigError(ctx, "expected an object")
    kind = obj.get("kind")
    if kind not in CHANNEL_KINDS:  # compared, not hashed: a list or object kind is refused too
        raise ConfigError(f"{ctx}.kind", f"must be one of {', '.join(CHANNEL_KINDS)}")
    forms = tuple(CHANNEL_TABLE[kind])
    # the first form given a key of; with none given, the last names its missing keys
    form = next((keys for keys in forms if any(key in obj for key in keys)), forms[-1])
    others = tuple(key for keys in forms if keys != form for key in keys)
    _require_keys(obj, ctx, ("kind", *form), others + (("sign",) if kind == "memory_swap" else ()))
    if any(key in obj for key in others):
        raise ConfigError(f"{ctx}.{form[0]}",
                          f"give either {' or '.join('/'.join(keys) for keys in forms)}, not both")
    params = {key: _channel_param(obj, key) for key in form if key in CHANNEL_PARAM_RULES}
    if "sign" in obj:
        sign = obj["sign"]
        # an integer sign is a JSON integer, as for every integer key: not 1.0, not true
        is_integer = isinstance(sign, int) and not isinstance(sign, bool)
        if not (sign in ("+", "-") or is_integer and sign in (1, -1)):
            raise ConfigError(f"{ctx}.sign", "must be '+', '-', 1 or -1")
        params["sign"] = +1 if sign in ("+", 1) else -1
    if "table" in obj:
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
    if count is None or not 1 <= count <= MAX_BASELINES:
        raise ConfigError(f"{ctx}.count", f"must be an integer in [1, {MAX_BASELINES}]")
    spacing = obj.get("spacing", "linear")
    if spacing != "linear":
        raise ConfigError(f"{ctx}.spacing", "only 'linear' spacing is supported")
    # the plan is B_max k / count for k = 1..count: no product may overflow
    if not math.isfinite(b_max * count):
        raise ConfigError(f"{ctx}.B_max", f"value {b_max} times count {count} overflows")
    try:
        return BaselinePlan.linear(b_max, count)
    except ValueError as exc:  # a subnormal B_max rounds baselines together
        raise ConfigError(f"{ctx}.B_max", f"value {b_max}: {exc}") from exc


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


def _parse_settings(obj) -> PhaseSettings:
    _require_keys(obj, "phase_settings", ("w1", "w2"))
    w1, w2 = _number(obj, "phase_settings", "w1"), _number(obj, "phase_settings", "w2")
    try:
        return PhaseSettings(w1, w2)
    except ValueError as exc:
        raise ConfigError("phase_settings", str(exc)) from exc


def _check_n_per_setting(n: int) -> int:
    if not 1 <= n <= MAX_TRIALS:
        raise ConfigError("N_per_setting", f"must be an integer in [1, {MAX_TRIALS}]")
    return n


def _parse_rates(obj) -> RateModel:
    _require_keys(obj, "rates", ("R_E", "R_T"))
    R_E, R_T = _number(obj, "rates", "R_E"), _number(obj, "rates", "R_T")
    try:
        return RateModel(R_E, R_T)
    except ValueError as exc:
        raise ConfigError("rates", str(exc)) from exc


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


def swept_config(cfg: ScenarioConfig, name: str, values: np.ndarray) -> ScenarioConfig:
    """cfg with parameter name holding values, an (n,) array of finite floats: one row each.

    The section that holds name is parsed again by its own parser, values in
    place of the number, so a rejected sweep raises the ConfigError that
    parse_config raises for the config holding the first value it rejects.
    A sweep's own checks: `sweep.N_per_setting` for an N that is not a
    positive integer (a swept N is an int64 array), `sweep.param.<name>` for
    an unknown name and `sweep.B`/`sweep.L` for a negative baseline (a row's
    evaluation baseline, not a config field: cfg comes back as it is).
    """
    if name in ("B", "L"):
        if (values < 0.0).any():
            raise ConfigError(f"sweep.{name}", "baseline must be nonnegative")
        return cfg
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
        return replace(cfg, n_per_setting=values.astype(np.int64))
    if name in ("R_E", "R_T"):
        section, parse, obj = "rates", _parse_rates, vars(cfg.rates)
    elif name in ("w1", "w2"):
        section, parse, obj = "settings", _parse_settings, vars(cfg.settings)
    elif name in CHANNEL_PARAM_RULES:
        section, parse = "channel", _parse_channel
        obj = {"kind": cfg.channel.kind, **cfg.channel.params}
    else:
        raise ConfigError(f"sweep.param.{name}", "not a sweepable parameter")
    return replace(cfg, **{section: parse({**obj, name: values})})
