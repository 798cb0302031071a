"""JSON scenario configs: parsing, strict validation, resource factories.

The schema is documented in docs/schema.md. Validation is eager and names
the offending key; unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .channels import (
    PARAM_RULES,
    POSITIVE,
    Range,
    RateModel,
    depol_prob,
    fiber_loss_prob,
    ideal_bell_xstate,
    resource_figures,
    swap_memories,
    xstate_amplitude_damping,
    xstate_dephasing,
    xstate_depolarizing,
)
from .imaging import BaselinePlan, SkyModel, default_theta_span
from .protocol import MAX_TRIALS, PhaseSettings

__all__ = ["ChannelConfig", "ConfigError", "ScenarioConfig", "check_phase", "check_study_option",
           "load_config", "parse_config", "parse_sweep_args", "swept_config"]

# bounds on theta_grid.count and baselines.count: one key must not be able to ask
# for gigabytes of map or of baseline plan
MAX_THETA_POINTS = 1_000_000
MAX_BASELINES = 1_000_000
# the largest phase 2 pi B theta / lambda a config may ask run or sweep to evaluate: a
# double near 2**30 rad is spaced 2**-22 = 2.4e-7 rad from the next, so cos and sin keep
# about seven digits there; past 2**53 rad the spacing exceeds 2 pi and they carry none
MAX_PHASE = 2.0 ** 30

class ConfigError(ValueError):
    """Invalid scenario config; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _key(context: str, key: str) -> str:
    """The dotted name of key in the section context ("" at the top level)."""
    return f"{context}.{key}" if context else key


class _RepeatedNames(dict):
    """A JSON object that gives a name twice (the last value stands); `repeated` names it."""


def _json_object(pairs: list) -> dict:
    """The dict json.load builds of an object's pairs, a _RepeatedNames if a name repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        names = [name for name, _ in pairs]
        obj = _RepeatedNames(obj)
        obj.repeated = next(name for name in obj if names.count(name) > 1)
    return obj


def _require_keys(obj: dict, context: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ConfigError(context, "expected an object")
    if isinstance(obj, _RepeatedNames):
        raise ConfigError(_key(context, obj.repeated), "duplicate key")
    for key in sorted(obj):
        if key not in required and key not in optional:
            raise ConfigError(_key(context, key), "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(_key(context, key), "missing required key")


def check_phase(key: str, B: float, phases: tuple, half_span: float | None = None):
    """The phase limit of run and sweep: each phase 2 pi B theta / lambda at baseline B is
    finite and at most MAX_PHASE, or it is the config fault at key. parse_config gives the
    map's half_span, which the message names; a sweep row names its value B instead."""
    finite = all(map(math.isfinite, phases))
    if finite and max(phases) <= MAX_PHASE:
        return
    value = f"value {B}: " if half_span is None else ""
    what = f"reaches {max(phases)} rad" if finite else "overflows"
    where = f" at B = {B} on the grid of half-span {half_span}" if half_span is not None else ""
    beyond = f", beyond the {MAX_PHASE:.0f} rad that cos and sin resolve" if finite else ""
    raise ConfigError(key, f"{value}phase 2 pi B theta / lambda {what}{where}{beyond}")


def _is_finite_number(val) -> bool:
    """The one rule for numeric config values: a finite int or float, not a bool."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _number(obj: dict, context: str, key: str, default=None, rule: Range | None = None):
    """obj[key], a finite float or a swept (n,) array, in rule's range if given; else default."""
    if key not in obj:
        return default
    val = obj[key]
    if not isinstance(val, np.ndarray):  # a swept column is never JSON
        if not _is_finite_number(val):
            raise ConfigError(_key(context, key), "expected a finite number")
        val = float(val)
    fault = None if rule is None else rule.fault(val)
    if fault is not None:
        raise ConfigError(_key(context, key), fault)
    return val


def _integer(obj: dict, context: str, key: str, default=None, bounds: tuple = ()):
    """obj[key], a JSON integer (not a bool), within bounds (lo, hi) if given; default if absent."""
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(_key(context, key), "expected an integer")
    if bounds and not bounds[0] <= val <= bounds[1]:
        raise ConfigError(_key(context, key), "must be an integer in [{}, {}]".format(*bounds))
    return int(val)


def _record(key: str, make, *args):
    """make(*args), a record whose own checks' ValueError is the config fault at key."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _parse_numbers(obj, context: str, names: tuple, make=lambda *numbers: numbers):
    """make(*numbers) of the section context, which holds exactly the numbers names."""
    _require_keys(obj, context, names)
    return _record(context, make, *(_number(obj, context, name, rule=PARAM_RULES.get(name))
                                    for name in names))


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
# every numeric channel parameter, each one a sweep may set
CHANNEL_PARAMS = tuple(key for forms in CHANNEL_TABLE.values() for keys in forms
                       for key in keys if key in PARAM_RULES)


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
        bs, rs = np.array(self.params["table"]).T
        return lambda B: np.interp(B, bs, rs)

    def resource_table(self, baselines, rates: RateModel):
        """(resource, (xi, C, R_M_norm, ln_R_M, log10_R_M)) at baselines, an (n,) array or one
        float: the resource, built once, and its columns, each an (n,) array or one float.
        ln_R_M is -inf where the rate is 0 or nan, else libm's math.log element by element
        (np.log may differ in the last bit). run, sweep, validate and study rates call it."""
        resource = self.resource_factory()(baselines)
        xi, conc, r_norm, r_abs = resource_figures(resource, baselines, rates,
                                                   self.rate_norm_fn())
        r_abs = np.asarray(r_abs, dtype=float)
        ln_r = np.full(r_abs.shape, -math.inf)
        ln_r[r_abs > 0.0] = list(map(math.log, r_abs[r_abs > 0.0].tolist()))
        ln_r = ln_r[()]  # one float for one rate
        return resource, (xi, conc, r_norm, ln_r, ln_r / math.log(10.0))


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
    params = {key: _number(obj, ctx, key, rule=PARAM_RULES[key])
              for key in form if key in PARAM_RULES}
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
    parsed = tuple(_parse_numbers(src, f"{ctx}.sources[{i}]", ("theta", "flux"))
                   for i, src in enumerate(sources))
    return _record(f"{ctx}.sources", SkyModel, parsed, wavelength)


def _parse_baselines(obj) -> BaselinePlan:
    ctx = "baselines"
    if isinstance(obj, list):
        if not obj:
            raise ConfigError(ctx, "expected a nonempty list of numbers")
        for i, b in enumerate(obj):
            if not _is_finite_number(b):
                raise ConfigError(f"{ctx}[{i}]", "expected a finite number")
        return _record(ctx, BaselinePlan, tuple(float(b) for b in obj))
    _require_keys(obj, ctx, ("B_max", "count"), ("spacing",))
    b_max = _number(obj, ctx, "B_max", rule=POSITIVE)
    count = _integer(obj, ctx, "count", bounds=(1, MAX_BASELINES))
    spacing = obj.get("spacing", "linear")
    if spacing != "linear":
        raise ConfigError(f"{ctx}.spacing", "only 'linear' spacing is supported")
    # the plan is B_max k / count for k = 1..count: no product may overflow
    if not math.isfinite(b_max * count):
        raise ConfigError(f"{ctx}.B_max", f"value {b_max} times count {count} overflows")
    try:
        return BaselinePlan.linear(b_max, count)
    except ValueError as exc:  # a subnormal B_max rounds baselines to 0 or together
        raise ConfigError(f"{ctx}.B_max", f"value {b_max} over count {count} rounds "
                          "baselines B_max k / count to 0 or together") from exc


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
    # (half_span, count) of theta_grid, or of the default grid
    theta_span: tuple

    @property
    def theta_grid(self) -> np.ndarray:
        """The map's theta grid, built on each read: only `run` reads it."""
        half_span, count = self.theta_span
        return np.linspace(-half_span, half_span, count)


def _parse_n_per_setting(obj: dict) -> int:
    return _integer(obj, "", "N_per_setting", 100_000, (1, MAX_TRIALS))


_parse_settings = partial(_parse_numbers, context="phase_settings", names=("w1", "w2"),
                          make=PhaseSettings)
_parse_rates = partial(_parse_numbers, context="rates", names=("R_E", "R_T"), make=RateModel)


def parse_config(obj: dict) -> ScenarioConfig:
    _require_keys(obj, "", ("sky", "wavelength", "baselines", "channel"),
                  ("phase_settings", "N_per_setting", "rates", "seed", "output_dir",
                   "theta_grid"))
    wavelength = _number(obj, "", "wavelength", rule=POSITIVE)
    sky = _parse_sky(obj["sky"], wavelength)
    plan = _parse_baselines(obj["baselines"])
    channel = _parse_channel(obj["channel"])
    settings = (_parse_settings(obj["phase_settings"]) if "phase_settings" in obj
                else PhaseSettings(0.0, 0.5 * math.pi))
    n_per_setting = _parse_n_per_setting(obj)
    rates = _parse_rates(obj["rates"]) if "rates" in obj else RateModel(1.0, 1.0)

    seed = _integer(obj, "", "seed", 0)
    if seed < 0:
        raise ConfigError("seed", "must be nonnegative")

    output_dir = obj.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", "expected a nonempty string")

    # the default grid's half-span grows as wavelength / B_max: its faults name those
    half_span, count = default_theta_span(sky, plan.B_m)
    span_key = "baselines.B_max" if isinstance(obj["baselines"], dict) else "baselines"
    phase_key = "wavelength"
    if "theta_grid" in obj:
        tg = obj["theta_grid"]
        _require_keys(tg, "theta_grid", ("half_span", "count"))
        half_span = _number(tg, "theta_grid", "half_span", rule=POSITIVE)
        if half_span < sky.extent:
            # the sky deposit would pile the outer sources onto the edge cells
            raise ConfigError("theta_grid.half_span",
                              f"value {half_span} does not cover the source at "
                              f"|theta| = {sky.extent}")
        count = _integer(tg, "theta_grid", "count", bounds=(2, MAX_THETA_POINTS))
        # below the smallest normal double the grid's points may round together; the
        # default grid's step, wavelength / (32 B_max) or more, stays above 1e-309
        # wherever the phase check below passes, and its points stay distinct
        if 2.0 * half_span / (count - 1) < sys.float_info.min:
            raise ConfigError("theta_grid.half_span", f"theta grid step underflows at "
                                                      f"half-span {half_span} and count {count}")
        span_key = phase_key = "theta_grid.half_span"
    # run's phases 2 pi B theta / lambda, up to B_max: over the map's span, twice the
    # half-span that covers the sources, and at the sources in true_visibility
    if not math.isfinite(2.0 * half_span):
        raise ConfigError(span_key, f"theta grid span overflows at half-span {half_span}")
    check_phase(phase_key, plan.B_m, (2.0 * math.pi / wavelength * plan.B_m * (2.0 * half_span),
                                      sky.max_phase(plan.B_m)), half_span)

    return ScenarioConfig(sky=sky, plan=plan, channel=channel, settings=settings,
                          n_per_setting=n_per_setting, rates=rates, seed=seed,
                          output_dir=output_dir, theta_span=(half_span, count))


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh, object_pairs_hook=_json_object)
            # malformed JSON, bytes that are not UTF-8, an integer past Python's digit
            # limit (ValueErrors all), or nesting deeper than the decoder recurses
            except (ValueError, RecursionError) as exc:
                raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config", "top level must be an object")
    return parse_config(obj)


def parse_sweep_args(raw_values: str, mc_replicates: int) -> tuple[np.ndarray, int]:
    """sweep's --values, a comma-separated list, as the (n,) array of finite floats
    swept_config takes, and --mc-replicates, nonnegative; the count is checked first."""
    if mc_replicates < 0:
        raise ConfigError("sweep.mc_replicates", "must be nonnegative")
    if not raw_values.strip():
        raise ConfigError("sweep.values", f"no values given: {raw_values!r}")
    try:  # an empty entry, as in 1,,2 or 1,2, is no number either
        values = np.array(list(map(float, raw_values.split(","))))
    except ValueError:
        raise ConfigError("sweep.values", f"not a comma-separated number list: {raw_values!r}")
    if not np.isfinite(values).all():
        raise ConfigError("sweep.values", f"values must be finite: {raw_values!r}")
    return values, mc_replicates


# The range of each option of the study verbs: --L0 and --beta are channel parameters and
# --B-max a baseline, so PARAM_RULES states theirs; --points is a baseline count, capped as
# baselines.count is, and the other counts and the seed have lower bounds
STUDY_OPTIONS = {"--L0": PARAM_RULES["L0"], "--beta": PARAM_RULES["beta"],
                 "--B-max": PARAM_RULES["B"],
                 "--points": Range(lambda v: (v < 0) | (v > MAX_BASELINES),
                                   f"must be in [0, {MAX_BASELINES}], not {{value}}"),
                 "--replicates": Range(lambda v: v < 1, "must be at least 1, not {value}"),
                 "--seed": Range(lambda v: v < 0, "must be at least 0, not {value}")}


def check_study_option(option: str, value):
    """value of a study verb's option if in its STUDY_OPTIONS range (a float also finite:
    a config number's rule); else the ConfigError at option."""
    if isinstance(value, float):
        _number({option: value}, "", option)
    if (fault := STUDY_OPTIONS[option].fault(value)) is not None:
        raise ConfigError(option, fault)
    return value


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
        _number({name: values}, "sweep", name, rule=PARAM_RULES["B"])
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
            _parse_n_per_setting({"N_per_setting": int(values.item(i))})
        return replace(cfg, n_per_setting=values.astype(np.int64))
    if name in ("R_E", "R_T"):
        section, parse, obj = "rates", _parse_rates, vars(cfg.rates)
    elif name in ("w1", "w2"):
        section, parse, obj = "settings", _parse_settings, vars(cfg.settings)
    elif name in CHANNEL_PARAMS:
        section, parse = "channel", _parse_channel
        obj = {"kind": cfg.channel.kind, **cfg.channel.params}
    else:
        raise ConfigError(f"sweep.param.{name}", "not a sweepable parameter")
    return replace(cfg, **{section: parse({**obj, name: values})})
