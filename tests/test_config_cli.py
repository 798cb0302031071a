import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHANNEL_FORMS, SWEPT_CASES, SWEPT_IDS, SWEPT_VALUES
from entbase import cli, config, reference, validation
from entbase import elementwise as ew
from entbase.channels import DegenerateCoherenceWarning, RateModel, resource_figures
from entbase.cli import main
from entbase.config import (
    CHANNEL_PARAMS,
    ChannelConfig,
    ConfigError,
    load_config,
    parse_config,
    swept_config,
)
from entbase.imaging import default_theta_grid

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def base_config(**overrides):
    cfg = {
        "sky": {"sources": [{"theta": -0.01, "flux": 1.0}, {"theta": 0.01, "flux": 1.0}]},
        "wavelength": 1.0,
        "baselines": {"B_max": 40.0, "count": 12, "spacing": "linear"},
        "channel": {"kind": "ideal"},
        "N_per_setting": 2000,
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config(base_config())
        assert cfg.settings.w1 == 0.0 and abs(cfg.settings.w2 - math.pi / 2) <= 1e-15
        assert cfg.rates.R_E == 1.0 and cfg.rates.R_T == 1.0
        assert cfg.output_dir == "out"

    def test_theta_grid_is_built_where_read(self, monkeypatch):
        def built(*args):
            raise AssertionError("theta grid built")

        monkeypatch.setattr(config.np, "linspace", built)
        default = parse_config(base_config())
        explicit = parse_config(base_config(theta_grid={"half_span": 0.05, "count": 11}))
        monkeypatch.undo()
        assert np.array_equal(default.theta_grid, default_theta_grid(default.sky, 40.0))
        assert np.array_equal(explicit.theta_grid, np.linspace(-0.05, 0.05, 11))

    def test_baseline_list_form(self):
        cfg = parse_config(base_config(baselines=[1.0, 2.0, 5.0]))
        assert cfg.plan.baselines == (1.0, 2.0, 5.0)

    def test_channel_kinds(self):
        for channel in ({"kind": "amplitude_damping", "L0": 5.0},
                        {"kind": "amplitude_damping", "lambda_L": 0.1, "lambda_R": 0.2},
                        {"kind": "dephasing", "mu_L": 0.2, "mu_R": 0.0},
                        {"kind": "depolarizing", "beta": 0.3},
                        {"kind": "memory_swap", "t1": 0.1, "t2": 0.2, "tau_c": 1.0,
                         "sign": "-"},
                        {"kind": "custom_rate", "table": [[0.0, 0.5], [10.0, 0.3]]}):
            cfg = parse_config(base_config(channel=channel))
            x = cfg.channel.resource_factory()(10.0)
            assert 0.0 <= x.g + x.f <= 1.0 + 1e-12

    @pytest.mark.parametrize("sign, w_p", [("+", 0.0), ("-", math.pi), (1, 0.0), (-1, math.pi)])
    def test_memory_swap_sign_spellings(self, sign, w_p):
        cfg = parse_config(base_config(channel={"kind": "memory_swap", "t1": 0.1, "t2": 0.2,
                                                "tau_c": 1.0, "sign": sign}))
        assert cfg.channel.resource_factory()(10.0).w_p == w_p


# Malformed inputs: every command line that must exit 1, one row each in MALFORMED, and
# the one harness that runs them all (test_malformed_input_exits_1).

RUN = ("run", "cfg.json")


def sweep(param, values, *more) -> tuple:
    """The command line of a sweep of cfg.json's param over values, more arguments after."""
    return ("sweep", "cfg.json", "--param", param, "--values", values, *more)


class Malformed(NamedTuple):
    """main(argv), run in a directory that holds config as cfg.json, exits 1 with stderr."""
    id: str
    argv: tuple
    stderr: str  # all of stderr; with prefix, the JSON decoder's own words go before its \n
    # overrides on base_config, an (old, new) text replacement in fiber_two_source.json,
    # or the file's raw bytes
    config: dict | tuple | bytes = {}
    prefix: bool = False
    marks: tuple = ()


def bad_config(id, argv, message, config={}, **more) -> Malformed:
    return Malformed(id, argv, f"invalid config: {message}\n", config, **more)


def bad_arguments(id, argv, message) -> Malformed:
    return Malformed(id, argv, f"invalid arguments: {message}\n")


KINDS_MESSAGE = ("channel.kind: must be one of ideal, amplitude_damping, dephasing, "
                 "depolarizing, memory_swap, custom_rate")
SWAP = {"t1": 0.1, "t2": 0.2, "tau_c": 1.0}
TABLE = [[0.0, 0.5], [10.0, 0.3]]

# (channel object, the message `run` exits 1 with) for each structural channel error:
# a kind that is none of the kinds, an unknown key of each kind, each missing key of
# each form, both forms at once, and the keys with parsers of their own (sign, table)
CHANNEL_MESSAGES = [
    ([], "channel: expected an object"),
    ({}, KINDS_MESSAGE),
    ({"kind": "fiber"}, KINDS_MESSAGE),
    ({"kind": ""}, KINDS_MESSAGE),
    ({"kind": None}, KINDS_MESSAGE),
    ({"kind": []}, KINDS_MESSAGE),
    ({"kind": {}}, KINDS_MESSAGE),
    ({"kind": "ideal", "mu_L": 0.1}, "channel.mu_L: unknown key"),
    ({"kind": "amplitude_damping", "L0": 5.0, "mu_L": 0.1}, "channel.mu_L: unknown key"),
    ({"kind": "amplitude_damping", "L0": 5.0, "lambda_L": 0.1, "zeta": 1},
     "channel.zeta: unknown key"),
    ({"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2, "L0": 5.0}, "channel.L0: unknown key"),
    ({"kind": "dephasing", "bogus": 1}, "channel.bogus: unknown key"),
    ({"kind": "depolarizing", "beta": 0.3, "sign": "-"}, "channel.sign: unknown key"),
    ({"kind": "memory_swap", **SWAP, "table": TABLE}, "channel.table: unknown key"),
    ({"kind": "custom_rate", "table": TABLE, "sign": "-"}, "channel.sign: unknown key"),
    ({"kind": "amplitude_damping"}, "channel.lambda_L: missing required key"),
    ({"kind": "amplitude_damping", "lambda_R": 0.2}, "channel.lambda_L: missing required key"),
    ({"kind": "amplitude_damping", "lambda_L": 0.1}, "channel.lambda_R: missing required key"),
    ({"kind": "dephasing"}, "channel.mu_L: missing required key"),
    ({"kind": "dephasing", "mu_R": 0.2}, "channel.mu_L: missing required key"),
    ({"kind": "dephasing", "mu_L": 0.1}, "channel.mu_R: missing required key"),
    ({"kind": "depolarizing"}, "channel.kappa_L: missing required key"),
    ({"kind": "depolarizing", "kappa_R": 0.2}, "channel.kappa_L: missing required key"),
    ({"kind": "depolarizing", "kappa_L": 0.1}, "channel.kappa_R: missing required key"),
    ({"kind": "memory_swap", "sign": "-"}, "channel.t1: missing required key"),
    ({"kind": "memory_swap", "t2": 0.2, "tau_c": 1.0}, "channel.t1: missing required key"),
    ({"kind": "memory_swap", "t1": 0.1, "tau_c": 1.0}, "channel.t2: missing required key"),
    ({"kind": "memory_swap", "t1": 0.1, "t2": 0.2}, "channel.tau_c: missing required key"),
    ({"kind": "custom_rate"}, "channel.table: missing required key"),
    ({"kind": "amplitude_damping", "L0": 5.0, "lambda_L": 0.1},
     "channel.L0: give either L0 or lambda_L/lambda_R, not both"),
    ({"kind": "amplitude_damping", "L0": 5.0, "lambda_R": 0.2},
     "channel.L0: give either L0 or lambda_L/lambda_R, not both"),
    ({"kind": "depolarizing", "beta": 0.3, "kappa_L": 0.1, "kappa_R": 0.2},
     "channel.beta: give either beta or kappa_L/kappa_R, not both"),
    ({"kind": "depolarizing", "beta": 0.3, "kappa_R": 0.2},
     "channel.beta: give either beta or kappa_L/kappa_R, not both"),
    ({"kind": "dephasing", "mu_L": "0.1", "mu_R": 0.2}, "channel.mu_L: expected a finite number"),
    ({"kind": "amplitude_damping", "L0": -1}, "channel.L0: value -1.0 must be positive"),
    ({"kind": "memory_swap", **SWAP, "sign": "plus"},
     "channel.sign: must be '+', '-', 1 or -1"),
    ({"kind": "memory_swap", **SWAP, "sign": 1.0}, "channel.sign: must be '+', '-', 1 or -1"),
    ({"kind": "custom_rate", "table": [[0.0, 0.5]]},
     "channel.table: expected a list of [baseline, rate] pairs"),
    ({"kind": "custom_rate", "table": [[0.0, 0.5], [1.0, "x"]]},
     "channel.table[1]: expected a pair of finite numbers"),
    ({"kind": "custom_rate", "table": [[1.0, 0.5], [1.0, 0.3]]},
     "channel.table: baselines must be strictly increasing"),
    ({"kind": "custom_rate", "table": [[0.0, 0.6], [1.0, 0.3]]},
     "channel.table: normalized rate 0.6 outside [0, 0.5]"),
]


# For each CHANNEL_PARAMS key: a channel form that takes it, a valid value,
# an invalid one, and the message that names it.
BAD_SWEPT_VALUES = [
    ("lambda_L", {"kind": "amplitude_damping", "lambda_L": 0.1, "lambda_R": 0.2}, "0.4", "1.5",
     "channel.lambda_L: value 1.5 outside [0, 1]"),
    ("lambda_R", {"kind": "amplitude_damping", "lambda_L": 0.1, "lambda_R": 0.2}, "0.4", "-0.1",
     "channel.lambda_R: value -0.1 outside [0, 1]"),
    ("mu_L", {"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2}, "0.3", "1.5",
     "channel.mu_L: value 1.5 outside [0, 1]"),
    ("mu_R", {"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2}, "0.3", "-1",
     "channel.mu_R: value -1.0 outside [0, 1]"),
    ("kappa_L", {"kind": "depolarizing", "kappa_L": 0.1, "kappa_R": 0.2}, "0.3", "1.1",
     "channel.kappa_L: value 1.1 outside [0, 1]"),
    ("kappa_R", {"kind": "depolarizing", "kappa_L": 0.1, "kappa_R": 0.2}, "0.3", "-0.2",
     "channel.kappa_R: value -0.2 outside [0, 1]"),
    ("L0", {"kind": "amplitude_damping", "L0": 5.0}, "12", "0",
     "channel.L0: value 0.0 must be positive"),
    ("beta", {"kind": "depolarizing", "beta": 0.3}, "0.1", "-1",
     "channel.beta: value -1.0 must be positive"),
    ("t1", {"kind": "memory_swap", "t1": 0.1, "t2": 0.2, "tau_c": 1.0}, "0.5", "-1",
     "channel.t1: storage time must be nonnegative"),
    ("t2", {"kind": "memory_swap", "t1": 0.1, "t2": 0.2, "tau_c": 1.0}, "0.5", "-0.5",
     "channel.t2: storage time must be nonnegative"),
    ("tau_c", {"kind": "memory_swap", "t1": 0.1, "t2": 0.2, "tau_c": 1.0}, "3", "0",
     "channel.tau_c: value 0.0 must be positive"),
]

# A theta grid or a phase 2 pi B theta / lambda beyond the float range, a grid step that
# underflows and a phase past MAX_PHASE, each naming its key with no numpy warning
OVERFLOW_CASES = [
    ("half-span-span", dict(theta_grid={"half_span": 1e308, "count": 3}), RUN,
     "theta_grid.half_span: theta grid span overflows at half-span 1e+308"),
    ("half-span-phase", dict(theta_grid={"half_span": 8.9e307, "count": 5}), RUN,
     "theta_grid.half_span: phase 2 pi B theta / lambda overflows at B = 40.0 on the grid "
     "of half-span 8.9e+307"),
    ("B_max-span", dict(baselines={"B_max": 1e-308, "count": 2}), RUN,
     "baselines.B_max: theta grid span overflows at half-span 1.5e+308"),
    ("B_max-beam", dict(baselines={"B_max": 5e-309, "count": 2}), RUN,
     "baselines.B_max: theta grid span overflows at half-span inf"),
    ("list-span", dict(baselines=[5e-309, 1e-308]), RUN,
     "baselines: theta grid span overflows at half-span 1.5e+308"),
    ("wavelength-phase", dict(wavelength=1e-307), RUN,
     "wavelength: phase 2 pi B theta / lambda overflows at B = 40.0 on the grid of "
     "half-span 0.015"),
    ("wavelength-reciprocal", dict(wavelength=1e-310), RUN,
     "wavelength: phase 2 pi B theta / lambda overflows at B = 40.0 on the grid of "
     "half-span 0.015"),
    ("list-B-phase", dict(baselines=[1.0, 1e308]), RUN,
     "wavelength: phase 2 pi B theta / lambda overflows at B = 1e+308 on the grid of "
     "half-span 0.015"),
    ("sweep-B", {}, sweep("B", "10,1e308", "--mc-replicates", "3"),
     "sweep.B: value 1e+308: phase 2 pi B theta / lambda overflows"),
    ("sweep-L", {}, sweep("L", "3e307,10", "--mc-replicates", "3"),
     "sweep.L: value 3e+307: phase 2 pi B theta / lambda overflows"),
    # a grid step below the smallest normal double, whose points round together
    ("half-span-step", dict(sky={"sources": [{"theta": 0, "flux": 1}]},
                            theta_grid={"half_span": 5e-324, "count": 5}), RUN,
     "theta_grid.half_span: theta grid step underflows at half-span 5e-324 and count 5"),
    # finite phases past MAX_PHASE, where cos and sin lose their digits
    ("wavelength-unresolved", dict(wavelength=2.94e-286, baselines=[1.55e16, 4.66e16]), RUN,
     "wavelength: phase 2 pi B theta / lambda reaches 2.9877187276996805e+301 rad at "
     "B = 4.66e+16 on the grid of half-span 0.015, beyond the 1073741824 rad that cos and "
     "sin resolve"),
    ("half-span-unresolved", dict(theta_grid={"half_span": 1e8, "count": 5}), RUN,
     "theta_grid.half_span: phase 2 pi B theta / lambda reaches 50265482457.43669 rad at "
     "B = 40.0 on the grid of half-span 100000000.0, beyond the 1073741824 rad that cos and "
     "sin resolve"),
    ("sweep-B-unresolved", {}, sweep("B", "10,1e12", "--mc-replicates", "3"),
     "sweep.B: value 1000000000000.0: phase 2 pi B theta / lambda reaches "
     "62831853071.79586 rad, beyond the 1073741824 rad that cos and sin resolve"),
    ("sweep-L-unresolved", {}, sweep("L", "10,1e12", "--mc-replicates", "3"),
     "sweep.L: value 1000000000000.0: phase 2 pi B theta / lambda reaches "
     "62831853071.79586 rad, beyond the 1073741824 rad that cos and sin resolve"),
]

# a study option out of its range or malformed names it
BAD_STUDY_ARGUMENTS = [
    ("rates", ["--points", "-1"], "--points: must be in [0, 1000000], not -1"),
    # numpy would ask for petabytes of baselines
    ("rates", ["--points", str(10 ** 15)], f"--points: must be in [0, 1000000], not {10 ** 15}"),
    ("rates", ["--B-max", "-5"], "--B-max: baseline must be nonnegative"),
    ("rates", ["--B-max", "inf"], "--B-max: expected a finite number"),
    ("rates", ["--L0", "0"], "--L0: value 0.0 must be positive"),
    ("rates", ["--beta", "nan"], "--beta: expected a finite number"),
    ("rates", ["--points", "abc"], "argument --points: invalid int value: 'abc'"),
    ("errors", ["--replicates", "0"], "--replicates: must be at least 1, not 0"),
    ("errors", ["--seed", "-1"], "--seed: must be at least 0, not -1"),
    ("errors", ["--budget", "1e5"], "argument --budget: invalid int value: '1e5'"),
    # N_post = round(3 * 0.3 / 2) = 0 at xi = 0.3, and 10**19 / 2 > 2**63 - 1 at xi = 1;
    # no cell of a negative budget has a trial, and 10**400 xi is no float
    *(("errors", ["--replicates", "2", "--budget", budget],
       f"--budget: {budget} gives a cell N_post = round(budget xi / 2) outside [1, 2**63 - 1]")
      for budget in ("3", str(10 ** 20), "-5", str(10 ** 400))),
]


def with_literal(key: str, text: str, prefix: bytes = b"") -> bytes:
    """prefix, then base_config as JSON with the value at key written as the raw JSON text."""
    return prefix + json.dumps(base_config(**{key: "LITERAL"})).replace('"LITERAL"', text).encode()


N_RANGE = "N_per_setting: must be an integer in [1, 9223372036854775807]"
NOT_A_LIST = "sweep.values: not a comma-separated number list: "
DEPHASING = {"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2}

# `run` of base_config with overrides, (id, overrides, message); a top-level key is bare
RUN_CASES = [
    ("wavelength-zero", dict(wavelength=0.0), "wavelength: value 0.0 must be positive"),
    ("wavelength-negative", dict(wavelength=-1.0), "wavelength: value -1.0 must be positive"),
    ("unknown-key", dict(bogus=1), "bogus: unknown key"),
    ("kappa_L-outside-range",
     dict(channel={"kind": "depolarizing", "kappa_L": 1.5, "kappa_R": 0.0}),
     "channel.kappa_L: value 1.5 outside [0, 1]"),
    *((f"sign-{sign}", dict(channel={"kind": "memory_swap", **SWAP, "sign": sign}),
       "channel.sign: must be '+', '-', 1 or -1") for sign in (True, 0)),
    # a config must not ask for an unbounded plan, such as 2**64 baselines
    *((f"baseline-count-{count}", dict(baselines={"B_max": 40.0, "count": count}),
       "baselines.count: must be an integer in [1, 1000000]")
      for count in (0, config.MAX_BASELINES + 1, 2 ** 64)),
    # 1e308 x count overflows to an inf baseline; a subnormal B_max rounds the baselines
    # B_max k / count to 0 (5e-324 / 12) or two of them together (4e-323 k / 12)
    ("B_max-1e308", dict(baselines={"B_max": 1e308, "count": 12}),
     "baselines.B_max: value 1e+308 times count 12 overflows"),
    *((f"B_max-{b_max}", dict(baselines={"B_max": b_max, "count": 12}),
       f"baselines.B_max: value {b_max} over count 12 rounds baselines B_max k / count to 0 "
       "or together") for b_max in (5e-324, 4e-323)),
    *((f"sky-{id}", dict(sky={"sources": sources}), f"sky.sources: {message}")
      for id, sources, message in [
          ("offset", [{"theta": 0.01, "flux": 1.0}, {"theta": -0.25, "flux": 1.0}],
           "source 1: offset -0.25 outside the small-angle regime (|theta| <= 0.1)"),
          ("negative-flux", [{"theta": 0.01, "flux": 1.0}, {"theta": 0.02, "flux": -0.5}],
           "source 1: flux -0.5 must be nonnegative"),
          ("zero-total-flux", [{"theta": 0.01, "flux": 0.0}], "total flux must be positive"),
          ("overflowing-total-flux", [{"theta": -0.01, "flux": 1e308},
                                      {"theta": 0.01, "flux": 1e308}], "total flux overflows"),
          ("no-sources", [], "expected a nonempty list")]),
    # non-finite, boolean and out-of-range numbers
    ("nan-baseline", dict(baselines=[1.0, math.nan, 5.0]),
     "baselines[1]: expected a finite number"),
    ("inf-baseline", dict(baselines=[1.0, 2.0, math.inf]),
     "baselines[2]: expected a finite number"),
    ("nan-table",
     dict(channel={"kind": "custom_rate", "table": [[0.0, 0.5], [math.nan, 0.3]]}),
     "channel.table[1]: expected a pair of finite numbers"),
    ("bool-table",
     dict(channel={"kind": "custom_rate", "table": [[0.0, 0.5], [10.0, True]]}),
     "channel.table[1]: expected a pair of finite numbers"),
    ("huge-N", dict(N_per_setting=2 ** 63), N_RANGE),
    ("huge-theta-grid", dict(theta_grid={"half_span": 0.05, "count": 1_000_001}),
     "theta_grid.count: must be an integer in [2, 1000000]"),
    ("one-baseline-count", dict(baselines={"B_max": 40.0, "count": 1}),
     "baselines: run needs at least two baselines to image"),
    ("one-baseline-list", dict(baselines=[40.0]),
     "baselines: run needs at least two baselines to image"),
    ("narrow-theta-grid", dict(theta_grid={"half_span": 1e-4, "count": 11}),
     "theta_grid.half_span: value 0.0001 does not cover the source at |theta| = 0.01"),
    # a key each, that no row above names
    ("key-sky", dict(sky=[]), "sky: expected an object"),
    ("key-sky.sources.flux", dict(sky={"sources": [{"theta": 0.01, "flux": "1"}]}),
     "sky.sources[0].flux: expected a finite number"),
    ("key-baselines.spacing", dict(baselines={"B_max": 40.0, "count": 12, "spacing": "log"}),
     "baselines.spacing: only 'linear' spacing is supported"),
    ("key-phase_settings", dict(phase_settings={"w1": 0.2, "w2": 0.2}),
     "phase_settings: settings 0.2, 0.2 are degenerate (|sin(w2-w1)| < 1e-06)"),
    ("key-phase_settings.w1", dict(phase_settings={"w1": "0", "w2": 0.2}),
     "phase_settings.w1: expected a finite number"),
    ("key-phase_settings.w2", dict(phase_settings={"w1": 0.0, "w2": math.inf}),
     "phase_settings.w2: expected a finite number"),
    ("key-rates", dict(rates=[]), "rates: expected an object"),
    ("key-rates.R_T", dict(rates={"R_E": 1.0, "R_T": -1.0}),
     "rates.R_T: value -1.0 must be positive"),
    ("key-output_dir", dict(output_dir=""), "output_dir: expected a nonempty string"),
    ("key-theta_grid", dict(theta_grid=[]), "theta_grid: expected an object"),
]

MALFORMED = [
    *(bad_config(f"channel-{i}-{message.split(':')[0]}", RUN, message, {"channel": channel})
      for i, (channel, message) in enumerate(CHANNEL_MESSAGES)),
    # as in every other section, all of a multi-key channel form's keys are checked before
    # any value
    *(bad_config(f"channel-missing-before-bad-{kind}-{keys[-1]}", RUN,
                 f"channel.{keys[-1]}: missing required key",
                 {"channel": {"kind": kind, **{key: "x" for key in keys[:-1]}}})
      for kind, forms in config.CHANNEL_TABLE.items() for keys in forms if len(keys) > 1),
    *(bad_config(f"run-{id}", RUN, message, overrides) for id, overrides, message in RUN_CASES),
    bad_config("run-missing-file", ("run", "missing.json"), "config: cannot read missing.json: "
               "[Errno 2] No such file or directory: 'missing.json'"),
    # every swept value is checked before any row is computed, and a bad one gets the key
    # and message that a config holding it gets
    *(bad_config(f"swept-late-{name}", sweep(name, ",".join([good, good, good, bad, good])),
                 message, {"channel": channel})
      for name, channel, good, bad, message in BAD_SWEPT_VALUES),
    bad_config("swept-structural-lambda_L-on-fiber", sweep("lambda_L", "0.1,0.2,0.3"),
               "channel.L0: give either L0 or lambda_L/lambda_R, not both",
               {"channel": {"kind": "amplitude_damping", "L0": 5.0}}),
    bad_config("swept-structural-mu_L-on-ideal", sweep("mu_L", "0.1,0.2,0.3"),
               "channel.mu_L: unknown key"),
    # the config is checked whole, as run checks it, before the swept values
    bad_config("swept-base-first-bad-rates-before-bad-value", sweep("mu_L", "0.1,1.5"),
               "rates.R_E: value 2.0 outside [0, 1]",
               {"channel": DEPHASING, "rates": {"R_E": 2.0, "R_T": 1.0}}),
    bad_config("swept-base-first-bad-configured-value-under-good-ones", sweep("mu_L", "0.1,0.2"),
               "channel.mu_L: value 1.5 outside [0, 1]", {"channel": {**DEPHASING, "mu_L": 1.5}}),
    bad_config("swept-value-validated", sweep("mu_L", "0.2,1.5"),
               "channel.mu_L: value 1.5 outside [0, 1]", {"channel": {**DEPHASING, "mu_L": 0.0}}),
    # row 1 (lambda_L = 1.0 with lambda_R = 0.3) is computable; row 2 is not a config
    bad_config("swept-later-value-before-any-row",
               sweep("lambda_L", "0.1,1.0,1.5", "--mc-replicates", "10"),
               "channel.lambda_L: value 1.5 outside [0, 1]",
               {"channel": {"kind": "amplitude_damping", "lambda_L": 0.1, "lambda_R": 0.3}}),
    bad_config("swept-unknown-param", sweep("nope", "1,2"),
               "sweep.param.nope: not a sweepable parameter"),
    # a swept N is taken exactly as int(value): no rounding at the top of the range
    *(bad_config(f"swept-N-{id}", sweep("N", f"1000,{value},2000"), message)
      for id, value, message in [
          ("2**63", "9.223372036854776e18", N_RANGE), ("1e20", "1e20", N_RANGE),
          ("fraction", "1.5", "sweep.N_per_setting: value 1.5 is not a positive integer"),
          ("zero", "0", "sweep.N_per_setting: value 0.0 is not a positive integer")]),
    *(bad_config(f"sweep-{id}", sweep(param, values, "--mc-replicates", "5"), message)
      for id, param, values, message in [
          ("nan-value", "B", "10,nan", "sweep.values: values must be finite: '10,nan'"),
          ("huge-N", "N", "1000,1e20", N_RANGE),
          ("empty-values", "nope", ",", f"{NOT_A_LIST}','"),
          ("unknown-param", "nope", "1,2", "sweep.param.nope: not a sweepable parameter"),
          ("negative-L", "L", "10,-1", "sweep.L: baseline must be nonnegative"),
          ("empty-inner-value", "B", "10,,20", f"{NOT_A_LIST}'10,,20'"),
          ("empty-last-value", "B", "10,20,", f"{NOT_A_LIST}'10,20,'")]),
    bad_config("sweep-negative-replicates-before-values",
               sweep("B", "10,nan", "--mc-replicates", "-1"),
               "sweep.mc_replicates: must be nonnegative"),
    # a list that starts with a negative number, which argparse took for an option
    *(bad_config(f"sweep-negative-first-value-{id}",
                 ("sweep", "cfg.json", "--param", "B", *values),
                 "sweep.B: baseline must be nonnegative")
      for id, values in [("spaced", ["--values", "-1,0"]), ("joined", ["--values=-1,0"]),
                         ("abbreviated", ["--val", "-1,0"]),
                         ("abbreviated-joined", ["--val=-1,0"])]),
    # sweep never reads the grid, but a bad theta_grid is still a config error
    *(bad_config(f"sweep-checks-{id}", sweep("B", "10,20"), message,
                 {"theta_grid": theta_grid}) for id, theta_grid, message in [
        ("huge-theta-grid", {"half_span": 0.05, "count": 1_000_001},
         "theta_grid.count: must be an integer in [2, 1000000]"),
        ("narrow-theta-grid", {"half_span": 1e-4, "count": 11},
         "theta_grid.half_span: value 0.0001 does not cover the source at |theta| = 0.01"),
        ("theta-grid-without-count", {"half_span": 0.05},
         "theta_grid.count: missing required key")]),
    *(bad_config(f"overflow-{id}", argv, message, overrides)
      for id, overrides, argv, message in OVERFLOW_CASES),
    # a name given twice in one JSON object names its dotted key
    *(bad_config(f"duplicate-{id}-{argv[0]}", argv, f"{key}: duplicate key", (old, new))
      for id, old, new, key in [
          ("top-level", '"seed": 11,', '"seed": 11, "seed": 12,', "seed"),
          ("nested", '"L0": 10.0', '"L0": 10.0, "L0": 10.0', "channel.L0"),
          ("in-a-list", '{"theta": 0.01, "flux": 1.0}',
           '{"theta": 0.01, "flux": 1.0, "theta": 0.02}', "sky.sources[1].theta")]
      for argv in (RUN, sweep("N", "100,200"))),
    # a file json.load cannot decode names the file, whatever the decoder raises: not
    # UTF-8, nested past its recursion limit, or an integer past Python's digit limit.
    # The decoder's words differ between Python versions, so these rows fix the start
    *(bad_config(f"json-{argv[0]}-{id}", argv, "config: cfg.json is not valid JSON: ", raw,
                 prefix=True, marks=marks)
      for id, raw, marks in [
          ("not-utf8", with_literal("seed", "3", b"\xff\xfe"), ()),
          ("nested-100000-deep", with_literal("sky", "[" * 100_000 + "]" * 100_000), ()),
          ("5000-digit-integer", with_literal("seed", "1" + "0" * 4999), pytest.mark.skipif(
              not hasattr(sys, "get_int_max_str_digits"), reason="no int-digit limit"))]
      for argv in (RUN, sweep("N", "100"))),
    # usage errors name the argument, in argparse's words, the same in Python 3.10 to 3.13
    *(bad_arguments(f"arguments-{id}", argv, message) for id, argv, message in [
        ("unknown-verb", ("frob", "cfg.json"), "argument verb: invalid choice: 'frob' (choose "
         "from 'run', 'sweep', 'validate', 'study')"),
        ("missing-param", ("sweep", "cfg.json", "--values", "1,2"),
         "the following arguments are required: --param"),
        ("missing-values", ("sweep", "cfg.json", "--param", "B"),
         "the following arguments are required: --values"),
        ("non-integer-replicates", sweep("B", "1,2", "--mc-replicates", "2.5"),
         "argument --mc-replicates: invalid int value: '2.5'"),
        ("missing-study", ("study",), "the following arguments are required: study"),
        ("option-without-value", ("study", "rates", "--L0"),
         "argument --L0: expected one argument")]),
    # the ids are cut at 66 characters: one budget has 401 digits
    *(bad_arguments(f"study-{verb} {' '.join(argv)}"[:66], ("study", verb, *argv), message)
      for verb, argv, message in BAD_STUDY_ARGUMENTS),
]


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id, marks=row.marks)
                                 for row in MALFORMED])
def test_malformed_input_exits_1(tmp_path, monkeypatch, capsys, row):
    """Exit 1 with all of the row's stderr, no file written and no warning raised."""
    monkeypatch.chdir(tmp_path)  # where the default output_dir and study --out would be
    if isinstance(row.config, tuple):
        text = (CONFIG_DIR / "fiber_two_source.json").read_text(encoding="utf-8")
        assert text.count(row.config[0]) == 1
        raw = text.replace(*row.config).encode()
    else:
        raw = row.config if isinstance(row.config, bytes) else json.dumps(
            base_config(**row.config)).encode()
    (tmp_path / "cfg.json").write_bytes(raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(list(row.argv)) == 1
    err = capsys.readouterr().err
    if row.prefix:  # the row's text, then the decoder's own words on the same one line
        assert re.fullmatch(re.escape(row.stderr[:-1]) + r".+\n", err)
    else:
        assert err == row.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]
    assert not caught


def named_key(row: Malformed) -> str | None:
    """The key or option row's stderr names, list indices dropped and sweep.param.<name>
    read as sweep.param; None for argparse's own words."""
    match = re.match(r"invalid (?:config|arguments): ((?:--)?[A-Za-z_][\w.\[\]-]*): ", row.stderr)
    return match and re.sub(r"\[\d+\]|(?<=^sweep\.param)\.\w+", "", match[1])


def config_keys(obj: dict, context: str = ""):
    """The dotted key of every value in obj and in the objects it holds, indices dropped."""
    for key, value in obj.items():
        name = f"{context}.{key}" if context else key
        yield name
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, dict):
                yield from config_keys(item, name)


def test_every_key_has_a_row():
    """A row names each key config can name in an exit 1: each key of a config with every
    section, each channel key, the sweep's own keys, the file and each study option; and a
    sweep row names each channel parameter."""
    full = base_config(phase_settings={"w1": 0.0, "w2": 1.0}, rates={"R_E": 1.0, "R_T": 1.0},
                       output_dir="out", theta_grid={"half_span": 0.05, "count": 11})
    keys = {*config_keys(full), *(f"channel.{key}" for key in (*CHANNEL_PARAMS, "table", "sign")),
            *(f"sweep.{key}" for key in ("values", "param", "mc_replicates", "N_per_setting",
                                         "B", "L")),
            "config", *config.STUDY_OPTIONS}
    assert keys - {named_key(row) for row in MALFORMED} == set()
    swept = {named_key(row) for row in MALFORMED if row.argv[0] == "sweep"}
    assert {f"channel.{key}" for key in CHANNEL_PARAMS} - swept == set()


def test_every_table_form_has_example_params():
    examples = {(kind, tuple(key for key in params if key != "sign"))
                for kind, params in CHANNEL_FORMS}
    assert examples == {(kind, keys) for kind, forms in config.CHANNEL_TABLE.items()
                        for keys in forms}


class TestRunCommand:
    def test_bundled_example(self, tmp_path, monkeypatch):
        cfg = json.loads((CONFIG_DIR / "ideal_two_source.json").read_text())
        cfg["N_per_setting"] = 2000
        cfg["output_dir"] = str(tmp_path / "out")
        code = main(["run", write_config(tmp_path, cfg)])
        assert code == 0
        outdir = tmp_path / "out"
        for name in ("visibility.csv", "intensity.csv", "summary.json"):
            assert (outdir / name).exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["channel"] == "ideal"
        assert summary["xi"] == 1.0 and summary["C"] == 1.0
        # matrices serialize as nested [re, im] pairs
        ent = summary["resource_state"]
        assert ent[1][2] == [0.5, 0.0]

    def test_dead_resource_exit_2(self, tmp_path, capsys):
        cfg = base_config(channel={"kind": "amplitude_damping",
                                   "lambda_L": 1.0, "lambda_R": 1.0},
                          output_dir=str(tmp_path / "out"))
        code = main(["run", write_config(tmp_path, cfg)])
        assert code == 2
        assert "DegenerateResource" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "N", "--values",
                                                    "100,200", "--mc-replicates", "5"]],
                             ids=["run", "sweep"])
    def test_full_fringe_state_exit_0(self, tmp_path, capsys, command):
        # C rounds to 1 + 2e-16 here, so the first setting's p_c comes out at -5.6e-17
        cfg = base_config(sky={"sources": [{"theta": 0, "flux": 1}]},
                          baselines={"B_max": 10, "count": 4},
                          channel={"kind": "amplitude_damping", "lambda_L": 0.004453664655359336,
                                   "lambda_R": 0.00445366819128524},
                          N_per_setting=1000, seed=1, output_dir=str(tmp_path / "out"))
        assert main([command[0], write_config(tmp_path, cfg), *command[1:]]) == 0
        assert capsys.readouterr().err == ""

    def test_unnormalizable_map_exit_2(self, tmp_path, capsys):
        # where the depolarizing coherence changes sign (C = 0.001 at B = 13.3) an
        # estimate |V| ~ 47 gives the map a negative total, which cannot be normalized
        cfg = base_config(sky={"sources": [{"theta": -0.01, "flux": 1.0},
                                           {"theta": 0.012, "flux": 0.7}]},
                          phase_settings={"w1": 0.0, "w2": 1.5},
                          channel={"kind": "depolarizing", "beta": 0.2},
                          theta_grid={"half_span": 0.05, "count": 101},
                          seed=14, output_dir=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith("runtime error: NonPositiveMapError: ")

    def test_gnuplot_artifact(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        code = main(["run", write_config(tmp_path, cfg), "--gnuplot"])
        assert code == 0
        assert (tmp_path / "out" / "plot.gp").exists()

    # the columns each plot draws, by name: x, y and, for error bars, the error
    PLOTTED = {
        "run": {"visibility.csv": [("B", "V_a_true"), ("B", "V_a_hat", "dV_a")],
                "intensity.csv": [("theta", "I_true"), ("theta", "I_exact"),
                                  ("theta", "I_est")]},
        "sweep": {"sweep.csv": [("value", "ln_R_M")]},
    }

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_gnuplot_columns_are_the_plotted_names(self, tmp_path, verb):
        """Each `using` column number of plot.gp is the place of its column in the CSV's header."""
        cfg = base_config(output_dir=str(tmp_path / "out"))
        extra = ["--param", "B", "--values", "0,10,20"] if verb == "sweep" else []
        assert main([verb, write_config(tmp_path, cfg), *extra, "--gnuplot"]) == 0
        headers = {"visibility.csv": cli.VISIBILITY_HEADER, "intensity.csv": cli.INTENSITY_HEADER,
                   "sweep.csv": cli.SWEEP_HEADER}
        plotted, data_file = {}, None
        for line in (tmp_path / "out" / "plot.gp").read_text(encoding="utf-8").splitlines():
            if not line.startswith("plot "):
                continue
            for name, using in re.findall(r"'([^']*)' using ([\d:]+)", line):
                data_file = name or data_file  # '' plots the previous file again
                header = headers[data_file]
                plotted.setdefault(data_file, []).append(
                    tuple(header[int(k) - 1] for k in using.split(":")))
        assert plotted == self.PLOTTED[verb]
        for data_file in plotted:  # the header the file holds is the one read above
            first = (tmp_path / "out" / data_file).read_text(encoding="utf-8").split("\n")[0]
            assert tuple(first.split(",")) == headers[data_file]

    def test_summary_is_strict_json_at_zero_entangled_rate(self, tmp_path):
        # R_E = 0 makes the trend scales infinite; RFC 8259 has no Infinity or NaN
        cfg = base_config(rates={"R_E": 0.0, "R_T": 1.0}, output_dir=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg)]) == 0

        def reject(constant):
            raise ValueError(f"summary.json holds the non-JSON constant {constant}")

        text = (tmp_path / "out" / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(text, parse_constant=reject)
        assert summary["dVa_scale"] is None and summary["dVp_scale"] is None
        assert summary["dI_scale"] is None  # the same trend scales, combined
        assert summary["xi"] == 1.0

    def test_summary_is_taken_at_the_worst_baseline(self, tmp_path):
        # every fiber baseline has C = 1, so the worst one is the longest, B = 60
        cfg = json.loads((CONFIG_DIR / "fiber_two_source.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        with open(tmp_path / "out" / "visibility.csv", encoding="utf-8") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        last = rows[-1]
        assert last["B"] == 60.0
        assert (summary["xi"], summary["C"], summary["R_M_norm"]) == (
            last["xi"], last["C"], last["R_M_norm"])
        resource = load_config(path).channel.resource_factory()(60.0)
        assert summary["resource_state"] == cli._resource_state(resource)
        r_e = cfg["rates"]["R_E"]
        largest = max(1.0 / (row["C"] * math.sqrt(row["xi"] * r_e)) for row in rows)
        assert summary["dVa_scale"] == pytest.approx(largest, rel=1e-12)
        assert summary["dI_scale"] == math.hypot(summary["dVa_scale"], summary["dVp_scale"])
        assert summary["resolution"] == 1.0 / (2.0 * 60.0)

    @pytest.mark.parametrize("overrides", [
        {},
        # acceptance C11: a fiber scan of 16 baselines
        {"baselines": {"B_max": 40.0, "count": 16, "spacing": "linear"},
         "channel": {"kind": "amplitude_damping", "L0": 15.0}, "N_per_setting": 3000,
         "rates": {"R_E": 1.0, "R_T": 1e6}, "seed": 1111},
    ], ids=["ideal", "fiber"])
    def test_repeated_runs_are_byte_identical(self, tmp_path, overrides):
        digests = []
        for attempt in range(4):
            outdir = tmp_path / f"run{attempt}"
            cfg = base_config(output_dir=str(outdir), **overrides)
            assert main(["run", write_config(tmp_path, cfg)]) == 0
            digests.append(tuple((outdir / n).read_bytes()
                                 for n in ("visibility.csv", "intensity.csv", "summary.json")))
        assert digests.count(digests[0]) == 4


class TestSweepCommand:
    def test_fiber_rate_slope(self, tmp_path):
        l0 = 10.0
        cfg = base_config(channel={"kind": "amplitude_damping", "L0": l0},
                          rates={"R_E": 1.0, "R_T": 1e6},
                          output_dir=str(tmp_path / "out"))
        values = ",".join(str(v) for v in np.linspace(0.0, 6 * l0, 13))
        code = main(["sweep", write_config(tmp_path, cfg), "--param", "B",
                     "--values", values])
        assert code == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        data = np.array([[float(v) if v else math.nan for v in r.split(",")]
                         for r in rows[1:]])
        b = data[:, header.index("value")]
        ln_r = data[:, header.index("ln_R_M")]
        coeffs = np.polyfit(b, ln_r, 1)
        residual = np.max(np.abs(np.polyval(coeffs, b) - ln_r))
        assert abs(coeffs[0] + 1.0 / (2 * l0)) <= 1e-9
        assert residual <= 1e-9

    def test_depolarizing_asymptote(self, tmp_path):
        cfg = base_config(channel={"kind": "depolarizing", "beta": 1.0},
                          output_dir=str(tmp_path / "out"))
        code = main(["sweep", write_config(tmp_path, cfg), "--param", "L",
                     "--values", "40,60,80"])
        assert code == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        for row in rows[1:]:
            r_norm = float(row.split(",")[3])
            assert abs(r_norm - 5.0 / 18.0) <= 1e-6

    def test_rmse_slope_over_trial_decades(self, tmp_path):
        cfg = base_config(baselines=[20.0], output_dir=str(tmp_path / "out"))
        code = main(["sweep", write_config(tmp_path, cfg), "--param", "N",
                     "--values", "1000,10000,100000", "--mc-replicates", "200"])
        assert code == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        ns, rmse = [], []
        for row in rows[1:]:
            fields = row.split(",")
            ns.append(float(fields[0]))
            rmse.append(float(fields[6]))
        slope = float(np.polyfit(np.log10(ns), np.log10(rmse), 1)[0])
        assert abs(slope + 0.5) <= 0.05

    def test_mc_replicates_byte_identical_for_a_seed(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            cfg = base_config(channel={"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2},
                              output_dir=str(tmp_path / run))
            assert main(["sweep", write_config(tmp_path, cfg), "--param", "N",
                         "--values", "1000,5000", "--mc-replicates", "50"]) == 0
            outputs.append((tmp_path / run / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
        rows = outputs[0].decode().strip().splitlines()[1:]
        assert all(float(r.split(",")[6]) > 0.0 for r in rows)

    def test_custom_rate_table(self, tmp_path):
        table = [[0.0, 0.5], [10.0, 0.4], [20.0, 0.35]]
        cfg = base_config(channel={"kind": "custom_rate", "table": table},
                          output_dir=str(tmp_path / "out"))
        code = main(["sweep", write_config(tmp_path, cfg), "--param", "B",
                     "--values", "0,5,10,20"])
        assert code == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        r_norm = [float(r.split(",")[3]) for r in rows[1:]]
        assert r_norm == [0.5, 0.45, 0.4, 0.35]

    @pytest.mark.parametrize("channel, param, values, dead", [
        ({"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2}, "mu_L", "0.5,1.0", {1}),
        # lambda_R = 1 leaves no coherence (row 0) and with lambda_L = 1 no weight (row 1)
        ({"kind": "amplitude_damping", "lambda_L": 0.1, "lambda_R": 1.0},
         "lambda_L", "0.5,1.0", {0, 1}),
    ], ids=["zero-concurrence", "degenerate-resource"])
    def test_dead_row_with_replicates(self, tmp_path, channel, param, values, dead):
        # a dead resource gets the row the sweep without replicates writes, RMSE cells empty
        outputs = {}
        for reps in ("0", "10"):
            cfg = base_config(channel=channel, output_dir=str(tmp_path / reps))
            assert main(["sweep", write_config(tmp_path, cfg), "--param", param,
                         "--values", values, "--mc-replicates", reps]) == 0
            outputs[reps] = [r.split(",") for r in
                             (tmp_path / reps / "sweep.csv").read_text().splitlines()[1:]]
        for r, (plain, mc) in enumerate(zip(outputs["0"], outputs["10"])):
            assert mc[:6] == plain[:6]
            if r in dead:
                assert mc[6:] == ["", ""]
            else:
                assert float(mc[6]) > 0.0 and float(mc[7]) > 0.0

def reference_log_rates(r_abs) -> tuple[float, float]:
    """The ln_R_M and log10_R_M cells of one rate, as the per-row writer computed them."""
    ln_r = math.log(r_abs) if r_abs > 0.0 else -math.inf
    return ln_r, ln_r / math.log(10.0) if math.isfinite(ln_r) else -math.inf


@pytest.mark.parametrize("kind, params, name", SWEPT_CASES, ids=SWEPT_IDS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_sweep_rows_are_the_per_value_figures(kind, params, name, data):
    """sweep.csv of a B or channel-parameter sweep holds, byte for byte, the rows that
    resource_factory and resource_figures give for each value alone."""
    values = data.draw(st.lists(SWEPT_VALUES[name], min_size=1, max_size=6))
    raw = base_config(channel={"kind": kind, **params}, rates={"R_E": 0.8, "R_T": 1e6})
    base = parse_config(raw)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCoherenceWarning)  # kappa past x = 1/4
        for value in values:
            b, channel = value, base.channel
            if name != "B":
                b = base.plan.B_m
                channel = ChannelConfig(kind, {**channel.params, name: value})
            xi, conc, r_norm, r_abs = resource_figures(
                channel.resource_factory()(b), b, base.rates, channel.rate_norm_fn())
            rows.append((value, xi, conc, r_norm, *reference_log_rates(r_abs), "", ""))
        with tempfile.TemporaryDirectory() as tmp:
            # the expected file: every row's cells, formatted per row
            cli.write_csv(Path(tmp) / "expected.csv", cli.SWEEP_HEADER,
                          [list(column) for column in zip(*rows)], cli.SWEEP_FORMATS)
            expected = (Path(tmp) / "expected.csv").read_bytes()
            path = write_config(Path(tmp), {**raw, "output_dir": str(Path(tmp) / "out")})
            assert main(["sweep", path, "--param", name,
                         "--values", ",".join(map(repr, values))]) == 0
            got = (Path(tmp) / "out" / "sweep.csv").read_bytes()
    assert got == expected


@pytest.mark.parametrize("kind, params", CHANNEL_FORMS,
                         ids=["-".join((kind, *params)) for kind, params in CHANNEL_FORMS])
def test_run_resource_columns_are_the_per_baseline_figures(tmp_path, kind, params):
    """visibility.csv's xi, C, R_M_norm, ln_R_M and log10_R_M cells, and summary.json's
    figures and resource_state at the worst baseline, are what resource_factory and
    resource_figures give each baseline alone, in every channel form."""
    # baselines up to 3: every form's C stays well above 0, the depolarizing beta
    # form's too (its coherence changes sign past B = 13.9)
    raw = base_config(channel={"kind": kind, **params}, rates={"R_E": 0.8, "R_T": 1e6},
                      baselines={"B_max": 3.0, "count": 9}, output_dir=str(tmp_path / "out"))
    cfg = parse_config(raw)
    factory, rate_norm_fn = cfg.channel.resource_factory(), cfg.channel.rate_norm_fn()
    figures = [resource_figures(factory(b), b, cfg.rates, rate_norm_fn)
               for b in cfg.plan.baselines]
    assert min(conc for _, conc, _, _ in figures) > 0.3
    expected = [["%.17g" % cell for cell in (xi, conc, r_norm, *reference_log_rates(r_abs))]
                for xi, conc, r_norm, r_abs in figures]
    # the first baseline of the largest amplitude trend scale 1/(C sqrt(xi R_X))
    worst = min(range(len(figures)), key=lambda i: figures[i][1] * math.sqrt(figures[i][0]))
    m = factory(cfg.plan.baselines[worst]).density_matrix()

    assert main(["run", write_config(tmp_path, raw)]) == 0
    with open(tmp_path / "out" / "visibility.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    start = rows[0].index("xi")
    assert rows[0][start:start + 5] == ["xi", "C", "R_M_norm", "ln_R_M", "log10_R_M"]
    assert [row[start:start + 5] for row in rows[1:]] == expected
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert [repr(summary[key]) for key in ("xi", "C", "R_M_norm")] == \
        [repr(float(cell)) for cell in figures[worst][:3]]
    # json text of both, so a -0.0 imaginary part differs from 0.0
    assert json.dumps(summary["resource_state"]) == \
        json.dumps(np.stack([m.real, m.imag], axis=-1).tolist())


def test_sweep_warns_of_a_fold_once(tmp_path):
    cfg = base_config(channel={"kind": "depolarizing", "kappa_L": 0.1, "kappa_R": 0.0},
                      output_dir=str(tmp_path / "out"))
    with pytest.warns(DegenerateCoherenceWarning) as caught:  # x > 1/4 from kappa_L = 0.8 on
        assert main(["sweep", write_config(tmp_path, cfg), "--param", "kappa_L",
                     "--values", "0.2,0.8,0.9,1"]) == 0
    assert len(caught) == 1


# each channel parameter's first form in CHANNEL_FORMS, with valid values for the rest
PARAM_FORMS = {name: next((kind, params) for kind, params in CHANNEL_FORMS if name in params)
               for name in CHANNEL_PARAMS}


@pytest.mark.parametrize("name", CHANNEL_PARAMS)
@given(value=st.one_of(st.floats(-2.0, 3.0), st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1.0 + 2 ** -52])))
@settings(max_examples=40, deadline=None)
def test_config_and_builder_agree_on_each_value(name, value):
    """parse_config and the channel form's builder accept the same finite values of each
    channel parameter and refuse the rest with one fault: `channel.<key>: X` against
    `<key>: X`, both from channels.PARAM_RULES."""
    kind, params = PARAM_FORMS[name]
    params = {**params, name: value}
    try:
        parse_config(base_config(channel={"kind": kind, **params}))
        config_fault = None
    except ConfigError as exc:
        config_fault = str(exc)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateCoherenceWarning)  # kappa past x = 1/4
            ChannelConfig(kind, params).resource_factory()(7.5)
        library_fault = None
    except ValueError as exc:
        library_fault = f"channel.{exc}"
    assert config_fault == library_fault


class TestOverflowingPhasesExit1:
    """The phase and grid-step limits of MALFORMED's overflow rows, just inside and just
    past, and the configs that run clear of them."""

    def test_phase_bound_is_max_phase(self):
        # the grid's phase 2 pi B (2 half_span) / lambda just under MAX_PHASE and just past
        half_span = config.MAX_PHASE / (2.0 * math.pi * 40.0 * 2.0)
        parse_config(base_config(theta_grid={"half_span": half_span * (1 - 1e-12), "count": 5}))
        with pytest.raises(ConfigError, match=r"^theta_grid\.half_span: phase .* beyond the "
                                              r"1073741824 rad"):
            parse_config(base_config(theta_grid={"half_span": half_span * (1 + 1e-12),
                                                 "count": 5}))

    def test_grid_step_bound_is_smallest_normal(self, tmp_path):
        # a step of exactly the smallest normal double keeps the points distinct and runs
        one = {"sources": [{"theta": 0, "flux": 1}]}
        half_span = 2.0 * sys.float_info.min
        path = write_config(tmp_path, base_config(
            sky=one, theta_grid={"half_span": half_span, "count": 5},
            output_dir=str(tmp_path / "out")))
        assert main(["run", path]) == 0
        with pytest.raises(ConfigError, match=r"^theta_grid\.half_span: theta grid step "
                                              r"underflows"):
            parse_config(base_config(sky=one, theta_grid={"half_span": 0.5 * half_span,
                                                          "count": 5}))

    def test_default_grid_step_below_normal_runs(self, tmp_path):
        # the default grid's step can pass below the smallest normal double where the
        # phase checks hold, yet its points stay distinct, so it needs no step check
        cfg = base_config(sky={"sources": [{"theta": 0, "flux": 1}]}, wavelength=1e-300,
                          baselines={"B_max": 1e7, "count": 12, "spacing": "linear"},
                          output_dir=str(tmp_path / "out"))
        half_span, count = parse_config(cfg).theta_span
        assert 2.0 * half_span / (count - 1) < sys.float_info.min
        assert main(["run", write_config(tmp_path, cfg)]) == 0

    def test_sweep_without_replicates_evaluates_no_visibility(self, tmp_path):
        # the rate columns alone hold at any finite baseline
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["sweep", path, "--param", "B", "--values", "10,1e308"]) == 0

    def test_bundled_configs_pass(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            load_config(str(path))


class TestArgumentErrorsExit1:
    """--help exits 0; every usage error is a MALFORMED row, exiting 1."""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--mc-replicates" in capsys.readouterr().out


class TestStudyCommand:
    """`study rates` and `study errors`: the paper's two tables, written through write_csv."""

    def test_rate_vs_baseline(self, tmp_path, capsys):
        assert main(["study", "rates", "--L0", "10", "--beta", "0.1", "--points", "21",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "rate_vs_baseline.csv").read_text().strip().splitlines()
        assert rows[0].startswith("B,")
        assert len(rows) == 22
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        lns = np.log(data[:, 1])
        slope = np.polyfit(data[:, 0], lns, 1)[0]
        assert abs(slope + 1.0 / 20.0) <= 1e-9
        assert capsys.readouterr().out == (
            f"wrote {tmp_path / 'rate_vs_baseline.csv'} (21 rows)\n"
            "fiber slope check: d(ln R)/dB = -0.050000 expected\n")

    def test_rate_vs_baseline_zero_points(self, tmp_path):
        assert main(["study", "rates", "--points", "0", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rate_vs_baseline.csv").read_text() == (
            "B,R_fiber_norm,R_depol_norm,R_ideal_norm,ln_R_depol_approx\n")

    def test_error_scaling_study(self, tmp_path, capsys):
        assert main(["study", "errors", "--replicates", "25", "--budget", "20000",
                     "--out", str(tmp_path)]) == 0
        n_rows = (tmp_path / "rmse_vs_n.csv").read_text().strip().splitlines()
        assert len(n_rows) == 4
        res_rows = (tmp_path / "rmse_vs_resource.csv").read_text().strip().splitlines()
        assert len(res_rows) == 10
        out = capsys.readouterr().out
        assert re.search(rf"^wrote {re.escape(str(tmp_path / 'rmse_vs_n.csv'))}; "
                         r"RMSE\(V_a\) log-log slope = -?\d\.\d{3} \(expect -0\.5\)$", out, re.M)
        assert f"\nwrote {tmp_path / 'rmse_vs_resource.csv'}\n" in out
        # 12 rows (3 sample sizes, a 3 x 3 resource grid) of 25 replicates, timed in-process
        assert re.search(r"^replicate_rmse: 300 row-replicates in \d+\.\d{6} s$", out, re.M)

    def test_resource_study_names_a_refused_budget_before_drawing(self):
        with pytest.raises(ValueError, match=r"^budget: 3 gives a cell N_post"):
            validation.rmse_vs_resource(1, 2, 3)


class TestParserReuse:
    def test_consecutive_calls_behave_as_fresh_ones(self, tmp_path, capsys):
        # main() builds its parser once per process; no call may see an earlier call's
        # arguments, e.g. the sweep's --gnuplot must not make the run write plot.gp
        sweep_cfg = write_config(tmp_path, base_config(output_dir=str(tmp_path / "sweep")),
                                 "sweep.json")
        run_cfg = write_config(tmp_path, base_config(output_dir=str(tmp_path / "run")),
                               "run.json")
        calls = [
            ["sweep", sweep_cfg, "--param", "B", "--values", "10,20", "--mc-replicates", "3",
             "--gnuplot"],
            ["run", run_cfg],
            ["sweep", sweep_cfg, "--param", "B"],
            ["sweep", sweep_cfg, "--param", "N", "--values", "500,1000"],
        ]

        def outcome(argv):
            for outdir in ("sweep", "run"):
                shutil.rmtree(tmp_path / outdir, ignore_errors=True)
            code = main(argv)
            files = {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                     for p in sorted(tmp_path.glob("*/*"))}
            return code, capsys.readouterr().err, files

        cli._parser.cache_clear()
        warm = [outcome(argv) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        assert warm == fresh
        assert [code for code, _, _ in warm] == [0, 0, 1, 0]
        assert "sweep/plot.gp" in warm[0][2]
        assert "run/summary.json" in warm[1][2] and "run/plot.gp" not in warm[1][2]


# (parameter, channel, a valid value or None, an invalid value)
SWEEP_CASES = [
    ("N", {"kind": "ideal"}, 5000.0, 1e20),
    ("R_E", {"kind": "ideal"}, 0.25, 1.5),
    ("R_T", {"kind": "ideal"}, 10.0, -1.0),
    ("w1", {"kind": "ideal"}, 0.3, 1.4),
    ("w2", {"kind": "ideal"}, 2.0, 0.1),
    ("lambda_L", {"kind": "amplitude_damping", "lambda_L": 0.1, "lambda_R": 0.2}, 0.4, 1.5),
    ("lambda_R", {"kind": "amplitude_damping", "lambda_L": 0.1, "lambda_R": 0.2}, 0.4, -0.1),
    ("mu_L", {"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2}, 0.3, 2.0),
    ("mu_R", {"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2}, 0.3, -1.0),
    ("kappa_L", {"kind": "depolarizing", "kappa_L": 0.1, "kappa_R": 0.2}, 0.3, 1.1),
    ("kappa_R", {"kind": "depolarizing", "kappa_L": 0.1, "kappa_R": 0.2}, 0.3, -0.2),
    ("L0", {"kind": "amplitude_damping", "L0": 5.0}, 12.0, 0.0),
    ("beta", {"kind": "depolarizing", "beta": 0.3}, 0.1, -1.0),
    ("t1", {"kind": "memory_swap", "t1": 0.1, "t2": 0.2, "tau_c": 1.0, "sign": "-"}, 0.5, -1.0),
    ("t2", {"kind": "memory_swap", "t1": 0.1, "t2": 0.2, "tau_c": 1.0}, 0.5, -1.0),
    ("tau_c", {"kind": "memory_swap", "t1": 0.1, "t2": 0.2, "tau_c": 1.0}, 3.0, 0.0),
    ("mu_L", {"kind": "ideal"}, None, 0.1),  # a parameter the channel kind does not take
]


def edited(raw: dict, name: str, value: float) -> dict:
    """raw with the swept parameter set as it would appear in a config file."""
    out = json.loads(json.dumps(raw))
    if name == "N":
        out["N_per_setting"] = int(value)
    elif name in ("R_E", "R_T"):
        out["rates"][name] = value
    elif name in ("w1", "w2"):
        out["phase_settings"][name] = value
    else:
        out["channel"][name] = value
    return out


# (valid, any) values of each swept name: "any" mixes invalid values with the
# edges of each range, and for w1/w2 settings at and near the other one (degenerate)
_EDGES = st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1.0 + 2 ** -52, 1.0 - 2 ** -53])
_UNIT = (st.floats(0.0, 1.0), st.one_of(st.floats(-1.0, 3.0), _EDGES))
_POSITIVE = (st.floats(1e-3, 1e3), st.one_of(st.floats(-1.0, 1e-3), _EDGES))
_STORAGE = (st.floats(0.0, 50.0), st.one_of(st.floats(-1.0, 1.0), _EDGES))
SWEPT_DRAWS = {
    "N": (st.one_of(st.integers(1, 10 ** 6).map(float),
                    st.sampled_from([2.0 ** 62, 2.0 ** 63 - 1024])),
          st.one_of(st.floats(-2.0, 1e4), st.sampled_from([0.0, 0.5, 1.5, 2.0 ** 63, 1e20,
                                                           -1e20]))),
    "R_E": _UNIT,
    "R_T": (st.floats(1e-3, 1e7), st.one_of(st.floats(-10.0, 1.0), _EDGES)),
    "w1": (st.floats(-7.0, 7.0), st.sampled_from([1.4, 1.4 + math.pi, 1.4 - 1e-4, 1.4 + 0.1])),
    "w2": (st.floats(-7.0, 7.0), st.sampled_from([0.1, 0.1 - math.pi, 0.1 + 1e-4, 0.1 - 0.1])),
    **{name: _UNIT for name in ("lambda_L", "lambda_R", "mu_L", "mu_R", "kappa_L", "kappa_R")},
    "L0": _POSITIVE, "beta": _POSITIVE, "tau_c": _POSITIVE, "t1": _STORAGE, "t2": _STORAGE,
}


@st.composite
def swept_value_lists(draw, name):
    """Valid values of name with up to two values of any kind inserted anywhere."""
    valid, anything = SWEPT_DRAWS[name]
    values = draw(st.lists(valid, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        values.insert(draw(st.integers(0, len(values))), draw(anything))
    return values


def full_parse_verdict(raw: dict, name: str, value: float):
    """(key, message) of the ConfigError a sweep of name reports for value, None if none.

    A full parse of the edited config, after the one check a sweep adds: an N
    that no config can hold (not a positive integer).
    """
    if name == "N" and (value < 1.0 or int(value) != value):
        return "sweep.N_per_setting", f"sweep.N_per_setting: value {value} is not a positive integer"
    try:
        parse_config(edited(raw, name, value))
    except ConfigError as exc:
        return exc.key, str(exc)
    return None


# each swept name on the channel forms that take it, on the forms of the same kind
# that do not (lambda_L on an L0 fiber) and on the ideal channel, which takes none
SWEPT_FORMS = [(name, kind, params) for name in SWEPT_DRAWS for kind, params in CHANNEL_FORMS
               if kind == "ideal" or name in params
               or name in CHANNEL_PARAMS and kind in {k for k, p in CHANNEL_FORMS
                                                      if name in p}]


# SWEEP_CASES as fixed inputs: each valid value alone, then followed by the invalid one
FIXED_SWEEPS = [(name, channel["kind"], {k: v for k, v in channel.items() if k != "kind"},
                 values)
                for name, channel, valid, invalid in SWEEP_CASES
                for values in (([valid], [valid, invalid]) if valid is not None else ([invalid],))]


def test_sweep_cases_cover_every_sweepable_parameter():
    sweepable = set(CHANNEL_PARAMS) | {"N", "R_E", "R_T", "w1", "w2"}
    assert sweepable <= {name for name, *_ in SWEEP_CASES} and sweepable <= set(SWEPT_DRAWS)


@pytest.mark.parametrize(
    "name, kind, params, fixed",
    [(*form, None) for form in SWEPT_FORMS] + FIXED_SWEEPS,
    ids=["-".join((name, "on", kind, *params)) for name, kind, params in SWEPT_FORMS]
    + ["-".join((name, "on", kind, *params, "values", *map(str, values)))
       for name, kind, params, values in FIXED_SWEEPS])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_swept_config_is_the_full_parse_of_each_value(name, kind, params, fixed, data):
    """swept_config accepts exactly when a full parse accepts each value in turn, and
    otherwise raises the first failing value's key and message; row i of the swept
    config is the full parse of value i. The values are fixed or drawn."""
    values = fixed or data.draw(swept_value_lists(name))
    raw = base_config(channel={"kind": kind, **params}, rates={"R_E": 0.9, "R_T": 1e6},
                      phase_settings={"w1": 0.1, "w2": 1.4})
    verdicts = [full_parse_verdict(raw, name, value) for value in values]
    first_failure = next((v for v in verdicts if v is not None), None)
    try:
        cfg = swept_config(parse_config(raw), name, np.array(values))
    except ConfigError as exc:
        assert (exc.key, str(exc)) == first_failure
        return
    assert first_failure is None
    for i, value in enumerate(values):
        reference = parse_config(edited(raw, name, value))
        row = replace(
            cfg, settings=cfg.settings.row(i), n_per_setting=ew.item(cfg.n_per_setting, i),
            rates=RateModel(ew.item(cfg.rates.R_E, i), ew.item(cfg.rates.R_T, i)),
            channel=ChannelConfig(cfg.channel.kind, {key: ew.item(v, i)
                                                     for key, v in cfg.channel.params.items()}))
        for f in fields(reference):
            assert np.array_equal(getattr(row, f.name), getattr(reference, f.name)), f.name
        assert type(row.n_per_setting) is int


class TestSweptNRange:
    """A swept N is taken exactly as int(value): no rounding at the top of the range."""

    @pytest.mark.parametrize("value, n", [(2.0 ** 62, 4611686018427387904),
                                          (2.0 ** 63 - 1024, 9223372036854774784)],
                             ids=["2**62", "largest-below-2**63"])
    def test_accepted_as_the_exact_int(self, tmp_path, value, n):
        swept = swept_config(parse_config(base_config()), "N", np.array([1.0, value]))
        assert swept.n_per_setting.tolist() == [1, n]
        assert type(ew.item(swept.n_per_setting, 1)) is int
        cfg = base_config(output_dir=str(tmp_path / "out"))
        assert main(["sweep", write_config(tmp_path, cfg), "--param", "N",
                     "--values", repr(value)]) == 0


def reference_cell(x) -> str:
    """The per-cell rule the CSV writers followed before their %-templates (text is itself)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


CELL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0,
               2.0 ** 53 + 2.0, 12.0, np.float64(0.1), np.float64(-math.inf), np.float64(math.nan),
               np.float64(5e-324), np.float64(-0.0), np.float64(1e308)]
CELL_INTS = [0, 1, 2 ** 53 + 1, 2 ** 63 - 1, np.int64(2 ** 63 - 1)]
CELL_RMSE = [None, 0.0017907626565792964, None, np.float64(math.nan), math.inf, "5%"]
# row counts on and beside the edges of write_csv's blocks
EDGE_ROWS = [0, 1, cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1,
             2 * cli.CSV_BLOCK_ROWS + 1]


def rendered(name: str, column):
    """column as cmd_sweep passes it: an RMSE cell as text, empty for None."""
    if not name.startswith("rmse") or isinstance(column, str):
        return column
    if column is None or isinstance(column, float):
        return "" if column is None else "%.17g" % column
    return ["" if v is None else v if isinstance(v, str) else "%.17g" % v for v in column]


ROWS = 20


def sweep_columns(n_rows: int, **given):
    """sweep.csv's columns over n_rows rows: the swept values 0, 1, ..., a constant array
    of 0.5 in each figure and None (empty) in each RMSE column, unless given names it."""
    default = {"value": np.arange(float(n_rows)), "rmse_V_a": None, "rmse_V_p": None}
    return [given.get(name, default.get(name, np.full(n_rows, 0.5))) for name in cli.SWEEP_HEADER]


def constant_except(n_rows: int, row: int) -> np.ndarray:
    """0.5 in every row but row, which holds 0.25."""
    column = np.full(n_rows, 0.5)
    column[row] = 0.25
    return column


def edge_columns(n_rows: int) -> list:
    """EDGE's columns over n_rows rows: varying floats (both zeros, nan, the
    infinities), an N above 2**53 and text holding %, beside a constant array and scalars."""
    k = np.arange(n_rows)
    return [np.resize(np.array(CELL_FLOATS), n_rows), np.where(k % 3, 0.0, -0.0),
            np.full(n_rows, 0.5), -math.inf, 2 ** 53 + 1 + k, [f"{r}%" for r in range(n_rows)],
            "100%"]


SWEEP = (cli.SWEEP_HEADER, cli.SWEEP_FORMATS)
EDGE = (("value", "xi", "C", "D", "N", "note", "tag"), {"N": "%d", "note": "%s", "tag": "%s"})
COLUMN_CASES = {
    "minus-zero": (*SWEEP, sweep_columns(ROWS, xi=np.full(ROWS, -0.0)), ROWS),
    # a column mixing the two zeros has two bit patterns, so it stays per cell
    "mixed-zeros": (*SWEEP, sweep_columns(ROWS, xi=np.where(np.arange(ROWS) % 3, 0.0, -0.0)),
                    ROWS),
    "all-nan": (*SWEEP, sweep_columns(ROWS, C=np.full(ROWS, math.nan)), ROWS),
    "inf": (*SWEEP, sweep_columns(ROWS, ln_R_M=np.full(ROWS, math.inf),
                                  log10_R_M=np.full(ROWS, -math.inf)), ROWS),
    "scalars": (*SWEEP, sweep_columns(ROWS, C=0.1, R_M_norm=1.0 / 3.0, ln_R_M=-math.inf), ROWS),
    "huge-N": (cli.VISIBILITY_HEADER, cli.VISIBILITY_FORMATS,
               [np.linspace(0.0, 1.0, ROWS)] + [np.full(ROWS, 0.5)] * 11 + [2 ** 53 + 1], ROWS),
    "empty-rmse": (*SWEEP, sweep_columns(ROWS, C=np.linspace(0.0, 1.0, ROWS)), ROWS),
    "one-row": (*SWEEP, sweep_columns(1, xi=np.array([-0.0]), C=0.25), 1),
    "all-constant": (*SWEEP, sweep_columns(ROWS, value=np.full(ROWS, 7.0)), ROWS),
    "constant-but-last": (*SWEEP, sweep_columns(ROWS, xi=constant_except(ROWS, -1)), ROWS),
    "constant-but-middle": (*SWEEP, sweep_columns(ROWS, xi=constant_except(ROWS, 5)), ROWS),
    # the length of a sweep --mc-replicates file
    "short-constant": (*SWEEP, sweep_columns(3), 3),
    # an empty array is no constant column: the file holds the header alone
    "zero-rows": (*SWEEP, sweep_columns(0), 0),
    "zero-rows-beside-scalars": (*SWEEP, sweep_columns(0, xi=0.5, C=0.25, R_M_norm=0.25,
                                                       ln_R_M=-1.0, log10_R_M=-0.5), 0),
    **{f"block-edge-{n}": (*EDGE, edge_columns(n), n) for n in EDGE_ROWS},
    # a sweep whose every column holds one value, over more rows than one block
    "all-constant-blocks": (*SWEEP, sweep_columns(2 * cli.CSV_BLOCK_ROWS + 1, value=0.5),
                            2 * cli.CSV_BLOCK_ROWS + 1),
}


class TestCsvTemplates:
    """write_csv, with each file's column formats, writes the bytes the per-cell rule wrote."""

    @pytest.mark.parametrize("header, formats", [
        (cli.VISIBILITY_HEADER, cli.VISIBILITY_FORMATS),
        (cli.INTENSITY_HEADER, None),
        (cli.SWEEP_HEADER, cli.SWEEP_FORMATS),
    ], ids=["visibility", "intensity", "sweep"])
    @pytest.mark.parametrize("n_rows", [2 * len(CELL_FLOATS), *EDGE_ROWS])
    @pytest.mark.parametrize("given", ["mixed", "zip"])
    def test_rows_match_the_cell_rule(self, tmp_path, header, formats, n_rows, given):
        """Each pool's cells over n_rows rows, its columns given as arrays, lists and map
        iterators (mixed) or all as the tuples of one zip over the rows (as study errors)."""
        pools = {"N": CELL_INTS, "rmse_V_a": CELL_RMSE, "rmse_V_p": CELL_RMSE}
        columns = []
        for j, name in enumerate(header):
            pool = pools.get(name, CELL_FLOATS)
            columns.append(rendered(name, [pool[(k + j) % len(pool)] for k in range(n_rows)]))
        reference_rows = list(zip(*columns))
        if given == "zip":
            columns = zip(*reference_rows)
        else:  # one column in three an array (one value is a constant column), one a map
            columns = [np.array(column) if j % 3 == 0 and not name.startswith("rmse")
                       else map(lambda v: v, column) if j % 3 == 1 else column
                       for j, (name, column) in enumerate(zip(header, columns))]
        cli.write_csv(tmp_path / "out.csv", header, columns, formats)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(map(reference_cell, row)) + "\n" for row in reference_rows)
        assert (tmp_path / "out.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("header, formats, columns, n_rows", list(COLUMN_CASES.values()),
                             ids=list(COLUMN_CASES))
    def test_columns_match_the_cell_rule(self, tmp_path, header, formats, columns, n_rows):
        """A scalar or constant array column, formatted once, writes each row's cells."""
        cli.write_csv(tmp_path / "out.csv", header,
                      [rendered(name, column) for name, column in zip(header, columns)], formats)
        cells = [[column] * n_rows if column is None or isinstance(column, (int, float, str))
                 else list(column) for column in columns]
        expected = [",".join(header)] + [",".join(map(reference_cell, row)) for row in zip(*cells)]
        assert (tmp_path / "out.csv").read_text(encoding="utf-8").split("\n") == [*expected, ""]

    def test_creates_the_directory_and_takes_any_format(self, tmp_path):
        """The missing directories are made; a %s column writes str of each cell, %d an int."""
        path = tmp_path / "a" / "b" / "out.csv"
        cli.write_csv(path, ("C", "N", "rmse"), ([0.3, 1.0], (7, 2 ** 53 + 1), np.full(2, 0.1)),
                      {"C": "%s", "N": "%d"})
        assert path.read_bytes() == (b"C,N,rmse\n0.3,7,0.10000000000000001\n"
                                     b"1.0,9007199254740993,0.10000000000000001\n")


class TestValidateCommand:
    """The validate verb's report and exit code; test_validation runs the checks themselves."""

    @pytest.fixture(autouse=True)
    def no_op_checks(self, monkeypatch):
        """Every CHECKS entry under its own name, as a no-op."""
        monkeypatch.setattr(validation, "CHECKS", tuple(
            (name, lambda: None) for name, _ in validation.CHECKS))

    def test_full_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        *lines, total = capsys.readouterr().out.splitlines()
        assert lines == [f"PASS {name}" for name, _ in validation.CHECKS]
        n = len(validation.CHECKS)
        assert re.fullmatch(rf"{n} of {n} checks passed in \d+\.\d\d s", total)

    def test_failing_and_raising_checks_exit_1(self, monkeypatch, capsys):
        def fails():
            raise AssertionError("gap 1.000e-03")

        def raises():
            raise RuntimeError("no grid")

        monkeypatch.setattr(validation, "CHECKS", (
            ("fails", fails), ("passes", lambda: None), ("raises", raises)))
        assert main(["validate"]) == 1
        *lines, total = capsys.readouterr().out.splitlines()
        assert lines == [
            "FAIL fails: gap 1.000e-03", "PASS passes", "FAIL raises: RuntimeError: no grid"]
        assert total.startswith("1 of 3 checks passed in ")


# (kind, params, the resource's w_p): every channel kind, and both ways to w_p = pi
RESOURCE_CASES = [
    ("ideal", {}, 0.0),
    ("custom_rate", {"table": [[0.0, 0.5], [10.0, 0.3]]}, 0.0),
    ("amplitude_damping", {"L0": 15.0}, 0.0),
    ("amplitude_damping", {"lambda_L": 0.3, "lambda_R": 0.55}, 0.0),
    ("dephasing", {"mu_L": 0.2, "mu_R": 0.6}, 0.0),
    ("depolarizing", {"beta": 0.3}, 0.0),
    ("depolarizing", {"kappa_L": 1.0, "kappa_R": 0.0}, math.pi),  # the sign fold
    ("memory_swap", {"t1": 0.4, "t2": 0.7, "tau_c": 1.5, "sign": +1}, 0.0),
    ("memory_swap", {"t1": 0.4, "t2": 0.7, "tau_c": 1.5, "sign": -1}, math.pi),
]


def density_pairs(x):
    """reference.to_density(x)'s entries as rows of [re, im] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row]
            for row in reference.to_density(x).entries]


class TestRuntimeBoundary:
    """run and sweep keep clear of the reference routes and the invariant suite."""

    def test_run_and_sweep_load_neither_reference_nor_validation(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        script = "\n".join([
            "import sys",
            "import entbase.cli",
            f"assert entbase.cli.main(['run', {path!r}]) == 0",
            f"assert entbase.cli.main(['sweep', {path!r}, '--param', 'N', '--values', "
            "'100,200', '--mc-replicates', '5']) == 0",
            "print(sorted(m for m in sys.modules if m.startswith('entbase.')))",
        ])
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": str(src)})
        loaded = proc.stdout.strip()
        assert "entbase.imaging" in loaded  # the verbs did run
        assert "entbase.reference" not in loaded and "entbase.validation" not in loaded

    @pytest.mark.parametrize("kind, params, w_p", RESOURCE_CASES, ids=[
        "-".join([k, *(f"{n}={v}" for n, v in p.items() if n != "table")])
        for k, p, _ in RESOURCE_CASES])
    def test_resource_state_is_the_density_matrix(self, kind, params, w_p):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the kappa = (1, 0) fold warns
            x = ChannelConfig(kind, params).resource_factory()(20.0)
        assert x.w_p == w_p
        # repr tells -0.0 from 0.0, and prints every other double exactly
        assert repr(cli._resource_state(x)) == repr(density_pairs(x))

    def test_resource_state_with_outer_coherence(self, rng):
        for _ in range(20):
            x = reference.random_xstate(rng)
            assert repr(cli._resource_state(x)) == repr(density_pairs(x))
