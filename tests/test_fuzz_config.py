"""A config fuzzer: valid configs with mutated keys and values, through `run` and `sweep`.

Whatever the config, the CLI exits 0, 1 or 2; exit 2 names one of the
documented runtime errors; and an exit-0 output holds only finite values
or the non-finite ones docs/schema.md declares. Sizes stay small (at most
32 baselines, 4096 theta points, N = 1e5 and 50 replicates), so the whole
property runs in a few seconds.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CHANNEL_FORMS, SWEPT_VALUES
from entbase.cli import main
from entbase.config import CHANNEL_KINDS, CHANNEL_PARAMS

RUNTIME_ERRORS = ("DegenerateResourceError", "ZeroConcurrenceError", "NonPositiveMapError")
# the non-finite cells docs/schema.md declares: a dead resource's C, the log of a
# zero rate, and the RMSE cells of a sweep row without replicates
DECLARED_CELLS = {"C": {"nan"}, "ln_R_M": {"-inf"}, "log10_R_M": {"-inf"},
                  "rmse_V_a": {""}, "rmse_V_p": {""}}
OUTPUT_FILES = {"run": ("visibility.csv", "intensity.csv"), "sweep": ("sweep.csv",)}
CONFIG_PARAMS = ("B", "L", "N", "N_per_setting", "R_E", "R_T", "w1", "w2")

NUMBERS = st.one_of(
    st.sampled_from([0, 1, -1, 0.5, 1.5, 2, -1e-9, 1e-300, 1e308, 2 ** 63, 2 ** 64,
                     -(2 ** 63), math.nan, math.inf, -math.inf]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.integers(min_value=-5, max_value=60),
    st.floats(min_value=0.0, max_value=1.0))
WRONG_TYPES = st.sampled_from(["", "1", "linear", None, True, False, [], [1.0], {}, {"x": 1}])
VALUES = st.one_of(NUMBERS, WRONG_TYPES)


def _count(limit):
    """A size key's values: anything the parser may reject, but never more than limit items."""
    return st.one_of(st.integers(min_value=-2, max_value=limit), st.floats(-2.0, limit),
                     st.sampled_from([2 ** 64, -(2 ** 63), math.nan]), WRONG_TYPES)


VALUES_BY_KEY = {
    "kind": st.sampled_from([*CHANNEL_KINDS, "fiber", "", [], {}]),
    "spacing": st.sampled_from(["linear", "log", "", 1]),
    "sign": st.sampled_from(["+", "-", 1, -1, 1.0, True, 0, "x"]),
    "N_per_setting": st.one_of(_count(10 ** 5), st.sampled_from([2 ** 63, 2 ** 63 + 1])),
    "baselines": st.one_of(st.lists(NUMBERS, max_size=32), VALUES),
    "sources": st.one_of(st.lists(st.fixed_dictionaries({"theta": NUMBERS, "flux": NUMBERS}),
                                  max_size=3), VALUES),
    "table": st.one_of(st.lists(st.lists(NUMBERS, min_size=2, max_size=2), max_size=4), VALUES),
}
COUNTS = {"baselines": _count(32), "theta_grid": _count(4096)}


def base_config(channel: dict) -> dict:
    return {
        "sky": {"sources": [{"theta": -0.01, "flux": 1.0}, {"theta": 0.012, "flux": 0.7}]},
        "wavelength": 1.0,
        "baselines": {"B_max": 40.0, "count": 12, "spacing": "linear"},
        "channel": channel,
        "phase_settings": {"w1": 0.0, "w2": 1.5},
        "N_per_setting": 2000,
        "rates": {"R_E": 0.9, "R_T": 1e3},
        "seed": 7,
        "output_dir": "out",
        "theta_grid": {"half_span": 0.05, "count": 101},
    }


def _paths(node, prefix=()):
    """The path (keys and indices) of every value inside node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_configs(draw):
    """A valid config of some channel form with up to three keys set, deleted or added."""
    kind, params = draw(st.sampled_from(CHANNEL_FORMS))
    cfg = base_config({"kind": kind, **copy.deepcopy(params)})
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        op = draw(st.sampled_from(["set", "set", "set", "delete", "add"]))
        if op == "add":
            dicts = [p for p in [(), *_paths(cfg)] if isinstance(_at(cfg, p), dict)]
            _at(cfg, draw(st.sampled_from(dicts)))["bogus"] = copy.deepcopy(draw(VALUES))
            continue
        path = draw(st.sampled_from(list(_paths(cfg))))
        parent, key = _at(cfg, path[:-1]), path[-1]
        if op == "delete":
            del parent[key]
        else:  # a copy: the pools hand out the same list and dict objects again
            values = COUNTS[path[-2]] if key == "count" else VALUES_BY_KEY.get(key, VALUES)
            parent[key] = copy.deepcopy(draw(values))
    return cfg


# values in each swept parameter's range, then any value at all
IN_RANGE = {**SWEPT_VALUES, "L": SWEPT_VALUES["B"],
            "N": st.integers(1, 10 ** 5), "N_per_setting": st.integers(1, 10 ** 5),
            "R_E": st.floats(0.0, 1.0), "R_T": st.floats(1e-3, 1e6),
            "w1": st.floats(-4.0, 4.0), "w2": st.floats(-4.0, 4.0)}
ANY_VALUE = st.one_of(st.floats(-2.0, 100.0), st.sampled_from([0, 1, -1, 2 ** 63, 1e5]))


@st.composite
def cases(draw):
    """A mutated config and the command line that runs it: `run`, or a `sweep` of
    mostly parameters the config takes, at mostly in-range values."""
    cfg = draw(mutated_configs())
    if draw(st.booleans()):
        return cfg, ["run"]
    channel = cfg.get("channel")
    takes = [*CONFIG_PARAMS, *(p for p in channel if p in CHANNEL_PARAMS)] \
        if isinstance(channel, dict) else list(CONFIG_PARAMS)
    param = draw(st.one_of(st.sampled_from(takes), st.sampled_from(takes),
                           st.sampled_from([*CONFIG_PARAMS, *CHANNEL_PARAMS, "bogus"])))
    value = st.one_of(IN_RANGE.get(param, ANY_VALUE), ANY_VALUE)
    numbers = st.lists(value, min_size=1, max_size=6).map(lambda vs: ",".join(map(repr, vs)))
    values = draw(st.one_of(numbers, numbers, numbers,
                            st.sampled_from(["", "abc", "1,,2", "nan", "inf"])))
    # the list as its own token or joined to the option: both forms must read it alike
    values_args = draw(st.sampled_from([[f"--values={values}"], ["--values", values]]))
    replicates = str(draw(st.integers(-1, 50)))
    return cfg, ["sweep", "--param", param, *values_args, "--mc-replicates", replicates]


@contextlib.contextmanager
def _inside(directory):
    """Run with directory as the working directory, so relative output dirs land in it."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


def _assert_declared_cells(path: Path):
    with open(path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            for name, cell in row.items():
                assert cell in DECLARED_CELLS.get(name, ()) or math.isfinite(float(cell)), \
                    f"{path.name}: {name} = {cell!r}"


def _assert_finite_or_null(value, where="summary.json"):
    if isinstance(value, dict):
        for key, item in value.items():
            _assert_finite_or_null(item, f"{where}: {key}")
    elif isinstance(value, list):
        for item in value:
            _assert_finite_or_null(item, where)
    elif isinstance(value, float):
        assert math.isfinite(value), where


@given(case=cases())
@settings(max_examples=200, deadline=None)
# one case per declared outcome: exit 0; -inf rate cells at R_E = 0; exit 2 on a dead
# resource; a sweep with a dead row, whose RMSE cells stay empty; a spaced list whose
# negative first value the value check names
@example(case=(base_config({"kind": "ideal"}), ["run"]))
@example(case=({**base_config({"kind": "ideal"}), "rates": {"R_E": 0, "R_T": 1}}, ["run"]))
@example(case=(base_config({"kind": "amplitude_damping", "L0": 1e-300}), ["run"]))
@example(case=(base_config({"kind": "amplitude_damping", "L0": 1e-300}),
               ["sweep", "--param", "B", "--values=0,20", "--mc-replicates", "5"]))
@example(case=(base_config({"kind": "ideal"}),
               ["sweep", "--param", "B", "--values", "-1,0", "--mc-replicates", "5"]))
def test_mutated_config_exits_cleanly(case):
    cfg, command = case
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
        err = err.getvalue()
        assert code in (0, 1, 2), err
        if code == 1:
            assert re.fullmatch(r"invalid (config: [A-Za-z_][\w.\[\]]*|arguments): .+\n", err), err
            # a sweep always gives its list, in either form: only its value check may refuse it
            assert "argument --values" not in err, err
        elif code == 2:
            assert err.startswith(tuple(f"runtime error: {name}: " for name in RUNTIME_ERRORS)), \
                err
        else:
            outdir = Path(tmp) / cfg["output_dir"] if "output_dir" in cfg else Path(tmp) / "out"
            for name in OUTPUT_FILES[command[0]]:
                _assert_declared_cells(outdir / name)
            if command[0] == "run":
                _assert_finite_or_null(json.loads((outdir / "summary.json").read_text(
                    encoding="utf-8"), parse_constant=lambda token: math.nan))
