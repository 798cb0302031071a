import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

# the whole suite must reproduce run to run, property tests included
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def xstate_strategy(with_outer=True):
    """Hypothesis strategy for valid X-form states."""
    from entbase.qcore import XState

    def build(draw_vals):
        raw = np.array(draw_vals[:4], dtype=float) + 1e-9
        a, g, f, h = raw / raw.sum()
        w_frac, z_frac, w_p, z_p = draw_vals[4:]
        return XState(a=a, g=g, f=f, h=h,
                      w_a=w_frac * math.sqrt(g * f), w_p=w_p,
                      z_a=(z_frac * math.sqrt(a * h)) if with_outer else 0.0, z_p=z_p)

    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    angle = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
    return st.tuples(unit, unit, unit, unit, unit, unit, angle, angle).map(build)


# Every channel form, each with a value for every parameter it takes; the
# memory swap in both signs. Each sweepable parameter appears in one form or more.
CHANNEL_FORMS = (
    ("ideal", {}),
    ("custom_rate", {"table": [[0.0, 0.5], [30.0, 0.3], [90.0, 0.1]]}),
    ("amplitude_damping", {"L0": 12.0}),
    ("amplitude_damping", {"lambda_L": 0.2, "lambda_R": 0.4}),
    ("dephasing", {"mu_L": 0.1, "mu_R": 0.3}),
    ("depolarizing", {"beta": 0.2}),
    ("depolarizing", {"kappa_L": 0.3, "kappa_R": 0.1}),
    ("memory_swap", {"t1": 0.5, "t2": 0.2, "tau_c": 1.5}),
    ("memory_swap", {"t1": 0.5, "t2": 0.2, "tau_c": 1.5, "sign": "-"}),
)

_UNIT = st.floats(min_value=0.0, max_value=1.0)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_STORAGE = st.floats(min_value=0.0, max_value=50.0)
# values a sweep may set each parameter to: B, and every channel parameter
SWEPT_VALUES = {
    "B": st.floats(min_value=0.0, max_value=500.0),
    "lambda_L": _UNIT, "lambda_R": _UNIT, "mu_L": _UNIT, "mu_R": _UNIT,
    "kappa_L": _UNIT, "kappa_R": _UNIT,
    "L0": _POSITIVE, "beta": _POSITIVE, "tau_c": _POSITIVE,
    "t1": _STORAGE, "t2": _STORAGE,
}
# (kind, params, swept name) for B and each parameter of every channel form
SWEPT_CASES = [(kind, params, name) for kind, params in CHANNEL_FORMS
               for name in ("B", *params) if name in SWEPT_VALUES]
SWEPT_IDS = ["-".join((kind, *params, "sweep", name)) for kind, params, name in SWEPT_CASES]
