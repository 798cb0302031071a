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
