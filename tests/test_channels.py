import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEPT_CASES, SWEPT_IDS, SWEPT_VALUES
from entbase import reference
from entbase.channels import (
    PARAM_RULES,
    DegenerateCoherenceWarning,
    RateModel,
    depol_prob,
    depol_x_param,
    fiber_loss_prob,
    ideal_bell_xstate,
    log_rate_depol_approx,
    log_rate_fiber,
    memory_xstate,
    resource_figures,
    swap_memories,
    xstate_amplitude_damping,
    xstate_dephasing,
    xstate_depolarizing,
)
from entbase.config import ChannelConfig, _parse_channel
from entbase.qcore import XState, concurrence_subspace, subspace_weight


class TestClosedFormStates:
    def test_damping_limits(self):
        x = xstate_amplitude_damping(0.0, 0.0)
        assert (x.g, x.f, x.w_a) == (0.5, 0.5, 0.5)
        x = xstate_amplitude_damping(1.0, 1.0)
        assert x.a == 1.0 and x.g == x.f == x.w_a == 0.0

    def test_equal_damping_keeps_concurrence(self):
        x = xstate_amplitude_damping(0.5, 0.5)
        assert abs(subspace_weight(x) - 0.5) <= 1e-15
        assert abs(concurrence_subspace(x) - 1.0) <= 1e-15

    def test_dephasing_values(self):
        x = xstate_dephasing(0.5, 0.5)
        assert abs(concurrence_subspace(x) - 0.25) <= 1e-15
        assert subspace_weight(x) == 1.0
        x = xstate_dephasing(1.0, 0.3)
        assert x.w_a == 0.0 and subspace_weight(x) == 1.0

    def test_depolarizing_values(self):
        x = xstate_depolarizing(0.0, 0.0)
        assert (x.g, x.f, x.w_a) == (0.5, 0.5, 0.5)
        x = xstate_depolarizing(1.0, 1.0)
        assert abs(subspace_weight(x) - 5.0 / 9.0) <= 1e-15
        assert abs(x.w_a - 1.0 / 18.0) <= 1e-15
        x = xstate_depolarizing(0.75, 0.0)
        assert abs(depol_x_param(0.75, 0.0) - 0.25) <= 1e-15
        assert x.w_a <= 1e-15 and abs(concurrence_subspace(x)) <= 1e-14

    def test_depolarizing_sign_absorption(self):
        # kappa_L = 1, kappa_R = 0 gives x = 1/3 > 1/4: coherence flips sign
        with pytest.warns(DegenerateCoherenceWarning):
            x = xstate_depolarizing(1.0, 0.0)
        assert abs(x.w_a - (2.0 / 3.0 - 0.5)) <= 1e-15
        assert x.w_p == math.pi

    def test_array_parameters_name_their_first_bad_element(self):
        with pytest.raises(ValueError, match=r"^mu_L: value 1.5 outside \[0, 1\]$"):
            xstate_dephasing(np.array([0.1, 1.5, -1.0]), 0.2)
        with pytest.raises(ValueError, match=r"^R_E: value nan outside \[0, 1\]$"):
            RateModel(np.array([0.5, math.nan, 2.0]), 1.0)
        with pytest.raises(ValueError, match="^L: fiber length must be nonnegative$"):
            fiber_loss_prob(np.array([1.0, -1.0]), 10.0)

    def test_fold_warns_once_per_array(self):
        kappa_l = np.array([1.0, 0.2, 0.9, 1.0])
        with pytest.warns(DegenerateCoherenceWarning) as caught:
            x = xstate_depolarizing(kappa_l, np.zeros(4))
        assert len(caught) == 1
        assert list(x.w_p) == [math.pi, 0.0, math.pi, math.pi]

    @pytest.mark.parametrize("builder", [xstate_amplitude_damping, xstate_dephasing,
                                         xstate_depolarizing])
    def test_rejects_out_of_range(self, builder):
        with pytest.raises(ValueError):
            builder(-0.1, 0.5)
        with pytest.raises(ValueError):
            builder(0.5, 1.5)


class TestFiberMaps:
    def test_loss_probability(self):
        assert fiber_loss_prob(0.0, 10.0) == 0.0
        assert abs(fiber_loss_prob(10.0, 10.0) - (1.0 - math.exp(-1.0))) <= 1e-15
        assert fiber_loss_prob(1e6, 1.0) == pytest.approx(1.0)

    def test_depol_probability(self):
        assert depol_prob(0.0, 1.0) == 0.0
        assert abs(depol_prob(2.0, 1.0) - (1.0 - math.exp(-1.0))) <= 1e-15


class TestMemories:
    def test_fresh_pair_is_bell(self):
        for sign in (+1, -1):
            x = memory_xstate(0.0, 2.0, sign)
            assert x.w_a == 0.5
            assert x.w_p == (0.0 if sign > 0 else math.pi)

    def test_half_life(self):
        tau = 3.0
        x = memory_xstate(tau * math.log(2.0), tau)
        assert abs(x.w_a - 0.25) <= 1e-15

    def test_long_storage_decoheres(self):
        x = memory_xstate(1e4, 1.0)
        assert x.w_a <= 1e-15 and subspace_weight(x) == 1.0

    def test_swap_quarter_coherence(self):
        tau = 5.0
        x = swap_memories(tau * math.log(2.0), tau * math.log(2.0), tau)
        assert abs(x.w_a - 0.125) <= 1e-15

    # each pair's own storage time is checked, not only the sum of the two
    @pytest.mark.parametrize("t1, t2, name", [
        (-1.0, 5.0, "t1"), (5.0, -1.0, "t2"),
        (np.array([1.0, -1.0, 2.0]), np.array([0.0, 5.0, 1.0]), "t1"),
        (np.array([1.0, 2.0]), np.array([0.0, -0.5]), "t2"),
    ], ids=["t1", "t2", "array-t1", "array-t2"])
    def test_swap_rejects_a_negative_storage_time(self, t1, t2, name):
        with pytest.raises(ValueError, match=f"^{name}: storage time must be nonnegative$"):
            swap_memories(t1, t2, 1.0)


# (name, call): each public function that takes a PARAM_RULES parameter, called with
# value v for it and valid values for the rest
_RATES = RateModel(0.8, 1e6)
PARAM_CALLS = [
    ("lambda_L", lambda v: xstate_amplitude_damping(v, 0.1)),
    ("lambda_R", lambda v: xstate_amplitude_damping(0.1, v)),
    ("mu_L", lambda v: xstate_dephasing(v, 0.1)),
    ("mu_R", lambda v: xstate_dephasing(0.1, v)),
    ("kappa_L", lambda v: xstate_depolarizing(v, 0.1)),
    ("kappa_R", lambda v: xstate_depolarizing(0.1, v)),
    ("R_E", lambda v: RateModel(v, 1.0)),
    ("R_T", lambda v: RateModel(1.0, v)),
    ("lambda", reference.kraus_amplitude_damping),
    ("mu", reference.kraus_dephasing),
    ("kappa", reference.kraus_depolarizing),
    ("L0", lambda v: fiber_loss_prob(1.0, v)),
    ("L0", lambda v: log_rate_fiber(1.0, v, _RATES)),
    ("beta", lambda v: depol_prob(1.0, v)),
    ("beta", lambda v: log_rate_depol_approx(1.0, v, _RATES)),
    ("tau_c", lambda v: memory_xstate(1.0, v)),
    ("tau_c", lambda v: swap_memories(0.5, 0.2, v)),
    ("tau_c", lambda v: reference.memory_dephasing_channel(1.0, v)),
    ("t1", lambda v: swap_memories(v, 0.0, 1.0)),
    ("t2", lambda v: swap_memories(0.0, v, 1.0)),
    ("t", lambda v: memory_xstate(v, 1.0)),
    ("t", lambda v: reference.memory_dephasing_channel(v, 1.0)),
    ("B", lambda v: log_rate_fiber(v, 10.0, _RATES)),
    ("L", lambda v: fiber_loss_prob(v, 10.0)),
    ("L", lambda v: depol_prob(v, 0.2)),
    ("L", lambda v: log_rate_depol_approx(v, 1.0, _RATES)),
]
# a function's second call of the same name is told apart by its number
PARAM_CALL_IDS = [f"{name}-{[n for n, _ in PARAM_CALLS[:i]].count(name)}"
                  for i, (name, _) in enumerate(PARAM_CALLS)]


def test_param_calls_cover_every_rule():
    assert {name for name, _ in PARAM_CALLS} == set(PARAM_RULES)


# -1 lies outside every range: the unit interval, positive and nonnegative
@pytest.mark.parametrize("value", [math.nan, np.array([0.5, math.nan, 2.0]), -1.0,
                                   np.array([0.5, -1.0])],
                         ids=["nan", "array-nan", "out-of-range", "array-out-of-range"])
@pytest.mark.parametrize("name, call", PARAM_CALLS, ids=PARAM_CALL_IDS)
def test_bad_parameter_is_named(name, call, value):
    """A nan or out-of-range input is refused by its PARAM_RULES range, which names it,
    for a float and an array element alike: not passed on as a nan probability or rate,
    nor blamed on the state it would build."""
    message = f"{name}: {PARAM_RULES[name].fault(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def rate(x, rates):
    """R_M of the resource x, as `run` and `sweep` compute it."""
    return resource_figures(x, 0.0, rates, None)[3]


def _bits(values) -> np.ndarray:
    """The float64 bit patterns of values: equal exactly when the doubles are, -0.0 apart."""
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("kind, params, name", SWEPT_CASES, ids=SWEPT_IDS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_array_resource_is_the_closed_form_per_element(kind, params, name, data):
    """A resource built from an (n,) array of one parameter, or of B, is bit-equal,
    field by field, to the closed form called on each element alone."""
    values = data.draw(st.lists(SWEPT_VALUES[name], min_size=1, max_size=8))
    params = _parse_channel({"kind": kind, **params}).params
    b_default = 7.5

    def resource(value):
        if name == "B":
            return ChannelConfig(kind, params).resource_factory()(value)
        return ChannelConfig(kind, {**params, name: value}).resource_factory()(b_default)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCoherenceWarning)  # kappa past x = 1/4
        batch = resource(np.array(values))
        singles = [resource(v) for v in values]
    for field in fields(XState):
        got = np.broadcast_to(getattr(batch, field.name), (len(values),))
        assert np.array_equal(_bits(got), _bits([getattr(x, field.name) for x in singles])), \
            field.name


class TestRates:
    def test_maximal_rate(self):
        rates = RateModel(0.5, 2e6)
        assert rate(ideal_bell_xstate(), rates) == rates.max_rate == 5e5

    def test_zero_weight(self):
        assert rate(xstate_amplitude_damping(1.0, 1.0), RateModel(1.0, 1.0)) == 0.0

    def test_depolarizing_asymptote(self):
        rates = RateModel(1.0, 1.0)
        ratio = rate(xstate_depolarizing(1.0, 1.0), rates) / (rates.R_E * rates.R_T)
        assert abs(ratio - 5.0 / 18.0) <= 1e-15
        assert round(ratio, 2) == 0.28

    def test_rate_model_validation(self):
        with pytest.raises(ValueError):
            RateModel(1.5, 1.0)
        with pytest.raises(ValueError):
            RateModel(0.5, 0.0)


class TestLogRateLaws:
    def test_fiber_intercept_and_slope(self):
        rates = RateModel(0.8, 1e6)
        l0 = 7.0
        assert abs(log_rate_fiber(0.0, l0, rates) - math.log(rates.max_rate)) <= 1e-12
        assert abs(log_rate_fiber(2 * l0, l0, rates)
                   - (math.log(rates.max_rate) - 1.0)) <= 1e-12
        h = 1e-4
        slope = (log_rate_fiber(10 + h, l0, rates) - log_rate_fiber(10 - h, l0, rates)) / (2 * h)
        assert abs(slope + 1.0 / (2 * l0)) <= 1e-9

    def test_depol_approx_constant_asymptote(self):
        rates = RateModel(1.0, 1.0)
        value, in_regime = log_rate_depol_approx(1e9, 1.0, rates)
        assert in_regime is True
        assert abs(value - (math.log(rates.max_rate) + math.log(5.0 / 9.0))) <= 1e-12

    def test_array_laws_are_the_float_laws_per_element(self):
        """An (n,) array of baselines gives, bit for bit, each baseline's float result."""
        rates = RateModel(0.8, 1e6)
        bs = np.linspace(0.0, 60.0, 41)
        fiber = log_rate_fiber(bs, 7.0, rates)
        assert np.array_equal(_bits(fiber), _bits([log_rate_fiber(b, 7.0, rates)
                                                   for b in bs.tolist()]))
        value, in_regime = log_rate_depol_approx(bs, 0.3, rates)
        singles = [log_rate_depol_approx(b, 0.3, rates) for b in bs.tolist()]
        assert np.array_equal(_bits(value), _bits([v for v, _ in singles]))
        assert in_regime.tolist() == [r for _, r in singles]
        assert not in_regime[0] and in_regime[-1]

    @pytest.mark.parametrize("bs", [30.0, np.linspace(0.0, 60.0, 5)], ids=["float", "array"])
    def test_no_entangled_photons_give_minus_inf(self, bs):
        """At R_E = 0 both laws give resource_table's ln_R_M of a zero rate: -inf."""
        rates = RateModel(0.0, 1.0)
        ln_r = ChannelConfig("amplitude_damping", {"L0": 7.0}).resource_table(bs, rates)[1][3]
        assert np.all(ln_r == -math.inf)
        assert np.all(log_rate_fiber(bs, 7.0, rates) == -math.inf)
        value, in_regime = log_rate_depol_approx(bs, 0.3, rates)
        assert np.all(value == -math.inf)
        assert np.shape(value) == np.shape(in_regime) == np.shape(bs)


def test_ideal_bell_helper():
    x = ideal_bell_xstate(0.4)
    assert (x.g, x.f, x.w_a, x.w_p) == (0.5, 0.5, 0.5, 0.4)
    assert concurrence_subspace(x) == 1.0
