import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import xstate_strategy
from entbase.protocol import DegeneratePhasesError, PhaseSettings, run_observation
from entbase.qcore import (
    FLOAT_CHECK_MAX,
    AstroVisibility,
    XState,
    concurrence_subspace,
    subspace_weight,
    wrap_phase,
)
from entbase.reference import (
    DensityMatrix4,
    NotXFormError,
    apply_independent_channels,
    concurrence_wootters_x,
    extract_xstate,
    kraus_amplitude_damping,
    kraus_dephasing,
    kraus_depolarizing,
    make_astro_state,
    make_bell_psi,
    random_density,
)


def bell_state_entries(delta):
    m = np.zeros((4, 4), complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = 0.5 * np.exp(-1j * delta)
    m[2, 1] = np.conj(m[1, 2])
    return m


class TestBellState:
    def test_zero_phase(self):
        m = make_bell_psi(0.0).entries
        assert m[1, 2] == 0.5 and m[2, 1] == 0.5

    def test_pi_phase_flips_sign(self):
        m = make_bell_psi(math.pi).entries
        assert abs(m[1, 2] + 0.5) <= 1e-15

    def test_quarter_phase(self):
        # entry (|01>, |10>) carries exp(-i pi/2) / 2 = -i/2
        m = make_bell_psi(math.pi / 2).entries
        assert abs(m[1, 2] - (-0.5j)) <= 1e-15

    def test_invariants_hold(self):
        for delta in np.linspace(-math.pi, math.pi, 9):
            m = make_bell_psi(delta).entries
            assert abs(m.trace() - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(m)[0] >= -1e-10


class TestAstroState:
    def test_pure_state(self):
        m = make_astro_state(AstroVisibility(1.0, 0.0)).entries
        assert abs(np.linalg.eigvalsh(m)[-1] - 1.0) <= 1e-12

    def test_incoherent_state(self):
        m = make_astro_state(AstroVisibility(0.0, 2.0)).entries
        eigs = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(eigs, [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_partial_coherence_spectrum(self):
        # 2x2 block (1 +/- V_a)/2: eigenvalues 0.8 and 0.2 at V_a = 0.6
        m = make_astro_state(AstroVisibility(0.6, 1.1)).entries
        eigs = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(eigs, [0.0, 0.0, 0.2, 0.8], atol=1e-12)

    def test_rejects_unphysical_amplitude(self):
        with pytest.raises(ValueError):
            AstroVisibility(1.2, 0.0)
        with pytest.raises(ValueError):
            AstroVisibility(-0.1, 0.0)


class TestKrausConstructors:
    def test_damping_zero_is_identity(self):
        ch = kraus_amplitude_damping(0.0)
        rho = random_density(np.random.default_rng(0))
        out = apply_independent_channels(rho, ch, ch)
        assert np.max(np.abs(out.entries - rho.entries)) <= 1e-14

    def test_full_dephasing_kills_coherence(self):
        ch = kraus_dephasing(1.0)
        out = apply_independent_channels(make_bell_psi(0.4), ch, ch).entries
        off = out - np.diag(np.diag(out))
        assert np.max(np.abs(off)) <= 1e-15

    def test_depolarizing_fixed_point(self):
        # at kappa = 3/4 the single-qubit map sends every input to I/2
        ch = kraus_depolarizing(0.75)
        rng = np.random.default_rng(3)
        for _ in range(3):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            rho1 = np.outer(psi, psi.conj())
            out = sum(k @ rho1 @ k.conj().T for k in ch.operators)
            assert np.max(np.abs(out - np.eye(2) / 2)) <= 1e-12

    @pytest.mark.parametrize("make", [kraus_amplitude_damping, kraus_dephasing,
                                      kraus_depolarizing])
    def test_rejects_out_of_range(self, make):
        with pytest.raises(ValueError):
            make(-0.1)
        with pytest.raises(ValueError):
            make(1.1)


class TestExtractXState:
    def test_dephased_values(self):
        out = apply_independent_channels(make_bell_psi(0.0),
                                         kraus_dephasing(0.5), kraus_dephasing(0.5))
        x = extract_xstate(out)
        assert abs(x.w_a - 0.125) <= 1e-15
        assert abs(x.g - 0.5) <= 1e-15 and abs(x.f - 0.5) <= 1e-15
        assert x.a == 0.0 and x.h == 0.0

    def test_bell_phase_convention(self):
        for delta in (0.0, 0.7, -2.1):
            x = extract_xstate(make_bell_psi(delta))
            assert abs(x.w_a - 0.5) <= 1e-15
            assert abs(wrap_phase(x.w_p - delta)) <= 1e-15

    def test_rejects_non_x_matrix(self):
        m = np.zeros((4, 4), complex)
        m[1, 1] = m[2, 2] = 0.45
        m[0, 0] = m[3, 3] = 0.05
        m[0, 1] = m[1, 0] = 0.1
        rho = DensityMatrix4(m)
        with pytest.raises(NotXFormError) as err:
            extract_xstate(rho)
        assert err.value.worst_entry >= 0.1


class TestConcurrenceAndWeight:
    def test_ideal_bell(self):
        x = extract_xstate(make_bell_psi(0.0))
        assert concurrence_subspace(x) == 1.0
        assert concurrence_wootters_x(x) == 1.0
        assert subspace_weight(x) == 1.0

    def test_dephased_concurrence(self):
        x = XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=0.125)
        assert abs(concurrence_subspace(x) - 0.25) <= 1e-15

    def test_depolarized_boundary(self):
        # x = 1/4 puts the inner coherence exactly at zero
        x_par = 0.25
        x = XState(a=x_par, g=0.25, f=0.25, h=x_par, w_a=0.0)
        assert concurrence_subspace(x) == 0.0

    def test_wootters_with_outer_population(self):
        x = XState(a=0.1, g=0.4, f=0.4, h=0.1, w_a=0.3)
        assert abs(concurrence_wootters_x(x) - 0.4) <= 1e-15

    def test_fully_dephased_is_separable(self):
        x = XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=0.0)
        assert concurrence_wootters_x(x) == 0.0

    def test_dead_state_has_nan_concurrence(self):
        # a float state and an array state's element alike
        assert math.isnan(concurrence_subspace(XState(a=1.0, g=0.0, f=0.0, h=0.0, w_a=0.0)))
        conc = concurrence_subspace(XState(a=np.array([1.0, 0.0]), g=np.array([0.0, 0.5]),
                                           f=np.array([0.0, 0.5]), h=0.0, w_a=np.array([0.0, 0.5])))
        assert math.isnan(conc[0]) and conc[1] == 1.0

    def test_subspace_weight_examples(self):
        assert abs(subspace_weight(XState(a=0.5, g=0.25, f=0.25, h=0.0, w_a=0.25)) - 0.5) <= 1e-15
        x_par = 2.0 / 9.0
        x = XState(a=x_par, g=0.5 - x_par, f=0.5 - x_par, h=x_par, w_a=1.0 / 18.0)
        assert abs(subspace_weight(x) - 5.0 / 9.0) <= 1e-15


FIELD_NAMES = [f.name for f in fields(XState)]
VALID_ROWS = xstate_strategy().map(lambda x: tuple(float(getattr(x, n)) for n in FIELD_NAMES))
# any field of a valid state set to a value that may break a rule
BAD_VALUES = st.one_of(st.floats(min_value=-0.2, max_value=1.2),
                       st.sampled_from([math.nan, math.inf, -math.inf, -1e-13, 1.0 + 1e-13]))
PERTURBED_ROWS = st.tuples(VALID_ROWS, st.integers(0, len(FIELD_NAMES) - 1), BAD_VALUES).map(
    lambda t: t[0][:t[1]] + (t[2],) + t[0][t[1] + 1:])
STATE_ROWS = st.one_of(VALID_ROWS, PERTURBED_ROWS)


def _verdict(fields_by_name: dict):
    """The message XState raises for these fields, or None when it accepts them."""
    try:
        XState(**fields_by_name)
    except ValueError as exc:
        return str(exc)
    return None


class TestValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix4(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix4(np.eye(4, dtype=complex))

    def test_rejects_negative_matrix(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix4(m)

    def test_xstate_population_sum(self):
        with pytest.raises(ValueError):
            XState(a=0.5, g=0.5, f=0.5, h=0.0, w_a=0.0)

    def test_xstate_positivity_bound(self):
        with pytest.raises(ValueError):
            XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=0.6)

    # valid rows appended after the drawn ones take the check past FLOAT_CHECK_MAX
    @pytest.mark.parametrize("pad", [0, FLOAT_CHECK_MAX], ids=["float-checks", "array-check"])
    @given(st.lists(STATE_ROWS, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_array_state_checks_each_element_alone(self, pad, rows):
        """An array state is valid when every element alone is, and otherwise raises
        the message of its first invalid element."""
        rows = rows + [(0.1, 0.4, 0.4, 0.1, 0.3, 0.0, 0.05, 0.0)] * pad
        alone = [_verdict(dict(zip(FIELD_NAMES, row))) for row in rows]
        first_invalid = next((message for message in alone if message is not None), None)
        columns = {name: np.array(column) for name, column in zip(FIELD_NAMES, zip(*rows))}
        assert _verdict(columns) == first_invalid
        if first_invalid is None:
            x = XState(**columns)
            for i, row in enumerate(rows):  # row i is the float state of row i's fields
                assert np.array_equal([getattr(x.row(i), n) for n in FIELD_NAMES], row,
                                      equal_nan=True)

    # the records are plain dataclasses: read-only array fields are what keeps
    # a checked array state as it was checked
    @pytest.mark.parametrize("array_fields", [FIELD_NAMES, ("w_a", "z_p")],
                             ids=["all-arrays", "floats-and-arrays"])
    def test_array_state_is_read_only_and_broadcast(self, array_fields):
        row = dict(a=0.1, g=0.4, f=0.4, h=0.1, w_a=0.3, w_p=0.2, z_a=0.05, z_p=-0.1)
        given = {name: np.array([value, value]) if name in array_fields else value
                 for name, value in row.items()}
        x = XState(**given)
        for name in FIELD_NAMES:
            column = getattr(x, name)
            assert column.shape == (2,) and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        for name in array_fields:  # the state holds copies: its inputs stay writable
            given[name][0] = 0.0
            assert getattr(x, name)[0] == row[name]
        with pytest.raises(ValueError, match="w_a = 0.75 exceeds"):
            XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=np.array([0.5, 0.75, 0.9]))

    @pytest.mark.parametrize("field", ["w_a", "z_a"])
    def test_nan_coherence_magnitude_is_rejected(self, field):
        nan_fields = {"w_a": 0.0, "z_a": 0.0, field: math.nan}
        with pytest.raises(ValueError, match="^coherence magnitudes must be nonnegative$"):
            XState(a=0.0, g=0.5, f=0.5, h=0.0, **nan_fields)

    # the nan row comes before a row that breaks a later rule; FLOAT_CHECK_MAX
    # valid rows after them take the check past the float path
    @pytest.mark.parametrize("pad", [0, FLOAT_CHECK_MAX], ids=["float-checks", "array-check"])
    def test_array_state_reports_its_first_nan_coherence(self, pad):
        w_a = np.array([0.5, math.nan, 0.75] + [0.5] * pad)
        with pytest.raises(ValueError, match="^coherence magnitudes must be nonnegative$"):
            XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=w_a)
        with pytest.raises(ValueError, match="^w_a = 0.75 exceeds"):
            XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=np.where(np.isnan(w_a), 0.5, w_a))

    @pytest.mark.parametrize("field", ["w_p", "z_p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_is_rejected(self, field, value):
        phases = {"w_p": 0.0, "z_p": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^phases w_p = {phases['w_p']} and "
                                             f"z_p = {phases['z_p']} must be finite$"):
            XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=0.5, **phases)

    @pytest.mark.parametrize("pad", [0, FLOAT_CHECK_MAX], ids=["float-checks", "array-check"])
    def test_array_state_reports_its_first_non_finite_phase(self, pad):
        w_p = np.array([0.5, math.inf, math.nan] + [0.5] * pad)
        with pytest.raises(ValueError, match="^phases w_p = inf and z_p = 0.0 must be finite$"):
            XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=0.5, w_p=w_p)

    def test_a_non_finite_phase_never_reaches_the_inversion(self):
        """run_observation on a nan-phase resource names the state, not the valid settings."""
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="^phases w_p = nan") as caught:
            run_observation(AstroVisibility(0.5, 0.2),
                            XState(0.0, 0.5, 0.5, 0.0, 0.5, w_p=math.nan),
                            PhaseSettings(0.0, math.pi / 2), 100, rng)
        assert not isinstance(caught.value, DegeneratePhasesError)

    def test_entries_are_immutable(self):
        m = make_bell_psi(0.0)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0


class TestWrapPhase:
    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_range_and_equivalence(self, phi):
        out = wrap_phase(phi)
        assert -math.pi < out <= math.pi
        assert abs(math.remainder(out - phi, 2 * math.pi)) <= 1e-9

    def test_boundary(self):
        assert wrap_phase(math.pi) == math.pi
        assert wrap_phase(-math.pi) == math.pi
