import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbase.qcore import (
    AstroVisibility,
    DegenerateResourceError,
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


class TestChannelApplication:
    def test_damped_bell_matches_closed_form(self):
        lam_l, lam_r = 0.3, 0.55
        out = apply_independent_channels(make_bell_psi(0.0),
                                         kraus_amplitude_damping(lam_l),
                                         kraus_amplitude_damping(lam_r)).entries
        expected = np.zeros((4, 4), complex)
        expected[0, 0] = 0.5 * (lam_l + lam_r)
        expected[1, 1] = 0.5 * (1 - lam_r)
        expected[2, 2] = 0.5 * (1 - lam_l)
        expected[1, 2] = expected[2, 1] = 0.5 * math.sqrt((1 - lam_l) * (1 - lam_r))
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_mixed_mechanisms_stay_x_form(self):
        out = apply_independent_channels(make_bell_psi(0.0),
                                         kraus_amplitude_damping(0.3),
                                         kraus_dephasing(0.5))
        extract_xstate(out)

    def test_preserves_state_properties(self, rng):
        makers = [kraus_amplitude_damping, kraus_dephasing, kraus_depolarizing]
        for _ in range(100):
            rho = random_density(rng)
            left = makers[rng.integers(3)](rng.uniform())
            right = makers[rng.integers(3)](rng.uniform())
            out = apply_independent_channels(rho, left, right).entries
            assert abs(out.trace() - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(out)[0] >= -1e-10


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

    def test_closure_over_all_channel_pairs(self):
        makers = [kraus_amplitude_damping, kraus_dephasing, kraus_depolarizing]
        bell = make_bell_psi(0.0)
        for left in makers:
            for right in makers:
                for p_l in np.linspace(0.0, 1.0, 5):
                    for p_r in np.linspace(0.0, 1.0, 5):
                        out = apply_independent_channels(bell, left(p_l), right(p_r))
                        extract_xstate(out)


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

    def test_degenerate_resource_raises(self):
        x = XState(a=1.0, g=0.0, f=0.0, h=0.0, w_a=0.0)
        with pytest.raises(DegenerateResourceError):
            concurrence_subspace(x)

    def test_subspace_weight_examples(self):
        assert abs(subspace_weight(XState(a=0.5, g=0.25, f=0.25, h=0.0, w_a=0.25)) - 0.5) <= 1e-15
        x_par = 2.0 / 9.0
        x = XState(a=x_par, g=0.5 - x_par, f=0.5 - x_par, h=x_par, w_a=1.0 / 18.0)
        assert abs(subspace_weight(x) - 5.0 / 9.0) <= 1e-15

    def test_monotone_under_equal_arm_noise(self):
        import warnings
        from entbase.channels import (xstate_amplitude_damping, xstate_dephasing,
                                      xstate_depolarizing)
        for family in (xstate_amplitude_damping, xstate_dephasing):
            concs = [concurrence_subspace(family(p, p)) for p in np.linspace(0, 0.95, 15)]
            assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(concs, concs[1:]))
        # isotropic noise is "more noise" only up to its fixed point kappa = 3/4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            concs = [concurrence_subspace(xstate_depolarizing(p, p))
                     for p in np.linspace(0, 0.75, 15)]
        assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(concs, concs[1:]))


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
