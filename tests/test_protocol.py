import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbase.channels import (
    ideal_bell_xstate,
    xstate_amplitude_damping,
    xstate_dephasing,
    xstate_depolarizing,
)
from entbase import protocol
from entbase.protocol import (
    DegeneratePhasesError,
    DetectionCounts,
    PhaseSettings,
    ZeroConcurrenceError,
    amplitude_from_delta,
    amplitude_partials,
    delta_p,
    delta_p_uncertainty,
    derive_seed,
    phase_from_ratio,
    phase_ratio_derivative,
    postselect,
    propagate_errors,
    raw_probabilities,
    raw_probabilities_oracle,
    replicate_rmse,
    run_observation,
    run_replicates,
    sample_counts,
    scaling_laws,
    solve_visibility,
)
from entbase.qcore import (
    AstroVisibility,
    DegenerateResourceError,
    XState,
    concurrence_subspace,
    make_astro_state,
    make_bell_psi,
    wrap_phase,
)

from conftest import random_xstate, xstate_strategy

QUARTER = 0.5 * math.pi
DEFAULT = PhaseSettings(0.0, QUARTER)


def resource_with(C, xi, w_p=0.0):
    """X state with prescribed subspace weight and concurrence."""
    return XState(a=1.0 - xi, g=xi / 2, f=xi / 2, h=0.0, w_a=C * xi / 2, w_p=w_p)


class TestRawProbabilities:
    def test_ideal_bell_reproduces_postselected_fringe(self):
        for v_a in np.linspace(0.0, 1.0, 10):
            for v_p in np.linspace(-3.0, 3.0, 10):
                for delta in np.linspace(-3.0, 3.0, 10):
                    x = resource_with(1.0, 1.0, w_p=delta)
                    q_c, q_ac = raw_probabilities(AstroVisibility(v_a, v_p), x)
                    p_c, p_ac = postselect(q_c, q_ac)
                    assert abs(p_c - 0.5 * (1 - v_a * math.cos(v_p - delta))) <= 1e-12

    def test_perfect_anticorrelation(self):
        q_c, q_ac = raw_probabilities(AstroVisibility(1.0, 0.8),
                                      resource_with(1.0, 1.0, w_p=0.8))
        assert abs(q_c) <= 1e-15 and abs(q_ac - 0.5) <= 1e-15

    def test_dephased_example(self):
        x = xstate_dephasing(0.5, 0.5)
        q_c, q_ac = raw_probabilities(AstroVisibility(0.5, 1.3),
                                      x.with_phase_offset(1.3 - x.w_p))
        assert abs(q_c - 0.25 * (1 - 0.5 * 2 * 0.125)) <= 1e-15
        assert abs(q_c - 0.21875) <= 1e-15

    @given(xstate_strategy(), st.floats(0, 1), st.floats(-math.pi, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_sum(self, x, v_a, v_p):
        q_c, q_ac = raw_probabilities(AstroVisibility(v_a, v_p), x)
        assert -1e-15 <= q_c <= 0.5 + 1e-15
        assert -1e-15 <= q_ac <= 0.5 + 1e-15
        assert abs(q_c + q_ac - 0.5 * (x.g + x.f)) <= 1e-12


class TestProjectorOracle:
    def test_agrees_with_closed_form(self, rng):
        for _ in range(100):
            v = AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
            x = random_xstate(rng)
            q_closed = raw_probabilities(v, x)
            q_oracle = raw_probabilities_oracle(make_astro_state(v), x.to_density())
            assert abs(q_closed[0] - q_oracle[0]) <= 1e-12
            assert abs(q_closed[1] - q_oracle[1]) <= 1e-12

    def test_bell_fringe_scan(self):
        v = AstroVisibility(0.9, 0.4)
        for delta in np.linspace(-math.pi, math.pi, 17):
            q_c, q_ac = raw_probabilities_oracle(make_astro_state(v), make_bell_psi(delta))
            p_c, _ = postselect(q_c, q_ac)
            assert abs(p_c - 0.5 * (1 - 0.9 * math.cos(0.4 - delta))) <= 1e-12

    def test_flat_fringe_at_zero_visibility(self, rng):
        v = AstroVisibility(0.0, 0.0)
        x = random_xstate(rng)
        q_c, q_ac = raw_probabilities_oracle(make_astro_state(v), x.to_density())
        assert abs(q_c - (x.g + x.f) / 4) <= 1e-12
        assert abs(q_ac - (x.g + x.f) / 4) <= 1e-12

    def test_detects_fringe_sign_mutation(self):
        # a flipped interference term must not slip past the oracle comparison
        v = AstroVisibility(0.8, 0.3)
        x = resource_with(0.9, 0.8, w_p=0.1)
        q_c, _ = raw_probabilities_oracle(make_astro_state(v), x.to_density())
        mutated = 0.25 * ((x.g + x.f) + 2 * v.V_a * x.w_a * math.cos(v.V_p - x.w_p))
        assert abs(q_c - mutated) > 1e-3


class TestPostselect:
    def test_even_split(self):
        assert postselect(0.1, 0.1) == (0.5, 0.5)

    def test_sums_to_one_exactly(self, rng):
        for _ in range(200):
            q_c, q_ac = rng.uniform(0, 0.5, size=2)
            p_c, p_ac = postselect(q_c, q_ac)
            assert p_c + p_ac == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateResourceError):
            postselect(0.0, 0.0)


class TestSampling:
    def test_deterministic(self):
        a = sample_counts(0.3, 1000, seed=99)
        b = sample_counts(0.3, 1000, seed=99)
        assert a == b

    def test_boundary_probabilities(self):
        assert sample_counts(0.0, 500, seed=1).n_c == 0
        assert sample_counts(1.0, 500, seed=1).n_c == 500

    def test_concentration(self):
        n = 10 ** 6
        bound = 5.0 * math.sqrt(0.3 * 0.7 / n)
        for seed in range(50):
            counts = sample_counts(0.3, n, seed)
            assert abs(counts.n_c / n - 0.3) <= bound

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            DetectionCounts(n_c=3, n_ac=3, N=7)
        with pytest.raises(ValueError):
            sample_counts(0.5, 0, seed=0)

    def test_seed_derivation_is_stable(self):
        assert derive_seed(12, 1) == derive_seed(12, 1)
        assert derive_seed(12, 1) != derive_seed(12, 2)
        assert derive_seed(12, 1, 2) != derive_seed(12, 2, 1)


class TestDeltaP:
    def test_extremes(self):
        assert delta_p(DetectionCounts(5, 5, 10)) == 0.0
        assert delta_p(DetectionCounts(0, 10, 10)) == 1.0

    def test_matches_analytic_difference(self):
        x = xstate_dephasing(0.2, 0.3)
        v = AstroVisibility(0.6, 0.7)
        q_c, q_ac = raw_probabilities(v, x)
        p_c, p_ac = postselect(q_c, q_ac)
        conc = concurrence_subspace(x)
        assert abs((p_ac - p_c) - v.V_a * conc * math.cos(v.V_p - x.w_p)) <= 1e-12


class TestSolveVisibility:
    def test_worked_example(self):
        v_a, v_p = solve_visibility(0.3, 0.3, DEFAULT, C=0.6)
        assert abs(v_p - math.pi / 4) <= 1e-12
        assert abs(v_a - math.sqrt(0.18) / 0.6) <= 1e-12

    def test_round_trip_all_quadrants(self, rng):
        count = {q: 0 for q in range(4)}
        for _ in range(100):
            v_a = rng.uniform(0.05, 1.0)
            v_p = rng.uniform(-math.pi, math.pi)
            conc = rng.uniform(0.1, 1.0)
            dp1 = v_a * conc * math.cos(v_p - DEFAULT.w1)
            dp2 = v_a * conc * math.cos(v_p - DEFAULT.w2)
            va_hat, vp_hat = solve_visibility(dp1, dp2, DEFAULT, conc)
            assert abs(va_hat - v_a) <= 1e-12
            assert abs(wrap_phase(vp_hat - v_p)) <= 1e-12
            count[int(v_p // QUARTER) % 4] += 1
        assert all(c > 0 for c in count.values())

    def test_agrees_with_ratio_formula_mod_pi(self, rng):
        ph = PhaseSettings(0.3, 1.7)
        for _ in range(50):
            v_a, v_p, conc = rng.uniform(0.1, 1.0), rng.uniform(-3, 3), rng.uniform(0.2, 1)
            dp1 = v_a * conc * math.cos(v_p - ph.w1)
            dp2 = v_a * conc * math.cos(v_p - ph.w2)
            if abs(dp2) < 1e-6:
                continue
            _, vp_hat = solve_visibility(dp1, dp2, ph, conc)
            ratio_vp = phase_from_ratio(dp1 / dp2, ph)
            assert min(abs(wrap_phase(vp_hat - ratio_vp)),
                       abs(wrap_phase(vp_hat - ratio_vp - math.pi))) <= 1e-9

    def test_zero_amplitude_convention(self):
        v_a, v_p = solve_visibility(0.0, 0.0, DEFAULT, C=0.5)
        assert v_a == 0.0 and v_p == 0.0

    def test_zero_concurrence(self):
        with pytest.raises(ZeroConcurrenceError):
            solve_visibility(0.1, 0.1, DEFAULT, C=0.0)

    def test_degenerate_settings(self):
        with pytest.raises(DegeneratePhasesError):
            PhaseSettings(0.5, 0.5 + 1e-9)


class TestPropagateErrors:
    def test_vanishes_at_large_n(self):
        dva, dvp = propagate_errors(0.3, 0.2, 10 ** 12, DEFAULT, C=0.8)
        assert dva <= 1e-5 and dvp <= 1e-5

    def test_root_n_scaling(self):
        base = propagate_errors(0.3, 0.2, 1000, DEFAULT, C=0.8)
        quad = propagate_errors(0.3, 0.2, 4000, DEFAULT, C=0.8)
        assert abs(quad[0] * 2 / base[0] - 1.0) <= 0.01
        assert abs(quad[1] * 2 / base[1] - 1.0) <= 0.01

    def test_concurrence_scaling(self):
        full = propagate_errors(0.3, 0.2, 10000, DEFAULT, C=0.8)
        half = propagate_errors(0.3, 0.2, 10000, DEFAULT, C=0.4)
        assert abs(half[0] / full[0] - 2.0) <= 0.01  # amplitude error doubles
        assert half[1] == full[1]                    # phase error untouched

    def test_matches_alpha_chain(self, rng):
        # the regularized product equals |dVp/dalpha| * Delta(alpha) identically
        for _ in range(50):
            ph = PhaseSettings(rng.uniform(-1, 1), rng.uniform(1.2, 2.5))
            dp1, dp2 = rng.uniform(-0.8, 0.8, size=2)
            if abs(dp2) < 1e-3 or math.hypot(dp1, dp2) < 1e-3:
                continue
            n = 10000
            d1, d2 = delta_p_uncertainty(dp1, n), delta_p_uncertainty(dp2, n)
            alpha = dp1 / dp2
            d_alpha = math.hypot(d1 / dp2, dp1 * d2 / dp2 ** 2)
            chain = abs(phase_ratio_derivative(alpha, ph)) * d_alpha
            _, dvp = propagate_errors(dp1, dp2, n, ph, C=0.9)
            assert abs(dvp - chain) <= 1e-12 * max(1.0, chain)

    def test_boundary_counts_near_maximal(self):
        # one trial with every click in one class: error bars must stay informative
        dva, dvp = propagate_errors(1.0, 1.0, 1, DEFAULT, C=1.0)
        assert dvp > 0.5 and dva > 0.5

    def test_n_one_not_zero(self):
        dva, dvp = propagate_errors(1.0, -1.0, 1, DEFAULT, C=1.0)
        assert dva > 0.0 and dvp > 0.0


class TestDerivativeCrossChecks:
    def test_phase_ratio_derivative_fd(self):
        ph = PhaseSettings(0.1, 0.1 + QUARTER)
        for alpha in (-1.5, -0.3, 0.4, 0.9, 2.2):
            step = 1e-6 * max(1.0, abs(alpha))
            fd = (phase_from_ratio(alpha + step, ph)
                  - phase_from_ratio(alpha - step, ph)) / (2 * step)
            an = phase_ratio_derivative(alpha, ph)
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))

    def test_amplitude_partials_fd(self):
        h = 1e-6
        for dp, v_p, conc, w in ((0.3, 0.4, 0.8, 0.1), (-0.25, 1.2, 0.5, 1.67),
                                 (0.05, -2.0, 0.33, -0.4)):
            d_dp, d_vp = amplitude_partials(dp, v_p, conc, w)
            fd_dp = (amplitude_from_delta(dp + h, v_p, conc, w)
                     - amplitude_from_delta(dp - h, v_p, conc, w)) / (2 * h)
            fd_vp = (amplitude_from_delta(dp, v_p + h, conc, w)
                     - amplitude_from_delta(dp, v_p - h, conc, w)) / (2 * h)
            assert abs(fd_dp - d_dp) <= 1e-6 * max(1.0, abs(d_dp))
            assert abs(fd_vp - d_vp) <= 1e-6 * max(1.0, abs(d_vp))


class TestScalingLaws:
    def test_lossless_baseline(self):
        for x in (xstate_amplitude_damping(0.0, 0.0), xstate_dephasing(0.0, 0.0),
                  xstate_depolarizing(0.0, 0.0)):
            out = scaling_laws(x, R_X=4.0)
            assert abs(out.dV_a_scale - 0.5) <= 1e-15
            assert abs(out.dV_p_scale - 0.5) <= 1e-15
            assert not out.diverged

    def test_equal_arm_damping(self):
        lam = 0.36
        out = scaling_laws(xstate_amplitude_damping(lam, lam), R_X=1.0)
        assert abs(out.dV_a_scale - 1.0 / math.sqrt(1.0 - lam)) <= 1e-12

    def test_matches_per_channel_expressions(self):
        r_x = 2.0
        lam_l, lam_r = 0.2, 0.5
        out = scaling_laws(xstate_amplitude_damping(lam_l, lam_r), r_x)
        xi = 1.0 - 0.5 * (lam_l + lam_r)
        assert abs(out.dV_a_scale
                   - math.sqrt(xi) / math.sqrt(r_x * (1 - lam_l) * (1 - lam_r))) <= 1e-12
        assert abs(out.dV_p_scale - 1.0 / math.sqrt(r_x * xi)) <= 1e-12

        mu_l, mu_r = 0.3, 0.6
        out = scaling_laws(xstate_dephasing(mu_l, mu_r), r_x)
        assert abs(out.dV_a_scale - 1.0 / (math.sqrt(r_x) * (1 - mu_l) * (1 - mu_r))) <= 1e-12
        assert abs(out.dV_p_scale - 1.0 / math.sqrt(r_x)) <= 1e-12

        k_l, k_r = 0.3, 0.2
        x_par = (k_l + k_r) / 3 - 4 * k_l * k_r / 9
        out = scaling_laws(xstate_depolarizing(k_l, k_r), r_x)
        assert abs(out.dV_a_scale
                   - math.sqrt(1 - 2 * x_par) / (math.sqrt(r_x) * (1 - 4 * x_par))) <= 1e-12
        assert abs(out.dV_p_scale - 1.0 / math.sqrt(r_x * (1 - 2 * x_par))) <= 1e-12

    def test_depolarizing_divergence(self):
        out = scaling_laws(xstate_depolarizing(0.75, 0.0), R_X=1.0)
        assert out.diverged and out.dV_a_scale == math.inf
        assert math.isfinite(out.dV_p_scale)

    def test_no_photons_or_no_coincidences_diverge(self):
        for x, r_x in ((ideal_bell_xstate(), 0.0), (xstate_amplitude_damping(1.0, 1.0), 1.0)):
            out = scaling_laws(x, r_x)
            assert out.diverged and out.dV_a_scale == out.dV_p_scale == math.inf
        with pytest.raises(ValueError):
            scaling_laws(ideal_bell_xstate(), -1.0)


class TestRunObservation:
    def test_noise_free_round_trip(self):
        # analytic fringes pushed through the inversion reproduce the input
        x = ideal_bell_xstate(0.25)
        v = AstroVisibility(0.8, 1.2)
        conc = concurrence_subspace(x)
        eff = PhaseSettings(x.w_p + DEFAULT.w1, x.w_p + DEFAULT.w2)
        dps = []
        for offset in (DEFAULT.w1, DEFAULT.w2):
            q_c, q_ac = raw_probabilities(v, x.with_phase_offset(offset))
            p_c, p_ac = postselect(q_c, q_ac)
            dps.append(p_ac - p_c)
        va_hat, vp_hat = solve_visibility(dps[0], dps[1], eff, conc)
        assert abs(va_hat - 0.8) <= 1e-12 and abs(vp_hat - 1.2) <= 1e-12

    def test_deterministic_given_seed(self):
        v = AstroVisibility(0.7, 0.9)
        x = ideal_bell_xstate()
        a = run_observation(v, x, DEFAULT, 10000, seed=5)
        b = run_observation(v, x, DEFAULT, 10000, seed=5)
        assert a == b

    def test_estimator_consistency_slope(self):
        v = AstroVisibility(0.7, 0.9)
        x = ideal_bell_xstate()
        ns = [1000, 10000, 100000]
        log_rmse = []
        for n in ns:
            errs = [run_observation(v, x, DEFAULT, n, derive_seed(2, n, k)).V_a_hat - 0.7
                    for k in range(80)]
            log_rmse.append(math.log10(math.sqrt(np.mean(np.square(errs)))))
        slope = np.polyfit(np.log10(ns), log_rmse, 1)[0]
        assert abs(slope + 0.5) <= 0.08

    def test_fringe_bound(self, rng):
        for _ in range(30):
            x = random_xstate(rng, with_outer=False)
            if x.g + x.f <= 1e-3:
                continue
            v = AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
            conc = concurrence_subspace(x)
            n = 2000
            for index, offset in ((1, DEFAULT.w1), (2, DEFAULT.w2)):
                q_c, q_ac = raw_probabilities(v, x.with_phase_offset(offset))
                p_c, _ = postselect(q_c, q_ac)
                dp = delta_p(sample_counts(p_c, n, derive_seed(8, index)))
                assert abs(dp) <= v.V_a * conc + 5.0 / math.sqrt(n)

    def test_zero_concurrence_resource(self):
        with pytest.raises(ZeroConcurrenceError):
            run_observation(AstroVisibility(0.5, 0.0), xstate_dephasing(1.0, 1.0),
                            DEFAULT, 100, seed=0)

    def test_dead_resource(self):
        dead = XState(a=1.0, g=0.0, f=0.0, h=0.0, w_a=0.0)
        with pytest.raises(DegenerateResourceError):
            run_observation(AstroVisibility(0.5, 0.0), dead, DEFAULT, 100, seed=0)

    def test_estimate_fields(self):
        est = run_observation(AstroVisibility(0.7, 0.9), ideal_bell_xstate(),
                              DEFAULT, 50000, seed=3)
        assert est.V_a_hat >= 0.0
        assert -math.pi < est.V_p_hat <= math.pi
        assert est.dV_a >= 0.0 and est.dV_p >= 0.0
        assert est.N_used == 50000 and est.C_used == 1.0 and est.xi_used == 1.0


def scalar_inversion(dp1, dp2, n, ph, conc):
    """The reference: scalar solve_visibility and propagate_errors."""
    return (*solve_visibility(dp1, dp2, ph, conc), *propagate_errors(dp1, dp2, n, ph, conc))


def assert_matches_scalar(batch, dp1, dp2, n, ph, conc):
    for k in range(len(dp1)):
        want = scalar_inversion(float(dp1[k]), float(dp2[k]), n, ph, conc)
        for field, got, ref in zip(("V_a", "V_p", "dV_a", "dV_p"), batch, want):
            assert abs(got[k] - ref) <= 1e-14 * abs(ref), (field, k, got[k], ref)


class FixedCounts:
    """Stands in for a Generator: binomial returns preset (K, 2) correlated counts."""

    def __init__(self, n_c):
        self.n_c = np.asarray(n_c, dtype=np.int64)

    def binomial(self, n, p, size):
        assert size == self.n_c.shape
        return self.n_c


class TestRunReplicates:
    def test_batch_inversion_matches_scalar(self, rng):
        for ph in (DEFAULT, PhaseSettings(0.3, 2.5), PhaseSettings(-1.2, 0.4)):
            for n in (1, 7, 1000, 10 ** 6):
                conc = rng.uniform(0.05, 1.0)
                dp1, dp2 = rng.uniform(-1.0, 1.0, size=(2, 50))
                batch = protocol._invert_batch(dp1, dp2, n, ph, conc)
                assert_matches_scalar(batch, dp1, dp2, n, ph, conc)

    def test_both_fringes_zero(self):
        zero = np.zeros(3)
        for ph in (DEFAULT, PhaseSettings(-0.4, 0.4)):
            batch = protocol._invert_batch(zero, zero, 100, ph, 0.6)
            assert_matches_scalar(batch, zero, zero, 100, ph, 0.6)
            assert np.all(batch[1] == 0.0) and np.all(batch[3] == math.pi)

    def test_exact_tie_in_setting_choice(self):
        ph = PhaseSettings(-0.4, 0.4)
        dp = np.array([0.3, 0.05])  # equal positive fringes: s = 0, so V_p = 0 sits midway
        batch = protocol._invert_batch(dp, dp, 500, ph, 0.8)
        for v_p in batch[1]:
            assert abs(math.cos(v_p - ph.w1)) == abs(math.cos(v_p - ph.w2))
        assert_matches_scalar(batch, dp, dp, 500, ph, 0.8)

    def test_counts_follow_the_scalar_chain(self, rng):
        v = AstroVisibility(0.7, 0.9)
        x = resource_with(0.6, 0.5, w_p=0.3)
        n = 5000
        n_c = rng.integers(0, n + 1, size=(20, 2))
        n_c[0] = n // 2  # both fringes zero
        est = run_replicates(v, x, DEFAULT, n, 20, FixedCounts(n_c))
        eff = PhaseSettings(x.w_p + DEFAULT.w1, x.w_p + DEFAULT.w2)
        dps = [[delta_p(DetectionCounts(int(c), n - int(c), n)) for c in row] for row in n_c]
        dp1, dp2 = np.array(dps).T
        assert_matches_scalar((est.V_a_hat, est.V_p_hat, est.dV_a, est.dV_p),
                              dp1, dp2, n, eff, est.C_used)
        assert (est.N_used, est.C_used, est.xi_used) == (n, concurrence_subspace(x), 0.5)

    def test_chunked_draws_match_one_draw(self, monkeypatch):
        v = AstroVisibility(0.4, -2.0)
        x = resource_with(0.7, 0.8)
        whole = run_replicates(v, x, DEFAULT, 3000, 8, np.random.default_rng(11))
        gen = np.random.default_rng(11)
        parts = [run_replicates(v, x, DEFAULT, 3000, k, gen) for k in (3, 5)]
        for field in ("V_a_hat", "V_p_hat", "dV_a", "dV_p"):
            joined = np.concatenate([getattr(p, field) for p in parts])
            assert np.array_equal(getattr(whole, field), joined)

        unchunked = replicate_rmse(v, x, DEFAULT, 3000, 8, np.random.default_rng(11))
        monkeypatch.setattr(protocol, "REPLICATE_CHUNK", 3)
        chunked = replicate_rmse(v, x, DEFAULT, 3000, 8, np.random.default_rng(11))
        assert chunked == pytest.approx(unchunked, rel=1e-13)
        errs = whole.V_p_hat - v.V_p
        wrapped = [wrap_phase(e) for e in errs]
        assert unchunked[1] == pytest.approx(math.sqrt(np.mean(np.square(wrapped))), rel=1e-13)

    def test_matches_scalar_statistics(self):
        v = AstroVisibility(0.7, 0.9)
        x = resource_with(0.5, 0.6)
        batch = run_replicates(v, x, DEFAULT, 10 ** 4, 4000, np.random.default_rng(3))
        scalar = [run_observation(v, x, DEFAULT, 10 ** 4, derive_seed(3, k)) for k in range(400)]
        for field in ("V_a_hat", "V_p_hat", "dV_a"):
            ref = np.array([getattr(e, field) for e in scalar])
            got = getattr(batch, field)
            assert abs(np.mean(got) - np.mean(ref)) <= 5 * np.std(ref) / math.sqrt(400), field
            assert np.std(got) == pytest.approx(np.std(ref), rel=0.2), field

    def test_checks_of_the_scalar_path(self):
        v = AstroVisibility(0.5, 0.0)
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least one trial"):
            run_replicates(v, ideal_bell_xstate(), DEFAULT, 0, 5, gen)
        with pytest.raises(ZeroConcurrenceError):
            run_replicates(v, xstate_dephasing(1.0, 1.0), DEFAULT, 100, 5, gen)
        with pytest.raises(DegenerateResourceError):
            run_replicates(v, XState(a=1.0, g=0.0, f=0.0, h=0.0, w_a=0.0), DEFAULT, 100, 5, gen)
        with pytest.raises(ValueError, match="replicate"):
            replicate_rmse(v, ideal_bell_xstate(), DEFAULT, 100, 0, gen)
