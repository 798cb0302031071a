import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entbase.channels import (
    ideal_bell_xstate,
    xstate_amplitude_damping,
    xstate_dephasing,
    xstate_depolarizing,
)
from entbase import elementwise as ew
from entbase import protocol
from entbase.cli import main
from entbase.config import parse_config
from entbase.imaging import true_visibility
from entbase.protocol import (
    DegeneratePhasesError,
    PhaseSettings,
    ZeroConcurrenceError,
    derive_seed,
    postselect,
    raw_probabilities,
    replicate_rmse,
    run_observation,
    run_replicates,
    scaling_laws,
)
from entbase.qcore import (
    AstroVisibility,
    DegenerateResourceError,
    XState,
    concurrence_subspace,
    wrap_phase,
)
from entbase.reference import (
    delta_p_uncertainty,
    phase_from_ratio,
    phase_ratio_derivative,
    propagate_errors,
    solve_visibility,
)

QUARTER = 0.5 * math.pi
DEFAULT = PhaseSettings(0.0, QUARTER)


def resource_with(C, xi, w_p=0.0):
    """X state with prescribed subspace weight and concurrence."""
    return XState(a=1.0 - xi, g=xi / 2, f=xi / 2, h=0.0, w_a=C * xi / 2, w_p=w_p)


class TestRawProbabilities:
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

class TestPostselect:
    def test_even_split(self):
        assert postselect(0.1, 0.1) == (0.5, 0.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateResourceError):
            postselect(0.0, 0.0)


class TestSampling:
    """run_observation draws both settings' counts from the caller's generator."""

    def test_deterministic(self):
        # consecutive observations on one generator are the rows of one (K, 2) draw
        v = AstroVisibility(0.6, -1.1)
        x = resource_with(0.8, 0.7, w_p=0.4)
        gen = np.random.default_rng(99)
        rows = [run_observation(v, x, DEFAULT, 1000, gen) for _ in range(6)]
        whole = run_replicates(v, x, DEFAULT, 1000, 6, np.random.default_rng(99))
        for field in ("V_a_hat", "V_p_hat", "dV_a", "dV_p"):
            assert [getattr(e, field) for e in rows] == getattr(whole, field).tolist()

    def test_boundary_probabilities(self):
        # p_c = 0 or 1 at the first setting: its fringe dp1 = c is exact on any stream
        for v_p, fringe in ((0.0, 1.0), (math.pi, -1.0)):
            for seed in range(5):
                est = run_observation(AstroVisibility(1.0, v_p), ideal_bell_xstate(), DEFAULT,
                                      500, np.random.default_rng(seed))
                assert abs(est.V_a_hat * math.cos(est.V_p_hat) - fringe) <= 1e-12

    @pytest.mark.parametrize("n", [2 ** 53 + 1, protocol.MAX_TRIALS])
    def test_one_row_draws_at_large_n(self, n):
        # above 2**53 the fringe (N - 2 n_c) / N depends on the counts' integer type: the
        # one-row draws must give the same bits as the rows of one (K, 2) draw, also when
        # p_c = 0 or 1 at the first setting (V_p = 0 or pi, aligned with it)
        for v_p in (0.0, math.pi, 0.7):
            v = AstroVisibility(1.0, v_p)
            gen = np.random.default_rng(5)
            rows = [run_observation(v, ideal_bell_xstate(), DEFAULT, n, gen) for _ in range(8)]
            whole = run_replicates(v, ideal_bell_xstate(), DEFAULT, n, 8,
                                   np.random.default_rng(5))
            for field in ("V_a_hat", "V_p_hat", "dV_a", "dV_p"):
                got = np.array([getattr(e, field) for e in rows])
                assert np.array_equal(got.view(np.int64), getattr(whole, field).view(np.int64))

    @pytest.mark.parametrize("v_p, p_c", [(0.0, 0.0), (math.pi, 1.0)], ids=["below-0", "above-1"])
    def test_full_fringe_rounding_is_clamped(self, v_p, p_c):
        # w_a one ulp above sqrt(g f) leaves p_c about 1e-16 outside [0, 1]
        x = XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=math.nextafter(0.5, 1.0))
        v = AstroVisibility(1.0, v_p)
        raw = postselect(*raw_probabilities(v, x))[0]
        assert raw != p_c and abs(raw - p_c) <= protocol.P_C_ROUNDING
        assert protocol._setting_probabilities(v, x, DEFAULT)[3][0] == p_c
        est = run_observation(v, x, DEFAULT, 500, np.random.default_rng(0))
        assert abs(est.V_a_hat * math.cos(est.V_p_hat) - math.cos(v_p)) <= 1e-12

    def test_p_c_beyond_rounding_raises(self):
        x = XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=0.5 + 1e-10)  # within XState's slack
        with pytest.raises(ValueError, match=r"^p_c = -1\.0\d*e-10 outside \[0, 1\]$"):
            run_observation(AstroVisibility(1.0, 0.0), x, DEFAULT, 500,
                            np.random.default_rng(0))

    def test_counts_validation(self):
        with pytest.raises(ValueError, match="at least one trial"):
            run_observation(AstroVisibility(0.5, 0.0), ideal_bell_xstate(), DEFAULT, 0,
                            np.random.default_rng(0))

    def test_seed_derivation_is_stable(self):
        assert derive_seed(12, 1) == derive_seed(12, 1)
        assert derive_seed(12, 1) != derive_seed(12, 2)
        assert derive_seed(12, 1, 2) != derive_seed(12, 2, 1)


class TestDeltaP:
    def test_extremes(self):
        # fringe (n_ac - n_c) / N: an even split is 0, all anti-correlated +1, all correlated -1
        n_c = np.array([[5, 5], [0, 5], [10, 5], [5, 0]])
        est = run_replicates(AstroVisibility(0.5, 0.0), resource_with(1.0, 1.0), DEFAULT, 10,
                             4, FixedCounts(n_c))
        c = est.V_a_hat * np.cos(est.V_p_hat)  # dp1 at w1 = 0 with C = 1
        s = est.V_a_hat * np.sin(est.V_p_hat)  # dp2 at w2 = pi/2
        assert np.allclose(c, [0.0, 1.0, -1.0, 0.0], rtol=0.0, atol=1e-15)
        assert np.allclose(s, [0.0, 0.0, 0.0, 1.0], rtol=0.0, atol=1e-15)

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


class TestScalingLaws:
    def test_lossless_baseline(self):
        for x in (xstate_amplitude_damping(0.0, 0.0), xstate_dephasing(0.0, 0.0),
                  xstate_depolarizing(0.0, 0.0)):
            out = scaling_laws(x, R_X=4.0)
            assert abs(out.dV_a_scale - 0.5) <= 1e-15
            assert abs(out.dV_p_scale - 0.5) <= 1e-15
            assert math.isfinite(out.dV_a_scale) and math.isfinite(out.dV_p_scale)

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
        assert out.dV_a_scale == math.inf
        assert math.isfinite(out.dV_p_scale)

    def test_no_photons_or_no_coincidences_diverge(self):
        for x, r_x in ((ideal_bell_xstate(), 0.0), (xstate_amplitude_damping(1.0, 1.0), 1.0)):
            out = scaling_laws(x, r_x)
            assert out.dV_a_scale == out.dV_p_scale == math.inf
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
        a = run_observation(v, x, DEFAULT, 10000, np.random.default_rng(5))
        b = run_observation(v, x, DEFAULT, 10000, np.random.default_rng(5))
        assert a == b

    def test_zero_concurrence_resource(self):
        with pytest.raises(ZeroConcurrenceError):
            run_observation(AstroVisibility(0.5, 0.0), xstate_dephasing(1.0, 1.0),
                            DEFAULT, 100, np.random.default_rng(0))

    def test_dead_resource(self):
        dead = XState(a=1.0, g=0.0, f=0.0, h=0.0, w_a=0.0)
        with pytest.raises(DegenerateResourceError):
            run_observation(AstroVisibility(0.5, 0.0), dead, DEFAULT, 100,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("observe", [
        lambda v, x, rng: run_replicates(v, x, DEFAULT, 100, 3, rng),
        lambda v, x, rng: replicate_rmse([(v, x, DEFAULT, 100, rng)], 3),
    ], ids=["run_replicates", "replicate_rmse"])
    def test_dead_resource_in_batch_paths(self, observe):
        # concurrence_subspace gives a dead state nan; the protocol still refuses it
        dead = XState(a=1.0, g=0.0, f=0.0, h=0.0, w_a=0.0)
        with pytest.raises(DegenerateResourceError,
                           match=r"^g \+ f = 0: the resource never produces coincidences$"):
            observe(AstroVisibility(0.5, 0.0), dead, np.random.default_rng(0))

    def test_estimate_fields(self):
        est = run_observation(AstroVisibility(0.7, 0.9), ideal_bell_xstate(),
                              DEFAULT, 50000, np.random.default_rng(3))
        assert est.V_a_hat >= 0.0
        assert -math.pi < est.V_p_hat <= math.pi
        assert est.dV_a >= 0.0 and est.dV_p >= 0.0
        assert est.N_used == 50000 and est.C_used == 1.0 and est.xi_used == 1.0
        assert {type(v) for v in (est.V_a_hat, est.V_p_hat, est.dV_a, est.dV_p)} == {float}


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
        # at (2.0, -2.0) the zero fringes give c = -0.0, whose arctan2 is pi
        for ph in (DEFAULT, PhaseSettings(-0.4, 0.4), PhaseSettings(2.0, -2.0)):
            batch = protocol._invert_batch(zero, zero, 100, ph, 0.6)
            assert_matches_scalar(batch, zero, zero, 100, ph, 0.6)
            assert np.all(batch[1] == 0.0) and np.all(batch[3] == math.pi)

    def test_counts_follow_the_scalar_chain(self, rng):
        v = AstroVisibility(0.7, 0.9)
        x = resource_with(0.6, 0.5, w_p=0.3)
        n = 5000
        n_c = rng.integers(0, n + 1, size=(20, 2))
        n_c[0] = n // 2  # both fringes zero
        est = run_replicates(v, x, DEFAULT, n, 20, FixedCounts(n_c))
        eff = PhaseSettings(x.w_p + DEFAULT.w1, x.w_p + DEFAULT.w2)
        dps = [[((n - int(c)) - int(c)) / n for c in row] for row in n_c]
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

        unchunked = replicate_rmse([(v, x, DEFAULT, 3000, np.random.default_rng(11))], 8)
        monkeypatch.setattr(protocol, "REPLICATE_CHUNK", 3)
        chunked = replicate_rmse([(v, x, DEFAULT, 3000, np.random.default_rng(11))], 8)
        assert np.concatenate(chunked) == pytest.approx(np.concatenate(unchunked), rel=1e-13)
        errs = whole.V_p_hat - v.V_p
        wrapped = [wrap_phase(e) for e in errs]
        assert unchunked[1][0] == pytest.approx(math.sqrt(np.mean(np.square(wrapped))),
                                                rel=1e-13)

    def test_matches_scalar_statistics(self):
        v = AstroVisibility(0.7, 0.9)
        x = resource_with(0.5, 0.6)
        n = 10 ** 4
        batch = run_replicates(v, x, DEFAULT, n, 4000, np.random.default_rng(3))
        # the scalar reference inverts 400 pairs of counts drawn from another stream
        eff = PhaseSettings(x.w_p + DEFAULT.w1, x.w_p + DEFAULT.w2)
        p_cs = [postselect(*raw_probabilities(v, x.with_phase_offset(w)))[0]
                for w in (DEFAULT.w1, DEFAULT.w2)]
        n_c = np.random.default_rng(4).binomial(n, p_cs, size=(400, 2))
        scalar = [scalar_inversion((n - 2 * int(c1)) / n, (n - 2 * int(c2)) / n, n, eff,
                                   batch.C_used) for c1, c2 in n_c]
        for index, field in enumerate(("V_a_hat", "V_p_hat", "dV_a")):
            ref = np.array([e[index] for e in scalar])
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
            replicate_rmse([(v, ideal_bell_xstate(), DEFAULT, 100, gen)], 0)
        with pytest.raises(ValueError, match="at least one trial"):
            replicate_rmse([(v, ideal_bell_xstate(), DEFAULT, 100, gen),
                            (v, ideal_bell_xstate(), DEFAULT, 0, gen)], 5)
        with pytest.raises(ZeroConcurrenceError):
            replicate_rmse([(v, xstate_dephasing(1.0, 1.0), DEFAULT, 100, gen)], 5)


# (v_true, x, ph, N, seed): rows that differ in visibility, state, settings and N; N = 2
# makes dead replicates (both fringes zero), N = 1 fringes of +-1 only
RMSE_ROWS = [
    (AstroVisibility(0.4, -2.0), resource_with(0.7, 0.8), DEFAULT, 3000, 11),
    (AstroVisibility(0.9, 1.1), resource_with(0.3, 0.5, w_p=0.4), PhaseSettings(0.3, 2.5),
     100, 12),
    (AstroVisibility(0.0, 0.0), ideal_bell_xstate(), PhaseSettings(-1.2, 0.4), 2, 13),
    (AstroVisibility(1.0, math.pi), xstate_dephasing(0.3, 0.6), PhaseSettings(-2.0, 2.0),
     2 ** 53 + 1, 14),
    (AstroVisibility(0.7, 0.9), xstate_depolarizing(0.05, 0.1), PhaseSettings(0.0, 1.5), 1, 15),
]


def observations(rows, rng=None):
    """replicate_rmse rows, each with a generator of its own seed unless rng is given."""
    return [(v, x, ph, n, rng or np.random.default_rng(seed)) for v, x, ph, n, seed in rows]


def rmse_by_chunked_replicates(v, x, ph, n, replicates, rng):
    """The reference: run_replicates a chunk at a time, each chunk's squares summed to a float."""
    sq_a = sq_p = 0.0
    for start in range(0, replicates, protocol.REPLICATE_CHUNK):
        est = run_replicates(v, x, ph, n, min(protocol.REPLICATE_CHUNK, replicates - start),
                             rng)
        sq_a += float(np.sum(np.square(est.V_a_hat - v.V_a)))
        sq_p += float(np.sum(np.square(protocol._wrap_phases(est.V_p_hat - v.V_p))))
    return math.sqrt(sq_a / replicates), math.sqrt(sq_p / replicates)


# (replicates, REPLICATE_CHUNK): one block of every row; chunks crossing the cap; and
# small caps that split the rows into blocks of two rows, or of one row and three chunks
ROW_BLOCKINGS = [(1, None), (550, None), (protocol.REPLICATE_CHUNK + 3, None), (8, 20), (8, 3)]


class TestReplicateRmseRows:
    @pytest.mark.parametrize("replicates, cap", ROW_BLOCKINGS,
                             ids=["one", "one-block", "chunk-crossing", "blocks-of-two",
                                  "blocks-of-one"])
    def test_rows_are_their_one_row_calls(self, monkeypatch, replicates, cap):
        if cap is not None:
            monkeypatch.setattr(protocol, "REPLICATE_CHUNK", cap)
        rows = replicate_rmse(observations(RMSE_ROWS), replicates)
        for i, row in enumerate(RMSE_ROWS):
            one = replicate_rmse(observations([row]), replicates)
            want = rmse_by_chunked_replicates(*row[:4], replicates,
                                              np.random.default_rng(row[4]))
            for k in (0, 1):
                assert bits(rows[k][i]) == bits(one[k][0]) == bits(want[k]), (i, k)

    @pytest.mark.parametrize("replicates, cap", ROW_BLOCKINGS[1:],
                             ids=["one-block", "chunk-crossing", "blocks-of-two",
                                  "blocks-of-one"])
    def test_rows_sharing_a_generator_draw_in_row_order(self, monkeypatch, replicates, cap):
        if cap is not None:
            monkeypatch.setattr(protocol, "REPLICATE_CHUNK", cap)
        rows = replicate_rmse(observations(RMSE_ROWS, np.random.default_rng(5)), replicates)
        gen = np.random.default_rng(5)
        for i, row in enumerate(RMSE_ROWS):
            one = replicate_rmse(observations([row], gen), replicates)
            assert bits([rows[0][i], rows[1][i]]).tolist() == bits(
                [one[0][0], one[1][0]]).tolist(), i

    def test_inverts_estimates_only_in_bounded_blocks(self, monkeypatch):
        shapes = []
        estimate = protocol._estimate

        def recorded(dp1, dp2, trig, C):
            shapes.append(dp1.shape)
            return estimate(dp1, dp2, trig, C)

        def no_error_bars(dp, N):
            raise AssertionError("the RMSE needs no error bars")

        monkeypatch.setattr(protocol, "_estimate", recorded)
        monkeypatch.setattr(protocol, "_fringe_error", no_error_bars)
        monkeypatch.setattr(protocol, "REPLICATE_CHUNK", 20)
        replicate_rmse(observations(RMSE_ROWS), 8)
        assert shapes == [(2, 8), (2, 8), (1, 8)]
        shapes.clear()
        replicate_rmse(observations(RMSE_ROWS[:2]), 45)
        assert shapes == [(1, 20), (1, 20), (1, 5)] * 2


@pytest.mark.parametrize("channel, param, values, dead", [
    ({"kind": "dephasing", "mu_L": 0.1, "mu_R": 0.2}, "mu_L", "1.0,0.5,1.0,0.2", {0, 2}),
    ({"kind": "amplitude_damping", "L0": 1.0}, "B", "0.5,2000,1,5000", {1, 3}),
], ids=["zero-concurrence", "no-weight"])
def test_sweep_rows_beside_dead_rows_are_one_row_calls(tmp_path, channel, param, values,
                                                      dead):
    # a dead row (C = 0, or nan with no coincidence weight) keeps empty RMSE cells; a
    # live row r gets the one-row call on default_rng(derive_seed(seed, r))
    raw = {"sky": {"sources": [{"theta": -0.01, "flux": 1.0}, {"theta": 0.01, "flux": 0.6}]},
           "wavelength": 1.0, "baselines": {"B_max": 40.0, "count": 12},
           "channel": channel, "phase_settings": {"w1": 0.2, "w2": 1.4},
           "N_per_setting": 2000, "seed": 9, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["sweep", str(path), "--param", param, "--values", values,
                 "--mc-replicates", "40"]) == 0
    rows = [r.split(",") for r in (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]]
    for r, (value, row) in enumerate(zip(map(float, values.split(",")), rows)):
        if r in dead:
            assert row[6:] == ["", ""] and (row[2] == "nan" or float(row[2]) == 0.0)
            continue
        cfg = parse_config({**raw, "channel": {**channel, param: value}}
                           if param in channel else raw)
        b = value if param == "B" else cfg.plan.B_m
        v_c = true_visibility(cfg.sky, b)
        one = replicate_rmse([(AstroVisibility(abs(v_c), cmath.phase(v_c)),
                               cfg.channel.resource_factory()(b), cfg.settings,
                               cfg.n_per_setting,
                               np.random.default_rng(derive_seed(cfg.seed, r)))], 40)
        assert row[6:] == ["%.17g" % one[0][0], "%.17g" % one[1][0]], r


# an (n,) call of this length runs full SIMD vectors and a remainder
ROW_COPIES = 17


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@st.composite
def reachable_rows(draw):
    """(N, n1, n2, w1, w2): one observation's counts at nondegenerate settings.

    Counts favour the edges: p_c = 0 or 1 (n = 0 or N), a zero fringe (n = N / 2,
    both zero makes a dead row) and equal counts at both settings (a tie).
    """
    N = draw(st.one_of(st.integers(1, 10 ** 6),
                       st.sampled_from([2 ** 53 + 1, protocol.MAX_TRIALS])))
    count = st.one_of(st.sampled_from([0, N, N // 2]), st.integers(0, N))
    n1 = draw(count)
    n2 = draw(st.one_of(st.just(n1), count))
    angle = st.floats(-2.0 * math.pi, 2.0 * math.pi)
    w1 = draw(angle)
    w2 = draw(st.one_of(st.just(-w1), angle))  # w2 = -w1 with a tie zeroes the fringe's sine
    assume(abs(math.sin(w2 - w1)) >= protocol.MIN_PHASE_SEPARATION)
    return N, n1, n2, w1, w2


class TestFloatInversion:
    """A one-row inversion on Python floats against the same row in an (n,) call."""

    @given(reachable_rows(), st.floats(0.01, 1.0))
    @example((10, 5, 5, 0.0, QUARTER), 0.5)          # dead row: both fringes zero
    @example((10, 5, 5, 2.0, -2.0), 0.5)             # dead row whose arctan2 would be pi
    @example((10, 0, 10, 0.3, 2.5), 0.7)             # p_c = 0, then 1
    @example((10, 3, 3, -0.4, 0.4), 0.9)             # tie: the fringe's sine is +0.0
    @example((10, 0, 0, -2.0, 2.0), 0.5)             # arctan2 gives -pi, reported as pi
    @example((10, 9, 9, -2.0, 2.0), 0.5)             # V_p = -0.0
    @example((2 ** 53 + 1, 1, 2 ** 52, 0.3, -1.1), 0.2)  # N above 2**53
    @example((1, 1, 0, -1.2, 0.4), 0.05)            # N = 1: p_c = 1, then 0
    @example((protocol.MAX_TRIALS, 0, protocol.MAX_TRIALS, 0.3, -0.3), 0.05)  # p_c edges, -w1
    @example((protocol.MAX_TRIALS, 2 ** 62 + 1, 3, 0.3, 2.5), 0.9)  # interior counts, top N
    @settings(max_examples=300, deadline=None)
    def test_float_call_matches_array_elements(self, row, conc):
        N, n1, n2, w1, w2 = row
        ph = PhaseSettings(w1, w2)
        # the fringes as _observe forms them: int64 counts, then Python floats
        dp1, dp2 = (((N - n) - n) / N for n in (np.int64(n1), np.int64(n2)))
        one = protocol._invert_batch(float(dp1), float(dp2), N, ph, conc)
        batch = protocol._invert_batch(np.full(ROW_COPIES, dp1), np.full(ROW_COPIES, dp2),
                                       N, ph, conc)
        for got, want in zip(one, batch):
            assert type(got) is float
            assert (bits(want) == bits(got)).all(), (got, want)
        for dp in (float(dp1), float(dp2)):  # the fringe error's factors of 2 moved, not its bits
            assert bits(protocol._fringe_error(dp, N)) == bits(delta_p_uncertainty(dp, N))

    def test_tie_examples_reach_their_phases(self):
        # equal fringes at (-2, 2): s = +0.0 / det = -0.0, so arctan2 gives -pi or -0.0
        ph = PhaseSettings(-2.0, 2.0)
        v_p = [protocol._invert_batch(dp, dp, 10, ph, 0.5)[1] for dp in (1.0, -0.8)]
        assert bits(v_p).tolist() == bits([math.pi, -0.0]).tolist()

    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
    @settings(max_examples=300, deadline=None)
    def test_elementwise_helpers_give_the_ufuncs_bits(self, y, x):
        for helper, ufunc, args in ((ew.atan2, np.arctan2, (y, x)), (ew.hypot, np.hypot, (y, x)),
                                    (ew.sin, np.sin, (y,))):
            got = helper(*args)
            want = ufunc(*(np.full(ROW_COPIES, a) for a in args))
            assert type(got) is float
            assert (bits(want) == bits(got)).all(), (helper, args, got, want)
            assert (bits(helper(*(np.full(ROW_COPIES, a) for a in args))) == bits(want)).all()
