import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbase.channels import RateModel, fiber_loss_prob, ideal_bell_xstate, xstate_amplitude_damping
from entbase.imaging import (
    BaselinePlan,
    SkyModel,
    VisibilitySample,
    _dirty_image_complex,
    find_peaks,
    intensity_error,
    observe_and_image,
    reconstruct_intensity,
    resolution,
    sky_intensity_on_grid,
    true_visibility,
)
from entbase.protocol import PhaseSettings

SETTINGS = PhaseSettings(0.0, 0.5 * math.pi)
RATES = RateModel(1.0, 1.0)


def two_source_sky(sep=0.02, wavelength=1.0, flux2=1.0):
    return SkyModel(((-sep / 2, 1.0), (sep / 2, flux2)), wavelength)


def exact_samples(sky, plan):
    return [VisibilitySample(b, true_visibility(sky, b)) for b in plan.baselines]


class TestTrueVisibility:
    def test_point_source_phase_ramp(self):
        theta0 = 0.007
        sky = SkyModel(((theta0, 2.0),), wavelength=1.0)
        for b in (1.0, 13.0, 77.7):
            v = true_visibility(sky, b)
            assert abs(abs(v) - 1.0) <= 1e-12
            assert abs(cmath.phase(v) - math.remainder(-2 * math.pi * b * theta0, 2 * math.pi)) <= 1e-9

    def test_two_sources_cosine(self):
        sep = 0.02
        sky = two_source_sky(sep)
        for b in np.linspace(0.0, 80.0, 23):
            v = true_visibility(sky, b)
            assert abs(v - math.cos(math.pi * b * sep)) <= 1e-12
        null = 1.0 / (2 * sep)
        assert abs(true_visibility(sky, null)) <= 1e-12
        quarter = 1.0 / (4 * sep)
        assert abs(true_visibility(sky, quarter) - math.cos(math.pi / 4)) <= 1e-12

    @given(st.lists(st.tuples(st.floats(-0.05, 0.05), st.floats(0.1, 3.0)),
                    min_size=1, max_size=6),
           st.floats(0.0, 300.0))
    @settings(max_examples=60, deadline=None)
    def test_amplitude_bounded_by_one(self, sources, b):
        sky = SkyModel(tuple(sources), wavelength=1.0)
        assert abs(true_visibility(sky, b)) <= 1.0 + 1e-12

    def test_single_source_saturates_bound(self, rng):
        for _ in range(20):
            sky = SkyModel(((rng.uniform(-0.05, 0.05), 1.0),), wavelength=1.0)
            assert abs(abs(true_visibility(sky, rng.uniform(0, 100))) - 1.0) <= 1e-12

    def test_separated_sources_lose_contrast(self, rng):
        # away from the periodic revivals, only a point source keeps |V| = 1
        sky = two_source_sky(sep=0.02)
        for _ in range(20):
            b = rng.uniform(5.0, 45.0)
            if abs(math.remainder(b * 0.02, 1.0)) < 0.05:
                continue
            assert abs(true_visibility(sky, b)) < 1.0 - 1e-4

    def test_sky_validation(self):
        with pytest.raises(ValueError):
            SkyModel(((0.5, 1.0),), 1.0)  # outside small-angle regime
        with pytest.raises(ValueError):
            SkyModel(((0.01, 0.0),), 1.0)  # zero total flux
        with pytest.raises(ValueError):
            SkyModel((), 1.0)


class TestReconstruction:
    def test_single_source_peaks_at_center(self):
        sky = SkyModel(((0.0, 1.0),), wavelength=1.0)
        plan = BaselinePlan.linear(40.0, 32)
        grid = np.linspace(-0.05, 0.05, 101)
        rec = reconstruct_intensity(exact_samples(sky, plan), grid, 1.0)
        assert np.argmax(rec) == 50
        assert abs(rec.sum() - 1.0) <= 1e-12

    def test_two_source_peaks_in_cell(self):
        sep = 0.02
        sky = two_source_sky(sep)
        plan = BaselinePlan.linear(4.0 / (2 * sep), 64)
        grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
        rec = reconstruct_intensity(exact_samples(sky, plan), grid, 1.0)
        peaks = find_peaks(rec)
        assert len(peaks) == 2
        cell = grid[1] - grid[0]
        for peak, target in zip(peaks, (-sep / 2, sep / 2)):
            assert abs(grid[peak] - target) <= cell * (1.0 + 1e-9)

    def test_output_is_real_up_to_roundoff(self):
        sky = SkyModel(((-0.013, 1.0), (0.008, 0.6)), wavelength=1.0)
        plan = BaselinePlan.linear(70.0, 48)
        raw = _dirty_image_complex(exact_samples(sky, plan),
                                   np.linspace(-0.03, 0.03, 151), 1.0)
        assert np.max(np.abs(raw.imag)) <= 1e-12 * max(1.0, np.max(np.abs(raw.real)))

    def test_fidelity_improves_with_max_baseline(self):
        sep = 0.02
        sky = two_source_sky(sep)
        grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
        truth = sky_intensity_on_grid(sky, grid)
        errs = []
        for octave in range(4):
            b_m = (1.0 / (2 * sep)) * 2.0 ** octave
            plan = BaselinePlan.linear(b_m, 64)
            rec = reconstruct_intensity(exact_samples(sky, plan), grid, 1.0)
            errs.append(float(np.linalg.norm(rec - truth)))
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            reconstruct_intensity([VisibilitySample(1.0, 1.0 + 0j)],
                                  np.linspace(-0.1, 0.1, 11), 1.0)

    def test_rejects_unsorted_grid(self):
        sky = two_source_sky()
        plan = BaselinePlan.linear(30.0, 8)
        with pytest.raises(ValueError):
            reconstruct_intensity(exact_samples(sky, plan), np.array([0.1, 0.0, -0.1]), 1.0)


class TestResolvability:
    def test_threshold_both_directions(self):
        sep = 0.02
        sky = two_source_sky(sep)
        threshold = 1.0 / (2 * sep)
        grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
        for factor, expected in ((0.5, 1), (2.0, 2)):
            plan = BaselinePlan.linear(factor * threshold, 48)
            rec = reconstruct_intensity(exact_samples(sky, plan), grid, 1.0)
            assert len(find_peaks(rec)) == expected


class TestResolution:
    def test_values(self):
        assert resolution(1.0, 1.0) == 0.5
        assert resolution(2.0, 1.0) == 0.25
        assert abs(resolution(100.0, 500e-9) - 2.5e-9) <= 1e-24

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolution(0.0, 1.0)


class TestIntensityError:
    def test_amplitude_only(self):
        out = intensity_error(0.02, 0.0, C=0.5, xi=1.0)
        assert out.dI == 0.02

    def test_ideal_scale(self):
        out = intensity_error(0.01, 0.01, C=1.0, xi=1.0)
        assert abs(out.scale - math.sqrt(2.0)) <= 1e-15
        assert out.regime == "phase-limited"

    def test_low_concurrence_diverges(self):
        out = intensity_error(0.1, 0.1, C=0.0, xi=0.5)
        assert out.scale == math.inf and out.regime == "amplitude-limited"
        out = intensity_error(0.1, 0.1, C=0.05, xi=1.0)
        assert out.regime == "amplitude-limited" and out.scale > 10


class TestBaselinePlan:
    def test_linear(self):
        plan = BaselinePlan.linear(10.0, 4)
        assert plan.baselines == (2.5, 5.0, 7.5, 10.0)
        assert plan.B_m == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BaselinePlan(())
        with pytest.raises(ValueError):
            BaselinePlan((0.0, 1.0))
        with pytest.raises(ValueError):
            BaselinePlan((1.0, 1.0))

    def test_sample_consistency_bound(self):
        with pytest.raises(ValueError):
            VisibilitySample(1.0, 1.5 + 0j, dV_a=0.01)
        VisibilitySample(1.0, 1.5 + 0j, dV_a=0.2)  # within 3 sigma of physical


class TestObserveAndImage:
    def test_end_to_end_ideal(self):
        sep = 0.02
        sky = two_source_sky(sep)
        plan = BaselinePlan.linear(2.0 / (2 * sep), 32)
        grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
        report = observe_and_image(sky, plan, lambda B: ideal_bell_xstate(),
                                   SETTINGS, 200000, seed=5, rates=RATES,
                                   theta_grid=grid)
        exact_peaks = find_peaks(report.intensity_exact)
        est_peaks = find_peaks(report.intensity_est)
        assert est_peaks == exact_peaks
        # the plan samples the visibility null at B = 1/(2 sep) where the
        # phase is unmeasurable, so the run is flagged
        assert report.low_confidence
        assert report.resolution == resolution(plan.B_m, sky.wavelength)

    def test_no_flag_away_from_nulls(self):
        sky = SkyModel(((0.004, 1.0),), wavelength=1.0)  # |V| = 1 everywhere
        plan = BaselinePlan.linear(40.0, 16)
        report = observe_and_image(sky, plan, lambda B: ideal_bell_xstate(),
                                   SETTINGS, 100000, seed=6, rates=RATES)
        assert not report.low_confidence

    def test_fiber_rates_follow_line(self):
        sky = two_source_sky()
        l0 = 10.0
        plan = BaselinePlan.linear(6 * l0, 12)
        factory = lambda B: xstate_amplitude_damping(
            fiber_loss_prob(B / 2, l0), fiber_loss_prob(B / 2, l0))
        report = observe_and_image(sky, plan, factory, SETTINGS, 1000, seed=9,
                                   rates=RateModel(0.8, 1e6))
        for b, r in zip(report.baselines, report.rate_abs):
            expected = math.log(RateModel(0.8, 1e6).max_rate) - b / (2 * l0)
            assert abs(math.log(r) - expected) <= 1e-12

    def test_single_trial_flags_low_confidence(self):
        sky = two_source_sky()
        plan = BaselinePlan.linear(30.0, 4)
        report = observe_and_image(sky, plan, lambda B: ideal_bell_xstate(),
                                   SETTINGS, 1, seed=2, rates=RATES)
        assert report.low_confidence
        for est in report.estimates:
            assert est.dV_a >= 0.0 and est.dV_p >= 0.0

    def test_noisy_reconstruction_converges(self):
        sep = 0.02
        sky = two_source_sky(sep)
        plan = BaselinePlan.linear(2.0 / (2 * sep), 48)
        grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)

        def l2_gap(n):
            gaps = []
            for seed in range(5):
                report = observe_and_image(sky, plan, lambda B: ideal_bell_xstate(),
                                           SETTINGS, n, seed=seed, rates=RATES,
                                           theta_grid=grid)
                gaps.append(np.linalg.norm(report.intensity_est - report.intensity_exact))
            return float(np.mean(gaps))

        ratio = l2_gap(40000) / l2_gap(10000)
        assert 0.35 <= ratio <= 0.65  # quadrupling N halves the noise floor
