import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest

from entbase import imaging, protocol
from entbase.channels import RateModel, ideal_bell_xstate, resource_figures
from entbase.imaging import (
    BaselinePlan,
    SkyModel,
    default_theta_grid,
    observe_and_image,
    reconstruct_intensity,
    resolution,
    sky_intensity_on_grid,
    true_visibility,
)
from entbase.cli import main
from entbase.config import ChannelConfig
from entbase.protocol import PhaseSettings, VisibilityEstimate
from entbase.qcore import AstroVisibility, XState
from entbase.reference import dirty_image_complex, find_peaks

SETTINGS = PhaseSettings(0.0, 0.5 * math.pi)


def two_source_sky(sep=0.02, wavelength=1.0, flux2=1.0):
    return SkyModel(((-sep / 2, 1.0), (sep / 2, flux2)), wavelength)


def run_summary(tmp_path, **overrides):
    """summary.json of `entbase run` on a two-source ideal config, after the overrides."""
    cfg = {"sky": {"sources": [{"theta": -0.01, "flux": 1.0}, {"theta": 0.01, "flux": 1.0}]},
           "wavelength": 1.0, "baselines": {"B_max": 30.0, "count": 4},
           "channel": {"kind": "ideal"}, "N_per_setting": 1000, "seed": 2,
           "output_dir": str(tmp_path / "out"), **overrides}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(path)]) == 0
    return json.loads((tmp_path / "out" / "summary.json").read_text())


def fixed_estimates(monkeypatch, **fields):
    """Make every baseline of a run report the same VisibilityEstimate, built from fields."""
    monkeypatch.setattr(imaging, "run_observation",
                        lambda v, x, ph, n, rng: VisibilityEstimate(**fields))


def exact_samples(sky, plan):
    """(baselines, visibilities) arrays of the plan's exact visibilities."""
    return (np.array(plan.baselines),
            np.array([true_visibility(sky, b) for b in plan.baselines]))


class TestTrueVisibility:
    def test_point_source_phase_ramp(self):
        theta0 = 0.007
        sky = SkyModel(((theta0, 2.0),), wavelength=1.0)
        for b in (1.0, 13.0, 77.7):
            v = true_visibility(sky, b)
            assert abs(abs(v) - 1.0) <= 1e-12
            assert abs(cmath.phase(v) - math.remainder(-2 * math.pi * b * theta0, 2 * math.pi)) <= 1e-9

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

    def test_total_flux_is_summed_once(self):
        sky = SkyModel(((-0.01, 0.1), (0.0, 0.2), (0.02, 0.3)), 1.0)
        assert sky.total_flux == (0.1 + 0.2) + 0.3
        assert vars(sky)["total_flux"] == sky.total_flux  # stored at construction
        assert sky == SkyModel(((-0.01, 0.1), (0.0, 0.2), (0.02, 0.3)), 1.0)


class TestReconstruction:
    def test_single_source_peaks_at_center(self):
        sky = SkyModel(((0.0, 1.0),), wavelength=1.0)
        plan = BaselinePlan.linear(40.0, 32)
        grid = np.linspace(-0.05, 0.05, 101)
        rec = reconstruct_intensity(*exact_samples(sky, plan), grid, 1.0)
        assert np.argmax(rec) == 50
        assert abs(rec.sum() - 1.0) <= 1e-12

    def test_fidelity_improves_with_max_baseline(self):
        sep = 0.02
        sky = two_source_sky(sep)
        grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
        truth = sky_intensity_on_grid(sky, grid)
        errs = []
        for octave in range(4):
            b_m = (1.0 / (2 * sep)) * 2.0 ** octave
            plan = BaselinePlan.linear(b_m, 64)
            rec = reconstruct_intensity(*exact_samples(sky, plan), grid, 1.0)
            errs.append(float(np.linalg.norm(rec - truth)))
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_requires_two_samples(self):
        grid = np.linspace(-0.1, 0.1, 11)
        with pytest.raises(ValueError, match="at least two"):
            reconstruct_intensity([1.0], [1.0 + 0j], grid, 1.0)
        with pytest.raises(ValueError, match="one length"):
            reconstruct_intensity([1.0, 2.0, 3.0], [1.0 + 0j, 0.5 + 0j], grid, 1.0)

    def test_rejects_unsorted_grid(self):
        sky = two_source_sky()
        plan = BaselinePlan.linear(30.0, 8)
        with pytest.raises(ValueError):
            reconstruct_intensity(*exact_samples(sky, plan), np.array([0.1, 0.0, -0.1]), 1.0)

    def test_rejects_nonuniform_grid(self):
        sky = two_source_sky()
        plan = BaselinePlan.linear(30.0, 8)
        grid = np.linspace(-0.05, 0.05, 101)
        grid[40] += 1e-6 * (grid[1] - grid[0])
        with pytest.raises(ValueError, match="uniformly spaced"):
            reconstruct_intensity(*exact_samples(sky, plan), grid, 1.0)
        with pytest.raises(ValueError, match="uniformly spaced"):
            reconstruct_intensity(*exact_samples(sky, plan), np.array([-0.1, 0.0, 0.05]), 1.0)

    def test_truth_rejects_a_source_off_the_grid(self):
        sky = SkyModel(((-0.01, 0.5), (0.01, 0.5)), 1.0)
        with pytest.raises(ValueError, match=r"source 0 at theta = -0\.01"):
            sky_intensity_on_grid(sky, np.linspace(-1e-4, 1e-4, 11))
        with pytest.raises(ValueError, match=r"source 1 at theta = 0\.01"):
            sky_intensity_on_grid(sky, np.linspace(-0.02, 0.005, 11))
        on_edges = sky_intensity_on_grid(sky, np.linspace(-0.01, 0.01, 11))
        assert on_edges[0] == on_edges[-1] == 0.5


def noisy_samples(rng, n):
    """(baselines, visibilities): n irregular positive baselines, noisy complex values."""
    bs = np.cumsum(rng.uniform(0.5, 1.5, size=n))
    vs = rng.uniform(0.0, 0.9, size=n) * np.exp(1j * rng.uniform(-math.pi, math.pi, size=n))
    return bs, vs


class TestMapBlocks:
    GRID = np.linspace(-0.08, 0.08, 103)
    # ceil(sqrt(1000)) = 32 rows per block: 31 full blocks and a ragged one of 8
    RAGGED_GRID = np.linspace(-0.03, 0.05, 1000)

    def test_blocks_match_oracle_and_each_other(self, rng, monkeypatch):
        bs, vs = noisy_samples(rng, 40)
        for grid in (self.GRID, self.RAGGED_GRID):
            oracle = dirty_image_complex(bs, vs, grid, 1.0).real
            maps = []
            # rotation blocks of 1 row, 3 rows (103 = 34 x 3 + a ragged row of 1),
            # 5 rows, and ceil(sqrt(n_theta)) rows (103 = 9 x 11 + a ragged 4)
            for cells in (1, 120, 200, 1 << 18):
                monkeypatch.setattr(imaging, "MAP_BLOCK_CELLS", cells)
                maps.append(imaging._dirty_map(bs, vs, grid, 1.0))
            scale = np.max(np.abs(oracle))
            for folded in maps:
                assert np.max(np.abs(folded - oracle)) <= 1e-12 * scale
                assert np.max(np.abs(folded - maps[-1])) <= 1e-12 * scale

    def test_sample_order_does_not_matter(self, rng):
        bs, vs = noisy_samples(rng, 60)
        perm = rng.permutation(bs.size)
        assert np.array_equal(reconstruct_intensity(bs[perm], vs[perm], self.GRID, 1.0),
                              reconstruct_intensity(bs, vs, self.GRID, 1.0))

    def test_peak_memory_is_bounded(self, rng):
        # the full complex matrix would be 3 000 x 6 401 x 16 B ~ 307 MB
        bs, vs = noisy_samples(rng, 3200)
        grid = np.linspace(-0.05, 0.05, 3000)
        tracemalloc.start()
        try:
            reconstruct_intensity(bs, vs, grid, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestFindPeaks:
    def test_matches_loop_reference(self, rng):
        def loop_peaks(arr):
            floor = 0.5 * max(arr)
            return [j for j in range(1, len(arr) - 1)
                    if arr[j] > arr[j - 1] and arr[j] > arr[j + 1] and arr[j] >= floor]

        for size in (0, 1, 2, 3, 4, 17, 200):
            for _ in range(20):
                arr = rng.integers(0, 5, size=size).astype(float)  # ties and plateaus
                peaks = find_peaks(arr)
                assert peaks == (loop_peaks(list(arr)) if size >= 3 else [])
                assert all(type(j) is int for j in peaks)


class TestResolution:
    def test_values(self):
        assert resolution(1.0, 1.0) == 0.5
        assert resolution(2.0, 1.0) == 0.25
        assert abs(resolution(100.0, 500e-9) - 2.5e-9) <= 1e-24

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolution(0.0, 1.0)


class TestSummaryErrorFigures:
    """summary.json's dI, dI_scale and error_regime."""

    def test_amplitude_only(self, monkeypatch, tmp_path):
        fixed_estimates(monkeypatch, V_a_hat=0.5, V_p_hat=0.0, dV_a=0.02, dV_p=0.0)
        assert run_summary(tmp_path)["dI"] == 0.02

    def test_ideal_scale(self, tmp_path):
        summary = run_summary(tmp_path)  # R_E = 1
        assert abs(summary["dI_scale"] - math.sqrt(2.0)) <= 1e-15
        assert summary["error_regime"] == "phase-limited"

    def test_low_concurrence_diverges(self, tmp_path):
        # one-arm depolarization kappa_L = 0.73: C = 0.052 at every baseline
        summary = run_summary(tmp_path, channel={"kind": "depolarizing",
                                                 "kappa_L": 0.73, "kappa_R": 0.0})
        assert summary["C"] < 0.06
        assert summary["error_regime"] == "amplitude-limited" and summary["dI_scale"] > 10


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


class TestResourceFigures:
    def test_dead_state_has_nan_concurrence_and_zero_rate(self):
        # a float state and an array state's element alike; the live element is untouched
        xi, conc, r_norm, r_abs = resource_figures(XState(a=1.0, g=0.0, f=0.0, h=0.0, w_a=0.0),
                                                   0.0, RateModel(0.5, 0.5), None)
        assert xi == 0.0 and math.isnan(conc) and r_norm == 0.0 and r_abs == 0.0
        x = XState(a=np.array([1.0, 0.0]), g=np.array([0.0, 0.5]), f=np.array([0.0, 0.5]),
                   h=0.0, w_a=np.array([0.0, 0.5]))
        xi, conc, r_norm, r_abs = resource_figures(x, 0.0, RateModel(0.5, 0.5), None)
        assert xi.tolist() == [0.0, 1.0] and math.isnan(conc[0]) and conc[1] == 1.0
        assert r_norm.tolist() == [0.0, 0.5] and r_abs.tolist() == [0.0, 0.125]


class TestObserveAndImage:
    def test_end_to_end_ideal(self):
        sep = 0.02
        sky = two_source_sky(sep)
        plan = BaselinePlan.linear(2.0 / (2 * sep), 32)
        grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
        report = observe_and_image(sky, plan, ideal_bell_xstate(),
                                   SETTINGS, 200000, seed=5, theta_grid=grid)
        exact_peaks = find_peaks(report.intensity_exact)
        est_peaks = find_peaks(report.intensity_est)
        assert len(est_peaks) == len(exact_peaks)
        assert all(abs(e - x) <= 1 for e, x in zip(est_peaks, exact_peaks))
        # the plan samples the visibility null at B = 1/(2 sep) = 25, where the
        # phase is unmeasurable: its phase error is the plan's largest
        assert report.baselines[np.argmax(report.estimates.dV_p)] == 25.0

    def test_run_builds_its_resource_once(self, monkeypatch, tmp_path):
        # run observes the rows of resource_table's state: the channel's builder
        # runs once, on all 40 baselines, and not again per baseline
        factory, calls = ChannelConfig.resource_factory, []

        def counted(self):
            build = factory(self)
            return lambda B: calls.append(np.size(B)) or build(B)

        monkeypatch.setattr(ChannelConfig, "resource_factory", counted)
        run_summary(tmp_path, baselines={"B_max": 60.0, "count": 40},
                    channel={"kind": "amplitude_damping", "L0": 10.0})
        assert calls == [40]

    @pytest.mark.parametrize("rows", [39, 41], ids=["short", "long"])
    def test_resource_rows_must_match_the_plan(self, monkeypatch, rows):
        # a state of another length is refused before any baseline is observed
        observed = []
        monkeypatch.setattr(imaging, "run_observation", lambda *args: observed.append(args))
        resource = ChannelConfig("amplitude_damping", {"L0": 10.0}).resource_factory()(
            np.linspace(1.5, 60.0, rows))
        with pytest.raises(ValueError, match=f"^resource has {rows} rows for 40 baselines$"):
            observe_and_image(two_source_sky(), BaselinePlan.linear(60.0, 40), resource,
                              SETTINGS, 1000, seed=1, theta_grid=np.linspace(-0.03, 0.03, 61))
        assert observed == []

    def test_no_flag_away_from_nulls(self, tmp_path):
        summary = run_summary(tmp_path, sky={"sources": [{"theta": 0.004, "flux": 1.0}]},
                              baselines={"B_max": 40.0, "count": 16},  # |V| = 1 everywhere
                              N_per_setting=100000, seed=6)
        assert summary["low_confidence"] is False

    def test_single_trial_flags_low_confidence(self, tmp_path):
        assert run_summary(tmp_path, N_per_setting=1)["low_confidence"] is True
        rows = np.loadtxt(tmp_path / "out" / "visibility.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 5:7] >= 0.0)  # dV_a, dV_p

    def test_sample_consistency_bound(self, monkeypatch, tmp_path):
        # |V| = 1.5 more than three dV_a above the physical bound |V| = 1 is
        # imaged as it is and counted in summary.json, not rejected
        for dv_a, above in ((0.01, 4), (0.2, 0)):
            fixed_estimates(monkeypatch, V_a_hat=1.5, V_p_hat=0.0, dV_a=dv_a, dV_p=0.1)
            summary = run_summary(tmp_path, sky={"sources": [{"theta": 0.004, "flux": 1.0}]},
                                  baselines={"B_max": 40.0, "count": 4}, N_per_setting=100,
                                  seed=1)
            assert summary["n_above_unit"] == above
            rows = (tmp_path / "out" / "visibility.csv").read_text().splitlines()[1:]
            assert all(float(row.split(",")[3]) == 1.5 for row in rows)

    def test_scheme_v2_is_one_batch_draw(self):
        # baseline i's counts are row i of one (n, 2) draw from default_rng(derive_seed(seed)),
        # inverted by one array _invert_batch call: bit for bit what the loop reports
        sky = two_source_sky(flux2=0.6)
        plan = BaselinePlan.linear(60.0, 50)
        n = 3000
        report = observe_and_image(sky, plan, ideal_bell_xstate(), SETTINGS, n,
                                   seed=4, theta_grid=default_theta_grid(sky, plan.B_m))
        probs = []
        for b in plan.baselines:
            v_c = true_visibility(sky, b)
            conc, (w1, w2), p_cs = protocol._setting_probabilities(
                AstroVisibility(abs(v_c), cmath.phase(v_c)), ideal_bell_xstate(), SETTINGS)
            probs.append(p_cs)
        rng = np.random.default_rng(protocol.derive_seed(4))
        n_c = rng.binomial(n, np.array(probs), size=(len(probs), 2))
        dp = ((n - n_c) - n_c) / n
        batch = protocol._invert_batch(dp[:, 0], dp[:, 1], n, w1, w2, conc)
        est = report.estimates
        for got, want in zip((est.V_a_hat, est.V_p_hat, est.dV_a, est.dV_p), batch):
            assert np.array_equal(got, want)

    def test_noisy_reconstruction_converges(self):
        sep = 0.02
        sky = two_source_sky(sep)
        plan = BaselinePlan.linear(2.0 / (2 * sep), 48)
        grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)

        def l2_gap(n):
            gaps = []
            for seed in range(5):
                report = observe_and_image(sky, plan, ideal_bell_xstate(),
                                           SETTINGS, n, seed=seed, theta_grid=grid)
                gaps.append(np.linalg.norm(report.intensity_est - report.intensity_exact))
            return float(np.mean(gaps))

        ratio = l2_gap(40000) / l2_gap(10000)
        assert 0.35 <= ratio <= 0.65  # quadrupling N halves the noise floor
