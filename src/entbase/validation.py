"""Invariant suite behind the ``validate`` subcommand.

Each check raises AssertionError with a detail string on failure; the
pytest suite runs every entry of ``CHECKS`` as a test of its own. The
references the checks compare the runtime against are in
``entbase.reference``: the operator-sum route against the closed-form
resources, and the 16-dimensional projector route against the
closed-form coincidences. A third oracle, the Cramer-Rao bound of the two
binomials, is built in error-bars-cramer-rao itself. The
closed-form/projector-oracle agreement check is the canary for sign
mistakes in the coincidence formulas: flipping the fringe sign in either
route makes it fail immediately.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import channels, config, imaging, protocol, qcore, reference

__all__ = ["CHECKS", "run_all"]


_KRAUS = {
    "amplitude_damping": reference.kraus_amplitude_damping,
    "dephasing": reference.kraus_dephasing,
    "depolarizing": reference.kraus_depolarizing,
}

_CLOSED = {
    "amplitude_damping": channels.xstate_amplitude_damping,
    "dephasing": channels.xstate_dephasing,
    "depolarizing": channels.xstate_depolarizing,
}


def check_kraus_completeness():
    for name, make in _KRAUS.items():
        for p in np.linspace(0.0, 1.0, 21):
            ch = make(p)
            acc = sum(k.conj().T @ k for k in ch.operators)
            defect = np.max(np.abs(acc - np.eye(2)))
            assert defect <= 1e-12, f"{name}({p}): completeness defect {defect:.3e}"


def check_channel_closed_forms():
    bell = reference.make_bell_psi(0.0)
    grid = np.linspace(0.0, 1.0, 11)
    for name in _KRAUS:
        for p_l in grid:
            for p_r in grid:
                via_kraus = reference.apply_independent_channels(
                    bell, _KRAUS[name](p_l), _KRAUS[name](p_r))
                with warnings.catch_warnings():
                    # asymmetric-arm depolarization past x = 1/4 flips the coherence sign
                    warnings.simplefilter("ignore", channels.DegenerateCoherenceWarning)
                    closed = reference.to_density(_CLOSED[name](p_l, p_r))
                diff = np.max(np.abs(via_kraus.entries - closed.entries))
                assert diff <= 1e-12, f"{name}({p_l}, {p_r}): entrywise gap {diff:.3e}"


def check_xform_closure():
    bell = reference.make_bell_psi(0.0)
    grid = np.linspace(0.05, 0.95, 4)
    for left_name, left in _KRAUS.items():
        for right_name, right in _KRAUS.items():
            for p_l in grid:
                for p_r in grid:
                    out = reference.apply_independent_channels(bell, left(p_l), right(p_r))
                    reference.extract_xstate(out)  # raises if not X form
                    tr = abs(out.entries.trace() - 1.0)
                    assert tr <= 1e-12, f"{left_name}x{right_name}: trace defect {tr:.3e}"


def check_channel_map_properties():
    rng = np.random.default_rng(2024)
    makers = list(_KRAUS.values())
    for _ in range(40):
        rho = reference.random_density(rng)
        left = makers[rng.integers(3)](rng.uniform())
        right = makers[rng.integers(3)](rng.uniform())
        out = reference.apply_independent_channels(rho, left, right).entries
        assert abs(out.trace() - 1.0) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


def check_concurrence_monotone():
    lam = [reference.extract_xstate(reference.apply_independent_channels(
        reference.make_bell_psi(0.0), reference.kraus_amplitude_damping(p),
        reference.kraus_amplitude_damping(p))) for p in np.linspace(0.0, 0.95, 12)]
    mu = [channels.xstate_dephasing(p, p) for p in np.linspace(0.0, 1.0, 12)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # beyond kappa = 3/4 the Pauli map passes its fixed point and re-coheres
        kap = [channels.xstate_depolarizing(p, p) for p in np.linspace(0.0, 0.75, 12)]
    for family, states in (("lambda", lam), ("mu", mu), ("kappa", kap)):
        concs = [qcore.concurrence_subspace(x) for x in states]
        for c1, c2 in zip(concs, concs[1:]):
            assert c2 <= c1 + 1e-12, f"concurrence not monotone in {family}"


def check_ideal_limit_fringe():
    for v_a in np.linspace(0.0, 1.0, 10):
        for v_p in np.linspace(-3.0, 3.0, 10):
            for delta in np.linspace(-3.0, 3.0, 10):
                x = reference.extract_xstate(reference.make_bell_psi(delta))
                q_c, q_ac = protocol.raw_probabilities(qcore.AstroVisibility(v_a, v_p), x)
                p_c, _ = protocol.postselect(q_c, q_ac)
                expected = 0.5 * (1.0 - v_a * math.cos(v_p - delta))
                assert abs(p_c - expected) <= 1e-12, \
                    f"fringe mismatch at (V_a={v_a}, V_p={v_p}, delta={delta})"


def check_projector_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = qcore.AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
        x = reference.random_xstate(rng)
        closed = protocol.raw_probabilities(v, x)
        oracle = reference.raw_probabilities_oracle(reference.make_astro_state(v),
                                                    reference.to_density(x))
        gap = max(abs(closed[0] - oracle[0]), abs(closed[1] - oracle[1]))
        assert gap <= 1e-12, f"oracle disagrees by {gap:.3e}"


def check_postselection_normalization():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = qcore.AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
        x = reference.random_xstate(rng)
        q_c, q_ac = protocol.raw_probabilities(v, x)
        assert abs(q_c + q_ac - 0.5 * (x.g + x.f)) <= 1e-12
        if q_c + q_ac > 0.0:
            p_c, p_ac = protocol.postselect(q_c, q_ac)
            assert p_c + p_ac == 1.0


def check_estimator_round_trip():
    rng = np.random.default_rng(13)
    ph = protocol.PhaseSettings(0.0, 0.5 * math.pi)
    for _ in range(50):
        v_a = rng.uniform(0.05, 1.0)
        v_p = rng.uniform(-math.pi, math.pi)
        conc = rng.uniform(0.1, 1.0)
        dp1 = v_a * conc * math.cos(v_p - ph.w1)
        dp2 = v_a * conc * math.cos(v_p - ph.w2)
        va_hat, vp_hat = reference.solve_visibility(dp1, dp2, ph, conc)
        assert abs(va_hat - v_a) <= 1e-12 and abs(qcore.wrap_phase(vp_hat - v_p)) <= 1e-12


def check_error_derivatives_fd():
    ph = protocol.PhaseSettings(0.1, 0.1 + 0.5 * math.pi)
    for alpha in (0.4, 1.3, -0.7):
        step = 1e-6 * max(1.0, abs(alpha))
        fd = (reference.phase_from_ratio(alpha + step, ph)
              - reference.phase_from_ratio(alpha - step, ph)) / (2 * step)
        an = reference.phase_ratio_derivative(alpha, ph)
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an)), f"dVp/dalpha FD gap at {alpha}"
    # (dV_a, dV_p) are the fringe errors through the gradients of solve_visibility
    h, n = 1e-6, 1000
    cases = ((0.3, 0.2, 0.8, ph), (-0.25, 0.1, 0.5, protocol.PhaseSettings(-0.4, 1.3)),
             (0.05, -0.6, 0.9, protocol.PhaseSettings(2.0, -0.5)))
    for dp1, dp2, conc, ph in cases:
        lo1, hi1 = (reference.solve_visibility(dp1 + e, dp2, ph, conc) for e in (-h, h))
        lo2, hi2 = (reference.solve_visibility(dp1, dp2 + e, ph, conc) for e in (-h, h))
        d1, d2 = reference.delta_p_uncertainty(dp1, n), reference.delta_p_uncertainty(dp2, n)
        fd_a = math.hypot((hi1[0] - lo1[0]) * d1, (hi2[0] - lo2[0]) * d2) / (2 * h)
        fd_p = math.hypot(qcore.wrap_phase(hi1[1] - lo1[1]) * d1,
                          qcore.wrap_phase(hi2[1] - lo2[1]) * d2) / (2 * h)
        dv_a, dv_p = reference.propagate_errors(dp1, dp2, n, ph, conc)
        assert abs(fd_a - dv_a) <= 1e-6 * dv_a, f"dV_a FD gap at ({dp1}, {dp2})"
        assert abs(fd_p - dv_p) <= 1e-6 * dv_p, f"dV_p FD gap at ({dp1}, {dp2})"


def check_error_bars_cramer_rao():
    # at noise-free fringes the error bars reach the bound sqrt(diag(F^-1)) of the two
    # binomials, F = sum_i N / (1 - dp_i^2) grad(dp_i) grad(dp_i)^T in (V_a, V_p)
    rng = np.random.default_rng(14)
    n = 10 ** 10
    for _ in range(50):
        w1 = rng.uniform(-math.pi, math.pi)
        ph = protocol.PhaseSettings(w1, w1 + rng.uniform(0.2, math.pi - 0.2))
        v_a, v_p = rng.uniform(0.05, 0.95), rng.uniform(-math.pi, math.pi)
        conc = rng.uniform(0.1, 1.0)
        offsets = v_p - np.array([ph.w1, ph.w2])
        dp = v_a * conc * np.cos(offsets)
        grad = conc * np.stack([np.cos(offsets), -v_a * np.sin(offsets)], axis=1)
        fisher = (grad.T * (n / (1.0 - dp ** 2))) @ grad
        bound = np.sqrt(np.diag(np.linalg.inv(fisher)))
        _, _, dv_a, dv_p = protocol._invert_batch(dp[0], dp[1], n, ph, conc)
        gap = np.max(np.abs(np.array([dv_a, dv_p]) / bound - 1.0))
        assert gap <= 1e-7, f"error bars off the Cramer-Rao bound by {gap:.3e}"


def check_memory_swap_composition():
    tau = 1.7
    for t1 in np.linspace(0.0, 3.0, 7):
        for t2 in np.linspace(0.0, 3.0, 7):
            for sign in (+1, -1):
                via_swap = reference.to_density(channels.swap_memories(t1, t2, tau, sign))
                direct = reference.to_density(channels.memory_xstate(t1 + t2, tau, sign))
                assert np.max(np.abs(via_swap.entries - direct.entries)) <= 1e-12
    for t in np.linspace(0.0, 4.0, 9):
        for sign, delta in ((+1, 0.0), (-1, math.pi)):
            gamma = reference.memory_dephasing_channel(t, tau)
            stored = reference.apply_independent_channels(reference.make_bell_psi(delta),
                                                          gamma, gamma)
            expected = reference.to_density(channels.memory_xstate(t, tau, sign)).entries
            assert np.max(np.abs(stored.entries - expected)) <= 1e-12


def check_depol_x_bound():
    for k_l in np.linspace(0.0, 1.0, 11):
        for k_r in np.linspace(0.0, 1.0, 11):
            x = channels.depol_x_param(k_l, k_r)
            assert -1e-15 <= x <= 1.0 / 3.0 + 1e-15, f"x={x} at ({k_l}, {k_r})"


def _channel_rates(kind: str, params: dict, rates: channels.RateModel, baselines):
    """(R_M_norm, R_M) at each baseline, by the route `run` and `sweep` take."""
    channel = config.ChannelConfig(kind, params)
    factory, rate_norm_fn = channel.resource_factory(), channel.rate_norm_fn()
    return [imaging.resource_figures(factory(b), b, rates, rate_norm_fn)[2:]
            for b in baselines]


def check_rate_monotonicity():
    rates = channels.RateModel(1.0, 1.0)
    grids = {
        "lambda": [channels.xstate_amplitude_damping(p, p) for p in np.linspace(0, 1, 12)],
        "mu": [channels.xstate_dephasing(p, p) for p in np.linspace(0, 1, 12)],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grids["kappa"] = [channels.xstate_depolarizing(p, p)
                          for p in np.linspace(0, 0.75, 12)]
    for family, states in grids.items():
        rs = [imaging.resource_figures(x, 0.0, rates, None)[3] for x in states]
        for r1, r2 in zip(rs, rs[1:]):
            assert r2 <= r1 + 1e-15, f"rate not monotone in {family}"


def check_fiber_rate_line():
    rates = channels.RateModel(0.8, 1e6)
    l0 = 10.0
    bs = np.linspace(0.0, 6 * l0, 25)
    logs = []
    for b, (_, r_abs) in zip(bs, _channel_rates("amplitude_damping", {"L0": l0}, rates, bs)):
        direct = math.log(r_abs)
        shortcut = channels.log_rate_fiber(b, l0, rates)
        assert abs(direct - shortcut) <= 1e-12, f"ln R_M off the fiber law at B = {b}"
        logs.append(direct)
    slope = np.polyfit(bs, logs, 1)[0]
    assert abs(slope + 1.0 / (2.0 * l0)) <= 1e-9, f"slope {slope}"


def check_depol_rate_asymptote():
    rates = channels.RateModel(1.0, 1.0)
    beta = 1.0
    bs = np.linspace(5.0, 40.0, 15)
    for bl, (_, r_abs) in zip(bs, _channel_rates("depolarizing", {"beta": beta}, rates, bs)):
        exact = math.log(r_abs)
        approx = channels.log_rate_depol_approx(bl, beta, rates)
        assert approx.in_regime
        assert abs(approx.value - exact) <= 0.01, f"approx off by {approx.value - exact:.4f}"
    [(r_norm, _)] = _channel_rates("depolarizing", {"beta": beta}, rates, [40.0])
    assert abs(r_norm - 5.0 / 18.0) <= 1e-6
    assert not channels.log_rate_depol_approx(0.0, beta, rates).in_regime


def check_forward_visibility():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = rng.integers(1, 6)
        sky = imaging.SkyModel(tuple((rng.uniform(-0.05, 0.05), rng.uniform(0.1, 2.0))
                                     for _ in range(n)), wavelength=1.0)
        for b in rng.uniform(0.0, 500.0, size=5):
            assert abs(imaging.true_visibility(sky, b)) <= 1.0 + 1e-12
    sky2 = imaging.SkyModel(((-0.01, 1.0), (0.01, 1.0)), wavelength=1.0)
    null_b = 1.0 / (2 * 0.02)
    assert abs(imaging.true_visibility(sky2, null_b)) <= 1e-12


def check_reconstruction_hermitian():
    sky = imaging.SkyModel(((-0.01, 1.0), (0.012, 0.7)), wavelength=1.0)
    plan = imaging.BaselinePlan.linear(60.0, 32)
    bs = np.array(plan.baselines)
    vs = np.array([imaging.true_visibility(sky, b) for b in plan.baselines])
    # the default grid, and a fine one spanning many rotation blocks of the map
    for grid in (imaging.default_theta_grid(sky, plan.B_m), np.linspace(-0.05, 0.05, 1001)):
        raw = reference.dirty_image_complex(bs, vs, grid, 1.0)
        scale = np.max(np.abs(raw.real))
        assert np.max(np.abs(raw.imag)) <= 1e-12 * max(1.0, scale)
        gap = np.max(np.abs(imaging._dirty_map(bs, vs, grid, 1.0) - raw.real))
        assert gap <= 1e-12 * scale, (f"folded map off the complex sum by {gap / scale:.3e} "
                                      f"on {grid.size} points")


def check_resolvability():
    sep = 0.02
    sky = imaging.SkyModel(((-sep / 2, 1.0), (sep / 2, 1.0)), wavelength=1.0)
    threshold = 1.0 / (2 * sep)
    grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
    for factor, expected in ((0.5, 1), (2.0, 2)):
        plan = imaging.BaselinePlan.linear(factor * threshold, 48)
        vs = [imaging.true_visibility(sky, b) for b in plan.baselines]
        rec = imaging.reconstruct_intensity(plan.baselines, vs, grid, 1.0)
        n_peaks = len(reference.find_peaks(rec))
        assert n_peaks == expected, f"{factor}x threshold: {n_peaks} peaks"


def check_estimator_slope_mc():
    ph = protocol.PhaseSettings(0.0, 0.5 * math.pi)
    x = channels.ideal_bell_xstate()
    v = qcore.AstroVisibility(0.7, 0.9)
    ns = [1000, 10000]
    log_rmse = []
    for n in ns:
        rng = np.random.default_rng(protocol.derive_seed(5, n))
        errs = protocol.run_replicates(v, x, ph, n, 60, rng).V_a_hat - 0.7
        log_rmse.append(math.log10(math.sqrt(np.mean(np.square(errs)))))
    slope = (log_rmse[1] - log_rmse[0]) / (math.log10(ns[1]) - math.log10(ns[0]))
    assert abs(slope + 0.5) <= 0.15, f"slope {slope:.3f}"


def check_error_bar_coverage_mc():
    ph = protocol.PhaseSettings(0.0, 0.5 * math.pi)
    x = channels.ideal_bell_xstate()
    v = qcore.AstroVisibility(0.7, 0.9)
    rng = np.random.default_rng(protocol.derive_seed(6))
    est = protocol.run_replicates(v, x, ph, 100_000, 40, rng)
    hits = int(np.count_nonzero(np.abs(est.V_a_hat - 0.7) <= 5.0 * est.dV_a))
    assert hits >= 38, f"coverage {hits}/40"


def check_fringe_bound_mc():
    rng = np.random.default_rng(31)
    draws = np.random.default_rng(protocol.derive_seed(7))
    ph = protocol.PhaseSettings(0.0, 0.5 * math.pi)
    for _ in range(25):
        x = reference.random_xstate(rng, with_outer=False)
        if x.g + x.f <= 1e-3 or x.w_a <= 1e-6:
            continue
        v = qcore.AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
        n = 5000
        _, conc, _, p_cs = protocol._setting_probabilities(v, x, ph)
        n_c = draws.binomial(n, p_cs)
        dp = ((n - n_c) - n_c) / n  # (n_ac - n_c) / N at each setting
        assert np.all(np.abs(dp) <= v.V_a * conc + 5.0 / math.sqrt(n))


CHECKS = (
    ("kraus-completeness", check_kraus_completeness),
    ("channel-closed-forms", check_channel_closed_forms),
    ("x-form-closure", check_xform_closure),
    ("channel-map-properties", check_channel_map_properties),
    ("concurrence-monotone", check_concurrence_monotone),
    ("ideal-limit-fringe", check_ideal_limit_fringe),
    ("projector-oracle", check_projector_oracle),
    ("postselection-normalization", check_postselection_normalization),
    ("estimator-round-trip", check_estimator_round_trip),
    ("error-derivatives-fd", check_error_derivatives_fd),
    ("error-bars-cramer-rao", check_error_bars_cramer_rao),
    ("memory-swap-composition", check_memory_swap_composition),
    ("depol-x-bound", check_depol_x_bound),
    ("rate-monotonicity", check_rate_monotonicity),
    ("fiber-rate-line", check_fiber_rate_line),
    ("depol-rate-asymptote", check_depol_rate_asymptote),
    ("forward-visibility", check_forward_visibility),
    ("reconstruction-hermitian", check_reconstruction_hermitian),
    ("two-source-resolvability", check_resolvability),
    ("estimator-slope[mc]", check_estimator_slope_mc),
    ("error-bar-coverage[mc]", check_error_bar_coverage_mc),
    ("fringe-bound[mc]", check_fringe_bound_mc),
)


def run_all() -> bool:
    """Run every check; True iff all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            all_ok = False
        except Exception as exc:  # config/runtime errors are failures too
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            all_ok = False
        else:
            print(f"PASS {name}")
    return all_ok
