"""The acceptance suite behind the ``validate`` subcommand.

Every invariant has one home here: each entry of ``CHECKS`` holds one
(its grids, seeds and tolerances), ``entbase validate`` runs them all, and
the pytest suite runs each as a test of its own. The acceptance criteria
C1-C10 are checks, mapped in docs/schema.md; C11, byte-identical repeated
runs, is a CLI test. Each check raises AssertionError with a detail string
on failure and asserts no wall-clock bound, so a slow machine passes; the
tests hold the criteria's time bounds.

The references the checks compare the runtime against are in
``entbase.reference``: the operator-sum route against the closed-form
resources, and the 16-dimensional projector route against the
closed-form coincidences. A third oracle, the Cramer-Rao bound of the two
binomials, is built in error-bars-cramer-rao itself. The
closed-form/projector-oracle agreement check is the canary for sign
mistakes in the coincidence formulas: flipping the fringe sign in either
route makes it fail immediately. The Monte Carlo checks (``[mc]``) draw
from fixed seeds and are deterministic.
The paper's two studies live here too: `entbase study errors` writes what the checks assert.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from . import channels, config, imaging, protocol, qcore, reference

__all__ = ["CHECKS", "budget_fault", "n_slope", "rmse_vs_n", "rmse_vs_resource", "run_all"]


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

_SETTINGS = protocol.PhaseSettings(0.0, 0.5 * math.pi)


def _union(*grids) -> np.ndarray:
    """The sorted distinct points of every grid."""
    return np.unique(np.concatenate(grids))


def _non_increasing(values, slack: float) -> bool:
    """True when no value exceeds any earlier one by more than slack."""
    values = np.asarray(values, dtype=float)
    return bool(np.all(values[1:] <= np.minimum.accumulate(values)[:-1] + slack))


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
    # the 11 x 11 grid, and an off-grid asymmetric pair
    points = [(p_l, p_r) for p_l in grid for p_r in grid] + [(0.3, 0.55)]
    for name in _KRAUS:
        for p_l, p_r in points:
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
    grid = _union(np.linspace(0.05, 0.95, 4), np.linspace(0.0, 1.0, 5), [0.3])
    for left_name, left in _KRAUS.items():
        for right_name, right in _KRAUS.items():
            for p_l in grid:
                for p_r in grid:
                    out = reference.apply_independent_channels(bell, left(p_l), right(p_r))
                    reference.extract_xstate(out)  # raises if not X form
                    tr = abs(out.entries.trace() - 1.0)
                    assert tr <= 1e-12, f"{left_name}x{right_name}: trace defect {tr:.3e}"
                    low = np.linalg.eigvalsh(out.entries)[0]
                    assert low >= -1e-10, f"{left_name}x{right_name}: eigenvalue {low:.3e}"


def check_channel_map_properties():
    makers = list(_KRAUS.values())
    for seed, draws in ((2024, 40), (1234, 100)):
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            rho = reference.random_density(rng)
            left = makers[rng.integers(3)](rng.uniform())
            right = makers[rng.integers(3)](rng.uniform())
            out = reference.apply_independent_channels(rho, left, right).entries
            assert abs(out.trace() - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(out)[0] >= -1e-10


def check_concurrence_monotone():
    damping = _union(np.linspace(0.0, 0.95, 12), np.linspace(0.0, 0.95, 15))
    lam_kraus = [reference.extract_xstate(reference.apply_independent_channels(
        reference.make_bell_psi(0.0), reference.kraus_amplitude_damping(p),
        reference.kraus_amplitude_damping(p))) for p in damping]
    lam = [channels.xstate_amplitude_damping(p, p) for p in damping]
    mu = [channels.xstate_dephasing(p, p)
          for p in _union(np.linspace(0.0, 1.0, 12), np.linspace(0.0, 0.95, 15))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # beyond kappa = 3/4 the Pauli map passes its fixed point and re-coheres
        kap = [channels.xstate_depolarizing(p, p)
               for p in _union(np.linspace(0.0, 0.75, 12), np.linspace(0.0, 0.75, 15))]
    for family, states in (("lambda (operator sum)", lam_kraus), ("lambda", lam), ("mu", mu),
                           ("kappa", kap)):
        concs = [qcore.concurrence_subspace(x) for x in states]
        assert _non_increasing(concs, 1e-12), f"concurrence not monotone in {family}"


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
    cases = []
    for seed in (11, 404, 1234):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            v = qcore.AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
            cases.append((v, reference.random_xstate(rng), f"seed {seed}"))
    # a flat fringe: no visibility, a random state
    cases.append((qcore.AstroVisibility(0.0, 0.0),
                  reference.random_xstate(np.random.default_rng(1234)), "V_a = 0"))
    # Bell resources over 17 phases, whose oracle fringe is the ideal 0.5 (1 - V_a cos(V_p - delta))
    v = qcore.AstroVisibility(0.9, 0.4)
    for delta in np.linspace(-math.pi, math.pi, 17):
        bell = reference.make_bell_psi(delta)
        cases.append((v, reference.extract_xstate(bell), f"Bell delta {delta}"))
        p_c, _ = protocol.postselect(*reference.raw_probabilities_oracle(
            reference.make_astro_state(v), bell))
        gap = abs(p_c - 0.5 * (1.0 - v.V_a * math.cos(v.V_p - delta)))
        assert gap <= 1e-12, f"oracle off the Bell fringe by {gap:.3e} at delta {delta}"
    for v, x, label in cases:
        closed = protocol.raw_probabilities(v, x)
        oracle = reference.raw_probabilities_oracle(reference.make_astro_state(v),
                                                    reference.to_density(x))
        gap = max(abs(closed[0] - oracle[0]), abs(closed[1] - oracle[1]))
        assert gap <= 1e-12, f"oracle disagrees by {gap:.3e} ({label})"


def check_postselection_normalization():
    rng = np.random.default_rng(12)
    draws = [(rng.uniform(), rng.uniform(-math.pi, math.pi), reference.random_xstate(rng))
             for _ in range(50)]
    pairs = rng.uniform(0.0, 0.5, size=(200, 2)).tolist()  # any pair, not a state's
    # the amplitude's edges: V_a = 0, and V_a = 1 on fully coherent states in phase
    # with the sky, whose q_c is 0 up to rounding
    for v_a in (0.0, 1.0):
        for _ in range(10):
            a, g, f, h = rng.dirichlet(np.ones(4))
            v_p = rng.uniform(-math.pi, math.pi)
            draws.append((v_a, v_p, qcore.XState(a, g, f, h, w_a=math.sqrt(g * f), w_p=v_p)))
    for v_a, v_p, x in draws:
        q_c, q_ac = protocol.raw_probabilities(qcore.AstroVisibility(v_a, v_p), x)
        for q in (q_c, q_ac):
            assert -1e-15 <= q <= 0.5 + 1e-15, f"q = {q} outside [0, 1/2] at V_a = {v_a}"
        assert abs(q_c + q_ac - 0.5 * (x.g + x.f)) <= 1e-12
        if q_c + q_ac > 0.0:
            p_c, p_ac = protocol.postselect(q_c, q_ac)
            assert p_c + p_ac == 1.0
    for q_c, q_ac in pairs:
        p_c, p_ac = protocol.postselect(q_c, q_ac)
        assert p_c + p_ac == 1.0


def check_estimator_round_trip():
    ph = _SETTINGS
    for seed, draws in ((13, 50), (505, 100), (1234, 100)):
        rng = np.random.default_rng(seed)
        quadrants = set()
        for _ in range(draws):
            v_a = rng.uniform(0.05, 1.0)
            v_p = rng.uniform(-math.pi, math.pi)
            conc = rng.uniform(0.1, 1.0)
            dp1 = v_a * conc * math.cos(v_p - ph.w1)
            dp2 = v_a * conc * math.cos(v_p - ph.w2)
            va_hat, vp_hat = reference.solve_visibility(dp1, dp2, ph, conc)
            assert abs(va_hat - v_a) <= 1e-12 and abs(qcore.wrap_phase(vp_hat - v_p)) <= 1e-12
            quadrants.add(int(v_p // (0.5 * math.pi)) % 4)
        assert len(quadrants) == 4, f"seed {seed} leaves a quadrant of V_p untried"


def check_error_derivatives_fd():
    ph = protocol.PhaseSettings(0.1, 0.1 + 0.5 * math.pi)
    for alpha in (-1.5, -0.7, -0.3, 0.4, 0.9, 1.3, 2.2):
        step = 1e-6 * max(1.0, abs(alpha))
        fd = (reference.phase_from_ratio(alpha + step, ph)
              - reference.phase_from_ratio(alpha - step, ph)) / (2 * step)
        an = reference.phase_ratio_derivative(alpha, ph)
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an)), f"dVp/dalpha FD gap at {alpha}"
    # (dV_a, dV_p) are the fringe errors through the gradients of solve_visibility
    h, n = 1e-6, 1000
    cases = [(0.3, 0.2, 0.8, ph), (-0.25, 0.1, 0.5, protocol.PhaseSettings(-0.4, 1.3)),
             (0.05, -0.6, 0.9, protocol.PhaseSettings(2.0, -0.5))]
    rng = np.random.default_rng(1234)
    for _ in range(30):  # random settings, fringes and concurrences, off the degenerate ones
        ph = protocol.PhaseSettings(rng.uniform(-3, 3), rng.uniform(-3, 3))
        dp1, dp2 = rng.uniform(-0.9, 0.9, size=2)
        conc = rng.uniform(0.1, 1.0)
        if abs(math.sin(ph.w2 - ph.w1)) >= 0.2 and math.hypot(dp1, dp2) >= 0.05:
            cases.append((dp1, dp2, conc, ph))
    for dp1, dp2, conc, ph in cases:
        lo1, hi1 = (reference.solve_visibility(dp1 + e, dp2, ph, conc) for e in (-h, h))
        lo2, hi2 = (reference.solve_visibility(dp1, dp2 + e, ph, conc) for e in (-h, h))
        d1, d2 = reference.delta_p_uncertainty(dp1, n), reference.delta_p_uncertainty(dp2, n)
        fd_a = math.hypot((hi1[0] - lo1[0]) * d1, (hi2[0] - lo2[0]) * d2) / (2 * h)
        fd_p = math.hypot(qcore.wrap_phase(hi1[1] - lo1[1]) * d1,
                          qcore.wrap_phase(hi2[1] - lo2[1]) * d2) / (2 * h)
        dv_a, dv_p = reference.propagate_errors(dp1, dp2, n, ph, conc)
        assert abs(fd_a - dv_a) <= 1e-6 * min(fd_a, dv_a), f"dV_a FD gap at ({dp1}, {dp2})"
        assert abs(fd_p - dv_p) <= 1e-6 * min(fd_p, dv_p), f"dV_p FD gap at ({dp1}, {dp2})"


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
    # swap(t1, t2) is storage for t1 + t2, and storage is the per-arm Z-mixing map
    swaps = _union(np.linspace(0.0, 3.0, 7), np.linspace(0.0, 3.0, 9), np.linspace(0.0, 4.0, 9))
    stores = _union(np.linspace(0.0, 4.0, 9), np.linspace(0.0, 5.0, 11))
    for tau in (1.7, 2.2):
        for t1 in swaps:
            for t2 in swaps:
                for sign in (+1, -1):
                    via_swap = reference.to_density(channels.swap_memories(t1, t2, tau, sign))
                    direct = reference.to_density(channels.memory_xstate(t1 + t2, tau, sign))
                    gap = np.max(np.abs(via_swap.entries - direct.entries))
                    assert gap <= 1e-12, f"swap({t1}, {t2}) off storage by {gap:.3e} at tau {tau}"
        for t in stores:
            for sign, delta in ((+1, 0.0), (-1, math.pi)):
                gamma = reference.memory_dephasing_channel(t, tau)
                stored = reference.apply_independent_channels(reference.make_bell_psi(delta),
                                                              gamma, gamma)
                expected = reference.to_density(channels.memory_xstate(t, tau, sign)).entries
                gap = np.max(np.abs(stored.entries - expected))
                assert gap <= 1e-12, f"storage {t} off the per-arm map by {gap:.3e} at tau {tau}"


def check_depol_x_bound():
    # a dense grid over [0, 1]^2, edges included, in one array call
    kappa = _union(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 201))
    k_l, k_r = (grid.ravel() for grid in np.meshgrid(kappa, kappa))
    x = channels.depol_x_param(k_l, k_r)
    bad = (x < -1e-15) | (x > 1.0 / 3.0 + 1e-15)
    i = int(bad.argmax())
    assert not bad[i], f"x={x[i]} at ({k_l[i]}, {k_r[i]})"


def check_rate_monotonicity():
    rates = channels.RateModel(1.0, 1.0)
    unit = _union(np.linspace(0, 1, 12), np.linspace(0, 1, 15))
    grids = {
        "lambda": [channels.xstate_amplitude_damping(p, p) for p in unit],
        "mu": [channels.xstate_dephasing(p, p) for p in unit],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grids["kappa"] = [channels.xstate_depolarizing(p, p)
                          for p in _union(np.linspace(0, 0.75, 12), np.linspace(0, 0.75, 15))]
    for family, states in grids.items():
        rs = [channels.resource_figures(x, 0.0, rates, None)[3] for x in states]
        assert _non_increasing(rs, 1e-15), f"rate not monotone in {family}"


def check_fiber_rate_line():
    for rates, l0, count in ((channels.RateModel(0.8, 1e6), 10.0, 25),
                             (channels.RateModel(1.0, 1e6), 12.0, 31)):
        bs = np.linspace(0.0, 6 * l0, count)
        logs = config.ChannelConfig("amplitude_damping", {"L0": l0}).resource_table(bs, rates)[1][3]
        off = np.abs(logs - channels.log_rate_fiber(bs, l0, rates))
        assert off.max() <= 1e-12, f"ln R_M off the fiber law at B = {bs[off.argmax()]}"
        coeffs = np.polyfit(bs, logs, 1)
        assert abs(coeffs[0] + 1.0 / (2.0 * l0)) <= 1e-9, f"slope {coeffs[0]} at L0 = {l0}"
        residual = np.max(np.abs(np.polyval(coeffs, bs) - logs))
        assert residual <= 1e-9, f"ln R_M off its line by {residual:.3e} at L0 = {l0}"


def check_depol_rate_asymptote():
    beta = 1.0
    # long links, exp(-beta B) <= 0.01, where the log approximation holds
    bs = _union(np.linspace(5.0, 40.0, 15), np.arange(5.0, 41.0, 1.0))
    far = np.array([40.0, 60.0, 100.0])
    channel = config.ChannelConfig("depolarizing", {"beta": beta})
    for rates in (channels.RateModel(1.0, 1.0), channels.RateModel(0.8, 1e6)):
        approx, in_regime = channels.log_rate_depol_approx(bs, beta, rates)
        assert in_regime.all()
        worst = max((approx - channel.resource_table(bs, rates)[1][3]).tolist(), key=abs)
        assert abs(worst) <= 0.01, f"approx off by {worst:.4f}"
        # the rate flattens onto R_M = (5/18) R_E R_T, the paper's 0.28
        _, (_, _, r_norm, ln_r, _) = channel.resource_table(far, rates)
        for ratio in (*r_norm.tolist(), *(np.exp(ln_r) / (rates.R_E * rates.R_T)).tolist()):
            assert abs(ratio - 5.0 / 18.0) <= 1e-6 and round(ratio, 2) == 0.28, f"ratio {ratio}"
        assert not channels.log_rate_depol_approx(0.0, beta, rates)[1]


def check_forward_visibility():
    # |V| <= 1 on seeded skies of 1 to 6 sources, |theta| <= 0.05, flux in [0.1, 3] and
    # B in [0, 500], and on skies at the corners of that domain
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(60):
        n = rng.integers(1, 7)
        sources = tuple((rng.uniform(-0.05, 0.05), rng.uniform(0.1, 3.0)) for _ in range(n))
        cases.append((sources, rng.uniform(0.0, 500.0, size=5)))
    corners = (((-0.05, 0.1),), ((0.05, 3.0),),
               tuple((theta, flux) for theta in (-0.05, 0.0, 0.05) for flux in (0.1, 3.0)))
    cases += [(sources, (0.0, 300.0, 500.0)) for sources in corners]
    for sources, bs in cases:
        sky = imaging.SkyModel(sources, wavelength=1.0)
        for b in bs:
            assert abs(imaging.true_visibility(sky, b)) <= 1.0 + 1e-12, f"|V| > 1 at B = {b}"
    # two equal sources sep apart: V = cos(pi B sep), null at B = 1/(2 sep)
    sep = 0.02
    sky2 = imaging.SkyModel(((-sep / 2, 1.0), (sep / 2, 1.0)), wavelength=1.0)
    null_b = 1.0 / (2 * sep)
    for b in (*np.linspace(0.0, 80.0, 23).tolist(), 0.5 * null_b, null_b):
        gap = abs(imaging.true_visibility(sky2, b) - math.cos(math.pi * b * sep))
        assert gap <= 1e-12, f"two-source visibility off cos(pi B sep) by {gap:.3e} at B = {b}"
    assert abs(imaging.true_visibility(sky2, null_b)) <= 1e-12


def _exact_samples(sky, plan):
    """(baselines, visibilities) arrays of the plan's exact visibilities of the sky."""
    return (np.array(plan.baselines),
            np.array([imaging.true_visibility(sky, b) for b in plan.baselines]))


def check_reconstruction_hermitian():
    sky = imaging.SkyModel(((-0.01, 1.0), (0.012, 0.7)), wavelength=1.0)
    plan = imaging.BaselinePlan.linear(60.0, 32)
    # noisy samples out to B = 1e4, whose k theta reaches 2 pi 1e4 x 0.1 ~ 6 300 rad
    rng = np.random.default_rng(1234)
    far = np.array(imaging.BaselinePlan.linear(1e4, 500).baselines)
    noisy = rng.uniform(0.0, 0.9, size=far.size) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, size=far.size))
    # the default grid, a fine one spanning many rotation blocks of the map, another
    # sky and plan on a grid of 151 points, and the noisy samples on 4 001 points
    cases = [(*_exact_samples(sky, plan), imaging.default_theta_grid(sky, plan.B_m)),
             (*_exact_samples(sky, plan), np.linspace(-0.05, 0.05, 1001)),
             (*_exact_samples(imaging.SkyModel(((-0.013, 1.0), (0.008, 0.6)), wavelength=1.0),
                              imaging.BaselinePlan.linear(70.0, 48)),
              np.linspace(-0.03, 0.03, 151)),
             (far, noisy, np.linspace(-0.1, 0.1, 4001))]
    for bs, vs, grid in cases:
        raw = reference.dirty_image_complex(bs, vs, grid, 1.0)
        scale = np.max(np.abs(raw.real))
        assert np.max(np.abs(raw.imag)) <= 1e-12 * max(1.0, scale)
        gap = np.max(np.abs(imaging._dirty_map(bs, vs, grid, 1.0) - raw.real))
        assert gap <= 1e-12 * scale, (f"folded map off the complex sum by {gap / scale:.3e} "
                                      f"on {grid.size} points")


def check_resolvability():
    # one peak below the threshold baseline 1/(2 sep) and two above it; at four times
    # the threshold, each within one grid cell of its source
    sep = 0.02
    sky = imaging.SkyModel(((-sep / 2, 1.0), (sep / 2, 1.0)), wavelength=1.0)
    threshold = 1.0 / (2 * sep)
    grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
    # (B_max / threshold, baselines, peaks, placed within a cell)
    for factor, count, expected, placed in ((0.5, 48, 1, False), (2.0, 48, 2, False),
                                            (4.0, 64, 2, True)):
        plan = imaging.BaselinePlan.linear(factor * threshold, count)
        vs = [imaging.true_visibility(sky, b) for b in plan.baselines]
        rec = imaging.reconstruct_intensity(plan.baselines, vs, grid, 1.0)
        peaks = reference.find_peaks(rec)
        assert len(peaks) == expected, f"{factor}x threshold: {len(peaks)} peaks"
        if placed:
            for peak, target in zip(peaks, (-sep / 2, sep / 2)):
                assert abs(grid[peak] - target) <= (grid[1] - grid[0]) * (1.0 + 1e-9), \
                    f"{factor}x threshold: peak at {grid[peak]}, source at {target}"


# The error-scaling study (at C = 1, the scheme of Gottesman, Jennewein and Croke),
# written by `entbase study errors`: the RMSE of the estimates against N and
# against the resource's concurrence C and subspace weight xi.
_STUDY_GRID = (0.3, 0.6, 1.0)


def rmse_vs_n(seed: int, replicates: int) -> list:
    """(N, rmse_V_a, rmse_V_p) of the ideal resource per N, row N seeded derive_seed(seed, N)."""
    v, x = qcore.AstroVisibility(0.7, 0.9), channels.ideal_bell_xstate()
    ns = (10 ** 3, 10 ** 4, 10 ** 5)
    rmse_a, rmse_p = protocol.replicate_rmse(
        [(v, x, _SETTINGS, n, np.random.default_rng(protocol.derive_seed(seed, n)))
         for n in ns], replicates)
    return list(zip(ns, rmse_a.tolist(), rmse_p.tolist()))


def n_slope(table) -> float:
    """The log-log slope of RMSE(V_a) against N over the rows of rmse_vs_n; -1/2 expected."""
    ns, rmse_a, _ = zip(*table)
    return float(np.polyfit(np.log10(ns), np.log10(rmse_a), 1)[0])


def budget_fault(budget: int) -> str | None:
    """Why rmse_vs_resource refuses budget, or None: some xi's N_post = round(budget xi / 2)
    outside [1, protocol.MAX_TRIALS], the counts numpy's binomial sampler draws."""
    # a budget clipped to [0, 2 MAX_TRIALS + 2] is refused alike, and budget xi is a float
    clipped = min(max(budget, 0), 2 * protocol.MAX_TRIALS + 2)
    if not all(1 <= round(clipped * xi / 2.0) <= protocol.MAX_TRIALS for xi in _STUDY_GRID):
        return f"{budget} gives a cell N_post = round(budget xi / 2) outside [1, 2**63 - 1]"


def rmse_vs_resource(seed: int, replicates: int, budget: int) -> list:
    """(C, xi, N_post, rmse_V_a, rmse_V_p, rmse_V_a C sqrt(xi), rmse_V_p sqrt(xi)) per cell.

    The dephasing-form state of each (C, xi) of a 3 x 3 grid, C outer, gets the
    postselected share N_post = round(budget xi / 2) of the budget of modes per
    setting; V_a C = 0.21 holds the fringe fixed. Cell (C, xi) is seeded
    derive_seed(seed, int(1000 C + 10 xi)). A budget budget_fault refuses raises ValueError.
    """
    if (fault := budget_fault(budget)) is not None:
        raise ValueError(f"budget: {fault}")
    cells = [(conc, xi, int(round(budget * xi / 2.0))) for conc in _STUDY_GRID
             for xi in _STUDY_GRID]
    rmse_a, rmse_p = protocol.replicate_rmse(
        [(qcore.AstroVisibility(0.21 / conc, 0.9),
          qcore.XState(a=1.0 - xi, g=xi / 2, f=xi / 2, h=0.0, w_a=conc * xi / 2), _SETTINGS,
          n_post, np.random.default_rng(protocol.derive_seed(seed, int(1000 * conc + 10 * xi))))
         for conc, xi, n_post in cells], replicates)
    return [(conc, xi, n_post, r_a, r_p, r_a * conc * math.sqrt(xi), r_p * math.sqrt(xi))
            for (conc, xi, n_post), r_a, r_p in zip(cells, rmse_a.tolist(), rmse_p.tolist())]


def check_estimator_slope_mc():
    # RMSE(V_a) falls as N^-1/2: the log-log slope over three decades of N
    for seed in (5, 606):
        slope = n_slope(rmse_vs_n(seed, 200))
        assert abs(slope + 0.5) <= 0.05, f"slope {slope:.3f} (seed {seed})"


def check_resource_scaling_mc():
    # the paper's claim: at a fixed incident budget of 1e5 modes per setting,
    # RMSE(V_a) C sqrt(xi) and RMSE(V_p) sqrt(xi) stay constant over C and xi
    prod_a, prod_p = {}, {}
    for conc, xi, _, _, _, a_scaled, p_scaled in rmse_vs_resource(606, 200, 10 ** 5):
        prod_a[conc, xi], prod_p[conc, xi] = a_scaled, p_scaled
    for name, prods in (("RMSE(V_a) C sqrt(xi)", prod_a), ("RMSE(V_p) sqrt(xi)", prod_p)):
        mean = np.mean(list(prods.values()))
        for key, val in prods.items():
            assert abs(val / mean - 1.0) <= 0.20, f"{name} {val / mean:.3f}x its mean at {key}"
    for xi in _STUDY_GRID:  # the phase error is C-independent at each weight
        vals = [prod_p[conc, xi] for conc in _STUDY_GRID]
        assert all(abs(val / np.mean(vals) - 1.0) <= 0.20 for val in vals), \
            f"RMSE(V_p) depends on C at xi = {xi}"


def check_error_bar_coverage_mc():
    # one-sigma bars cover 68.27% of replicates; with 20 000 of them four binomial
    # sigmas are 0.013, so a bar 5% too wide or narrow fails. The ideal resource at
    # N = 10^5, and resources of C = 1, 0.45 and 0.78 at three amplitudes at N = 10^4
    cases = [(channels.ideal_bell_xstate(), 0.7, 10 ** 5, protocol.derive_seed(6))]
    cases += [(x, v_a, 10 ** 4, 17)
              for x in (channels.ideal_bell_xstate(), channels.xstate_dephasing(0.55, 0.0),
                        channels.xstate_depolarizing(0.15, 0.15))
              for v_a in (0.3, 0.7, 1.0)]
    for x, v_a, n, seed in cases:
        v = qcore.AstroVisibility(v_a, 0.9)
        est = protocol.run_replicates(v, x, _SETTINGS, n, 20_000, np.random.default_rng(seed))
        cover_a = np.mean(np.abs(est.V_a_hat - v.V_a) <= est.dV_a)
        cover_p = np.mean(np.abs(protocol._wrap_phases(est.V_p_hat - v.V_p)) <= est.dV_p)
        for name, cover in (("dV_a", cover_a), ("dV_p", cover_p)):
            assert abs(cover - 0.6827) <= 0.013, \
                f"{name} covers {cover:.4f}, expected 0.6827 " \
                f"(C = {qcore.concurrence_subspace(x)}, V_a = {v_a})"


def check_five_sigma_coverage_mc():
    v = qcore.AstroVisibility(0.7, 0.9)
    est = protocol.run_replicates(v, channels.ideal_bell_xstate(), _SETTINGS, 10 ** 5, 100,
                                  np.random.default_rng(protocol.derive_seed(707)))
    hits = int(np.count_nonzero(np.abs(est.V_a_hat - v.V_a) <= 5.0 * est.dV_a))
    assert hits >= 95, f"five dV_a cover {hits} of 100 replicates, 95 required"


def check_fringe_bound_mc():
    # (state seed, count seed, states, N)
    for state_seed, draw_seed, states, n in ((31, 7, 25, 5000), (1234, 8, 30, 2000)):
        rng = np.random.default_rng(state_seed)
        draws = np.random.default_rng(protocol.derive_seed(draw_seed))
        for _ in range(states):
            x = reference.random_xstate(rng, with_outer=False)
            if x.g + x.f <= 1e-3 or x.w_a <= 1e-6:
                continue
            v = qcore.AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
            conc, _, p_cs = protocol._setting_probabilities(v, x, _SETTINGS)
            n_c = draws.binomial(n, p_cs)
            dp = ((n - n_c) - n_c) / n  # (n_ac - n_c) / N at each setting
            assert np.all(np.abs(dp) <= v.V_a * conc + 5.0 / math.sqrt(n)), \
                f"fringe {dp} beyond V_a C + 5/sqrt(N) at N = {n}"


def check_imaging_peaks_mc():
    # end to end at N = 1e6 on an ideal resource: 64 baselines out to four times the
    # resolvability threshold place both sources within one grid cell
    sep = 0.02
    sky = imaging.SkyModel(((-sep / 2, 1.0), (sep / 2, 1.0)), wavelength=1.0)
    grid = np.linspace(-1.5 * sep, 1.5 * sep, 121)
    plan = imaging.BaselinePlan.linear(4.0 / (2 * sep), 64)
    rep = imaging.observe_and_image(sky, plan, lambda B: channels.ideal_bell_xstate(),
                                    _SETTINGS, 10 ** 6, seed=1010, theta_grid=grid)
    peaks = reference.find_peaks(rep.intensity_est)
    assert len(peaks) == 2, f"{len(peaks)} peaks"
    for peak, target in zip(peaks, (-sep / 2, sep / 2)):
        assert abs(grid[peak] - target) <= (grid[1] - grid[0]) * (1.0 + 1e-9), \
            f"peak at {grid[peak]}, source at {target}"


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
    ("resource-scaling[mc]", check_resource_scaling_mc),
    ("error-bar-coverage[mc]", check_error_bar_coverage_mc),
    ("five-sigma-coverage[mc]", check_five_sigma_coverage_mc),
    ("fringe-bound[mc]", check_fringe_bound_mc),
    ("imaging-peaks[mc]", check_imaging_peaks_mc),
)


def run_all() -> bool:
    """Run every check, one PASS or FAIL line each, then the count and time; True iff all pass."""
    start = time.perf_counter()
    failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            failed += 1
        except Exception as exc:  # config/runtime errors are failures too
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failed += 1
        else:
            print(f"PASS {name}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks passed "
          f"in {time.perf_counter() - start:.2f} s")
    return not failed
