"""Invariant suite behind the ``validate`` subcommand.

Every check runs at reduced grid density (the pytest suite carries the
full-density versions) and raises AssertionError with a detail string on
failure. The module also holds the references the checks and tests
compare the runtime against: the 16-dimensional projector route to the
coincidence probabilities, the scalar inversion and error propagation
behind ``protocol._invert_batch``, and the complex full-plane dirty map.
The closed-form/projector-oracle agreement check is the canary for sign
mistakes in the coincidence formulas: flipping the fringe sign in either
route makes it fail immediately.
"""

from __future__ import annotations

import math

import numpy as np

from . import channels, config, imaging, protocol, qcore

__all__ = ["CHECKS", "amplitude_from_delta", "amplitude_partials", "delta_p_uncertainty",
           "dirty_image_complex", "phase_from_ratio", "phase_ratio_derivative",
           "propagate_errors", "random_density", "random_xstate", "raw_probabilities_oracle",
           "run_all", "solve_visibility"]


def random_xstate(rng: np.random.Generator, with_outer: bool = True) -> qcore.XState:
    """Random valid X-form state (positive by construction)."""
    a, g, f, h = rng.dirichlet(np.ones(4))
    w_a = rng.uniform(0.0, 1.0) * math.sqrt(g * f)
    z_a = rng.uniform(0.0, 1.0) * math.sqrt(a * h) if with_outer else 0.0
    return qcore.XState(a=a, g=g, f=f, h=h,
                        w_a=w_a, w_p=rng.uniform(-math.pi, math.pi),
                        z_a=z_a, z_p=rng.uniform(-math.pi, math.pi))


def random_density(rng: np.random.Generator) -> qcore.DensityMatrix4:
    """Random full-rank two-qubit density matrix."""
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return qcore.DensityMatrix4(rho / rho.trace())


_KRAUS = {
    "amplitude_damping": qcore.kraus_amplitude_damping,
    "dephasing": qcore.kraus_dephasing,
    "depolarizing": qcore.kraus_depolarizing,
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
    import warnings
    bell = qcore.make_bell_psi(0.0)
    grid = np.linspace(0.0, 1.0, 11)
    for name in _KRAUS:
        for p_l in grid:
            for p_r in grid:
                via_kraus = qcore.apply_independent_channels(
                    bell, _KRAUS[name](p_l), _KRAUS[name](p_r))
                with warnings.catch_warnings():
                    # asymmetric-arm depolarization past x = 1/4 flips the coherence sign
                    warnings.simplefilter("ignore", channels.DegenerateCoherenceWarning)
                    closed = _CLOSED[name](p_l, p_r).to_density()
                diff = np.max(np.abs(via_kraus.entries - closed.entries))
                assert diff <= 1e-12, f"{name}({p_l}, {p_r}): entrywise gap {diff:.3e}"


def check_xform_closure():
    bell = qcore.make_bell_psi(0.0)
    grid = np.linspace(0.05, 0.95, 4)
    for left_name, left in _KRAUS.items():
        for right_name, right in _KRAUS.items():
            for p_l in grid:
                for p_r in grid:
                    out = qcore.apply_independent_channels(bell, left(p_l), right(p_r))
                    qcore.extract_xstate(out)  # raises if not X form
                    tr = abs(out.entries.trace() - 1.0)
                    assert tr <= 1e-12, f"{left_name}x{right_name}: trace defect {tr:.3e}"


def check_channel_map_properties():
    rng = np.random.default_rng(2024)
    makers = list(_KRAUS.values())
    for _ in range(40):
        rho = random_density(rng)
        left = makers[rng.integers(3)](rng.uniform())
        right = makers[rng.integers(3)](rng.uniform())
        out = qcore.apply_independent_channels(rho, left, right).entries
        assert abs(out.trace() - 1.0) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


def check_concurrence_monotone():
    import warnings
    lam = [qcore.extract_xstate(qcore.apply_independent_channels(
        qcore.make_bell_psi(0.0), qcore.kraus_amplitude_damping(p),
        qcore.kraus_amplitude_damping(p))) for p in np.linspace(0.0, 0.95, 12)]
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
                x = qcore.extract_xstate(qcore.make_bell_psi(delta))
                q_c, q_ac = protocol.raw_probabilities(qcore.AstroVisibility(v_a, v_p), x)
                p_c, _ = protocol.postselect(q_c, q_ac)
                expected = 0.5 * (1.0 - v_a * math.cos(v_p - delta))
                assert abs(p_c - expected) <= 1e-12, \
                    f"fringe mismatch at (V_a={v_a}, V_p={v_p}, delta={delta})"


def _detector_projector(sign: int) -> np.ndarray:
    # (|1_A 0_X> + sign |0_A 1_X>)/sqrt(2) on one telescope's (sky, network) pair
    v = np.zeros(4, dtype=complex)
    v[2] = 1.0
    v[1] = float(sign)
    v /= math.sqrt(2.0)
    return np.outer(v, v.conj())


def raw_probabilities_oracle(rho_A: qcore.DensityMatrix4,
                             rho_X: qcore.DensityMatrix4) -> tuple[float, float]:
    """Coincidence probabilities from explicit projectors on the 16-dim product state.

    Builds rho_A (x) rho_X over the mode order (sky-left, sky-right,
    network-left, network-right), permutes indices so each telescope's
    (sky, network) pair is contiguous, and takes expectation values of
    projectors onto the one-photon beam-splitter output states
    (|10> +/- |01>)/sqrt(2) at each site.

    Two labeling conventions are fixed so the statistics match the closed
    form in protocol.raw_probabilities for X-form resources: the network
    state's stored arm order is opposite to the sky state's (its second
    slot feeds the left telescope), and the detector labeled "+" at the
    right telescope observes the antisymmetric combination. Both are pure
    relabelings with no physical content.
    """
    a = rho_A.entries
    xm = rho_X.entries
    perm = (0, 2, 1, 3)  # exchange the network state's two arms
    xs = xm[np.ix_(perm, perm)]
    rho16 = np.kron(a, xs)
    # regroup (A_L, A_R, X_L, X_R) -> (A_L, X_L, A_R, X_R)
    regrouped = (rho16.reshape(2, 2, 2, 2, 2, 2, 2, 2)
                 .transpose(0, 2, 1, 3, 4, 6, 5, 7)
                 .reshape(16, 16))
    left_plus, left_minus = _detector_projector(+1), _detector_projector(-1)
    right_plus, right_minus = _detector_projector(-1), _detector_projector(+1)

    def expect(pl, pr):
        return float(np.trace(np.kron(pl, pr) @ regrouped).real)

    q_c = expect(left_plus, right_plus) + expect(left_minus, right_minus)
    q_ac = expect(left_plus, right_minus) + expect(left_minus, right_plus)
    return q_c, q_ac


def check_projector_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = qcore.AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
        x = random_xstate(rng)
        closed = protocol.raw_probabilities(v, x)
        oracle = raw_probabilities_oracle(qcore.make_astro_state(v), x.to_density())
        gap = max(abs(closed[0] - oracle[0]), abs(closed[1] - oracle[1]))
        assert gap <= 1e-12, f"oracle disagrees by {gap:.3e}"


def check_postselection_normalization():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = qcore.AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
        x = random_xstate(rng)
        q_c, q_ac = protocol.raw_probabilities(v, x)
        assert abs(q_c + q_ac - 0.5 * (x.g + x.f)) <= 1e-12
        if q_c + q_ac > 0.0:
            p_c, p_ac = protocol.postselect(q_c, q_ac)
            assert p_c + p_ac == 1.0


# Scalar reference of protocol._invert_batch, the one inversion the runtime uses.

def delta_p_uncertainty(dp: float, N: int) -> float:
    """One-sigma statistical error of the fringe estimator.

    Twice the binomial standard error of p_ac, with an add-one smoothed
    probability so boundary tallies (all clicks in one class) report a
    near-maximal rather than zero uncertainty.
    """
    if N < 1:
        raise ValueError("need at least one trial")
    p_ac = 0.5 * (1.0 + dp)
    p_smooth = (N * p_ac + 1.0) / (N + 2.0)
    return 2.0 * math.sqrt(p_smooth * (1.0 - p_smooth)) / math.sqrt(N)


def solve_visibility(dp1: float, dp2: float, ph: protocol.PhaseSettings,
                     C: float) -> tuple[float, float]:
    """Invert two fringe measurements into (V_a, V_p).

    Solves the linear system dp_i = c*cos(w_i) + s*sin(w_i) for
    c = V_a C cos(V_p) and s = V_a C sin(V_p), then V_p = atan2(s, c)
    (full quadrant) and V_a = hypot(c, s)/C. When both fringes vanish
    the phase is undefined and reported as 0 by convention.
    """
    if C <= 0.0:
        raise protocol.ZeroConcurrenceError("C <= 0: visibility amplitude is unrecoverable")
    det = math.sin(ph.w2 - ph.w1)
    if abs(det) < protocol.MIN_PHASE_SEPARATION:
        raise protocol.DegeneratePhasesError("phase settings are degenerate")
    c = (dp1 * math.sin(ph.w2) - dp2 * math.sin(ph.w1)) / det
    s = (dp2 * math.cos(ph.w1) - dp1 * math.cos(ph.w2)) / det
    amp = math.hypot(c, s)
    if amp == 0.0:
        return 0.0, 0.0
    return amp / C, qcore.wrap_phase(math.atan2(s, c))


def amplitude_from_delta(dp: float, V_p: float, C: float, w: float) -> float:
    """Visibility amplitude from a single setting: dp / (C cos(V_p - w))."""
    return dp / (C * math.cos(V_p - w))


def amplitude_partials(dp: float, V_p: float, C: float, w: float) -> tuple[float, float]:
    """(d V_a / d dp, d V_a / d V_p) for the single-setting amplitude formula."""
    cosw = math.cos(V_p - w)
    d_dp = 1.0 / (C * cosw)
    d_vp = dp * math.sin(V_p - w) / (C * cosw * cosw)
    return d_dp, d_vp


def propagate_errors(dp1: float, dp2: float, N: int, ph: protocol.PhaseSettings,
                     C: float) -> tuple[float, float]:
    """One-sigma errors (dV_a, dV_p) for the two-setting inversion.

    The phase error follows the chain through the setting ratio
    alpha = dp1/dp2: quadrature of the alpha partials times the fringe
    uncertainties, then |d V_p / d alpha|. That product simplifies
    exactly to

        dV_p = sqrt((dp2*D1)^2 + (dp1*D2)^2) / ((c^2+s^2) |sin(w2-w1)|),

    which is the form evaluated here (regular even where one fringe
    vanishes). The amplitude error is the quadrature of the fringe term
    and the phase term of the single-setting formula, evaluated at the
    better-conditioned setting. dV_p is capped at pi: beyond that the
    phase carries no information.
    """
    if N < 1:
        raise ValueError("need at least one trial")
    if C <= 0.0:
        raise protocol.ZeroConcurrenceError("C <= 0: visibility amplitude is unrecoverable")
    det = math.sin(ph.w2 - ph.w1)
    if abs(det) < protocol.MIN_PHASE_SEPARATION:
        raise protocol.DegeneratePhasesError("phase settings are degenerate")
    d1 = delta_p_uncertainty(dp1, N)
    d2 = delta_p_uncertainty(dp2, N)
    c = (dp1 * math.sin(ph.w2) - dp2 * math.sin(ph.w1)) / det
    s = (dp2 * math.cos(ph.w1) - dp1 * math.cos(ph.w2)) / det
    amp_sq = c * c + s * s
    if amp_sq == 0.0:
        # phase undefined (both fringes vanished): report it as uninformative
        # and take the amplitude error at the conventional phase 0
        dp_b, d_b, w_b = max(((dp1, d1, ph.w1), (dp2, d2, ph.w2)),
                             key=lambda item: abs(math.cos(item[2])))
        return d_b / (C * abs(math.cos(w_b))), math.pi
    v_p = math.atan2(s, c)
    dv_p = min(math.pi,
               math.hypot(dp2 * d1, dp1 * d2) / (amp_sq * abs(det)))
    # amplitude error at the setting where the fringe is best conditioned
    settings = ((dp1, d1, ph.w1), (dp2, d2, ph.w2))
    dp_b, d_b, w_b = max(settings, key=lambda item: abs(math.cos(v_p - item[2])))
    d_dp, d_vp = amplitude_partials(dp_b, v_p, C, w_b)
    dv_a = math.hypot(d_dp * d_b, d_vp * dv_p)
    return dv_a, dv_p


def check_estimator_round_trip():
    rng = np.random.default_rng(13)
    ph = protocol.PhaseSettings(0.0, 0.5 * math.pi)
    for _ in range(50):
        v_a = rng.uniform(0.05, 1.0)
        v_p = rng.uniform(-math.pi, math.pi)
        conc = rng.uniform(0.1, 1.0)
        dp1 = v_a * conc * math.cos(v_p - ph.w1)
        dp2 = v_a * conc * math.cos(v_p - ph.w2)
        va_hat, vp_hat = solve_visibility(dp1, dp2, ph, conc)
        assert abs(va_hat - v_a) <= 1e-12 and abs(qcore.wrap_phase(vp_hat - v_p)) <= 1e-12


def phase_from_ratio(alpha: float, ph: protocol.PhaseSettings) -> float:
    """Fringe phase from the ratio alpha = dp1/dp2 (principal arctan branch)."""
    sw2 = math.sin(ph.w2)
    if sw2 == 0.0:
        raise ValueError("the ratio form requires sin(w2) != 0; use solve_visibility")
    denom = alpha * sw2 - math.sin(ph.w1)
    t = (math.sin(ph.w2 - ph.w1) / denom - math.cos(ph.w2)) / sw2
    return math.atan(t)


def phase_ratio_derivative(alpha: float, ph: protocol.PhaseSettings) -> float:
    """d(phase)/d(alpha) for the arctan inversion of the setting ratio."""
    denom = alpha * math.sin(ph.w2) - math.sin(ph.w1)
    t = (math.cos(ph.w1) - alpha * math.cos(ph.w2)) / denom
    return -math.sin(ph.w2 - ph.w1) / (denom * denom * (1.0 + t * t))


def check_error_derivatives_fd():
    ph = protocol.PhaseSettings(0.1, 0.1 + 0.5 * math.pi)
    for alpha in (0.4, 1.3, -0.7):
        step = 1e-6 * max(1.0, abs(alpha))
        fd = (phase_from_ratio(alpha + step, ph)
              - phase_from_ratio(alpha - step, ph)) / (2 * step)
        an = phase_ratio_derivative(alpha, ph)
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an)), f"dVp/dalpha FD gap at {alpha}"
    for dp, v_p, conc, w in ((0.3, 0.4, 0.8, 0.1), (-0.2, 1.2, 0.5, 1.67)):
        d_dp, d_vp = amplitude_partials(dp, v_p, conc, w)
        h = 1e-6
        fd_dp = (amplitude_from_delta(dp + h, v_p, conc, w)
                 - amplitude_from_delta(dp - h, v_p, conc, w)) / (2 * h)
        fd_vp = (amplitude_from_delta(dp, v_p + h, conc, w)
                 - amplitude_from_delta(dp, v_p - h, conc, w)) / (2 * h)
        assert abs(fd_dp - d_dp) <= 1e-6 * max(1.0, abs(d_dp))
        assert abs(fd_vp - d_vp) <= 1e-6 * max(1.0, abs(d_vp))


def check_memory_swap_composition():
    tau = 1.7
    for t1 in np.linspace(0.0, 3.0, 7):
        for t2 in np.linspace(0.0, 3.0, 7):
            for sign in (+1, -1):
                via_swap = channels.swap_memories(t1, t2, tau, sign).to_density().entries
                direct = channels.memory_xstate(t1 + t2, tau, sign).to_density().entries
                assert np.max(np.abs(via_swap - direct)) <= 1e-12
    for t in np.linspace(0.0, 4.0, 9):
        for sign, delta in ((+1, 0.0), (-1, math.pi)):
            gamma = channels.memory_dephasing_channel(t, tau)
            stored = qcore.apply_independent_channels(qcore.make_bell_psi(delta), gamma, gamma)
            expected = channels.memory_xstate(t, tau, sign).to_density().entries
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
    import warnings
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


def dirty_image_complex(baselines, visibilities, theta_grid, wavelength: float) -> np.ndarray:
    """Oracle for the dirty map: the complex trapezoid sum over the full Hermitian set.

    Builds the n_theta x (2n+1) complex phase matrix that imaging's folded
    real sum avoids; its imaginary part is roundoff and its real part is the
    unnormalized map.
    """
    order = np.argsort(baselines)
    b_pos = np.asarray(baselines, dtype=float)[order]
    v_pos = np.asarray(visibilities, dtype=complex)[order]
    if len(b_pos) and b_pos[0] <= 0.0:
        raise ValueError("samples must sit at positive baselines")
    if np.any(np.diff(b_pos) <= 0.0):
        raise ValueError("samples must sit at distinct baselines")
    # negative half from V(-B) = conj(V(B)); zero baseline pinned to total flux
    b_full = np.concatenate([-b_pos[::-1], [0.0], b_pos])
    v_full = np.concatenate([np.conj(v_pos[::-1]), [1.0 + 0.0j], v_pos])
    weights = np.empty_like(b_full)
    weights[1:-1] = 0.5 * (b_full[2:] - b_full[:-2])
    weights[0] = 0.5 * (b_full[1] - b_full[0])
    weights[-1] = 0.5 * (b_full[-1] - b_full[-2])
    theta = np.asarray(theta_grid, dtype=float)
    phases = np.exp(2j * math.pi * np.outer(theta, b_full) / wavelength)
    return phases @ (weights * v_full)


def check_reconstruction_hermitian():
    sky = imaging.SkyModel(((-0.01, 1.0), (0.012, 0.7)), wavelength=1.0)
    plan = imaging.BaselinePlan.linear(60.0, 32)
    bs = np.array(plan.baselines)
    vs = np.array([imaging.true_visibility(sky, b) for b in plan.baselines])
    # the default grid, and a fine one spanning many rotation blocks of the map
    for grid in (imaging.default_theta_grid(sky, plan.B_m), np.linspace(-0.05, 0.05, 1001)):
        raw = dirty_image_complex(bs, vs, grid, 1.0)
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
        n_peaks = len(imaging.find_peaks(rec))
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
        x = random_xstate(rng, with_outer=False)
        if x.g + x.f <= 1e-3 or x.w_a <= 1e-6:
            continue
        v = qcore.AstroVisibility(rng.uniform(), rng.uniform(-math.pi, math.pi))
        n = 5000
        _, conc, _, p_cs = protocol._setting_probabilities(v, x, ph)
        n_c = draws.binomial(n, p_cs)
        dp = ((n - n_c) - n_c) / n  # (n_ac - n_c) / N at each setting
        assert np.all(np.abs(dp) <= v.V_a * conc + 5.0 / math.sqrt(n))


CHECKS = (
    ("kraus-completeness", check_kraus_completeness, False),
    ("channel-closed-forms", check_channel_closed_forms, False),
    ("x-form-closure", check_xform_closure, False),
    ("channel-map-properties", check_channel_map_properties, False),
    ("concurrence-monotone", check_concurrence_monotone, False),
    ("ideal-limit-fringe", check_ideal_limit_fringe, False),
    ("projector-oracle", check_projector_oracle, False),
    ("postselection-normalization", check_postselection_normalization, False),
    ("estimator-round-trip", check_estimator_round_trip, False),
    ("error-derivatives-fd", check_error_derivatives_fd, False),
    ("memory-swap-composition", check_memory_swap_composition, False),
    ("depol-x-bound", check_depol_x_bound, False),
    ("rate-monotonicity", check_rate_monotonicity, False),
    ("fiber-rate-line", check_fiber_rate_line, False),
    ("depol-rate-asymptote", check_depol_rate_asymptote, False),
    ("forward-visibility", check_forward_visibility, False),
    ("reconstruction-hermitian", check_reconstruction_hermitian, False),
    ("two-source-resolvability", check_resolvability, False),
    ("estimator-slope[mc]", check_estimator_slope_mc, True),
    ("error-bar-coverage[mc]", check_error_bar_coverage_mc, True),
    ("fringe-bound[mc]", check_fringe_bound_mc, True),
)


def run_all(fast: bool = False) -> bool:
    """Run every check (``fast`` skips the Monte Carlo ones); True iff all pass."""
    all_ok = True
    for name, fn, is_mc in CHECKS:
        if fast and is_mc:
            print(f"SKIP {name}")
            continue
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
