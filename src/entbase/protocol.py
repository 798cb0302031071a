"""Local-detection measurement protocol and visibility estimation.

Coincidence statistics between the beam-splitter detectors at the two
telescopes (closed form and a 16-dimensional projector oracle), seeded
binomial click sampling, inversion of two phase settings into a complex
visibility estimate, and one-sigma error propagation with the associated
resource scaling laws. ``run_replicates`` runs many independent
replicates of one observation as array maths on a single generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    AstroVisibility,
    DegenerateResourceError,
    DensityMatrix4,
    XState,
    concurrence_subspace,
    subspace_weight,
    wrap_phase,
)

__all__ = [
    "DegeneratePhasesError",
    "DetectionCounts",
    "PhaseSettings",
    "ScalingLaws",
    "VisibilityEstimate",
    "ZeroConcurrenceError",
    "amplitude_from_delta",
    "amplitude_partials",
    "delta_p",
    "delta_p_uncertainty",
    "derive_seed",
    "postselect",
    "propagate_errors",
    "raw_probabilities",
    "raw_probabilities_oracle",
    "replicate_rmse",
    "run_observation",
    "run_replicates",
    "sample_counts",
    "scaling_laws",
    "solve_visibility",
]

MIN_PHASE_SEPARATION = 1e-6
MAX_TRIALS = int(np.iinfo(np.int64).max)  # largest N numpy's binomial sampler accepts
REPLICATE_CHUNK = 1 << 13  # replicates per run_replicates call in replicate_rmse


class ZeroConcurrenceError(ValueError):
    """The resource carries no coherence: the visibility amplitude is unrecoverable."""


class DegeneratePhasesError(ValueError):
    """The two phase settings do not span the fringe; the linear system is singular."""


@dataclass(frozen=True)
class PhaseSettings:
    """The two controllable resource-phase offsets used to invert the fringe."""

    w1: float
    w2: float

    def __post_init__(self):
        if not (math.isfinite(self.w1) and math.isfinite(self.w2)):
            raise DegeneratePhasesError("phase settings must be finite")
        if abs(math.sin(self.w2 - self.w1)) < MIN_PHASE_SEPARATION:
            raise DegeneratePhasesError(
                f"settings {self.w1}, {self.w2} are degenerate (|sin(w2-w1)| < {MIN_PHASE_SEPARATION})")


@dataclass(frozen=True)
class DetectionCounts:
    """Tally of correlated vs anti-correlated clicks at one phase setting."""

    n_c: int
    n_ac: int
    N: int

    def __post_init__(self):
        if self.n_c < 0 or self.n_ac < 0:
            raise ValueError("counts must be nonnegative")
        if self.n_c + self.n_ac != self.N:
            raise ValueError(f"n_c + n_ac = {self.n_c + self.n_ac} != N = {self.N}")


@dataclass(frozen=True)
class VisibilityEstimate:
    """Point estimates with one-sigma errors plus the resource figures used.

    From run_replicates the four estimate fields are (K,) arrays, one entry
    per replicate; in an ObservationReport every field but N_used is an (n,)
    array, one entry per baseline.
    """

    V_a_hat: float
    V_p_hat: float
    dV_a: float
    dV_p: float
    N_used: int
    C_used: float
    xi_used: float


def raw_probabilities(v: AstroVisibility, x: XState) -> tuple[float, float]:
    """Unnormalized coincidence probabilities (correlated, anti-correlated).

    q_c  = (g + f - 2 V_a w_a cos(V_p - w_p)) / 4
    q_ac = (g + f + 2 V_a w_a cos(V_p - w_p)) / 4

    Both lie in [0, 1/2] and sum to (g + f) / 2, the coincidence fraction.
    """
    xi = x.g + x.f
    fringe = 2.0 * v.V_a * x.w_a * math.cos(v.V_p - x.w_p)
    q_c = 0.25 * (xi - fringe)
    q_ac = 0.25 * (xi + fringe)
    return q_c, q_ac


def _detector_projector(sign: int) -> np.ndarray:
    # (|1_A 0_X> + sign |0_A 1_X>)/sqrt(2) on one telescope's (sky, network) pair
    v = np.zeros(4, dtype=complex)
    v[2] = 1.0
    v[1] = float(sign)
    v /= math.sqrt(2.0)
    return np.outer(v, v.conj())


def raw_probabilities_oracle(rho_A: DensityMatrix4, rho_X: DensityMatrix4) -> tuple[float, float]:
    """Coincidence probabilities from explicit projectors on the 16-dim product state.

    Builds rho_A (x) rho_X over the mode order (sky-left, sky-right,
    network-left, network-right), permutes indices so each telescope's
    (sky, network) pair is contiguous, and takes expectation values of
    projectors onto the one-photon beam-splitter output states
    (|10> +/- |01>)/sqrt(2) at each site.

    Two labeling conventions are fixed so the statistics match the closed
    form in :func:`raw_probabilities` for X-form resources: the network
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


def postselect(q_c: float, q_ac: float) -> tuple[float, float]:
    """Normalize on coincidences: p_c = q_c / (q_c + q_ac), p_ac = 1 - p_c."""
    total = q_c + q_ac
    if total <= 0.0:
        raise DegenerateResourceError("no coincidence probability to postselect on")
    p_c = q_c / total
    return p_c, 1.0 - p_c


def derive_seed(master: int, *path: int) -> int:
    """Deterministic per-task seed: hash of (master, *path) via SeedSequence.

    Sub-tasks seeded this way are statistically independent and the
    assignment does not depend on scheduling order.
    """
    ss = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_counts(p_c: float, N: int, seed: int) -> DetectionCounts:
    """Draw n_c ~ Binomial(N, p_c) from a seeded generator; reproducible."""
    if N < 1:
        raise ValueError("need at least one trial")
    if not (0.0 <= p_c <= 1.0):
        raise ValueError(f"p_c = {p_c} outside [0, 1]")
    rng = np.random.default_rng(seed)
    n_c = int(rng.binomial(N, p_c))
    return DetectionCounts(n_c=n_c, n_ac=N - n_c, N=N)


def delta_p(counts: DetectionCounts) -> float:
    """Fringe estimator (n_ac - n_c) / N; estimates V_a C cos(V_p - w_p)."""
    return (counts.n_ac - counts.n_c) / counts.N


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


def solve_visibility(dp1: float, dp2: float, ph: PhaseSettings, C: float) -> tuple[float, float]:
    """Invert two fringe measurements into (V_a, V_p).

    Solves the linear system dp_i = c*cos(w_i) + s*sin(w_i) for
    c = V_a C cos(V_p) and s = V_a C sin(V_p), then V_p = atan2(s, c)
    (full quadrant) and V_a = hypot(c, s)/C. When both fringes vanish
    the phase is undefined and reported as 0 by convention.
    """
    if C <= 0.0:
        raise ZeroConcurrenceError("C <= 0: visibility amplitude is unrecoverable")
    det = math.sin(ph.w2 - ph.w1)
    if abs(det) < MIN_PHASE_SEPARATION:
        raise DegeneratePhasesError("phase settings are degenerate")
    c = (dp1 * math.sin(ph.w2) - dp2 * math.sin(ph.w1)) / det
    s = (dp2 * math.cos(ph.w1) - dp1 * math.cos(ph.w2)) / det
    amp = math.hypot(c, s)
    if amp == 0.0:
        return 0.0, 0.0
    return amp / C, wrap_phase(math.atan2(s, c))


def amplitude_from_delta(dp: float, V_p: float, C: float, w: float) -> float:
    """Visibility amplitude from a single setting: dp / (C cos(V_p - w))."""
    return dp / (C * math.cos(V_p - w))


def amplitude_partials(dp: float, V_p: float, C: float, w: float) -> tuple[float, float]:
    """(d V_a / d dp, d V_a / d V_p) for the single-setting amplitude formula."""
    cosw = math.cos(V_p - w)
    d_dp = 1.0 / (C * cosw)
    d_vp = dp * math.sin(V_p - w) / (C * cosw * cosw)
    return d_dp, d_vp


def propagate_errors(dp1: float, dp2: float, N: int, ph: PhaseSettings,
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
        raise ZeroConcurrenceError("C <= 0: visibility amplitude is unrecoverable")
    det = math.sin(ph.w2 - ph.w1)
    if abs(det) < MIN_PHASE_SEPARATION:
        raise DegeneratePhasesError("phase settings are degenerate")
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


@dataclass(frozen=True)
class ScalingLaws:
    """Trend-only error scales (unspecified constants) for a resource family."""

    dV_a_scale: float
    dV_p_scale: float
    diverged: bool = False


def scaling_laws(x: XState, R_X: float) -> ScalingLaws:
    """Trend scales 1/(C sqrt(xi R_X)) and 1/sqrt(xi R_X) of the visibility errors.

    Evaluated at the resource x, e.g. a channel family's closed-form state,
    which reproduces the per-channel expressions in terms of the loss
    parameters. No supplied photons (R_X = 0) or no coincidence weight
    (xi = 0) makes both scales diverge, a vanishing concurrence (for
    isotropic noise, x -> 1/4) the amplitude scale; that is reported via
    the flag rather than an exception.
    """
    if R_X < 0.0:
        raise ValueError("R_X must be nonnegative")
    xi = subspace_weight(x)
    if R_X == 0.0 or xi <= 0.0:
        return ScalingLaws(math.inf, math.inf, diverged=True)
    conc = concurrence_subspace(x)
    dv_p = 1.0 / math.sqrt(xi * R_X)
    if conc <= 0.0:
        return ScalingLaws(math.inf, dv_p, diverged=True)
    return ScalingLaws(dv_p / conc, dv_p, diverged=False)


def _setting_probabilities(v_true: AstroVisibility, x: XState,
                           ph: PhaseSettings) -> tuple[float, float, PhaseSettings, list]:
    """(xi, C, effective settings, (p_c1, p_c2)) of one observation of v_true with x.

    The effective settings add the resource's own phase to ph; p_ci is the
    postselected correlated-click probability at setting i.
    """
    xi = subspace_weight(x)
    conc = concurrence_subspace(x)  # raises DegenerateResourceError when xi = 0
    if conc <= 0.0:
        raise ZeroConcurrenceError("resource concurrence is zero")
    effective = PhaseSettings(x.w_p + ph.w1, x.w_p + ph.w2)
    p_cs = []
    for offset in (ph.w1, ph.w2):
        q_c, q_ac = raw_probabilities(v_true, x.with_phase_offset(offset))
        p_c, _ = postselect(q_c, q_ac)
        if not (0.0 <= p_c <= 1.0):
            raise ValueError(f"p_c = {p_c} outside [0, 1]")
        p_cs.append(p_c)
    return xi, conc, effective, p_cs


def run_observation(v_true: AstroVisibility, x: XState, ph: PhaseSettings,
                    N_per_setting: int, seed: int) -> VisibilityEstimate:
    """Simulate the full protocol at two phase settings and invert the counts.

    Each setting adds a known offset to the resource's coherence phase,
    draws an independent postselected ensemble of N_per_setting trials,
    and the two fringe estimates are inverted with the effective phases.
    Deterministic for a fixed seed; per-setting streams come from
    derive_seed(seed, i) for setting i.
    """
    xi, conc, effective, p_cs = _setting_probabilities(v_true, x, ph)
    dps = [delta_p(sample_counts(p_c, N_per_setting, derive_seed(seed, index)))
           for index, p_c in enumerate(p_cs, start=1)]
    v_a, v_p = solve_visibility(dps[0], dps[1], effective, conc)
    dv_a, dv_p = propagate_errors(dps[0], dps[1], N_per_setting, effective, conc)
    return VisibilityEstimate(V_a_hat=v_a, V_p_hat=v_p, dV_a=dv_a, dV_p=dv_p,
                              N_used=N_per_setting, C_used=conc, xi_used=xi)


def _wrap_phases(phi: np.ndarray) -> np.ndarray:
    """wrap_phase for arrays of angles in [-3 pi, 3 pi]; exact there (one 2 pi shift)."""
    two_pi = 2.0 * math.pi
    phi = np.where(phi > math.pi, phi - two_pi, phi)
    return np.where(phi <= -math.pi, phi + two_pi, phi)


def _invert_batch(dp1: np.ndarray, dp2: np.ndarray, N: int, ph: PhaseSettings,
                  C: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """solve_visibility and propagate_errors applied elementwise to fringe arrays.

    Returns (V_a, V_p, dV_a, dV_p); the same formulas and branch choices as
    the scalar functions, including the first setting winning a tie. Needs
    C > 0; PhaseSettings already rejects degenerate settings.
    """
    det = math.sin(ph.w2 - ph.w1)
    sqrt_n = math.sqrt(N)

    def fringe_error(dp):
        p_smooth = (N * (0.5 * (1.0 + dp)) + 1.0) / (N + 2.0)
        return 2.0 * np.sqrt(p_smooth * (1.0 - p_smooth)) / sqrt_n

    d1, d2 = fringe_error(dp1), fringe_error(dp2)
    c = (dp1 * math.sin(ph.w2) - dp2 * math.sin(ph.w1)) / det
    s = (dp2 * math.cos(ph.w1) - dp1 * math.cos(ph.w2)) / det
    amp = np.hypot(c, s)
    v_p = np.arctan2(s, c)
    v_p_hat = np.where(amp == 0.0, 0.0, _wrap_phases(v_p))
    amp_sq = c * c + s * s
    dead = amp_sq == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        dv_p = np.minimum(math.pi, np.hypot(dp2 * d1, dp1 * d2) / (amp_sq * abs(det)))
        # amplitude error at the setting where the fringe is best conditioned
        # (both fringes zero: at the conventional phase 0, with dV_p = pi)
        phase = np.where(dead, 0.0, v_p)
        cos1, cos2 = np.cos(phase - ph.w1), np.cos(phase - ph.w2)
        first = np.abs(cos1) >= np.abs(cos2)
        dp_b = np.where(first, dp1, dp2)
        d_b = np.where(first, d1, d2)
        cosw = np.where(first, cos1, cos2)
        sinw = np.sin(phase - np.where(first, ph.w1, ph.w2))
        d_dp = 1.0 / (C * cosw)
        d_vp = dp_b * sinw / (C * cosw * cosw)
        dv_a = np.where(dead, d_b / (C * np.abs(cosw)), np.hypot(d_dp * d_b, d_vp * dv_p))
    return amp / C, v_p_hat, dv_a, np.where(dead, math.pi, dv_p)


def run_replicates(v_true: AstroVisibility, x: XState, ph: PhaseSettings,
                   N_per_setting: int, replicates: int,
                   rng: np.random.Generator) -> VisibilityEstimate:
    """run_observation repeated `replicates` times as one array computation.

    Both settings' postselected p_c are computed once; the click counts of
    every replicate come from one rng.binomial draw of shape
    (replicates, 2), consumed row by row, so splitting a run into
    consecutive calls on the same generator reproduces it exactly. The
    estimate fields of the result are (replicates,) arrays.
    """
    if N_per_setting < 1:
        raise ValueError("need at least one trial")
    xi, conc, effective, p_cs = _setting_probabilities(v_true, x, ph)
    n_c = rng.binomial(N_per_setting, p_cs, size=(replicates, 2))
    dp = ((N_per_setting - n_c) - n_c) / N_per_setting  # (n_ac - n_c) / N, no int64 overflow
    v_a, v_p, dv_a, dv_p = _invert_batch(dp[:, 0], dp[:, 1], N_per_setting, effective, conc)
    return VisibilityEstimate(V_a_hat=v_a, V_p_hat=v_p, dV_a=dv_a, dV_p=dv_p,
                              N_used=N_per_setting, C_used=conc, xi_used=xi)


def replicate_rmse(v_true: AstroVisibility, x: XState, ph: PhaseSettings,
                   N_per_setting: int, replicates: int,
                   rng: np.random.Generator) -> tuple[float, float]:
    """Root-mean-square errors of (V_a_hat, V_p_hat) over Monte Carlo replicates.

    Replicates are drawn REPLICATE_CHUNK at a time from rng, so memory
    stays flat however many are asked for; phase errors are wrapped to
    (-pi, pi].
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    sq_a = sq_p = 0.0
    for start in range(0, replicates, REPLICATE_CHUNK):
        est = run_replicates(v_true, x, ph, N_per_setting,
                             min(REPLICATE_CHUNK, replicates - start), rng)
        sq_a += float(np.sum(np.square(est.V_a_hat - v_true.V_a)))
        sq_p += float(np.sum(np.square(_wrap_phases(est.V_p_hat - v_true.V_p))))
    return math.sqrt(sq_a / replicates), math.sqrt(sq_p / replicates)
