"""Reference routes the runtime is checked against; `run` and `sweep` never import it.

- The operator-sum route: full 4x4 density matrices, eigen-validated, with
  single-qubit Kraus channels applied per arm. ``to_density`` builds the
  matrix of an ``XState``; ``extract_xstate`` reads an X-form matrix back.
- The 16-dimensional projector route to the coincidence probabilities.
- The scalar inversion and error propagation behind ``protocol._invert_batch``.
- The complex full-plane dirty map, and ``find_peaks`` to count map peaks.
- Random valid states for property checks.

Matrices live in the basis |00>, |01>, |10>, |11> with the left network arm
as the most significant slot; constructed values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import protocol
from .channels import _check_probability, _coherence_survival
from .qcore import AstroVisibility, XState, wrap_phase

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIG_FLOOR = -1e-10
XFORM_TOL = 1e-12

__all__ = ["DensityMatrix4", "KrausChannel", "NotXFormError", "amplitude_from_delta",
           "amplitude_partials", "apply_independent_channels", "concurrence_wootters_x",
           "delta_p_uncertainty", "dirty_image_complex", "extract_xstate", "find_peaks",
           "kraus_amplitude_damping", "kraus_dephasing", "kraus_depolarizing",
           "make_astro_state", "make_bell_psi", "memory_dephasing_channel", "phase_from_ratio",
           "phase_ratio_derivative", "propagate_errors", "random_density", "random_xstate",
           "raw_probabilities_oracle", "solve_visibility", "to_density"]


# The operator-sum route.

class NotXFormError(ValueError):
    """A matrix has support outside the main and anti diagonals."""

    def __init__(self, worst_entry: float):
        self.worst_entry = worst_entry
        super().__init__(f"matrix is not of X form (largest off-pattern entry {worst_entry:.3e})")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix4:
    """4x4 two-qubit density matrix (Hermitian, unit trace, PSD).

    Positivity is checked with a Hermitian eigensolve; the minimum
    eigenvalue may dip to -1e-10 to allow for round-off in channel
    compositions.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max |M - M^H| = {herm:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr:.15g}, expected 1")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < PSD_EIG_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "entries", _readonly(m))


def to_density(x: XState) -> DensityMatrix4:
    """The density matrix of x, with the coherences where XState places them."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = x.a, x.g, x.f, x.h
    m[2, 1] = x.w_a * np.exp(1j * x.w_p)
    m[1, 2] = np.conj(m[2, 1])
    m[3, 0] = x.z_a * np.exp(1j * x.z_p)
    m[0, 3] = np.conj(m[3, 0])
    return DensityMatrix4(m)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A single-qubit CPTP map given by its operator-sum decomposition."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(_readonly(k) for k in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        acc = np.zeros((2, 2), dtype=complex)
        for k in ops:
            if k.shape != (2, 2):
                raise ValueError("Kraus operators must be 2x2")
            acc += k.conj().T @ k
        defect = np.max(np.abs(acc - np.eye(2)))
        if defect > HERMITICITY_TOL:
            raise ValueError(f"channel is not trace preserving (completeness defect {defect:.3e})")
        object.__setattr__(self, "operators", ops)


def make_bell_psi(delta: float) -> DensityMatrix4:
    """Maximally entangled one-photon state with controllable path phase.

    Populations 1/2 on |01> and |10>; the (|01>, |10>) entry carries
    exp(-i*delta), so the extracted inner-coherence phase equals delta.
    """
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = 0.5 * np.exp(-1j * delta)
    m[2, 1] = np.conj(m[1, 2])
    return DensityMatrix4(m)


def make_astro_state(v: AstroVisibility) -> DensityMatrix4:
    """Single-photon sky state whose inner coherence is the complex visibility."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = 0.5 * v.V_a * np.exp(1j * v.V_p)
    m[2, 1] = np.conj(m[1, 2])
    return DensityMatrix4(m)


def kraus_amplitude_damping(lam: float) -> KrausChannel:
    """Photon-loss channel: {diag(1, sqrt(1-lam)), sqrt(lam)|0><1|}."""
    lam = _check_probability("lambda", lam)
    k1 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    k2 = np.array([[0.0, math.sqrt(lam)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k1, k2))


def kraus_dephasing(mu: float) -> KrausChannel:
    """Phase-randomizing channel: {sqrt(1-mu) I, sqrt(mu)|0><0|, sqrt(mu)|1><1|}."""
    mu = _check_probability("mu", mu)
    k1 = math.sqrt(1.0 - mu) * np.eye(2, dtype=complex)
    k2 = np.array([[math.sqrt(mu), 0.0], [0.0, 0.0]], dtype=complex)
    k3 = np.array([[0.0, 0.0], [0.0, math.sqrt(mu)]], dtype=complex)
    return KrausChannel((k1, k2, k3))


def kraus_depolarizing(kappa: float) -> KrausChannel:
    """Isotropic Pauli channel: {sqrt(1-kappa) I} + sqrt(kappa/3) {X, Y, Z}."""
    kappa = _check_probability("kappa", kappa)
    s = math.sqrt(kappa / 3.0)
    k1 = math.sqrt(1.0 - kappa) * np.eye(2, dtype=complex)
    kx = s * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ky = s * np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    kz = s * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return KrausChannel((k1, kx, ky, kz))


def memory_dephasing_channel(t: float, tau_c: float) -> KrausChannel:
    """Single-qubit storage map: identity with probability p(t/2), else a Z flip."""
    p = 0.5 * (1.0 + _coherence_survival(0.5 * t, tau_c))
    k1 = math.sqrt(p) * np.eye(2, dtype=complex)
    k2 = math.sqrt(1.0 - p) * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return KrausChannel((k1, k2))


def apply_independent_channels(rho: DensityMatrix4, left: KrausChannel,
                               right: KrausChannel) -> DensityMatrix4:
    """Apply one channel per arm: rho -> sum_ij (Ki x Kj) rho (Ki x Kj)^dagger."""
    m = rho.entries
    out = np.zeros((4, 4), dtype=complex)
    for kl in left.operators:
        for kr in right.operators:
            op = np.kron(kl, kr)
            out += op @ m @ op.conj().T
    return DensityMatrix4(out)


_X_PATTERN = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)}


def extract_xstate(rho: DensityMatrix4) -> XState:
    """Read the eight X-form parameters off a density matrix.

    Populations come from the diagonal; coherence magnitudes are nonnegative
    with phases read from the lower-triangular entries, so a Bell state built
    with path phase delta reports w_p = delta. Raises NotXFormError if any
    entry off the main and anti diagonals exceeds XFORM_TOL.
    """
    m = rho.entries
    worst = 0.0
    for i in range(4):
        for j in range(4):
            if (i, j) not in _X_PATTERN:
                worst = max(worst, abs(m[i, j]))
    if worst > XFORM_TOL:
        raise NotXFormError(worst)
    w = m[2, 1]
    z = m[3, 0]
    return XState(
        a=float(m[0, 0].real), g=float(m[1, 1].real),
        f=float(m[2, 2].real), h=float(m[3, 3].real),
        w_a=float(abs(w)), w_p=wrap_phase(float(np.angle(w))),
        z_a=float(abs(z)), z_p=wrap_phase(float(np.angle(z))),
    )


def concurrence_wootters_x(x: XState) -> float:
    """Full-state concurrence of an X-form matrix: 2*max(0, w_a - sqrt(a*h), z_a - sqrt(g*f))."""
    inner = x.w_a - math.sqrt(max(x.a, 0.0) * max(x.h, 0.0))
    outer = x.z_a - math.sqrt(max(x.g, 0.0) * max(x.f, 0.0))
    return 2.0 * max(0.0, inner, outer)


def random_xstate(rng: np.random.Generator, with_outer: bool = True) -> XState:
    """Random valid X-form state (positive by construction)."""
    a, g, f, h = rng.dirichlet(np.ones(4))
    w_a = rng.uniform(0.0, 1.0) * math.sqrt(g * f)
    z_a = rng.uniform(0.0, 1.0) * math.sqrt(a * h) if with_outer else 0.0
    return XState(a=a, g=g, f=f, h=h,
                  w_a=w_a, w_p=rng.uniform(-math.pi, math.pi),
                  z_a=z_a, z_p=rng.uniform(-math.pi, math.pi))


def random_density(rng: np.random.Generator) -> DensityMatrix4:
    """Random full-rank two-qubit density matrix."""
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return DensityMatrix4(rho / rho.trace())


# The projector route.

def _detector_projector(sign: int) -> np.ndarray:
    # (|1_A 0_X> + sign |0_A 1_X>)/sqrt(2) on one telescope's (sky, network) pair
    v = np.zeros(4, dtype=complex)
    v[2] = 1.0
    v[1] = float(sign)
    v /= math.sqrt(2.0)
    return np.outer(v, v.conj())


def raw_probabilities_oracle(rho_A: DensityMatrix4,
                             rho_X: DensityMatrix4) -> tuple[float, float]:
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


# The dirty map.

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


def find_peaks(intensity) -> list:
    """Indices of strict local maxima at least half the global maximum."""
    arr = np.asarray(intensity, dtype=float)
    if arr.size < 3:
        return []
    mid = arr[1:-1]
    peak = (mid > arr[:-2]) & (mid > arr[2:]) & (mid >= 0.5 * arr.max())
    return (np.flatnonzero(peak) + 1).tolist()
