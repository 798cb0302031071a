"""Sky models, forward visibility, dirty-map reconstruction, error reporting.

One-dimensional, small-angle, monochromatic scalar imaging: the complex
visibility is the flux-normalized Fourier transform of the source
distribution, and intensity is recovered by a plain truncated inverse sum
over the sampled baselines (no deconvolution; sidelobes are expected).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channels import RateModel
# module-level names on purpose: the benchmark tracer rebinds them to time the protocol layer
from .protocol import PhaseSettings, derive_seed, run_observation
from .qcore import (
    AstroVisibility,
    DegenerateResourceError,
    XState,
    concurrence_subspace,
    subspace_weight,
)

__all__ = [
    "BaselinePlan",
    "IntensityError",
    "ObservationReport",
    "SkyModel",
    "VisibilitySample",
    "default_theta_grid",
    "find_peaks",
    "intensity_error",
    "observe_and_image",
    "reconstruct_intensity",
    "resolution",
    "resource_figures",
    "sky_intensity_on_grid",
    "true_visibility",
]

MAX_SOURCE_OFFSET = 0.1  # small-angle regime bound, radians


@dataclass(frozen=True)
class SkyModel:
    """Incoherent point sources: (angle offset [rad], flux) pairs plus the wavelength."""

    sources: tuple
    wavelength: float

    def __post_init__(self):
        sources = tuple((float(t), float(fl)) for t, fl in self.sources)
        if not sources:
            raise ValueError("sky needs at least one source")
        for i, (theta, flux) in enumerate(sources):
            if abs(theta) > MAX_SOURCE_OFFSET:
                raise ValueError(f"source {i}: offset {theta} outside the small-angle regime "
                                 f"(|theta| <= {MAX_SOURCE_OFFSET})")
            if flux < 0.0:
                raise ValueError(f"source {i}: flux {flux} must be nonnegative")
        if sum(fl for _, fl in sources) <= 0.0:
            raise ValueError("total flux must be positive")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        object.__setattr__(self, "sources", sources)

    @property
    def total_flux(self) -> float:
        return sum(fl for _, fl in self.sources)


@dataclass(frozen=True)
class BaselinePlan:
    """Strictly increasing positive baselines; the last one is the maximum B_m."""

    baselines: tuple

    def __post_init__(self):
        bs = tuple(float(b) for b in self.baselines)
        if not bs:
            raise ValueError("baseline plan is empty")
        if bs[0] <= 0.0:
            raise ValueError("baselines must be positive")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("baselines must be strictly increasing")
        object.__setattr__(self, "baselines", bs)

    @property
    def B_m(self) -> float:
        return self.baselines[-1]

    @classmethod
    def linear(cls, B_max: float, count: int) -> "BaselinePlan":
        if B_max <= 0.0 or count < 1:
            raise ValueError("need B_max > 0 and count >= 1")
        return cls(tuple(B_max * k / count for k in range(1, count + 1)))


@dataclass(frozen=True)
class VisibilitySample:
    """One (possibly noisy) visibility value at a baseline; dV = 0 marks exact values."""

    B: float
    V: complex
    dV_a: float = 0.0
    dV_p: float = 0.0

    def __post_init__(self):
        if self.dV_a < 0.0 or self.dV_p < 0.0:
            raise ValueError("errors must be nonnegative")
        if abs(self.V) > 1.0 + 3.0 * self.dV_a + 1e-12:
            raise ValueError(f"|V| = {abs(self.V)} inconsistent with dV_a = {self.dV_a}")


def true_visibility(sky: SkyModel, B: float) -> complex:
    """Flux-normalized visibility sum_k I_k exp(-2 pi i B theta_k / lambda) / sum_k I_k."""
    acc = 0.0 + 0.0j
    for theta, flux in sky.sources:
        acc += flux * cmath.exp(-2j * math.pi * B * theta / sky.wavelength)
    return acc / sky.total_flux


def _dirty_image_complex(samples, theta_grid: np.ndarray, wavelength: float) -> np.ndarray:
    """Trapezoid inverse sum over the Hermitian-extended baseline set (unnormalized)."""
    ordered = sorted(samples, key=lambda s: s.B)
    b_pos = np.array([s.B for s in ordered])
    v_pos = np.array([s.V for s in ordered], dtype=complex)
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


def reconstruct_intensity(samples, theta_grid, wavelength: float) -> np.ndarray:
    """Dirty intensity map from visibility samples, normalized to unit sum.

    Parameters
    ----------
    samples : iterable of VisibilitySample
        At least two samples at distinct positive baselines.
    theta_grid : array of float
        Sorted observation angles (radians) to evaluate on.
    wavelength : float
        Observation wavelength in the baseline's length unit.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two visibility samples")
    theta = np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or theta.size < 2 or np.any(np.diff(theta) <= 0.0):
        raise ValueError("theta grid must be a sorted 1-D array of distinct angles")
    image = _dirty_image_complex(samples, theta, wavelength).real
    total = image.sum()
    if total <= 0.0:
        raise ValueError("reconstruction has nonpositive total intensity")
    return image / total


def resolution(B_m: float, lam: float) -> float:
    """Smallest resolvable angular separation for maximum baseline B_m: lambda / (2 B_m)."""
    if B_m <= 0.0 or lam <= 0.0:
        raise ValueError("baseline and wavelength must be positive")
    return lam / (2.0 * B_m)


# Above this concurrence the phase error dominates the intensity error budget.
PHASE_LIMITED_CONCURRENCE = 0.9


@dataclass(frozen=True)
class IntensityError:
    """First-order intensity error: empirical value, resource scale, dominant regime."""

    dI: float
    scale: float
    regime: str


def intensity_error(dV_a: float, dV_p: float, C: float, xi: float) -> IntensityError:
    """Combine worst-case visibility errors into the intensity error estimate.

    dI = sqrt(dV_a^2 + dV_p^2); the resource scale is
    sqrt(C^2 + 1) / (C sqrt(xi)), diverging as the concurrence vanishes.
    """
    if dV_a < 0.0 or dV_p < 0.0:
        raise ValueError("errors must be nonnegative")
    if xi <= 0.0:
        raise ValueError("subspace weight must be positive")
    d_i = math.hypot(dV_a, dV_p)
    if C <= 0.0:
        return IntensityError(dI=d_i, scale=math.inf, regime="amplitude-limited")
    scale = math.sqrt(C * C + 1.0) / (C * math.sqrt(xi))
    regime = "phase-limited" if C >= PHASE_LIMITED_CONCURRENCE else "amplitude-limited"
    return IntensityError(dI=d_i, scale=scale, regime=regime)


def default_theta_grid(sky: SkyModel, B_m: float, points_per_beam: int = 8,
                       max_points: int = 1024) -> np.ndarray:
    """Symmetric grid covering the sources plus a few beam widths, beam oversampled."""
    beam = resolution(B_m, sky.wavelength)
    extent = max(abs(t) for t, _ in sky.sources)
    half_span = 1.5 * extent + 3.0 * beam
    step = beam / points_per_beam
    n_half = min((max_points - 1) // 2, max(8, int(math.ceil(half_span / step))))
    return np.linspace(-half_span, half_span, 2 * n_half + 1)


def sky_intensity_on_grid(sky: SkyModel, theta_grid) -> np.ndarray:
    """Nearest-cell deposit of the source fluxes, normalized to unit sum."""
    theta = np.asarray(theta_grid, dtype=float)
    out = np.zeros_like(theta)
    for t, flux in sky.sources:
        out[int(np.argmin(np.abs(theta - t)))] += flux
    return out / out.sum()


def find_peaks(intensity, rel_threshold: float = 0.5) -> list:
    """Indices of strict local maxima at least rel_threshold of the global maximum."""
    arr = np.asarray(intensity, dtype=float)
    if arr.size < 3:
        return []
    floor = rel_threshold * arr.max()
    peaks = []
    for j in range(1, arr.size - 1):
        if arr[j] > arr[j - 1] and arr[j] > arr[j + 1] and arr[j] >= floor:
            peaks.append(j)
    return peaks


@dataclass(eq=False)
class ObservationReport:
    """Everything produced by one end-to-end observation run."""

    baselines: tuple
    v_true: tuple                 # complex, per baseline
    estimates: tuple              # VisibilityEstimate, per baseline
    samples_exact: tuple          # VisibilitySample with dV = 0
    samples_est: tuple            # VisibilitySample from the Monte Carlo estimates
    xi: tuple
    concurrence: tuple
    rate_norm: tuple              # R_M / (R_E R_T), per baseline
    rate_abs: tuple
    theta_grid: np.ndarray
    intensity_true: np.ndarray
    intensity_exact: np.ndarray
    intensity_est: np.ndarray
    resolution: float
    error: IntensityError
    low_confidence: bool
    n_per_setting: int
    seed: int


def resource_figures(x: XState, B: float, rates: RateModel,
                     rate_norm_fn) -> tuple[float, float, float, float]:
    """(xi, C, R_M_norm, R_M) of the resource x at baseline B.

    R_M_norm is the coincidence fraction R_M / (R_E R_T): xi/2, unless
    rate_norm_fn is not None and overrides it with rate_norm_fn(B, xi)
    (e.g. a tabulated repeater-chain rate). C is nan for a dead resource
    (xi = 0).
    """
    xi = subspace_weight(x)
    try:
        conc = concurrence_subspace(x)
    except DegenerateResourceError:
        conc = math.nan
    r_norm = 0.5 * xi if rate_norm_fn is None else rate_norm_fn(B, xi)
    return xi, conc, r_norm, r_norm * rates.R_E * rates.R_T


# Error bars beyond these are treated as carrying no usable information.
LOW_CONFIDENCE_DVA = 0.5
LOW_CONFIDENCE_DVP = 0.5 * math.pi


def observe_and_image(sky: SkyModel, plan: BaselinePlan, resource_factory,
                      settings: PhaseSettings, n_per_setting: int, seed: int,
                      rates: RateModel, theta_grid=None,
                      rate_norm_fn=None) -> ObservationReport:
    """Full pipeline: per-baseline protocol runs, then dirty-map reconstruction.

    resource_factory maps a baseline to the XState supplied by the network
    at that separation. Per-baseline seeds derive from the master seed by
    index, so results are independent of execution order. rate_norm_fn is
    passed to resource_figures.
    """
    if theta_grid is None:
        theta_grid = default_theta_grid(sky, plan.B_m)
    theta_grid = np.asarray(theta_grid, dtype=float)
    v_true, estimates, samples_exact, samples_est = [], [], [], []
    xis, concs, rate_norms, rate_abss = [], [], [], []
    for idx, B in enumerate(plan.baselines):
        v_c = true_visibility(sky, B)
        x = resource_factory(B)
        xi, conc, norm, r_abs = resource_figures(x, B, rates, rate_norm_fn)
        v = AstroVisibility(abs(v_c), cmath.phase(v_c))
        # raises DegenerateResourceError for a dead resource (C = nan above)
        est = run_observation(v, x, settings, n_per_setting, derive_seed(seed, idx))
        v_true.append(v_c)
        estimates.append(est)
        samples_exact.append(VisibilitySample(B, v_c))
        samples_est.append(VisibilitySample(
            B, est.V_a_hat * cmath.exp(1j * est.V_p_hat), est.dV_a, est.dV_p))
        xis.append(xi)
        concs.append(conc)
        rate_norms.append(norm)
        rate_abss.append(r_abs)

    intensity_exact = reconstruct_intensity(samples_exact, theta_grid, sky.wavelength)
    intensity_est = reconstruct_intensity(samples_est, theta_grid, sky.wavelength)
    intensity_true = sky_intensity_on_grid(sky, theta_grid)
    max_dva = max(e.dV_a for e in estimates)
    max_dvp = max(e.dV_p for e in estimates)
    err = intensity_error(max_dva, max_dvp, min(concs), min(xis))
    return ObservationReport(
        baselines=tuple(plan.baselines),
        v_true=tuple(v_true),
        estimates=tuple(estimates),
        samples_exact=tuple(samples_exact),
        samples_est=tuple(samples_est),
        xi=tuple(xis),
        concurrence=tuple(concs),
        rate_norm=tuple(rate_norms),
        rate_abs=tuple(rate_abss),
        theta_grid=theta_grid,
        intensity_true=intensity_true,
        intensity_exact=intensity_exact,
        intensity_est=intensity_est,
        resolution=resolution(plan.B_m, sky.wavelength),
        error=err,
        low_confidence=(max_dva > LOW_CONFIDENCE_DVA or max_dvp > LOW_CONFIDENCE_DVP),
        n_per_setting=n_per_setting,
        seed=seed,
    )
