"""Sky models, forward visibility, dirty-map reconstruction.

One-dimensional, small-angle, monochromatic scalar imaging: the complex
visibility is the flux-normalized Fourier transform of the source
distribution, and intensity is recovered by a plain truncated inverse sum
over the sampled baselines (no deconvolution; sidelobes are expected).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# module-level names on purpose: the benchmark tracer rebinds them to time the protocol layer
from .protocol import PhaseSettings, VisibilityEstimate, derive_seed, run_observation
from .qcore import AstroVisibility, XState

__all__ = [
    "BaselinePlan",
    "NonPositiveMapError",
    "ObservationReport",
    "SkyModel",
    "default_theta_grid",
    "default_theta_span",
    "observe_and_image",
    "reconstruct_intensity",
    "resolution",
    "sky_intensity_on_grid",
    "true_visibility",
]

MAX_SOURCE_OFFSET = 0.1  # small-angle regime bound, radians


class NonPositiveMapError(ValueError):
    """A dirty map with no positive total over its grid, so it cannot be normalized.

    The map of the estimates meets it when they are far noisier than |V| <= 1,
    as at a concurrence near 0.
    """


@dataclass(frozen=True)
class SkyModel:
    """Incoherent point sources: (angle offset [rad], flux) pairs plus the wavelength."""

    sources: tuple
    wavelength: float
    # sum of the source fluxes, in source order; set once at construction
    total_flux: float = field(init=False, repr=False, compare=False)

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
        total_flux = sum(fl for _, fl in sources)
        if total_flux <= 0.0:
            raise ValueError("total flux must be positive")
        if total_flux == math.inf:  # the visibility would divide by it
            raise ValueError("total flux overflows")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "total_flux", total_flux)

    @property
    def extent(self) -> float:
        """Largest source offset |theta|: a grid must reach it to hold the sky."""
        return max(abs(t) for t, _ in self.sources)

    def max_phase(self, B: float) -> float:
        """The largest |2 pi B theta / lambda| of true_visibility at B, in its order of
        operations: not finite exactly where one of its phases overflows."""
        return 2.0 * math.pi * B * self.extent / self.wavelength


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


def true_visibility(sky: SkyModel, B: float) -> complex:
    """Flux-normalized visibility sum_k I_k exp(-2 pi i B theta_k / lambda) / sum_k I_k."""
    acc = 0.0 + 0.0j
    for theta, flux in sky.sources:
        acc += flux * cmath.exp(-2j * math.pi * B * theta / sky.wavelength)
    return acc / sky.total_flux


# cells per array of the dirty map's rotation block (theta rows x positive
# baselines, one cos and one sin array): bounds its memory
MAP_BLOCK_CELLS = 1 << 18
# largest departure of a theta grid's steps from its mean step, relative to that step
GRID_SPACING_RTOL = 1e-9


def _dirty_map(baselines: np.ndarray, visibilities: np.ndarray, theta: np.ndarray,
               wavelength: float) -> np.ndarray:
    """Unnormalized trapezoid inverse sum over the Hermitian-extended baseline set.

    The negative half is V(-B) = conj(V(B)) and the zero baseline is pinned to
    the total flux, so the complex sum folds to the real one
    w0 + 2 Re sum_{b>0} w_b V_b exp(i k_b theta), k_b = 2 pi b / lambda,
    with w0 = b_1 and w_b the trapezoid weights of the positive half.

    theta must be uniformly spaced, theta_j = theta_0 + j step. Then
    exp(i k_b theta_{j0 + r}) = exp(i k_b theta_{j0}) exp(i k_b r step): one
    rotation block D = exp(i outer(r step, k)), r < rows, is built once, and
    each block of rows starting at j0 costs only its anchor
    a_b = w_b V_b exp(i k_b theta_{j0}) and the real product
    Re D @ a = D_re @ a.real - D_im @ a.imag. With rows of about sqrt(n_theta)
    that is ~2 sqrt(n_theta) n_b trig evaluations instead of 2 n_theta n_b.
    D holds at most MAP_BLOCK_CELLS cells per array (one row at least), so
    memory does not grow with n_theta x n_baselines.
    """
    order = np.argsort(baselines)
    b_pos = baselines[order]
    v_pos = visibilities[order]
    if len(b_pos) and b_pos[0] <= 0.0:
        raise ValueError("samples must sit at positive baselines")
    if np.any(np.diff(b_pos) <= 0.0):
        raise ValueError("samples must sit at distinct baselines")
    # trapezoid weights on 0, b_1, ..., b_n; the zero baseline's own weight is b_1
    weights = 0.5 * (np.append(b_pos[1:], b_pos[-1]) - np.append(0.0, b_pos[:-1]))
    weighted = weights * v_pos
    k = (2.0 * math.pi / wavelength) * b_pos
    n = theta.size
    step = (theta[-1] - theta[0]) / (n - 1)
    rows = max(1, min(n, MAP_BLOCK_CELLS // b_pos.size, math.isqrt(n - 1) + 1))
    rotation = np.outer(np.arange(rows) * step, k)
    d_re = np.cos(rotation)
    d_im = np.sin(rotation, out=rotation)
    image = np.empty(n)
    for start in range(0, n, rows):
        anchor = weighted * np.exp(1j * theta[start] * k)
        m = min(rows, n - start)
        image[start:start + m] = d_re[:m] @ anchor.real - d_im[:m] @ anchor.imag
    return b_pos[0] + 2.0 * image


def reconstruct_intensity(baselines, visibilities, theta_grid,
                          wavelength: float) -> np.ndarray:
    """Dirty intensity map from visibility samples, normalized to unit sum.

    Parameters
    ----------
    baselines : array of float
        At least two distinct positive baselines, in any order.
    visibilities : array of complex
        The visibility measured at each baseline, same length.
    theta_grid : array of float
        Sorted, uniformly spaced observation angles (radians) to evaluate on,
        such as an ``np.linspace``; the steps may depart from their mean by
        at most GRID_SPACING_RTOL of it.
    wavelength : float
        Observation wavelength in the baseline's length unit.

    Raises NonPositiveMapError when the map's total over the grid is not
    positive.
    """
    b = np.asarray(baselines, dtype=float)
    v = np.asarray(visibilities, dtype=complex)
    if b.ndim != 1 or b.shape != v.shape:
        raise ValueError("baselines and visibilities must be 1-D arrays of one length")
    if b.size < 2:
        raise ValueError("need at least two visibility samples")
    theta = np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or theta.size < 2 or np.any(np.diff(theta) <= 0.0):
        raise ValueError("theta grid must be a sorted 1-D array of distinct angles")
    step = (theta[-1] - theta[0]) / (theta.size - 1)
    if np.max(np.abs(np.diff(theta) - step)) > GRID_SPACING_RTOL * step:
        raise ValueError("theta grid must be uniformly spaced")
    image = _dirty_map(b, v, theta, wavelength)
    total = image.sum()
    if not total > 0.0:
        raise NonPositiveMapError(f"reconstruction has nonpositive total intensity {total}")
    return image / total


def resolution(B_m: float, lam: float) -> float:
    """Smallest resolvable angular separation for maximum baseline B_m: lambda / (2 B_m)."""
    if B_m <= 0.0 or lam <= 0.0:
        raise ValueError("baseline and wavelength must be positive")
    return lam / (2.0 * B_m)


# default grid: cells per beam width, and the cap on its size
GRID_POINTS_PER_BEAM = 8
GRID_MAX_POINTS = 1024


def default_theta_span(sky: SkyModel, B_m: float) -> tuple[float, int]:
    """(half_span, count) of the default grid; half_span is inf for a beam past the float range."""
    beam = resolution(B_m, sky.wavelength)
    half_span = 1.5 * sky.extent + 3.0 * beam
    step = beam / GRID_POINTS_PER_BEAM
    cells = half_span / step if step > 0.0 else math.inf
    cap = (GRID_MAX_POINTS - 1) // 2  # also for an inf or nan count of cells
    return half_span, 2 * (max(8, math.ceil(cells)) if cells < cap else cap) + 1


def default_theta_grid(sky: SkyModel, B_m: float) -> np.ndarray:
    """Symmetric grid covering the sources plus a few beam widths, beam oversampled."""
    half_span, count = default_theta_span(sky, B_m)
    return np.linspace(-half_span, half_span, count)


def sky_intensity_on_grid(sky: SkyModel, theta_grid) -> np.ndarray:
    """Nearest-cell deposit of the source fluxes, normalized to unit sum.

    Raises ValueError for a source outside the grid's span, whose flux would
    otherwise pile onto an edge cell.
    """
    theta = np.asarray(theta_grid, dtype=float)
    lo, hi = theta.min(), theta.max()
    out = np.zeros_like(theta)
    for i, (t, flux) in enumerate(sky.sources):
        if not lo <= t <= hi:
            raise ValueError(f"source {i} at theta = {t} lies outside the grid [{lo}, {hi}]")
        out[int(np.argmin(np.abs(theta - t)))] += flux
    return out / out.sum()


@dataclass(eq=False)
class ObservationReport:
    """Everything produced by one end-to-end observation run; per-baseline
    quantities are (n,) arrays in baseline order."""

    baselines: np.ndarray
    v_true: np.ndarray            # complex
    estimates: VisibilityEstimate
    theta_grid: np.ndarray
    intensity_true: np.ndarray
    intensity_exact: np.ndarray
    intensity_est: np.ndarray


def observe_and_image(sky: SkyModel, plan: BaselinePlan, resource: XState,
                      settings: PhaseSettings, n_per_setting: int, seed: int,
                      theta_grid) -> ObservationReport:
    """Full pipeline: per-baseline protocol runs, then dirty-map reconstruction.

    resource is the XState supplied by the network: an (n,) array state whose
    row i is at the plan's baseline i, or one float state at every baseline.
    One generator, default_rng(derive_seed(seed)), serves the whole run (run
    seed scheme v2): baseline i's correlated-click counts are row i of one
    rng.binomial(N, P, size=(n, 2)) draw over the settings' probabilities P,
    whichever way the loop is split. Estimates are imaged as they are, never
    clipped to |V| = 1.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    baselines = np.array(plan.baselines)
    if isinstance(resource.w_a, np.ndarray) and resource.w_a.size != baselines.size:
        raise ValueError(f"resource has {resource.w_a.size} rows for {baselines.size} baselines")
    v_true = np.empty(baselines.size, dtype=complex)
    rng = np.random.default_rng(derive_seed(seed))
    # rows: V_a_hat, V_p_hat, dV_a, dV_p
    columns = np.empty((4, baselines.size))
    for idx, B in enumerate(plan.baselines):
        v_c = true_visibility(sky, B)
        x = resource.row(idx)
        v = AstroVisibility(abs(v_c), cmath.phase(v_c))
        # raises DegenerateResourceError for a dead resource
        est = run_observation(v, x, settings, n_per_setting, rng)
        v_true[idx] = v_c
        columns[:, idx] = (est.V_a_hat, est.V_p_hat, est.dV_a, est.dV_p)
    v_a, v_p, dv_a, dv_p = columns
    v_est = v_a * np.exp(1j * v_p)

    # theta_grid by keyword: the benchmark tracer reads it from there
    intensity_exact = reconstruct_intensity(baselines, v_true, theta_grid=theta_grid,
                                            wavelength=sky.wavelength)
    intensity_est = reconstruct_intensity(baselines, v_est, theta_grid=theta_grid,
                                          wavelength=sky.wavelength)
    return ObservationReport(
        baselines=baselines,
        v_true=v_true,
        estimates=VisibilityEstimate(v_a, v_p, dv_a, dv_p),
        theta_grid=theta_grid,
        intensity_true=sky_intensity_on_grid(sky, theta_grid),
        intensity_exact=intensity_exact,
        intensity_est=intensity_est,
    )
