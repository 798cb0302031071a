"""Local-detection measurement protocol and visibility estimation.

Coincidence statistics between the beam-splitter detectors at the two
telescopes (closed form; the 16-dimensional projector oracle lives in
``reference``), binomial click sampling from a caller's generator,
inversion of two phase settings into a complex visibility estimate with
one-sigma errors (``_invert_batch``, the one inversion path, whose
estimates are the one statement ``_estimate``), and the associated
resource scaling laws. ``run_replicates`` runs many independent
replicates of one observation as array maths on a single generator;
``run_observation`` is its one-replicate case, whose one row is inverted
as Python floats by the same statement. ``replicate_rmse`` draws the
replicates of many observations, each from its own generator and one
setting at a time, and inverts all of them to estimates alone at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elementwise as ew
from .qcore import (
    AstroVisibility,
    DegenerateResourceError,
    XState,
    concurrence_subspace,
    subspace_weight,
)

__all__ = [
    "DegeneratePhasesError",
    "PhaseSettings",
    "ScalingLaws",
    "VisibilityEstimate",
    "ZeroConcurrenceError",
    "derive_seed",
    "postselect",
    "raw_probabilities",
    "replicate_rmse",
    "run_observation",
    "run_replicates",
    "scaling_laws",
]

MIN_PHASE_SEPARATION = 1e-6
P_C_ROUNDING = 2.0 ** -49  # 8 ulps of 1: how far a full fringe's rounding may carry p_c
MAX_TRIALS = int(np.iinfo(np.int64).max)  # largest N numpy's binomial sampler accepts
REPLICATE_CHUNK = 1 << 13  # row-replicate cells of counts replicate_rmse holds at once


class ZeroConcurrenceError(ValueError):
    """The resource carries no coherence: the visibility amplitude is unrecoverable."""


class DegeneratePhasesError(ValueError):
    """The two phase settings do not span the fringe; the linear system is singular."""


@dataclass
class PhaseSettings:
    """The two controllable resource-phase offsets used to invert the fringe: floats,
    or (n,) arrays for a sweep over one of them."""

    w1: float
    w2: float

    def __post_init__(self):
        gap = self.w2 - self.w1  # an array exactly when a setting is one
        if type(gap) is np.ndarray:
            w1s, w2s = np.broadcast_arrays(self.w1, self.w2)
            for w1, w2 in zip(w1s.tolist(), w2s.tolist()):
                PhaseSettings(w1, w2)  # each pair by the float check below
            return
        if not (math.isfinite(self.w1) and math.isfinite(self.w2)):
            raise DegeneratePhasesError("phase settings must be finite")
        if abs(math.sin(gap)) < MIN_PHASE_SEPARATION:
            raise DegeneratePhasesError(
                f"settings {self.w1}, {self.w2} are degenerate (|sin(w2-w1)| < {MIN_PHASE_SEPARATION})")

    def row(self, i: int) -> "PhaseSettings":
        """Settings i of array settings, as float settings; float settings are each row."""
        return PhaseSettings(ew.item(self.w1, i), ew.item(self.w2, i))


@dataclass
class VisibilityEstimate:
    """Point estimates with their one-sigma errors: floats from run_observation, (K,)
    arrays (one per replicate) from run_replicates, (n,) in an ObservationReport."""

    V_a_hat: float
    V_p_hat: float
    dV_a: float
    dV_p: float


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


@dataclass(frozen=True)
class ScalingLaws:
    """Trend-only error scales (unspecified constants) for a resource family."""

    dV_a_scale: float
    dV_p_scale: float


def scaling_laws(x: XState, R_X: float) -> ScalingLaws:
    """Trend scales 1/(C sqrt(xi R_X)) and 1/sqrt(xi R_X) of the visibility errors.

    Evaluated at the resource x, e.g. a channel family's closed-form state,
    which reproduces the per-channel expressions in terms of the loss
    parameters. The phase scale holds at a fixed fringe amplitude V_a C:
    the phase is read off a fringe of that amplitude, so at a fixed V_a the
    phase error grows as 1/C too. No supplied photons (R_X = 0) or no
    coincidence weight (xi = 0) makes both scales diverge, a vanishing
    concurrence (for isotropic noise, x -> 1/4) the amplitude scale; a
    diverged scale is reported as inf rather than an exception.
    """
    if R_X < 0.0:
        raise ValueError("R_X must be nonnegative")
    xi = subspace_weight(x)
    if R_X == 0.0 or xi <= 0.0:
        return ScalingLaws(math.inf, math.inf)
    conc = concurrence_subspace(x)
    dv_p = 1.0 / math.sqrt(xi * R_X)
    if conc <= 0.0:
        return ScalingLaws(math.inf, dv_p)
    return ScalingLaws(dv_p / conc, dv_p)


def _setting_probabilities(v_true: AstroVisibility, x: XState,
                           ph: PhaseSettings) -> tuple[float, tuple[float, float], list]:
    """(C, (w1, w2), (p_c1, p_c2)) of one observation of v_true with x.

    The effective phases (w1, w2) add the resource's own phase to ph; p_ci is
    the postselected correlated-click probability at setting i.
    """
    if subspace_weight(x) <= 0.0:
        raise DegenerateResourceError("g + f = 0: the resource never produces coincidences")
    conc = concurrence_subspace(x)
    if conc <= 0.0:
        raise ZeroConcurrenceError("resource concurrence is zero")
    p_cs = []
    for offset in (ph.w1, ph.w2):
        q_c, q_ac = raw_probabilities(v_true, x.with_phase_offset(offset))
        p_c, _ = postselect(q_c, q_ac)
        if not (0.0 <= p_c <= 1.0):
            if not (-P_C_ROUNDING <= p_c <= 1.0 + P_C_ROUNDING):
                raise ValueError(f"p_c = {p_c} outside [0, 1]")
            p_c = min(max(p_c, 0.0), 1.0)
        p_cs.append(p_c)
    return conc, (x.w_p + ph.w1, x.w_p + ph.w2), p_cs


def _wrap_phases(phi: np.ndarray) -> np.ndarray:
    """wrap_phase for arrays of angles in [-3 pi, 3 pi]; exact there (one 2 pi shift)."""
    two_pi = 2.0 * math.pi
    phi = np.where(phi > math.pi, phi - two_pi, phi)
    return np.where(phi <= -math.pi, phi + two_pi, phi)


def _fringe_error(dp, N: int):
    """Twice the binomial error of the add-one smoothed p_ac = (1 + dp) / 2.

    reference.delta_p_uncertainty's formula and bits: halving is exact, so
    moving each factor of 0.5 or 2 onto a float leaves every rounding as it
    was and takes two array operations fewer.
    """
    p_smooth = ((0.5 * N) * (1.0 + dp) + 1.0) / (N + 2.0)
    return ew.sqrt(p_smooth * (1.0 - p_smooth)) / (0.5 * math.sqrt(N))


def _setting_trig(w1: float, w2: float) -> tuple[float, float, float, float, float]:
    """(sin w1, cos w1, sin w2, cos w2, det = sin(w2 - w1)) by libm, of effective phases:
    a checked PhaseSettings' settings plus a checked state's w_p, not checked again."""
    return math.sin(w1), math.cos(w1), math.sin(w2), math.cos(w2), math.sin(w2 - w1)


# numpy's arctan2, hypot and sin on floats too, for the array call's bits: libm's atan2 and
# hypot differ from them on 7.9% and 0.6% of 200 000 random inputs in [-1, 1]^2 (numpy 2.4.6,
# AVX-512 Xeon), and which sin loop numpy takes depends on its build and the CPU. A float's
# result is then a numpy float64 scalar, a float subclass.
def _estimate(dp1, dp2, trig, C):
    """The point estimates (V_a, V_p) of fringes dp1, dp2, and c^2 + s^2, elementwise.

    The one statement of the estimates, for _invert_batch and replicate_rmse.
    trig is _setting_trig of the phases: floats, or (m, 1) columns beside
    (m, K) fringes, one row per observation, as C is too. The formulas and
    branch choices are those of the scalar reference.solve_visibility.
    """
    sin1, cos1, sin2, cos2, det = trig
    c = (dp1 * sin2 - dp2 * sin1) / det
    s = (dp2 * cos1 - dp1 * cos2) / det
    amp_sq = c * c + s * s
    # both fringes zero (for fringes of counts, amp_sq is 0 exactly when
    # hypot(c, s) is): the phase is undefined and taken as 0
    phase = ew.where(amp_sq == 0.0, 0.0, np.arctan2(s, c))
    # arctan2 lies in [-pi, pi]: wrapping to (-pi, pi] moves only -pi
    return np.hypot(c, s) / C, ew.where(phase == -math.pi, math.pi, phase), amp_sq


def _invert_batch(dp1, dp2, N: int, w1: float, w2: float, C: float):
    """Invert fringes dp1, dp2 at phases w1, w2 into (V_a, V_p, dV_a, dV_p), elementwise.

    One statement serves (n,) arrays and Python floats: floats give numpy
    float64 scalars with the bits of the array call's elements, through the
    ufuncs arctan2, hypot and sin and the entbase.elementwise helpers.
    The estimates are _estimate's. Both errors come from the Jacobian of
    (dp1, dp2) -> (V_a, V_p) and the fringe errors D1, D2; with phi = V_p,

        dV_a = hypot(sin(w2 - phi) D1, sin(phi - w1) D2) / (C |sin(w2 - w1)|).

    The formulas are those of the scalar reference.propagate_errors, which
    derives them. Needs C > 0; w1, w2 are a checked PhaseSettings' settings plus
    a checked state's w_p, whose gap (to rounding) PhaseSettings found not degenerate.
    """
    trig = _setting_trig(w1, w2)
    v_a_hat, v_p_hat, amp_sq = _estimate(dp1, dp2, trig, C)
    det = trig[4]
    d1, d2 = _fringe_error(dp1, N), _fringe_error(dp2, N)
    # a dead row (both fringes zero) divides by nan, not by 0 (which raises on
    # floats), and so gets the cap pi: nan < pi is false
    dv_p = (np.hypot(dp2 * d1, dp1 * d2)
            / (ew.where(amp_sq == 0.0, math.nan, amp_sq) * abs(det)))
    dv_p = ew.where(dv_p < math.pi, dv_p, math.pi)
    dv_a = (np.hypot(np.sin(w2 - v_p_hat) * d1, np.sin(v_p_hat - w1) * d2)
            / (C * abs(det)))
    return v_a_hat, v_p_hat, dv_a, dv_p


def _observe(v_true: AstroVisibility, x: XState, ph: PhaseSettings, N_per_setting: int,
             rng: np.random.Generator, size):
    """Draw correlated-click counts of shape `size` (None: one pair) and invert them.

    Each setting adds a known offset to the resource's coherence phase; both
    settings' postselected p_c are computed once, the counts come from the
    stream in row order, and the fringes are inverted with the effective
    phases by _invert_batch into the VisibilityEstimate returned.
    """
    if N_per_setting < 1:
        raise ValueError("need at least one trial")
    conc, (w1, w2), p_cs = _setting_probabilities(v_true, x, ph)
    if size is None:
        # two scalar draws take the same stream values as one row of a (k, 2) draw, without a
        # list-p draw's broadcasting. A Python int count's (n_ac - n_c) is exact, and float()
        # of it rounds as the array path's int64-to-double division does: the same dp at any N
        n1 = rng.binomial(N_per_setting, p_cs[0])
        n2 = rng.binomial(N_per_setting, p_cs[1])
        dp1 = float((N_per_setting - n1) - n1) / N_per_setting
        dp2 = float((N_per_setting - n2) - n2) / N_per_setting
    else:
        n_c = rng.binomial(N_per_setting, p_cs, size=size)
        # (n_ac - n_c) / N, no int64 overflow
        dp1, dp2 = (((N_per_setting - n) - n) / N_per_setting
                    for n in (n_c[..., 0], n_c[..., 1]))
    return VisibilityEstimate(*_invert_batch(dp1, dp2, N_per_setting, w1, w2, conc))


def run_replicates(v_true: AstroVisibility, x: XState, ph: PhaseSettings,
                   N_per_setting: int, replicates: int,
                   rng: np.random.Generator) -> VisibilityEstimate:
    """`replicates` independent observations of v_true as one array computation.

    The counts are one (replicates, 2) draw, so splitting a run into
    consecutive calls on the same generator reproduces it exactly. The
    estimate fields of the result are (replicates,) arrays.
    """
    return _observe(v_true, x, ph, N_per_setting, rng, (replicates, 2))


def run_observation(v_true: AstroVisibility, x: XState, ph: PhaseSettings,
                    N_per_setting: int, rng: np.random.Generator) -> VisibilityEstimate:
    """One observation of v_true with resource x: run_replicates' one-row case, as floats.

    Its draw takes the stream's next two counts, so consecutive calls on one
    generator give the rows of a single (calls, 2) draw.
    """
    return _observe(v_true, x, ph, N_per_setting, rng, None)


def replicate_rmse(rows, replicates: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Root-mean-square errors of (V_a_hat, V_p_hat) over Monte Carlo replicates, per row.

    rows holds one observation (v_true, x, ph, N_per_setting, tag) per row,
    and each gets `replicates` replicates. Under sweep seed scheme v3, stated
    here alone, a row's counts are drawn one setting at a time, REPLICATE_CHUNK
    replicates at a time: setting 1's from rng = default_rng(derive_seed(seed,
    tag)), setting 2's from its first spawned child, rng.spawn(1)[0]. Each draw
    keeps one p, so numpy sets its binomial sampler up once per column;
    run_replicates' (K, 2) draw alternates p and sets it up again on every
    count. The fringes of a block of rows are then inverted together, estimates
    only, by _estimate, and each row's squared errors are summed chunk by chunk.
    A block holds at most REPLICATE_CHUNK row-replicate cells of counts per
    setting (or one row's chunk), so memory stays flat however many rows or
    replicates are asked for. Each setting's stream is the row's own, so chunk
    boundaries do not change it and a row's RMSE is that of its one-row call.
    Phase errors are wrapped to (-pi, pi]. Returns two (rows,) arrays.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    streams, draws, columns = [], [], []
    for v_true, x, ph, n, tag in rows:
        if n < 1:
            raise ValueError("need at least one trial")
        conc, phases, p_cs = _setting_probabilities(v_true, x, ph)
        rng = np.random.default_rng(derive_seed(seed, tag))
        streams.append((rng, rng.spawn(1)[0]))
        draws.append((n, p_cs))
        columns.append((*_setting_trig(*phases), conc, v_true.V_a, v_true.V_p))
    n_col = np.array([n for n, _ in draws], dtype=np.int64)[:, None]
    columns = np.array(columns).T[..., None]  # each an (m, 1) column
    chunk = min(replicates, REPLICATE_CHUNK)
    per_block = max(1, REPLICATE_CHUNK // chunk)
    sq_a, sq_p = np.zeros(len(streams)), np.zeros(len(streams))
    for lo in range(0, len(streams), per_block):
        block = slice(lo, lo + per_block)
        n_b = n_col[block]
        *trig, conc, v_a, v_p = columns[:, block]
        for start in range(0, replicates, chunk):
            size = min(chunk, replicates - start)
            n_c = np.array([[gen.binomial(n, p, size=size) for gen, p in zip(gens, p_cs)]
                            for gens, (n, p_cs) in zip(streams[block], draws[block])])
            # (n_ac - n_c) / N, no int64 overflow
            dp1, dp2 = (((n_b - n) - n) / n_b for n in (n_c[:, 0], n_c[:, 1]))
            est_a, est_p, _ = _estimate(dp1, dp2, trig, conc)
            sq_a[block] += np.sum(np.square(est_a - v_a), axis=1)
            sq_p[block] += np.sum(np.square(_wrap_phases(est_p - v_p)), axis=1)
    return np.sqrt(sq_a / replicates), np.sqrt(sq_p / replicates)
