"""X-form two-qubit states of mode-entangled single photons, and the sky visibility.

Populations and coherences are indexed in the basis |00>, |01>, |10>, |11>
with the left network arm as the most significant slot. Everything here is a
pure function of its inputs. Every record is checked when it is constructed,
no entbase code rebinds a field afterwards, and the array fields of an
XState are read-only, so a record is safe to share across tasks. The full
density-matrix route these closed forms are checked against is in
``entbase.reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import elementwise as ew

XSTATE_SLACK = 1e-9

__all__ = [
    "AstroVisibility",
    "DegenerateResourceError",
    "XState",
    "concurrence_subspace",
    "subspace_weight",
    "wrap_phase",
]


class DegenerateResourceError(ValueError):
    """The resource carries no weight in the one-photon-per-side subspace."""


def wrap_phase(phi: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    out = math.remainder(phi, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


@dataclass
class AstroVisibility:
    """Complex visibility as (amplitude, phase); the coherence of the sky state.

    V_a must lie in [0, 1]; V_p is stored wrapped to (-pi, pi].
    """

    V_a: float
    V_p: float

    def __post_init__(self):
        if not (math.isfinite(self.V_a) and math.isfinite(self.V_p)):
            raise ValueError("visibility must be finite")
        if self.V_a < 0.0 or self.V_a > 1.0 + 1e-12:
            raise ValueError(f"V_a = {self.V_a} outside [0, 1]")
        self.V_a = min(float(self.V_a), 1.0)
        self.V_p = wrap_phase(float(self.V_p))


# The XState rules, in the order a violation is reported: _broken_rules
# gives each one's flag and the message takes the offending fields.
_RULE_MESSAGES = (
    "population a = {a} outside [0, 1]",
    "population g = {g} outside [0, 1]",
    "population f = {f} outside [0, 1]",
    "population h = {h} outside [0, 1]",
    "populations sum to {total}, expected 1",
    "coherence magnitudes must be nonnegative",
    "w_a = {w_a} exceeds sqrt(g*f), state not positive",
    "z_a = {z_a} exceeds sqrt(a*h), state not positive",
    "phases w_p = {w_p} and z_p = {z_p} must be finite",
)


def _broken_rules(a, g, f, h, w_a, w_p, z_a, z_p, total, sqrt) -> tuple:
    """Each XState rule's violation flag, in _RULE_MESSAGES order.

    The one statement of the rules, written with operators alone so that it
    flags a float and each element of an (n,) array alike; sqrt is math.sqrt
    or np.sqrt, both correctly rounded. A population must be finite and in
    [0, 1] up to rounding, a coherence magnitude a nonnegative number (not
    nan), a phase finite (p - p is 0 for a finite p, nan otherwise);
    (p > 0) * p is max(p, 0) wherever the earlier rules hold.
    """
    return (
        (a != a) | (a < -1e-12) | (a > 1.0 + 1e-12),
        (g != g) | (g < -1e-12) | (g > 1.0 + 1e-12),
        (f != f) | (f < -1e-12) | (f > 1.0 + 1e-12),
        (h != h) | (h < -1e-12) | (h > 1.0 + 1e-12),
        abs(total - 1.0) > XSTATE_SLACK,
        (w_a != w_a) | (z_a != z_a) | (w_a < 0.0) | (z_a < 0.0),
        w_a > sqrt((g > 0.0) * g * ((f > 0.0) * f)) + XSTATE_SLACK,
        z_a > sqrt((a > 0.0) * a * ((h > 0.0) * h)) + XSTATE_SLACK,
        w_p - w_p + (z_p - z_p) != 0.0,
    )


def _check_floats(a, g, f, h, w_a, w_p, z_a, z_p, total):
    """Raise the message of the first XState rule that these float fields break."""
    broken = _broken_rules(a, g, f, h, w_a, w_p, z_a, z_p, total, math.sqrt)
    if True in broken:
        raise ValueError(_RULE_MESSAGES[broken.index(True)].format(
            a=a, g=g, f=f, h=h, w_a=w_a, w_p=w_p, z_a=z_a, z_p=z_p, total=total))


# Up to this many states, an array state is checked one float state at a
# time (~2 us each) rather than by the ~50 numpy calls of an array check.
FLOAT_CHECK_MAX = 16


@dataclass
class XState:
    """Two-qubit state with support only on the main and anti diagonals.

    Populations (a, g, f, h) sit on |00>, |01>, |10>, |11>; the inner
    coherence is w_a * exp(i*w_p) at (|10>, |01>) and the outer coherence
    z_a * exp(i*z_p) at (|11>, |00>).

    The fields are floats, or (n,) arrays for n states at once: a field given
    as an array makes every field a read-only (n,) float array. Each element
    is checked by the rules a float state is checked by, and an invalid
    array state raises the message its first invalid element raises alone.
    """

    a: float
    g: float
    f: float
    h: float
    w_a: float
    w_p: float = 0.0
    z_a: float = 0.0
    z_p: float = 0.0

    def __post_init__(self):
        a, g, f, h, w_a, w_p, z_a, z_p = (self.a, self.g, self.f, self.h,
                                          self.w_a, self.w_p, self.z_a, self.z_p)
        total = a + g + f + h
        # the sum of every field is an array exactly when some field is one
        probe = total + w_a + w_p + z_a + z_p
        if type(probe) is not np.ndarray:
            _check_floats(a, g, f, h, w_a, w_p, z_a, z_p, total)
            return
        if probe.ndim != 1:
            raise ValueError("array fields must be one-dimensional")
        columns = np.empty((len(_FIELD_NAMES), probe.size))
        for name, column in zip(_FIELD_NAMES, columns):
            column[:] = getattr(self, name)
        columns.flags.writeable = False  # before the views are taken, which inherit it
        self.a, self.g, self.f, self.h, self.w_a, self.w_p, self.z_a, self.z_p = columns
        if probe.size <= FLOAT_CHECK_MAX:
            suspects = range(probe.size)
        else:  # one check of the arrays finds the first invalid state, if any
            a, g, f, h, w_a, w_p, z_a, z_p = columns
            with np.errstate(invalid="ignore"):  # nan and inf fields are flagged, not warned of
                invalid = np.logical_or.reduce(
                    _broken_rules(a, g, f, h, w_a, w_p, z_a, z_p, a + g + f + h, np.sqrt))
            suspects = invalid.nonzero()[0][:1]
        for i in suspects:
            a, g, f, h, w_a, w_p, z_a, z_p = columns[:, i].tolist()
            _check_floats(a, g, f, h, w_a, w_p, z_a, z_p, a + g + f + h)

    def row(self, i: int) -> "XState":
        """State i of an array state, as a float state; a float state is each of its rows."""
        return XState(*[ew.item(getattr(self, name), i) for name in _FIELD_NAMES])

    def density_matrix(self) -> np.ndarray:
        """The 4x4 density matrix of a float state, fields placed as above; each upper
        coherence is the conjugate of the lower one, so an imaginary part 0.0 is -0.0 above."""
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.g, self.f, self.h
        m[2, 1] = self.w_a * np.exp(1j * self.w_p)
        m[3, 0] = self.z_a * np.exp(1j * self.z_p)
        m[1, 2], m[0, 3] = np.conj(m[2, 1]), np.conj(m[3, 0])
        return m

    def with_phase_offset(self, delta: float) -> "XState":
        """Same float state with the inner-coherence phase advanced by delta."""
        return XState(self.a, self.g, self.f, self.h,
                      self.w_a, wrap_phase(self.w_p + delta), self.z_a, self.z_p)


_FIELD_NAMES = tuple(f.name for f in fields(XState))


def concurrence_subspace(x: XState) -> float:
    """Entanglement retained inside the one-photon-per-side block: 2*w_a/(g+f).

    A dead state (g + f = 0) has no concurrence: it is nan, for a float state
    and for each such element of an array state alike.
    """
    xi = x.g + x.f
    return 2.0 * x.w_a / ew.where(xi > 0.0, xi, math.nan)


def subspace_weight(x: XState) -> float:
    """Population g + f left in the mode-entangled subspace; sets the coincidence rate."""
    return x.g + x.f
