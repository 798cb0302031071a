"""X-form two-qubit states of mode-entangled single photons, and the sky visibility.

Populations and coherences are indexed in the basis |00>, |01>, |10>, |11>
with the left network arm as the most significant slot. Everything here is a
pure function of its inputs; constructed values are immutable and safe to
share across tasks. The full density-matrix route these closed forms are
checked against is in ``entbase.reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
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
        object.__setattr__(self, "V_a", min(float(self.V_a), 1.0))
        object.__setattr__(self, "V_p", wrap_phase(float(self.V_p)))


@dataclass(frozen=True)
class XState:
    """Two-qubit state with support only on the main and anti diagonals.

    Populations (a, g, f, h) sit on |00>, |01>, |10>, |11>; the inner
    coherence is w_a * exp(i*w_p) at (|10>, |01>) and the outer coherence
    z_a * exp(i*z_p) at (|11>, |00>).
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
        pops = (self.a, self.g, self.f, self.h)
        for name, p in zip("agfh", pops):
            if not math.isfinite(p) or p < -1e-12 or p > 1.0 + 1e-12:
                raise ValueError(f"population {name} = {p} outside [0, 1]")
        total = sum(pops)
        if abs(total - 1.0) > XSTATE_SLACK:
            raise ValueError(f"populations sum to {total}, expected 1")
        if self.w_a < 0.0 or self.z_a < 0.0:
            raise ValueError("coherence magnitudes must be nonnegative")
        if self.w_a > math.sqrt(max(self.g, 0.0) * max(self.f, 0.0)) + XSTATE_SLACK:
            raise ValueError(f"w_a = {self.w_a} exceeds sqrt(g*f), state not positive")
        if self.z_a > math.sqrt(max(self.a, 0.0) * max(self.h, 0.0)) + XSTATE_SLACK:
            raise ValueError(f"z_a = {self.z_a} exceeds sqrt(a*h), state not positive")

    def with_phase_offset(self, delta: float) -> "XState":
        """Same state with the inner-coherence phase advanced by delta."""
        return XState(self.a, self.g, self.f, self.h,
                      self.w_a, wrap_phase(self.w_p + delta), self.z_a, self.z_p)


def concurrence_subspace(x: XState) -> float:
    """Entanglement retained inside the one-photon-per-side block: 2*w_a/(g+f)."""
    xi = x.g + x.f
    if xi <= 0.0:
        raise DegenerateResourceError("g + f = 0: the resource never produces coincidences")
    return 2.0 * x.w_a / xi


def subspace_weight(x: XState) -> float:
    """Population g + f left in the mode-entangled subspace; sets the coincidence rate."""
    return x.g + x.f
