"""Physical decoherence scenarios and the rate model.

Closed-form resource states for independent per-arm amplitude damping,
dephasing and depolarization, parameter maps for lossy/birefringent fiber
and finite-lifetime memories, entanglement swapping of stored pairs, and
the closed-form log-rate laws that the rate of `imaging.resource_figures`
is checked against. ``entbase.reference`` holds the operator-sum route
that each closed form is checked against.

The resource builders take floats, or (n,) arrays for n resources at once
(one `sweep`), and give an XState of the same kind; the arithmetic is the
same per element either way (see ``entbase.elementwise``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import elementwise as ew
from .qcore import XState

__all__ = [
    "DegenerateCoherenceWarning",
    "DepolRateApprox",
    "RateModel",
    "depol_prob",
    "depol_x_param",
    "fiber_loss_prob",
    "ideal_bell_xstate",
    "log_rate_depol_approx",
    "log_rate_fiber",
    "memory_xstate",
    "swap_memories",
    "xstate_amplitude_damping",
    "xstate_dephasing",
    "xstate_depolarizing",
]

# Outside this regime the asymptotic depolarized-rate expansion is unreliable.
DEPOL_REGIME_THRESHOLD = 0.01


class DegenerateCoherenceWarning(UserWarning):
    """The depolarized inner coherence changed sign and was folded into its phase."""


def _check_probability(name: str, p: float) -> float:
    bad = (p != p) | (p < 0.0) | (p > 1.0)  # nan, or off [0, 1]: per element for an array
    if ew.any_set(bad):
        raise ValueError(f"{name} = {ew.first_set(p, bad)} outside [0, 1]")
    return p.astype(float) if isinstance(p, np.ndarray) else float(p)


@dataclass(frozen=True)
class RateModel:
    """Entangled-photons-per-mode fraction R_E and target photon flux R_T."""

    R_E: float
    R_T: float

    def __post_init__(self):
        _check_probability("R_E", self.R_E)  # a float each, or (n,) arrays for a sweep
        if ew.any_set(self.R_T <= 0.0):
            raise ValueError("R_T must be positive")

    @property
    def max_rate(self) -> float:
        """Coincidence rate with a pristine resource: R_E * R_T / 2."""
        return 0.5 * self.R_E * self.R_T


def ideal_bell_xstate(w_p: float = 0.0) -> XState:
    """Undecohered resource: g = f = w_a = 1/2 with the given coherence phase."""
    return XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=0.5, w_p=w_p)


def xstate_amplitude_damping(lambda_L: float, lambda_R: float) -> XState:
    """Resource after independent photon loss with probability lambda per arm."""
    lambda_L = _check_probability("lambda_L", lambda_L)
    lambda_R = _check_probability("lambda_R", lambda_R)
    return XState(
        a=0.5 * (lambda_L + lambda_R),
        g=0.5 * (1.0 - lambda_R),
        f=0.5 * (1.0 - lambda_L),
        h=0.0,
        w_a=0.5 * ew.sqrt((1.0 - lambda_L) * (1.0 - lambda_R)),
    )


def xstate_dephasing(mu_L: float, mu_R: float) -> XState:
    """Resource after independent phase randomization per arm; populations untouched."""
    mu_L = _check_probability("mu_L", mu_L)
    mu_R = _check_probability("mu_R", mu_R)
    return XState(a=0.0, g=0.5, f=0.5, h=0.0,
                  w_a=0.5 * (1.0 - mu_L) * (1.0 - mu_R))


def depol_x_param(kappa_L: float, kappa_R: float) -> float:
    """Population leaked to |00> and |11> by independent isotropic noise; in [0, 1/3]."""
    return (kappa_L + kappa_R) / 3.0 - 4.0 * kappa_L * kappa_R / 9.0


def xstate_depolarizing(kappa_L: float, kappa_R: float) -> XState:
    """Resource after independent isotropic Pauli noise per arm.

    The inner coherence 1/2 - 2x goes negative once x exceeds 1/4 (possible
    only for strongly asymmetric arms); the sign is absorbed into the phase
    (w_a = |1/2 - 2x|, w_p = pi) and a DegenerateCoherenceWarning is issued,
    once per call however many array elements fold.
    """
    kappa_L = _check_probability("kappa_L", kappa_L)
    kappa_R = _check_probability("kappa_R", kappa_R)
    x = depol_x_param(kappa_L, kappa_R)
    coh = 0.5 - 2.0 * x
    folded = coh < 0.0
    if ew.any_set(folded):
        warnings.warn("inner coherence is negative; representing it as w_a=|1/2-2x|, w_p=pi",
                      DegenerateCoherenceWarning, stacklevel=2)
    return XState(a=x, g=0.5 - x, f=0.5 - x, h=x, w_a=ew.where(folded, -coh, coh),
                  w_p=ew.where(folded, math.pi, 0.0))


def fiber_loss_prob(L: float, L0: float) -> float:
    """Loss probability in a fiber of length L with attenuation length L0."""
    if ew.any_set(L < 0.0):
        raise ValueError("fiber length must be nonnegative")
    if ew.any_set(L0 <= 0.0):
        raise ValueError("attenuation length must be positive")
    return 1.0 - ew.exp(-L / L0)


def depol_prob(L: float, beta: float) -> float:
    """Per-arm depolarization probability for a birefringent fiber of total length L."""
    if ew.any_set(L < 0.0):
        raise ValueError("fiber length must be nonnegative")
    if ew.any_set(beta <= 0.0):
        raise ValueError("inverse attenuation length must be positive")
    return 1.0 - ew.exp(-beta * L / 2.0)


def _check_storage_time(t: float):
    if ew.any_set(t < 0.0):
        raise ValueError("storage time must be nonnegative")


def _coherence_survival(t: float, tau_c: float) -> float:
    _check_storage_time(t)
    if ew.any_set(tau_c <= 0.0):
        raise ValueError("coherence time must be positive")
    return ew.exp(-t / tau_c)


def memory_xstate(t: float, tau_c: float, sign: int = +1) -> XState:
    """Bell pair after both qubits dephased in storage for time t.

    The inner coherence decays as exp(-t/tau_c); its sign tracks which
    Bell state (+ or -) the pair started in.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return XState(a=0.0, g=0.5, f=0.5, h=0.0,
                  w_a=0.5 * _coherence_survival(t, tau_c),
                  w_p=0.0 if sign > 0 else math.pi)


def swap_memories(t1: float, t2: float, tau_c: float, outcome_sign: int = +1) -> XState:
    """Joint measurement on two stored pairs, heralding a Bell-diagonal mixture.

    Computed as the two-component mixture weighted by
    p(t1+t2) = (1 + exp(-(t1+t2)/tau_c)) / 2, which composes the two
    storage intervals; agrees entrywise with memory_xstate(t1 + t2).
    """
    if outcome_sign not in (+1, -1):
        raise ValueError("outcome_sign must be +1 or -1")
    _check_storage_time(t1)  # each time, not only their sum
    _check_storage_time(t2)
    p = 0.5 * (1.0 + _coherence_survival(t1 + t2, tau_c))
    # signed coherence of the p * rho(+/-) + (1-p) * rho(-/+) mixture
    coh = outcome_sign * (p * 0.5 + (1.0 - p) * (-0.5))
    return XState(a=0.0, g=0.5, f=0.5, h=0.0,
                  w_a=abs(coh), w_p=ew.where(coh >= 0.0, 0.0, math.pi))


def log_rate_fiber(B: float, L0: float, rates: RateModel) -> float:
    """Natural log of the coincidence rate for an equal-arm lossy fiber link.

    Linear in the baseline: log(R_E*R_T/2) - B/(2*L0).
    """
    if B < 0.0:
        raise ValueError("baseline must be nonnegative")
    if L0 <= 0.0:
        raise ValueError("attenuation length must be positive")
    return math.log(rates.max_rate) - B / (2.0 * L0)


@dataclass(frozen=True)
class DepolRateApprox:
    """Asymptotic log-rate value plus whether the long-fiber regime applies."""

    value: float
    in_regime: bool


def log_rate_depol_approx(L: float, beta: float, rates: RateModel) -> DepolRateApprox:
    """Long-fiber approximation to the log coincidence rate under depolarization.

    log(R_E*R_T/2) + log(5/9) - 0.8*exp(-beta*L/2), valid when
    exp(-beta*L) is small; in_regime is False once exp(-beta*L) > 0.01.
    The subspace weight expands as 5/9 - (4/9)u + (8/9)u^2 in
    u = exp(-beta*L/2), so the first-order log correction is -(4/5)u.
    """
    if L < 0.0:
        raise ValueError("fiber length must be nonnegative")
    if beta <= 0.0:
        raise ValueError("inverse attenuation length must be positive")
    u = math.exp(-beta * L / 2.0)
    value = math.log(rates.max_rate) + math.log(5.0 / 9.0) - 0.8 * u
    return DepolRateApprox(value=value, in_regime=(u * u <= DEPOL_REGIME_THRESHOLD))
