"""Physical decoherence scenarios and the rate model.

Closed-form resource states for independent per-arm amplitude damping,
dephasing and depolarization, parameter maps for lossy/birefringent fiber
and finite-lifetime memories, entanglement swapping of stored pairs, the
rate model with `resource_figures` (a resource's xi, C and coincidence
rate: the only rate code, which `config.ChannelConfig.resource_table` calls
once over the baselines), and the closed-form log-rate laws that rate is
checked against; `PARAM_RULES`, the one statement of each parameter's range.
``entbase.reference`` holds the operator-sum route that each closed form is
checked against.

The resource builders take floats, or (n,) arrays for n resources at once
(one `sweep`), and give an XState of the same kind; the arithmetic is the
same per element either way (see ``entbase.elementwise``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from . import elementwise as ew
from .qcore import XState, concurrence_subspace, subspace_weight

__all__ = [
    "PARAM_RULES",
    "DegenerateCoherenceWarning",
    "RateModel",
    "Range",
    "check_param",
    "depol_prob",
    "depol_x_param",
    "fiber_loss_prob",
    "ideal_bell_xstate",
    "log_rate_depol_approx",
    "log_rate_fiber",
    "memory_xstate",
    "resource_figures",
    "swap_memories",
    "xstate_amplitude_damping",
    "xstate_dephasing",
    "xstate_depolarizing",
]


class DegenerateCoherenceWarning(UserWarning):
    """The depolarized inner coherence changed sign and was folded into its phase."""


class Range(NamedTuple):
    """A numeric range: broken(value) flags a value outside it, nan included, with operators
    alone, so per element for an (n,) array; message, formatted with value=, names why."""

    broken: Callable
    message: str

    def fault(self, value) -> str | None:
        """The message for value, or for an (n,) array's first element, outside the range."""
        broken = self.broken(value)
        if ew.any_set(broken):
            return self.message.format(value=ew.first_set(value, broken))


_nonnegative = partial(Range, lambda v: (v != v) | (v < 0.0))  # [0, inf), given its message
PROBABILITY = Range(lambda v: (v != v) | (v < 0.0) | (v > 1.0), "value {value} outside [0, 1]")
# also the range of config's wavelength, baselines.B_max and theta_grid.half_span
POSITIVE = Range(lambda v: (v != v) | (v <= 0.0), "value {value} must be positive")

# The range of each decoherence and rate parameter, which every function taking it and
# config's parser check; lambda, mu and kappa are entbase.reference's one-arm Kraus maps'.
PARAM_RULES = {
    **dict.fromkeys(("lambda_L", "lambda_R", "mu_L", "mu_R", "kappa_L", "kappa_R", "R_E",
                     "lambda", "mu", "kappa"), PROBABILITY),
    **dict.fromkeys(("L0", "beta", "tau_c", "R_T"), POSITIVE),
    **dict.fromkeys(("t1", "t2", "t"), _nonnegative("storage time must be nonnegative")),
    "B": _nonnegative("baseline must be nonnegative"),
    "L": _nonnegative("fiber length must be nonnegative"),
}


def check_param(name: str, value):
    """value, a float or an (n,) array, if in PARAM_RULES[name]; else ValueError(name: fault)."""
    fault = PARAM_RULES[name].fault(value)
    if fault is not None:
        raise ValueError(f"{name}: {fault}")
    return value


@dataclass(frozen=True)
class RateModel:
    """Entangled-photons-per-mode fraction R_E and target photon flux R_T."""

    R_E: float
    R_T: float

    def __post_init__(self):
        check_param("R_E", self.R_E)  # a float each, or (n,) arrays for a sweep
        check_param("R_T", self.R_T)

    @property
    def max_rate(self) -> float:
        """Coincidence rate with a pristine resource: R_E * R_T / 2."""
        return 0.5 * self.R_E * self.R_T


def resource_figures(x: XState, B: float, rates: RateModel,
                     rate_norm_fn) -> tuple[float, float, float, float]:
    """(xi, C, R_M_norm, R_M) of the resource x at baseline B.

    R_M_norm is the coincidence fraction R_M / (R_E R_T): xi/2, unless
    rate_norm_fn is not None and overrides it with rate_norm_fn(B)
    (e.g. a tabulated repeater-chain rate). C is nan for a dead resource
    (xi = 0). An array state, a baseline array or rates holding an array
    (one sweep) give the figures elementwise, as arrays that broadcast
    against each other.
    """
    xi = subspace_weight(x)
    conc = concurrence_subspace(x)
    r_norm = 0.5 * xi if rate_norm_fn is None else rate_norm_fn(B)
    return xi, conc, r_norm, r_norm * rates.R_E * rates.R_T


def ideal_bell_xstate(w_p: float = 0.0) -> XState:
    """Undecohered resource: g = f = w_a = 1/2 with the given coherence phase."""
    return XState(a=0.0, g=0.5, f=0.5, h=0.0, w_a=0.5, w_p=w_p)


def xstate_amplitude_damping(lambda_L: float, lambda_R: float) -> XState:
    """Resource after independent photon loss with probability lambda per arm."""
    check_param("lambda_L", lambda_L)
    check_param("lambda_R", lambda_R)
    return XState(
        a=0.5 * (lambda_L + lambda_R),
        g=0.5 * (1.0 - lambda_R),
        f=0.5 * (1.0 - lambda_L),
        h=0.0,
        w_a=0.5 * ew.sqrt((1.0 - lambda_L) * (1.0 - lambda_R)),
    )


def xstate_dephasing(mu_L: float, mu_R: float) -> XState:
    """Resource after independent phase randomization per arm; populations untouched."""
    check_param("mu_L", mu_L)
    check_param("mu_R", mu_R)
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
    check_param("kappa_L", kappa_L)
    check_param("kappa_R", kappa_R)
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
    check_param("L", L)
    check_param("L0", L0)
    return 1.0 - ew.exp(-L / L0)


def depol_prob(L: float, beta: float) -> float:
    """Per-arm depolarization probability for a birefringent fiber of total length L."""
    check_param("L", L)
    check_param("beta", beta)
    return 1.0 - ew.exp(-beta * L / 2.0)


def _coherence_survival(t: float, tau_c: float) -> float:
    check_param("t", t)
    check_param("tau_c", tau_c)
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
    check_param("t1", t1)  # each time, not only their sum
    check_param("t2", t2)
    p = 0.5 * (1.0 + _coherence_survival(t1 + t2, tau_c))
    # signed coherence of the p * rho(+/-) + (1-p) * rho(-/+) mixture
    coh = outcome_sign * (p * 0.5 + (1.0 - p) * (-0.5))
    return XState(a=0.0, g=0.5, f=0.5, h=0.0,
                  w_a=abs(coh), w_p=ew.where(coh >= 0.0, 0.0, math.pi))


def _log_max_rate(rates: RateModel) -> float:
    """ln rates.max_rate, -inf where that rate is 0: resource_table's ln_R_M rule."""
    return math.log(rates.max_rate) if rates.max_rate > 0.0 else -math.inf


def log_rate_fiber(B: float, L0: float, rates: RateModel) -> float:
    """Natural log of the coincidence rate for an equal-arm lossy fiber link.

    Linear in the baseline: log(R_E*R_T/2) - B/(2*L0) (-inf at R_E = 0), per element for B.
    """
    check_param("B", B)
    check_param("L0", L0)
    return _log_max_rate(rates) - B / (2.0 * L0)


def log_rate_depol_approx(L: float, beta: float, rates: RateModel) -> tuple:
    """(value, in_regime): the long-fiber approximation to the log coincidence rate
    under depolarization, and whether it applies; each an (n,) array for an (n,) array L.

    log(R_E*R_T/2) + log(5/9) - 0.8*exp(-beta*L/2), valid when
    exp(-beta*L) is small (-inf at R_E = 0); in_regime is False once exp(-beta*L) > 0.01.
    The subspace weight expands as 5/9 - (4/9)u + (8/9)u^2 in
    u = exp(-beta*L/2), so the first-order log correction is -(4/5)u.
    """
    check_param("L", L)
    check_param("beta", beta)
    u = ew.exp(-beta * L / 2.0)
    value = _log_max_rate(rates) + math.log(5.0 / 9.0) - 0.8 * u
    return value, u * u <= 0.01
