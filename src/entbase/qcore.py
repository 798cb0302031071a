"""Exact two-qubit density-matrix algebra for mode-entangled single photons.

Matrices live in the basis |00>, |01>, |10>, |11| with the left network arm
as the most significant slot. Everything here is a pure function of its
inputs; constructed values are immutable and safe to share across tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIG_FLOOR = -1e-10
XSTATE_SLACK = 1e-9
XFORM_TOL = 1e-12

__all__ = [
    "AstroVisibility",
    "DegenerateResourceError",
    "DensityMatrix4",
    "KrausChannel",
    "NotXFormError",
    "XState",
    "apply_independent_channels",
    "concurrence_subspace",
    "concurrence_wootters_x",
    "extract_xstate",
    "kraus_amplitude_damping",
    "kraus_dephasing",
    "kraus_depolarizing",
    "make_astro_state",
    "make_bell_psi",
    "subspace_weight",
    "wrap_phase",
]


class NotXFormError(ValueError):
    """A matrix has support outside the main and anti diagonals."""

    def __init__(self, worst_entry: float):
        self.worst_entry = worst_entry
        super().__init__(f"matrix is not of X form (largest off-pattern entry {worst_entry:.3e})")


class DegenerateResourceError(ValueError):
    """The resource carries no weight in the one-photon-per-side subspace."""


def wrap_phase(phi: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    out = math.remainder(phi, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


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

    def to_density(self) -> DensityMatrix4:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.g, self.f, self.h
        m[2, 1] = self.w_a * np.exp(1j * self.w_p)
        m[1, 2] = np.conj(m[2, 1])
        m[3, 0] = self.z_a * np.exp(1j * self.z_p)
        m[0, 3] = np.conj(m[3, 0])
        return DensityMatrix4(m)

    def with_phase_offset(self, delta: float) -> "XState":
        """Same state with the inner-coherence phase advanced by delta."""
        return XState(self.a, self.g, self.f, self.h,
                      self.w_a, wrap_phase(self.w_p + delta), self.z_a, self.z_p)


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


def _check_probability(name: str, p: float) -> float:
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"{name} = {p} outside [0, 1]")
    return float(p)


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

    Parameters
    ----------
    rho : DensityMatrix4
        State to canonicalize. Every entry outside the main and anti
        diagonals must vanish to within ``XFORM_TOL``.

    Returns
    -------
    XState
        Populations from the diagonal; coherence magnitudes are
        nonnegative with phases read from the lower-triangular entries,
        so a Bell state built with path phase delta reports w_p = delta.

    Raises
    ------
    NotXFormError
        If any off-pattern entry exceeds ``XFORM_TOL``.
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


def concurrence_subspace(x: XState) -> float:
    """Entanglement retained inside the one-photon-per-side block: 2*w_a/(g+f)."""
    xi = x.g + x.f
    if xi <= 0.0:
        raise DegenerateResourceError("g + f = 0: the resource never produces coincidences")
    return 2.0 * x.w_a / xi


def concurrence_wootters_x(x: XState) -> float:
    """Full-state concurrence of an X-form matrix: 2*max(0, w_a - sqrt(a*h), z_a - sqrt(g*f))."""
    inner = x.w_a - math.sqrt(max(x.a, 0.0) * max(x.h, 0.0))
    outer = x.z_a - math.sqrt(max(x.g, 0.0) * max(x.f, 0.0))
    return 2.0 * max(0.0, inner, outer)


def subspace_weight(x: XState) -> float:
    """Population g + f left in the mode-entangled subspace; sets the coincidence rate."""
    return x.g + x.f
