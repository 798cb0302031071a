"""Entanglement-assisted telescope interferometry simulator."""

from .qcore import (
    AstroVisibility,
    DegenerateResourceError,
    XState,
    concurrence_subspace,
    subspace_weight,
    wrap_phase,
)
from .channels import (
    DegenerateCoherenceWarning,
    RateModel,
    depol_prob,
    fiber_loss_prob,
    ideal_bell_xstate,
    log_rate_depol_approx,
    log_rate_fiber,
    memory_xstate,
    swap_memories,
    xstate_amplitude_damping,
    xstate_dephasing,
    xstate_depolarizing,
)
from .protocol import (
    DegeneratePhasesError,
    PhaseSettings,
    VisibilityEstimate,
    ZeroConcurrenceError,
    derive_seed,
    postselect,
    raw_probabilities,
    run_observation,
    scaling_laws,
)
from .imaging import (
    BaselinePlan,
    IntensityError,
    SkyModel,
    intensity_error,
    observe_and_image,
    reconstruct_intensity,
    resolution,
    true_visibility,
)

__version__ = "0.1.0"
