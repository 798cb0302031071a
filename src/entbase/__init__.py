"""Entanglement-assisted telescope interferometry simulator."""

from .qcore import (
    AstroVisibility,
    DegenerateResourceError,
    DensityMatrix4,
    KrausChannel,
    NotXFormError,
    XState,
    apply_independent_channels,
    concurrence_subspace,
    concurrence_wootters_x,
    extract_xstate,
    kraus_amplitude_damping,
    kraus_dephasing,
    kraus_depolarizing,
    make_astro_state,
    make_bell_psi,
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
    memory_dephasing_channel,
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
