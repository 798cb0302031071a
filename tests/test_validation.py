"""Every invariant of `entbase validate`, one test per CHECKS entry, at the suite's own grids."""

import inspect
import textwrap
import time

import pytest

from entbase import channels, config, imaging, protocol, reference, validation
from entbase.validation import CHECKS

# the acceptance criteria's wall-clock bounds, in seconds: C1, C2, C4 and C10
WALL_CLOCK_BOUNDS = {
    "channel-closed-forms": 1.0,
    "x-form-closure": 1.0,
    "projector-oracle": 5.0,
    "imaging-peaks[mc]": 60.0,
}

# (check, module, function, source fragment, its mutant): each check must fail on its
# mutant, by an assertion or by a state or channel constructor refusing what it builds
MUTANTS = [
    ("kraus-completeness", reference, "kraus_dephasing",
     "k1 = math.sqrt(1.0 - mu) *", "k1 = (1.0 - mu) *"),
    ("channel-closed-forms", channels, "xstate_amplitude_damping",
     "ew.sqrt((1.0 - lambda_L) * (1.0 - lambda_R))",
     "ew.sqrt(1.0 - lambda_L) * (1.0 - lambda_R)"),
    ("x-form-closure", reference, "apply_independent_channels",
     "ops.conj().transpose(0, 2, 1)", "ops.transpose(0, 2, 1)"),
    ("ideal-limit-fringe", protocol, "postselect", "p_c = q_c / total", "p_c = q_ac / total"),
    ("projector-oracle", protocol, "raw_probabilities",
     "fringe = 2.0 * v.V_a", "fringe = -2.0 * v.V_a"),
    ("postselection-normalization", protocol, "postselect",
     "return p_c, 1.0 - p_c", "return p_c, p_c"),
    ("estimator-round-trip", reference, "solve_visibility",
     "math.atan2(s, c)", "math.atan2(c, s)"),
    ("error-derivatives-fd", reference, "phase_ratio_derivative",
     "return -math.sin", "return math.sin"),
    ("error-bars-cramer-rao", protocol, "_invert_batch",
     "np.sin(v_p_hat - w1) * d2", "np.sin(v_p_hat - w2) * d2"),
    ("memory-swap-composition", channels, "swap_memories",
     "p = 0.5 * (1.0 + _coherence_survival(ew.overflow_to_inf(add, t1, t2), tau_c))",
     "p = 1.0 - 0.5 * (1.0 + _coherence_survival(ew.overflow_to_inf(add, t1, t2), tau_c))"),
    ("depol-x-bound", channels, "depol_x_param", "kappa_R / 9.0", "kappa_R / 3.0"),
    ("fiber-rate-line", config, "_fiber_xstate",
     "fiber_loss_prob(B / 2.0, L0)", "fiber_loss_prob(B, L0)"),
    # the ln_R_M column run and sweep write is the one the rate checks read
    ("fiber-rate-line", config, "ChannelConfig.resource_table",
     "map(math.log,", "map(math.log1p,"),
    ("depol-rate-asymptote", channels, "log_rate_depol_approx", "- 0.8 * u", "- 0.4 * u"),
    ("forward-visibility", imaging, "true_visibility", "-2j * math.pi", "-1j * math.pi"),
    ("reconstruction-hermitian", imaging, "_dirty_map",
     "b_pos[0] + 2.0 * image", "b_pos[0] + image"),
    ("error-bar-coverage[mc]", protocol, "_fringe_error",
     "/ (0.5 * math.sqrt(N))", "/ math.sqrt(N)"),
    ("estimator-slope[mc]", protocol, "replicate_rmse", "- n) / n_b", "- n) / np.sqrt(n_b)"),
    ("resource-scaling[mc]", protocol, "_estimate", "np.hypot(c, s) / C", "np.hypot(c, s)"),
    ("channel-map-properties", reference, "apply_independent_channels",
     "ops.conj().transpose(0, 2, 1)", "ops.transpose(0, 2, 1)"),
    ("concurrence-monotone", channels, "xstate_dephasing",
     "(1.0 - mu_L) * (1.0 - mu_R)", "(1.0 - mu_L) * (0.5 + mu_R)"),
    ("rate-monotonicity", channels, "resource_figures",
     "r_norm = 0.5 * xi if", "r_norm = 0.5 * (1.0 - xi) if"),
    ("two-source-resolvability", reference, "find_peaks",
     "(mid > arr[:-2]) & (mid > arr[2:])", "(mid > arr[:-2]) | (mid > arr[2:])"),
    ("five-sigma-coverage[mc]", protocol, "_fringe_error",
     "/ (0.5 * math.sqrt(N))", "/ (5.0 * math.sqrt(N))"),
    ("fringe-bound[mc]", protocol, "raw_probabilities",
     "fringe = 2.0 * v.V_a", "fringe = 2.3 * v.V_a"),
    ("imaging-peaks[mc]", imaging, "observe_and_image", "np.exp(1j * v_p)", "np.exp(2j * v_p)"),
]


def test_every_check_has_a_mutant():
    assert {m[0] for m in MUTANTS} == {name for name, _ in CHECKS}


def test_wall_clock_bounds_name_checks():
    assert set(WALL_CLOCK_BOUNDS) <= {name for name, _ in CHECKS}


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check):
    start = time.monotonic()
    check()
    elapsed = time.monotonic() - start
    assert elapsed < WALL_CLOCK_BOUNDS.get(name, float("inf")), f"{name} took {elapsed:.2f} s"


# a check's first mutant is named by the check alone, a further one by its function too
MUTANT_IDS = [name if name not in [m[0] for m in MUTANTS[:i]] else f"{name}:{qualname}"
              for i, (name, _, qualname, *_) in enumerate(MUTANTS)]


@pytest.mark.parametrize("name, module, qualname, old, new", MUTANTS, ids=MUTANT_IDS)
def test_check_fails_on_mutant(monkeypatch, name, module, qualname, old, new):
    *owner_path, attr = qualname.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{old!r} not found once in {qualname}"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    mutant = namespace[attr]
    monkeypatch.setattr(owner, attr, mutant)
    # these tables hold the functions themselves
    for table in (validation._KRAUS, validation._CLOSED, *config.CHANNEL_TABLE.values()):
        for key, fn in list(table.items()):
            if fn is original:
                monkeypatch.setitem(table, key, mutant)
    with pytest.raises((AssertionError, ValueError)):
        dict(CHECKS)[name]()
