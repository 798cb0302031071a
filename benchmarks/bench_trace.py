"""Per-layer tracing from outside the program.

Spans are recorded around the calls into each entbase module's public
functions, by rebinding the names the calling module looks up. Nothing
inside ``src/`` changes. Each span adds its duration to the parent span's
child time, so a layer's self time is its spans' durations minus the part
covered by their children. Spans are aggregated per layer in memory as
they close, which keeps memory flat over long runs.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

COMPLEX_BYTES = 16  # the dirty map's phase matrix is complex128


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._child = []  # child time accumulated by each open span

    def wrap(self, layer: str, fn, on_call=None):
        """Return fn recording a `layer` span per call; on_call(args, kwargs) counts work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack = tracer._child
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                tracer.self_s[layer] += dt - child
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += dt

        return traced


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


@contextmanager
def installed(tracer: Tracer):
    """Record spans at every module boundary the `run` and `sweep` verbs cross."""
    from entbase import cli, config, imaging, qcore

    def count_observed(args, kwargs):
        tracer.counters["imaging.baselines_observed"] += len(
            _arg(args, kwargs, 1, "plan").baselines)

    def count_map(args, kwargs):
        n_theta = len(_arg(args, kwargs, 1, "theta_grid"))
        cells = n_theta * (2 * len(_arg(args, kwargs, 0, "samples")) + 1)
        tracer.counters["imaging.map_cells"] += cells
        tracer.counters["imaging.map_bytes_computed"] = max(
            tracer.counters["imaging.map_bytes_computed"], cells * COMPLEX_BYTES)

    def count_parse(args, kwargs):
        tracer.counters["config.calls"] += 1

    orig_factory = config.ChannelConfig.resource_factory
    orig_rate_fn = config.ChannelConfig.rate_norm_fn

    def resource_factory(self):
        return tracer.wrap("channels", orig_factory(self))

    def rate_norm_fn(self):
        fn = orig_rate_fn(self)
        return None if fn is None else tracer.wrap("channels", fn)

    patches = [
        (cli, "main", tracer.wrap("cli", cli.main)),
        (cli, "load_config", tracer.wrap("config", cli.load_config)),
        (cli, "parse_config", tracer.wrap("config", cli.parse_config, count_parse)),
        (config, "parse_config", tracer.wrap("config", config.parse_config, count_parse)),
        (cli, "observe_and_image", tracer.wrap("imaging.pipeline", cli.observe_and_image,
                                               count_observed)),
        (cli, "true_visibility", tracer.wrap("imaging.true_visibility", cli.true_visibility)),
        (imaging, "true_visibility",
         tracer.wrap("imaging.true_visibility", imaging.true_visibility)),
        (imaging, "reconstruct_intensity",
         tracer.wrap("imaging.reconstruct", imaging.reconstruct_intensity, count_map)),
        (cli, "run_observation", tracer.wrap("protocol", cli.run_observation)),
        (imaging, "run_observation", tracer.wrap("protocol", imaging.run_observation)),
        (cli, "derive_seed", tracer.wrap("protocol.seed", cli.derive_seed)),
        (imaging, "derive_seed", tracer.wrap("protocol.seed", imaging.derive_seed)),
        (config.ChannelConfig, "resource_factory", resource_factory),
        (config.ChannelConfig, "rate_norm_fn", rate_norm_fn),
        (qcore.XState, "__post_init__", tracer.wrap("qcore.xstate", qcore.XState.__post_init__)),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
