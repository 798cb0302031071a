#!/usr/bin/env python3
"""entbase benchmark: closed-loop batch workloads against ``entbase.cli.main``.

Usage (from the repository root):

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 25 --trace 0

One client runs operations back to back in this process for ``--seconds``,
with ENTBASE_THREADS=1. A run holds a fixed number of distinct operations,
set by the workload and ``--seconds`` alone, and repeats them in order while
time remains, so the same seed attempts and fails the same operations on any
machine. Each operation's inputs come from the workload seed
(bench_inputs.py) and each output is checked (bench_check.py). The last
stdout line is one JSON object: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (bench_trace.py)
plus its overhead against an untraced run of the same operations. The line
before it carries the details: machine, op counts, tail percentile and the
failures by error class. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 12  # fresh-process set-ups timed at even steps through a run
# Distinct operations per second of --seconds: about four fifths of what the
# machine the benchmark was defined on ran in its slow spells, so a run
# finishes them within --seconds and fills the rest with repeats.
OPS_PER_SECOND = {"scan": 1.6, "mc": 3.0, "image": 1.7, "rate_sweep": 5.6}
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
# Mean time of reference_kernel() on the machine the benchmark was defined on
# (2-core Xeon VM, Python 3.11, numpy 2.4). Operation timings are reported at
# this speed.
REFERENCE_S = 0.0035
# The one runtime failure the program is known to report at this code (see
# README.md). Any other failure makes the run incorrect.
KNOWN_FAILURE = "exit 2: runtime error: ValueError: |V| = # inconsistent with dV_a = #"

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import entbase.cli
from entbase.config import load_config
load_config(sys.argv[2])
print(time.monotonic())
"""


@dataclass
class Record:
    latency_s: float
    ok: bool
    items: int
    baselines: int
    error: str | None = None
    bytes_written: int = 0
    reference_s: float = 0.0
    index: int = 0  # the distinct operation this is an execution of
    repeat: bool = False  # a timing repeat of an operation run earlier in this run


def reference_kernel() -> float:
    """Time a fixed interpreter-plus-numpy kernel that no entbase change can alter.

    The shared machine's speed drifts by up to a third over minutes. The
    kernel runs after every operation, and its time against REFERENCE_S is
    the machine's slowdown at that moment.
    """
    import math

    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += math.sqrt(i) * 1.0001
    np.exp(1j * np.linspace(0.0, acc, 50_000)).sum()
    return time.perf_counter() - t0


def _error_class(rc, stderr: str) -> str:
    """Exit code plus the program's message with numbers masked."""
    line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return f"exit {rc}: " + re.sub(r"[-+]?\d[\d.eE+-]*", "#", line)[:120]


def execute(cli, op) -> Record:
    # the bench_* modules import numpy, so they load only after main() has
    # pinned the thread counts
    from bench_check import CheckFailed, check_op

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        latency = time.perf_counter() - t0
    rec = Record(latency, rc == 0, op.items, op.baselines)
    if op.output_dir.is_dir():
        rec.bytes_written = sum(p.stat().st_size for p in op.output_dir.iterdir())
    if rc != 0:
        rec.error = _error_class(rc, err.getvalue())
        return rec
    try:
        check_op(op)
    except CheckFailed as exc:
        rec.ok, rec.error = False, f"check {exc.kind}: {exc}"[:160]
    return rec


def is_correct(errors) -> bool:
    """True when every failure is the known runtime failure.

    A wrong output that passed as exit 0, a crash of another class, or
    any other exit code makes the run incorrect.
    """
    return all(e == KNOWN_FAILURE for e in errors)


def distinct_ops(workload: str, seconds: float) -> int:
    """Number of distinct operations a run of this length attempts."""
    return max(1, round(OPS_PER_SECOND[workload] * seconds))


def run_ops(cli, workload, seed, work_dir, count, seconds=0.0, setup_cfg=None):
    """Run operations 0 .. count-1, then repeat them in order until seconds pass.

    Every distinct operation runs once, however long that takes. A repeat
    whose outcome differs from the first run of its operation is recorded
    as a nondeterministic failure. With setup_cfg, a fresh-process set-up
    is timed SETUP_SAMPLES times at even steps through the run, between
    operations; the run's clock stops while it does. Returns the records
    and the set-up times.
    """
    from bench_inputs import make_op

    records, setup_times, first = [], [], {}
    start = time.perf_counter()
    deadline = start + seconds
    while len(records) < count or time.perf_counter() < deadline:
        index = len(records) % count
        op = make_op(workload, seed, index, work_dir)
        rec = execute(cli, op)
        rec.index = index
        shutil.rmtree(op.op_dir, ignore_errors=True)
        if len(records) < count:
            first[index] = rec.error
        else:
            rec.repeat = True
            if rec.error != first[index]:
                rec.ok, rec.error = False, f"nondeterministic: {rec.error} after {first[index]}"
        records.append(rec)
        # free the last operation's garbage, as a fresh process would start without it
        gc.collect()
        rec.reference_s = reference_kernel()
        if setup_cfg is not None:
            due = 1 + (SETUP_SAMPLES - 1) * (time.perf_counter() - start) / seconds
            if len(setup_times) < min(due, SETUP_SAMPLES):
                paused = time.perf_counter()
                setup_times.append(time_setup(setup_cfg))
                elapsed = time.perf_counter() - paused
                start, deadline = start + elapsed, deadline + elapsed
    while setup_cfg is not None and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(time_setup(setup_cfg))
    return records, setup_times


def at_reference_speed(records) -> list:
    """Each operation's latency divided by the slowdown measured around it.

    The slowdown is the mean reference time of the five operations centred
    on this one, over REFERENCE_S, so a slow spell within a run is
    corrected where it happened.
    """
    refs = [r.reference_s for r in records]
    return [r.latency_s * REFERENCE_S / statistics.mean(refs[max(0, i - 2):i + 3])
            for i, r in enumerate(records)]


def summarize(records):
    """End-to-end figures of one closed-loop run, at the reference speed and raw.

    Timings are per distinct operation, each the mean of its executions, so
    every run of a seed weighs the same operations alike, however many
    repeats it had time for.
    """
    distinct = [r for r in records if not r.repeat]
    figures = {}
    for name, lat in (("raw", [r.latency_s for r in records]),
                      ("ref", at_reference_speed(records))):
        runs = {}
        for t, r in zip(lat, records):
            runs.setdefault(r.index, []).append(t)
        op_lat = [statistics.mean(runs[r.index]) for r in distinct]
        ok_lat = sorted(t for t, r in zip(op_lat, distinct) if r.ok) or sorted(op_lat)
        rank = max(0, len(ok_lat) - 1 - TAIL_BEYOND)
        figures[name] = {
            "items_per_s": sum(r.items for r in distinct if r.ok) / sum(op_lat),
            "op_p50_s": statistics.median(ok_lat),
            "op_tail_s": ok_lat[rank],
        }
    return {
        **figures["ref"],
        # attempted and failed count distinct operations; repeats only add timings
        "attempted": len(distinct),
        "failed": sum(not r.ok for r in distinct),
        "executions": len(records),
        "items_ok": sum(r.items for r in distinct if r.ok),
        "tail_percentile": 100.0 * (rank + 1) / len(ok_lat),
        "latency_samples": len(ok_lat),
        "busy_s": sum(r.latency_s for r in records),
        "slowdown": statistics.mean(r.reference_s for r in records) / REFERENCE_S,
        "raw": figures["raw"],
        "errors": dict(Counter(r.error for r in records if r.error)),
    }


def time_setup(cfg_path: Path) -> float:
    """Time for a fresh interpreter to import entbase and parse a config.

    The child reports when it finished on the system-wide monotonic clock,
    so the parent's polling of the child does not round the time.
    """
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(cfg_path)],
                          check=True, timeout=60, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - t0


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def per_layer(tracer, records, untraced) -> dict:
    s, calls, counters = tracer.self_s, tracer.calls, tracer.counters
    traced = summarize(records)
    protocol_s = s["protocol"] + s["protocol.seed"]
    observed = counters["imaging.baselines_observed"]
    if observed:
        useful = sum(r.baselines for r in records if r.ok) / observed
    else:  # sweeps observe no baseline plan: share of items from accepted operations
        useful = traced["items_ok"] / sum(r.items for r in records)
    metrics = {
        "protocol.observe_s": (protocol_s, "s"),
        "protocol.calls": (calls["protocol"], "count"),
        "protocol.us_per_call": (1e6 * protocol_s / max(calls["protocol"], 1), "us"),
        "qcore.xstate_s": (s["qcore.xstate"], "s"),
        "qcore.xstate_count": (calls["qcore.xstate"], "count"),
        "imaging.pipeline_s": (s["imaging.pipeline"], "s"),
        "imaging.true_visibility_s": (s["imaging.true_visibility"], "s"),
        "imaging.reconstruct_s": (s["imaging.reconstruct"], "s"),
        "imaging.map_cells": (counters["imaging.map_cells"], "count"),
        "imaging.map_bytes_computed": (counters["imaging.map_bytes_computed"], "B"),
        "imaging.useful_frac": (useful, "frac"),
        "channels.resource_s": (s["channels"], "s"),
        "channels.calls": (calls["channels"], "count"),
        "config.parse_s": (s["config"], "s"),
        "config.calls": (counters["config.calls"], "count"),
        "cli.self_s": (s["cli"], "s"),
        "cli.bytes_written": (sum(r.bytes_written for r in records), "B"),
        "failed_frac": (traced["failed"] / traced["attempted"], "frac"),
        "trace.items_per_s": (traced["items_per_s"], "1/s"),
        "trace.untraced_items_per_s": (untraced["items_per_s"], "1/s"),
        "trace.overhead_frac": (untraced["items_per_s"] / traced["items_per_s"] - 1.0, "frac"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "entbase" / "__init__.py").is_file():
        print(f"benchmark: no entbase sources under {SRC}", file=sys.stderr)
        return 2
    # one client on one thread: entbase's own pool and numpy's BLAS alike
    for var in ("ENTBASE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import entbase.cli as cli
    from bench_inputs import WORKLOADS, make_op

    if Path(cli.__file__).resolve().parent != (SRC / "entbase").resolve():
        print(f"benchmark: imported entbase from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        run_ops(cli, args.workload, args.seed, work_dir, count=1)  # warm-up
        # set-up parses the workload's first config; its directory is outside
        # work_dir so that no operation's clean-up removes it
        first = make_op(args.workload, args.seed, 0, work_dir / "setup")
        setup_cfg = first.op_dir / "config.json"

        if args.trace:
            from bench_trace import Tracer, installed

            # the operations of half the time untraced, then the same ones traced
            count = distinct_ops(args.workload, args.seconds / 2.0)
            untraced_records, setup_times = run_ops(cli, args.workload, args.seed,
                                                    work_dir, count)
            untraced = summarize(untraced_records)
            with installed(Tracer()) as tracer:
                records, _ = run_ops(cli, args.workload, args.seed, work_dir, count)
            result = summarize(records)
            metrics = per_layer(tracer, records, untraced)
            details = {"untraced": untraced}
        else:
            records, setup_times = run_ops(
                cli, args.workload, args.seed, work_dir,
                distinct_ops(args.workload, args.seconds), seconds=args.seconds,
                setup_cfg=setup_cfg)
            result = summarize(records)
            # at the reference speed, by the slowdown of this run's operations;
            # the raw times are in the details (README.md gives the evidence)
            setup_s = statistics.median(setup_times) / result["slowdown"]
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "items_per_s": {"value": result["items_per_s"], "unit": "1/s"},
                "op_p50_s": {"value": result["op_p50_s"], "unit": "s"},
                "op_tail_s": {"value": result["op_tail_s"], "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                "ok_frac": {"value": 1.0 - result["failed"] / result["attempted"],
                            "unit": "frac"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
            details = {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    details.update(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, setup_times=setup_times,
                   failed_frac=result["failed"] / result["attempted"],
                   machine=machine_info())
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": is_correct(result["errors"]),
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
