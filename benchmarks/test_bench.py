"""Tests for the benchmark's input generator, output checker and tracer."""

import dataclasses
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _load(filename: str, name: str):
    """Import a benchmark module from its file, leaving sys.path as it is."""
    spec = importlib.util.spec_from_file_location(name, HERE / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# bench_check imports bench_inputs under that name; run.py's generic name is
# not taken into sys.modules
bench_inputs = _load("bench_inputs.py", "bench_inputs")
bench_check = _load("bench_check.py", "bench_check")
bench_trace = _load("bench_trace.py", "bench_trace")
bench_run = _load("run.py", "entbase_benchmark_run")

CheckFailed, check_op = bench_check.CheckFailed, bench_check.check_op
IMAGE_BASELINES, SCAN_BASELINES = bench_inputs.IMAGE_BASELINES, bench_inputs.SCAN_BASELINES
WORKLOADS, ladder, make_op = bench_inputs.WORKLOADS, bench_inputs.ladder, bench_inputs.make_op
REFERENCE_S, Record, summarize = bench_run.REFERENCE_S, bench_run.Record, bench_run.summarize


def _snapshot(op):
    files = {p.name: p.read_bytes() for p in sorted(op.op_dir.iterdir()) if p.is_file()}
    return op.argv, files, op.items


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = [_snapshot(make_op(workload, 7, i, tmp_path)) for i in range(10)]
    shutil.rmtree(tmp_path)
    second = [_snapshot(make_op(workload, 7, i, tmp_path)) for i in range(10)]
    assert first == second
    other = [_snapshot(make_op(workload, 8, i, tmp_path / "other")) for i in range(10)]
    assert all(a[1]["config.json"] != b[1]["config.json"] for a, b in zip(first, other))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_stay_in_the_work_dir(tmp_path, workload):
    for i in range(8):
        op = make_op(workload, 3, i, tmp_path)
        assert op.output_dir.parent == op.op_dir and op.op_dir.parent == tmp_path


def test_ladder_starts_largest_and_spreads_evenly():
    sizes = [ladder(i, *SCAN_BASELINES) for i in range(64)]
    assert sizes[0] == SCAN_BASELINES[1]
    assert all(SCAN_BASELINES[0] <= s <= SCAN_BASELINES[1] for s in sizes)
    # every block of 8 reaches both ends of the log range
    lo, hi = SCAN_BASELINES
    for start in (0, 8, 16):
        block = sorted(sizes[start:start + 8])
        assert block[0] < lo * (hi / lo) ** 0.2 and block[-1] > lo * (hi / lo) ** 0.8


def _small_run_op(tmp_path, workload="scan", variant_index=3, count=48, **extra):
    op = make_op(workload, 5, variant_index, tmp_path)
    cfg = dict(op.config, baselines=dict(op.config["baselines"], count=count), **extra)
    (op.op_dir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    return dataclasses.replace(op, config=cfg, items=count, baselines=count)


def _execute(op):
    from entbase import cli

    assert cli.main(list(op.argv)) == 0
    return op


@pytest.fixture
def run_op(tmp_path):
    return _execute(_small_run_op(tmp_path))


@pytest.fixture
def image_op(tmp_path):
    op = _small_run_op(tmp_path, "image", 2, count=IMAGE_BASELINES[0] // 4)
    return _execute(op)


@pytest.fixture
def mc_op(tmp_path):
    op = make_op("mc", 5, 7, tmp_path)  # an N sweep
    op = dataclasses.replace(op, argv=op.argv[:-1] + ("200",), mc_replicates=200)
    return _execute(op)


def test_checker_accepts_real_outputs(run_op, image_op, mc_op):
    for op in (run_op, image_op, mc_op):
        check_op(op)


def _edit_csv(path: Path, row: int, col: int, fn):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("corrupt, kind", [
    (lambda out: (out / "summary.json").unlink(), "missing_file"),
    (lambda out: _edit_csv(out / "visibility.csv", 5, 3, lambda v: "nan"), "nonfinite"),
    (lambda out: _edit_csv(out / "intensity.csv", 9, 3,
                           lambda v: repr(float(v) + 0.01)), "normalization"),
    (lambda out: _edit_csv(out / "visibility.csv", 4, 1, lambda v: repr(float(v) * 0.9)),
     "mismatch"),
])
def test_checker_flags_corrupted_run_output(run_op, corrupt, kind):
    corrupt(run_op.output_dir)
    with pytest.raises(CheckFailed) as err:
        check_op(run_op)
    assert err.value.kind == kind


def test_checker_flags_biased_estimates(run_op):
    path = run_op.output_dir / "visibility.csv"
    for row in range(1, 13):  # a quarter of the baselines, 20 sigma off
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[row].split(",")
        cells[3] = repr(float(cells[3]) + 20.0 * float(cells[5]))
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed) as err:
        check_op(run_op)
    assert err.value.kind == "estimate"


def test_checker_flags_a_map_of_the_wrong_visibilities(image_op):
    path = image_op.output_dir / "intensity.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cols = [line.split(",") for line in lines[1:]]
    # swap in the true map reversed in angle: still normalized, wrong shape
    rev = [c[2] for c in cols][::-1]
    for c, v in zip(cols, rev):
        c[2] = v
    path.write_text("\n".join([lines[0]] + [",".join(c) for c in cols]) + "\n",
                    encoding="utf-8")
    with pytest.raises(CheckFailed) as err:
        check_op(image_op)
    assert err.value.kind == "map"


def test_checker_flags_rmse_off_its_scale(mc_op):
    _edit_csv(mc_op.output_dir / "sweep.csv", 1, 6, lambda v: repr(float(v) * 50.0))
    with pytest.raises(CheckFailed) as err:
        check_op(mc_op)
    assert err.value.kind == "rmse_scale"


def test_checker_flags_missing_sweep_row(mc_op):
    path = mc_op.output_dir / "sweep.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed) as err:
        check_op(mc_op)
    assert err.value.kind == "shape"


def test_failures_count_and_tail_leaves_ten_beyond():
    records = [Record(float(i), True, 10, 0, reference_s=REFERENCE_S, index=i - 1)
               for i in range(1, 41)]
    records += [Record(1.0, False, 10, 0, "exit 2: x", reference_s=REFERENCE_S, index=i)
                for i in (40, 41)]
    s = summarize(records)
    assert (s["attempted"], s["failed"], s["items_ok"]) == (42, 2, 400)
    assert s["op_tail_s"] == 30.0 and s["tail_percentile"] == 75.0
    assert s["items_per_s"] == 400 / (sum(range(1, 41)) + 2.0)


def test_timings_are_scaled_to_the_reference_speed():
    fast = [Record(0.5, True, 10, 0, reference_s=REFERENCE_S, index=i) for i in range(20)]
    slow = [Record(1.0, True, 10, 0, reference_s=2.0 * REFERENCE_S, index=i) for i in range(20)]
    a, b = summarize(fast), summarize(slow)
    assert b["slowdown"] == 2.0 and b["raw"]["op_p50_s"] == 1.0
    for key in ("items_per_s", "op_p50_s", "op_tail_s"):
        assert b[key] == pytest.approx(a[key])


def test_error_class_masks_numbers():
    msg = "runtime error: ValueError: |V| = 1.0123 inconsistent with dV_a = 0.0041\n"
    assert bench_run._error_class(2, msg) == bench_run.KNOWN_FAILURE


def test_only_the_known_failure_keeps_the_run_correct():
    known = bench_run._error_class(2, "runtime error: ValueError: |V| = 1.02 "
                                      "inconsistent with dV_a = 0.005")
    crash = bench_run._error_class(2, "runtime error: TypeError: bad operand type")
    assert bench_run.is_correct({}) and bench_run.is_correct({known: 3})
    assert not bench_run.is_correct({known: 3, crash: 1})
    assert not bench_run.is_correct({"exit 1: invalid config: x": 1})
    assert not bench_run.is_correct({"check mismatch: V_true differs": 1})


def test_tracer_counts_layers_and_restores_names(tmp_path):
    from entbase import cli, imaging, qcore

    Tracer, installed = bench_trace.Tracer, bench_trace.installed

    op = _small_run_op(tmp_path, count=40)
    before = (cli.main, imaging.run_observation, qcore.XState.__post_init__)
    with installed(Tracer()) as tracer:
        assert cli.main(list(op.argv)) == 0
    assert (cli.main, imaging.run_observation, qcore.XState.__post_init__) == before
    assert tracer.calls["protocol"] == 40 and tracer.calls["cli"] == 1
    assert tracer.counters["imaging.baselines_observed"] == 40
    assert tracer.calls["imaging.reconstruct"] == 2 and tracer.counters["config.calls"] == 1
    assert tracer.calls["qcore.xstate"] >= 3 * 40
    assert all(v >= 0.0 for v in tracer.self_s.values())


def test_repeats_add_timings_but_not_attempts():
    records = [Record(1.0, True, 10, 0, reference_s=REFERENCE_S, index=0),
               Record(2.0, True, 10, 0, reference_s=REFERENCE_S, index=1),
               Record(1.0, False, 10, 0, bench_run.KNOWN_FAILURE, reference_s=REFERENCE_S,
                      index=2)]
    # operation 0 runs three more times, slower; each operation weighs the same
    records += [dataclasses.replace(records[0], latency_s=3.0, repeat=True)] * 3
    s = summarize(records)
    assert (s["attempted"], s["failed"], s["executions"]) == (3, 1, 6)
    assert s["op_p50_s"] == 2.25 and s["latency_samples"] == 2
    assert s["items_per_s"] == 20 / (2.5 + 2.0 + 1.0)


class _FlakyCli:
    """Stands in for entbase.cli: fails with the known error, then with another."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        known = "runtime error: ValueError: |V| = 1.02 inconsistent with dV_a = 0.005"
        print(known if self.calls == 1 else "runtime error: TypeError: x", file=sys.stderr)
        return 2


def test_a_repeat_with_another_outcome_makes_the_run_incorrect(tmp_path):
    cli = _FlakyCli()
    records, _ = bench_run.run_ops(cli, "rate_sweep", 1, tmp_path, count=1, seconds=1.0)
    s = summarize(records)
    assert cli.calls >= 2 and (s["attempted"], s["failed"]) == (1, 1)
    assert records[0].error == bench_run.KNOWN_FAILURE
    assert records[1].error.startswith("nondeterministic:")
    assert not bench_run.is_correct(s["errors"])


def test_distinct_operations_depend_only_on_workload_and_seconds():
    assert bench_run.distinct_ops("scan", 25) == 40
    assert bench_run.distinct_ops("rate_sweep", 12.5) == 70
    assert bench_run.distinct_ops("mc", 0.01) == 1
