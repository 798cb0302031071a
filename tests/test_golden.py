"""Byte-identity contract: `run`, `sweep` and `study` outputs for a fixed seed do not drift.

The digests pin `run` on the three bundled configs, five sweeps of the fiber
config (over B, over N with Monte Carlo replicates, once with more replicates
than one chunk, over the channel's L0 with replicates, and over R_E), two
sweeps of the memory-swap config (over t1, and over the phase setting w2 with
replicates, whose rows invert at differing effective phases), the CSV of
`entbase study rates` at its default arguments and both CSVs of
`entbase study errors` at the sizes tests/test_config_cli.py runs it with
(all three were recorded when the studies were stand-alone scripts, and the
study's before its tables moved into entbase.validation), and three commands
whose array arithmetic overflows (recorded when numpy still warned of it). A
refactor must keep them; an intended change to these bytes (for example a new seed scheme)
is declared in docs/schema.md and CHANGES.md and updates the digests in the
same change.
`intensity.csv` is left out: its dirty map is a BLAS matrix product whose last
bits depend on the BLAS build. The `run` digests were recorded under run seed
scheme v2 (docs/schema.md#Seeding), which changed the estimate columns of
`visibility.csv` and the `dI` of `summary.json` and added its `n_above_unit`
key; the B and N sweep digests predate it and are unchanged. The fiber and
memory-swap `summary.json` digests were re-recorded when every summary figure
came to be taken at one worst baseline, the first one with the largest
1/(C sqrt(xi R_E)), and `dI_scale` became hypot(dVa_scale, dVp_scale): the
fiber figures moved from B = 1.25 to B = 60, and the memory-swap `dI_scale`
moved in its last digit (docs/schema.md#Outputs of `run`). All six `run`
digests were re-recorded when `dV_a` came to be propagated through the same
Jacobian as `dV_p`, which changed the `dV_a` column of `visibility.csv` and
the `dI` of `summary.json` (docs/schema.md#Error bars); the sweep and
rate-script digests are unchanged. The three Monte Carlo sweep digests and
both study digests were re-recorded under sweep seed scheme v3, which draws
each row's replicates by setting column and so changed only the RMSE
columns (docs/schema.md#Seeding); the w2 sweep digest was recorded under it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from entbase.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

RUN_DIGESTS = {
    ("ideal_two_source", "visibility.csv"):
        "232b230af939723f8d64ecb143cd1e2a279d7aa88407e683e2807edd11a7fa39",
    ("ideal_two_source", "summary.json"):
        "efcbc409bef73306d3f4c2c89f1776208cb064da02b359e953655c536f111f8c",
    ("fiber_two_source", "visibility.csv"):
        "c61a6b957d2d469c1b8e42b9afad2c8ea1d51c6273c2c7bb94a6fbb510421655",
    ("fiber_two_source", "summary.json"):
        "64c07444885a8426f1a84d751626f4f1ad8fe4b90fb03c29a987d3f4355e1ec1",
    ("memory_swap_two_source", "visibility.csv"):
        "783c68c5d7eb9fc3846af0c951f6cfc53be9bfe5a335581f631d96c5b63c2690",
    ("memory_swap_two_source", "summary.json"):
        "ef7ba15bebaa65fd6c5db25ffb8ad5124707e7df17c1582ff7afe7e3cf79a05c",
}

SWEEP_DIGESTS = {
    ("fiber_two_source", "--param", "B", "--values", "0,10,20,30,40,50,60"):
        "ce91af08a2a6573d7e725143034578c059683366aba49adfc72e7a3fc2fd8b6b",
    ("fiber_two_source", "--param", "N", "--values", "1000,10000,100000",
     "--mc-replicates", "100"):
        "e5e0b97f2923ba1f4ca39b886869998b90eaf446e6eba7c9f79760c99655802b",
    ("fiber_two_source", "--param", "L0", "--values", "2,5,10,20,40,80", "--mc-replicates", "50"):
        "d602b31472e3b948d92a8204f2c08d724a743d7c09fd88ca7a63ed6e3f3f9889",
    ("fiber_two_source", "--param", "R_E", "--values", "0.05,0.25,0.5,0.75,1"):
        "60899fbe49fb21474ae8f64ef59172df5d16de4e0c07545d20acb71545f31d1f",
    # more replicates than protocol.REPLICATE_CHUNK: each row's RMSE sums two chunks
    ("fiber_two_source", "--param", "N", "--values", "1000,2000", "--mc-replicates", "8195"):
        "34bf7f610d5787b1ef32720691790662ea51895ea05c67630dbd03b1ea07e64c",
    # xi, R_M_norm and both log-rates are the same in every row, C is not
    ("memory_swap_two_source", "--param", "t1", "--values", "0,0.25,0.5,1,2"):
        "dc31483c020a0e7043a0f1efed9109164e840a3261b9024e51d04b70fa365e90",
    # each row's settings, and so its effective phases, differ
    ("memory_swap_two_source", "--param", "w2", "--values", "0.5,1,1.5707963267948966,2.5",
     "--mc-replicates", "50"):
        "30890cb34a5e9b5c3a40c43e3662e74d0f903607742d9bd6691d5816501406c0",
}

RATE_SCRIPT_DIGEST = "bd00403528498c0a081887111c8d3e2407e412ae4c0f4d6147867fa23b685eee"

# arguments whose array arithmetic overflows (-L / L0 at a subnormal L0, beta L at
# beta = 1e308): each file holds the overflow's exact limit, written with no RuntimeWarning
OVERFLOW_DIGESTS = {
    ("sweep", "fiber_two_source", "--param", "L0", "--values", "1e-320"):
        "9a714b4ced796d690c67a60a74d311473914c356b89bcec6fe8dd11900ce93e8",
    ("study", "rates", "--L0", "1e-320"):
        "a2d40a7c63b8915e0556cb1b8a27e27bf1c14e74a0dd7974c213a980721ba64a",
    ("study", "rates", "--beta", "1e308"):
        "c61c2e35a20fffd25877aa7bdd390c14e73806d39b57e5bdf5df55f5307b8d96",
}

# the numpy the digests were recorded with; a ufunc's last bits may differ on another
# numpy build or CPU, so a failure names both versions
RECORDED_NUMPY = "2.4.6"
NUMPY_NOTE = f"digests recorded with numpy {RECORDED_NUMPY}, running numpy {np.__version__}"

STUDY_ARGS = ["--replicates", "25", "--budget", "20000"]
STUDY_DIGESTS = {
    "rmse_vs_n.csv": "bd051cce7034c47daea30d708d10407009da7ee5fa00672708cda0e286ed55c5",
    "rmse_vs_resource.csv": "f25e9d49e9313e1a1302301712d13fef89340db0b78378e71c926ea82ad8e0db",
}


def bundled_config(tmp_path, name):
    """The bundled config `name`, written to tmp_path with its output there too."""
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted({name for name, _ in RUN_DIGESTS}))
def test_run_outputs_are_pinned(tmp_path, name):
    assert main(["run", bundled_config(tmp_path, name)]) == 0
    for file_name in ("visibility.csv", "summary.json"):
        assert digest(tmp_path / "out" / file_name) == RUN_DIGESTS[name, file_name], \
            f"{file_name} ({NUMPY_NOTE})"


@pytest.mark.parametrize("key", list(SWEEP_DIGESTS), ids=[
    "B", "N-mc", "L0-mc", "R_E", "N-mc-chunk-crossing", "memory-swap-t1", "memory-swap-w2-mc"])
def test_sweep_outputs_are_pinned(tmp_path, key):
    name, *args = key  # the bundled config, then the sweep's arguments
    assert main(["sweep", bundled_config(tmp_path, name), *args]) == 0
    assert digest(tmp_path / "out" / "sweep.csv") == SWEEP_DIGESTS[key], NUMPY_NOTE


def test_rate_script_output_is_pinned(tmp_path, capsys):
    assert main(["study", "rates", "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "rate_vs_baseline.csv") == RATE_SCRIPT_DIGEST, NUMPY_NOTE


def test_study_script_outputs_are_pinned(tmp_path, capsys):
    assert main(["study", "errors", *STUDY_ARGS, "--out", str(tmp_path)]) == 0
    for name, expected in STUDY_DIGESTS.items():
        assert digest(tmp_path / name) == expected, f"{name} ({NUMPY_NOTE})"


@pytest.mark.parametrize("key", list(OVERFLOW_DIGESTS), ids=[
    "sweep-L0", "study-rates-L0", "study-rates-beta"])
def test_overflowing_arguments_write_their_limits(tmp_path, capsys, key):
    if key[0] == "sweep":
        verb, name, *args = key
        argv, out = [verb, bundled_config(tmp_path, name), *args], tmp_path / "out" / "sweep.csv"
    else:
        argv, out = [*key, "--out", str(tmp_path)], tmp_path / "rate_vs_baseline.csv"
    assert main(argv) == 0
    assert digest(out) == OVERFLOW_DIGESTS[key], NUMPY_NOTE
