"""Byte-identity contract: `run` and `sweep` outputs for a fixed seed do not drift.

The digests pin `run` on the three bundled configs and two sweeps of the fiber
config. A refactor must keep them; an intended change to these bytes (for
example a new seed scheme) is declared in docs/schema.md and CHANGES.md and
updates the digests in the same change.
`intensity.csv` is left out: its dirty map is a BLAS matrix product whose last
bits depend on the BLAS build.
"""

import hashlib
import json
from pathlib import Path

import pytest

from entbase.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

RUN_DIGESTS = {
    ("ideal_two_source", "visibility.csv"):
        "d720f3b98a1234d58fe6eab13dbb926659bc1601d0eb65d86772f027caf8159c",
    ("ideal_two_source", "summary.json"):
        "8126bd0c40ead1e811480e588921669dbd2c10b6b7d03789b15ba5aafee2d809",
    ("fiber_two_source", "visibility.csv"):
        "ccb56cf1ef9882f1bb43a30c4f7ebf0a1f8e30849a30af5e346e45668a64d117",
    ("fiber_two_source", "summary.json"):
        "c0ebb9dc761891aafc8e17e8e032259e86fcc74f62af19519ce703f20594c7c5",
    ("memory_swap_two_source", "visibility.csv"):
        "87bb55daa4d9c46d2c82f60ec2ac47f57e89cd09d9e6895ff9837f82378597d5",
    ("memory_swap_two_source", "summary.json"):
        "5223ebbc208950fbbaef4b462a329db93886430032bf3276a5ee547bd4dccf3d",
}

SWEEP_DIGESTS = {
    ("--param", "B", "--values", "0,10,20,30,40,50,60"):
        "ce91af08a2a6573d7e725143034578c059683366aba49adfc72e7a3fc2fd8b6b",
    ("--param", "N", "--values", "1000,10000,100000", "--mc-replicates", "100"):
        "c48080f236536e6c3ac8bb62539be8b688d93fa0c748bb9633358d03a9f83e8a",
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
        assert digest(tmp_path / "out" / file_name) == RUN_DIGESTS[name, file_name], file_name


@pytest.mark.parametrize("args", list(SWEEP_DIGESTS), ids=["B", "N-mc"])
def test_sweep_outputs_are_pinned(tmp_path, args):
    assert main(["sweep", bundled_config(tmp_path, "fiber_two_source"), *args]) == 0
    assert digest(tmp_path / "out" / "sweep.csv") == SWEEP_DIGESTS[args]
