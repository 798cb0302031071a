"""Byte-identity contract: `run` and `sweep` outputs for a fixed seed do not drift.

The digests pin `run` on the three bundled configs and four sweeps of the fiber
config: over B, over N with Monte Carlo replicates, over the channel's L0 with
replicates, and over R_E. A refactor must keep them; an intended change to these
bytes (for example a new seed scheme) is declared in docs/schema.md and
CHANGES.md and updates the digests in the same change.
`intensity.csv` is left out: its dirty map is a BLAS matrix product whose last
bits depend on the BLAS build. The `run` digests were recorded under run seed
scheme v2 (docs/schema.md#Seeding), which changed the estimate columns of
`visibility.csv` and the `dI` of `summary.json` and added its `n_above_unit`
key; the B and N sweep digests predate it and are unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from entbase.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

RUN_DIGESTS = {
    ("ideal_two_source", "visibility.csv"):
        "a591b145a6dfaa2f73d6aa5af072ac0f7783401b66bc23a1315bb772129d6426",
    ("ideal_two_source", "summary.json"):
        "be7c059292e837a9882203bc57a6e650d6eaf0f91bddc373792307d7d4047062",
    ("fiber_two_source", "visibility.csv"):
        "396e17b1f41c8f91ce04e7de858d0eaed7f047819115ca1d58c5cc58255c3fa3",
    ("fiber_two_source", "summary.json"):
        "2ad042a538ebbcaa1564a91c2c2545847db9e7120d8c62d395d3df561f5807d0",
    ("memory_swap_two_source", "visibility.csv"):
        "fcb65f51faf545d78974b148082536a08a0294e7b3b6058848bda923e3af956b",
    ("memory_swap_two_source", "summary.json"):
        "15ed8b200677c3cbedf65ddff5dfcf7d4dd93767d008c934b10730432f0efec0",
}

SWEEP_DIGESTS = {
    ("--param", "B", "--values", "0,10,20,30,40,50,60"):
        "ce91af08a2a6573d7e725143034578c059683366aba49adfc72e7a3fc2fd8b6b",
    ("--param", "N", "--values", "1000,10000,100000", "--mc-replicates", "100"):
        "c48080f236536e6c3ac8bb62539be8b688d93fa0c748bb9633358d03a9f83e8a",
    ("--param", "L0", "--values", "2,5,10,20,40,80", "--mc-replicates", "50"):
        "aba437874c8bd6acc3c5a335fbfdb9af9e56cdad87d354e2646d2445a98c5d6b",
    ("--param", "R_E", "--values", "0.05,0.25,0.5,0.75,1"):
        "60899fbe49fb21474ae8f64ef59172df5d16de4e0c07545d20acb71545f31d1f",
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


@pytest.mark.parametrize("args", list(SWEEP_DIGESTS), ids=["B", "N-mc", "L0-mc", "R_E"])
def test_sweep_outputs_are_pinned(tmp_path, args):
    assert main(["sweep", bundled_config(tmp_path, "fiber_two_source"), *args]) == 0
    assert digest(tmp_path / "out" / "sweep.csv") == SWEEP_DIGESTS[args]
