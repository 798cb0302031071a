import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, argv):
    monkeypatch.setattr(sys, "argv", [name] + argv)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_rate_vs_baseline(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "rate_vs_baseline.py",
               ["--L0", "10", "--beta", "0.1", "--points", "21", "--out", str(tmp_path)])
    rows = (tmp_path / "rate_vs_baseline.csv").read_text().strip().splitlines()
    assert rows[0].startswith("B,")
    assert len(rows) == 22
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    lns = np.log(data[:, 1])
    slope = np.polyfit(data[:, 0], lns, 1)[0]
    assert abs(slope + 1.0 / 20.0) <= 1e-9


def test_error_scaling_study(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "error_scaling_study.py",
               ["--replicates", "25", "--budget", "20000", "--out", str(tmp_path)])
    n_rows = (tmp_path / "rmse_vs_n.csv").read_text().strip().splitlines()
    assert len(n_rows) == 4
    res_rows = (tmp_path / "rmse_vs_resource.csv").read_text().strip().splitlines()
    assert len(res_rows) == 10
    out = capsys.readouterr().out
    assert "slope" in out
    # 12 rows (3 sample sizes, a 3 x 3 resource grid) of 25 replicates, timed in-process
    assert re.search(r"^replicate_rmse: 300 row-replicates in \d+\.\d{6} s$", out, re.M)


def test_bundled_configs_run(tmp_path, monkeypatch):
    import json
    from entbase.cli import main

    for name in ("ideal_two_source.json", "fiber_two_source.json",
                 "memory_swap_two_source.json"):
        cfg = json.loads((SCRIPTS.parent / "configs" / name).read_text())
        cfg["N_per_setting"] = 1000
        cfg["output_dir"] = str(tmp_path / name.removesuffix(".json"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
