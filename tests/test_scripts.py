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


def test_rate_vs_baseline_zero_points(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "rate_vs_baseline.py", ["--points", "0", "--out", str(tmp_path)])
    assert (tmp_path / "rate_vs_baseline.csv").read_text() == (
        "B,R_fiber_norm,R_depol_norm,R_ideal_norm,ln_R_depol_approx\n")


# an out-of-range or malformed option exits 1 with a message that names it, before any file
# is written
BAD_ARGUMENTS = [
    ("rate_vs_baseline.py", ["--points", "-1"], "--points: must be nonnegative, not -1"),
    ("rate_vs_baseline.py", ["--B-max", "-5"], "--B-max: must be finite and nonnegative, not -5.0"),
    ("rate_vs_baseline.py", ["--B-max", "inf"],
     "--B-max: must be finite and nonnegative, not inf"),
    ("rate_vs_baseline.py", ["--L0", "0"], "--L0: must be finite and positive, not 0.0"),
    ("rate_vs_baseline.py", ["--beta", "nan"], "--beta: must be finite and positive, not nan"),
    ("rate_vs_baseline.py", ["--points", "abc"], "argument --points: invalid int value: 'abc'"),
    ("error_scaling_study.py", ["--replicates", "0"], "--replicates: must be at least 1, not 0"),
    ("error_scaling_study.py", ["--seed", "-1"], "--seed: must be at least 0, not -1"),
    ("error_scaling_study.py", ["--budget", "1e5"], "argument --budget: invalid int value: '1e5'"),
    # N_post = round(3 * 0.3 / 2) = 0 at xi = 0.3, and 10**19 / 2 > 2**63 - 1 at xi = 1
    *(("error_scaling_study.py", ["--replicates", "2", "--budget", budget],
       f"--budget: {budget} gives a cell N_post = round(budget xi / 2) outside [1, 2**63 - 1]")
      for budget in ("3", str(10 ** 20))),
]


@pytest.mark.parametrize("name, argv, message", BAD_ARGUMENTS,
                         ids=[f"{name} {' '.join(argv)}" for name, argv, _ in BAD_ARGUMENTS])
def test_out_of_range_argument_exits_1(tmp_path, monkeypatch, capsys, name, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, name, [*argv, "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"invalid arguments: {message}\n"
    assert not any(tmp_path.iterdir())


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
