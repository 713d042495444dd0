"""Smoke tests for the experiment drivers under ``scripts/``."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_theta_sweep_greedy_writes_full_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    load_script("run_theta_sweep").main(["--solver", "greedy", "--out", str(out)])
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 38  # 19 thetas x {ew, ivw}
    assert all(r["error"] == "" for r in rows)
    assert "38 settings" in capsys.readouterr().out
