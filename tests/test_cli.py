import csv
import json
import subprocess
import sys

import pytest

from misfolio.timeseries import load_prices


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "misfolio.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def synth(tmp_path, name="px.csv", stocks=8, days=280, seed=7, factors=3):
    out = tmp_path / name
    r = run_cli("--seed", seed, "synth", "--stocks", stocks, "--days", days, "--factors", factors, "--out", out)
    assert r.returncode == 0, r.stderr
    return out


# --- synth -------------------------------------------------------------------

def test_synth_output_is_reloadable_and_deterministic(tmp_path):
    a = synth(tmp_path, "a.csv")
    b = synth(tmp_path, "b.csv")
    panel = load_prices(a)
    assert panel.n_tickers == 8 and panel.n_dates == 280
    assert a.read_bytes() == b.read_bytes()


def test_synth_different_seed_changes_output(tmp_path):
    a = synth(tmp_path, "a.csv", seed=1)
    b = synth(tmp_path, "b.csv", seed=2)
    assert a.read_bytes() != b.read_bytes()


def test_synth_zero_stocks_is_usage_error(tmp_path):
    r = run_cli("synth", "--stocks", 0, "--days", 10, "--out", tmp_path / "x.csv")
    assert r.returncode == 2


# --- build-graph ----------------------------------------------------------------

def test_build_graph_threshold_above_one_writes_empty_edge_list(tmp_path):
    prices = synth(tmp_path)
    out = tmp_path / "g.txt"
    r = run_cli("build-graph", "--prices", prices, "--theta", 1.1, "--out", out)
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    assert lines[0].startswith("8 ")


def test_build_graph_single_factor_panel_is_dense(tmp_path):
    prices = tmp_path / "dense.csv"
    r = run_cli("--seed", 3, "synth", "--stocks", 6, "--days", 600, "--factors", 1, "--out", prices)
    assert r.returncode == 0
    out = tmp_path / "g.txt"
    r = run_cli("build-graph", "--prices", prices, "--theta", 0.25, "--out", out)
    assert r.returncode == 0
    assert "density" in r.stdout
    density = float(r.stdout.split("density")[1].split()[0])
    assert density > 0.8


def test_build_graph_missing_prices_file_exits_2_with_path(tmp_path):
    r = run_cli("build-graph", "--prices", tmp_path / "nope.csv", "--theta", 0.2, "--out", tmp_path / "g.txt")
    assert r.returncode == 2
    assert "nope.csv" in r.stderr


def test_malformed_prices_file_is_runtime_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,A\n2020-01-01,xyz\n")
    r = run_cli("build-graph", "--prices", bad, "--theta", 0.2, "--out", tmp_path / "g.txt")
    assert r.returncode == 1
    assert "error" in r.stderr.lower()


# --- solve ------------------------------------------------------------------------

def write_edge_list(tmp_path, n, edges, name="g.txt"):
    path = tmp_path / name
    path.write_text(f"{n} 0.25\n" + "".join(f"{i} {j}\n" for i, j in edges))
    return path


def test_solve_exact_five_cycle(tmp_path):
    g = write_edge_list(tmp_path, 5, [(i, (i + 1) % 5) for i in range(5)])
    out = tmp_path / "sol.json"
    r = run_cli("solve", "--graph", g, "--solver", "exact", "--out", out)
    assert r.returncode == 0
    sol = json.loads(out.read_text())
    assert sol["size"] == 2 and sol["feasible"] is True and sol["source"] == "exact"
    assert set(sol) == {"size", "feasible", "nodes", "tickers", "source"}


def test_solve_greedy_empty_graph_takes_all(tmp_path):
    g = write_edge_list(tmp_path, 7, [])
    out = tmp_path / "sol.json"
    r = run_cli("solve", "--graph", g, "--solver", "greedy", "--out", out)
    assert r.returncode == 0
    assert json.loads(out.read_text())["size"] == 7


def test_solve_sb_prints_per_run_energies_and_is_deterministic(tmp_path):
    g = write_edge_list(tmp_path, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    r1 = run_cli("--seed", 5, "solve", "--graph", g, "--solver", "sb", "--restarts", 10, "--out", out1)
    r2 = run_cli("--seed", 5, "solve", "--graph", g, "--solver", "sb", "--restarts", 10, "--out", out2)
    assert r1.returncode == 0 and r2.returncode == 0
    assert sum(1 for line in r1.stdout.splitlines() if line.startswith("run ")) == 10
    assert out1.read_bytes() == out2.read_bytes()


# --- backtest ------------------------------------------------------------------------

def test_backtest_writes_schema_compliant_report_and_cumulative_csv(tmp_path):
    prices = synth(tmp_path, stocks=6, days=320)
    out = tmp_path / "report.json"
    r = run_cli(
        "--seed", 2, "backtest", "--prices", prices, "--theta", 0.25,
        "--weighting", "ivw", "--window-days", 126, "--solver", "greedy", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"summary", "months"}
    month = report["months"][0]
    assert set(month) == {"date", "return", "n_constituents", "edge_density", "turnover", "cost", "feasible"}
    assert month["return"] is None
    cum = (tmp_path / "report_cumulative.csv").read_text().splitlines()
    assert cum[0] == "date,monthly_return,cumulative_return"
    assert len(cum) == len(report["months"]) + 1


def test_backtest_cost_of_whole_turnover_is_rejected(tmp_path):
    prices = synth(tmp_path, stocks=4, days=300)
    out = tmp_path / "report.json"
    r = run_cli(
        "backtest", "--prices", prices, "--theta", 0.25, "--cost-bps", 10000,
        "--window-days", 63, "--solver", "greedy", "--out", out,
    )
    assert r.returncode == 1
    assert "cost_rate" in r.stderr
    assert not out.exists()


def test_backtest_single_stock_zero_cost_is_buy_and_hold(tmp_path):
    prices = synth(tmp_path, stocks=1, days=300, factors=1)
    out = tmp_path / "report.json"
    r = run_cli(
        "backtest", "--prices", prices, "--theta", 0.3, "--cost-bps", 0,
        "--window-days", 63, "--solver", "exact", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    panel = load_prices(prices)
    from misfolio.backtest import month_end_indices

    ends = [i for i in month_end_indices(panel.dates) if i >= 63]
    for rec, (a, b) in zip(report["months"][1:], zip(ends, ends[1:])):
        want = float(panel.prices[b, 0] / panel.prices[a, 0] - 1.0)
        assert rec["return"] == pytest.approx(want, rel=1e-12)
        assert rec["n_constituents"] == 1


# --- sweep --------------------------------------------------------------------------

def test_sweep_single_theta_gives_one_row_per_weighting(tmp_path):
    prices = synth(tmp_path, stocks=6, days=320)
    out = tmp_path / "sweep.csv"
    r = run_cli(
        "sweep", "--prices", prices, "--theta-min", 0.2, "--theta-max", 0.2,
        "--window-days", 126, "--solver", "greedy", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {row["weighting"] for row in rows} == {"ew", "ivw"}
    assert all(row["theta"] == "0.2" for row in rows)


# --- bench --------------------------------------------------------------------------

def test_bench_exact_has_full_relative_accuracy(tmp_path):
    out = tmp_path / "bench.csv"
    r = run_cli(
        "bench", "--sizes", "12", "--graphs-per-size", 2,
        "--solvers", "exact,greedy,sb", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    with open(out) as fh:
        rows = {row["solver"]: row for row in csv.DictReader(fh)}
    assert rows["exact"]["mean_relative_size"] == "1.0"
    assert float(rows["greedy"]["mean_relative_size"]) <= 1.0
    assert int(rows["exact"]["n_timeouts"]) == 0


def test_bench_exact_timeout_recorded_not_fatal(tmp_path):
    out = tmp_path / "bench.csv"
    r = run_cli(
        "bench", "--sizes", "150", "--graphs-per-size", 1, "--solvers", "exact",
        "--timeout-secs", 1e-6, "--out", out,
    )
    assert r.returncode == 0, r.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n_timeouts"] == "1"
    assert rows[0]["mean_relative_size"] == ""


def test_unknown_solver_is_usage_error(tmp_path):
    g = write_edge_list(tmp_path, 3, [])
    r = run_cli("solve", "--graph", g, "--solver", "annealer", "--out", tmp_path / "x.json")
    assert r.returncode == 2
