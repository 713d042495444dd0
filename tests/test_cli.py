import csv
import functools
import itertools
import json
import subprocess
import sys

import pytest

from misfolio import cli
from misfolio.market_graph import read_edge_list
from misfolio.mis_qubo import verify
from misfolio.sb_solver import SbParams
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

def test_build_graph_threshold_of_one_writes_empty_edge_list(tmp_path):
    prices = synth(tmp_path)
    out = tmp_path / "g.txt"
    r = run_cli("build-graph", "--prices", prices, "--theta", 1.0, "--out", out)
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
    lines = r1.stdout.splitlines()
    run_lines = [line for line in lines if line.startswith("run ")]
    assert len(run_lines) == 10
    assert out1.read_bytes() == out2.read_bytes()
    # one summary line follows the run lines: feasible k/R, best and median size
    sizes = sorted(
        int(line.split("size ")[1].split(",")[0]) for line in run_lines if line.endswith("feasible True")
    )
    assert sizes
    median = (sizes[(len(sizes) - 1) // 2] + sizes[len(sizes) // 2]) / 2
    assert lines[len(run_lines)] == (
        f"restarts: {len(sizes)}/10 feasible before repair, "
        f"best size {sizes[-1]}, median size {median:g}"
    )


def test_solve_sb_without_a_feasible_restart_writes_the_repaired_best(tmp_path, monkeypatch, capsys):
    # one bSB step leaves every restart on K6 infeasible; the written set is
    # repaired, and the run lines still describe the sets before repair
    monkeypatch.setattr(cli, "SbParams", functools.partial(SbParams, n_steps=1))
    g = write_edge_list(tmp_path, 6, list(itertools.combinations(range(6), 2)))
    out = tmp_path / "sol.json"
    parser = cli.build_parser()
    args = parser.parse_args(
        ["--seed", "1", "solve", "--graph", str(g), "--solver", "sb", "--restarts", "3", "--out", str(out)]
    )
    assert cli.cmd_solve(args, parser) == 0
    sol = json.loads(out.read_text())
    assert sol["size"] == len(sol["nodes"]) == 1 and sol["feasible"] is True
    assert verify(read_edge_list(g), sol["nodes"])[0]
    assert "restarts: 0/3 feasible before repair, best size -, median size -" in capsys.readouterr().out


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


def test_synth_then_sweep_greedy_writes_full_grid(tmp_path):
    prices = synth(tmp_path, stocks=40, days=1010, seed=0)
    out = tmp_path / "sweep.csv"
    r = run_cli("sweep", "--prices", prices, "--window-days", 252, "--solver", "greedy", "--out", out)
    assert r.returncode == 0, r.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 38  # 19 thetas x {ew, ivw}
    assert all(row["error"] == "" for row in rows)
    assert r.stdout.startswith("wrote 38 sweep rows")


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


def test_bench_sb_without_a_feasible_restart_is_not_a_timeout(tmp_path, monkeypatch):
    # one bSB step leaves the restarts infeasible; the repaired solve still
    # gives a size, and only the exact solver can time out
    monkeypatch.setattr(cli, "SbParams", functools.partial(SbParams, n_steps=1))
    out = tmp_path / "bench.csv"
    parser = cli.build_parser()
    args = parser.parse_args(
        ["bench", "--sizes", "12,30", "--graphs-per-size", "2", "--solvers", "sb,greedy", "--out", str(out)]
    )
    assert cli.cmd_bench(args, parser) == 0
    with open(out) as fh:
        rows = [row for row in csv.DictReader(fh) if row["solver"] == "sb"]
    assert [row["n_timeouts"] for row in rows] == ["0", "0"]
    assert all(float(row["mean_size"]) >= 1 and float(row["mean_relative_size"]) > 0 for row in rows)


def test_unknown_solver_is_usage_error(tmp_path):
    g = write_edge_list(tmp_path, 3, [])
    r = run_cli("solve", "--graph", g, "--solver", "annealer", "--out", tmp_path / "x.json")
    assert r.returncode == 2


_SYNTH = ["synth", "--stocks", "3", "--days", "10"]
_BACKTEST = ["backtest", "--prices", "{prices}", "--theta", "0.2"]
_BENCH = ["bench", "--sizes", "4", "--solvers", "greedy"]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (_SYNTH, "--stocks", "three"),
        (_SYNTH, "--days", "-1"),
        (["build-graph", "--prices", "{prices}", "--theta", "0.2"], "--window-days", "0"),
        (["solve", "--graph", "{graph}"], "--restarts", "0"),
        (_BACKTEST, "--restarts", "0"),
        (_BACKTEST, "--window-days", "0"),
        (_BACKTEST, "--window-months", "0"),
        (["sweep", "--prices", "{prices}"], "--window-days", "-5"),
        (["sweep", "--prices", "{prices}"], "--theta-step", "0"),
        (["sweep", "--prices", "{prices}"], "--theta-step", "nan"),
        (_BENCH, "--graphs-per-size", "0"),
        (_BENCH, "--timeout-secs", "0"),
        (_BENCH, "--timeout-secs", "-1"),
        (_BENCH, "--timeout-secs", "inf"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v.lstrip("-"),
)
def test_count_and_budget_flags_out_of_range_are_usage_errors(tmp_path, capsys, command, flag, value):
    files = {"prices": synth(tmp_path, stocks=4, days=300), "graph": write_edge_list(tmp_path, 3, [])}
    argv = [a.format(**files) for a in command] + [flag, value, "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["build-graph", "--prices", "{prices}"], "--theta", "nan"),
        (["build-graph", "--prices", "{prices}"], "--theta", "1.1"),
        (_BACKTEST, "--theta", "x"),
        (["sweep", "--prices", "{prices}"], "--theta-min", "nan"),
        (["sweep", "--prices", "{prices}"], "--theta-max", "inf"),
        (_BENCH, "--theta", "-2"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v.lstrip("-"),
)
def test_theta_flags_outside_minus_one_to_one_are_usage_errors(tmp_path, capsys, command, flag, value):
    argv = [a.format(prices=synth(tmp_path, stocks=4, days=300)) for a in command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a number in [-1, 1], got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
