import argparse
import csv
import functools
import inspect
import itertools
import json
import os
import subprocess
import sys

import pytest

from misfolio import cli
from misfolio.market_graph import read_edge_list
from misfolio.mis_qubo import verify
from misfolio.sb_solver import SbParams
from misfolio.timeseries import DEFAULT_LOOKBACK_DAYS, load_prices


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
    # one bSB step leaves every restart on the octahedron K(2,2,2), which has no
    # isolated or dominated node, infeasible; the written set is repaired, and
    # the run lines still describe the sets before repair
    monkeypatch.setattr(cli, "SbParams", functools.partial(SbParams, n_steps=1))
    g = write_edge_list(tmp_path, 6, [(i, j) for i, j in itertools.combinations(range(6), 2) if j - i != 3])
    out = tmp_path / "sol.json"
    parser = cli.build_parser()
    args = parser.parse_args(
        ["--seed", "1", "solve", "--graph", str(g), "--solver", "sb", "--restarts", "3", "--out", str(out)]
    )
    assert cli.cmd_solve(args, parser) == 0
    sol = json.loads(out.read_text())
    assert sol["size"] == len(sol["nodes"]) == 2 and sol["feasible"] is True
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
    assert r.returncode == 2
    assert "argument --cost-bps: must be a number in [0, 10000), got '10000'" in r.stderr
    assert not out.exists()


def test_backtest_of_yyyymmdd_dates_is_a_runtime_error_and_writes_nothing(tmp_path):
    # months are grouped by a date's first seven characters, so 20130102 would
    # split one year into dozens of "months"
    iso = synth(tmp_path, stocks=4, days=300)
    prices = tmp_path / "basic.csv"
    prices.write_text("".join(
        line.replace("-", "", 2) if line[:1].isdigit() else line for line in iso.read_text().splitlines(True)
    ))
    out = tmp_path / "report.json"
    r = run_cli("backtest", "--prices", prices, "--theta", 0.25, "--window-days", 63, "--solver", "greedy", "--out", out)
    assert r.returncode == 1
    assert "bad date '20130102'" in r.stderr
    assert not out.exists() and not (tmp_path / "report_cumulative.csv").exists()


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


def test_sweep_theta_grid_stops_at_theta_max(tmp_path):
    # 0.5 + 2 * 0.3 = 1.1 lies past --theta-max, and outside [-1, 1]
    prices = synth(tmp_path, stocks=6, days=320)
    out = tmp_path / "sweep.csv"
    r = run_cli(
        "sweep", "--prices", prices, "--theta-min", 0.5, "--theta-max", 1.0, "--theta-step", 0.3,
        "--window-days", 126, "--solver", "greedy", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["theta"], row["weighting"]) for row in rows] == [
        ("0.5", "ew"), ("0.5", "ivw"), ("0.8", "ew"), ("0.8", "ivw")
    ]


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


def test_bench_exact_at_200_nodes_does_not_recurse(tmp_path):
    out = tmp_path / "bench.csv"
    argv = ["--seed", "0", "bench", "--sizes", "200", "--graphs-per-size", "1", "--solvers", "greedy,exact",
            "--timeout-secs", "5", "--out", str(out)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        code = cli.main(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    with open(out) as fh:
        rows = {row["solver"]: row for row in csv.DictReader(fh)}
    assert rows["exact"]["n_timeouts"] == "0"
    assert float(rows["exact"]["mean_size"]) == 19 and float(rows["greedy"]["mean_size"]) == 16


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


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["bench", "--sizes", "4"], "--solvers", "greedy,annealer"),
        (["bench", "--sizes", "4"], "--solvers", ","),
        (["bench", "--sizes", "4"], "--solvers", "greedy,greedy"),
        (["sweep", "--prices", "{prices}"], "--weightings", "ew,mv"),
        (["sweep", "--prices", "{prices}"], "--weightings", "ivw,ivw"),
        (["sweep", "--prices", "{prices}"], "--solver", "annealer"),
        (["backtest", "--prices", "{prices}", "--theta", "0.2"], "--weighting", "mv"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_unknown_or_repeated_solver_and_weighting_names_are_usage_errors(tmp_path, capsys, command, flag, value):
    prices = synth(tmp_path, stocks=4, days=300)
    argv = [a.format(prices=prices) for a in command] + [flag, value, "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
        (["solve", "--graph", "{graph}"], "--node-limit", "0"),
        (_BACKTEST, "--restarts", "0"),
        (_BACKTEST, "--node-limit", "-1"),
        (_BACKTEST, "--cost-bps", "nan"),
        (_BACKTEST, "--cost-bps", "-0.5"),
        (_BACKTEST, "--window-days", "0"),
        (_BACKTEST, "--window-months", "0"),
        (["sweep", "--prices", "{prices}"], "--window-days", "-5"),
        (["sweep", "--prices", "{prices}"], "--theta-step", "0"),
        (["sweep", "--prices", "{prices}"], "--theta-step", "nan"),
        # 180,001 thetas: rejected before any prices are read or books allocated
        (["sweep", "--prices", "{prices}"], "--theta-step", "1e-6"),
        (["sweep", "--prices", "{prices}", "--solver", "exact"], "--node-limit", "0"),
        (["sweep", "--prices", "{prices}"], "--cost-bps", "1e4"),
        (_BENCH, "--graphs-per-size", "0"),
        # graph 10,000 of size n would take the seed of graph 0 of size n + 1
        (_BENCH, "--graphs-per-size", "10001"),
        (_BENCH, "--timeout-secs", "0"),
        (_BENCH, "--timeout-secs", "-1"),
        (_BENCH, "--timeout-secs", "inf"),
        (_SYNTH, "--factors", "-1"),
        (_BENCH, "--sizes", "x"),
        (_BENCH, "--sizes", "1,5"),
        (_BENCH, "--sizes", ","),
        # a repeated size would run every one of its graphs twice
        (_BENCH, "--sizes", "20,20"),
        (_BENCH, "--sizes", "20,21,20"),
        (["solve"], "--graph", "{missing}"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v.lstrip("-"),
)
def test_count_and_budget_flags_out_of_range_are_usage_errors(tmp_path, capsys, command, flag, value):
    files = {"prices": synth(tmp_path, stocks=4, days=300), "graph": write_edge_list(tmp_path, 3, [])}
    value = value.format(missing=tmp_path / "missing.txt")
    argv = [a.format(**files) for a in command] + [flag, value, "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_takes_up_to_10000_graphs_per_size():
    args = cli.build_parser().parse_args(["bench", "--sizes", "20,21", "--graphs-per-size", "10000", "--out", "b.csv"])
    assert (args.sizes, args.graphs_per_size) == ([20, 21], 10_000)


@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
@pytest.mark.parametrize("command", [_SYNTH, ["sweep", "--prices", "{prices}"]], ids=["synth", "sweep"])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, command, seed):
    # the seed derivations keep 64 bits, so seeds s and s + 2**64 would run the same streams
    argv = [a.format(prices=synth(tmp_path, stocks=4, days=300)) for a in command]
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", seed, *argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument --seed: must be an integer in [0, 2**64), got '{seed}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_largest_seed_is_accepted(tmp_path):
    synth(tmp_path, stocks=4, days=30, seed=2**64 - 1)


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


@pytest.mark.parametrize(
    "command, days", [(_BACKTEST, "100"), (["sweep", "--prices", "{prices}"], "252")], ids=["backtest", "sweep"]
)
def test_window_days_and_window_months_exclude_each_other(tmp_path, capsys, command, days):
    # 252 is the day count's default, which argparse would not count as given had it been the flag's default
    argv = [a.format(prices=synth(tmp_path, stocks=4, days=300)) for a in command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--window-days", days, "--window-months", "6", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --window-months: not allowed with argument --window-days" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    args = cli.build_parser().parse_args(argv + ["--out", "out"])
    assert cli._config_from_args(args, 0.2, "ew").lookback_days == DEFAULT_LOOKBACK_DAYS


# a valid command line for each subcommand; "p.csv" and "g.txt" are empty files
_VALID = {
    "synth": ["synth", "--stocks", "3", "--days", "10"],
    "build-graph": ["build-graph", "--prices", "p.csv", "--theta", "0.2"],
    "solve": ["solve", "--graph", "g.txt"],
    "backtest": ["backtest", "--prices", "p.csv", "--theta", "0.2"],
    "sweep": ["sweep", "--prices", "p.csv"],
    "bench": ["bench", "--sizes", "4"],
}


def _typed_flags():
    """(subcommand, flag) for every optional with a type; subcommand None for the top-level flags."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_VALID)
    flags = [(None, a.option_strings[0]) for a in parser._actions if a.option_strings and a.type]
    for name, p in sub.choices.items():
        flags += [(name, a.option_strings[0]) for a in p._actions if a.option_strings and a.type]
    return flags


@pytest.mark.parametrize("command, flag", _typed_flags(), ids=lambda v: v or "top")
def test_every_typed_flag_rejects_an_invalid_value_at_parse_time(tmp_path, monkeypatch, capsys, command, flag):
    # "nan" fails every type: no integer, no finite or in-range number, no name, no file in tmp_path
    monkeypatch.chdir(tmp_path)
    for name in ("p.csv", "g.txt"):
        (tmp_path / name).touch()
    monkeypatch.setattr(cli, "load_prices", lambda path: pytest.fail("prices read"))
    monkeypatch.setattr(cli, "read_edge_list", lambda path: pytest.fail("graph read"))
    argv = [flag, "nan", *_VALID["synth"]] if command is None else [*_VALID[command], flag, "nan"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", "out"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["g.txt", "p.csv"]
