"""Command-line surface: synth, build-graph, solve, backtest, sweep, bench.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.  Every flag
value is checked at parse time, before any input is read, by an instance
of the one argparse type ``_value``.  Every subcommand is deterministic
given its flags (including --seed); the only exception is the measured
wall-clock column of ``bench``.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import statistics
import sys
import time

import numpy as np

from . import __version__
from .backtest import (
    SOLVERS,
    WEIGHTINGS,
    BacktestConfig,
    _csv_cell,
    default_theta_grid,
    derive_seed,
    run_backtest,
    solve_mis,
    sweep_theta,
    write_cumulative_csv,
    write_report_json,
    write_sweep_csv,
)
from .market_graph import build_graph, edge_density, read_edge_list, write_edge_list
from .mis_qubo import SolveTimeout
from .sb_solver import SbParams, solve_mis_sb_runs
from .timeseries import DEFAULT_LOOKBACK_DAYS, SEED_LIMIT, correlation, load_prices, log_returns, synth_panel, write_prices

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _value(kind, ok, what: str):
    """argparse type: ``kind(text)`` when ``ok`` holds for it; else the usage error "must be <what>"."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


def _names(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _subset(names: list[str], choices) -> bool:
    # a repeated solver would count its runs twice against one set of graphs
    return bool(names) and len(set(names)) == len(names) and set(names) <= set(choices)


_solvers = _value(_names, lambda v: _subset(v, SOLVERS), "a comma-separated subset of " + ",".join(SOLVERS))
_weightings = _value(_names, lambda v: _subset(v, WEIGHTINGS), "a comma-separated subset of " + ",".join(WEIGHTINGS))
_count = _value(int, lambda v: v >= 1, "an integer >= 1")
_above_zero = _value(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_theta = _value(float, lambda v: -1.0 <= v <= 1.0, "a number in [-1, 1]")
_cost_bps = _value(float, lambda v: 0.0 <= v < 10_000.0, "a number in [0, 10000)")
_seed = _value(int, lambda v: 0 <= v < SEED_LIMIT, "an integer in [0, 2**64)")
_factors = _value(int, lambda v: v >= 0, "an integer >= 0")
_sizes = _value(lambda text: [int(s) for s in _names(text)], lambda v: v and min(v) >= 2,
                "comma-separated integers >= 2")
_input_file = _value(str, os.path.isfile, "an existing file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misfolio",
        description="correlation-diversified portfolios from maximum independent sets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=_seed, default=0, help="base RNG seed in [0, 2**64) (default 0)")
    parser.add_argument("--log-level", choices=sorted(_LOG_LEVELS), default="info")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic price CSV")
    p.add_argument("--stocks", type=_count, required=True)
    p.add_argument("--days", type=_count, required=True)
    p.add_argument("--factors", type=_factors, default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-graph", help="threshold graph from a price CSV")
    p.add_argument("--prices", type=_input_file, required=True)
    p.add_argument("--theta", type=_theta, required=True)
    p.add_argument("--window-days", type=_count, default=None, help="default: all available returns")
    p.add_argument("--out", required=True, help="edge-list output path")

    p = sub.add_parser("solve", help="solve MIS on an edge-list graph")
    p.add_argument("--graph", type=_input_file, required=True)
    p.add_argument("--solver", choices=SOLVERS, default=BacktestConfig.solver)
    p.add_argument("--restarts", type=_count, default=BacktestConfig.restarts)
    p.add_argument("--node-limit", type=_count, default=BacktestConfig.node_limit,
                   help="exact-solver size guard")
    p.add_argument("--out", required=True, help="solution JSON output path")

    p = sub.add_parser("backtest", help="monthly-rebalance strategy simulation")
    _backtest_flags(p)
    p.add_argument("--out", required=True, help="report JSON path (cumulative CSV written beside it)")

    p = sub.add_parser("sweep", help="backtests across a theta grid x weightings")
    _backtest_flags(p, weighting=False)
    p.add_argument("--theta-min", type=_theta, default=0.18)
    p.add_argument("--theta-max", type=_theta, default=0.36)
    p.add_argument("--theta-step", type=_above_zero, default=0.01)
    p.add_argument("--weightings", type=_weightings, default=",".join(WEIGHTINGS),
                   help=f"comma-separated subset of {','.join(WEIGHTINGS)}")
    p.add_argument("--out", required=True, help="sweep CSV path")

    p = sub.add_parser("bench", help="time/accuracy comparison of the solvers")
    p.add_argument("--sizes", type=_sizes, required=True, help="comma-separated node counts")
    p.add_argument("--graphs-per-size", type=_count, default=10)
    p.add_argument("--theta", type=_theta, default=0.25)
    p.add_argument("--solvers", type=_solvers, default=",".join(SOLVERS))
    p.add_argument("--timeout-secs", type=_above_zero, default=600.0, help="exact-solver budget per graph")
    p.add_argument("--out", required=True, help="benchmark CSV path")
    return parser


def _backtest_flags(p: argparse.ArgumentParser, weighting: bool = True) -> None:
    p.add_argument("--prices", type=_input_file, required=True)
    if weighting:
        p.add_argument("--theta", type=_theta, required=True)
        p.add_argument("--weighting", choices=WEIGHTINGS, default=BacktestConfig.weighting)
    p.add_argument("--cost-bps", type=_cost_bps, default=BacktestConfig.cost_rate * 10_000,
                   help="cost in basis points of turnover (10 = 0.1%%)")
    # no default of its own: argparse would take an explicit value equal to the
    # default as absent and let it pass beside --window-months
    window = p.add_mutually_exclusive_group()
    window.add_argument("--window-days", type=_count, help=f"default {DEFAULT_LOOKBACK_DAYS}")
    window.add_argument("--window-months", type=_count,
                        help="anchor signal windows to calendar month-ends instead of a fixed day count")
    p.add_argument("--solver", choices=SOLVERS, default=BacktestConfig.solver)
    p.add_argument("--restarts", type=_count, default=BacktestConfig.restarts)
    p.add_argument("--node-limit", type=_count, default=BacktestConfig.node_limit)


def cmd_synth(args, parser) -> int:
    panel = synth_panel(args.stocks, args.days, args.factors, args.seed)
    write_prices(panel, args.out)
    print(f"wrote {panel.n_dates} x {panel.n_tickers} panel to {args.out}")
    return 0


def cmd_build_graph(args, parser) -> int:
    panel = load_prices(args.prices)
    returns = log_returns(panel)
    window = args.window_days if args.window_days is not None else returns.n_rows
    corr = correlation(returns, window)
    graph = build_graph(corr, args.theta)
    write_edge_list(graph, args.out)
    print(
        f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges, "
        f"density {edge_density(graph):.4f} at theta={args.theta}"
    )
    return 0


def cmd_solve(args, parser) -> int:
    graph = read_edge_list(args.graph)
    params = SbParams(restarts=args.restarts, seed=args.seed)
    if args.solver != "sb":
        solution = solve_mis(graph, args.solver, params, args.node_limit)
    else:  # every restart is printed, so sb keeps its own call
        solution, runs = solve_mis_sb_runs(graph, params, repair=True)
        # each run is reported as decoded, before repair: its +1 spins, which
        # were independent exactly when repair left the source as "sb"
        sizes = []
        for run in runs:
            size, feasible = int(np.count_nonzero(run.spins == 1)), run.decoded.source == "sb"
            print(f"run {run.run_index}: energy {run.energy:g}, size {size}, feasible {feasible}")
            if feasible:
                sizes.append(size)
        best, median = (f"{max(sizes)}", f"{statistics.median(sizes):g}") if sizes else ("-", "-")
        print(
            f"restarts: {len(sizes)}/{len(runs)} feasible before repair, "
            f"best size {best}, median size {median}"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(solution.to_json_dict(graph.tickers), fh, indent=2)
        fh.write("\n")
    print(f"best: size {solution.size}, feasible {solution.feasible}, source {solution.source}")
    return 0


def _config_from_args(args, theta: float, weighting: str) -> BacktestConfig:
    return BacktestConfig(
        theta=theta,
        weighting=weighting,
        cost_rate=args.cost_bps / 10_000.0,
        lookback_days=args.window_days or DEFAULT_LOOKBACK_DAYS,
        lookback_months=args.window_months,
        solver=args.solver,
        restarts=args.restarts,
        seed=args.seed,
        node_limit=args.node_limit,
    )


def cmd_backtest(args, parser) -> int:
    panel = load_prices(args.prices)
    config = _config_from_args(args, args.theta, args.weighting)
    report = run_backtest(panel, config)
    write_report_json(report, args.out)
    stem, _ = os.path.splitext(args.out)
    write_cumulative_csv(report, stem + "_cumulative.csv")
    if report.summary is not None:
        print(
            f"{len(report.monthly_returns)} months: annual return "
            f"{report.summary.annual_return:.4f}, risk {report.summary.annual_risk:.4f}, "
            f"sharpe {report.summary.sharpe:.4f}"
        )
    else:
        print(f"{len(report.monthly_returns)} months (too few for an annualized summary)")
    return 0


def cmd_sweep(args, parser) -> int:
    if args.theta_max < args.theta_min:
        parser.error("--theta-max must be >= --theta-min")
    try:
        thetas = default_theta_grid(args.theta_min, args.theta_max, args.theta_step)
    except ValueError as exc:
        parser.error(f"argument --theta-step: {exc}")
    panel = load_prices(args.prices)
    base = _config_from_args(args, theta=thetas[0], weighting=args.weightings[0])
    rows = sweep_theta(panel, base, thetas, args.weightings)
    write_sweep_csv(rows, args.out)
    failed = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} sweep rows to {args.out}" + (f" ({failed} failed)" if failed else ""))
    return 0


def cmd_bench(args, parser) -> int:
    rows = []
    for n in args.sizes:
        results: dict[str, list[tuple[float, int | None]]] = {s: [] for s in args.solvers}
        for g in range(args.graphs_per_size):
            seed = derive_seed(args.seed, n * 10_000 + g)  # the graph's panel and its bSB restarts
            returns = log_returns(synth_panel(n, 300, 3, seed))
            graph = build_graph(correlation(returns, returns.n_rows), args.theta)
            params = SbParams(seed=seed)
            for solver in args.solvers:
                t0 = time.perf_counter()
                try:
                    size = solve_mis(graph, solver, params, node_limit=n, time_budget=args.timeout_secs).size
                except SolveTimeout:
                    size = None
                results[solver].append((time.perf_counter() - t0, size))
        # accuracy convention: per-graph ratio to the best size any solver found
        best = [max(results[s][gi][1] or 0 for s in args.solvers) for gi in range(args.graphs_per_size)]
        for solver in args.solvers:
            sizes_found = [s for _, s in results[solver] if s is not None]
            times = [t for t, _ in results[solver]]
            ratios = [got / b for (_, got), b in zip(results[solver], best) if b > 0 and got is not None]
            rows.append(
                {
                    "n_nodes": n,
                    "solver": solver,
                    "n_graphs": args.graphs_per_size,
                    "n_timeouts": args.graphs_per_size - len(sizes_found),
                    "mean_time_s": float(np.mean(times)),
                    "mean_size": float(np.mean(sizes_found)) if sizes_found else math.nan,
                    "mean_relative_size": float(np.mean(ratios)) if ratios else math.nan,
                }
            )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        for row in rows:
            w.writerow({k: _csv_cell(v) for k, v in row.items()})
    for row in rows:
        print(
            f"n={row['n_nodes']:>5} {row['solver']:>6}: "
            f"time {row['mean_time_s']:.4f}s, rel size {row['mean_relative_size']:.3f}, "
            f"timeouts {row['n_timeouts']}"
        )
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "build-graph": cmd_build_graph,
    "solve": cmd_solve,
    "backtest": cmd_backtest,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=_LOG_LEVELS[args.log_level], format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args, parser)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
