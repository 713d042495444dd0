"""Command-line surface: synth, build-graph, solve, backtest, sweep, bench.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.  Every
subcommand is deterministic given its flags (including --seed); the only
exception is the measured wall-clock column of ``bench``.
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
    BacktestConfig,
    default_theta_grid,
    derive_seed,
    run_backtest,
    sweep_theta,
    write_cumulative_csv,
    write_report_json,
    write_sweep_csv,
)
from .market_graph import build_graph, edge_density, read_edge_list, write_edge_list
from .mis_qubo import SolveTimeout, solve_exact, solve_greedy
from .sb_solver import SbParams, solve_mis_sb_runs
from .timeseries import correlation, load_prices, log_returns, synth_panel, write_prices

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misfolio",
        description="correlation-diversified portfolios from maximum independent sets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    parser.add_argument("--log-level", choices=sorted(_LOG_LEVELS), default="info")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic price CSV")
    p.add_argument("--stocks", type=int, required=True)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--factors", type=int, default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-graph", help="threshold graph from a price CSV")
    p.add_argument("--prices", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--window-days", type=int, default=None, help="default: all available returns")
    p.add_argument("--out", required=True, help="edge-list output path")

    p = sub.add_parser("solve", help="solve MIS on an edge-list graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--solver", choices=["sb", "greedy", "exact"], default="sb")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--node-limit", type=int, default=64, help="exact-solver size guard")
    p.add_argument("--out", required=True, help="solution JSON output path")

    p = sub.add_parser("backtest", help="monthly-rebalance strategy simulation")
    _backtest_flags(p)
    p.add_argument("--out", required=True, help="report JSON path (cumulative CSV written beside it)")

    p = sub.add_parser("sweep", help="backtests across a theta grid x weightings")
    _backtest_flags(p, weighting=False)
    p.add_argument("--theta-min", type=float, default=0.18)
    p.add_argument("--theta-max", type=float, default=0.36)
    p.add_argument("--theta-step", type=float, default=0.01)
    p.add_argument("--weightings", default="ew,ivw", help="comma-separated subset of ew,ivw")
    p.add_argument("--out", required=True, help="sweep CSV path")

    p = sub.add_parser("bench", help="time/accuracy comparison of the solvers")
    p.add_argument("--sizes", required=True, help="comma-separated node counts")
    p.add_argument("--graphs-per-size", type=int, default=10)
    p.add_argument("--theta", type=float, default=0.25)
    p.add_argument("--solvers", default="sb,greedy,exact")
    p.add_argument("--timeout-secs", type=float, default=600.0, help="exact-solver budget per graph")
    p.add_argument("--out", required=True, help="benchmark CSV path")
    return parser


def _backtest_flags(p: argparse.ArgumentParser, weighting: bool = True) -> None:
    p.add_argument("--prices", required=True)
    if weighting:
        p.add_argument("--theta", type=float, required=True)
        p.add_argument("--weighting", choices=["ew", "ivw"], default="ew")
    p.add_argument("--cost-bps", type=float, default=10.0, help="cost in basis points of turnover (10 = 0.1%%)")
    p.add_argument("--window-days", type=int, default=756)
    p.add_argument("--window-months", type=int, default=None,
                   help="anchor signal windows to calendar month-ends instead of a fixed day count")
    p.add_argument("--solver", choices=["sb", "greedy", "exact"], default="sb")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--node-limit", type=int, default=64)


def _require_file(parser: argparse.ArgumentParser, path: str) -> str:
    if not os.path.exists(path):
        parser.error(f"input file not found: {path}")
    return path


def cmd_synth(args, parser) -> int:
    if args.stocks < 1 or args.days < 1 or args.factors < 0:
        parser.error("--stocks and --days must be >= 1, --factors >= 0")
    panel = synth_panel(args.stocks, args.days, args.factors, args.seed)
    write_prices(panel, args.out)
    print(f"wrote {panel.n_dates} x {panel.n_tickers} panel to {args.out}")
    return 0


def cmd_build_graph(args, parser) -> int:
    panel = load_prices(_require_file(parser, args.prices))
    returns = log_returns(panel)
    window = args.window_days if args.window_days is not None else returns.n_rows
    corr = correlation(returns, window)
    graph = build_graph(corr, args.theta)
    write_edge_list(graph, args.out)
    density = edge_density(graph) if graph.n_nodes >= 2 else 0.0
    print(
        f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges, "
        f"density {density:.4f} at theta={args.theta}"
    )
    return 0


def cmd_solve(args, parser) -> int:
    graph = read_edge_list(_require_file(parser, args.graph))
    if args.solver == "greedy":
        solution = solve_greedy(graph)
    elif args.solver == "exact":
        solution = solve_exact(graph, node_limit=args.node_limit)
    else:
        params = SbParams(restarts=args.restarts, seed=args.seed)
        solution, runs = solve_mis_sb_runs(graph, params)
        for run in runs:
            if run.failed:
                print(f"run {run.run_index}: failed (diverged at step {run.fail_step})")
            else:
                print(
                    f"run {run.run_index}: energy {run.energy:g}, size {run.decoded.size}, "
                    f"feasible {run.decoded.feasible}"
                )
        sizes = [run.decoded.size for run in runs if not run.failed and run.decoded.feasible]
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
        lookback_days=args.window_days,
        lookback_months=args.window_months,
        solver=args.solver,
        restarts=args.restarts,
        seed=args.seed,
        node_limit=args.node_limit,
    )


def cmd_backtest(args, parser) -> int:
    panel = load_prices(_require_file(parser, args.prices))
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
    panel = load_prices(_require_file(parser, args.prices))
    if args.theta_step <= 0:
        parser.error("--theta-step must be positive")
    if args.theta_max < args.theta_min:
        parser.error("--theta-max must be >= --theta-min")
    thetas = default_theta_grid(args.theta_min, args.theta_max, args.theta_step)
    weightings = [w.strip() for w in args.weightings.split(",") if w.strip()]
    if not weightings or any(w not in ("ew", "ivw") for w in weightings):
        parser.error("--weightings must be a comma-separated subset of ew,ivw")
    base = _config_from_args(args, theta=thetas[0], weighting=weightings[0])
    rows = sweep_theta(panel, base, thetas, weightings)
    write_sweep_csv(rows, args.out)
    failed = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} sweep rows to {args.out}" + (f" ({failed} failed)" if failed else ""))
    return 0


def cmd_bench(args, parser) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        parser.error("--sizes must be comma-separated integers")
    if not sizes or any(s < 2 for s in sizes):
        parser.error("--sizes must contain integers >= 2")
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers or any(s not in ("sb", "greedy", "exact") for s in solvers):
        parser.error("--solvers must be a comma-separated subset of sb,greedy,exact")

    rows = []
    for n in sizes:
        graphs = []
        for g in range(args.graphs_per_size):
            panel = synth_panel(n, 300, 3, derive_seed(args.seed, n * 10_000 + g))
            returns = log_returns(panel)
            corr = correlation(returns, returns.n_rows)
            graphs.append(build_graph(corr, args.theta))
        results: dict[str, list[tuple[float, int | None]]] = {s: [] for s in solvers}
        for gi, graph in enumerate(graphs):
            for solver in solvers:
                t0 = time.perf_counter()
                try:
                    if solver == "greedy":
                        sol = solve_greedy(graph)
                    elif solver == "exact":
                        sol = solve_exact(graph, node_limit=n, time_budget=args.timeout_secs)
                    else:
                        params = SbParams(seed=derive_seed(args.seed, n * 10_000 + gi))
                        sol, _ = solve_mis_sb_runs(graph, params)
                    size = sol.size if sol.feasible else None
                except SolveTimeout:
                    size = None
                results[solver].append((time.perf_counter() - t0, size))
        for solver in solvers:
            sizes_found = [s for _, s in results[solver] if s is not None]
            times = [t for t, _ in results[solver]]
            # accuracy convention: per-graph ratio to the best size any solver found
            ratios = []
            for gi in range(len(graphs)):
                best = max(
                    (results[s][gi][1] or 0) for s in solvers
                )
                got = results[solver][gi][1]
                if best > 0 and got is not None:
                    ratios.append(got / best)
            rows.append(
                {
                    "n_nodes": n,
                    "solver": solver,
                    "n_graphs": len(graphs),
                    "n_timeouts": len(graphs) - len(sizes_found),
                    "mean_time_s": float(np.mean(times)),
                    "mean_size": float(np.mean(sizes_found)) if sizes_found else math.nan,
                    "mean_relative_size": float(np.mean(ratios)) if ratios else math.nan,
                }
            )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(
            fh,
            fieldnames=[
                "n_nodes", "solver", "n_graphs", "n_timeouts",
                "mean_time_s", "mean_size", "mean_relative_size",
            ],
        )
        w.writeheader()
        for row in rows:
            w.writerow({k: ("" if isinstance(v, float) and math.isnan(v) else v) for k, v in row.items()})
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
