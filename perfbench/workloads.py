"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Each workload is a closed loop with a single caller.  ``make_panel`` turns
the benchmark seed into a price panel; the library sees only that panel
and its own default settings (``threads=1``, default ``SbParams``).
``reference`` runs once per process, outside the timed region, and gives
what ``check`` compares every operation's output against.  ``check``
returns a list of failure messages; an empty list means the output is
correct.  ``sizes`` gives the mean size of the selected sets and the mean
size a baseline solver reaches on the same graphs, computed outside the
timed region.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

from misfolio import backtest, market_graph, mis_qubo, sb_solver, timeseries

THETA = 0.25
#: relative tolerance of the accounting identities; the library solves the
#: cost fixed point to the last bit, so this only absorbs re-summation order
ACCOUNTING_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    make_panel: Callable
    run: Callable
    reference: Callable
    check: Callable
    sizes: Callable
    baseline: str


def _window_corr(returns, end: int, window_days: int):
    window = timeseries.ReturnMatrix(
        dates=returns.dates[:end], tickers=returns.tickers, values=returns.values[:end]
    )
    return timeseries.correlation(window, window_days)


def _verify_failures(graph, selected, label: str) -> list[str]:
    ok, violated = mis_qubo.verify(graph, selected)
    return [] if ok else [f"{label}: selected set violates edges {violated[:3]}"]


# ---------------------------------------------------------------------------
# solve_2048: one large solve, where the n x n MVM and the dict encoding dominate


def solve_run(panel):
    """Returns, correlation, graph and a repaired multi-restart bSB solve.

    ``repair=True``: on some panels none of the ten restarts decodes to an
    independent set (seed 1734473900: 0 of 10), and without repair the
    solve then returns no set at all.  Repair drops a violating endpoint
    and extends greedily, so a feasible best set always exists; the share
    of restarts feasible before repair is ``mis_qubo.verify.ok_share``.
    """
    returns = timeseries.log_returns(panel)
    corr = timeseries.correlation(returns, returns.n_rows)
    graph = market_graph.build_graph(corr, THETA)
    best, runs = sb_solver.solve_mis_sb_runs(graph, sb_solver.SbParams(), repair=True)
    return graph, best, runs


def solve_reference(panel) -> dict:
    returns = timeseries.log_returns(panel)
    graph = market_graph.build_graph(timeseries.correlation(returns, returns.n_rows), THETA)
    return {"graph": graph, "greedy_size": mis_qubo.solve_greedy(graph).size}


def solve_check(panel, output, ref) -> list[str]:
    graph, best, runs = output
    fails = []
    if graph.adjacency != ref["graph"].adjacency:
        fails.append("graph differs from the reference build")
    if best.feasible is not True or best.size == 0:
        fails.append(f"no feasible best set (size {best.size}, feasible {best.feasible})")
    fails += _verify_failures(graph, best.selected, "best set")
    if len(runs) != sb_solver.SbParams().restarts:
        fails.append(f"{len(runs)} restarts returned")
    for run in runs:
        if run.failed or run.decoded.feasible is not True:
            fails.append(f"restart {run.run_index} diverged or was not repaired")
            continue
        fails += _verify_failures(graph, run.decoded.selected, f"restart {run.run_index}")
    return fails


# ---------------------------------------------------------------------------
# backtest_sb: 36 small sb solves, where per-step Python overhead dominates

SB_CONFIG = backtest.BacktestConfig(
    theta=THETA, weighting="ivw", lookback_days=252, solver="sb", cost_rate=0.001
)


def backtest_run(panel):
    return backtest.run_backtest(panel, SB_CONFIG)


def backtest_reference(panel) -> dict:
    returns = timeseries.log_returns(panel)
    ends = [i for i in backtest.month_end_indices(panel.dates) if i >= SB_CONFIG.lookback_days]
    graphs = [market_graph.build_graph(_window_corr(returns, di, SB_CONFIG.lookback_days), THETA) for di in ends]
    exact = [mis_qubo.solve_exact(g).size for g in graphs]
    return {"ends": ends, "graphs": graphs, "exact_sizes": exact}


def accounting_failures(panel, report, ends, cost_rate: float, initial_value: float) -> list[str]:
    """Rebuild the value path from weights and prices; compare every month.

    On a traded month: ``cost == cost_rate * turnover``, turnover is the
    traded amount at the post-cost value, and the post-trade value is
    ``value_before - cost``.  On a held month nothing trades.  The return
    of each month follows from the rebuilt values.
    """
    fails = []
    shares: dict[str, float] = {}
    prev_value = initial_value
    first = True
    for rec, di in zip(report.months, ends):
        col = {t: float(panel.prices[di, k]) for k, t in enumerate(panel.tickers)}
        before = sum(s * col[t] for t, s in shares.items()) if shares else prev_value
        if rec.feasible:
            after = before - rec.cost
            turnover = sum(
                abs(rec.weights.get(t, 0.0) * after - shares.get(t, 0.0) * col[t])
                for t in set(shares) | set(rec.weights)
            )
            if not math.isclose(rec.cost, cost_rate * rec.turnover, rel_tol=1e-12, abs_tol=1e-15):
                fails.append(f"{rec.date}: cost {rec.cost} != cost_rate x turnover {rec.turnover}")
            if not math.isclose(turnover, rec.turnover, rel_tol=ACCOUNTING_RTOL, abs_tol=1e-12):
                fails.append(f"{rec.date}: turnover {rec.turnover}, rebuilt {turnover}")
            shares = {t: w * after / col[t] for t, w in rec.weights.items()}
        else:
            after = before
            if rec.turnover != 0.0 or rec.cost != 0.0:
                fails.append(f"{rec.date}: held month traded")
        expected = None if first else after / prev_value - 1.0
        if (rec.ret is None) != (expected is None) or (
            expected is not None and not math.isclose(rec.ret, expected, rel_tol=ACCOUNTING_RTOL, abs_tol=1e-12)
        ):
            fails.append(f"{rec.date}: return {rec.ret}, value_after = value_before - cost gives {expected}")
        prev_value, first = after, False
    return fails


def backtest_check(panel, report, ref) -> list[str]:
    fails = []
    if [m.date for m in report.months] != [panel.dates[i] for i in ref["ends"]]:
        return [f"{len(report.months)} month records, expected {len(ref['ends'])}"]
    index = {t: k for k, t in enumerate(panel.tickers)}
    for rec, graph, exact in zip(report.months, ref["graphs"], ref["exact_sizes"]):
        if not rec.feasible:
            continue
        selected = [index[t] for t in rec.weights]
        fails += _verify_failures(graph, selected, rec.date)
        if len(selected) > exact:
            fails.append(f"{rec.date}: {len(selected)} names exceed the maximum {exact}")
        if not math.isclose(sum(rec.weights.values()), 1.0, rel_tol=1e-12):
            fails.append(f"{rec.date}: weights sum to {sum(rec.weights.values())}")
    fails += accounting_failures(
        panel, report, ref["ends"], SB_CONFIG.cost_rate, SB_CONFIG.initial_value
    )
    return fails


def backtest_sizes(report, ref) -> tuple[float, float]:
    """Mean over months that traded, against exact B&B on those months."""
    pairs = [(m.n_constituents, e) for m, e in zip(report.months, ref["exact_sizes"]) if m.feasible]
    return statistics.fmean(p[0] for p in pairs), statistics.fmean(p[1] for p in pairs)


# ---------------------------------------------------------------------------
# sweep_greedy: one panel, 19 thetas x {ew, ivw}; correlation is recomputed
# per (row, month), and the sb solver is not used

SWEEP_CONFIG = backtest.BacktestConfig(
    theta=THETA, lookback_days=timeseries.DEFAULT_LOOKBACK_DAYS, solver="greedy"
)


def sweep_run(panel):
    return backtest.sweep_theta(panel, SWEEP_CONFIG)


def sweep_reference(panel) -> dict:
    """Per-theta density and size statistics from one correlation per month.

    Every greedy set is verified here, on the graph it was chosen from.
    """
    returns = timeseries.log_returns(panel)
    ends = [i for i in backtest.month_end_indices(panel.dates) if i >= SWEEP_CONFIG.lookback_days]
    corrs = [_window_corr(returns, di, SWEEP_CONFIG.lookback_days) for di in ends]
    stats, fails = {}, []
    for theta in backtest.default_theta_grid():
        dens, sizes = [], []
        for di, corr in zip(ends, corrs):
            graph = market_graph.build_graph(corr, theta)
            sol = mis_qubo.solve_greedy(graph)
            fails += _verify_failures(graph, sol.selected, f"theta {theta} {panel.dates[di]}")
            dens.append(market_graph.edge_density(graph))
            sizes.append(sol.size)
        stats[theta] = (dens, sizes)
    return {"stats": stats, "fails": fails}


def sweep_check(panel, rows, ref) -> list[str]:
    fails = list(ref["fails"])
    grid = backtest.default_theta_grid()
    if [(r.theta, r.weighting) for r in rows] != [(t, w) for t in grid for w in ("ew", "ivw")]:
        return fails + [f"{len(rows)} rows, expected {2 * len(grid)} in grid order"]
    for r in rows:
        if r.error:
            fails.append(f"theta {r.theta} {r.weighting}: error cell {r.error}")
            continue
        dens, sizes = ref["stats"][r.theta]
        got = (r.density_max, r.density_min, r.density_avg, r.size_max, r.size_min, r.size_avg)
        want = (max(dens), min(dens), statistics.fmean(dens), max(sizes), min(sizes), statistics.fmean(sizes))
        if not all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15) for a, b in zip(got, want)):
            fails.append(f"theta {r.theta} {r.weighting}: row {got} != reference {want}")
    for w in ("ew", "ivw"):
        avg = [r.density_avg for r in rows if r.weighting == w]
        if any(b > a for a, b in zip(avg, avg[1:])):
            fails.append(f"{w}: density_avg increases with theta")
    return fails


def sweep_sizes(rows, ref) -> tuple[float, float]:
    """Mean of the rows' ``size_avg``, against greedy from one correlation per month."""
    want = [statistics.fmean(ref["stats"][r.theta][1]) for r in rows]
    return statistics.fmean(r.size_avg for r in rows), statistics.fmean(want)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve_2048",
            make_panel=lambda seed: timeseries.synth_panel(2048, 300, 3, seed),
            run=solve_run,
            reference=solve_reference,
            check=solve_check,
            sizes=lambda out, ref: (float(out[1].size), float(ref["greedy_size"])),
            baseline="greedy",
        ),
        Workload(
            name="backtest_sb",
            make_panel=lambda seed: timeseries.synth_panel(40, 1010, 3, seed),
            run=backtest_run,
            reference=backtest_reference,
            check=backtest_check,
            sizes=backtest_sizes,
            baseline="exact B&B",
        ),
        Workload(
            name="sweep_greedy",
            make_panel=lambda seed: timeseries.synth_panel(200, 1512, 3, seed),
            run=sweep_run,
            reference=sweep_reference,
            check=sweep_check,
            sizes=sweep_sizes,
            baseline="greedy, compute-once",
        ),
    )
}

