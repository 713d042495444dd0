"""Correlation-diversified portfolios via maximum independent sets.

Pipeline: price panel -> log returns -> trailing correlation -> threshold
market graph -> MIS (ballistic simulated bifurcation, greedy, or exact
branch-and-bound) -> weighting -> monthly-rebalance backtest.
"""

__version__ = "0.1.0"

from .backtest import (
    BacktestConfig,
    BacktestReport,
    Portfolio,
    Summary,
    difr_analysis,
    monthly_return,
    rebalance,
    run_backtest,
    summarize,
    sweep_theta,
    weights_ew,
    weights_ivw,
)
from .market_graph import MarketGraph, build_graph, edge_density
from .mis_qubo import (
    IsingProblem,
    MisSolution,
    NO_FEASIBLE,
    QuboProblem,
    decode,
    ising_energy,
    qubo_cost,
    qubo_to_ising,
    select_best,
    solve_exact,
    solve_greedy,
    to_qubo,
    verify,
)
from .sb_solver import (
    SbParams,
    SbRunResult,
    sb_solve,
    solve_mis_sb,
)
from .timeseries import (
    CorrelationMatrix,
    PricePanel,
    ReturnMatrix,
    correlation,
    load_prices,
    log_returns,
    synth_panel,
    volatility,
)

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "CorrelationMatrix",
    "IsingProblem",
    "MarketGraph",
    "MisSolution",
    "NO_FEASIBLE",
    "Portfolio",
    "PricePanel",
    "QuboProblem",
    "ReturnMatrix",
    "SbParams",
    "SbRunResult",
    "Summary",
    "build_graph",
    "correlation",
    "decode",
    "difr_analysis",
    "edge_density",
    "ising_energy",
    "load_prices",
    "log_returns",
    "monthly_return",
    "qubo_cost",
    "qubo_to_ising",
    "rebalance",
    "run_backtest",
    "sb_solve",
    "select_best",
    "solve_exact",
    "solve_greedy",
    "solve_mis_sb",
    "summarize",
    "sweep_theta",
    "synth_panel",
    "to_qubo",
    "verify",
    "volatility",
    "weights_ew",
    "weights_ivw",
]
