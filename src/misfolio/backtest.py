"""Monthly-rebalance simulation of the independent-set portfolio strategy.

Each month-end with enough trailing history:

1. correlation and volatility over the trailing ``lookback_days`` return
   rows ending on the rebalance date (trades execute at that same close,
   so no information past the month boundary is used)
2. threshold graph at ``theta``; solve for a maximum independent set with
   the configured solver; keep the best verification-passed solution
   (bSB restarts that fail verification are repaired first)
3. weight the selected names (equal weight, or inverse volatility weight)
4. rebalance: trading costs are ``cost_rate`` times turnover, where
   turnover is the amount bought plus the absolute amount sold

Accounting: the post-rebalance value satisfies
``value_after = value_before - cost_rate * turnover`` with the new
holdings worth ``value_after`` to rounding (targets and cost are solved
jointly by Newton's method on the piecewise-linear cost equation, exact
after at most one step per name plus one, for any ``cost_rate``
in [0, 1)).

Months where no feasible non-empty selection exists keep the previous
portfolio untouched (no trade, no cost) and are flagged.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import market_graph, mis_qubo, timeseries
from .sb_solver import SbParams, solve_mis_sb
from .timeseries import InsufficientDataError, PricePanel

logger = logging.getLogger(__name__)

MONTHS_PER_YEAR = 12


class DataError(ValueError):
    """Missing or inconsistent market data for an operation."""


class ZeroVolatilityError(ValueError):
    """Inverse-volatility weight undefined for a zero-volatility name."""


class AccountingError(ValueError):
    """Portfolio valuation hit a non-positive base value."""


@dataclass(frozen=True)
class BacktestConfig:
    """Strategy settings.

    Signal windows trail a fixed number of business days
    (``lookback_days``); set ``lookback_months`` to anchor them to the
    month-end that many calendar months back instead (window length then
    varies with the calendar).
    """

    theta: float
    weighting: str = "ew"  # "ew" or "ivw"
    cost_rate: float = 0.001
    lookback_days: int = timeseries.DEFAULT_LOOKBACK_DAYS
    lookback_months: int | None = None
    solver: str = "sb"  # "sb", "greedy" or "exact"
    restarts: int = 10
    seed: int = 0
    node_limit: int = 64
    drop_zero_vol: bool = False
    initial_value: float = 1.0

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [-1, 1]")
        _check_cost_rate(self.cost_rate)
        if self.weighting not in ("ew", "ivw"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.solver not in ("sb", "greedy", "exact"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.lookback_days < 1:
            raise ValueError("lookback_days must be >= 1")
        if self.lookback_months is not None and self.lookback_months < 1:
            raise ValueError("lookback_months must be >= 1 when set")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (math.isfinite(self.initial_value) and self.initial_value > 0):
            raise ValueError(f"initial_value must be finite and positive, got {self.initial_value}")


@dataclass
class Portfolio:
    """Holdings after a rebalance: weights, share counts, and value."""

    holdings: dict[str, float]
    shares: dict[str, float]
    value: float


@dataclass
class MonthRecord:
    date: str
    ret: float | None
    edge_density: float
    turnover: float
    cost: float
    feasible: bool
    weights: dict[str, float] = field(default_factory=dict)

    @property
    def n_constituents(self) -> int:
        return len(self.weights)


@dataclass
class Summary:
    annual_return: float
    annual_risk: float
    sharpe: float


@dataclass
class BacktestReport:
    months: list[MonthRecord]
    summary: Summary | None

    @property
    def monthly_returns(self) -> np.ndarray:
        return np.array([m.ret for m in self.months if m.ret is not None])

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumprod(1.0 + self.monthly_returns) - 1.0

    def to_json_dict(self) -> dict:
        return {
            "summary": _summary_json(self.summary),
            "months": [
                {
                    "date": m.date,
                    "return": m.ret,
                    "n_constituents": m.n_constituents,
                    "edge_density": m.edge_density,
                    "turnover": m.turnover,
                    "cost": m.cost,
                    "feasible": m.feasible,
                }
                for m in self.months
            ],
        }


def _json_float(v: float):
    if v is None or math.isnan(v):
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _summary_json(s: Summary | None) -> dict | None:
    if s is None:
        return None
    return {
        "annual_return": _json_float(s.annual_return),
        "annual_risk": _json_float(s.annual_risk),
        "sharpe": _json_float(s.sharpe),
    }


def derive_seed(base: int, index: int) -> int:
    """Independent 64-bit stream seed for sub-task ``index`` (splitmix64)."""
    z = (base + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def weights_ew(selected) -> dict[str, float]:
    """Equal weights, renormalized so they sum to 1."""
    names = list(selected)
    if not names:
        raise ValueError("cannot weight an empty selection")
    w = 1.0 / len(names)
    raw = {t: w for t in names}
    total = sum(raw.values())
    return {t: v / total for t, v in raw.items()}


def weights_ivw(selected, vols: dict[str, float]) -> dict[str, float]:
    """Weights proportional to inverse volatility, renormalized to sum 1.

    All-equal volatilities delegate to :func:`weights_ew`, so the exact
    coincidence of the two schemes holds to the last bit in that case.
    """
    names = list(selected)
    if not names:
        raise ValueError("cannot weight an empty selection")
    for t in names:
        if vols[t] <= 0.0:
            raise ZeroVolatilityError(f"volatility of {t} is zero; inverse weight undefined")
    if len({vols[t] for t in names}) == 1:
        return weights_ew(names)
    raw = {t: 1.0 / vols[t] for t in names}
    total = sum(raw.values())
    return {t: v / total for t, v in raw.items()}


def _check_cost_rate(cost_rate: float) -> None:
    # at a rate of 1 or more the cost of a trade eats the whole book
    if not 0.0 <= cost_rate < 1.0:
        raise ValueError(f"cost_rate must lie in [0, 1), got {cost_rate}")


def rebalance(
    prev: Portfolio,
    new_weights: dict[str, float],
    prices: dict[str, float],
    cost_rate: float,
    month: str = "",
) -> tuple[Portfolio, float, float]:
    """Trade from ``prev`` to ``new_weights`` at ``prices``.

    Returns (portfolio, turnover, cost).  Target dollar positions are
    ``w * (value_before - cost)`` and the cost is ``cost_rate * turnover``
    of the trades that reach them; both are solved simultaneously.
    Names whose target matches the current position to the last bit are
    left untouched (no phantom trades, no drift from re-dividing).
    """
    _check_cost_rate(cost_rate)
    for t in set(prev.shares) | set(new_weights):
        if t not in prices:
            raise DataError(f"no price for {t} in month {month or '?'}")
        if prices[t] <= 0:
            raise DataError(f"non-positive price for {t} in month {month or '?'}")

    current = {t: s * prices[t] for t, s in prev.shares.items()}
    value_before = sum(current.values()) if prev.shares else prev.value

    # the cost solves cost = cost_rate * sum_t |w_t (value_before - cost) - current_t|;
    # the gap between the sides is concave, piecewise linear and increasing
    # (slope >= 1 - cost_rate > 0), so Newton from 0 climbs onto the root one
    # linear piece per step
    names = sorted(set(current) | set(new_weights))
    weight = [new_weights.get(t, 0.0) for t in names]
    held = [current.get(t, 0.0) for t in names]
    cost = 0.0
    for _ in range(len(names) + 2):
        gaps = [w * (value_before - cost) - c for w, c in zip(weight, held)]
        new_cost = cost_rate * sum(abs(g) for g in gaps)
        if new_cost == cost:
            break
        # a name on its kink (g == 0) takes the slope of the piece above the cost
        cost += (new_cost - cost) / (1.0 + cost_rate * sum(w if g > 0 else -w for w, g in zip(weight, gaps)))
    v_post = value_before - cost

    shares: dict[str, float] = {}
    for t, w in new_weights.items():
        target = w * v_post
        if target == current.get(t, 0.0) and t in prev.shares:
            shares[t] = prev.shares[t]
        else:
            shares[t] = target / prices[t]
    turnover = sum(abs(w * v_post - c) for w, c in zip(weight, held))
    cost = cost_rate * turnover
    portfolio = Portfolio(holdings=dict(new_weights), shares=shares, value=value_before - cost)
    return portfolio, turnover, cost


def monthly_return(prev_value: float, value: float) -> float:
    if prev_value <= 0:
        raise AccountingError(f"non-positive base value {prev_value}")
    return value / prev_value - 1.0


def month_end_indices(dates) -> list[int]:
    """Index of the last date within each calendar month present."""
    out = []
    for i, d in enumerate(dates):
        if i + 1 == len(dates) or dates[i + 1][:7] != d[:7]:
            out.append(i)
    return out


def summarize(monthly_returns) -> Summary:
    """Annualized return (x12), risk (x sqrt(12), population std), Sharpe.

    Zero risk yields a signed-infinity Sharpe when the mean is nonzero and
    NaN (undefined) when the mean is zero too.
    """
    r = np.asarray(monthly_returns, dtype=np.float64)
    if r.size < MONTHS_PER_YEAR:
        raise InsufficientDataError(f"need >= {MONTHS_PER_YEAR} monthly returns, have {r.size}")
    annual_return = MONTHS_PER_YEAR * float(r.mean())
    annual_risk = math.sqrt(MONTHS_PER_YEAR) * float(r.std())
    if annual_risk == 0.0:
        sharpe = math.nan if annual_return == 0.0 else math.copysign(math.inf, annual_return)
    else:
        sharpe = annual_return / annual_risk
    return Summary(annual_return=annual_return, annual_risk=annual_risk, sharpe=sharpe)


def _solve_month(graph: market_graph.MarketGraph, config: BacktestConfig, month_index: int) -> mis_qubo.MisSolution:
    if config.solver == "greedy":
        return mis_qubo.solve_greedy(graph)
    if config.solver == "exact":
        return mis_qubo.solve_exact(graph, node_limit=config.node_limit)
    params = SbParams(restarts=config.restarts, seed=derive_seed(config.seed, month_index))
    return solve_mis_sb(graph, params)


def _month_weights(
    selection: mis_qubo.MisSolution,
    window: timeseries.ReturnMatrix,
    window_days: int,
    config: BacktestConfig,
    date: str,
) -> dict[str, float] | None:
    """Target weights for the month's selection, or None to hold the book."""
    if selection.feasible is not True or selection.size == 0:
        return None
    names = [window.tickers[i] for i in selection.selected]
    if config.weighting == "ew":
        return weights_ew(names)
    vols = timeseries.volatility(window, window_days)
    vol_map = {window.tickers[i]: float(vols[i]) for i in selection.selected}
    if config.drop_zero_vol:
        kept = [t for t in names if vol_map[t] > 0.0]
        if len(kept) < len(names):
            logger.warning("%s: dropping zero-volatility names %s", date, sorted(set(names) - set(kept)))
        names = kept
    return weights_ivw(names, vol_map) if names else None


def run_backtest(panel: PricePanel, config: BacktestConfig) -> BacktestReport:
    """Simulate the strategy over every eligible month-end of ``panel``."""
    returns = timeseries.log_returns(panel)
    all_ends = month_end_indices(panel.dates)
    # (month-end index, trailing window length in return rows)
    if config.lookback_months is not None:
        # anchor each window to the month-end `lookback_months` back
        windows = [(di, di - all_ends[pos]) for pos, di in enumerate(all_ends[config.lookback_months:])]
    else:
        windows = [(di, config.lookback_days) for di in all_ends if di >= config.lookback_days]
    if len(windows) < 2:
        raise InsufficientDataError(
            "panel must span the lookback plus at least two month-ends"
        )

    portfolio = Portfolio(holdings={}, shares={}, value=config.initial_value)
    records: list[MonthRecord] = []
    prev_value: float | None = None

    for mi, (di, window_days) in enumerate(windows):
        date = panel.dates[di]
        window = timeseries.ReturnMatrix(
            dates=returns.dates[:di], tickers=returns.tickers, values=returns.values[:di]
        )
        corr = timeseries.correlation(window, window_days)
        graph = market_graph.build_graph(corr, config.theta)
        density = market_graph.edge_density(graph) if graph.n_nodes >= 2 else 0.0
        weights = _month_weights(_solve_month(graph, config, mi), window, window_days, config, date)

        prices = dict(zip(panel.tickers, panel.prices[di].tolist()))
        if weights is None:
            # hold: the book rolls forward untouched at month-end prices,
            # no trades, no cost; the month is flagged infeasible
            turnover = cost = 0.0
            if portfolio.shares:
                portfolio.value = sum(s * prices[t] for t, s in portfolio.shares.items())
        else:
            # the month-end value is net of this month's trading costs, so
            # the return series carries the cost drag
            portfolio, turnover, cost = rebalance(portfolio, weights, prices, config.cost_rate, month=date)
        records.append(
            MonthRecord(
                date=date,
                ret=None if prev_value is None else monthly_return(prev_value, portfolio.value),
                edge_density=density,
                turnover=turnover,
                cost=cost,
                feasible=weights is not None,
                weights=dict(portfolio.holdings),
            )
        )
        prev_value = portfolio.value

    rets = [m.ret for m in records if m.ret is not None]
    summary = summarize(rets) if len(rets) >= MONTHS_PER_YEAR else None
    return BacktestReport(months=records, summary=summary)


def write_report_json(report: BacktestReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_cumulative_csv(report: BacktestReport, path) -> None:
    """Plot-ready series: date, monthly return, cumulative return."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "monthly_return", "cumulative_return"])
        cumulative = iter(report.cumulative.tolist())
        for m in report.months:
            if m.ret is None:
                w.writerow([m.date, "", repr(0.0)])
            else:
                w.writerow([m.date, repr(m.ret), repr(next(cumulative))])


# ---------------------------------------------------------------------------
# theta sweep

@dataclass
class SweepRow:
    theta: float
    weighting: str
    density_max: float = math.nan
    density_min: float = math.nan
    density_avg: float = math.nan
    size_max: int | None = None
    size_min: int | None = None
    size_avg: float = math.nan
    size_sd: float = math.nan
    annual_return: float = math.nan
    annual_risk: float = math.nan
    sharpe: float = math.nan
    error: str | None = None


#: the statistics columns of a sweep CSV, in order; the last column is ``error``
SWEEP_COLUMNS = [f.name for f in dataclasses.fields(SweepRow) if f.name != "error"]


#: errors that fail one sweep setting without stopping the sweep
_SWEEP_ROW_ERRORS = (
    DataError,
    InsufficientDataError,
    ZeroVolatilityError,
    AccountingError,
    mis_qubo.GraphTooLargeError,
    mis_qubo.SolveTimeout,
)


def default_theta_grid(lo: float = 0.18, hi: float = 0.36, step: float = 0.01) -> list[float]:
    count = int(round((hi - lo) / step)) + 1
    return [round(lo + k * step, 10) for k in range(count)]


def sweep_theta(
    panel: PricePanel,
    base_config: BacktestConfig,
    theta_list=None,
    weighting_list=None,
) -> list[SweepRow]:
    """One full backtest per (theta, weighting).

    A data or solver error in one setting fills that row's ``error`` and the
    sweep goes on; any other exception propagates.

    Both weightings of a given theta share a derived seed, so their graph
    and selection statistics coincide row-to-row.
    """
    thetas = list(theta_list) if theta_list is not None else default_theta_grid()
    weightings = list(weighting_list) if weighting_list is not None else ["ew", "ivw"]
    if not thetas or not weightings:
        raise ValueError("theta_list and weighting_list must be non-empty")

    settings = []
    for ti, theta in enumerate(thetas):
        seed = derive_seed(base_config.seed, ti)
        for weighting in weightings:
            settings.append(
                dataclasses.replace(base_config, theta=theta, weighting=weighting, seed=seed)
            )

    def run_one(cfg: BacktestConfig) -> SweepRow:
        row = SweepRow(theta=cfg.theta, weighting=cfg.weighting)
        try:
            report = run_backtest(panel, cfg)
        except _SWEEP_ROW_ERRORS as exc:
            row.error = f"{type(exc).__name__}: {exc}"
            return row
        dens = np.array([m.edge_density for m in report.months])
        sizes = np.array([m.n_constituents for m in report.months], dtype=np.float64)
        row.density_max = float(dens.max())
        row.density_min = float(dens.min())
        row.density_avg = float(dens.mean())
        row.size_max = int(sizes.max())
        row.size_min = int(sizes.min())
        row.size_avg = float(sizes.mean())
        row.size_sd = float(sizes.std())
        if report.summary is not None:
            row.annual_return = report.summary.annual_return
            row.annual_risk = report.summary.annual_risk
            row.sharpe = report.summary.sharpe
        return row

    return [run_one(cfg) for cfg in settings]


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    """One CSV row per :class:`SweepRow`, its fields in order; NaN and None are empty cells."""
    names = [f.name for f in dataclasses.fields(SweepRow)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for r in rows:
            w.writerow([_csv_cell(getattr(r, c)) for c in names])


def _csv_cell(v):
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(v)
    return v


# ---------------------------------------------------------------------------
# differential factor analysis against a cap-weighted benchmark

@dataclass
class DifrRow:
    rank: int
    ticker: str
    difr: float
    avg_weight_mis: float
    avg_weight_bench: float
    avg_degree: float | None = None


def load_caps_csv(path) -> dict[str, dict[str, float]]:
    """Capitalizations from ``date,ticker,cap`` rows, keyed by month (YYYY-MM)."""
    out: dict[str, dict[str, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "ticker", "cap"]:
            raise DataError(f"{path}: expected header 'date,ticker,cap'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}: line {lineno}: expected 3 fields")
            date, ticker, cap = row[0].strip(), row[1].strip(), float(row[2])
            if cap <= 0:
                raise DataError(f"{path}: line {lineno}: non-positive cap")
            out.setdefault(date[:7], {})[ticker] = cap
    return out


def cap_weights(caps: dict[str, float]) -> dict[str, float]:
    total = sum(caps.values())
    return {t: c / total for t, c in caps.items()}


def monthly_stock_returns(panel: PricePanel) -> tuple[list[str], np.ndarray]:
    """Month-end to month-end simple returns; labels are the period-end dates."""
    ends = month_end_indices(panel.dates)
    if len(ends) < 2:
        raise InsufficientDataError("need at least two month-ends")
    px = panel.prices[ends]
    rets = px[1:] / px[:-1] - 1.0
    return [panel.dates[i] for i in ends[1:]], rets


def difr_analysis(
    panel: PricePanel,
    mis_weights: dict[str, dict[str, float]],
    benchmark_caps: dict[str, dict[str, float]],
    period: tuple[str, str],
    theta: float | None = None,
    lookback_days: int = timeseries.DEFAULT_LOOKBACK_DAYS,
) -> list[DifrRow]:
    """Per-stock return-contribution difference versus the cap-weighted book.

    For every month-end in ``period``, each stock contributes its monthly
    return times its weight in each book; the difference summed over the
    period is the stock's score.  Weight series are keyed by month
    (YYYY-MM); a month of the period missing from either series is a range
    error.  When ``theta`` is given, the stock's average degree in the
    monthly threshold graphs is reported alongside.
    """
    start, end = period
    dates, rets = monthly_stock_returns(panel)
    months = [(k, d) for k, d in enumerate(dates) if start <= d <= end]
    if not months:
        raise ValueError(f"no month-ends inside period {start}..{end}")

    mis_by_month = {k[:7]: v for k, v in mis_weights.items()}
    bench_by_month = {k[:7]: v for k, v in benchmark_caps.items()}

    n = panel.n_tickers
    difr = np.zeros(n)
    w_mis_sum = np.zeros(n)
    w_bench_sum = np.zeros(n)
    deg_sum = np.zeros(n)
    returns = timeseries.log_returns(panel) if theta is not None else None

    for k, date in months:
        mk = date[:7]
        if mk not in mis_by_month:
            raise ValueError(f"month {mk} outside the strategy weight series")
        if mk not in bench_by_month:
            raise ValueError(f"month {mk} outside the benchmark series")
        wm = mis_by_month[mk]
        wb = cap_weights(bench_by_month[mk])
        for i, t in enumerate(panel.tickers):
            a = wm.get(t, 0.0)
            b = wb.get(t, 0.0)
            difr[i] += rets[k, i] * (a - b)
            w_mis_sum[i] += a
            w_bench_sum[i] += b
        if theta is not None:
            di = panel.dates.index(date)
            window = timeseries.ReturnMatrix(
                dates=returns.dates[:di], tickers=returns.tickers, values=returns.values[:di]
            )
            corr = timeseries.correlation(window, lookback_days)
            deg_sum += market_graph.build_graph(corr, theta).adjacency_matrix.sum(axis=1)

    t_count = len(months)
    order = sorted(range(n), key=lambda i: (-difr[i], panel.tickers[i]))
    return [
        DifrRow(
            rank=pos + 1,
            ticker=panel.tickers[i],
            difr=float(difr[i]),
            avg_weight_mis=float(w_mis_sum[i] / t_count),
            avg_weight_bench=float(w_bench_sum[i] / t_count),
            avg_degree=(float(deg_sum[i] / t_count) if theta is not None else None),
        )
        for pos, i in enumerate(order)
    ]
