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
import math
from dataclasses import dataclass, field

import numpy as np

from . import market_graph, mis_qubo, timeseries
from .sb_solver import SbParams, solve_mis_sb
from .timeseries import InsufficientDataError, PricePanel

MONTHS_PER_YEAR = 12


class DataError(ValueError):
    """Missing or inconsistent market data for an operation."""


class ZeroVolatilityError(ValueError):
    """Inverse-volatility weight undefined for a zero-volatility name."""


class AccountingError(ValueError):
    """Portfolio valuation hit a non-positive base value."""


#: the solver names :func:`solve_mis` knows, and the weighting names of a book
SOLVERS = ("sb", "greedy", "exact")
WEIGHTINGS = ("ew", "ivw")


@dataclass(frozen=True)
class BacktestConfig:
    """Strategy settings.

    Signal windows trail a fixed number of business days
    (``lookback_days``); set ``lookback_months`` to anchor them to the
    month-end that many calendar months back instead (window length then
    varies with the calendar).
    """

    theta: float
    weighting: str = "ew"  # one of WEIGHTINGS
    cost_rate: float = 0.001
    lookback_days: int = timeseries.DEFAULT_LOOKBACK_DAYS
    lookback_months: int | None = None
    solver: str = "sb"  # one of SOLVERS
    restarts: int = 10
    seed: int = 0
    node_limit: int = 64
    initial_value: float = 1.0

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [-1, 1]")
        _check_cost_rate(self.cost_rate)
        for name, choices in (("weighting", WEIGHTINGS), ("solver", SOLVERS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("lookback_days", "restarts", "node_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lookback_months is not None and self.lookback_months < 1:
            raise ValueError("lookback_months must be >= 1 when set")
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


def solve_mis(graph: market_graph.MarketGraph, solver: str, params: SbParams, node_limit: int,
              time_budget: float | None = None) -> mis_qubo.MisSolution:
    """An independent set of ``graph`` by ``solver``, one of :data:`SOLVERS`; only "sb" reads ``params``."""
    if solver == "greedy":
        return mis_qubo.solve_greedy(graph)
    if solver == "exact":
        return mis_qubo.solve_exact(graph, node_limit=node_limit, time_budget=time_budget)
    if solver == "sb":
        return solve_mis_sb(graph, params)
    raise ValueError(f"unknown solver {solver!r}")


def _month_weights(
    selection: mis_qubo.MisSolution,
    tickers: tuple[str, ...],
    vols: np.ndarray | None,
    weighting: str,
) -> dict[str, float] | None:
    """Target weights for the month's selection, or None to hold the book."""
    if selection.feasible is not True or selection.size == 0:
        return None
    names = [tickers[i] for i in selection.selected]
    if weighting == "ew":
        return weights_ew(names)
    return weights_ivw(names, {tickers[i]: float(vols[i]) for i in selection.selected})


#: errors that stop one book (one sweep row) without stopping the others
_SWEEP_ROW_ERRORS = (
    DataError,
    InsufficientDataError,
    ZeroVolatilityError,
    AccountingError,
    mis_qubo.GraphTooLargeError,
    mis_qubo.SolveTimeout,
)


@dataclass(eq=False)
class _Book:
    """One (theta, weighting) simulation, advanced a month at a time."""

    config: BacktestConfig
    portfolio: Portfolio
    error: Exception | None = None

    def advance(self, mi: int, date: str, density: float, weights: dict[str, float] | None, prices: dict) -> MonthRecord:
        prev_value = self.portfolio.value
        if weights is None:
            # hold: the book rolls forward untouched at month-end prices,
            # no trades, no cost; the month is flagged infeasible
            turnover = cost = 0.0
            if self.portfolio.shares:
                self.portfolio.value = sum(s * prices[t] for t, s in self.portfolio.shares.items())
        else:
            # the month-end value is net of this month's trading costs, so
            # the return series carries the cost drag
            self.portfolio, turnover, cost = rebalance(self.portfolio, weights, prices, self.config.cost_rate, month=date)
        return MonthRecord(
            date=date,
            ret=monthly_return(prev_value, self.portfolio.value) if mi else None,
            edge_density=density,
            turnover=turnover,
            cost=cost,
            feasible=weights is not None,
            weights=dict(self.portfolio.holdings),
        )


def _simulate(panel: PricePanel, books: list[_Book], group: int):
    """Run ``books`` in one pass over the months; yield ``(book, MonthRecord)`` per live book-month.

    Each run of ``group`` consecutive books shares one config but the
    weighting, and the configs differ only in ``theta`` and ``seed``.  Each
    month's window, correlation and volatility are computed once for every
    book; each config's graph is built and solved once, and its books share
    that selection.  The pass keeps no record.  A data or solver error stops
    only the books it reaches and is stored in their ``error``; any other
    exception propagates.
    """
    groups = [books[k : k + group] for k in range(0, len(books), group)]
    config = books[0].config
    try:
        returns = timeseries.log_returns(panel)
        all_ends = month_end_indices(panel.dates)
        # (month-end index, trailing window length in return rows)
        if config.lookback_months is not None:
            # anchor each window to the month-end `lookback_months` back
            windows = [(di, di - all_ends[pos]) for pos, di in enumerate(all_ends[config.lookback_months:])]
        else:
            windows = [(di, config.lookback_days) for di in all_ends if di >= config.lookback_days]
        if len(windows) < 2:
            raise InsufficientDataError("panel must span the lookback plus at least two month-ends")
    except InsufficientDataError as exc:
        for book in books:
            book.error = exc
        return
    ivw = any(b.config.weighting == "ivw" for b in books)

    for mi, (di, window_days) in enumerate(windows):
        # months outside, thetas inside: one correlation matrix is alive at a time
        live = [kept for g in groups if (kept := [b for b in g if b.error is None])]
        if not live:
            break
        date = panel.dates[di]
        window = timeseries.ReturnMatrix(
            dates=returns.dates[:di], tickers=returns.tickers, values=returns.values[:di]
        )
        corr = timeseries.correlation(window, window_days)
        vols = timeseries.volatility(window, window_days) if ivw else None
        prices = dict(zip(panel.tickers, panel.prices[di].tolist()))
        for g in live:
            cfg = g[0].config
            graph = market_graph.build_graph(corr, cfg.theta)
            density = market_graph.edge_density(graph) if graph.n_nodes >= 2 else 0.0
            try:
                params = SbParams(restarts=cfg.restarts, seed=derive_seed(cfg.seed, mi))
                selection = solve_mis(graph, cfg.solver, params, cfg.node_limit)
            except _SWEEP_ROW_ERRORS as exc:
                for book in g:
                    book.error = exc
                continue
            for book in g:
                try:
                    weights = _month_weights(selection, window.tickers, vols, book.config.weighting)
                    record = book.advance(mi, date, density, weights, prices)
                except _SWEEP_ROW_ERRORS as exc:
                    book.error = exc
                    continue
                # outside the try, so no error of the caller's is stored as this book's
                yield book, record


def run_backtest(panel: PricePanel, config: BacktestConfig) -> BacktestReport:
    """Simulate the strategy over every eligible month-end of ``panel``."""
    book = _Book(config, Portfolio({}, {}, config.initial_value))
    months = [record for _, record in _simulate(panel, [book], 1)]
    if book.error is not None:
        raise book.error
    rets = [m.ret for m in months if m.ret is not None]
    return BacktestReport(months=months, summary=summarize(rets) if len(rets) >= MONTHS_PER_YEAR else None)


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


def default_theta_grid(lo: float = 0.18, hi: float = 0.36, step: float = 0.01) -> list[float]:
    count = int(round((hi - lo) / step)) + 1
    return [round(lo + k * step, 10) for k in range(count)]


def sweep_theta(
    panel: PricePanel,
    base_config: BacktestConfig,
    theta_list=None,
    weighting_list=None,
) -> list[SweepRow]:
    """Every (theta, weighting) backtest of the grid, one row each, in one pass.

    Each month's correlation (and volatility) is computed once for the whole
    grid, and each theta's graph is solved once per month: both weightings
    of a theta share its derived seed ``derive_seed(base_config.seed, theta
    index)`` and so one selection, and their graph and selection statistics
    coincide row-to-row.  Every row equals the one its own
    ``run_backtest`` with that theta, weighting and seed would give.  A book
    keeps only each month's density, selection size and return, no weights.

    A data or solver error in one setting fills that row's ``error`` and the
    sweep goes on; any other exception propagates.
    """
    thetas = list(theta_list) if theta_list is not None else default_theta_grid()
    weightings = list(weighting_list) if weighting_list is not None else list(WEIGHTINGS)
    if not thetas or not weightings:
        raise ValueError("theta_list and weighting_list must be non-empty")
    books = [
        _Book(dataclasses.replace(base_config, theta=theta, seed=derive_seed(base_config.seed, ti), weighting=w),
              Portfolio({}, {}, base_config.initial_value))
        for ti, theta in enumerate(thetas)
        for w in weightings
    ]
    months = {book: [] for book in books}
    for book, record in _simulate(panel, books, len(weightings)):
        months[book].append((record.edge_density, record.n_constituents, record.ret))
    return [_sweep_row(book, months[book]) for book in books]


def _sweep_row(book: _Book, months: list[tuple[float, int, float | None]]) -> SweepRow:
    row = SweepRow(theta=book.config.theta, weighting=book.config.weighting)
    if book.error is not None:
        row.error = f"{type(book.error).__name__}: {book.error}"
        return row
    dens = np.array([d for d, _, _ in months])
    sizes = np.array([n for _, n, _ in months], dtype=np.float64)
    rets = [r for _, _, r in months if r is not None]
    row.density_max = float(dens.max())
    row.density_min = float(dens.min())
    row.density_avg = float(dens.mean())
    row.size_max = int(sizes.max())
    row.size_min = int(sizes.min())
    row.size_avg = float(sizes.mean())
    row.size_sd = float(sizes.std())
    if len(rets) >= MONTHS_PER_YEAR:
        row.annual_return, row.annual_risk, row.sharpe = dataclasses.astuple(summarize(rets))
    return row


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
            date, ticker = row[0].strip(), row[1].strip()
            try:
                cap = float(row[2])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: cap {row[2].strip()!r} is not a number") from None
            if not (math.isfinite(cap) and cap > 0):
                raise DataError(f"{path}: line {lineno}: cap must be finite and positive, got {cap}")
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
        wb = cap_weights(bench_by_month[mk])
        a = np.array([mis_by_month[mk].get(t, 0.0) for t in panel.tickers])
        b = np.array([wb.get(t, 0.0) for t in panel.tickers])
        difr += rets[k] * (a - b)
        w_mis_sum += a
        w_bench_sum += b
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
