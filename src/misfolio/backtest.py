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

Every book of a pass (one in :func:`run_backtest`, one per theta and
weighting in :func:`sweep_theta`) advances in one array step a month, over
``(books, tickers)`` arrays of shares and target weights.  Every sum adds
left to right in panel order (a selection is ascending node index), on
every Python version.  A name outside a book adds exact zeros, so a book's
figures do not depend on the books beside it.  The step has three stages,
each over ``(books, tickers)`` arrays: :func:`weights_ew` and
:func:`weights_ivw` give the target weights of the books that trade, and
:func:`rebalance` trades them.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import market_graph, mis_qubo, timeseries
from .sb_solver import SbParams, solve_mis_sb
from .timeseries import SEED_LIMIT, InsufficientDataError, PricePanel, check_int, parse_date

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
        object.__setattr__(self, "seed", check_int("seed", self.seed, lo=0, below=SEED_LIMIT))
        market_graph.check_theta(self.theta)
        _check_cost_rate(self.cost_rate)
        for name, choices in (("weighting", WEIGHTINGS), ("solver", SOLVERS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("lookback_days", "restarts", "node_limit"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.lookback_months is not None:
            object.__setattr__(self, "lookback_months", check_int("lookback_months", self.lookback_months))
        if not (math.isfinite(self.initial_value) and self.initial_value > 0):
            raise ValueError(f"initial_value must be finite and positive, got {self.initial_value}")


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
    if math.isnan(v):
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _summary_json(s: Summary | None) -> dict | None:
    return None if s is None else {k: _json_float(v) for k, v in dataclasses.asdict(s).items()}


def derive_seed(base: int, index: int) -> int:
    """Independent 64-bit stream seed for sub-task ``index`` (splitmix64)."""
    z = (base + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def left_sum(values) -> float:
    """``values`` added left to right from 0, as ``sum()`` adds them before Python 3.12 compensates float sums."""
    return float(np.add.accumulate([0.0, *values])[-1])


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Each row of ``a`` summed left to right, as :func:`left_sum` adds it.

    ``a.sum(axis=1)`` adds pairwise, which can differ in the last bit.
    """
    return np.add.accumulate(a, axis=1)[:, -1] if a.shape[1] else np.zeros(len(a))


def _zero_volatility(selected: np.ndarray, vols: np.ndarray, tickers) -> dict[int, ZeroVolatilityError]:
    """The error of each row of ``selected`` that holds a zero-volatility name, naming its first such name."""
    zero = selected & (vols <= 0.0)
    return {
        int(b): ZeroVolatilityError(f"volatility of {tickers[int(zero[b].argmax())]} is zero; inverse weight undefined")
        for b in np.flatnonzero(zero.any(axis=1))
    }


def weights_ew(selected: np.ndarray) -> np.ndarray:
    """Equal target weights of each ``(books, tickers)`` selection row: ``1/k`` per name, renormalized to sum 1."""
    counts = np.count_nonzero(selected, axis=1)
    if not counts.all():
        raise ValueError("cannot weight an empty selection")
    raw = np.where(selected, (1.0 / counts)[:, None], 0.0)
    return raw / _row_sums(raw)[:, None]


def weights_ivw(selected: np.ndarray, vols: np.ndarray) -> np.ndarray:
    """Target weights proportional to ``1/vols`` of each selection row, renormalized to sum 1.

    ``vols`` holds one volatility per ticker.  A row whose selected
    volatilities are all equal keeps the weights of :func:`weights_ew`, so
    the two schemes coincide to the last bit there.
    """
    weights = weights_ew(selected)
    if (selected & ~(vols > 0.0)).any():
        raise ZeroVolatilityError("a selected volatility is not positive; inverse weight undefined")
    lo = np.where(selected, vols, np.inf).min(axis=1)
    hi = np.where(selected, vols, -np.inf).max(axis=1)
    rows = lo != hi
    raw = np.where(selected[rows], np.divide(1.0, vols, out=np.zeros_like(vols), where=vols > 0.0), 0.0)
    weights[rows] = raw / _row_sums(raw)[:, None]
    return weights


def _check_cost_rate(cost_rate: float) -> None:
    # at a rate of 1 or more the cost of a trade eats the whole book
    if not 0.0 <= cost_rate < 1.0:
        raise ValueError(f"cost_rate must lie in [0, 1), got {cost_rate}")


def _mark(shares: np.ndarray, held: np.ndarray, value: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Each book's value at ``prices``: its positions summed in panel order, or ``value`` when it holds none."""
    # a name no row holds adds exact zeros, which change no sum
    return np.where(held.any(axis=1), _row_sums((shares * prices)[:, held.any(axis=0)]), value)


def rebalance(shares, held, value_before, weights, prices, cost_rate: float):
    """Trade each row from its positions ``shares * prices`` to ``weights``; return (shares, turnover, cost, value).

    ``held`` marks each row's positions and ``weights > 0`` its selection.
    Target positions are ``w * (value_before - cost)`` and the cost is
    ``cost_rate * turnover`` of the trades that reach them; every row solves
    both together.  A held name whose target matches its position to the
    last bit keeps its shares (no phantom trades, no drift from re-dividing).
    """
    _check_cost_rate(cost_rate)
    current, selected = shares * prices, weights > 0.0
    union = held | selected
    # a name outside every row's union adds exact zeros, which change no sum
    cols = union.any(axis=0)
    w, c = weights[:, cols], current[:, cols]
    # the cost solves cost = cost_rate * sum_t |w_t (value_before - cost) - current_t|;
    # the gap between the sides is concave, piecewise linear and increasing
    # (slope >= 1 - cost_rate > 0), so Newton from 0 climbs onto the root one
    # linear piece per step; each row stops at its root, or after one pass per name plus two
    steps = np.count_nonzero(union, axis=1) + 2
    cost = np.zeros(len(w))
    running = np.ones(len(w), dtype=bool)
    for k in range(int(steps.max())):
        running &= k < steps
        gaps = w * (value_before - cost)[:, None] - c
        new_cost = cost_rate * _row_sums(np.abs(gaps))
        running &= new_cost != cost
        if not running.any():
            break
        # a name on its kink (g == 0) takes the slope of the piece above the cost
        slope = _row_sums(np.where(gaps > 0, w, -w))
        cost = np.where(running, cost + (new_cost - cost) / (1.0 + cost_rate * slope), cost)
    target = weights * (value_before - cost)[:, None]
    kept = held & (target == current)
    shares = np.where(selected, np.where(kept, shares, target / prices), 0.0)
    turnover = _row_sums(np.abs(target - current)[:, cols])
    cost = cost_rate * turnover
    return shares, turnover, cost, value_before - cost


def month_end_indices(dates) -> list[int]:
    """Index of the last date within each calendar month present."""
    return [i for i, d in enumerate(dates) if i + 1 == len(dates) or dates[i + 1][:7] != d[:7]]


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


#: errors that stop one book (one sweep row) without stopping the others
_SWEEP_ROW_ERRORS = (
    InsufficientDataError,
    ZeroVolatilityError,
    AccountingError,
    mis_qubo.GraphTooLargeError,
    mis_qubo.SolveTimeout,
)


class _Month(NamedTuple):
    """One month of a pass, each array over every book."""

    ret: np.ndarray | None  # None in the first month
    turnover: np.ndarray
    cost: np.ndarray
    traded: np.ndarray
    date: str
    density: np.ndarray


class _Books:
    """Every book of one pass, row ``b`` for ``configs[b]``, as arrays over the panel's ``tickers``.

    ``shares`` and ``weights`` hold each book's positions and the target
    weights it last traded to, so ``held``, the names of its positions, is
    ``weights > 0`` (a selected name's weight, 1/k or a share of 1/vol, is
    positive).  ``value`` is its value at the last month-end.  A book whose
    ``errors`` entry is set has stopped.  The configs share ``cost_rate``.
    """

    def __init__(self, configs: list[BacktestConfig], tickers: tuple[str, ...]):
        n_tickers = len(tickers)
        self.configs = configs
        self.tickers = tickers
        self.cost_rate = configs[0].cost_rate
        self.ivw = np.array([c.weighting == "ivw" for c in configs])
        self.shares = np.zeros((len(configs), n_tickers))
        self.weights = np.zeros((len(configs), n_tickers))
        self.value = np.array([c.initial_value for c in configs], dtype=np.float64)
        self.hold_months = np.zeros(len(configs), dtype=np.intp)
        self.errors: list[Exception | None] = [None] * len(configs)

    @property
    def held(self) -> np.ndarray:
        return self.weights > 0.0

    def advance(self, first: bool, selected: np.ndarray, vols: np.ndarray | None, prices: np.ndarray):
        """Move every live book one month at ``prices``; return ``(ret, turnover, cost, traded)``.

        A book trades to the target weights of its ``selected`` row, or holds
        its positions, with no trade and no cost, when the row is empty.  The
        month-end value is net of the month's trading costs, so the return
        carries the cost drag; ``ret`` is None in the ``first`` month.  A
        zero-volatility name in an ivw selection, or a non-positive base
        value, stores that book's error and stops it.
        """
        live = np.array([e is None for e in self.errors])
        traded = live & selected.any(axis=1)
        if vols is not None:
            for b, exc in _zero_volatility(selected & (traded & self.ivw)[:, None], vols, self.tickers).items():
                self.errors[b] = exc
                live[b] = traded[b] = False
        value = _mark(self.shares, self.held, self.value, prices)
        turnover, cost = np.zeros(len(live)), np.zeros(len(live))
        rows = np.flatnonzero(traded)
        if len(rows):
            weights = weights_ew(selected[rows])
            ivw = self.ivw[rows]
            if ivw.any():
                weights[ivw] = weights_ivw(selected[rows[ivw]], vols)
            self.shares[rows], turnover[rows], cost[rows], value[rows] = rebalance(
                self.shares[rows], self.held[rows], value[rows], weights, prices, self.cost_rate
            )
            self.weights[rows] = weights
        self.hold_months += live & ~traded
        ret = None
        if not first:
            for b in np.flatnonzero(live & (self.value <= 0.0)):
                self.errors[b] = AccountingError(f"non-positive base value {float(self.value[b])}")
                live[b] = False
            ret = np.full(len(live), np.nan)
            ret[live] = value[live] / self.value[live] - 1.0
        self.value[live] = value[live]
        return ret, turnover, cost, traded


def _simulate(panel: PricePanel, books: _Books, group: int):
    """Run ``books`` in one pass over the months; yield one :class:`_Month` per month.

    Each run of ``group`` consecutive books shares one config but the
    weighting, and the configs differ only in ``theta`` and ``seed``.  Each
    month's window, correlation and volatility are computed once for every
    book; each config's graph is built and solved once, and its books share
    that selection.  All live books then advance in one array step.  The
    pass keeps no record.  A data or solver error stops only the books it
    reaches and is stored in ``books.errors``; any other exception
    propagates.
    """
    config = books.configs[0]
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
        books.errors = [exc] * len(books.errors)
        return
    n_books = len(books.configs)
    all_groups = [range(k, k + group) for k in range(0, n_books, group)]

    for mi, (di, window_days) in enumerate(windows):
        # months outside, thetas inside: one correlation matrix is alive at a time
        groups = [rows for rows in all_groups if any(books.errors[b] is None for b in rows)]
        if not groups:
            break
        window = timeseries.ReturnMatrix(
            dates=returns.dates[:di], tickers=returns.tickers, values=returns.values[:di]
        )
        corr = timeseries.correlation(window, window_days)
        vols = timeseries.volatility(window, window_days) if books.ivw.any() else None
        density = np.zeros(n_books)
        selected = np.zeros((n_books, panel.n_tickers), dtype=bool)
        for rows in groups:
            cfg = books.configs[rows.start]
            graph = market_graph.build_graph(corr, cfg.theta)
            density[rows.start : rows.stop] = market_graph.edge_density(graph)
            try:
                params = SbParams(restarts=cfg.restarts, seed=derive_seed(cfg.seed, mi))
                selection = solve_mis(graph, cfg.solver, params, cfg.node_limit)
            except _SWEEP_ROW_ERRORS as exc:
                for b in rows:
                    if books.errors[b] is None:
                        books.errors[b] = exc
                continue
            # an empty or infeasible selection holds the book
            if selection.feasible is True and selection.size:
                selected[rows.start : rows.stop, list(selection.selected)] = True
        yield _Month(*books.advance(mi == 0, selected, vols, panel.prices[di]), panel.dates[di], density)


def run_backtest(panel: PricePanel, config: BacktestConfig) -> BacktestReport:
    """Simulate the strategy over every eligible month-end of ``panel``."""
    books = _Books([config], panel.tickers)
    months = []
    for month in _simulate(panel, books, 1):
        names = np.flatnonzero(books.held[0])
        months.append(MonthRecord(
            date=month.date,
            ret=None if month.ret is None else float(month.ret[0]),
            edge_density=float(month.density[0]),
            turnover=float(month.turnover[0]),
            cost=float(month.cost[0]),
            feasible=bool(month.traded[0]),
            weights=dict(zip([panel.tickers[i] for i in names], books.weights[0, names].tolist())),
        ))
    if books.errors[0] is not None:
        raise books.errors[0]
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
    hold_months: int | None = None
    error: str | None = None


#: most thetas one grid may hold: a 0.001 step over all of [-1, 1]
MAX_THETAS = 2001


def default_theta_grid(lo: float = 0.18, hi: float = 0.36, step: float = 0.01) -> list[float]:
    """``lo``, ``lo + step``, ... up to ``hi``, never past it; the slack absorbs rounding in ``(hi - lo) / step``.

    A grid of no theta or of more than ``MAX_THETAS`` raises ValueError: a sweep allocates books for each.
    """
    if not (step > 0 and lo <= hi):
        raise ValueError(f"a theta grid needs a positive step and lo <= hi; got lo={lo!r}, hi={hi!r}, step={step!r}")
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_THETAS:  # also an infinite or NaN count
        raise ValueError(f"a theta step of {step!r} from {lo!r} to {hi!r} gives more than {MAX_THETAS} thetas")
    count = math.floor(steps) + 1
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
    ``run_backtest`` with that theta, weighting and seed would give.  The
    pass records only each book's monthly density, selection size and
    return, and its count of held months, never a month's weights.

    A data or solver error in one setting fills that row's ``error`` and the
    sweep goes on; any other exception propagates.
    """
    thetas = list(theta_list) if theta_list is not None else default_theta_grid()
    weightings = list(weighting_list) if weighting_list is not None else list(WEIGHTINGS)
    if not thetas or not weightings:
        raise ValueError("theta_list and weighting_list must be non-empty")
    configs = [
        dataclasses.replace(base_config, theta=theta, seed=derive_seed(base_config.seed, ti), weighting=w)
        for ti, theta in enumerate(thetas)
        for w in weightings
    ]
    books = _Books(configs, panel.tickers)
    dens, sizes, rets = [], [], []
    for month in _simulate(panel, books, len(weightings)):
        dens.append(month.density)
        sizes.append(np.count_nonzero(books.held, axis=1))
        if month.ret is not None:
            rets.append(month.ret)
    # one contiguous row of months per book, as a list of its months would give
    dens, sizes, rets = (np.array(m, dtype=np.float64).reshape(-1, len(configs)).T.copy() for m in (dens, sizes, rets))
    return [
        _sweep_row(*book)
        for book in zip(configs, books.errors, books.hold_months.tolist(), dens, sizes, rets)
    ]


def _sweep_row(config: BacktestConfig, error: Exception | None, hold_months: int,
               dens: np.ndarray, sizes: np.ndarray, rets: np.ndarray) -> SweepRow:
    row = SweepRow(theta=config.theta, weighting=config.weighting)
    if error is not None:
        row.error = f"{type(error).__name__}: {error}"
        return row
    row.density_max = float(dens.max())
    row.density_min = float(dens.min())
    row.density_avg = float(dens.mean())
    row.size_max = int(sizes.max())
    row.size_min = int(sizes.min())
    row.size_avg = float(sizes.mean())
    row.size_sd = float(sizes.std())
    row.hold_months = hold_months
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
    """Capitalizations from ``date,ticker,cap`` rows, keyed by month (YYYY-MM).

    A ticker may appear once per month; a second row for it, or an empty
    ticker, raises :class:`DataError` rather than being loaded.
    """
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
                parse_date(date)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad date {date!r}") from None
            try:
                cap = float(row[2])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: cap {row[2].strip()!r} is not a number") from None
            if not (math.isfinite(cap) and cap > 0):
                raise DataError(f"{path}: line {lineno}: cap must be finite and positive, got {cap}")
            if not ticker:
                raise DataError(f"{path}: line {lineno}: empty ticker")
            month = out.setdefault(date[:7], {})
            if ticker in month:
                raise DataError(f"{path}: line {lineno}: a second cap for {ticker!r} in {date[:7]}")
            month[ticker] = cap
    return out


def cap_weights(caps: dict[str, float]) -> dict[str, float]:
    total = left_sum(caps.values())
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
    (YYYY-MM); two keys in one month, or a month of the period missing from
    either series, raise ValueError.  When ``theta`` is given, the stock's
    average degree in the monthly threshold graphs is reported alongside.

    Key M holds the books held *through* month M, so a :class:`MonthRecord`
    dated at the close of M-1 goes under M; keyed by its own ``date``, each
    month's return would meet weights chosen at that month's close, a
    look-ahead.  Library-only: no input this package produces carries
    capitalizations, so a CLI entry could not be run or tested end to end.
    """
    start, end = period
    dates, rets = monthly_stock_returns(panel)
    months = [(k, d) for k, d in enumerate(dates) if start <= d <= end]
    if not months:
        raise ValueError(f"no month-ends inside period {start}..{end}")

    mis_by_month = {k[:7]: v for k, v in mis_weights.items()}
    bench_by_month = {k[:7]: v for k, v in benchmark_caps.items()}
    for what, series in (("strategy weight", mis_weights), ("benchmark", benchmark_caps)):
        keys = sorted(series)  # the keys of one month sort next to each other
        for a, b in zip(keys, keys[1:]):
            if a[:7] == b[:7]:
                raise ValueError(f"{what} series keys {a!r} and {b!r} fall in one month")

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
