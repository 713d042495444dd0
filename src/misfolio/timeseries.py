"""Price panels, log returns, volatility and correlation.

Conventions used throughout:

* daily log return: ``R_i(t) = ln(P_i(t) / P_i(t-1))``
* volatility: population standard deviation (divide by the window length,
  not by ``T - 1``) of the log returns over the trailing window; it comes
  from the same centred window as the correlation, which carries it
* correlation: Pearson coefficient over the trailing window, clamped to
  ``[-1, 1]`` after computation to absorb rounding

A column whose returns are constant over the window has zero variance and
an undefined Pearson coefficient; its correlations are defined as 0 against
every other column and the column index is flagged on the result, so the
corresponding node ends up isolated in any positive-threshold graph.
"""

from __future__ import annotations

import csv
import datetime
import logging
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

#: default trailing window: three years of business days
DEFAULT_LOOKBACK_DAYS = 756
#: correlation's row block: its n x n temporary becomes block-sized (measured, see CHANGES.md)
_TILE = 256

# synth_panel's factor model: daily factor and idiosyncratic volatilities,
# the spread of the loadings, and the panel's first price and date
FACTOR_VOL = 0.01
IDIO_VOL = 0.012
LOADING_SPREAD = 0.3
START_PRICE = 100.0
START_DATE = "2013-01-02"
#: seeds lie in [0, SEED_LIMIT): the 64-bit stream derivations would run s and s + 2**64 alike
SEED_LIMIT = 2**64


class PriceFileError(ValueError):
    """Malformed price CSV (carries row/column context in the message)."""


class EmptyUniverseError(ValueError):
    """A price panel with no tickers, built or left after loading."""


class InsufficientDataError(ValueError):
    """Fewer rows than the requested window or operation needs."""


def check_int(name: str, value, lo: int = 1, below: int | None = None) -> int:
    """``value`` via ``operator.index`` (a float or a string fails) as an int in ``[lo, below)``; else ValueError."""
    try:
        out = operator.index(value)
        if lo <= out and (below is None or out < below):
            return out
    except TypeError:
        pass
    k = (below or 0).bit_length() - 1  # a power-of-two bound reads as one: the seeds' 2**64
    bound = f">= {lo}" if below is None else f"in [{lo}, {f'2**{k}' if below == 2**k else below})"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def parse_date(text: str) -> datetime.date:
    """The ``YYYY-MM-DD`` calendar date ``text``, else ValueError.  Months are grouped by a date's first seven
    characters, so the other ISO-8601 forms Python 3.11 parses (``20130102``, ``2013-W01-3``) are rejected."""
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        try:
            return datetime.date.fromisoformat(text)
        except ValueError:  # a day the calendar lacks, as 2013-02-30
            pass
    raise ValueError(f"bad date {text!r}: expected a YYYY-MM-DD calendar date")


@dataclass(frozen=True, eq=False)
class PricePanel:
    """Dated matrix of positive, dividend-adjusted closing prices.

    ``prices[t, i]`` is the close of ``tickers[i]`` on ``dates[t]``.  Dates
    are ``YYYY-MM-DD`` strings (:func:`parse_date`), strictly increasing, and
    tickers are unique.  ``prices`` is stored C-contiguous, so a panel gives the
    same bits whether it was loaded or built in memory (reductions sum in memory order).
    """

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        if not self.tickers:
            raise EmptyUniverseError("price panel has no tickers")
        p = np.ascontiguousarray(self.prices, dtype=np.float64)
        object.__setattr__(self, "prices", p)
        if p.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(
                f"price matrix shape {p.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if p.size and not (np.isfinite(p).all() and (p > 0).all()):
            raise ValueError("prices must be strictly positive and finite")
        for d in self.dates:
            parse_date(d)
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise ValueError(f"dates not strictly increasing at {a!r} -> {b!r}")
        blank = [i for i, t in enumerate(self.tickers) if not str(t).strip()]
        if blank:
            raise ValueError(f"tickers must be non-empty names; ticker {blank[0]} is {self.tickers[blank[0]]!r}")
        if len(set(self.tickers)) < len(self.tickers):
            raise ValueError(f"tickers must be unique; {max(self.tickers, key=self.tickers.count)!r} is repeated")

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)


@dataclass(frozen=True, eq=False)
class ReturnMatrix:
    """Log returns; one row fewer than the source panel."""

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    values: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Pearson correlations over a trailing window.

    ``zero_variance`` lists column indices whose returns were constant
    over the window; their rows/columns are zeroed and they take no part
    in any threshold graph with a positive threshold.  ``volatility`` is the
    window's :func:`volatility` when :func:`correlation` made the matrix, else None.
    """

    tickers: tuple[str, ...]
    values: np.ndarray
    zero_variance: tuple[int, ...] = field(default=())
    volatility: np.ndarray | None = None

    def __post_init__(self):
        c, n = np.asarray(self.values), len(self.tickers)
        if c.shape != (n, n):
            raise ValueError(f"correlation values must be an ({n}, {n}) array, one row per ticker; got shape {c.shape}")
        # a NaN pair would silently lose its edge; checked in row blocks, so no n x n temporary is made
        if not all(np.isfinite(c[s : s + _TILE]).all() for s in range(0, n, _TILE)):
            raise ValueError("correlation values must be finite")
        object.__setattr__(self, "values", c)


def load_prices(path) -> PricePanel:
    """Load a price CSV: header ``date,<ticker>,...``, ``YYYY-MM-DD`` dates, decimal prices.

    Tickers with any missing (empty cell) or non-positive value are dropped
    with a warning.  Structural problems (bad header, bad date, unparseable
    number, ragged rows) raise :class:`PriceFileError` with row/column info.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PriceFileError(f"{path}: empty file") from None
        if len(header) < 2 or header[0].strip().lower() != "date":
            raise PriceFileError(f"{path}: row 1: header must be 'date,<ticker>,...'")
        tickers = [t.strip() for t in header[1:]]
        if not all(tickers):
            raise PriceFileError(f"{path}: row 1, column {tickers.index('') + 2}: empty ticker in header")
        if len(set(tickers)) != len(tickers):
            raise PriceFileError(f"{path}: row 1: duplicate ticker in header")

        dates: list[str] = []
        rows: list[list[float]] = []
        # reasons[i] set when column i must be dropped (missing/non-positive)
        reasons: dict[int, str] = {}
        for rnum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(tickers) + 1:
                raise PriceFileError(
                    f"{path}: row {rnum}: expected {len(tickers) + 1} fields, got {len(row)}"
                )
            ds = row[0].strip()
            try:
                parse_date(ds)
            except ValueError:
                raise PriceFileError(f"{path}: row {rnum}, column 1: bad date {ds!r}") from None
            if dates and dates[-1] >= ds:
                raise PriceFileError(f"{path}: row {rnum}: dates not strictly increasing at {ds!r}")
            vals = []
            for cnum, cell in enumerate(row[1:], start=2):
                cell = cell.strip()
                if not cell:
                    reasons.setdefault(cnum - 2, f"missing value at row {rnum}")
                    vals.append(np.nan)
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise PriceFileError(
                        f"{path}: row {rnum}, column {cnum}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(v) or v <= 0:
                    reasons.setdefault(cnum - 2, f"non-positive price {cell} at row {rnum}")
                vals.append(v)
            dates.append(ds)
            rows.append(vals)

    if not rows:
        raise PriceFileError(f"{path}: no data rows")

    keep = [i for i in range(len(tickers)) if i not in reasons]
    for i, why in sorted(reasons.items()):
        logger.warning("dropping ticker %s: %s", tickers[i], why)

    prices = np.asarray(rows, dtype=np.float64)[:, keep]
    return PricePanel(
        dates=tuple(dates),
        tickers=tuple(tickers[i] for i in keep),
        prices=prices,
    )


def write_prices(panel: PricePanel, path) -> None:
    """Write a panel in the same CSV format ``load_prices`` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["date", *panel.tickers])
        for t, d in enumerate(panel.dates):
            w.writerow([d, *(repr(float(v)) for v in panel.prices[t])])


def log_returns(panel: PricePanel) -> ReturnMatrix:
    """R(t) = ln(P(t)/P(t-1)) for every date from the second one on."""
    if panel.n_dates < 2:
        raise InsufficientDataError("need at least 2 dates to compute returns")
    vals = np.log(panel.prices[1:] / panel.prices[:-1])
    return ReturnMatrix(dates=panel.dates[1:], tickers=panel.tickers, values=vals)


def _trailing(returns: ReturnMatrix, window_days: int) -> np.ndarray:
    window_days = check_int("window_days", window_days)
    if returns.n_rows < window_days:
        raise InsufficientDataError(
            f"need {window_days} return rows, have {returns.n_rows}"
        )
    return returns.values[-window_days:]


def _centred(w: np.ndarray):
    """``w``'s exact-constancy mask, centred columns ``d``, their sums of squares ``S`` and ``sqrt(S / T)``, exactly 0
    where constant: ``np.std``'s terms in its order, so one centring gives both correlation and volatility."""
    zero = np.ptp(w, axis=0) == 0.0  # exact constancy test; centering alone can leave rounding residue
    d = w - w.mean(axis=0)
    s = (d * d).sum(axis=0)
    std = np.sqrt(s / len(w))
    std[zero] = 0.0
    return zero, d, s, std


def volatility(returns: ReturnMatrix, window_days: int) -> np.ndarray:
    """Per-ticker population std of returns over the trailing window.

    A column that is exactly constant reports exactly 0 (the residue the
    mean would otherwise leave matters to inverse-volatility weighting).
    """
    return _centred(_trailing(returns, window_days))[3]


def correlation(returns: ReturnMatrix, window_days: int) -> CorrelationMatrix:
    """Pearson correlation matrix over the trailing ``window_days`` rows.

    Output is exactly symmetric, clamped to [-1, 1], with unit diagonal for
    every column that varies over the window.  Constant columns are flagged
    and their correlations set to 0 (see module docstring).  Symmetry rests on
    numpy forming ``d.T @ d`` of one array as a symmetric rank-k update, and
    on ``c_ij / (s_i * s_j)`` rounding as ``c_ji / (s_j * s_i)`` does.
    """
    zero, d, s, std = _centred(_trailing(returns, window_days))
    norm = np.sqrt(s)
    safe = np.where(norm == 0.0, 1.0, norm)
    c = d.T @ d
    # bit for bit (d.T @ d) / outer(safe, safe), in row blocks instead of an n x n temporary
    for a in range(0, len(c), _TILE):
        c[a : a + _TILE] /= safe[a : a + _TILE, None] * safe
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    flagged = np.flatnonzero(zero | (norm == 0.0))
    if flagged.size:
        c[flagged, :] = 0.0
        c[:, flagged] = 0.0
        logger.warning(
            "zero-variance columns over %d-day window: %s",
            window_days,
            ", ".join(returns.tickers[i] for i in flagged),
        )
    return CorrelationMatrix(
        tickers=returns.tickers,
        values=c,
        zero_variance=tuple(int(i) for i in flagged),
        volatility=std,
    )


def business_days(start: str, count: int) -> tuple[str, ...]:
    """`count` ``YYYY-MM-DD`` dates from `start` onward, skipping Saturdays/Sundays."""
    day = parse_date(start)
    out = []
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += datetime.timedelta(days=1)
    return tuple(out)


def synth_panel(n_stocks: int, n_days: int, n_factors: int, seed: int) -> PricePanel:
    """Deterministic synthetic price panel from a linear factor model.

    Daily log returns are ``loadings @ factors + noise``: factor returns
    have standard deviation ``FACTOR_VOL`` and the noise ``IDIO_VOL``.  The
    first factor is a market factor with loadings ``1 + LOADING_SPREAD * z``,
    and the remaining factors have loadings ``LOADING_SPREAD * z``, with
    ``z`` standard normal.  Prices start at ``START_PRICE`` on
    ``START_DATE`` and compound the returns over business days.  The
    generator is Philox keyed by ``seed``, so equal seeds give
    bit-identical panels; ``seed`` lies in [0, ``SEED_LIMIT``).
    """
    n_stocks, n_days = check_int("n_stocks", n_stocks), check_int("n_days", n_days)
    n_factors, seed = check_int("n_factors", n_factors, lo=0), check_int("seed", seed, lo=0, below=SEED_LIMIT)
    rng = np.random.Generator(np.random.Philox(key=seed))
    loadings = np.zeros((n_stocks, n_factors))
    if n_factors > 0:
        loadings[:, 0] = 1.0 + LOADING_SPREAD * rng.standard_normal(n_stocks)
        if n_factors > 1:
            loadings[:, 1:] = LOADING_SPREAD * rng.standard_normal((n_stocks, n_factors - 1))
    factors = FACTOR_VOL * rng.standard_normal((n_days - 1, n_factors))
    noise = IDIO_VOL * rng.standard_normal((n_days - 1, n_stocks))
    rets = factors @ loadings.T + noise
    prices = np.empty((n_days, n_stocks))
    prices[0] = START_PRICE
    prices[1:] = START_PRICE * np.exp(np.cumsum(rets, axis=0))
    return PricePanel(
        dates=business_days(START_DATE, n_days),
        tickers=tuple(f"S{i:04d}" for i in range(n_stocks)),
        prices=prices,
    )
