import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misfolio import timeseries
from misfolio.backtest import BacktestConfig, DataError, load_caps_csv, run_backtest
from misfolio.sb_solver import SbParams
from misfolio.timeseries import (
    CorrelationMatrix,
    EmptyUniverseError,
    InsufficientDataError,
    PriceFileError,
    PricePanel,
    ReturnMatrix,
    business_days,
    correlation,
    load_prices,
    log_returns,
    synth_panel,
    volatility,
    write_prices,
)


def panel_from(prices, tickers=None):
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    n_dates, n_tickers = prices.shape
    tickers = tickers or tuple(f"T{i}" for i in range(n_tickers))
    return PricePanel(dates=business_days("2020-01-01", n_dates), tickers=tuple(tickers), prices=prices)


def returns_from(values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return ReturnMatrix(
        dates=business_days("2020-01-01", values.shape[0]),
        tickers=tuple(f"T{i}" for i in range(values.shape[1])),
        values=values,
    )


# --- loading ---------------------------------------------------------------

def write_csv(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_well_formed(tmp_path):
    path = write_csv(tmp_path, "date,AAA,BBB\n2020-01-01,10,20\n2020-01-02,11,21\n2020-01-03,12,22\n")
    panel = load_prices(path)
    assert panel.tickers == ("AAA", "BBB")
    assert panel.prices.shape == (3, 2)
    assert panel.dates[0] == "2020-01-01"


def test_load_drops_ticker_with_missing_cell(tmp_path, caplog):
    path = write_csv(tmp_path, "date,AAA,BBB\n2020-01-01,10,20\n2020-01-02,,21\n2020-01-03,12,22\n")
    with caplog.at_level("WARNING"):
        panel = load_prices(path)
    assert panel.tickers == ("BBB",)
    assert any("AAA" in r.message for r in caplog.records)


def test_load_drops_ticker_with_negative_price(tmp_path, caplog):
    path = write_csv(tmp_path, "date,AAA,BBB\n2020-01-01,10,20\n2020-01-02,-1,21\n")
    with caplog.at_level("WARNING"):
        panel = load_prices(path)
    assert panel.tickers == ("BBB",)
    assert any("AAA" in r.message for r in caplog.records)


def test_load_malformed_number_reports_row_and_column(tmp_path):
    path = write_csv(tmp_path, "date,AAA\n2020-01-01,10\n2020-01-02,oops\n")
    with pytest.raises(PriceFileError, match=r"row 3, column 2"):
        load_prices(path)


def test_load_ragged_row_rejected(tmp_path):
    path = write_csv(tmp_path, "date,AAA,BBB\n2020-01-01,10,20\n2020-01-02,11\n")
    with pytest.raises(PriceFileError, match="row 3"):
        load_prices(path)


def test_load_bad_date_rejected(tmp_path):
    path = write_csv(tmp_path, "date,AAA\nJan 5,10\n")
    with pytest.raises(PriceFileError, match="bad date"):
        load_prices(path)


def test_load_non_increasing_dates_rejected(tmp_path):
    path = write_csv(tmp_path, "date,AAA\n2020-01-02,10\n2020-01-01,11\n")
    with pytest.raises(PriceFileError, match="increasing"):
        load_prices(path)


def test_load_empty_universe(tmp_path):
    path = write_csv(tmp_path, "date,AAA\n2020-01-01,\n")
    with pytest.raises(EmptyUniverseError):
        load_prices(path)


# months are grouped by a date's first seven characters, so only YYYY-MM-DD calendar dates pass
@pytest.mark.parametrize("bad", ["20130102", "2013-W01-3", "2013-1-2", "2013-02-30"])
def test_every_reader_rejects_a_date_that_is_not_yyyy_mm_dd(tmp_path, bad):
    with pytest.raises(ValueError, match="bad date"):
        PricePanel(dates=(bad,), tickers=("AAA",), prices=[[10.0]])
    path = write_csv(tmp_path, f"date,AAA\n2013-01-01,10\n{bad},11\n")
    with pytest.raises(PriceFileError, match=rf"prices\.csv: row 3, column 1: bad date '{bad}'"):
        load_prices(path)
    caps = tmp_path / "caps.csv"
    caps.write_text(f"date,ticker,cap\n2013-01-31,A,100\n{bad},B,300\n")
    with pytest.raises(DataError, match=rf"caps\.csv: line 3: bad date '{bad}'"):
        load_caps_csv(caps)


@pytest.mark.parametrize("blank", ["", "  "])
def test_panel_with_an_empty_ticker_is_rejected(blank):
    # an empty name would key weights in every report
    with pytest.raises(ValueError, match=rf"ticker 1 is '{blank}'"):
        PricePanel(dates=("2020-01-01",), tickers=("AAA", blank), prices=[[1.0, 2.0]])


@pytest.mark.parametrize("header", ["date,,B", "date, ,B", "date,A,"])
def test_load_prices_rejects_an_empty_ticker(tmp_path, header):
    path = write_csv(tmp_path, f"{header}\n2020-01-01,1,2\n")
    with pytest.raises(PriceFileError, match=r"prices\.csv: row 1, column \d: empty ticker in header"):
        load_prices(path)


def test_panel_with_a_repeated_ticker_is_rejected():
    # its books would merge two names' weights under one key
    with pytest.raises(ValueError, match="'AAA' is repeated"):
        PricePanel(dates=("2020-01-01",), tickers=("AAA", "BBB", "AAA"), prices=[[1.0, 2.0, 3.0]])


def test_panel_without_tickers_is_rejected():
    # a backtest of it would report only cash months, each infeasible
    with pytest.raises(EmptyUniverseError, match="no tickers"):
        PricePanel(dates=("2020-01-01", "2020-01-02"), tickers=(), prices=np.empty((2, 0)))


def test_write_then_load_round_trip(tmp_path):
    panel = synth_panel(4, 30, 2, seed=11)
    write_prices(panel, tmp_path / "p.csv")
    again = load_prices(tmp_path / "p.csv")
    assert again.tickers == panel.tickers
    assert again.dates == panel.dates
    assert np.array_equal(again.prices, panel.prices)


def test_loaded_panel_gives_the_in_memory_bits(tmp_path):
    panel = synth_panel(40, 1010, 3, 0)
    write_prices(panel, tmp_path / "p.csv")
    loaded = load_prices(tmp_path / "p.csv")
    a, b = log_returns(panel), log_returns(loaded)
    assert volatility(a, 252).tobytes() == volatility(b, 252).tobytes()
    assert correlation(a, 252).values.tobytes() == correlation(b, 252).values.tobytes()
    config = BacktestConfig(theta=0.25, weighting="ivw", lookback_days=252, solver="greedy")
    ra, rb = run_backtest(panel, config), run_backtest(loaded, config)
    assert repr(ra.months) == repr(rb.months)
    assert repr(ra.summary) == repr(rb.summary)


# --- log returns -----------------------------------------------------------

def test_log_returns_flat_price_is_zero():
    r = log_returns(panel_from([[100.0], [100.0]]))
    assert r.values[0, 0] == 0.0


def test_log_returns_e_ratio_is_one():
    r = log_returns(panel_from([[100.0], [100.0 * math.e]]))
    assert r.values[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_log_returns_ten_percent():
    # ln(1.1) from an independent high-precision evaluation
    r = log_returns(panel_from([[100.0], [110.0]]))
    assert r.values[0, 0] == pytest.approx(0.09531017980432486, abs=1e-12)


def test_log_returns_needs_two_dates():
    with pytest.raises(InsufficientDataError):
        log_returns(panel_from([[100.0]]))


def test_log_returns_shape_and_dates():
    panel = synth_panel(3, 10, 1, seed=0)
    r = log_returns(panel)
    assert r.values.shape == (9, 3)
    assert r.dates == panel.dates[1:]
    assert np.isfinite(r.values).all()


def test_round_trip_returns_to_prices_and_back():
    rng = np.random.default_rng(1)
    rets = 0.02 * rng.standard_normal((50, 4))
    prices = np.vstack([np.full(4, 100.0), 100.0 * np.exp(np.cumsum(rets, axis=0))])
    back = log_returns(panel_from(prices))
    assert np.allclose(back.values, rets, atol=1e-12)


# --- volatility ------------------------------------------------------------

def test_volatility_constant_series_is_zero():
    assert volatility(returns_from(np.full((10, 1), 0.013)), 10)[0] == 0.0


def test_volatility_alternating_series_population_std():
    r = 0.004
    series = np.array([[r], [-r]] * 5)
    assert volatility(returns_from(series), 10)[0] == pytest.approx(r, abs=1e-18)


def test_volatility_matches_two_pass_oracle():
    rng = np.random.default_rng(7)
    vals = 0.01 * rng.standard_normal((756, 3))
    got = volatility(returns_from(vals), 756)
    for i in range(3):
        col = vals[:, i]
        mean = sum(col) / len(col)
        var = sum((x - mean) ** 2 for x in col) / len(col)
        assert got[i] == pytest.approx(math.sqrt(var), abs=1e-12)


def test_volatility_window_restricts_to_trailing_rows():
    vals = np.vstack([np.full((5, 1), 99.0), np.zeros((5, 1))])
    assert volatility(returns_from(vals), 5)[0] == 0.0


def test_volatility_insufficient_rows():
    with pytest.raises(InsufficientDataError):
        volatility(returns_from(np.zeros((3, 1))), 5)


@given(st.floats(-5, 5), st.floats(-3, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_volatility_affine_scaling(a, b, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((30, 2))
    base = volatility(returns_from(vals), 30)
    scaled = volatility(returns_from(a * vals + b), 30)
    assert np.allclose(scaled, abs(a) * base, atol=1e-12)


# --- correlation -----------------------------------------------------------

def test_correlation_identical_columns():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(40)
    c = correlation(returns_from(np.column_stack([col, col])), 40)
    assert c.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert c.values[0, 0] == 1.0


def test_correlation_negated_column():
    rng = np.random.default_rng(4)
    col = rng.standard_normal(40)
    c = correlation(returns_from(np.column_stack([col, -col])), 40)
    assert c.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_matches_double_loop_oracle():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((5, 3))
    got = correlation(returns_from(vals), 5).values
    for i in range(3):
        for j in range(3):
            xi, xj = vals[:, i], vals[:, j]
            di, dj = xi - xi.mean(), xj - xj.mean()
            want = (di * dj).sum() / math.sqrt((di * di).sum() * (dj * dj).sum())
            assert got[i, j] == pytest.approx(want, abs=1e-12)


def test_correlation_bitwise_symmetric_and_clamped():
    rng = np.random.default_rng(6)
    c = correlation(returns_from(rng.standard_normal((100, 8))), 100).values
    assert np.array_equal(c, c.T)
    assert (c >= -1.0).all() and (c <= 1.0).all()


def test_correlation_zero_variance_column_flagged_and_zeroed():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((30, 3))
    vals[:, 1] = 0.007  # constant
    c = correlation(returns_from(vals), 30)
    assert c.zero_variance == (1,)
    assert (c.values[1, :] == 0.0).all() and (c.values[:, 1] == 0.0).all()
    assert c.values[0, 0] == 1.0 and c.values[2, 2] == 1.0


def test_correlation_matrix_rejects_a_non_finite_pair():
    # a NaN pair fails every threshold test, so its edge would silently go missing
    values = np.array([[1.0, np.nan, 0.5], [np.nan, 1.0, 0.5], [0.5, 0.5, 1.0]])
    with pytest.raises(ValueError, match="correlation values must be finite"):
        CorrelationMatrix(tickers=("a", "b", "c"), values=values)


def test_correlation_matrix_rejects_a_shape_other_than_one_row_per_ticker():
    message = r"correlation values must be an \(3, 3\) array, one row per ticker; got shape \(2, 2\)"
    with pytest.raises(ValueError, match=message):
        CorrelationMatrix(tickers=("a", "b", "c"), values=np.eye(2))


def untiled_correlation(w):
    """The whole-matrix expression ``correlation`` computes in tiles."""
    zero = np.ptp(w, axis=0) == 0.0
    d = w - w.mean(axis=0)
    norm = np.sqrt((d * d).sum(axis=0))
    safe = np.where(norm == 0.0, 1.0, norm)
    c = (d.T @ d) / np.outer(safe, safe)
    c = (c + c.T) / 2.0
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    flagged = np.flatnonzero(zero | (norm == 0.0))
    c[flagged, :] = 0.0
    c[:, flagged] = 0.0
    return c


@pytest.mark.parametrize("n", [timeseries._TILE - 1, timeseries._TILE + 1, 2 * timeseries._TILE + 37])
def test_tiled_correlation_is_bit_identical_to_the_whole_matrix(n):
    vals = log_returns(synth_panel(n, 200, 3, seed=n)).values.copy()
    vals[:, n // 2] = 0.003  # constant
    for window in (60, len(vals)):
        c = correlation(returns_from(vals), window)
        assert c.zero_variance == (n // 2,)
        assert c.values.tobytes() == untiled_correlation(vals[-window:]).tobytes()
        # the volatility centred with the correlation is np.std's, the constant column exactly 0
        std = vals[-window:].std(axis=0)
        std[n // 2] = 0.0
        assert c.volatility.tobytes() == volatility(returns_from(vals), window).tobytes() == std.tobytes()
    assert CorrelationMatrix(tickers=("a", "b"), values=np.eye(2)).volatility is None


def test_correlation_insufficient_rows():
    with pytest.raises(InsufficientDataError):
        correlation(returns_from(np.zeros((3, 2))), 10)


@given(
    st.floats(0.1, 10),
    st.floats(-0.05, 0.05),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_correlation_invariant_under_positive_affine(a, b, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((25, 3))
    base = correlation(returns_from(vals), 25).values
    vals2 = vals.copy()
    vals2[:, 0] = a * vals2[:, 0] + b
    shifted = correlation(returns_from(vals2), 25).values
    assert np.allclose(shifted, base, atol=1e-10)


# --- synthetic panels ------------------------------------------------------

def test_synth_panel_deterministic():
    a = synth_panel(5, 50, 2, seed=42)
    b = synth_panel(5, 50, 2, seed=42)
    assert a.dates == b.dates and a.tickers == b.tickers
    assert np.array_equal(a.prices, b.prices)
    c = synth_panel(5, 50, 2, seed=43)
    assert not np.array_equal(a.prices, c.prices)


def test_synth_panel_shape_and_invariants():
    panel = synth_panel(7, 30, 3, seed=1)
    assert panel.prices.shape == (30, 7)
    assert (panel.prices > 0).all()
    assert panel.prices[0, 0] == 100.0


def test_synth_panel_no_factors_near_zero_correlation():
    panel = synth_panel(6, 1000, 0, seed=9)
    c = correlation(log_returns(panel), 999).values
    off = c[~np.eye(6, dtype=bool)]
    assert np.abs(off).max() < 0.2


def test_synth_panel_single_dominant_factor_high_correlation():
    # the market factor alone lifts every pair above 0.2 (minima 0.22, 0.21,
    # 0.35 at these seeds); without it no pair reaches 0.2
    off_diagonal = ~np.eye(6, dtype=bool)
    for seed in (10, 11, 12):
        one, none = (correlation(log_returns(synth_panel(6, 1000, f, seed)), 999).values[off_diagonal] for f in (1, 0))
        assert one.min() > 0.2 and np.abs(none).max() < 0.2, seed


def test_synth_panel_rejects_bad_counts():
    with pytest.raises(ValueError):
        synth_panel(0, 10, 1, seed=0)
    with pytest.raises(ValueError):
        synth_panel(3, 0, 1, seed=0)


#: each integer field, as a call that passes ``value`` to it alone
INTEGER_FIELDS = {
    "SbParams.n_steps": lambda v: SbParams(n_steps=v),
    "SbParams.restarts": lambda v: SbParams(restarts=v),
    "SbParams.seed": lambda v: SbParams(seed=v),
    "BacktestConfig.lookback_days": lambda v: BacktestConfig(theta=0.25, lookback_days=v),
    "BacktestConfig.lookback_months": lambda v: BacktestConfig(theta=0.25, lookback_months=v),
    "BacktestConfig.restarts": lambda v: BacktestConfig(theta=0.25, restarts=v),
    "BacktestConfig.node_limit": lambda v: BacktestConfig(theta=0.25, node_limit=v),
    "BacktestConfig.seed": lambda v: BacktestConfig(theta=0.25, seed=v),
    "synth_panel.n_stocks": lambda v: synth_panel(v, 10, 1, 0),
    "synth_panel.n_days": lambda v: synth_panel(4, v, 1, 0),
    "synth_panel.n_factors": lambda v: synth_panel(4, 10, v, 0),
    "synth_panel.seed": lambda v: synth_panel(4, 10, 1, v),
    "volatility.window_days": lambda v: volatility(returns_from(np.ones((5, 2))), v),
    "correlation.window_days": lambda v: correlation(returns_from(np.ones((5, 2))), v),
}


@pytest.mark.parametrize("value", [2.5, np.float64(3.0), "3"], ids=["float", "numpy-float", "string"])
@pytest.mark.parametrize("field", list(INTEGER_FIELDS))
def test_every_integer_field_rejects_a_non_integer_naming_the_field(field, value):
    # a float used to pass the "< 1" checks and fail later, or a float seed to run the streams of its floor
    name = field.split(".")[1]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        INTEGER_FIELDS[field](value)


@pytest.mark.parametrize("make, fields", [
    (SbParams, ("n_steps", "restarts", "seed")),
    (lambda **kw: BacktestConfig(theta=0.25, **kw), ("lookback_days", "lookback_months", "restarts", "node_limit", "seed")),
])
def test_numpy_integer_fields_are_stored_as_python_ints(make, fields):
    made = make(**{f: np.int64(3) for f in fields})
    assert all(type(getattr(made, f)) is int and getattr(made, f) == 3 for f in fields)


def test_business_days_skip_weekends():
    days = business_days("2020-01-03", 4)  # Friday start
    assert days == ("2020-01-03", "2020-01-06", "2020-01-07", "2020-01-08")
