import csv
import dataclasses
import logging
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Portfolio,
    er_graph,
    ref_backtest_months,
    ref_monthly_return,
    ref_rebalance,
    ref_weights_ew,
    ref_weights_ivw,
)
from misfolio.backtest import (
    _SWEEP_ROW_ERRORS,
    _Books,
    SOLVERS,
    MAX_THETAS,
    AccountingError,
    Summary,
    SweepRow,
    BacktestConfig,
    DataError,
    ZeroVolatilityError,
    cap_weights,
    default_theta_grid,
    derive_seed,
    difr_analysis,
    left_sum,
    load_caps_csv,
    month_end_indices,
    monthly_stock_returns,
    rebalance,
    run_backtest,
    solve_mis,
    summarize,
    sweep_theta,
    weights_ew,
    weights_ivw,
    write_sweep_csv,
)
from misfolio.market_graph import build_graph
from misfolio.mis_qubo import solve_exact, solve_greedy, verify
from misfolio.sb_solver import SbParams, solve_mis_sb
from misfolio.timeseries import (
    InsufficientDataError,
    PricePanel,
    ReturnMatrix,
    business_days,
    correlation,
    log_returns,
    synth_panel,
)


def panel_from(prices, start="2019-01-01", tickers=None):
    prices = np.asarray(prices, dtype=float)
    tickers = tickers or tuple(f"T{i}" for i in range(prices.shape[1]))
    return PricePanel(
        dates=business_days(start, prices.shape[0]), tickers=tuple(tickers), prices=prices
    )


def equal_vol_panel(n_days=340, v=0.01):
    """Four tickers whose returns are +/-v patterns with period 4, so every
    window whose length is a multiple of 4 sees identical volatility v."""
    t = np.arange(n_days - 1)
    signs = np.column_stack([
        np.where(t % 2 == 0, 1.0, -1.0),
        np.where((t // 2) % 2 == 0, 1.0, -1.0),
        np.where(t % 4 < 2, 1.0, -1.0) * np.where(t % 2 == 0, 1.0, -1.0),
        np.where((t + 1) % 4 < 2, 1.0, -1.0),
    ])
    rets = v * signs
    prices = np.vstack([np.full(4, 100.0), 100.0 * np.exp(np.cumsum(rets, axis=0))])
    return panel_from(prices)


# --- weighting ---------------------------------------------------------------

def rows(*selections):
    """A ``(books, tickers)`` selection mask, one row per string of 0s and 1s."""
    return np.array([[c == "1" for c in row] for row in selections])


def test_weights_ew_examples():
    w = weights_ew(rows("1111", "1000", "1110"))
    assert w[0].tolist() == [0.25, 0.25, 0.25, 0.25]
    assert w[1].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert w[2, 3] == 0.0 and sum(w[2].tolist()) == pytest.approx(1.0, abs=1e-9)


def test_weights_ew_empty_rejected():
    for selected in (rows("0000"), rows("0110", "0000")):
        with pytest.raises(ValueError, match="empty selection"):
            weights_ew(selected)


def test_weights_ivw_examples():
    # one volatility per ticker, shared by every row
    w = weights_ivw(rows("1100", "1011"), np.array([0.1, 0.2, 0.1, 0.05]))
    assert w[0, 0] == pytest.approx(2 / 3, abs=1e-15)
    assert w[0, 1] == pytest.approx(1 / 3, abs=1e-15)
    assert w[0, 2:].tolist() == [0.0, 0.0]
    assert w[1].tolist() == pytest.approx([0.25, 0.0, 0.25, 0.5])


def test_weights_ivw_equal_vols_match_equal_weight():
    # equal over each row's selection, whatever the names outside it hold
    selected = rows("11110", "01101")
    vols = np.array([0.037, 0.037, 0.037, 0.037, 0.5])
    vols_outside = np.array([0.037, 0.037, 0.037, 0.9, 0.037])
    assert weights_ivw(selected[:1], vols).tolist() == weights_ew(selected[:1]).tolist()
    assert weights_ivw(selected[1:], vols_outside).tolist() == weights_ew(selected[1:]).tolist()


def test_weights_ivw_zero_vol_names_ticker():
    vols = np.array([0.1, 0.0])
    with pytest.raises(ZeroVolatilityError):
        weights_ivw(rows("11"), vols)
    # a zero volatility outside the selection weighs nothing
    assert weights_ivw(rows("10"), vols).tolist() == [[1.0, 0.0]]
    # in the backtest the error names the ticker and stops only its ivw book
    configs = [BacktestConfig(theta=0.2, weighting=w) for w in ("ivw", "ew")]
    books = _Books(configs, ("A", "B"))
    books.advance(True, rows("11", "11"), vols, np.array([1.0, 2.0]))
    assert isinstance(books.errors[0], ZeroVolatilityError) and "volatility of B is zero" in str(books.errors[0])
    assert books.errors[1] is None


# --- rebalance accounting -----------------------------------------------------

def trade_one(shares, weights, prices, cost_rate):
    """One book through :func:`rebalance`; return its (shares, turnover, cost, value).

    ``shares``, ``weights`` and ``prices`` run over the same columns, in
    panel order.  The book's value before the trade is its positions at
    ``prices``.
    """
    shares, weights = np.array([shares], dtype=np.float64), np.array([weights], dtype=np.float64)
    prices = np.array(prices, dtype=np.float64)
    value_before = np.array([left_sum((shares * prices)[0].tolist())])
    out = rebalance(shares, shares != 0.0, value_before, weights, prices, cost_rate)
    return out[0][0], float(out[1][0]), float(out[2][0]), float(out[3][0])


def test_rebalance_no_trade_when_weights_match():
    # both positions worth exactly 50
    shares, turnover, cost, value = trade_one([2.0, 1.0], [0.5, 0.5], [25.0, 50.0], 0.001)
    assert turnover == 0.0 and cost == 0.0
    assert shares.tolist() == [2.0, 1.0]
    assert value == 100.0


def test_rebalance_full_liquidation_costs_about_two_legs():
    shares, turnover, cost, value = trade_one([1.0, 0.0], [0.0, 1.0], [100.0, 10.0], 0.001)
    # sell 100 plus buy the re-invested remainder; self-consistent solution
    # of c = 0.001 * (100 + (100 - c)) is c = 0.2 / 1.001
    assert cost == pytest.approx(0.2 / 1.001, rel=1e-12)
    assert turnover == pytest.approx(cost / 0.001, rel=1e-12)
    assert value == pytest.approx(100.0 - cost, rel=1e-12)
    assert shares[0] == 0.0
    assert shares[1] == pytest.approx(value / 10.0, rel=1e-12)


def test_rebalance_identity_value_after_equals_before_minus_cost():
    # T0-T5 held, T3-T7 targeted, T8 priced only
    rng = np.random.default_rng(3)
    held = np.concatenate([rng.uniform(1, 5, 6), np.zeros(3)])
    prices = rng.uniform(10, 200, 9)
    raw = rng.uniform(0.1, 1, 5)
    weights = np.concatenate([np.zeros(3), raw / raw.sum(), np.zeros(1)])
    value_before = left_sum((held * prices).tolist())
    shares, turnover, cost, value = trade_one(held, weights, prices, 0.0015)
    assert cost == 0.0015 * turnover
    assert value == pytest.approx(value_before - cost, rel=1e-12)
    assert float(shares @ prices) == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("cost_rate", [0.0, 0.001, 0.5, 0.9, 0.99, 0.999])
def test_rebalance_accounting_holds_up_to_high_cost_rates(cost_rate):
    # sell A and B, buy C: the post-cost value is 2 (1 - r) / (1 + r)
    shares, turnover, cost, value = trade_one([1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], cost_rate)
    assert value > 0
    assert shares.tolist()[:2] == [0.0, 0.0]
    assert shares[2] == pytest.approx(value, rel=1e-12)  # at a price of 1
    assert value == pytest.approx(2 * (1 - cost_rate) / (1 + cost_rate), rel=1e-12)
    assert cost == cost_rate * turnover


#: panel order, deliberately not ticker order
STEP_TICKERS = ("b", "A", "T10", "T2", "a", "Z9", "T1", "c")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_array_step_matches_the_dict_reference_bit_for_bit(data):
    # several books advance together over a few months: names enter and
    # leave, empty selections hold the book, equal volatilities fall back to
    # equal weights and a zero volatility stops only its own ivw book
    n = data.draw(st.integers(1, len(STEP_TICKERS)), label="n")
    tickers = STEP_TICKERS[:n]
    cost_rate = data.draw(st.sampled_from([0.0, 0.001, 0.5, 0.999]) | st.floats(0.0, 0.999), label="cost_rate")
    ivw = data.draw(st.lists(st.booleans(), min_size=1, max_size=4), label="ivw")
    configs = [BacktestConfig(theta=0.2, weighting="ivw" if v else "ew", cost_rate=cost_rate, initial_value=100.0)
               for v in ivw]
    books = _Books(configs, tickers)
    refs = [Portfolio({}, {}, 100.0) for _ in configs]
    errors = [None] * len(configs)
    holds = [0] * len(configs)
    level = st.sampled_from([1.0, 2.0, 4.0]) | st.floats(0.01, 1000.0)
    vol = st.sampled_from([0.0, 0.1, 0.2]) | st.floats(0.001, 1.0)
    for month in range(data.draw(st.integers(1, 4), label="months")):
        prices = np.array(data.draw(st.lists(level, min_size=n, max_size=n), label="prices"))
        vols = np.array(data.draw(st.lists(vol, min_size=n, max_size=n), label="vols"))
        selected = np.array([
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="selected") for _ in configs
        ]).reshape(len(configs), n)
        ret, turnover, cost, traded = books.advance(month == 0, selected, vols, prices)
        price, vol_of = dict(zip(tickers, prices.tolist())), dict(zip(tickers, vols.tolist()))
        for b, ref in enumerate(refs):
            if errors[b] is not None:
                assert books.errors[b] is not None
                continue
            names = [tickers[i] for i in np.flatnonzero(selected[b])]
            prev_value = ref.value
            if names:
                try:
                    weights = ref_weights_ivw(names, vol_of) if ivw[b] else ref_weights_ew(names)
                except ZeroVolatilityError as exc:
                    errors[b] = exc
                    with pytest.raises(ZeroVolatilityError):
                        weights_ivw(selected[b : b + 1], vols)
                    assert str(books.errors[b]) == str(exc)
                    continue
                row = weights_ivw(selected[b : b + 1], vols) if ivw[b] else weights_ew(selected[b : b + 1])
                assert repr(row[0].tolist()) == repr([weights.get(t, 0.0) for t in tickers])
                refs[b], want_turnover, want_cost = ref_rebalance(ref, weights, price, cost_rate)
            else:
                holds[b] += 1
                want_turnover = want_cost = 0.0
                if ref.shares:
                    ref.value = left_sum(s * price[t] for t, s in ref.shares.items())
            ref = refs[b]
            cols = np.flatnonzero(books.held[b])
            got = (
                {tickers[i]: float(books.shares[b, i]) for i in cols},
                {tickers[i]: float(books.weights[b, i]) for i in cols},
                float(books.value[b]), float(turnover[b]), float(cost[b]), bool(traded[b]),
            )
            assert repr(got) == repr((ref.shares, ref.holdings, ref.value, want_turnover, want_cost, bool(names)))
            assert books.errors[b] is None
            assert (ret is None) == (month == 0)
            if ret is not None:
                assert repr(float(ret[b])) == repr(ref_monthly_return(prev_value, ref.value))
    assert books.hold_months.tolist() == holds


@pytest.mark.parametrize("cost_rate", [-0.001, 1.0, 2.0])
def test_rebalance_rejects_cost_rate_outside_unit_interval(cost_rate):
    with pytest.raises(ValueError, match="cost_rate"):
        trade_one([1.0, 0.0], [0.0, 1.0], [100.0, 10.0], cost_rate)


@pytest.mark.parametrize("cost_rate", [-0.001, 1.0, 2.0])
def test_config_rejects_cost_rate_outside_unit_interval(cost_rate):
    with pytest.raises(ValueError, match="cost_rate"):
        BacktestConfig(theta=0.25, cost_rate=cost_rate)


@pytest.mark.parametrize("initial_value", [math.nan, math.inf, 0.0, -1.0])
def test_config_rejects_bad_initial_value(initial_value):
    with pytest.raises(ValueError, match="initial_value"):
        BacktestConfig(theta=0.25, initial_value=initial_value)


def test_config_rejects_zero_restarts():
    with pytest.raises(ValueError, match="restarts"):
        BacktestConfig(theta=0.25, restarts=0)


def test_config_rejects_zero_node_limit():
    with pytest.raises(ValueError, match="node_limit"):
        BacktestConfig(theta=0.25, node_limit=0)


def test_config_rejects_zero_lookback_days():
    with pytest.raises(ValueError, match="lookback_days"):
        BacktestConfig(theta=0.25, lookback_days=0)


def test_config_takes_a_numpy_seed_as_its_int_value():
    # derive_seed overflowed on an int64 seed and wrapped a uint64 one
    config = BacktestConfig(theta=0.25, seed=np.int64(5))
    assert type(config.seed) is int and config == BacktestConfig(theta=0.25, seed=np.uint64(5))
    assert derive_seed(config.seed, 0) == derive_seed(5, 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        BacktestConfig(theta=0.25, seed=seed)


@pytest.mark.parametrize("field", ["solver", "weighting"])
def test_config_rejects_unknown_solver_and_weighting(field):
    with pytest.raises(ValueError, match=f"unknown {field} 'annealer'"):
        BacktestConfig(theta=0.25, **{field: "annealer"})


@pytest.mark.parametrize("solver", SOLVERS)
def test_solve_mis_is_the_direct_solver_call(solver):
    graph = er_graph(30, 0.3, seed=4)
    params = SbParams(restarts=3, seed=9)
    direct = {
        "sb": lambda: solve_mis_sb(graph, params),
        "greedy": lambda: solve_greedy(graph),
        "exact": lambda: solve_exact(graph, node_limit=30, time_budget=60.0),
    }[solver]()
    got = solve_mis(graph, solver, params, node_limit=30, time_budget=60.0)
    assert got == direct
    assert got.feasible is True and verify(graph, got.selected) == (True, [])


def test_solve_mis_rejects_an_unknown_solver():
    with pytest.raises(ValueError, match="unknown solver 'annealer'"):
        solve_mis(er_graph(5, 0.5, seed=0), "annealer", SbParams(), node_limit=5)


def test_books_zero_base_value_stops_only_that_book():
    # four cost-free books of 100 hold A, A, B and C; the second one's base value is zeroed
    configs = [BacktestConfig(theta=0.2, cost_rate=0.0, initial_value=100.0) for _ in range(4)]
    books = _Books(configs, ("A", "B", "C"))
    selected = rows("100", "100", "010", "001")
    books.advance(True, selected, None, np.array([10.0, 20.0, 50.0]))
    books.value[1] = 0.0
    ret, *_ = books.advance(False, selected, None, np.array([10.5, 18.0, 50.0]))
    assert isinstance(books.errors[1], AccountingError) and str(books.errors[1]) == "non-positive base value 0.0"
    assert [books.errors[b] for b in (0, 2, 3)] == [None, None, None]
    assert math.isnan(ret[1])
    assert ret[0] == pytest.approx(0.05) and ret[2] == pytest.approx(-0.10) and ret[3] == 0.0
    books.advance(False, selected, None, np.array([10.5, 18.0, 50.0]))
    assert [e is None for e in books.errors] == [True, False, True, True]


def test_month_end_indices():
    dates = ("2020-01-30", "2020-01-31", "2020-02-03", "2020-02-27", "2020-03-02")
    assert month_end_indices(dates) == [1, 3, 4]


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 0) != derive_seed(1, 1) != derive_seed(2, 1)
    assert derive_seed(123, 7) == derive_seed(123, 7)


# --- summary -------------------------------------------------------------------

def test_summarize_constant_returns_infinite_sharpe():
    s = summarize([0.01] * 24)
    assert s.annual_return == pytest.approx(0.12)
    assert s.annual_risk == 0.0
    assert math.isinf(s.sharpe) and s.sharpe > 0


def test_summarize_alternating_returns_zero_sharpe():
    s = summarize([0.01, -0.01] * 12)
    assert s.annual_return == pytest.approx(0.0, abs=1e-15)
    assert s.annual_risk > 0
    assert s.sharpe == pytest.approx(0.0, abs=1e-12)


def test_summarize_sharpe_scale_invariant():
    rng = np.random.default_rng(5)
    r = rng.normal(0.01, 0.03, 36)
    assert summarize(2.0 * r).sharpe == pytest.approx(summarize(r).sharpe, rel=1e-12)


def test_summarize_zero_everything_is_undefined():
    assert math.isnan(summarize([0.0] * 12).sharpe)


def test_summarize_needs_a_year():
    with pytest.raises(InsufficientDataError):
        summarize([0.01] * 11)


# --- full backtest ---------------------------------------------------------------

def test_single_stock_zero_cost_reproduces_buy_and_hold_exactly():
    panel = synth_panel(1, 320, 1, seed=21)
    ends = [i for i in month_end_indices(panel.dates) if i >= 63]
    first_price = float(panel.prices[ends[0], 0])
    config = BacktestConfig(
        theta=0.5, cost_rate=0.0, lookback_days=63, solver="exact",
        initial_value=first_price,
    )
    report = run_backtest(panel, config)
    got = [m.ret for m in report.months if m.ret is not None]
    want = [
        float(panel.prices[b, 0] / panel.prices[a, 0] - 1.0)
        for a, b in zip(ends, ends[1:])
    ]
    assert got == want  # bitwise: shares stay at exactly 1.0 throughout


def test_theta_minus_one_selects_single_constituent_every_month():
    panel = synth_panel(6, 300, 2, seed=2)
    config = BacktestConfig(theta=-1.0, lookback_days=63, solver="exact")
    report = run_backtest(panel, config)
    assert report.months
    assert all(m.n_constituents == 1 for m in report.months)


def test_backtest_monthly_invariants_and_independence():
    panel = synth_panel(12, 420, 3, seed=9)
    config = BacktestConfig(theta=0.3, lookback_days=126, solver="greedy", cost_rate=0.001)
    report = run_backtest(panel, config)
    assert len(report.months) >= 3
    returns = log_returns(panel)
    index_of = {t: i for i, t in enumerate(panel.tickers)}
    for rec in report.months:
        assert sum(rec.weights.values()) == pytest.approx(1.0, abs=1e-9)
        di = panel.dates.index(rec.date)
        window = ReturnMatrix(
            dates=returns.dates[:di], tickers=returns.tickers, values=returns.values[:di]
        )
        graph = build_graph(correlation(window, 126), 0.3)
        ok, violated = verify(graph, [index_of[t] for t in rec.weights])
        assert ok, f"{rec.date}: violated {violated}"
        assert rec.cost == config.cost_rate * rec.turnover


def test_backtest_zero_cost_cumulative_dominates_costed():
    panel = synth_panel(8, 420, 2, seed=4)
    base = dict(theta=0.25, lookback_days=126, solver="greedy")
    free = run_backtest(panel, BacktestConfig(cost_rate=0.0, **base))
    paid = run_backtest(panel, BacktestConfig(cost_rate=0.001, **base))
    assert free.cumulative[-1] > paid.cumulative[-1]
    assert all(f >= p - 1e-12 for f, p in zip(free.cumulative, paid.cumulative))


def test_backtest_sb_size_never_exceeds_exact():
    panel = synth_panel(20, 350, 3, seed=6)
    base = dict(theta=0.25, lookback_days=84, seed=3)
    sb = run_backtest(panel, BacktestConfig(solver="sb", **base))
    exact = run_backtest(panel, BacktestConfig(solver="exact", **base))
    assert len(sb.months) == len(exact.months)
    for ms, me in zip(sb.months, exact.months):
        assert ms.n_constituents <= me.n_constituents


def test_backtest_equal_volatility_makes_ew_and_ivw_identical():
    # window volatilities of this panel coincide to ~1e-17 (not bitwise:
    # log/exp round trips leave summation-order residue), so the reports
    # agree to float precision; the exact-coincidence case is covered at
    # the weights_ivw unit level
    panel = equal_vol_panel()
    base = dict(theta=0.5, lookback_days=60, solver="exact", cost_rate=0.001)
    ew = run_backtest(panel, BacktestConfig(weighting="ew", **base))
    ivw = run_backtest(panel, BacktestConfig(weighting="ivw", **base))
    for me, mi in zip(ew.months, ivw.months):
        assert me.weights.keys() == mi.weights.keys()
        for t in me.weights:
            assert me.weights[t] == pytest.approx(mi.weights[t], rel=1e-10)
        if me.ret is not None:
            assert me.ret == pytest.approx(mi.ret, rel=1e-9, abs=1e-12)


def test_backtest_requires_enough_history():
    panel = synth_panel(3, 100, 1, seed=1)
    with pytest.raises(InsufficientDataError):
        run_backtest(panel, BacktestConfig(theta=0.2, lookback_days=90))


def test_backtest_holds_previous_book_when_no_feasible_selection(monkeypatch):
    import misfolio.backtest as bt
    from misfolio.mis_qubo import NO_FEASIBLE

    panel = synth_panel(6, 350, 2, seed=23)
    real = bt.solve_mis
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:  # one solve a month: the third is month 2
            return NO_FEASIBLE
        return real(*args, **kwargs)

    monkeypatch.setattr(bt, "solve_mis", flaky)
    report = run_backtest(panel, BacktestConfig(theta=0.25, lookback_days=126, solver="greedy"))
    held = report.months[2]
    prev = report.months[1]
    assert held.feasible is False
    assert held.turnover == 0.0 and held.cost == 0.0
    assert held.weights == prev.weights
    assert held.ret is not None  # drifted book still marks a return
    assert all(m.feasible for i, m in enumerate(report.months) if i != 2)


@pytest.mark.parametrize("lookback_days", [252, 126])
def test_backtest_sb_holds_no_month_while_an_independent_set_exists(lookback_days):
    # one bSB restart often decodes to a non-independent set at theta 0.1;
    # repair turns it into one, as greedy and exact find every month
    panel = synth_panel(40, 1010, 3, seed=0)
    config = BacktestConfig(theta=0.1, weighting="ew", lookback_days=lookback_days, solver="sb", restarts=1)
    report = run_backtest(panel, config)
    assert [m.date for m in report.months if not m.feasible] == []


def test_backtest_zero_volatility_under_ivw_raises():
    # one constant-price stock: zero volatility, isolated in the graph,
    # so every maximum independent set contains it
    rng = np.random.default_rng(24)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((300, 4)), axis=0))
    prices = np.column_stack([prices, np.full(300, 42.0)])
    panel = panel_from(prices)
    with pytest.raises(ZeroVolatilityError, match="T4"):
        run_backtest(panel, BacktestConfig(theta=0.2, lookback_days=126, solver="exact", weighting="ivw"))


def test_report_json_markers(tmp_path):
    import json
    from misfolio.backtest import write_report_json

    panel = synth_panel(1, 400, 1, seed=25)
    report = run_backtest(panel, BacktestConfig(theta=0.2, lookback_days=63, solver="exact"))
    path = tmp_path / "report.json"
    write_report_json(report, path)
    raw = json.loads(path.read_text())
    assert raw["months"][0]["return"] is None
    assert isinstance(raw["summary"]["annual_return"], float)
    # infinity marker serializes as a string, undefined as null
    inf_summary = Summary(annual_return=0.12, annual_risk=0.0, sharpe=math.inf)
    report.summary = inf_summary
    write_report_json(report, path)
    assert json.loads(path.read_text())["summary"]["sharpe"] == "inf"
    report.summary = Summary(annual_return=0.0, annual_risk=0.0, sharpe=math.nan)
    write_report_json(report, path)
    assert json.loads(path.read_text())["summary"]["sharpe"] is None


def test_backtest_calendar_month_windows():
    panel = synth_panel(5, 320, 2, seed=22)
    config = BacktestConfig(theta=0.2, lookback_months=6, solver="greedy")
    report = run_backtest(panel, config)
    all_ends = month_end_indices(panel.dates)
    # first tradable month is the one with 6 full months of history behind it
    assert report.months[0].date == panel.dates[all_ends[6]]
    assert len(report.months) == len(all_ends) - 6
    # window length varies with the calendar, so results differ from any
    # fixed-day setting in general
    fixed = run_backtest(panel, BacktestConfig(theta=0.2, lookback_days=126, solver="greedy"))
    assert [m.date for m in report.months] != [m.date for m in fixed.months] or report.months[
        0
    ].edge_density != fixed.months[0].edge_density


# --- sweep -----------------------------------------------------------------------

def test_sweep_single_setting_matches_plain_backtest():
    panel = synth_panel(8, 400, 2, seed=12)
    config = BacktestConfig(theta=0.25, lookback_days=126, solver="greedy")
    rows = sweep_theta(panel, config, [0.25], ["ew"])
    assert len(rows) == 1
    row = rows[0]
    report = run_backtest(panel, BacktestConfig(
        theta=0.25, weighting="ew", lookback_days=126, solver="greedy",
        seed=derive_seed(config.seed, 0),
    ))
    assert row.error is None
    assert row.annual_return == report.summary.annual_return
    assert row.sharpe == report.summary.sharpe
    sizes = [m.n_constituents for m in report.months]
    assert row.size_max == max(sizes) and row.size_min == min(sizes)
    assert row.size_avg == pytest.approx(np.mean(sizes))
    assert row.size_sd == pytest.approx(np.std(sizes))


def test_sweep_density_and_size_monotone_in_theta():
    panel = synth_panel(10, 400, 3, seed=13)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="exact")
    thetas = [0.15, 0.25, 0.35, 0.45]
    rows = sweep_theta(panel, config, thetas, ["ew"])
    densities = [r.density_avg for r in rows]
    sizes = [r.size_avg for r in rows]
    assert densities == sorted(densities, reverse=True)
    assert sizes == sorted(sizes)


def test_sweep_propagates_errors_per_setting_and_continues():
    panel = synth_panel(10, 400, 2, seed=14)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="exact", node_limit=4)
    rows = sweep_theta(panel, config, [0.2, 0.3], ["ew"])
    assert len(rows) == 2
    assert all(r.error is not None and "node_limit" in r.error for r in rows)


def test_sweep_error_row_leaves_every_statistic_empty_in_csv(tmp_path):
    panel = synth_panel(10, 400, 2, seed=14)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="exact", node_limit=4)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(sweep_theta(panel, config, [0.2, 0.3], ["ew"]), out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert row["error"]
        assert all(row[f.name] == "" for f in dataclasses.fields(SweepRow) if f.name not in ("theta", "weighting", "error"))


def test_sweep_weightings_of_a_theta_share_graph_and_selection_statistics():
    panel = synth_panel(12, 400, 3, seed=31)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="sb", restarts=3)
    rows = sweep_theta(panel, config, [0.2, 0.3], ["ew", "ivw"])
    shared = ("density_max", "density_min", "density_avg", "size_max", "size_min", "size_avg", "size_sd")
    for ew, ivw in zip(rows[::2], rows[1::2]):
        assert (ew.weighting, ivw.weighting, ew.theta) == ("ew", "ivw", ivw.theta)
        assert ew.error is None and ivw.error is None
        assert [getattr(ew, c) for c in shared] == [getattr(ivw, c) for c in shared]


@pytest.mark.parametrize("lo, hi, step", [
    (0.18, 0.36, 0.01), (0.18, 0.36, 0.05), (0.18, 0.36, 0.07), (0.2, 0.3, 0.04), (0.1, 0.4, 0.1), (0.5, 1.0, 0.3),
])
def test_theta_grid_never_passes_its_upper_end(lo, hi, step):
    grid = default_theta_grid(lo, hi, step)
    assert grid == [round(lo + k * step, 10) for k in range(len(grid))]
    assert grid[-1] <= hi < round(lo + len(grid) * step, 10)


def test_theta_grid_defaults_are_unchanged():
    assert default_theta_grid() == [round(0.18 + k * 0.01, 10) for k in range(19)]
    assert default_theta_grid(0.2, 0.3, 0.04) == [0.2, 0.24, 0.28]
    assert default_theta_grid(0.1, 0.4, 0.1) == [0.1, 0.2, 0.3, 0.4]


@pytest.mark.parametrize("lo, hi, step", [(-1.0, 1.0, 0.000999), (0.18, 0.36, 1e-6), (0.0, 1.0, 5e-324)])
def test_theta_grid_longer_than_max_thetas_is_rejected(lo, hi, step):
    # a 0.001 step over all of [-1, 1] is the longest grid; 5e-324 makes the count infinite
    assert len(default_theta_grid(-1.0, 1.0, 0.001)) == MAX_THETAS == 2001
    with pytest.raises(ValueError, match=f"more than {MAX_THETAS} thetas"):
        default_theta_grid(lo, hi, step)


@pytest.mark.parametrize("lo, hi, step", [
    (0.18, 0.36, 0.0), (0.18, 0.36, -0.01), (0.18, 0.36, float("nan")), (0.36, 0.18, 0.01),
])
def test_theta_grid_that_would_be_empty_is_rejected(lo, hi, step):
    # an empty grid would fail later, in sweep_theta, with an unrelated message
    with pytest.raises(ValueError, match=rf"positive step and lo <= hi; got lo={lo!r}, hi={hi!r}, step={step!r}"):
        default_theta_grid(lo, hi, step)


def with_flat_ticker(panel, price=50.0):
    """``panel`` plus one constant-price ticker: zero volatility, isolated in every graph."""
    prices = np.column_stack([panel.prices, np.full(panel.n_dates, price)])
    return PricePanel(dates=panel.dates, tickers=(*panel.tickers, "FLAT"), prices=prices)


def slow_sweep_row(panel, config, theta_index, theta, weighting):
    """The row of one setting from its own book, advanced month by month through the dict references."""
    row = SweepRow(theta=theta, weighting=weighting)
    try:
        months = ref_backtest_months(panel, dataclasses.replace(
            config, theta=theta, weighting=weighting, seed=derive_seed(config.seed, theta_index)
        ))
    except _SWEEP_ROW_ERRORS as exc:
        row.error = f"{type(exc).__name__}: {exc}"
        return row
    dens = np.array([m.edge_density for m in months])
    sizes = np.array([m.n_constituents for m in months], dtype=np.float64)
    row.density_max, row.density_min, row.density_avg = float(dens.max()), float(dens.min()), float(dens.mean())
    row.size_max, row.size_min = int(sizes.max()), int(sizes.min())
    row.size_avg, row.size_sd = float(sizes.mean()), float(sizes.std())
    row.hold_months = sum(not m.feasible for m in months)
    rets = [m.ret for m in months if m.ret is not None]
    if len(rets) >= 12:
        row.annual_return, row.annual_risk, row.sharpe = dataclasses.astuple(summarize(rets))
    return row


@pytest.mark.parametrize("zero_vol", [True, False], ids=["keep_zero_vol", "no_zero_vol"])
@pytest.mark.parametrize("window", [{"lookback_days": 126}, {"lookback_months": 6}], ids=["days", "months"])
@pytest.mark.parametrize(
    "solver", [{"solver": "greedy"}, {"solver": "exact"}, {"solver": "sb", "restarts": 2}], ids=["greedy", "exact", "sb"]
)
def test_sweep_rows_are_bit_identical_to_one_backtest_per_setting(solver, window, zero_vol):
    # a panel that keeps the flat ticker fails every ivw row, one without it
    # gives successful ivw rows; the repeated theta keeps its own derived seed
    panel = synth_panel(8, 400, 2, seed=3)
    if zero_vol:
        panel = with_flat_ticker(panel)
    config = BacktestConfig(theta=0.2, seed=5, **solver, **window)
    thetas = [0.2, 0.3, 0.2]
    rows = sweep_theta(panel, config, thetas, ["ew", "ivw"])
    want = [slow_sweep_row(panel, config, ti, t, w) for ti, t in enumerate(thetas) for w in ("ew", "ivw")]
    # repr is exact for floats and spells NaN the same on both sides
    assert [repr(dataclasses.astuple(r)) for r in rows] == [repr(dataclasses.astuple(r)) for r in want]
    assert [r.error is None for r in rows] == [not zero_vol or r.weighting == "ew" for r in rows]


@pytest.mark.parametrize("weighting", ["ew", "ivw"])
@pytest.mark.parametrize("setup", [
    {"solver": "greedy", "lookback_days": 126},
    {"solver": "exact", "lookback_months": 6, "cost_rate": 0.5},
    {"solver": "sb", "restarts": 2, "lookback_days": 126, "cost_rate": 0.0},
], ids=["greedy", "exact", "sb"])
def test_backtest_records_match_the_reference_loop(weighting, setup):
    # every field of every month record, weights included, as the dict accounting gives it
    panel = synth_panel(8, 400, 2, seed=3)
    config = BacktestConfig(theta=0.2, weighting=weighting, seed=5, **setup)
    got = run_backtest(panel, config).months
    assert repr(got) == repr(ref_backtest_months(panel, config))


def test_sweep_counts_each_rows_held_months(monkeypatch, tmp_path):
    import misfolio.backtest as bt
    from misfolio.mis_qubo import NO_FEASIBLE

    real = bt.solve_mis
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        # one solve per theta a month: calls 3 and 5 are the first theta's months 1 and 2
        return NO_FEASIBLE if len(calls) in (3, 5) else real(*args, **kwargs)

    monkeypatch.setattr(bt, "solve_mis", flaky)
    panel = synth_panel(8, 400, 2, seed=3)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="greedy")
    rows = sweep_theta(panel, config, [0.2, 0.3], ["ew", "ivw"])
    assert [r.hold_months for r in rows] == [2, 2, 0, 0]
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    with open(out, newline="", encoding="utf-8") as fh:
        header, *cells = list(csv.reader(fh))
    assert header[-2:] == ["hold_months", "error"]
    assert [c[-2] for c in cells] == ["2", "2", "0", "0"]


def test_sweep_computes_each_month_once_and_solves_each_theta_once(monkeypatch):
    from misfolio import backtest, timeseries

    panel = synth_panel(8, 400, 2, seed=3)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="greedy")
    n_months = len(run_backtest(panel, config).months)
    calls = {"correlation": 0, "volatility": 0, "solve_mis": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(timeseries, "correlation")
    counting(timeseries, "volatility")
    counting(backtest, "solve_mis")
    rows = sweep_theta(panel, config, [0.2, 0.25, 0.3], ["ew", "ivw"])
    assert all(r.error is None for r in rows)
    assert calls["correlation"] == n_months
    # each month's volatility comes with its correlation
    assert calls["volatility"] == 0
    assert calls["solve_mis"] == 3 * n_months


def test_sweep_steps_every_book_through_the_three_stage_functions(monkeypatch):
    # the stages are looked up as module attributes, where a tracer wraps them:
    # one rebalance per month in which a book trades, none in a month all books hold
    import misfolio.backtest as bt
    from misfolio.mis_qubo import NO_FEASIBLE

    panel = synth_panel(8, 400, 2, seed=3)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="greedy")
    real_solve = bt.solve_mis
    solves = []

    def holding_month_one(*args, **kwargs):
        solves.append(None)
        # one solve per theta a month: calls 3 and 4 are month 1
        return NO_FEASIBLE if len(solves) in (3, 4) else real_solve(*args, **kwargs)

    monkeypatch.setattr(bt, "solve_mis", holding_month_one)
    want = sweep_theta(panel, config, [0.2, 0.3], ["ew", "ivw"])
    n_months = len(solves) // 2
    solves.clear()
    calls = {"weights_ew": 0, "weights_ivw": 0, "rebalance": 0}

    def counting(name):
        real = getattr(bt, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(bt, name, wrapper)

    for name in calls:
        counting(name)
    rows = sweep_theta(panel, config, [0.2, 0.3], ["ew", "ivw"])
    assert [r.hold_months for r in rows] == [1, 1, 1, 1]
    # every trading book starts from weights_ew, and weights_ivw starts from it too
    assert calls == {"weights_ew": 2 * (n_months - 1), "weights_ivw": n_months - 1, "rebalance": n_months - 1}
    assert [repr(dataclasses.astuple(r)) for r in rows] == [repr(dataclasses.astuple(r)) for r in want]


def test_sweep_holds_no_more_month_records_than_books(monkeypatch):
    # a sweep row needs each month's density, size and return only, so the
    # pass must not pile up its books' records (weights dicts included)
    from misfolio import backtest

    refs, seen = [], []
    make_record, advance = backtest.MonthRecord, backtest._Books.advance

    def tracked_record(**fields):
        record = make_record(**fields)
        refs.append(weakref.ref(record))
        return record

    def counting_advance(books, *args):
        # one count per live book, as each book once advanced on its own
        live = sum(e is None for e in books.errors)
        seen.extend([sum(ref() is not None for ref in refs)] * live)
        return advance(books, *args)

    monkeypatch.setattr(backtest, "MonthRecord", tracked_record)
    monkeypatch.setattr(backtest._Books, "advance", counting_advance)
    panel = synth_panel(8, 400, 2, seed=3)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="greedy")
    rows = sweep_theta(panel, config, [0.2, 0.25, 0.3], ["ew", "ivw"])
    assert all(r.error is None for r in rows)
    assert len(seen) >= 3 * len(rows)  # at least three months of every book
    assert max(seen) <= len(rows)


def test_sweep_zero_volatility_fails_only_the_ivw_rows():
    # greedy always picks the isolated flat ticker, so inverse-vol weights are undefined
    panel = with_flat_ticker(synth_panel(8, 400, 2, seed=3))
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="greedy")
    rows = sweep_theta(panel, config, [0.2, 0.3], ["ew", "ivw"])
    ew_only = sweep_theta(panel, config, [0.2, 0.3], ["ew"])
    assert [r.weighting for r in rows] == ["ew", "ivw", "ew", "ivw"]
    assert all(r.error.startswith("ZeroVolatilityError: volatility of FLAT") for r in rows[1::2])
    assert [repr(dataclasses.astuple(r)) for r in rows[::2]] == [repr(dataclasses.astuple(r)) for r in ew_only]


def test_sweep_logs_a_zero_variance_column_once_per_month(caplog):
    panel = with_flat_ticker(synth_panel(8, 400, 2, seed=3))
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="greedy")
    with caplog.at_level(logging.WARNING, logger="misfolio.timeseries"):
        rows = sweep_theta(panel, config, [0.2, 0.25, 0.3], ["ew", "ivw"])
    flagged = [r for r in caplog.records if "zero-variance columns" in r.getMessage()]
    assert len(flagged) == len(run_backtest(panel, dataclasses.replace(config, weighting="ew")).months) == 14
    assert all(r.error is None for r in rows[::2])


def test_sweep_raises_programming_errors(monkeypatch):
    from misfolio import backtest

    def broken(*args, **kwargs):
        raise TypeError("bad call")

    monkeypatch.setattr(backtest._Books, "advance", broken)
    panel = synth_panel(6, 380, 2, seed=15)
    config = BacktestConfig(theta=0.2, lookback_days=126, solver="greedy")
    with pytest.raises(TypeError, match="bad call"):
        sweep_theta(panel, config, [0.2, 0.3], ["ew"])


# --- differential factor analysis ---------------------------------------------

def month_dates(panel):
    return [panel.dates[i] for i in month_end_indices(panel.dates)]


def test_difr_identical_weight_series_is_zero():
    panel = synth_panel(5, 220, 2, seed=16)
    months = month_dates(panel)
    weights = {d: {t: 0.2 for t in panel.tickers} for d in months}
    caps = {d: {t: 10.0 for t in panel.tickers} for d in months}
    rows = difr_analysis(panel, weights, caps, (months[1], months[-1]))
    assert all(r.difr == 0.0 for r in rows)


def test_difr_single_held_stock_accumulates_weighted_return():
    # stock A grows exactly 2% every month-end over 6 periods; held only by
    # the strategy at weight 0.7; benchmark holds only stock B
    n_months = 7
    dates = []
    prices = []
    for m in range(n_months):
        dates.extend([f"2020-{m + 1:02d}-10", f"2020-{m + 1:02d}-20"])
        p = 100.0 * 1.02**m
        prices.extend([[p * 0.99, 50.0], [p, 50.0]])
    panel = PricePanel(dates=tuple(dates), tickers=("A", "B"), prices=np.array(prices))
    months = month_dates(panel)
    weights = {d: {"A": 0.7, "B": 0.3} for d in months}
    caps = {d: {"B": 5.0} for d in months}
    rows = difr_analysis(panel, weights, caps, (months[1], months[-1]))
    by_ticker = {r.ticker: r for r in rows}
    assert by_ticker["A"].difr == pytest.approx(6 * 0.02 * 0.7, rel=1e-9)
    assert by_ticker["A"].rank == 1
    # B: strategy holds 0.3, benchmark 1.0, return 0 -> difr 0
    assert by_ticker["B"].difr == 0.0
    assert by_ticker["A"].avg_weight_mis == pytest.approx(0.7)
    assert by_ticker["B"].avg_weight_bench == pytest.approx(1.0)


def test_difr_matches_double_loop_oracle():
    panel = synth_panel(8, 260, 3, seed=17)
    months = month_dates(panel)
    rng = np.random.default_rng(18)
    weights, caps = {}, {}
    for d in months:
        raw = rng.uniform(0.1, 1.0, 8)
        weights[d] = {t: float(w) for t, w in zip(panel.tickers, raw / raw.sum())}
        caps[d] = {t: float(c) for t, c in zip(panel.tickers, rng.uniform(1, 100, 8))}
    period = (months[1], months[-1])
    rows = difr_analysis(panel, weights, caps, period)

    labels, rets = monthly_stock_returns(panel)
    want = {t: 0.0 for t in panel.tickers}
    for k, d in enumerate(labels):
        if not (period[0] <= d <= period[1]):
            continue
        bench = cap_weights(caps[d])
        for i, t in enumerate(panel.tickers):
            want[t] += rets[k, i] * (weights[d][t] - bench[t])
    for r in rows:
        assert r.difr == pytest.approx(want[r.ticker], abs=1e-12)
    assert [r.difr for r in rows] == sorted((r.difr for r in rows), reverse=True)
    assert [r.rank for r in rows] == list(range(1, 9))


def test_difr_reports_average_degree_when_theta_given():
    panel = synth_panel(5, 260, 2, seed=19)
    months = month_dates(panel)
    weights = {d: {t: 0.2 for t in panel.tickers} for d in months}
    caps = {d: {t: 1.0 for t in panel.tickers} for d in months}
    rows = difr_analysis(
        panel, weights, caps, (months[-3], months[-1]), theta=0.2, lookback_days=60
    )
    # per month, count each stock's trailing correlations at or above theta
    returns = log_returns(panel)
    deg = np.zeros(panel.n_tickers)
    for date in months[-3:]:
        di = panel.dates.index(date)
        window = ReturnMatrix(dates=returns.dates[:di], tickers=returns.tickers, values=returns.values[:di])
        c = correlation(window, 60).values
        for i in range(panel.n_tickers):
            deg[i] += sum(1 for j in range(panel.n_tickers) if j != i and c[i, j] >= 0.2)
    want = {t: deg[i] / 3 for i, t in enumerate(panel.tickers)}
    assert {r.ticker: r.avg_degree for r in rows} == want
    assert any(d > 0 for d in want.values())


def test_difr_month_outside_series_is_range_error():
    panel = synth_panel(4, 220, 2, seed=20)
    months = month_dates(panel)
    weights = {d: {t: 0.25 for t in panel.tickers} for d in months[:3]}
    caps = {d: {t: 1.0 for t in panel.tickers} for d in months}
    with pytest.raises(ValueError, match="strategy weight series"):
        difr_analysis(panel, weights, caps, (months[1], months[-1]))


@pytest.mark.parametrize("series", ["weights", "caps"])
def test_difr_rejects_two_keys_in_one_month(series):
    # keyed by month, the later key used to replace the earlier without a word:
    # S0000's avg_weight_mis read 0.0
    panel = synth_panel(3, 70, 1, 0)
    months = month_dates(panel)
    weights = {d: {"S0000": 1.0} for d in months}
    caps = {d: {t: 1.0 for t in panel.tickers} for d in months}
    two = {"2013-02-01": {"S0000": 1.0}, "2013-02-28": {"S0001": 1.0}}
    (weights if series == "weights" else caps).update(two)
    what = "strategy weight" if series == "weights" else "benchmark"
    with pytest.raises(ValueError, match=f"{what} series keys '2013-02-01' and '2013-02-28' fall in one month"):
        difr_analysis(panel, weights, caps, (months[1], months[-1]))


def test_load_caps_csv(tmp_path):
    path = tmp_path / "caps.csv"
    path.write_text("date,ticker,cap\n2020-01-31,A,100\n2020-01-31,B,300\n2020-02-28,A,120\n")
    caps = load_caps_csv(path)
    assert caps["2020-01"] == {"A": 100.0, "B": 300.0}
    assert cap_weights(caps["2020-01"]) == {"A": 0.25, "B": 0.75}
    bad = tmp_path / "bad.csv"
    bad.write_text("date,ticker,cap\n2020-01-31,A,-5\n")
    with pytest.raises(DataError):
        load_caps_csv(bad)


def test_left_sum_and_cap_weights_add_left_to_right_on_every_python():
    # a compensated sum (Python 3.12's sum(), math.fsum) gives 2.0 and 1.0 here
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert left_sum([0.1] * 10) == 0.9999999999999999 and left_sum([]) == 0.0
    assert cap_weights({f"T{i}": 0.1 for i in range(10)}) == {f"T{i}": 0.1 / 0.9999999999999999 for i in range(10)}


@pytest.mark.parametrize("cap", ["nan", "inf", "-inf", "abc", ""])
def test_load_caps_csv_rejects_a_cap_that_is_not_a_positive_number(tmp_path, cap):
    # a NaN or infinite cap would turn every benchmark weight of its month into NaN
    bad = tmp_path / "bad.csv"
    bad.write_text(f"date,ticker,cap\n2020-01-31,A,100\n2020-01-31,B,{cap}\n")
    with pytest.raises(DataError, match=r"bad\.csv: line 3: cap"):
        load_caps_csv(bad)


def test_load_caps_csv_rejects_a_second_cap_for_one_ticker_in_one_month(tmp_path):
    # keyed by month, the later row used to replace the earlier without a word
    bad = tmp_path / "caps.csv"
    bad.write_text("date,ticker,cap\n2020-01-15,A,100\n2020-01-31,A,200\n")
    with pytest.raises(DataError, match=r"caps\.csv: line 3: a second cap for 'A' in 2020-01"):
        load_caps_csv(bad)


@pytest.mark.parametrize("ticker", ["", "  "])
def test_load_caps_csv_rejects_an_empty_ticker(tmp_path, ticker):
    # a blank name used to load as one more stock and take its share of the benchmark weight
    bad = tmp_path / "caps.csv"
    bad.write_text(f"date,ticker,cap\n2013-01-31,S0000,5\n2013-01-31,{ticker},5\n")
    with pytest.raises(DataError, match=r"caps\.csv: line 3: empty ticker"):
        load_caps_csv(bad)
