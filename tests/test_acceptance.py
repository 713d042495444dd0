"""Acceptance gate: one test per criterion, each prints a pass/fail line.

Run them alone with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from helpers import all_bit_configs, er_graph, feasible_mask, sb_stepper
from misfolio.backtest import (
    BacktestConfig,
    cap_weights,
    default_theta_grid,
    month_end_indices,
    monthly_stock_returns,
    difr_analysis,
    run_backtest,
    sweep_theta,
)
from misfolio.market_graph import build_graph
from misfolio.mis_qubo import (
    qubo_cost_many,
    qubo_to_ising,
    solve_exact,
    solve_greedy,
    to_qubo,
    verify,
)
from misfolio.sb_solver import SbParams, sb_solve, solve_mis_sb
from misfolio.timeseries import ReturnMatrix, correlation, log_returns, synth_panel


def report(criterion, passed, detail=""):
    line = f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def random_graphs(count, n_max, seed):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        graphs.append(er_graph(n, float(rng.uniform(0.15, 0.6)), int(rng.integers(0, 2**31))))
    return graphs


def ising_energies_all(problem, spins_rows):
    return (
        -0.5 * np.einsum("bi,ij,bj->b", spins_rows, problem.j, spins_rows)
        - spins_rows @ problem.h
    )


def test_criterion_1_qubo_ising_equivalence_exhaustive():
    t0 = time.perf_counter()
    worst = 0.0
    for graph in random_graphs(50, 14, seed=101):
        q = to_qubo(graph)
        p = qubo_to_ising(q)
        bits = all_bit_configs(graph.n_nodes)
        diff = np.abs(qubo_cost_many(q, bits) - (ising_energies_all(p, 2 * bits - 1) + p.offset))
        worst = max(worst, float(diff.max()))
    elapsed = time.perf_counter() - t0
    report(
        "1 qubo-ising equivalence",
        worst <= 1e-10 and elapsed < 30,
        f"worst |qubo - (ising + offset)| = {worst:.2e} over 50 graphs x 2^n configs, {elapsed:.1f}s",
    )


def test_criterion_2_qubo_minimizers_are_maximum_independent_sets():
    t0 = time.perf_counter()
    ok = True
    for graph in random_graphs(50, 14, seed=202):
        q = to_qubo(graph)  # penalty 2, reward 1
        bits = all_bit_configs(graph.n_nodes)
        costs = qubo_cost_many(q, bits)
        minimizers = set(np.flatnonzero(costs == costs.min()).tolist())
        alpha = solve_exact(graph).size
        sizes = bits.sum(axis=1)
        maximum_sets = set(
            np.flatnonzero(feasible_mask(graph, bits) & (sizes == alpha)).tolist()
        )
        ok &= minimizers == maximum_sets
    elapsed = time.perf_counter() - t0
    report(
        "2 qubo minimizer set = maximum independent sets",
        ok and elapsed < 60,
        f"exact set equality on 50 graphs, {elapsed:.1f}s",
    )


def test_criterion_3_sb_finds_exact_independence_number():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    hits = 0
    for g in range(100):
        graph = er_graph(20, 0.3, seed=int(rng.integers(0, 2**31)))
        best = solve_mis_sb(graph, SbParams(restarts=10, seed=g))
        hits += verify(graph, best.selected)[0] and best.size == solve_exact(graph).size
    elapsed = time.perf_counter() - t0
    report(
        "3 sb solution quality",
        hits >= 90 and elapsed < 300,
        f"exact independence number on {hits}/100 ER(20, 0.3) graphs, {elapsed:.0f}s",
    )


def test_criterion_4_sb_not_inferior_to_greedy_on_market_graphs():
    t0 = time.perf_counter()
    sb_sizes, greedy_sizes = [], []
    for g in range(20):
        panel = synth_panel(200, 505, 3, seed=7000 + g)
        returns = log_returns(panel)
        graph = build_graph(correlation(returns, returns.n_rows), 0.25)
        sol = solve_mis_sb(graph, SbParams(restarts=10, seed=g))
        assert verify(graph, sol.selected)[0]
        sb_sizes.append(sol.size)
        greedy_sizes.append(solve_greedy(graph).size)
    sb_mean, greedy_mean = np.mean(sb_sizes), np.mean(greedy_sizes)
    gap = 100.0 * (sb_mean / greedy_mean - 1.0)
    elapsed = time.perf_counter() - t0
    report(
        "4 sb vs greedy direction",
        sb_mean >= greedy_mean,
        f"mean size sb {sb_mean:.2f} vs greedy {greedy_mean:.2f} on 20 graphs "
        f"(n=200, theta=0.25); gap {gap:+.1f}%, {elapsed:.0f}s",
    )


def test_criterion_5_wall_invariant_and_thread_determinism():
    rng = np.random.default_rng(55)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 30))
        j = rng.uniform(-1, 1, (n, n))
        j = (j + j.T) / 2
        np.fill_diagonal(j, 0.0)
        problem_j, problem_h = j, rng.uniform(-2, 2, n)
        from misfolio.mis_qubo import IsingProblem

        problem = IsingProblem(j=problem_j, h=problem_h, offset=0.0)
        x, p = rng.uniform(-1, 1, (1, n)), rng.uniform(-3, 3, (1, n))
        step = sb_stepper(problem, SbParams(n_steps=100), x, p)
        for k in range(100):
            step(k)
            if np.any(np.abs(x) > 1.0):
                violations += 1
    # 100 states x 100 steps = 10,000 random steps
    graph = er_graph(40, 0.3, seed=99)
    problem = qubo_to_ising(to_qubo(graph))
    params = SbParams(restarts=10, seed=31)
    runs_a = sb_solve(problem, params)
    runs_b = sb_solve(problem, params)
    identical = all(
        np.array_equal(a.spins, b.spins) and a.energy == b.energy
        for a, b in zip(runs_a, runs_b)
    )
    report(
        "5 wall invariant + determinism",
        violations == 0 and identical,
        f"0 wall violations in 10,000 steps; two same-seed solves bit-identical: {identical}",
    )


def test_criterion_6_backtest_accounting():
    lookback = 252
    panel = synth_panel(20, 1040, 3, seed=606)
    config = BacktestConfig(theta=0.25, weighting="ew", cost_rate=0.001,
                            lookback_days=lookback, solver="sb", seed=9)
    reportee = run_backtest(panel, config)
    months = reportee.months
    assert len([m for m in months if m.ret is not None]) >= 36

    returns = log_returns(panel)
    index_of = {t: i for i, t in enumerate(panel.tickers)}
    date_to_index = {d: i for i, d in enumerate(panel.dates)}

    weights_ok = all(
        abs(sum(m.weights.values()) - 1.0) <= 1e-9 for m in months if m.weights
    )

    independence_ok = True
    for m in months:
        di = date_to_index[m.date]
        window = ReturnMatrix(returns.dates[:di], returns.tickers, returns.values[:di])
        graph = build_graph(correlation(window, lookback), config.theta)
        ok, _ = verify(graph, [index_of[t] for t in m.weights])
        independence_ok &= ok

    # independent double-entry replay of the accounting
    accounting_ok = True
    shares: dict[str, float] = {}
    prev_post = None
    for m in months:
        di = date_to_index[m.date]
        prices = {t: float(panel.prices[di, k]) for k, t in enumerate(panel.tickers)}
        v_open = sum(s * prices[t] for t, s in shares.items()) if shares else config.initial_value
        v_post = v_open - m.cost
        current = {t: s * prices[t] for t, s in shares.items()}
        turnover = sum(
            abs(m.weights.get(t, 0.0) * v_post - current.get(t, 0.0))
            for t in set(current) | set(m.weights)
        )
        accounting_ok &= abs(m.cost - 0.001 * turnover) <= 1e-9 * max(v_open, 1.0)
        accounting_ok &= abs(v_post - (v_open - 0.001 * turnover)) <= 1e-9 * max(v_open, 1.0)
        if m.ret is not None and prev_post is not None:
            accounting_ok &= abs(m.ret - (v_post / prev_post - 1.0)) <= 1e-9
        new_shares = {}
        for t, w in m.weights.items():
            target = w * v_post
            if target == current.get(t, 0.0) and t in shares:
                new_shares[t] = shares[t]
            else:
                new_shares[t] = target / prices[t]
        shares = new_shares
        prev_post = v_post

    # single-stock, zero-cost run reproduces buy-and-hold bit for bit
    single = synth_panel(1, 1040, 1, seed=607)
    ends = [i for i in month_end_indices(single.dates) if i >= lookback]
    single_config = BacktestConfig(
        theta=0.25, cost_rate=0.0, lookback_days=lookback, solver="exact",
        initial_value=float(single.prices[ends[0], 0]),
    )
    single_report = run_backtest(single, single_config)
    got = [m.ret for m in single_report.months if m.ret is not None]
    want = [float(single.prices[b, 0] / single.prices[a, 0] - 1.0) for a, b in zip(ends, ends[1:])]
    buy_and_hold_ok = got == want

    report(
        "6 backtest accounting",
        weights_ok and independence_ok and accounting_ok and buy_and_hold_ok,
        f"{len(months)} months: weights sum to 1: {weights_ok}; holdings independent: "
        f"{independence_ok}; value identity: {accounting_ok}; buy-and-hold exact: {buy_and_hold_ok}",
    )


def test_criterion_7_sweep_monotonic_in_theta():
    panel = synth_panel(30, 1000, 3, seed=707)
    config = BacktestConfig(theta=0.18, lookback_days=252, solver="exact")
    rows = sweep_theta(panel, config, default_theta_grid(), ["ew"])
    assert all(r.error is None for r in rows)
    densities = [r.density_avg for r in rows]
    sizes = [r.size_avg for r in rows]
    density_ok = all(a >= b - 1e-15 for a, b in zip(densities, densities[1:]))
    size_ok = all(a <= b + 1e-15 for a, b in zip(sizes, sizes[1:]))
    report(
        "7 theta-sweep monotonicity",
        density_ok and size_ok,
        f"19 thetas: density avg {densities[0]:.3f} -> {densities[-1]:.3f} non-increasing: "
        f"{density_ok}; size avg {sizes[0]:.1f} -> {sizes[-1]:.1f} non-decreasing: {size_ok}",
    )


def test_criterion_8_default_sweep_shape():
    panel = synth_panel(8, 640, 2, seed=808)
    config = BacktestConfig(theta=0.18, lookback_days=126, solver="greedy")
    rows = sweep_theta(panel, config)
    thetas = sorted({r.theta for r in rows})
    expected = [round(0.18 + 0.01 * k, 10) for k in range(19)]
    shape_ok = (
        len(rows) == 38
        and thetas == expected
        and all({r.weighting for r in rows if r.theta == t} == {"ew", "ivw"} for t in thetas)
    )
    report(
        "8 sweep shape",
        shape_ok,
        f"{len(rows)} rows = 19 thetas (0.18..0.36 step 0.01) x 2 weightings",
    )


def test_criterion_9_difr_against_double_loop_oracle():
    panel = synth_panel(20, 400, 3, seed=909)
    month_dates = [panel.dates[i] for i in month_end_indices(panel.dates)]
    assert len(month_dates) >= 17  # 16 return months
    rng = np.random.default_rng(910)
    weights, caps = {}, {}
    for d in month_dates:
        raw = rng.uniform(0.0, 1.0, 20)
        raw[rng.random(20) < 0.4] = 0.0
        if raw.sum() == 0:
            raw[0] = 1.0
        weights[d] = {t: float(w) for t, w in zip(panel.tickers, raw / raw.sum()) if w > 0}
        caps[d] = {t: float(c) for t, c in zip(panel.tickers, rng.uniform(1, 1000, 20))}
    period = (month_dates[1], month_dates[16])
    rows = difr_analysis(panel, weights, caps, period)

    labels, rets = monthly_stock_returns(panel)
    oracle = {t: 0.0 for t in panel.tickers}
    n_months = 0
    for k, d in enumerate(labels):
        if not (period[0] <= d <= period[1]):
            continue
        n_months += 1
        bench = cap_weights(caps[d])
        for i, t in enumerate(panel.tickers):
            oracle[t] += rets[k, i] * (weights[d].get(t, 0.0) - bench.get(t, 0.0))
    max_err = max(abs(r.difr - oracle[r.ticker]) for r in rows)

    # identical strategy and benchmark books cancel stock by stock; weights
    # of 1/16 keep the benchmark's cap normalization an exact identity
    flat = {t: 1.0 / 16.0 for t in panel.tickers[:16]}
    same = difr_analysis(panel, {d: flat for d in month_dates}, {d: flat for d in month_dates}, period)
    zeros_ok = all(r.difr == 0.0 for r in same)
    report(
        "9 difr correctness",
        n_months == 16 and max_err <= 1e-12 and zeros_ok,
        f"16-month window, 20 stocks: max |difr - oracle| = {max_err:.2e}; "
        f"identical weight series all-zero: {zeros_ok}",
    )


def test_criterion_10_large_instance_under_a_minute():
    panel = synth_panel(2048, 300, 3, seed=1010)
    returns = log_returns(panel)
    corr = correlation(returns, returns.n_rows)
    graph = build_graph(corr, 0.25)
    t0 = time.perf_counter()
    sol = solve_mis_sb(graph, SbParams(restarts=10, seed=4))
    elapsed = time.perf_counter() - t0
    report(
        "10 large-instance runtime",
        verify(graph, sol.selected)[0] and elapsed < 60,
        f"n={graph.n_nodes}, density {graph.n_edges / (graph.n_nodes * (graph.n_nodes - 1) / 2):.3f}: "
        f"10 restarts x 1000 steps in {elapsed:.1f}s, "
        f"selected {sol.size} names",
    )
