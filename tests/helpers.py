"""Shared test utilities: small graph builders, brute-force and reference oracles, the QUBO cost and a bSB stepper."""

from dataclasses import dataclass

import numpy as np

from misfolio import market_graph, timeseries
from misfolio.backtest import (
    AccountingError,
    InsufficientDataError,
    MonthRecord,
    ZeroVolatilityError,
    derive_seed,
    month_end_indices,
    solve_mis,
)
from misfolio.market_graph import MarketGraph, graph_from_edges
from misfolio.mis_qubo import PENALTY, REWARD, QuboProblem, _clique_cover_bound, solve_greedy
from misfolio.sb_solver import SbParams, _PinnedSplit, _advance, _setup


def er_graph(n: int, p: float, seed: int) -> MarketGraph:
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def all_bit_configs(n: int) -> np.ndarray:
    """(2^n, n) matrix of every bit configuration."""
    idx = np.arange(2**n, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


def feasible_mask(graph: MarketGraph, bits: np.ndarray) -> np.ndarray:
    """True where a configuration selects no adjacent pair."""
    ok = np.ones(bits.shape[0], dtype=bool)
    for i, j in graph.edges():
        ok &= ~((bits[:, i] > 0) & (bits[:, j] > 0))
    return ok


def brute_force_mis_size(graph: MarketGraph) -> int:
    """Independence number by exhaustive enumeration (n <= 20)."""
    bits = all_bit_configs(graph.n_nodes)
    sizes = bits.sum(axis=1)
    return int(sizes[feasible_mask(graph, bits)].max())


def qubo_cost(problem: QuboProblem, bits) -> float:
    return float(qubo_cost_many(problem, np.asarray(bits, dtype=np.float64)[None, :])[0])


def qubo_cost_many(problem: QuboProblem, bit_rows: np.ndarray) -> np.ndarray:
    """QUBO cost of each row of a (m, n) matrix of bit configurations."""
    b = np.asarray(bit_rows, dtype=np.float64)
    # each selected edge appears twice in b A b'
    selected_edges = ((b @ problem.graph.adjacency_matrix) * b).sum(axis=1) / 2.0
    return PENALTY * selected_edges - REWARD * b.sum(axis=1)


# --- bitmask references: the Python-int implementations the matrix code replaced


def ref_iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ref_verify(graph: MarketGraph, selected) -> tuple[bool, list[tuple[int, int]]]:
    nodes = sorted(set(int(i) for i in selected))
    mask = 0
    for i in nodes:
        mask |= 1 << i
    violated = []
    for i in nodes:
        for j in ref_iter_bits(graph.adjacency[i] & mask):
            if j > i:
                violated.append((i, j))
    return (not violated), violated


def ref_min_degree_order(adjacency, alive: int):
    """Min-degree node of the residual graph, lowest index on ties, until none is left."""
    while alive:
        best, best_deg = -1, 1 << 62
        m = alive
        while m:
            low = m & -m
            u = low.bit_length() - 1
            d = (adjacency[u] & alive).bit_count()
            if d < best_deg:
                best, best_deg = u, d
                if d == 0:
                    break
            m ^= low
        yield best
        alive &= ~((1 << best) | adjacency[best])


def ref_greedy(graph: MarketGraph) -> tuple[int, ...]:
    return tuple(sorted(ref_min_degree_order(graph.adjacency, (1 << graph.n_nodes) - 1)))


def ref_repair(graph: MarketGraph, selected) -> tuple[int, ...]:
    """Drop the higher-degree endpoint of the first violated edge and
    re-verify until feasible, then extend greedily."""
    keep = set(selected)
    while True:
        ok, violated = ref_verify(graph, keep)
        if ok:
            break
        i, j = violated[0]
        keep.discard(j if graph.degree(j) >= graph.degree(i) else i)
    blocked = 0
    for i in keep:
        blocked |= (1 << i) | graph.adjacency[i]
    free = ((1 << graph.n_nodes) - 1) & ~blocked
    keep.update(ref_min_degree_order(graph.adjacency, free))
    return tuple(sorted(keep))


def ref_solve_exact(graph: MarketGraph) -> tuple[int, ...]:
    """Recursive branch and bound: absorb isolated candidates, bound by a
    clique cover, then branch on a maximum-degree candidate, include first."""
    adjacency = graph.adjacency
    incumbent = solve_greedy(graph).selected
    best_size, best_mask = len(incumbent), sum(1 << i for i in incumbent)

    def expand(candidates: int, chosen: int, size: int):
        nonlocal best_size, best_mask
        for u in ref_iter_bits(candidates):
            if adjacency[u] & candidates == 0:
                chosen |= 1 << u
                size += 1
                candidates ^= 1 << u
        if candidates == 0:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        if size + _clique_cover_bound(candidates, adjacency) <= best_size:
            return
        v, vdeg = -1, -1
        for u in ref_iter_bits(candidates):
            d = (adjacency[u] & candidates).bit_count()
            if d > vdeg:
                v, vdeg = u, d
        vbit = 1 << v
        expand(candidates & ~vbit & ~adjacency[v], chosen | vbit, size + 1)
        expand(candidates & ~vbit, chosen, size)

    expand((1 << graph.n_nodes) - 1, 0, 0)
    return tuple(ref_iter_bits(best_mask))


# --- J scans: the separate passes over J that IsingProblem's one strip walk replaced

#: J rows per block of the scans below
REF_BLOCK_ROWS = 64


def ref_is_finite(j: np.ndarray) -> bool:
    """``np.isfinite(j).all()`` a row block at a time."""
    return all(np.isfinite(j[s : s + REF_BLOCK_ROWS]).all() for s in range(0, len(j), REF_BLOCK_ROWS))


def ref_squared_norm(j: np.ndarray) -> float:
    """``sum(J**2)`` summed in float64 by one einsum over the whole matrix."""
    return float(np.einsum("ij,ij->", j, j, dtype=np.float64))


def ref_coupling_magnitude(j: np.ndarray) -> float | None:
    """The split's scans: the largest ``|J_ij|`` from J's max and min, then
    per row block whether every nonzero entry is + or - it; None when not,
    or when J is all zeros."""
    top = max(float(np.max(j, initial=0.0)), -float(np.min(j, initial=0.0)))
    blocks = (j[s : s + REF_BLOCK_ROWS] for s in range(0, len(j), REF_BLOCK_ROWS))
    shared = all(np.count_nonzero(b) == np.count_nonzero(b == top) + np.count_nonzero(b == -top) for b in blocks)
    return top if top and shared else None


def sb_stepper(problem, params, x: np.ndarray, p: np.ndarray, split: bool = False):
    """``step(k)`` runs bSB step ``k`` in place on the float32 ``(R, n)`` state (x, p).

    It calls the solver's own step kernel with the constants ``sb_solve``
    derives, so a one-row state steps exactly like one restart.  With
    ``split``, the coupling stage is the pinned/free split whatever the size
    of the problem, and ``step.split`` is its state.
    """
    if x.dtype != np.float32 or p.dtype != np.float32:
        raise TypeError(f"the bSB state is float32; got {x.dtype} and {p.dtype}")
    bias_step, c0 = _setup(problem, params)
    mm, scratch = np.empty_like(x), np.empty_like(x)
    pinned = _PinnedSplit(problem.j, x.shape) if split else None

    def step(k):
        _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params, pinned)

    step.split = pinned
    return step


# --- dict references: the per-book accounting the backtest's array step replaced


@dataclass
class Portfolio:
    """One book after a rebalance: target weights, share counts, and value."""

    holdings: dict[str, float]
    shares: dict[str, float]
    value: float


def ref_monthly_return(prev_value: float, value: float) -> float:
    if prev_value <= 0:
        raise AccountingError(f"non-positive base value {prev_value}")
    return value / prev_value - 1.0


def ref_weights_ew(selected) -> dict[str, float]:
    names = list(selected)
    if not names:
        raise ValueError("cannot weight an empty selection")
    w = 1.0 / len(names)
    raw = {t: w for t in names}
    total = sum(raw.values())
    return {t: v / total for t, v in raw.items()}


def ref_weights_ivw(selected, vols: dict[str, float]) -> dict[str, float]:
    names = list(selected)
    if not names:
        raise ValueError("cannot weight an empty selection")
    for t in names:
        if vols[t] <= 0.0:
            raise ZeroVolatilityError(f"volatility of {t} is zero; inverse weight undefined")
    if len({vols[t] for t in names}) == 1:
        return ref_weights_ew(names)
    raw = {t: 1.0 / vols[t] for t in names}
    total = sum(raw.values())
    return {t: v / total for t, v in raw.items()}


def ref_rebalance(prev: Portfolio, new_weights: dict[str, float], prices: dict[str, float],
                  cost_rate: float) -> tuple[Portfolio, float, float]:
    """One book's trade, name by name in dicts: Newton on the cost equation over the sorted names."""
    current = {t: s * prices[t] for t, s in prev.shares.items()}
    value_before = sum(current.values()) if prev.shares else prev.value
    names = sorted(set(current) | set(new_weights))
    weight = [new_weights.get(t, 0.0) for t in names]
    held = [current.get(t, 0.0) for t in names]
    cost = 0.0
    for _ in range(len(names) + 2):
        gaps = [w * (value_before - cost) - c for w, c in zip(weight, held)]
        new_cost = cost_rate * sum(abs(g) for g in gaps)
        if new_cost == cost:
            break
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


def ref_backtest_months(panel, config) -> list[MonthRecord]:
    """One book's month records, month by month through the dict references above.

    Raises the data or solver error that would stop the book.
    """
    returns = timeseries.log_returns(panel)
    all_ends = month_end_indices(panel.dates)
    if config.lookback_months is not None:
        windows = [(di, di - all_ends[pos]) for pos, di in enumerate(all_ends[config.lookback_months:])]
    else:
        windows = [(di, config.lookback_days) for di in all_ends if di >= config.lookback_days]
    if len(windows) < 2:
        raise InsufficientDataError("panel must span the lookback plus at least two month-ends")
    portfolio = Portfolio({}, {}, config.initial_value)
    months = []
    for mi, (di, window_days) in enumerate(windows):
        window = timeseries.ReturnMatrix(dates=returns.dates[:di], tickers=returns.tickers, values=returns.values[:di])
        graph = market_graph.build_graph(timeseries.correlation(window, window_days), config.theta)
        density = market_graph.edge_density(graph)
        params = SbParams(restarts=config.restarts, seed=derive_seed(config.seed, mi))
        selection = solve_mis(graph, config.solver, params, config.node_limit)
        prices = dict(zip(panel.tickers, panel.prices[di].tolist()))
        prev_value = portfolio.value
        feasible = selection.feasible is True and selection.size > 0
        if not feasible:
            turnover = cost = 0.0
            if portfolio.shares:
                portfolio.value = sum(s * prices[t] for t, s in portfolio.shares.items())
        else:
            names = [panel.tickers[i] for i in selection.selected]
            if config.weighting == "ew":
                weights = ref_weights_ew(names)
            else:
                vols = timeseries.volatility(window, window_days)
                weights = ref_weights_ivw(names, {panel.tickers[i]: float(vols[i]) for i in selection.selected})
            portfolio, turnover, cost = ref_rebalance(portfolio, weights, prices, config.cost_rate)
        months.append(MonthRecord(
            date=panel.dates[di],
            ret=ref_monthly_return(prev_value, portfolio.value) if mi else None,
            edge_density=density,
            turnover=turnover,
            cost=cost,
            feasible=feasible,
            weights=dict(portfolio.holdings),
        ))
    return months
