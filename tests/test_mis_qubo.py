import dataclasses
import inspect
import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_bit_configs,
    brute_force_mis_size,
    er_graph,
    feasible_mask,
    induced,
    qubo_cost,
    qubo_cost_many,
    ref_greedy,
    ref_min_degree_order,
    ref_reduce,
    ref_repair,
    ref_solve_exact,
    ref_verify,
)
from misfolio import mis_qubo
from misfolio.backtest import default_theta_grid
from misfolio.market_graph import MarketGraph, build_graph, graph_from_edges
from misfolio.mis_qubo import (
    PENALTY,
    REWARD,
    GraphTooLargeError,
    MisSolution,
    NO_FEASIBLE,
    SolveTimeout,
    _min_degree_order,
    decode,
    ising_energy,
    qubo_to_ising,
    reduce,
    repair,
    select_best,
    solve_exact,
    solve_greedy,
    to_qubo,
    verify,
)
from misfolio.timeseries import CorrelationMatrix, correlation, log_returns, synth_panel


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# --- QUBO encoding ----------------------------------------------------------

def test_qubo_empty_selection_costs_zero():
    q = to_qubo(er_graph(6, 0.5, seed=0))
    assert qubo_cost(q, np.zeros(6)) == 0.0


def test_qubo_single_edge_enumeration():
    q = to_qubo(graph_from_edges(2, [(0, 1)]))
    costs = {b: qubo_cost(q, b) for b in itertools.product((0, 1), repeat=2)}
    assert costs[(0, 0)] == 0.0
    assert costs[(1, 0)] == costs[(0, 1)] == -1.0
    assert costs[(1, 1)] == 0.0  # penalty exactly cancels the two rewards
    assert min(costs.values()) == -1.0


def test_qubo_triangle_minima_are_single_nodes():
    q = to_qubo(complete(3))
    costs = {b: qubo_cost(q, b) for b in itertools.product((0, 1), repeat=3)}
    assert min(costs.values()) == -1.0
    minima = {b for b, c in costs.items() if c == -1.0}
    assert minima == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_feasible_cost_equals_minus_reward_times_size():
    g = er_graph(12, 0.3, seed=3)
    q = to_qubo(g)
    bits = all_bit_configs(12)
    ok = feasible_mask(g, bits)
    costs = qubo_cost_many(q, bits)
    sizes = bits.sum(axis=1)
    assert np.array_equal(costs[ok], -REWARD * sizes[ok])


def test_violating_flip_raises_cost():
    # turning on a node adjacent to the selection costs more than it gains
    g = graph_from_edges(3, [(0, 1)])
    q = to_qubo(g)
    base = qubo_cost(q, [1, 0, 0])
    assert qubo_cost(q, [1, 1, 0]) > base


# --- Ising equivalence -------------------------------------------------------

def test_edgeless_qubo_maps_to_bias_only_ising():
    p = qubo_to_ising(to_qubo(graph_from_edges(3, [])))
    assert np.array_equal(p.j, np.zeros((3, 3)))
    assert np.array_equal(p.h, np.full(3, REWARD / 2.0))
    assert p.offset == -3 * REWARD / 2.0


def test_single_bit_qubo_bias_points_up():
    q = to_qubo(graph_from_edges(1, []))
    p = qubo_to_ising(q)
    assert p.h[0] == 0.5  # positive bias favors s = +1
    assert p.offset == -0.5
    bits = all_bit_configs(1)
    assert np.array_equal(ising_energy(p, 2 * bits - 1) + p.offset, qubo_cost_many(q, bits))


def test_single_edge_equivalence_all_configurations():
    q = to_qubo(graph_from_edges(2, [(0, 1)]))
    p = qubo_to_ising(q)
    bits = all_bit_configs(2)
    assert np.array_equal(ising_energy(p, 2 * bits - 1) + p.offset, qubo_cost_many(q, bits))


@pytest.mark.parametrize("spins", [[1, -1, 1], [[1, -1]], np.ones((2, 3, 1))], ids=["vector", "short-rows", "3d"])
def test_ising_energy_takes_only_an_r_by_n_stack(spins):
    p = qubo_to_ising(to_qubo(cycle(3)))
    with pytest.raises(ValueError, match=r"spins must be an \(R, 3\) stack"):
        ising_energy(p, spins)


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_equivalence_exhaustive_random_graphs(n, seed):
    g = er_graph(n, 0.4, seed=seed)
    q = to_qubo(g)
    p = qubo_to_ising(q)
    bits = all_bit_configs(n)
    spins = 2 * bits - 1
    qc = qubo_cost_many(q, bits)
    ie = ising_energy(p, spins) + p.offset
    assert np.max(np.abs(qc - ie)) == 0.0


def test_edge_value_set_for_uniform_couplings():
    g = er_graph(8, 0.5, seed=1)
    p = qubo_to_ising(to_qubo(g))
    assert np.array_equal(p.j, -0.5 * g.adjacency_matrix)


@pytest.mark.parametrize(
    "adjacency",
    [
        [[0.0, 2.0], [2.0, 0.0]],  # not 0/1
        [[0.0, 1.0], [0.0, 0.0]],  # not symmetric
        [[1.0, 0.0], [0.0, 0.0]],  # self-loop
        [[0.0, 1.0]],  # not square
        [[False, True], [False, False]],  # bool, not symmetric
        [[True, False], [False, False]],  # bool, self-loop
    ],
)
def test_qubo_rejects_malformed_adjacency(adjacency):
    # a QUBO is stated only over a MarketGraph, whose constructor refuses these
    a = np.array(adjacency)
    with pytest.raises(ValueError):
        to_qubo(MarketGraph(tickers=("a", "b")[: len(a)], theta=0.0, adjacency_matrix=a))


def test_closed_form_matches_per_edge_expansion():
    # reference: expand b = (s+1)/2 one edge at a time; every term is a
    # multiple of 1/2, so both forms are exact
    g = er_graph(15, 0.4, seed=5)
    p = qubo_to_ising(to_qubo(g))
    j, h = np.zeros((15, 15)), np.full(15, REWARD / 2.0)
    offset = -15 * REWARD / 2.0
    for a, b in g.edges():
        j[a, b] = j[b, a] = -PENALTY / 4.0
        h[a] -= PENALTY / 4.0
        h[b] -= PENALTY / 4.0
        offset += PENALTY / 4.0
    assert np.array_equal(p.j, j)
    assert np.array_equal(p.h, h)
    assert p.offset == offset


# --- decode / verify ---------------------------------------------------------

def test_decode_examples():
    assert decode([-1, -1, -1]).selected == ()
    assert decode([1, 1, 1]).selected == (0, 1, 2)
    assert decode([1, -1, 1]).selected == (0, 2)


def test_decode_rejects_non_binary():
    with pytest.raises(ValueError):
        decode([1, 0, -1])


def test_unverified_solution_is_not_written_as_infeasible():
    unverified = decode([1, -1, 1])
    with pytest.raises(ValueError, match="unverified"):
        unverified.to_json_dict(("a", "b", "c"))
    checked = dataclasses.replace(unverified, feasible=True).to_json_dict(("a", "b", "c"))
    assert checked == {"size": 2, "feasible": True, "nodes": [0, 2], "tickers": ["a", "c"], "source": "sb"}


def test_verify_examples():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    assert verify(path, []) == (True, [])
    ok, violated = verify(path, [0, 1])
    assert not ok and violated == [(0, 1)]
    assert verify(path, [0, 2]) == (True, [])


def test_verify_rejects_a_non_integer_node_id():
    # int() would read 1.5 as node 1 and miss the edge (0, 1)
    with pytest.raises(TypeError):
        verify(graph_from_edges(3, [(0, 1)]), [0, 1.5])
    assert verify(graph_from_edges(3, [(0, 1)]), np.array([0, 1])) == (False, [(0, 1)])


def test_verify_out_of_range():
    with pytest.raises(IndexError):
        verify(graph_from_edges(2, []), [5])


# --- exact solver ------------------------------------------------------------

def test_exact_empty_graph_takes_all_nodes():
    sol = solve_exact(graph_from_edges(5, []))
    assert sol.size == 5 and sol.selected == (0, 1, 2, 3, 4)
    assert sol.feasible is True and sol.source == "exact"


def test_exact_complete_graph_takes_one():
    assert solve_exact(complete(5)).size == 1


def test_exact_five_cycle():
    assert solve_exact(cycle(5)).size == brute_force_mis_size(cycle(5)) == 2


@given(st.integers(2, 14), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_exact_matches_brute_force(n, seed):
    g = er_graph(n, 0.35, seed=seed)
    sol = solve_exact(g)
    assert sol.size == brute_force_mis_size(g)
    assert verify(g, sol.selected)[0]


def test_exact_contains_every_isolated_node():
    g = graph_from_edges(7, [(0, 1), (0, 2), (1, 2)])  # 3..6 isolated
    sol = solve_exact(g)
    assert {3, 4, 5, 6} <= set(sol.selected)


def test_exact_size_monotone_in_threshold():
    rng = np.random.default_rng(17)
    raw = rng.uniform(-1, 1, (12, 12))
    c = (raw + raw.T) / 2
    np.fill_diagonal(c, 1.0)
    corr = CorrelationMatrix(tickers=tuple(map(str, range(12))), values=c)
    sizes = [solve_exact(build_graph(corr, t)).size for t in (-0.5, 0.0, 0.3, 0.6, 1.0)]
    assert sizes == sorted(sizes)


def test_exact_refuses_oversized_graph():
    with pytest.raises(GraphTooLargeError):
        solve_exact(er_graph(70, 0.2, seed=0))


def test_exact_honors_time_budget():
    g = er_graph(400, 0.5, seed=2)
    with pytest.raises(SolveTimeout):
        solve_exact(g, node_limit=400, time_budget=0.01)


@pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0])
def test_exact_rejects_a_time_budget_that_is_not_positive(budget):
    # a NaN budget would never time out, and a negative one would time out before the first node
    with pytest.raises(ValueError, match="time_budget must be positive"):
        solve_exact(graph_from_edges(3, [(0, 1)]), time_budget=budget)


@pytest.mark.parametrize("n, factors", [(40, 3), (40, 10), (100, 3), (100, 10), (225, 3), (225, 10)])
def test_exact_selects_what_the_recursive_search_selects(n, factors):
    corr = correlation(log_returns(synth_panel(n, 800, factors, seed=3)), 756)
    for theta in (0.20, 0.25, 0.30, 0.36):
        g = build_graph(corr, theta)
        assert solve_exact(g, node_limit=n).selected == ref_solve_exact(g)


def test_exact_selects_what_the_recursive_search_selects_on_small_graphs():
    graphs = [graph_from_edges(0, []), graph_from_edges(1, [])]
    graphs += [er_graph(n, p, seed) for n in (10, 30, 50) for p in (0.1, 0.3, 0.5) for seed in (0, 1)]
    for g in graphs:
        assert solve_exact(g).selected == ref_solve_exact(g)


def test_exact_search_does_not_recurse():
    # the clique cover counts three cliques in a 5-cycle, whose sets hold two,
    # so on 100 disjoint 5-cycles the bound never prunes and the search goes
    # hundreds of levels deep until the budget runs out
    g = graph_from_edges(500, [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(100) for i in range(5)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        with pytest.raises(SolveTimeout):
            solve_exact(g, node_limit=500, time_budget=1.0)
    finally:
        sys.setrecursionlimit(limit)


# --- greedy solver -----------------------------------------------------------

def test_greedy_empty_graph():
    assert solve_greedy(graph_from_edges(6, [])).size == 6


def test_greedy_star_takes_leaves():
    star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    sol = solve_greedy(star)
    assert sol.selected == (1, 2, 3, 4)


@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_greedy_always_feasible_and_bounded_by_exact(n, seed):
    g = er_graph(n, 0.4, seed=seed)
    sol = solve_greedy(g)
    assert verify(g, sol.selected)[0]
    assert sol.size <= solve_exact(g).size


# --- selection and repair ------------------------------------------------------

def sol(nodes, feasible=True, source="sb"):
    nodes = tuple(sorted(nodes))
    return MisSolution(selected=nodes, feasible=feasible, source=source)


def test_select_best_prefers_feasible():
    assert select_best([sol(range(3)), sol(range(10), feasible=False)]).size == 3


def test_select_best_takes_largest():
    assert select_best([sol(range(4)), sol(range(6))]).size == 6


def test_select_best_breaks_ties_lexicographically():
    assert select_best([sol((1, 3)), sol((0, 2))]).selected == (0, 2)


def test_select_best_no_feasible_marker():
    out = select_best([sol((0, 1), feasible=False)])
    assert out is NO_FEASIBLE
    assert out.feasible is False and out.size == 0


def test_size_follows_selected_through_replace():
    grown = dataclasses.replace(sol((0, 2)), selected=(0, 2, 4))
    assert grown.size == 3
    assert select_best([grown, sol((1, 3))]) == grown


def test_select_best_rejects_empty_list():
    with pytest.raises(ValueError):
        select_best([])


def test_repair_produces_feasible_superset_quality():
    g = cycle(5)
    busted = sol((0, 1, 2), feasible=False)
    fixed = repair(g, busted)
    assert verify(g, fixed.selected)[0]
    assert fixed.feasible is True
    assert fixed.size >= 1


def _market_graphs(thetas):
    panel = synth_panel(200, 1512, 3, 0)
    returns = log_returns(panel)
    corr = correlation(returns, returns.n_rows)
    for theta in thetas:
        yield f"market theta={theta}", build_graph(corr, theta)


def _oracle_graphs():
    rng = np.random.default_rng(2024)
    for k in range(200):
        yield f"er{k}", er_graph(int(rng.integers(1, 41)), float(rng.uniform(0.02, 0.9)), seed=k)
    yield from _market_graphs((0.18, 0.25, 0.36))


def assert_same_pick_order(g: MarketGraph, label=""):
    """The min-degree order pick by pick, not only the set it selects."""
    full = (1 << g.n_nodes) - 1
    assert list(_min_degree_order(g.adjacency_matrix)) == list(ref_min_degree_order(g.adjacency, full)), label


def test_matrix_greedy_verify_repair_match_bitmask_references():
    rng = np.random.default_rng(7)
    for label, g in _oracle_graphs():
        n = g.n_nodes
        selected = tuple(int(i) for i in np.flatnonzero(rng.random(n) < rng.uniform(0.05, 0.9)))
        assert solve_greedy(g).selected == ref_greedy(g), label
        assert_same_pick_order(g, label)
        assert verify(g, selected) == ref_verify(g, selected), label
        assert repair(g, sol(selected, feasible=False)).selected == ref_repair(g, selected), label


def test_min_degree_order_matches_reference_on_the_sweep_grid():
    # at theta 0.5 and 0.7 most picks take a node already isolated
    for label, g in _market_graphs([*default_theta_grid(), 0.5, 0.7]):
        assert_same_pick_order(g, label)


def test_min_degree_order_counts_degrees_above_255():
    # the degree count must not wrap like a one-byte accumulator would
    returns = log_returns(synth_panel(300, 300, 3, 0))
    g = build_graph(correlation(returns, returns.n_rows), 0.25)
    assert g.n_nodes > 256 and g.adjacency_matrix.sum(axis=1).max() > 255
    assert_same_pick_order(g)


@given(st.integers(0, 48), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@example(0, 0.5, 0)
@example(30, 0.0, 1)
@example(30, 1.0, 2)
@settings(max_examples=60, deadline=None)
def test_min_degree_order_matches_reference_on_random_graphs(n, p, seed):
    assert_same_pick_order(er_graph(n, p, seed))


def test_nodes_isolated_mid_run_are_taken_where_the_reference_takes_them():
    # hubs 0 and 4; taking node 1 (degree 2, lowest index) removes both, which
    # isolates 2 and 5 while 3 and 6 keep their edge: 3 has the lowest
    # positive degree and lies between the two isolated nodes
    g = graph_from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 4), (2, 4), (3, 6), (4, 5), (4, 6)])
    assert list(_min_degree_order(g.adjacency_matrix)) == [1, 2, 5, 3]
    assert_same_pick_order(g)
    for bits in range(1 << g.n_nodes):
        selected = tuple(i for i in range(g.n_nodes) if bits >> i & 1)
        assert repair(g, sol(selected, feasible=False)).selected == ref_repair(g, selected), selected
    # repair extends on the free nodes' subgraph, where a random selection
    # leaves many nodes isolated
    rng = np.random.default_rng(18)
    for label, g in _market_graphs((0.5, 0.7)):
        for _ in range(20):
            selected = tuple(int(i) for i in np.flatnonzero(rng.random(g.n_nodes) < rng.uniform(0.05, 0.5)))
            assert repair(g, sol(selected, feasible=False)).selected == ref_repair(g, selected), label


# --- reductions ----------------------------------------------------------------


@given(st.integers(0, 14), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 256]))
@example(0, 0.0, 0, 256)
@example(6, 0.0, 0, 256)  # all isolated: everything forced
@example(8, 1.0, 0, 3)  # complete: node 0 dominates the rest and is then isolated
@settings(max_examples=80, deadline=None)
def test_reduce_keeps_the_independence_number(n, p, seed, block_rows):
    graph = er_graph(n, p, seed)
    # small blocks put dominators and what they dominate in different blocks of the product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mis_qubo, "_DOMINATION_ROWS", block_rows)
        forced, kernel = reduce(graph)
    assert (forced.tolist(), kernel.tolist()) == ref_reduce(graph)
    assert np.all(np.diff(forced) > 0) and np.all(np.diff(kernel) > 0)
    assert set(forced.tolist()).isdisjoint(kernel.tolist())
    assert verify(graph, forced) == (True, [])
    core = induced(graph, kernel)
    assert len(forced) + brute_force_mis_size(core) == brute_force_mis_size(graph)
    again_forced, again_kernel = reduce(core)
    assert again_forced.size == 0 and again_kernel.tolist() == list(range(len(kernel)))


@pytest.mark.parametrize(
    "edges, forced, kernel",
    [
        ([(0, 1), (1, 2), (2, 3), (3, 4)], [0, 2, 4], []),  # path: leaves win, rounds repeat
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [], [0, 1, 2, 3, 4]),  # 5-cycle: nothing dominated
        ([(0, 1), (0, 2), (0, 3)], [1, 2, 3], []),  # star: the centre is dominated by every leaf
        ([(0, 1), (0, 2), (1, 2), (3, 4)], [0, 3], []),  # triangle twins and an edge: lower index stays
    ],
    ids=["path", "five-cycle", "star", "twins"],
)
def test_reduce_examples(edges, forced, kernel):
    got = reduce(graph_from_edges(max(map(max, edges)) + 1, edges))
    assert (got[0].tolist(), got[1].tolist()) == (forced, kernel)


@pytest.mark.parametrize("block_rows", [1, 3, 64, 256])
def test_reduce_matches_the_set_reference_when_the_first_block_dominates_most(block_rows, monkeypatch):
    # dense: the lowest-degree rows dominate most nodes, so the columns the
    # product skips cross both block and chunk boundaries
    returns = log_returns(synth_panel(300, 300, 3, seed=0))
    graph = build_graph(correlation(returns, returns.n_rows), 0.20)
    monkeypatch.setattr(mis_qubo, "_DOMINATION_ROWS", block_rows)
    forced, kernel = reduce(graph)
    assert (forced.tolist(), kernel.tolist()) == ref_reduce(graph)
    assert len(forced) + len(kernel) < graph.n_nodes // 2


def test_reduce_matches_the_set_reference_on_a_market_graph():
    returns = log_returns(synth_panel(300, 300, 3, seed=0))
    graph = build_graph(correlation(returns, returns.n_rows), 0.25)
    forced, kernel = reduce(graph)
    assert (forced.tolist(), kernel.tolist()) == ref_reduce(graph)
    assert len(forced) and len(kernel) and len(forced) + len(kernel) < graph.n_nodes
