"""Shared test utilities: small graph builders, brute-force oracles and a bSB stepper."""

import numpy as np

from misfolio.market_graph import MarketGraph, graph_from_edges
from misfolio.sb_solver import _advance, _setup


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


def sb_stepper(problem, params, x: np.ndarray, p: np.ndarray):
    """``step(k)`` runs bSB step ``k`` in place on the ``(R, n)`` state (x, p).

    It calls the solver's own step kernel with the constants ``sb_solve``
    derives, so a one-row state steps exactly like one restart.
    """
    bias_step, c0 = _setup(problem, params)
    mm, scratch = np.empty_like(x), np.empty_like(x)
    return lambda k: _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params)
