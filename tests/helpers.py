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


def sb_stepper(problem, params, x: np.ndarray, p: np.ndarray):
    """``step(k)`` runs bSB step ``k`` in place on the ``(R, n)`` state (x, p).

    It calls the solver's own step kernel with the constants ``sb_solve``
    derives, so a one-row state steps exactly like one restart.
    """
    bias_step, c0 = _setup(problem, params)
    mm, scratch = np.empty_like(x), np.empty_like(x)
    return lambda k: _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params)
