"""Maximum-independent-set encoding as QUBO/Ising, plus baseline solvers.

The QUBO cost over bits ``b in {0,1}^n`` is

    cost(b) = PENALTY * sum_{(i,j) in E} b_i b_j  -  REWARD * sum_i b_i

with each edge counted once per unordered pair and the fixed weights
``PENALTY = 2``, ``REWARD = 1``.  Any penalty above the reward makes a
constraint violation cost more than the node it gains, so the minima over
all configurations are exactly the maximum independent sets (Lucas,
*Front. Phys.* 2, 5 (2014)); a larger penalty would not change them.

Spin form: substituting ``b = (s + 1) / 2`` and collecting terms gives the
Ising energy convention shared by every consumer in this package,

    E(s) = -1/2 sum_{i != j} J_ij s_i s_j - sum_i h_i s_i,
    cost(b(s)) = E(s) + offset,

with ``J_ij = -PENALTY/4`` on edges, ``h_i = REWARD/2 - PENALTY*deg_i/4``
and ``offset = PENALTY*|E|/4 - n*REWARD/2``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .market_graph import MarketGraph

PENALTY = 2.0
REWARD = 1.0


class GraphTooLargeError(ValueError):
    """Exact solve refused: node count above the safety limit."""


class SolveTimeout(RuntimeError):
    """Exact solve exceeded its time budget."""


@dataclass(frozen=True, eq=False)
class QuboProblem:
    """MIS cost over one bit per node of ``graph``: ``PENALTY`` on each edge
    and ``-REWARD`` on each bit."""

    graph: MarketGraph


@dataclass(frozen=True, eq=False)
class IsingProblem:
    """Symmetric coupling matrix J (zero diagonal), bias h, energy offset; all finite."""

    j: np.ndarray
    h: np.ndarray
    offset: float

    def __post_init__(self):
        j = np.asarray(self.j, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        if h.ndim != 1 or j.shape != (len(h), len(h)):
            raise ValueError(f"h must be a vector and J (len(h), len(h)); got shapes {h.shape} and {j.shape}")
        # one scalar catches inf/NaN entries and a Frobenius norm that overflows
        if not (math.isfinite(float(np.vdot(j, j))) and np.isfinite(h).all() and math.isfinite(self.offset)):
            raise ValueError("J, h and offset must be finite, and sum(J**2) must not overflow")
        if np.any(np.diagonal(j) != 0.0) or not np.array_equal(j, j.T):
            raise ValueError("J must be symmetric with zero diagonal")

    @property
    def n_spins(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class MisSolution:
    """A candidate node set.  ``feasible`` is None until verified."""

    selected: tuple[int, ...]
    feasible: bool | None
    source: str

    @property
    def size(self) -> int:
        return len(self.selected)

    def to_json_dict(self, tickers) -> dict:
        return {
            "size": self.size,
            "feasible": bool(self.feasible),
            "nodes": list(self.selected),
            "tickers": [tickers[i] for i in self.selected],
            "source": self.source,
        }


#: marker for "no verification-passed candidate"; recognizable because an
#: empty set is otherwise always feasible
NO_FEASIBLE = MisSolution(selected=(), feasible=False, source="none")


def to_qubo(graph: MarketGraph) -> QuboProblem:
    """Encode MIS on ``graph``: +PENALTY per selected edge, -REWARD per node."""
    return QuboProblem(graph)


def qubo_cost(problem: QuboProblem, bits) -> float:
    return float(qubo_cost_many(problem, np.asarray(bits, dtype=np.float64)[None, :])[0])


def qubo_cost_many(problem: QuboProblem, bit_rows: np.ndarray) -> np.ndarray:
    """Vectorized cost for a (m, n) matrix of configurations."""
    b = np.asarray(bit_rows, dtype=np.float64)
    # each selected edge appears twice in b A b'
    selected_edges = ((b @ problem.graph.adjacency_matrix) * b).sum(axis=1) / 2.0
    return PENALTY * selected_edges - REWARD * b.sum(axis=1)


def qubo_to_ising(problem: QuboProblem) -> IsingProblem:
    """Closed form of ``b = (s+1)/2`` (see the module docstring)."""
    a = problem.graph.adjacency_matrix
    n = len(a)
    deg = a.sum(axis=1)
    # not -(PENALTY/4) * a, which would put -0.0 on every non-edge
    j = np.where(a, -PENALTY / 4.0, 0.0)
    h = REWARD / 2.0 - PENALTY * deg / 4.0
    n_edges = float(deg.sum()) / 2.0
    offset = -n * REWARD / 2.0 + PENALTY * n_edges / 4.0
    return IsingProblem(j=j, h=h, offset=offset)


def ising_energy(problem: IsingProblem, spins) -> float:
    s = np.asarray(spins, dtype=np.float64)
    return float(-0.5 * s @ (problem.j @ s) - problem.h @ s)


def decode(spins) -> MisSolution:
    """bSB node set where the spin is +1.  Unverified (``feasible=None``)."""
    s = np.asarray(spins)
    if not np.all((s == 1) | (s == -1)):
        raise ValueError("spins must be -1 or +1")
    selected = tuple(int(i) for i in np.flatnonzero(s == 1))
    return MisSolution(selected=selected, feasible=None, source="sb")


def verify(graph: MarketGraph, selected) -> tuple[bool, list[tuple[int, int]]]:
    """Feasibility check: no selected pair adjacent; violated edges listed."""
    nodes = sorted(set(int(i) for i in selected))
    for i in nodes:
        if not 0 <= i < graph.n_nodes:
            raise IndexError(f"node {i} out of range [0, {graph.n_nodes})")
    rows, cols = np.nonzero(np.triu(graph.adjacency_matrix[np.ix_(nodes, nodes)], 1))
    violated = [(nodes[r], nodes[c]) for r, c in zip(rows.tolist(), cols.tolist())]
    return (not violated), violated


def _min_degree_order(adjacency: np.ndarray):
    """Yield min-degree nodes of the shrinking residual graph (lowest index wins ties)."""
    alive = np.ones(len(adjacency), dtype=bool)
    deg = np.count_nonzero(adjacency, axis=1)
    while alive.any():
        best = int(np.argmin(deg))
        yield best
        removed = alive & adjacency[best]
        removed[best] = True
        alive &= ~removed
        deg -= np.count_nonzero(adjacency[removed], axis=0)
        # never picked again: later drops take at most n off the maximum
        deg[removed] = np.iinfo(np.intp).max


def solve_greedy(graph: MarketGraph) -> MisSolution:
    """Minimum-degree greedy: pick, delete closed neighborhood, repeat."""
    selected = tuple(sorted(_min_degree_order(graph.adjacency_matrix)))
    return MisSolution(selected=selected, feasible=True, source="greedy")


def _clique_cover_bound(candidates: int, adjacency) -> int:
    """Number of cliques in a greedy clique cover of the induced subgraph.

    An independent set takes at most one node per clique, so this bounds
    the independent-set size within ``candidates``.
    """
    count = 0
    rest = candidates
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        clique_candidates = rest & adjacency[u]
        rest ^= low
        while clique_candidates:
            lw = clique_candidates & -clique_candidates
            w = lw.bit_length() - 1
            rest &= ~lw
            clique_candidates = clique_candidates & adjacency[w] & ~lw
        count += 1
    return count


def solve_exact(graph: MarketGraph, node_limit: int = 64, time_budget: float | None = None) -> MisSolution:
    """Branch-and-bound MIS with a greedy clique-cover bound.

    Refuses graphs above ``node_limit`` (exponential worst case); raise the
    limit explicitly to go bigger, ideally together with ``time_budget``
    (seconds), which aborts with :class:`SolveTimeout`.
    """
    n = graph.n_nodes
    if n > node_limit:
        raise GraphTooLargeError(
            f"{n} nodes exceeds node_limit={node_limit}; raise it explicitly for larger graphs"
        )
    adjacency = list(graph.adjacency)
    incumbent = solve_greedy(graph)
    best_size = incumbent.size
    best_mask = 0
    for i in incumbent.selected:
        best_mask |= 1 << i
    deadline = None if time_budget is None else time.perf_counter() + time_budget

    def expand(candidates: int, chosen: int, size: int):
        nonlocal best_size, best_mask
        if deadline is not None and time.perf_counter() > deadline:
            raise SolveTimeout(f"exact MIS solve exceeded {time_budget} s")
        # absorb isolated candidates: every maximum set contains them
        m = candidates
        while m:
            low = m & -m
            u = low.bit_length() - 1
            if adjacency[u] & candidates == 0:
                chosen |= low
                size += 1
                candidates ^= low
            m ^= low
        if candidates == 0:
            if size > best_size or (size == best_size and best_mask == 0):
                best_size, best_mask = size, chosen
            return
        if size + _clique_cover_bound(candidates, adjacency) <= best_size:
            return
        # branch on a maximum-degree candidate
        v, vdeg = -1, -1
        m = candidates
        while m:
            low = m & -m
            u = low.bit_length() - 1
            d = (adjacency[u] & candidates).bit_count()
            if d > vdeg:
                v, vdeg = u, d
            m ^= low
        vbit = 1 << v
        expand(candidates & ~vbit & ~adjacency[v], chosen | vbit, size + 1)
        expand(candidates & ~vbit, chosen, size)

    expand((1 << n) - 1, 0, 0)
    selected = tuple(i for i in range(n) if best_mask >> i & 1) if best_mask else incumbent.selected
    return MisSolution(selected=selected, feasible=True, source="exact")


def select_best(candidates) -> MisSolution:
    """Largest feasible candidate; ties broken by lowest node set.

    Returns :data:`NO_FEASIBLE` when nothing passed verification.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("select_best needs at least one candidate")
    feasible = [c for c in candidates if c.feasible is True]
    if not feasible:
        return NO_FEASIBLE
    return min(feasible, key=lambda c: (-c.size, c.selected))


def repair(graph: MarketGraph, solution: MisSolution) -> MisSolution:
    """Make a candidate feasible: drop the higher-degree endpoint of each
    violated edge, then extend greedily with whatever still fits."""
    a = graph.adjacency_matrix
    keep = set(solution.selected)
    _, violated = verify(graph, keep)
    # dropping a node only removes violations, so one pass in verify's
    # order drops what re-verifying after each drop would
    for i, j in violated:
        if i in keep and j in keep:
            keep.discard(j if graph.degree(j) >= graph.degree(i) else i)
    kept = np.zeros(graph.n_nodes, dtype=bool)
    kept[list(keep)] = True
    free = np.flatnonzero(~(kept | a[kept].any(axis=0)))
    keep.update(int(free[u]) for u in _min_degree_order(a[np.ix_(free, free)]))
    return replace(solution, selected=tuple(sorted(keep)), feasible=True, source=solution.source + "+repair")
