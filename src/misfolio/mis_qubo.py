"""Maximum-independent-set encoding as QUBO/Ising, plus baseline solvers.

The QUBO cost over bits ``b in {0,1}^n`` is

    cost(b) = penalty * sum_{(i,j) in E} b_i b_j  -  reward * sum_i b_i

with each edge counted once per unordered pair.  ``reward < penalty`` makes
any constraint violation cost more than the node it gains, so the minima
over all configurations are exactly the maximum independent sets.

Spin form: substituting ``b = (s + 1) / 2`` and collecting terms gives the
Ising energy convention shared by every consumer in this package,

    E(s) = -1/2 sum_{i != j} J_ij s_i s_j - sum_i h_i s_i,
    cost(b(s)) = E(s) + offset,

with ``J_ij = -penalty/4`` on edges, ``h_i = reward/2 - penalty*deg_i/4``
and ``offset = penalty*|E|/4 - n*reward/2``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .market_graph import MarketGraph, _iter_bits

DEFAULT_PENALTY = 2.0
DEFAULT_REWARD = 1.0


class GraphTooLargeError(ValueError):
    """Exact solve refused: node count above the safety limit."""


class SolveTimeout(RuntimeError):
    """Exact solve exceeded its time budget."""


@dataclass(frozen=True, eq=False)
class QuboProblem:
    """MIS cost over bits: ``penalty`` on each edge of the 0/1 ``adjacency``
    matrix (symmetric, zero diagonal) plus per-bit ``linear`` terms."""

    n_bits: int
    adjacency: np.ndarray
    linear: np.ndarray
    penalty: float = DEFAULT_PENALTY
    reward: float = DEFAULT_REWARD

    def __post_init__(self):
        if not (0 < self.reward < self.penalty):
            raise ValueError(
                f"need 0 < reward < penalty, got reward={self.reward}, penalty={self.penalty}"
            )
        a = np.asarray(self.adjacency, dtype=np.float64)
        linear = np.asarray(self.linear, dtype=np.float64)
        if a.shape != (self.n_bits, self.n_bits) or linear.shape != (self.n_bits,):
            raise ValueError("adjacency/linear shapes must match n_bits")
        if np.any((a != 0.0) & (a != 1.0)) or np.any(np.diagonal(a) != 0.0) or not np.array_equal(a, a.T):
            raise ValueError("adjacency must be a symmetric 0/1 matrix with zero diagonal")
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "linear", linear)


@dataclass(frozen=True, eq=False)
class IsingProblem:
    """Symmetric coupling matrix J (zero diagonal), bias h, energy offset; all finite."""

    n_spins: int
    j: np.ndarray
    h: np.ndarray
    offset: float

    def __post_init__(self):
        j = np.asarray(self.j, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        if j.shape != (self.n_spins, self.n_spins) or h.shape != (self.n_spins,):
            raise ValueError("J/h shapes must match n_spins")
        # one scalar catches inf/NaN entries and a Frobenius norm that overflows
        if not (math.isfinite(float(np.vdot(j, j))) and np.isfinite(h).all() and math.isfinite(self.offset)):
            raise ValueError("J, h and offset must be finite, and sum(J**2) must not overflow")
        if np.any(np.diagonal(j) != 0.0) or not np.array_equal(j, j.T):
            raise ValueError("J must be symmetric with zero diagonal")


@dataclass(frozen=True)
class MisSolution:
    """A candidate node set.  ``feasible`` is None until verified."""

    selected: tuple[int, ...]
    size: int
    feasible: bool | None
    source: str

    def to_json_dict(self, tickers=None) -> dict:
        return {
            "size": self.size,
            "feasible": bool(self.feasible),
            "nodes": list(self.selected),
            "tickers": [tickers[i] for i in self.selected] if tickers is not None else [],
            "source": self.source,
        }


#: marker for "no verification-passed candidate"; recognizable because an
#: empty set is otherwise always feasible
NO_FEASIBLE = MisSolution(selected=(), size=0, feasible=False, source="none")


def to_qubo(graph: MarketGraph, penalty: float = DEFAULT_PENALTY, reward: float = DEFAULT_REWARD) -> QuboProblem:
    """Encode MIS on ``graph``: +penalty per selected edge, -reward per node."""
    return QuboProblem(
        n_bits=graph.n_nodes,
        adjacency=graph.adjacency_matrix,
        linear=np.full(graph.n_nodes, -reward),
        penalty=penalty,
        reward=reward,
    )


def qubo_cost(problem: QuboProblem, bits) -> float:
    return float(qubo_cost_many(problem, np.asarray(bits, dtype=np.float64)[None, :])[0])


def qubo_cost_many(problem: QuboProblem, bit_rows: np.ndarray) -> np.ndarray:
    """Vectorized cost for a (m, n_bits) matrix of configurations."""
    b = np.asarray(bit_rows, dtype=np.float64)
    # each selected edge appears twice in b A b'
    selected_edges = ((b @ problem.adjacency) * b).sum(axis=1) / 2.0
    return b @ problem.linear + problem.penalty * selected_edges


def qubo_to_ising(problem: QuboProblem) -> IsingProblem:
    """Closed form of ``b = (s+1)/2`` (see the module docstring)."""
    a = problem.adjacency
    deg = a.sum(axis=1)
    # not -(penalty/4) * a, which would put -0.0 on every non-edge
    j = np.where(a != 0.0, -problem.penalty / 4.0, 0.0)
    h = -problem.linear / 2.0 - problem.penalty * deg / 4.0
    n_edges = float(deg.sum()) / 2.0
    offset = float(problem.linear.sum()) / 2.0 + problem.penalty * n_edges / 4.0
    return IsingProblem(n_spins=problem.n_bits, j=j, h=h, offset=offset)


def ising_energy(problem: IsingProblem, spins) -> float:
    s = np.asarray(spins, dtype=np.float64)
    return float(-0.5 * s @ (problem.j @ s) - problem.h @ s)


def decode(spins, source: str = "sb") -> MisSolution:
    """Node set where the spin is +1.  Unverified (``feasible=None``)."""
    s = np.asarray(spins)
    if not np.all((s == 1) | (s == -1)):
        raise ValueError("spins must be -1 or +1")
    selected = tuple(int(i) for i in np.flatnonzero(s == 1))
    return MisSolution(selected=selected, size=len(selected), feasible=None, source=source)


def verify(graph: MarketGraph, selected) -> tuple[bool, list[tuple[int, int]]]:
    """Feasibility check: no selected pair adjacent; violated edges listed."""
    nodes = sorted(set(int(i) for i in selected))
    mask = 0
    for i in nodes:
        if not 0 <= i < graph.n_nodes:
            raise IndexError(f"node {i} out of range [0, {graph.n_nodes})")
        mask |= 1 << i
    violated = []
    for i in nodes:
        hits = graph.adjacency[i] & mask
        for j in _iter_bits(hits):
            if j > i:
                violated.append((i, j))
    return (not violated), violated


def _min_degree_order(adjacency: list[int], alive: int):
    """Yield min-degree nodes of the shrinking residual graph (lowest index wins ties)."""
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


def solve_greedy(graph: MarketGraph) -> MisSolution:
    """Minimum-degree greedy: pick, delete closed neighborhood, repeat."""
    adjacency = list(graph.adjacency)
    selected = sorted(_min_degree_order(adjacency, (1 << graph.n_nodes) - 1))
    return MisSolution(
        selected=tuple(selected), size=len(selected), feasible=True, source="greedy"
    )


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
    selected = tuple(_iter_bits(best_mask)) if best_mask else tuple(incumbent.selected)
    return MisSolution(selected=selected, size=best_size, feasible=True, source="exact")


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
    keep = set(solution.selected)
    while True:
        ok, violated = verify(graph, keep)
        if ok:
            break
        i, j = violated[0]
        keep.discard(j if graph.degree(j) >= graph.degree(i) else i)
    mask = 0
    for i in keep:
        mask |= 1 << i
    blocked = mask
    for i in keep:
        blocked |= graph.adjacency[i]
    free = ((1 << graph.n_nodes) - 1) & ~blocked
    adjacency = list(graph.adjacency)
    for u in _min_degree_order(adjacency, free):
        keep.add(u)
    selected = tuple(sorted(keep))
    return replace(
        solution, selected=selected, size=len(selected), feasible=True, source=solution.source + "+repair"
    )
