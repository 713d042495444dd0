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

``J`` is float32, the dtype the bSB solver steps in; ``h``, the offset and
every energy are float64.  An energy is a float64 sum over J's float32
entries, taken a row block at a time, so no float64 copy of ``J`` is made.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .market_graph import _BLOCK_ROWS, MarketGraph, _strips

PENALTY = 2.0
REWARD = 1.0
_NEVER_PICKED = np.iinfo(np.int32).max  # a picked or removed node's degree; degrees are below n, drops at most n
#: rows per block and per column chunk of reduce's domination product: at n=2048 (seeds 0-3), 0.06-0.07 s against
#: 0.08-0.09 s with 64 and 0.07-0.08 s with 512 (2-core Xeon, OpenBLAS 0.3.31)
_DOMINATION_ROWS = 256


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
    """Symmetric coupling matrix J (zero diagonal), bias h, energy offset; all finite.

    ``J`` must be a float32 array, the dtype the solver steps in; any other
    dtype is rejected, so cast it first.  ``h`` and ``offset`` are float64.
    The one home of what is known about ``J``, read twice by the constructor
    (a strip walk, an einsum through small buffers): ``squared_norm``,
    ``sum(J**2)`` in float64, and ``coupling_magnitude``, the ``|J_ij|``
    every nonzero coupling shares (None when they differ or there is none).
    """

    j: np.ndarray
    h: np.ndarray
    offset: float
    squared_norm: float = field(init=False, repr=False)
    coupling_magnitude: float | None = field(init=False, repr=False)

    def __post_init__(self):
        j = np.asarray(self.j)
        h = np.asarray(self.h, dtype=np.float64)
        if h.ndim != 1 or j.shape != (len(h), len(h)):
            raise ValueError(f"h must be a vector and J (len(h), len(h)); got shapes {h.shape} and {j.shape}")
        if j.dtype != np.float32:
            raise ValueError(f"J must be float32, got {j.dtype}; cast it, e.g. np.asarray(J, dtype=np.float32)")
        finite = bool(np.isfinite(h).all()) and math.isfinite(self.offset)
        symmetric = not np.any(np.diagonal(j) != 0.0)
        magnitude, mixed = 0.0, False
        for rows, cols in _strips(j):  # the row strips cover the upper triangle, which fixes a symmetric J
            size = np.abs(rows)
            top = float(size.max())  # NaN or inf when the strip is not finite
            equal = np.array_equal(rows.T, cols)  # the column strip is read whole only where this fails
            finite = finite and math.isfinite(top) and (equal or bool(np.isfinite(cols).all()))
            symmetric = symmetric and equal
            if top:
                mixed = mixed or magnitude not in (0.0, top) or np.count_nonzero(size) != np.count_nonzero(size == top)
                magnitude = top
        if not finite:
            raise ValueError("J, h and offset must be finite")
        if not symmetric:
            raise ValueError("J must be symmetric with zero diagonal")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "squared_norm", float(np.einsum("ij,ij->", j, j, dtype=np.float64)))
        object.__setattr__(self, "coupling_magnitude", magnitude if magnitude and not mixed else None)

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
        if self.feasible is None:
            raise ValueError("cannot write an unverified solution (feasible is None); verify it first")
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


def qubo_to_ising(problem: QuboProblem) -> IsingProblem:
    """Closed form of ``b = (s+1)/2`` (see the module docstring)."""
    a = problem.graph.adjacency_matrix
    n = len(a)
    deg = a.sum(axis=1)
    # float32 from the start, so no float64 n x n array is made; not
    # -(PENALTY/4) * a, which would put -0.0 on every non-edge
    j = np.where(a, np.float32(-PENALTY / 4.0), np.float32(0.0))
    h = REWARD / 2.0 - PENALTY * deg / 4.0
    return IsingProblem(j=j, h=h, offset=_ising_offset(n, int(deg.sum()) // 2))


def _ising_offset(n_nodes: int, n_edges: int) -> float:
    """``offset`` of the spin form of MIS on a graph of this size (module docstring)."""
    return -n_nodes * REWARD / 2.0 + PENALTY * n_edges / 4.0


def ising_energy(problem: IsingProblem, spins) -> np.ndarray:
    """``E(s)`` of each row of an ``(R, n)`` spin stack as a float64 array,
    all in one pass over J in row blocks."""
    rows = np.asarray(spins, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != problem.n_spins:
        raise ValueError(f"spins must be an (R, {problem.n_spins}) stack; got shape {rows.shape}")
    quad = np.zeros(len(rows))
    for start in range(0, problem.n_spins, _BLOCK_ROWS):
        block = problem.j[start : start + _BLOCK_ROWS]
        js = rows @ block.astype(np.float64).T
        quad += np.einsum("ri,ri->r", rows[:, start : start + len(block)], js)
    return -0.5 * quad - rows @ problem.h


def decode(spins) -> MisSolution:
    """bSB node set where the spin is +1.  Unverified (``feasible=None``)."""
    s = np.asarray(spins)
    if not np.all((s == 1) | (s == -1)):
        raise ValueError("spins must be -1 or +1")
    selected = tuple(int(i) for i in np.flatnonzero(s == 1))
    return MisSolution(selected=selected, feasible=None, source="sb")


def verify(graph: MarketGraph, selected) -> tuple[bool, list[tuple[int, int]]]:
    """Feasibility check: no selected pair adjacent; violated edges listed.

    A node id must be an integer (``operator.index``): 1.5 is not node 1.
    """
    nodes = sorted(set(map(operator.index, selected)))
    for i in nodes:
        if not 0 <= i < graph.n_nodes:
            raise IndexError(f"node {i} out of range [0, {graph.n_nodes})")
    rows, cols = np.nonzero(np.triu(graph.adjacency_matrix[np.ix_(nodes, nodes)], 1))
    violated = [(nodes[r], nodes[c]) for r, c in zip(rows.tolist(), cols.tolist())]
    return (not violated), violated


def _closed_rows(sub: np.ndarray, order: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Float32 closed-neighbourhood rows ``N[order[i]]`` of ``sub``, ``i`` in ``idx``."""
    rows = sub[order[idx]].astype(np.float32)
    rows[np.arange(len(idx)), order[idx]] = 1.0
    return rows


def reduce(graph: MarketGraph) -> tuple[np.ndarray, np.ndarray]:
    """Settle the nodes two standard MIS reductions decide: ``(forced, kernel)``,
    ascending node indices.

    A node ``v`` with a neighbour ``u`` whose closed neighbourhood
    ``N[u]`` lies inside ``N[v]`` is dropped: swapping ``v`` for ``u`` in
    an independent set keeps it independent, so some maximum set avoids
    ``v`` (between twins, ``N[u] == N[v]``, the lower index stays).  A
    leaf's neighbour is dominated by the leaf, so no degree-1 rule is
    needed.  Every dominated node is dropped in one round, which is safe
    because domination is transitive, so each dropped node has a
    dominator that stays; rounds repeat on the survivors until one drops
    nothing.  The survivors with no surviving neighbour are ``forced``:
    some maximum independent set of ``graph`` is ``forced`` plus a
    maximum independent set of the graph induced on ``kernel``, which has
    neither an isolated nor a dominated node.

    ``u`` dominates ``v`` exactly when ``|N[u] & N[v]| == |N[u]|`` (then
    ``u`` lies in ``N[v]``, so the two are adjacent), counted by a float32
    product of closed-neighbourhood rows, exact below 2**24 nodes.  The
    rows are sorted by closed degree (stable, so twins keep index order),
    and a dominator never comes after what it dominates, so a block of live
    rows meets only the live rows from it on, both gathered from the bool
    matrix a chunk at a time: no m x m float32 matrix is made.
    """
    sub = graph.adjacency_matrix  # the graph induced on nodes
    nodes = np.arange(graph.n_nodes)
    while True:
        m = len(nodes)
        degree = np.count_nonzero(sub, axis=1)
        order = np.argsort(degree, kind="stable")
        closed = (degree[order] + 1).astype(np.float32)
        dominated = np.zeros(m, dtype=bool)
        start = 0
        while (rest := start + np.flatnonzero(~dominated[start:])).size:
            # a dominated row dominates only what its own dominator, an earlier row, does
            live = rest[:_DOMINATION_ROWS]
            start = live[-1] + 1
            block = _closed_rows(sub, order, live)
            for first in range(0, rest.size, _DOMINATION_ROWS):
                cols = rest[first : first + _DOMINATION_ROWS]
                hits = block @ _closed_rows(sub, order, cols).T == closed[live, None]
                # every row contains itself, and of two twins the later one drops
                dominated[cols] |= (hits & (cols > live[:, None])).any(axis=0)
        if not dominated.any():
            break
        keep = np.ones(m, dtype=bool)
        keep[order[dominated]] = False
        nodes = nodes[keep]
        sub = sub[np.ix_(keep, keep)]
    isolated = degree == 0
    return nodes[isolated], nodes[~isolated]


def _min_degree_order(adjacency: np.ndarray):
    """Yield min-degree nodes of the shrinking residual graph (lowest index wins ties).

    Once the minimum residual degree is 0, every isolated live node is
    yielded in index order in one step: removing an isolated node changes
    no other degree, so these are exactly the next picks.
    """
    rows = adjacency.view(np.uint8)
    deg = np.add.reduce(rows, axis=1, dtype=np.int32)
    alive = np.ones(len(rows), dtype=bool)
    left = len(rows)
    while left:
        best = int(deg.argmin())
        if deg[best] == 0:
            # a removed node's degree stays far above 0, so these are live
            idx = (deg == 0).nonzero()[0]
            yield from idx.tolist()
        else:
            yield best
            removed = alive & adjacency[best]
            removed[best] = True
            idx = removed.nonzero()[0]
            deg -= np.add.reduce(rows[idx], axis=0, dtype=np.int32)
        alive[idx] = False
        deg[idx] = _NEVER_PICKED
        left -= len(idx)


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
    (seconds, positive), which aborts with :class:`SolveTimeout`.
    """
    if time_budget is not None and not time_budget > 0:  # a NaN budget would never time out
        raise ValueError(f"time_budget must be positive seconds or None, got {time_budget!r}")
    n = graph.n_nodes
    if n > node_limit:
        raise GraphTooLargeError(
            f"{n} nodes exceeds node_limit={node_limit}; raise it explicitly for larger graphs"
        )
    adjacency = graph.adjacency
    incumbent = solve_greedy(graph)
    best_size = incumbent.size
    best_mask = 0
    for i in incumbent.selected:
        best_mask |= 1 << i
    deadline = None if time_budget is None else time.perf_counter() + time_budget

    # depth first: each branch pushes its exclude child, then its include
    # child, so the include side is searched first
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        candidates, chosen, size = stack.pop()
        if deadline is not None and time.perf_counter() > deadline:
            raise SolveTimeout(f"exact MIS solve exceeded {time_budget} s")
        # one pass: absorb isolated candidates (every maximum set contains
        # them, and dropping one changes no other degree) and find a
        # maximum-degree candidate, lowest index on ties
        v, vdeg = -1, 0
        m = candidates
        while m:
            low = m & -m
            u = low.bit_length() - 1
            d = (adjacency[u] & candidates).bit_count()
            if d == 0:
                chosen |= low
                size += 1
                candidates ^= low
            elif d > vdeg:
                v, vdeg = u, d
            m ^= low
        if v < 0:
            if size > best_size:
                best_size, best_mask = size, chosen
            continue
        if size + _clique_cover_bound(candidates, adjacency) <= best_size:
            continue
        vbit = 1 << v
        stack.append((candidates & ~vbit, chosen, size))
        stack.append((candidates & ~vbit & ~adjacency[v], chosen | vbit, size + 1))

    selected = tuple(i for i in range(n) if best_mask >> i & 1)
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
