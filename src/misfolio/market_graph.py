"""Threshold market graph over a stock universe.

Nodes are stocks; an (undirected) edge joins ``i`` and ``j`` whenever their
return correlation is greater than or equal to the threshold.  Adjacency is
stored as one Python-int bitmask per node, which keeps degree counting,
independence checks and the combinatorial solvers at O(n^2 / wordsize).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .timeseries import CorrelationMatrix


@dataclass(frozen=True)
class MarketGraph:
    """Simple undirected graph; ``adjacency[i]`` has bit ``j`` set iff i~j."""

    n_nodes: int
    tickers: tuple[str, ...]
    theta: float
    adjacency: tuple[int, ...]

    def __post_init__(self):
        if len(self.adjacency) != self.n_nodes or len(self.tickers) != self.n_nodes:
            raise ValueError("adjacency/tickers length must equal n_nodes")

    def degree(self, node: int) -> int:
        self._check(node)
        return self.adjacency[node].bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        self._check(i)
        self._check(j)
        return bool(self.adjacency[i] >> j & 1)

    def neighbors(self, node: int) -> tuple[int, ...]:
        self._check(node)
        return tuple(_iter_bits(self.adjacency[node]))

    @property
    def n_edges(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def edges(self):
        for i, mask in enumerate(self.adjacency):
            for j in _iter_bits(mask >> (i + 1)):
                yield (i, i + 1 + j)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 float64 matrix unpacked from the bitmask rows (read-only)."""
        n = self.n_nodes
        nbytes = (n + 7) // 8
        out = np.empty((n, n), dtype=np.float64)
        for i, mask in enumerate(self.adjacency):
            raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
            out[i] = np.unpackbits(raw, bitorder="little")[:n]
        out.flags.writeable = False
        return out

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range [0, {self.n_nodes})")


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pack_rows(mask: np.ndarray) -> tuple[int, ...]:
    """Pack a boolean matrix into per-row Python-int bitmasks."""
    packed = np.packbits(mask.astype(np.uint8), axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def build_graph(corr: CorrelationMatrix, theta: float) -> MarketGraph:
    """Connect i and j (i != j) whenever ``corr[i, j] >= theta`` (inclusive)."""
    c = corr.values
    mask = c >= theta
    np.fill_diagonal(mask, False)
    return MarketGraph(
        n_nodes=len(corr.tickers),
        tickers=tuple(corr.tickers),
        theta=float(theta),
        adjacency=pack_rows(mask),
    )


def graph_from_edges(n_nodes: int, edges, theta: float = 0.0, tickers=None) -> MarketGraph:
    """Build a graph from an iterable of (i, j) pairs; self-loops rejected."""
    adj = [0] * n_nodes
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n_nodes}")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if tickers is None:
        tickers = tuple(str(i) for i in range(n_nodes))
    return MarketGraph(n_nodes=n_nodes, tickers=tuple(tickers), theta=float(theta), adjacency=tuple(adj))


def edge_density(graph: MarketGraph) -> float:
    """Realized fraction of the n(n-1)/2 possible edges."""
    n = graph.n_nodes
    if n < 2:
        raise ValueError("edge density undefined for fewer than 2 nodes")
    return graph.n_edges / (n * (n - 1) / 2)


def write_edge_list(graph: MarketGraph, path) -> None:
    """Text export: header ``n_nodes theta`` then one ``i j`` pair per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n_nodes} {graph.theta!r}\n")
        for i, j in graph.edges():
            fh.write(f"{i} {j}\n")


def read_edge_list(path) -> MarketGraph:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'n_nodes theta'")
        n = int(header[0])
        theta = float(header[1])
        edges = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'i j'")
            edges.append((int(parts[0]), int(parts[1])))
    return graph_from_edges(n, edges, theta=theta)
