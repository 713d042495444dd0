"""Threshold market graph over a stock universe.

Nodes are stocks; an (undirected) edge joins ``i`` and ``j`` whenever their
return correlation is greater than or equal to the threshold.  The graph is
its read-only boolean adjacency matrix; exact branch and bound alone works
on per-node Python-int bitmasks packed from it.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .timeseries import CorrelationMatrix

#: a character that no edge line ``i j`` of plain decimal integers holds
_NOT_INTEGER_TEXT = re.compile(r"[^0-9+\- \t\n]")


@dataclass(frozen=True, eq=False)
class MarketGraph:
    """Simple undirected graph; ``adjacency_matrix[i, j]`` is True iff i~j.

    The matrix must be a square bool array, symmetric with a zero diagonal,
    with one row per ticker.
    """

    tickers: tuple[str, ...]
    theta: float
    adjacency_matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency_matrix)
        n = len(self.tickers)
        if a.dtype != np.bool_ or a.shape != (n, n):
            raise ValueError(
                f"adjacency_matrix must be a ({n}, {n}) bool array, one row per ticker; "
                f"got dtype {a.dtype}, shape {a.shape}"
            )
        if a.diagonal().any() or not np.array_equal(a, a.T):
            raise ValueError("adjacency_matrix must be symmetric with a zero diagonal")
        a = a.view()
        a.flags.writeable = False
        object.__setattr__(self, "adjacency_matrix", a)

    @property
    def n_nodes(self) -> int:
        return len(self.tickers)

    def degree(self, node: int) -> int:
        self._check(node)
        return int(np.count_nonzero(self.adjacency_matrix[node]))

    def neighbors(self, node: int) -> tuple[int, ...]:
        self._check(node)
        return tuple(np.flatnonzero(self.adjacency_matrix[node]).tolist())

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency_matrix)) // 2

    def edges(self):
        """Each edge once as ``(i, j)`` with ``i < j``, in row-major order."""
        rows, cols = np.nonzero(np.triu(self.adjacency_matrix, 1))
        yield from zip(rows.tolist(), cols.tolist())

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-node bitmasks packed from the matrix: bit ``j`` of ``adjacency[i]`` is set iff i~j."""
        packed = np.packbits(self.adjacency_matrix, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range [0, {self.n_nodes})")


def build_graph(corr: CorrelationMatrix, theta: float) -> MarketGraph:
    """Connect i and j (i != j) whenever ``corr[i, j] >= theta`` (inclusive).

    ``theta`` must lie in [-1, 1]: a NaN would leave every pair unconnected.
    """
    if not -1.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [-1, 1], got {theta!r}")
    mask = corr.values >= theta
    np.fill_diagonal(mask, False)
    return MarketGraph(tickers=tuple(corr.tickers), theta=float(theta), adjacency_matrix=mask)


def graph_from_edges(n_nodes: int, edges, theta: float = 0.0) -> MarketGraph:
    """Build a graph on tickers ``"0" .. "n-1"`` from (i, j) pairs; self-loops rejected.

    A bad edge raises ValueError naming the first one in ``edges``.
    """
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError(f"edges must be integer (i, j) pairs; got dtype {pairs.dtype}, shape {pairs.shape}")
    i, j = pairs.T
    bad = (i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n_nodes)
    if bad.any():
        first = int(np.argmax(bad))
        i, j = int(i[first]), int(j[first])
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        raise ValueError(f"edge ({i}, {j}) out of range for n={n_nodes}")
    a = np.zeros((n_nodes, n_nodes), dtype=bool)
    a[i, j] = True
    a[j, i] = True
    tickers = tuple(str(i) for i in range(n_nodes))
    return MarketGraph(tickers=tickers, theta=float(theta), adjacency_matrix=a)


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
    """Parse the format :func:`write_edge_list` writes; malformed lines name the file and line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            n_text, theta_text = header
            n, theta = int(n_text), float(theta_text)
        except ValueError:
            n = -1  # rejected below, together with a negative count
        if n < 0:
            raise ValueError(
                f"{path}: line 1: expected header 'n_nodes theta' with a non-negative integer "
                f"node count and a numeric theta, got {' '.join(header)!r}"
            )
        body = fh.read()
    # One pass when every line is a valid edge.  Only on ASCII digits, signs and
    # blanks, where loadtxt reads what int() reads or fails: some numpy releases
    # read "1.5" as 1 with only a DeprecationWarning.
    if not _NOT_INTEGER_TEXT.search(body):
        try:
            # loadtxt warns on an empty body
            pairs = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None) if body.strip() else []
            return graph_from_edges(n, pairs, theta=theta)
        except ValueError:
            pass  # parsed again line by line, which names the first bad line
    edges = []
    for lineno, line in enumerate(body.split("\n"), start=2):
        parts = line.split()
        if not parts:
            continue
        try:
            i, j = (int(part) for part in parts)
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: expected 'i j', two distinct nodes in [0, {n}), "
                f"got {line.strip()!r}"
            ) from None
        edges.append((i, j))
    return graph_from_edges(n, edges, theta=theta)
