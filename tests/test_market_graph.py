import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misfolio.market_graph import (
    MarketGraph,
    build_graph,
    edge_density,
    graph_from_edges,
    read_edge_list,
    write_edge_list,
)
from misfolio.timeseries import CorrelationMatrix, correlation, log_returns, synth_panel


def corr_from(values):
    values = np.asarray(values, dtype=float)
    return CorrelationMatrix(tickers=tuple(f"T{i}" for i in range(values.shape[0])), values=values)


def three_stock_corr():
    # pairwise correlations 0.3, 0.1, 0.25
    return corr_from([[1.0, 0.3, 0.1], [0.3, 1.0, 0.25], [0.1, 0.25, 1.0]])


def test_threshold_of_one_gives_empty_graph():
    g = build_graph(three_stock_corr(), 1.0)
    assert g.n_edges == 0


@pytest.mark.parametrize("theta", [math.nan, 1.1, -1.5, math.inf])
def test_threshold_outside_minus_one_to_one_is_rejected(theta):
    with pytest.raises(ValueError, match=r"theta must lie in \[-1, 1\]"):
        build_graph(three_stock_corr(), theta)


def test_threshold_minus_one_gives_complete_graph():
    g = build_graph(three_stock_corr(), -1.0)
    assert g.n_edges == 3
    assert edge_density(g) == 1.0


def test_threshold_is_inclusive():
    g = build_graph(three_stock_corr(), 0.25)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]  # equality at 0.25 kept


def test_no_self_loops_even_with_unit_diagonal():
    g = build_graph(three_stock_corr(), -1.0)
    assert not g.adjacency_matrix.diagonal().any()


def test_edge_density_examples():
    complete4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert edge_density(complete4) == 1.0
    empty = graph_from_edges(5, [])
    assert edge_density(empty) == 0.0
    path3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert edge_density(path3) == pytest.approx(2 / 3)


def test_edge_density_undefined_below_two_nodes():
    with pytest.raises(ValueError):
        edge_density(graph_from_edges(1, []))


def test_degree_examples():
    star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert star.degree(0) == 4
    assert star.degree(1) == 1
    isolated = graph_from_edges(3, [(0, 1)])
    assert isolated.degree(2) == 0
    g = build_graph(three_stock_corr(), 0.25)
    assert g.degree(1) == 2


def test_degree_out_of_range():
    g = graph_from_edges(3, [])
    with pytest.raises(IndexError):
        g.degree(3)
    with pytest.raises(IndexError):
        g.degree(-1)


@given(st.integers(0, 2**32 - 1), st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=50, deadline=None)
def test_edges_shrink_as_threshold_rises(seed, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1, 1, (6, 6))
    c = (raw + raw.T) / 2
    np.fill_diagonal(c, 1.0)
    loose = set(build_graph(corr_from(c), lo).edges())
    tight = set(build_graph(corr_from(c), hi).edges())
    assert tight <= loose


def test_build_respects_relabeling():
    rng = np.random.default_rng(12)
    raw = rng.uniform(-1, 1, (5, 5))
    c = (raw + raw.T) / 2
    np.fill_diagonal(c, 1.0)
    perm = np.array([3, 0, 4, 1, 2])
    g = build_graph(corr_from(c), 0.1)
    gp = build_graph(corr_from(c[np.ix_(perm, perm)]), 0.1)
    relabeled = {tuple(sorted((int(np.where(perm == i)[0][0]), int(np.where(perm == j)[0][0])))) for i, j in g.edges()}
    assert set(gp.edges()) == relabeled


def test_adjacency_bitmasks_match_matrix():
    g = graph_from_edges(10, [(0, 1), (2, 7), (3, 9), (0, 9)])
    m = g.adjacency_matrix
    assert m.shape == (10, 10) and m.dtype == bool
    assert not m.flags.writeable
    assert len(g.adjacency) == 10
    for i in range(10):
        for j in range(10):
            assert bool(g.adjacency[i] >> j & 1) == bool(m[i, j])
        assert g.adjacency[i] >> 10 == 0


def test_asymmetric_correlation_is_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        build_graph(corr_from([[1.0, 0.5, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]]), 0.3)


@pytest.mark.parametrize(
    "matrix, tickers",
    [
        ([[False, True], [False, False]], ("a", "b")),  # not symmetric
        ([[True, False], [False, False]], ("a", "b")),  # self-loop
        ([[0, 1], [1, 0]], ("a", "b")),  # not bool
        ([[False, True], [True, False]], ("a", "b", "c")),  # one row per ticker
        ([[False, True]], ("a",)),  # not square
    ],
)
def test_market_graph_rejects_malformed_matrix(matrix, tickers):
    with pytest.raises(ValueError):
        MarketGraph(tickers=tickers, theta=0.0, adjacency_matrix=np.array(matrix))


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.4]
    g = graph_from_edges(8, edges, theta=0.23)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.n_nodes == g.n_nodes
    assert back.theta == g.theta
    assert back.adjacency == g.adjacency


def test_market_graph_edge_list_reads_back_equal(tmp_path):
    panel = synth_panel(120, 300, 3, seed=21)
    returns = log_returns(panel)
    g = build_graph(correlation(returns, returns.n_rows), 0.25)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.theta == g.theta and back.tickers == tuple(str(i) for i in range(120))
    assert g.n_edges > 1000
    assert np.array_equal(back.adjacency_matrix, g.adjacency_matrix)


def test_edge_list_layouts_read_as_the_line_parser_reads_them(tmp_path):
    # blank lines, CRLF, tabs, and 1_0, which loadtxt refuses and int() reads as 10
    path = tmp_path / "graph.txt"
    expected = graph_from_edges(11, [(0, 1), (10, 2)]).adjacency
    for text in ("11 0.5\n0 1\n10 2\n", "11 0.5\r\n0 1\r\n\r\n  10\t2  \r\n", "11 0.5\n0 1\n1_0 2\n"):
        path.write_bytes(text.encode())
        assert read_edge_list(path).adjacency == expected
    path.write_text("11 0.5\n0 1\n\n   \n3 4 5\n")
    with pytest.raises(ValueError, match="graph.txt: line 5: expected"):
        read_edge_list(path)


def test_graph_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 5)])


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (2, 2), (0, 7)], "self-loop at node 2"),
        ([(0, 1), (0, 7), (2, 2)], r"edge \(0, 7\) out of range for n=3"),
        ([(-1, 1)], r"edge \(-1, 1\) out of range for n=3"),
        ([(0, 1, 2)], r"integer \(i, j\) pairs"),
        ([(0.0, 1.0)], r"integer \(i, j\) pairs"),
    ],
    ids=["self-loop", "out-of-range", "negative", "triple", "float"],
)
def test_graph_from_edges_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        graph_from_edges(3, edges)


@pytest.mark.parametrize(
    "text, line",
    [
        ("x 0.2\n", 1),  # node count not an integer
        ("-3 0.2\n", 1),  # negative node count
        ("3 high\n", 1),  # theta not a number
        ("3\n", 1),  # theta missing
        ("3 0.2\n0 1\n1 b\n", 3),  # edge endpoint not an integer
        ("3 0.2\n0 5\n", 2),  # edge endpoint out of range
        ("3 0.2\n1 1\n", 2),  # self-loop
        ("3 0.2\n0 1.5\n", 2),  # edge endpoint a float
        ("3 0.2\n0 1\n2 1e0\n", 3),  # edge endpoint in float notation
    ],
)
# numpy's own warnings at their default filter, as outside the test suite
@pytest.mark.filterwarnings("default")
def test_read_edge_list_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"graph.txt: line {line}: expected"):
        read_edge_list(path)


def test_float_edge_text_is_an_error_where_loadtxt_would_truncate_it(tmp_path, monkeypatch):
    # some numpy releases read "1.5" into an int64 column as 1, with only a DeprecationWarning
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda fname, dtype, **kw: loadtxt(fname, dtype=float, **kw).astype(dtype))
    path = tmp_path / "graph.txt"
    path.write_text("4 0.2\n0 1.5\n2 3.9\n")
    with pytest.raises(ValueError, match="graph.txt: line 2: expected"):
        read_edge_list(path)
    path.write_text("4 0.2\n0 1\n2 3\n")
    assert read_edge_list(path).adjacency == graph_from_edges(4, [(0, 1), (2, 3)]).adjacency
