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
from misfolio.timeseries import CorrelationMatrix


def corr_from(values):
    values = np.asarray(values, dtype=float)
    return CorrelationMatrix(tickers=tuple(f"T{i}" for i in range(values.shape[0])), values=values)


def three_stock_corr():
    # pairwise correlations 0.3, 0.1, 0.25
    return corr_from([[1.0, 0.3, 0.1], [0.3, 1.0, 0.25], [0.1, 0.25, 1.0]])


def test_threshold_above_one_gives_empty_graph():
    g = build_graph(three_stock_corr(), 1.1)
    assert g.n_edges == 0


def test_threshold_minus_one_gives_complete_graph():
    g = build_graph(three_stock_corr(), -1.0)
    assert g.n_edges == 3
    assert edge_density(g) == 1.0


def test_threshold_is_inclusive():
    g = build_graph(three_stock_corr(), 0.25)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]  # equality at 0.25 kept


def test_no_self_loops_even_with_unit_diagonal():
    g = build_graph(three_stock_corr(), -1.0)
    assert all(not g.has_edge(i, i) for i in range(3))


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
            assert bool(g.adjacency[i] >> j & 1) == bool(m[i, j]) == g.has_edge(i, j)
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


def test_graph_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 5)])


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
    ],
)
def test_read_edge_list_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"graph.txt: line {line}: expected"):
        read_edge_list(path)
