"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import misfolio  # noqa: E402
import workloads  # noqa: E402
from run import highest_percentile, nearest_rank  # noqa: E402
from tracer import Span, Tracer, op_metrics, self_times, tree_error  # noqa: E402
from worker import measure  # noqa: E402


def span(i, name, start, end, parent):
    return Span(i, name, name.split(".")[0], start, end, parent, 0)


def test_self_time_of_nested_spans():
    spans = [
        span(0, "bench.op", 0.0, 10.0, None),
        span(1, "backtest.run_backtest", 1.0, 4.0, 0),
        span(2, "timeseries.correlation", 2.0, 3.0, 1),
        span(3, "sb_solver.sb_solve", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert tree_error(spans, 10.0) == 0.0
    m = op_metrics(spans)
    assert (m["bench.self_s"], m["backtest.self_s"], m["timeseries.self_s"], m["sb_solver.self_s"]) == (
        3.0, 2.0, 1.0, 4.0,
    )
    assert m["timeseries.correlation.s"] == 1.0 and m["timeseries.correlation.calls"] == 1


def test_overlapping_or_escaping_children_break_the_sum():
    overlap = [
        span(0, "bench.op", 0.0, 10.0, None),
        span(1, "timeseries.correlation", 1.0, 4.0, 0),
        span(2, "timeseries.volatility", 3.0, 5.0, 0),
    ]
    # the union covers 4 s of the root, but the children's self times add to 5 s
    assert self_times(overlap)[0] == 6.0
    assert tree_error(overlap, 10.0) == pytest.approx(1.0)
    escape = [span(0, "bench.op", 0.0, 10.0, None), span(1, "timeseries.correlation", 8.0, 12.0, 0)]
    assert tree_error(escape, 10.0) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50), (99, 50), (100, 90), (199, 90), (200, 95), (1000, 99), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 50) == 50
    assert nearest_rank([3.0], 50) == 3.0


def test_tracer_records_spans_and_restores_the_library():
    from misfolio import market_graph, sb_solver

    before = {name: getattr(sb_solver, name) for name in ("sb_solve", "to_qubo", "verify", "repair_solution")}
    graph = market_graph.graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
    params = sb_solver.SbParams(n_steps=50, restarts=3)
    tracer = Tracer(misfolio)
    with tracer.op(7) as root:
        sb_solver.solve_mis_sb_runs(graph, params)
    assert {name: getattr(sb_solver, name) for name in before} == before
    names = [s.name for s in tracer.spans]
    assert names[:4] == ["bench.op", "sb_solver.solve_mis_sb_runs", "mis_qubo.to_qubo", "mis_qubo.qubo_to_ising"]
    assert all(s.op == 7 for s in tracer.spans)
    assert tree_error(tracer.spans, root.duration) < 1e-9
    m = op_metrics(tracer.spans)
    assert m["sb_solver.restart_steps"] == 150
    assert m["sb_solver.flops_computed"] == 2 * 36 * 150
    assert m["sb_solver.flop_per_byte"] == 0.25
    assert m["mis_qubo.verify.calls"] == 3


def test_repair_spans_count_in_mis_qubo():
    from misfolio import market_graph, sb_solver

    complete = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    graph = market_graph.graph_from_edges(6, complete)
    tracer = Tracer(misfolio)
    with tracer.op(0) as root:
        best, _ = sb_solver.solve_mis_sb_runs(graph, sb_solver.SbParams(n_steps=1, restarts=3), repair=True)
    assert best.feasible is True
    infeasible = sum(1 for s in tracer.spans if s.name == "mis_qubo.verify" and not s.counts["ok"])
    repairs = [s.layer for s in tracer.spans if s.name == "mis_qubo.repair"]
    assert repairs == ["mis_qubo"] * infeasible and infeasible > 0
    assert tree_error(tracer.spans, root.duration) < 1e-9


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = [span(0, "bench.op", 0.0, 1.0, None)]
    assert {m["name"] for m in spec["per_layer"]} == set(op_metrics(spans)) | {"trace.overhead_share"}
    assert {w["name"] for w in spec["workloads"]} < set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def small_backtest():
    panel = misfolio.synth_panel(12, 330, 3, 5)
    return panel, workloads.backtest_reference(panel), workloads.backtest_run(panel)


def corrupted(wl, change):
    """The workload with ``change`` applied to each output."""
    return dataclasses.replace(wl, run=lambda panel: change(wl.run(panel)))


def test_clean_backtest_passes(small_backtest):
    panel, ref, report = small_backtest
    assert len(report.months) >= 3
    assert workloads.backtest_check(panel, report, ref) == []


def test_corrupted_accounting_fails_and_counts(small_backtest):
    panel, ref, _ = small_backtest

    def bump_cost(report):
        month = next(m for m in report.months[1:] if m.feasible)
        month.cost *= 1.5
        return report

    fails = workloads.backtest_check(panel, bump_cost(workloads.backtest_run(panel)), ref)
    assert any("cost_rate x turnover" in f for f in fails)
    wl = corrupted(workloads.WORKLOADS["backtest_sb"], bump_cost)
    res = measure(wl, panel, ref, 0.0, None)
    assert (res["attempted"], res["failed"]) == (2, 2)


def test_corrupted_selection_fails(small_backtest):
    panel, ref, _ = small_backtest

    def add_neighbour(report):
        for month, graph in zip(report.months, ref["graphs"]):
            chosen = [panel.tickers.index(t) for t in month.weights]
            for i in chosen:
                if graph.adjacency[i]:
                    j = graph.neighbors(i)[0]
                    month.weights = {**month.weights, panel.tickers[j]: 0.0}
                    return report
        raise AssertionError("no selected node has a neighbour")

    fails = workloads.backtest_check(panel, add_neighbour(workloads.backtest_run(panel)), ref)
    assert any("violates edges" in f for f in fails)


def test_raising_operation_counts_as_failed(small_backtest):
    panel, ref, _ = small_backtest

    def boom(panel):
        raise ValueError("boom")

    wl = dataclasses.replace(workloads.WORKLOADS["backtest_sb"], run=boom)
    res = measure(wl, panel, ref, 0.0, None)
    assert (res["attempted"], res["failed"]) == (2, 2)
    assert "boom" in res["failures"][0]


def test_solve_check_needs_a_feasible_best_set():
    panel = misfolio.synth_panel(30, 300, 3, 2)
    ref = workloads.solve_reference(panel)
    graph, best, runs = workloads.solve_run(panel)
    assert workloads.solve_check(panel, (graph, best, runs), ref) == []
    fails = workloads.solve_check(panel, (graph, misfolio.mis_qubo.NO_FEASIBLE, runs), ref)
    assert any("no feasible best set" in f for f in fails)
    i = next(i for i in best.selected if graph.adjacency[i])
    bad = dataclasses.replace(best, selected=(*best.selected, graph.neighbors(i)[0]))
    assert any("violates edges" in f for f in workloads.solve_check(panel, (graph, bad, runs), ref))


def test_sweep_check_catches_a_wrong_row():
    panel = misfolio.synth_panel(8, 830, 2, 3)
    ref = workloads.sweep_reference(panel)
    rows = workloads.sweep_run(panel)
    assert workloads.sweep_check(panel, rows, ref) == []
    rows[4].density_avg = rows[0].density_avg + 0.5
    fails = workloads.sweep_check(panel, rows, ref)
    assert any("density_avg increases" in f for f in fails)
    assert any("!= reference" in f for f in fails)
    rows[5].error = "DataError: x"
    assert any("error cell" in f for f in workloads.sweep_check(panel, rows, ref))
