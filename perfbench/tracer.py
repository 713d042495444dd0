"""In-memory spans around the library's public functions.

The tracer never edits the library.  It replaces a function at the module
attribute its caller looks up (``misfolio.sb_solver.to_qubo`` is what
``solve_mis_sb_runs`` calls, ``misfolio.timeseries.correlation`` is what
``run_backtest`` calls) and restores the original afterwards.  Each call
becomes one span record: name, layer, start, end, parent span, operation
id, plus the counts taken at that boundary.  Records stay in a list until
the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

#: (module, attribute) pairs wrapped in a traced operation.  The layer of a
#: span is the module that defines the function, not the one it is looked
#: up in.
WRAP_POINTS = (
    ("timeseries", "log_returns"),
    ("timeseries", "correlation"),
    ("timeseries", "volatility"),
    ("market_graph", "build_graph"),
    ("market_graph", "edge_density"),
    ("mis_qubo", "solve_greedy"),
    ("mis_qubo", "solve_exact"),
    ("sb_solver", "solve_mis_sb_runs"),
    ("sb_solver", "to_qubo"),
    ("sb_solver", "qubo_to_ising"),
    ("sb_solver", "sb_solve"),
    ("sb_solver", "verify"),
    ("sb_solver", "repair_solution"),
    ("backtest", "sweep_theta"),
    ("backtest", "run_backtest"),
    ("backtest", "solve_mis_sb"),
    ("backtest", "weights_ew"),
    ("backtest", "weights_ivw"),
    ("backtest", "rebalance"),
    ("backtest", "summarize"),
)

LAYERS = ("timeseries", "market_graph", "mis_qubo", "sb_solver", "backtest")
ROOT = "bench.op"
SOLVERS = ("sb_solver.solve_mis_sb", "mis_qubo.solve_greedy", "mis_qubo.solve_exact")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float | None
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_sb_solve(args: dict, result) -> dict:
    n = args["problem"].n_spins
    steps = len(result) * args["params"].n_steps
    return {"restart_steps": steps, "flops": 2 * n * n * steps, "bytes": 8 * n * n * steps}


def _count_verify(args: dict, result) -> dict:
    return {"ok": int(result[0])}


def _count_backtest(args: dict, result) -> dict:
    return {"hold_months": sum(1 for m in result.months if not m.feasible)}


COUNTERS = {
    "sb_solver.sb_solve": _count_sb_solve,
    "mis_qubo.verify": _count_verify,
    "backtest.run_backtest": _count_backtest,
}


class Tracer:
    """Collects spans for the operations run inside :meth:`op`."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), None, parent, self._op)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str) -> None:
        """Replace ``module.attr`` by a span-recording wrapper."""
        orig = getattr(module, attr)
        layer = orig.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{orig.__name__}"
        counter = COUNTERS.get(name)
        sig = inspect.signature(orig) if counter else None

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                span.counts = counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        self._saved.append((module, attr, orig))
        setattr(module, attr, traced)

    @contextmanager
    def op(self, op_id: int):
        """Trace one operation: wrap the library, open the root span, restore."""
        for mod_name, attr in WRAP_POINTS:
            self.wrap(getattr(self.package, mod_name), attr)
        self._op = op_id
        root = self._open(ROOT, "bench")
        try:
            yield root
        finally:
            self._close(root)
            self._op = None
            while self._saved:
                module, attr, orig = self._saved.pop()
                setattr(module, attr, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {s.id: [] for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            p = by_id[s.parent]
            children[p.id].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.duration - covered(children[s.id]) for s in spans}


def tree_error(spans: list[Span], wall: float) -> float:
    """|sum of self times - wall|; zero when children nest without overlap."""
    return abs(sum(self_times(spans).values()) - wall)


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans (root included)."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in (*LAYERS, "bench")}
    solve_calls = 0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        layer_self[s.layer] += selfs[s.id]
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v
        if s.name in SOLVERS and s.parent is not None and by_id[s.parent].layer == "backtest":
            solve_calls += 1

    sb_s = busy.get("sb_solver.sb_solve", 0.0)
    steps = counts.get("restart_steps", 0)
    flops = counts.get("flops", 0)
    nbytes = counts.get("bytes", 0)
    n_verify = calls.get("mis_qubo.verify", 0)
    out = {
        "timeseries.log_returns.calls": calls.get("timeseries.log_returns", 0),
        "timeseries.correlation.calls": calls.get("timeseries.correlation", 0),
        "timeseries.correlation.s": busy.get("timeseries.correlation", 0.0),
        "timeseries.volatility.calls": calls.get("timeseries.volatility", 0),
        "timeseries.volatility.s": busy.get("timeseries.volatility", 0.0),
        "market_graph.build_graph.calls": calls.get("market_graph.build_graph", 0),
        "market_graph.build_graph.s": busy.get("market_graph.build_graph", 0.0),
        "mis_qubo.to_qubo.s": busy.get("mis_qubo.to_qubo", 0.0),
        "mis_qubo.qubo_to_ising.s": busy.get("mis_qubo.qubo_to_ising", 0.0),
        "mis_qubo.verify.calls": n_verify,
        "mis_qubo.verify.ok_share": counts.get("ok", 0) / n_verify if n_verify else 0.0,
        "mis_qubo.solve_greedy.calls": calls.get("mis_qubo.solve_greedy", 0),
        "mis_qubo.solve_greedy.s": busy.get("mis_qubo.solve_greedy", 0.0),
        "sb_solver.sb_solve.calls": calls.get("sb_solver.sb_solve", 0),
        "sb_solver.sb_solve.s": sb_s,
        "sb_solver.restart_steps": steps,
        "sb_solver.step_us": 1e6 * sb_s / steps if steps else 0.0,
        "sb_solver.flops_computed": flops,
        "sb_solver.bytes_computed": nbytes,
        "sb_solver.flop_per_byte": flops / nbytes if nbytes else 0.0,
        "sb_solver.gflops": flops / sb_s / 1e9 if sb_s else 0.0,
        "backtest.rebalance.calls": calls.get("backtest.rebalance", 0),
        "backtest.rebalance.s": busy.get("backtest.rebalance", 0.0),
        "backtest.solve_calls": solve_calls,
        "backtest.hold_months": counts.get("hold_months", 0),
        "trace.spans": len(spans),
    }
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    return out
