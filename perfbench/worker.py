"""One workload in a fresh process: set up, time operations, check outputs.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this script; it prints one JSON object on stdout.  Set-up
is importing ``misfolio`` (numpy is already loaded) and generating the panel.  Operations repeat
until the next one would end past ``--seconds`` (at least two run).  With
``--trace 1`` every second operation is traced, so the untraced ones in
between give the tracing overhead.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy  # noqa: F401  (loaded before the set-up clock starts; it is not misfolio)

from tracer import Tracer, op_metrics, tree_error

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: largest allowed |sum of self times - root span| per traced operation
TREE_TOLERANCE_S = 1e-6


def measure(wl, panel, ref, seconds: float, tracer) -> dict:
    walls, traced_walls, sizes, failures, per_op = [], [], [], [], []
    attempted = failed = 0
    tree_err = 0.0
    # two at least: the first operation's peak memory is below the steady one
    min_ops = 2
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start + statistics.median(walls) <= seconds:
        op = attempted
        traced = tracer is not None and op % 2 == 1
        attempted += 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op(op) as root:
                    output = wl.run(panel)
                wall = root.duration
            else:
                output = wl.run(panel)
                wall = time.perf_counter() - t0
            fails = wl.check(panel, output, ref)
            sizes.append(wl.sizes(output, ref))
        except Exception as exc:  # a raising operation counts as failed
            wall = time.perf_counter() - t0
            fails = ["".join(traceback.format_exception_only(exc)).strip()]
        output = None  # so peak memory is that of one operation
        if traced:
            spans = [s for s in tracer.spans if s.op == op]
            err = tree_error(spans, wall)
            tree_err = max(tree_err, err)
            if err > TREE_TOLERANCE_S:
                fails.append(f"self times miss the wall time by {err:.3g} s")
            per_op.append(op_metrics(spans))
            traced_walls.append(wall)
        else:
            walls.append(wall)
        if fails:
            failed += 1
            failures += [f"op {op}: {msg}" for msg in fails[:5]]

    layers = {}
    if per_op:
        layers = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        layers["trace.overhead_share"] = (min(traced_walls) - min(walls)) / min(walls)
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "set_size": statistics.median(s for s, _ in sizes) if sizes else 0.0,
        "baseline_size": statistics.median(b for _, b in sizes) if sizes else 0.0,
        "layers": layers,
        "tree_error_s": tree_err,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import misfolio
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    panel = wl.make_panel(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ref = wl.reference(panel)
    tracer = Tracer(misfolio) if args.trace else None
    result = measure(wl, panel, ref, args.seconds, tracer)
    result["setup_s"] = setup_s
    result["baseline"] = wl.baseline
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
