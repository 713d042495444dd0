"""misfolio benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload solve_2048 --seed 0 --seconds 40 --trace 0

Run from the repository root.  The workload runs in a fresh process
(``worker.py``) that calls the library in ``src/`` directly.  With
``--trace 0`` the last line of output carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics,
taken from spans the benchmark records around the library's public
functions.  Earlier lines give the environment and a readable report; the
full record goes to ``perfbench/out/``.  The exit code is 0 whenever a
result line is printed, even if an output check failed (``correct`` is
then false); it is 2 when the library or ``BENCHMARK.json`` is missing and
1 when the workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "misfolio"
OUT = HERE / "out"
#: timed set-ups before and again after the measured process, which also
#: times its own; one untimed set-up first warms the file cache
SETUP_PROBES = 3
#: every run must end within this many seconds
RUN_LIMIT_S = 170
PERCENTILES = (50, 90, 95, 99, 99.9)
TRACE_NOTE = (
    "time waited is not measured: nothing in these workloads waits on a queue or a lock"
)


class WorkerFailed(RuntimeError):
    pass


def highest_percentile(n: int, candidates=PERCENTILES):
    """Highest percentile with at least ten of ``n`` samples beyond it.

    The p-th percentile is the sample of nearest rank ``ceil(p * n / 100)``,
    so ``n - rank`` samples lie beyond it.  None when no candidate has ten.
    """
    ok = [p for p in candidates if n - math.ceil(p * n / 100) >= 10]
    return max(ok) if ok else None


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def run_worker(args: list[str], deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def environment(args, run_seconds) -> dict:
    import numpy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size").strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": run_seconds,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "library_threads": "default (1), not passed",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def wall_detail(walls: list[float]) -> str:
    p = highest_percentile(len(walls))
    tail = (
        f"p{p:g} {nearest_rank(walls, p):.4f} s"
        if p is not None
        else "no percentile has >= 10 samples beyond it"
    )
    return f"fastest of {len(walls)} ops; median {statistics.median(walls):.4f} s; {tail}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "__init__.py").is_file() or not spec_path.is_file():
        print(f"misfolio sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def probe() -> float:
        return run_worker(base + ["--setup-only"], deadline)["setup_s"]

    try:
        probe()
        setups = [probe() for _ in range(SETUP_PROBES)]
        res = run_worker(base + ["--seconds", str(seconds), "--trace", str(args.trace)], deadline)
        setups += [res["setup_s"]] + [probe() for _ in range(SETUP_PROBES)]
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"workload process failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    values = {
        "wall_s": min(res["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "set_size_ratio": res["set_size"] / res["baseline_size"] if res["baseline_size"] else 0.0,
    }
    details = {
        "wall_s": wall_detail(res["walls"]),
        "setup_s": f"median of {len(setups)} set-ups before, in and after the run (import misfolio + make the panel)",
        "peak_rss_mb": "peak resident memory of the workload process",
        "set_size_ratio": f"set_size over the {res['baseline']} size on the same graphs",
    }
    if args.trace:
        values.update(res["layers"])
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = environment(args, seconds)
    record = {
        "environment": env,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": res["failures"],
        "walls": res["walls"],
        "traced_walls": res["traced_walls"],
        "setups": setups,
        "set_size": res["set_size"],
        "baseline": res["baseline"],
        "baseline_size": res["baseline_size"],
        "metrics": metrics,
        "spans_file": res.get("spans_file"),
        "tree_error_s": res["tree_error_s"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  seconds {seconds}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    rows = [(name, m["value"], m["unit"], details.get(name, "")) for name, m in metrics.items()]
    if not args.trace:
        rows += [
            ("set_size", res["set_size"], "nodes", "mean size of the selected sets"),
            ("baseline_size", res["baseline_size"], "nodes", f"{res['baseline']} on the same graphs"),
            ("error_rate", failed / attempted, "share", f"{failed} failed / {attempted} attempted"),
        ]
    for name, value, unit, detail in rows:
        print(f"  {name:34s} {value:>16.6g} {unit:8s} {detail}")
    if args.trace:
        wall = statistics.median(res["traced_walls"])
        shares = "  ".join(
            f"{layer} {100 * res['layers'][layer + '.self_s'] / wall:.1f}%"
            for layer in ("timeseries", "market_graph", "mis_qubo", "sb_solver", "backtest", "bench")
        )
        print(f"  self time as a share of traced wall_s {wall:.4f} s: {shares}")
        print(f"  self times add up to each traced wall time within {res['tree_error_s']:.3g} s")
        print(f"  spans: {res['spans_file']}; {TRACE_NOTE}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
