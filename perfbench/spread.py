"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload backtest_sb --seeds 1-10

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound in ``BENCHMARK.json``.  The benchmark is steady
when each spread except that of ``setup_s`` stays below a third of its
bound.  Values also go to ``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_list(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: output check failed", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k} {v[-1]:.6g}" for k, v in values.items())
              + f"  (run took {time.monotonic() - t0:.1f} s)", flush=True)

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        s = spread(v)
        verdict = "steady" if s < m["bound"] / 3 else "within bound" if s <= m["bound"] else "TOO WIDE"
        print(f"  {m['name']:12s} median {statistics.median(v):12.6g} {m['unit']:6s} "
              f"spread {s:.4f}  bound {m['bound']}  {verdict}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}.json").write_text(json.dumps(values, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
