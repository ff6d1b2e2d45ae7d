"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads lattice-cold --seeds 1-5
    python3 perfbench/spread.py --baseline perfbench/BASELINE.json

Each run measures for ``run_seconds`` from ``BENCHMARK.json``. For every
workload and end-to-end metric it prints the median of the runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. With
``--baseline`` it also makes one traced run per workload with seed
``TRACE_SEED`` and writes the medians, spreads and per-layer values to that
file.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CHECKOUT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
TRACE_SEED = 1


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a child process; adds its wall time as ``wall_s``."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def parse_seeds(text: str) -> list[int]:
    """``lo-hi``, both ends included."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="lo-hi, both included")
    parser.add_argument("--baseline", default=None,
                        help="write medians, spreads and a traced run here")
    args = parser.parse_args()
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = [bench_once(workload, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        rows = {}
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            rows[name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  (spread >= bound/3)"
            print(f"{workload:15s} {name:12s} median={stats['median']:.5g} "
                  f"spread={stats['spread']:.3f} bound={bounds[name]}{flag}", flush=True)
        wall = statistics.fmean(r["wall_s"] for r in runs)
        print(f"{workload:15s} mean wall time of a run {wall:.1f} s", flush=True)
        report[workload] = {"why": WORKLOADS[workload].why, "runs": len(runs),
                            "mean_run_wall_s": wall, "end_to_end": rows}
        if args.baseline:
            traced = bench_once(workload, TRACE_SEED, seconds, 1)
            report[workload]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.baseline:
        out = {"machine": f"{platform.machine()}, {platform.python_implementation()} "
                          f"{platform.python_version()}",
               "seeds": args.seeds, "seconds": seconds, "trace_seed": TRACE_SEED,
               "workloads": report}
        Path(args.baseline).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
