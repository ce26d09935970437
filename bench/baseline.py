"""Run the benchmark on every workload over two sets of seeds and record a
BENCH_*.json.

    python3 bench/baseline.py --out bench/BENCH_<date>.json

It makes two sets of ten untraced runs of every workload in
``BENCHMARK.json`` (seeds 1-10, then 11-20; the first set of every workload
before the second), then one traced run per workload, all
through the benchmark command given in ``BENCHMARK.json``.  For each set it
records each end-to-end metric's median, quartiles and spread (quartile
distance over median), and for each metric the gap between the two sets'
medians against its bound.  It also records the traced per-layer numbers, the
tracing overhead (untraced median tokens/s against the traced run's) and an
environment header.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import BLAS_ENV  # noqa: E402

RUNS = 10                   # untraced runs per workload in each set


def run_once(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_ENV,
            "machine": platform.machine(), "date": time.strftime("%Y-%m-%d")}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    record = {"environment": environment(), "command": spec["command"],
              "run_seconds": seconds, "workloads": {name: {"sets": []} for name in names}}
    for first_seed in (1, RUNS + 1):
        for name in names:
            start = time.perf_counter()
            runs = [run_once(spec["command"], name, seed, seconds, 0)
                    for seed in range(first_seed, first_seed + RUNS)]
            entry = {"seeds": [first_seed, first_seed + RUNS - 1],
                     "correct": all(r["correct"] for r in runs),
                     "attempted": sum(r["attempted"] for r in runs),
                     "failed": sum(r["failed"] for r in runs),
                     "wall_s_per_run": (time.perf_counter() - start) / RUNS,
                     "end_to_end": {}}
            for metric in e2e:
                s = summarize([r["metrics"][metric]["value"] for r in runs])
                entry["end_to_end"][metric] = s
                print(f"{name:8s} seeds {first_seed:2d}+ {metric:14s} median {s['median']:12.5g}"
                      f" spread {s['spread']:.4f} (bound {e2e[metric]['bound']})", flush=True)
            record["workloads"][name]["sets"].append(entry)
    for name in names:
        entry = record["workloads"][name]
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["set_gap"] = {
            metric: {"worse_by": worse_by(first[metric]["median"], second[metric]["median"],
                                          m["better"]), "bound": m["bound"]}
            for metric, m in e2e.items()}
        for metric, gap in entry["set_gap"].items():
            print(f"{name:8s} {metric:14s} second set worse by {gap['worse_by']:+.4f}"
                  f" (bound {gap['bound']})", flush=True)
        traced = run_once(spec["command"], name, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = statistics.median(s["end_to_end"]["tokens_per_s"]["median"]
                                     for s in entry["sets"])
        entry["trace_overhead"] = 1.0 - entry["per_layer"]["trace.tokens_per_s"] / untraced
        print(f"{name:8s} tracing overhead {entry['trace_overhead']:.3f}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
