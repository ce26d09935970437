"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {train,routes,profile} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; recurlab is imported from ``src/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, whose spans are also
written to ``bench/out/``.  See ``bench/README.md`` for what each metric
means and which change should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# numpy's BLAS pool is held at one thread (<= nproc) in every process
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11

# one fresh interpreter: import the layers and build the first round's jobs
_SETUP_CHILD = """
import sys, time
start = time.process_time()
sys.path[:0] = sys.argv[1:3]
import tracer, workloads
name, seed = sys.argv[3], int(sys.argv[4])
workloads.WORKLOADS[name](seed, tracer.Instruments(False)).jobs(0)
print(time.process_time() - start)
"""

E2E_UNITS = {"tokens_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters; a first, uncounted one
    compiles the bytecode."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH), str(SRC), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "routes", "profile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "recurlab" / "__init__.py").is_file():
        print(f"run.py: no recurlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(BENCH), str(SRC)]
    import tracer
    import workloads

    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    m = workloads.measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    if args.trace:
        values = tracer.layer_metrics(m.inst.spans, m.nodes_built_round0, len(m.rounds),
                                      m.tokens_per_s)
        units = tracer.PER_LAYER_UNITS
        m.inst.write(BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "tokens_per_s": m.tokens_per_s,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (m.attempted - m.failed) / m.attempted,
        }
        units = E2E_UNITS
    for name, value in values.items():
        print(f"{name:45s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(f"{args.workload}: {len(m.rounds)} rounds, {m.attempted} checks, {m.failed} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
