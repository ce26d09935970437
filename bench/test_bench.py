"""Checks of the benchmark itself (not part of the repository's test suite):

    python3 -m pytest bench/test_bench.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from recurlab import models, trainer  # noqa: E402

COUNTS = ("tensor.nodes_built", "models.nodes_per_token.", "models.loss_reachable_frac.",
          "profiler.nodes_walked")
MODES_ARCHS = [f"{m}.{a}" for m in ("parallel", "recurrent") for a in tracer.ROUTE_ARCHS]
# per-layer metrics each workload must actually produce
EXERCISED = {
    "train": [f"models.loss_reachable_frac.{a}" for a in tracer.TRAIN_ARCHS]
    + [f"trainer.steps_per_s.{a}" for a in tracer.TRAIN_ARCHS]
    + ["trainer.eval_instances_per_s"],
    "routes": [f"models.nodes_per_token.{x}" for x in MODES_ARCHS]
    + [f"models.tokens_per_s.{x}" for x in MODES_ARCHS],
    "profile": ["profiler.nodes_walked", "profiler.table_s"],
}


def traced_run(name: str, seed: int) -> tuple:
    m = workloads.measure(name, seed, 0, trace=True)          # exactly one round
    metrics = tracer.layer_metrics(m.inst.spans, m.nodes_built_round0, len(m.rounds),
                                   m.tokens_per_s)
    assert set(metrics) == set(tracer.PER_LAYER_UNITS)
    return m, metrics


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.startswith(COUNTS)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_at_one_seed(name):
    first_run, first = traced_run(name, 7)
    second_run, second = traced_run(name, 7)
    assert first_run.failed == second_run.failed == 0
    assert counts(first) == counts(second)
    assert first["tensor.nodes_built"] > 0
    assert all(first[k] > 0 for k in EXERCISED[name])


def test_wrappers_are_removed_after_a_run():
    originals = (models.model_forward, models.step, trainer.model_forward, trainer.evaluate)
    workloads.measure("routes", 1, 0, trace=True)
    assert (models.model_forward, models.step, trainer.model_forward,
            trainer.evaluate) == originals


def test_self_time_subtracts_children():
    def span(name, parent, start, end):
        s = tracer.Span(name, parent, 0, 0)
        s.start, s.end = start, end
        return s

    spans = [span("root", -1, 0.0, 10.0), span("a", 0, 1.0, 4.0),
             span("b", 1, 2.0, 3.0), span("c", 0, 5.0, 9.0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_fails_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    try:
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "train",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
