"""The benchmark's three workloads and the loop that measures them.

A workload turns (seed, round) into a fixed list of jobs.  A job is one
user-level call into recurlab, run by one caller in a closed loop with no
threads; its outputs are checked after the clock stops.  Rounds repeat until
the measured time reaches the requested seconds, so the mix of jobs is the
same in every run and only the number of rounds depends on speed.

- ``train``: ``trainer.train`` on the three criterion-6 configs for a fixed
  number of steps, each ending with one ``trainer.evaluate``.
- ``routes``: transformer, rwkv and linear-transformer logits from the
  parallel and the recurrent route of ``model_forward`` (criteria 1 and 2).
- ``profile``: ``profiler.profile_table`` over all twelve architectures.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from recurlab import models, profiler, tensor, trainer
from recurlab.models import ARCHS, ModelConfig, model_forward
from recurlab.tasks import TaskId, placeholder_positions, task_vocab
from recurlab.trainer import TrainConfig

import tracer

# raised errors that count as a failed operation instead of ending the run
FAILURES = (trainer.DivergenceError, tensor.GraphOverflowError)


def _rng(*keys) -> np.random.Generator:
    return np.random.default_rng(list(keys))


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children.  Steadier than
    wall time on a shared machine, and work moved into a subprocess still
    counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Job:
    name: str              # root span name when traced
    arch: str | None
    run: callable          # timed; returns what ``check`` reads
    check: callable        # untimed; returns one bool per operation


# -- train --------------------------------------------------------------------

TRAIN_STEPS = 40           # optimizer steps per config per round
TRAIN_EVAL = 16            # instances in the closing evaluate


def train_configs(seed: int) -> list:
    """The criterion-6 configs, shortened to TRAIN_STEPS steps, n_seeds=1."""
    parity = len(task_vocab(TaskId.PARITY_CHECK))
    sorting = len(task_vocab(TaskId.SORTING))
    short = dict(max_steps=TRAIN_STEPS, eval_every=TRAIN_STEPS, n_eval=TRAIN_EVAL, n_seeds=1)
    return [
        TrainConfig(task=TaskId.PARITY_CHECK,
                    model=ModelConfig(arch="transformer", vocab_size=parity, d_model=16,
                                      n_layers=1, n_heads=1),
                    lr=1e-3, batch_size=16, train_lengths=(1, 20), test_lengths=(21, 40),
                    seed=seed, **short),
        TrainConfig(task=TaskId.PARITY_CHECK,
                    model=ModelConfig(arch="rnn", vocab_size=parity, d_model=32),
                    lr=3e-3, batch_size=32, train_lengths=(1, 20), test_lengths=(21, 40),
                    seed=seed + 1, **short),
        TrainConfig(task=TaskId.SORTING,
                    model=ModelConfig(arch="lstm", vocab_size=sorting, d_model=64),
                    lr=3e-3, batch_size=32, train_lengths=(2, 10), test_lengths=(11, 14),
                    seed=seed + 2, **short),
    ]


def _reference_accuracy(call: dict) -> float:
    """Exact-match accuracy of the evaluated params, one instance at a time:
    the reference for ``trainer.evaluate``'s length-grouped batches."""
    cfg, params = call["model_cfg"], call["params"]

    def predict(input_ids, n_slots):
        logits = model_forward(cfg, params, np.asarray([input_ids])).logits
        return [int(np.argmax(logits[p].data[0])) for p in placeholder_positions(input_ids)]

    return trainer.evaluate_predictor(predict, call["task"], call["length_range"],
                                      call["n_instances"], seed=call["seed"])


class Train:
    def __init__(self, seed: int, inst: tracer.Instruments):
        self.seed, self.inst = seed, inst

    def jobs(self, round_: int) -> list:
        configs = train_configs(_sub_seed(_rng(self.seed, round_)))
        return [Job("trainer.train", tc.model.arch, lambda tc=tc: trainer.train(tc),
                    self.check) for tc in configs]

    def check(self, result) -> list:
        last = result.history[-1]
        call, accuracy = self.inst.last_evaluate
        return [bool(np.isfinite(last.train_loss)) and last.step == TRAIN_STEPS
                and accuracy == last.test_acc == _reference_accuracy(call)]


# -- routes -------------------------------------------------------------------

ROUTE_TOLERANCE = {"transformer": 1e-9, "rwkv": 1e-8, "linear-transformer": 1e-8}
# each round runs the longest criterion length plus one length drawn from each
# third of 1..63, so every round costs about the same and peaks at n=64
ROUTE_LONGEST = 64
ROUTE_STRATA = ((1, 21), (22, 42), (43, 63))


class Routes:
    def __init__(self, seed: int, inst: tracer.Instruments):
        self.seed = seed

    def jobs(self, round_: int) -> list:
        rng = _rng(self.seed, round_)
        lengths = [int(rng.integers(lo, hi + 1)) for lo, hi in ROUTE_STRATA] + [ROUTE_LONGEST]
        jobs = []
        for arch in tracer.ROUTE_ARCHS:
            cfg = ModelConfig(arch=arch, vocab_size=11, d_model=16, n_layers=2, n_heads=2,
                              seed=_sub_seed(rng))
            params = models.init_params(cfg)
            for n in lengths:
                toks = rng.integers(0, 11, size=(1, n))
                jobs.append(Job("bench.routes", arch,
                                lambda cfg=cfg, params=params, toks=toks: self.both(cfg, params, toks),
                                lambda out, arch=arch: self.check(arch, out)))
        return jobs

    @staticmethod
    def both(cfg, params, toks):
        # keep the logits' arrays only, so one graph is alive at a time
        return tuple([x.data for x in models.model_forward(cfg, params, toks, mode=mode).logits]
                     for mode in ("parallel", "recurrent"))

    @staticmethod
    def check(arch, out) -> list:
        par, rec = out
        gap = max(float(np.abs(a - b).max()) for a, b in zip(par, rec))
        return [len(par) == len(rec) and gap < ROUTE_TOLERANCE[arch]]


# -- profile ------------------------------------------------------------------

PROFILE_GRID = (4, 8, 16, 32)
# depth growth law per architecture (criterion 5 and the profiler tests)
DEPTH_LAW = {
    "mlp": "constant", "rnn": "linear", "lstm": "linear", "stack-rnn": "linear",
    "tape-rnn": "linear", "transformer": "constant", "recurrent-transformer": "linear",
    "feedback-transformer": "linear", "block-recurrent-transformer": "linear_over_k",
    "universal-transformer": "linear", "rwkv": "constant", "linear-transformer": "constant",
}


class Profile:
    def __init__(self, seed: int, inst: tracer.Instruments):
        self.seed = seed

    def jobs(self, round_: int) -> list:
        rng = _rng(self.seed, round_)
        configs = [ModelConfig(arch=a, vocab_size=8, d_model=16, seed=_sub_seed(rng))
                   for a in ARCHS]
        table_seed = _sub_seed(rng)
        return [Job("profiler.profile_table", None,
                    lambda: profiler.profile_table(configs, PROFILE_GRID, seed=table_seed),
                    self.check)]

    @staticmethod
    def check(rows) -> list:
        """One operation per growth-law label, plus the transformer's
        superlinear total_ops."""
        oks = []
        for row in rows:
            fit, depths = row["depth_fit"], [p.depth for p in row["profiles"]]
            ok = fit.class_label == DEPTH_LAW[row["arch"]]
            if row["arch"] == "universal-transformer":
                # T = min(n, max_halting_steps): depth rises with T, then holds
                ok = ok and depths[0] < depths[1] == depths[2] == depths[3]
            else:
                ok = ok and fit.r_squared > 0.999
            oks.append(ok)
        ops = [p.total_ops for row in rows if row["arch"] == "transformer"
               for p in row["profiles"]]
        oks.append(bool(np.all(np.diff(ops) > 0) and np.all(np.diff(ops, 2) > 0)))
        return oks


WORKLOADS = {"train": Train, "routes": Routes, "profile": Profile}


# -- measuring ----------------------------------------------------------------

@dataclass
class Measurement:
    tokens_per_s: float        # median over rounds
    rounds: list               # (tokens, seconds) of each round
    attempted: int
    failed: int
    inst: tracer.Instruments
    nodes_built_round0: int


def measure(name: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Run whole rounds of ``name`` until ``seconds`` of job time have been
    measured (at least one round)."""
    inst = tracer.Instruments(trace)
    workload = WORKLOADS[name](seed, inst)
    rounds, attempted, failed, busy_total, nodes_round0 = [], 0, 0, 0.0, 0
    with inst.installed():
        while not rounds or busy_total < seconds:
            inst.round = len(rounds)
            jobs = workload.jobs(inst.round)
            count_nodes = trace and not rounds
            tokens, busy = inst.tokens, 0.0
            for job in jobs:
                mark = inst.node_mark() if count_nodes else None
                start = cpu_seconds()
                try:
                    with inst.job(job.name, job.arch):
                        out = job.run()
                except FAILURES:
                    out = None
                busy += cpu_seconds() - start
                if count_nodes:
                    nodes_round0 += inst.nodes_since(mark)
                oks = [False] if out is None else job.check(out)
                attempted += len(oks)
                failed += oks.count(False)
            rounds.append((inst.tokens - tokens, busy))
            busy_total += busy
    return Measurement(statistics.median(t / s for t, s in rounds), rounds, attempted, failed,
                       inst, nodes_round0)
