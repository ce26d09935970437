"""Wrappers around recurlab's layer entry points, installed from outside.

Each function is wrapped where its caller looks it up: ``trainer`` imported
``model_forward``, ``evaluate``'s helpers and ``generate_with_length`` by
name, so those are patched on ``recurlab.trainer``; the profiler and
``models._step_route`` look up ``model_forward`` and ``step`` on
``recurlab.models``.

Untraced, only ``model_forward`` (to count tokens) and ``trainer.evaluate``
(to keep its arguments for the reference check) are wrapped.  Traced, every
entry point records a span -- name, start, end, parent -- in memory.  The
spans of one workload job share an iteration id.  Node counts come from the
id of a probe ``tensor.constant(0)`` taken before and after a call, less the
probe nodes made in between.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

from recurlab import tensor

# (span name, module the caller looks the function up in, attribute)
ENTRY_POINTS = (
    ("models.model_forward", "recurlab.models", "model_forward"),
    ("models.model_forward", "recurlab.trainer", "model_forward"),
    ("models.step", "recurlab.models", "step"),
    ("tensor.backward", "recurlab.tensor", "backward"),
    ("trainer.evaluate", "recurlab.trainer", "evaluate"),
    ("trainer.encode_batch", "recurlab.trainer", "encode_batch"),
    ("tasks.generate_with_length", "recurlab.trainer", "generate_with_length"),
    ("automata.dfa_run", "recurlab.automata", "dfa_run"),
    ("automata.stack_run", "recurlab.automata", "stack_run"),
    ("automata.tape_run", "recurlab.automata", "tape_run"),
    ("profiler.graph_profile", "recurlab.profiler", "graph_profile"),
)
# wrapped in untraced runs too: token counting and the reference check need them
UNTRACED = frozenset({"models.model_forward", "trainer.evaluate"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "round", "info")

    def __init__(self, name, parent, iteration, round_):
        self.name = name
        self.parent = parent
        self.iteration = iteration
        self.round = round_
        self.info = {}
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "start": self.start, "end": self.end,
                           "parent": self.parent, "iteration": self.iteration,
                           "round": self.round, **self.info})


class Instruments:
    """Counts tokens always; records spans when ``trace`` is set.  Wrappers
    pass straight through while ``active`` is false, so the benchmark's own
    correctness checks are neither timed nor traced."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.active = False
        self.tokens = 0
        self.last_evaluate = None     # (bound arguments, accuracy)
        self.spans: list[Span] = []
        self.round = 0
        self.arch = None              # arch of the job running now
        self._open: list[int] = []
        self._iteration = -1
        self._probes = 0
        self._step_mark = None

    # -- node counting ----------------------------------------------------
    def node_mark(self) -> tuple:
        self._probes += 1
        return tensor.constant(0.0).id, self._probes

    def nodes_since(self, mark) -> int:
        node_id, probes = self.node_mark()
        return (node_id - mark[0]) - (self._probes - mark[1])

    # -- spans ------------------------------------------------------------
    def open(self, name: str, root: bool = False) -> Span:
        if root:
            self._iteration += 1
        span = Span(name, self._open[-1] if self._open else -1, self._iteration, self.round)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.process_time()
        return span

    def close(self, span: Span) -> None:
        span.end = time.process_time()
        self._open.pop()

    @contextmanager
    def job(self, name: str, arch: str | None):
        """One workload job: the root span of an iteration when traced."""
        self.arch, self.active = arch, True
        span = self.open(name, root=True) if self.trace else None
        try:
            yield
        finally:
            if span is not None:
                self.close(span)
                span.info["arch"] = arch
            self.active = False

    # -- wrappers ---------------------------------------------------------
    @contextmanager
    def installed(self):
        patched = []
        try:
            for name, module_name, attr in ENTRY_POINTS:
                if not self.trace and name not in UNTRACED:
                    continue
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None)) if self.trace else (None, None)
        # binding arguments costs a few microseconds: only where they are read
        signature = (inspect.signature(fn)
                     if name in UNTRACED or before or after else None)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            call = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                call = bound.arguments
            if name == "models.model_forward":
                self.tokens += int(np.size(call["token_ids"]))
            state = before(self, call) if before else None
            span = self.open(name) if self.trace else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    self.close(span)
            if name == "trainer.evaluate":
                self.last_evaluate = (dict(call), result)
            if after:
                after(self, span, call, state, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")


def _forward_before(inst, call):
    return inst.node_mark()


def _forward_after(inst, span, call, mark, result):
    span.info.update(arch=call["cfg"].arch, mode=call["mode"],
                     tokens=int(np.size(call["token_ids"])), nodes=inst.nodes_since(mark))


def _encode_before(inst, call):
    # a training step builds its graph after encoding its batch; evaluate's
    # encodings are never followed by a backward pass before the next step
    inst._step_mark = inst.node_mark()


def _backward_after(inst, span, call, state, result):
    span.info.update(arch=inst.arch, reachable=len(tensor.topo_nodes(call["root"])),
                     built=inst.nodes_since(inst._step_mark))


def _evaluate_after(inst, span, call, state, result):
    span.info["instances"] = call["n_instances"]


def _graph_profile_after(inst, span, call, state, result):
    span.info["walked"] = reachable_count(call["sinks"])


_HOOKS = {
    "models.model_forward": (_forward_before, _forward_after),
    "trainer.encode_batch": (_encode_before, None),
    "tensor.backward": (None, _backward_after),
    "trainer.evaluate": (None, _evaluate_after),
    "profiler.graph_profile": (None, _graph_profile_after),
}


def reachable_count(sinks) -> int:
    """Distinct graph nodes reachable from any of ``sinks``."""
    seen = set()
    stack = [s for s in sinks if isinstance(s, tensor.Value)]
    while stack:
        v = stack.pop()
        if v.id not in seen:
            seen.add(v.id)
            stack.extend(v.parents)
    return len(seen)


# -- per-layer metrics ------------------------------------------------------

def self_times(spans) -> list:
    """Duration of each span less the time its children cover (children of
    one span never overlap: the workloads run on one thread)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


ROUTE_ARCHS = ("transformer", "rwkv", "linear-transformer")
TRAIN_ARCHS = ("transformer", "rnn", "lstm")

PER_LAYER_UNITS = {
    "tensor.nodes_built": "count",
    "tensor.fwd_us_per_node": "us",
    "tensor.backward_ms_per_step": "ms",
    "tensor.backward_us_per_node": "us",
    **{f"models.loss_reachable_frac.{a}": "ratio" for a in TRAIN_ARCHS},
    **{f"models.nodes_per_token.{m}.{a}": "nodes/token"
       for m in ("parallel", "recurrent") for a in ROUTE_ARCHS},
    **{f"models.tokens_per_s.{m}.{a}": "1/s"
       for m in ("parallel", "recurrent") for a in ROUTE_ARCHS},
    "models.forward_ms": "ms",
    "models.step_us": "us",
    "trainer.self_ms_per_step": "ms",
    **{f"trainer.steps_per_s.{a}": "1/s" for a in TRAIN_ARCHS},
    "trainer.evaluate_s": "s",
    "trainer.eval_instances_per_s": "1/s",
    "tasks.generate_us_per_instance": "us",
    "automata.run_us_per_call": "us",
    "profiler.table_s": "s",
    "profiler.graph_profile_s": "s",
    "profiler.walk_us_per_node": "us",
    "profiler.nodes_walked": "count",
    "trace.tokens_per_s": "1/s",
}


def layer_metrics(spans, nodes_built_round0: int, rounds: int, tokens_per_s: float) -> dict:
    """Per-layer numbers from one traced run.  Counts (``nodes_built``,
    ``nodes_per_token``, ``loss_reachable_frac``, ``nodes_walked``) cover
    round 0 only, so they repeat exactly at one seed; times cover every
    round.  A layer the workload never calls reports 0."""
    named: dict[str, list] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)
    forwards = named.get("models.model_forward", [])
    backwards = named.get("tensor.backward", [])
    walks = named.get("profiler.graph_profile", [])
    automata = [s for s in spans if s.name.startswith("automata.")]
    evaluates = named.get("trainer.evaluate", [])

    def time_of(group):
        return sum(s.duration for s in group)

    def total(group, key):
        return sum(s.info[key] for s in group)

    def mean_time(group):
        return _ratio(time_of(group), len(group))

    # trainer self time outside evaluate: the train call and its encodings
    own = self_times(spans)
    in_eval = [False] * len(spans)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            in_eval[i] = in_eval[span.parent] or spans[span.parent].name == "trainer.evaluate"
    trainer_self = sum(own[i] for i, span in enumerate(spans)
                       if span.name in ("trainer.train", "trainer.encode_batch") and not in_eval[i])
    round0_walks = [s for s in walks if s.round == 0]

    m = {
        "tensor.nodes_built": nodes_built_round0,
        "tensor.fwd_us_per_node": 1e6 * _ratio(time_of(forwards), total(forwards, "nodes")),
        "tensor.backward_ms_per_step": 1e3 * mean_time(backwards),
        "tensor.backward_us_per_node": 1e6 * _ratio(time_of(backwards),
                                                    total(backwards, "reachable")),
        "models.forward_ms": 1e3 * mean_time(forwards),
        "models.step_us": 1e6 * mean_time(named.get("models.step", [])),
        "trainer.self_ms_per_step": 1e3 * _ratio(trainer_self, len(backwards)),
        "trainer.evaluate_s": mean_time(evaluates),
        "trainer.eval_instances_per_s": _ratio(total(evaluates, "instances"),
                                               time_of(evaluates)),
        "tasks.generate_us_per_instance": 1e6 * mean_time(
            named.get("tasks.generate_with_length", [])),
        "automata.run_us_per_call": 1e6 * mean_time(automata),
        "profiler.table_s": mean_time(named.get("profiler.profile_table", [])),
        # a profile round is one table
        "profiler.graph_profile_s": _ratio(time_of(walks), rounds) if walks else 0.0,
        "profiler.walk_us_per_node": 1e6 * _ratio(time_of(walks), total(walks, "walked")),
        "profiler.nodes_walked": total(round0_walks, "walked"),
        "trace.tokens_per_s": tokens_per_s,
    }
    for arch in TRAIN_ARCHS:
        steps = [s for s in backwards if s.round == 0 and s.info["arch"] == arch]
        m[f"models.loss_reachable_frac.{arch}"] = _ratio(total(steps, "reachable"),
                                                         total(steps, "built"))
        # a train call's time less its closing evaluate, per optimizer step
        trains = [s for s in named.get("trainer.train", []) if s.info["arch"] == arch]
        iterations = {s.iteration for s in trains}
        m[f"trainer.steps_per_s.{arch}"] = _ratio(
            sum(1 for s in backwards if s.iteration in iterations),
            time_of(trains) - time_of([s for s in evaluates if s.iteration in iterations]))
    for mode in ("parallel", "recurrent"):
        for arch in ROUTE_ARCHS:
            calls = [s for s in forwards if s.info["mode"] == mode and s.info["arch"] == arch]
            round0 = [s for s in calls if s.round == 0]
            m[f"models.nodes_per_token.{mode}.{arch}"] = _ratio(total(round0, "nodes"),
                                                                total(round0, "tokens"))
            m[f"models.tokens_per_s.{mode}.{arch}"] = _ratio(total(calls, "tokens"),
                                                             time_of(calls))
    return m
