"""The names the benchmark relies on.  ``bench/tracer.py`` wraps recurlab
functions by module attribute and reads some of their arguments by parameter
name, and ``bench/workloads.py`` imports recurlab names such as
``TaskId.SORTING`` and ``task_vocab``; a rename would otherwise show only as a
failed benchmark run.  Both are loaded from their files and the tracer is
never installed, so nothing is patched."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from recurlab import tensor as T
from recurlab.tasks import task_vocab

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    """``bench/workloads.py``, which imports ``tracer``, with bench/ on
    ``sys.path`` only while it loads; registered as ``workloads``, as
    dataclasses need."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


workloads = _load_workloads()
tracer = workloads.tracer

# span name -> the parameters the tracer and the benchmark's workloads read
# from a call's bound arguments
READ_ARGUMENTS = {
    "models.model_forward": ("cfg", "token_ids", "mode"),
    "tensor.backward": ("root",),
    "profiler.graph_profile": ("sinks",),
    "trainer.evaluate": ("model_cfg", "params", "task", "length_range", "n_instances", "seed"),
    "trainer.encode_batch": (),
}


def test_every_hook_has_its_arguments_listed():
    """A hook added to the tracer needs its read arguments listed above."""
    assert set(tracer._HOOKS) | tracer.UNTRACED <= set(READ_ARGUMENTS)


@pytest.mark.parametrize("name, module_name, attr", tracer.ENTRY_POINTS,
                         ids=[f"{m}.{a}" for _, m, a in tracer.ENTRY_POINTS])
def test_entry_point_exists_and_takes_read_arguments(name, module_name, attr):
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert callable(fn), f"{module_name}.{attr} is gone"
    missing = [p for p in READ_ARGUMENTS.get(name, ())
               if p not in inspect.signature(fn).parameters]
    assert not missing, f"{module_name}.{attr} has no parameter {missing}"


def test_workloads_build_their_train_configs():
    """The train workload's configs read task names and vocabularies."""
    configs = workloads.train_configs(0)
    assert len(configs) == 3
    assert [tc.model.vocab_size for tc in configs] == [len(task_vocab(tc.task)) for tc in configs]


def test_constant_id_counts_the_nodes_built():
    """The tracer counts the nodes a call builds from the ids of probe
    ``tensor.constant(0.0)`` nodes taken before and after it, so each node,
    a fused one too, takes exactly one id."""
    before = T.constant(0.0).id
    x = T.parameter(np.ones((2, 3)))
    out = T.layer_norm(x * x, T.parameter(np.ones(3)), T.parameter(np.zeros(3)), 1e-6).sum()
    assert T.constant(0.0).id - before == len(T.topo_nodes(out)) + 1 == 7


def test_overflow_error_carries_op_kind_and_node_id():
    """The workloads count a ``GraphOverflowError`` as a failed operation; it
    names the op kind and the id of the first non-finite node."""
    assert T.GraphOverflowError in workloads.FAILURES
    probe = T.constant(0.0).id
    with pytest.raises(T.GraphOverflowError) as err:
        T.exp(T.constant(1000.0))
    assert (err.value.op_kind, err.value.node_id) == ("exp", probe + 2)
