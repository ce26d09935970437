"""The names the benchmark relies on.  ``bench/tracer.py`` wraps recurlab
functions by module attribute and reads some of their arguments by parameter
name; a rename would otherwise show only as a failed benchmark run.  The
tracer is loaded from its file and never installed, so nothing is patched."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_FILE = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

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
