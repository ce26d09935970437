"""``graph_scope``: graphs hold no reference cycles, and every graph entry
point leaves the cyclic collector as its caller had it."""

import gc
import warnings

import numpy as np
import pytest

from recurlab import profiler
from recurlab import tensor as T
from recurlab.models import ARCHS, ModelConfig, ModelError, init_params, model_forward
from recurlab.tasks import TaskId, task_vocab
from recurlab.trainer import DivergenceError, TrainConfig, train

VOCAB = 7


def small_cfg(arch):
    return ModelConfig(arch=arch, vocab_size=VOCAB, d_model=16, n_layers=2, n_heads=2)


@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
@pytest.mark.parametrize("arch", ARCHS)
def test_graphs_hold_no_cycles(arch, mode):
    """Reference counting alone frees a forward and backward graph, which is
    what makes pausing the cyclic collector safe."""
    cfg = small_cfg(arch)
    params = init_params(cfg)
    toks = np.random.default_rng(1).integers(0, VOCAB, size=(2, 6))
    gc.collect()
    res = model_forward(cfg, params, toks, mode=mode)
    loss = res.logits[0].sum()
    for lg in res.logits[1:]:
        loss = loss + lg.sum()
    T.backward(loss)
    assert res.pgraph.grads()["embed"].any()
    del res, loss, lg
    assert gc.collect() == 0


@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
@pytest.mark.parametrize("arch", ARCHS)
def test_backward_functions_are_per_op_kind(arch, mode):
    """Every node of a forward and backward graph shares its op kind's one
    module-level backward function, which holds no closure; so the number of
    distinct backward functions does not grow with the sequence length.
    ``slice`` has two: the view form and the gather form."""
    cfg = small_cfg(arch)
    params = init_params(cfg)
    rng = np.random.default_rng(1)
    for length in (3, 7):
        res = model_forward(cfg, params, rng.integers(0, VOCAB, size=(2, length)), mode=mode)
        loss = T.concat([lg.sum(axis=-1) for lg in res.logits], axis=0).sum()
        T.backward(loss)
        per_kind = {}
        for v in T.topo_nodes(loss):
            bwd = v.op.backward
            if bwd is not None:
                assert bwd.__closure__ is None, v
                assert getattr(T, bwd.__name__) is bwd, v
                per_kind.setdefault(v.op_kind, set()).add(bwd)
        for kind, fns in per_kind.items():
            assert len(fns) <= (2 if kind == "slice" else 1), (kind, fns)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


ENTRY_POINTS = ("model_forward", "backward", "profile", "train")


PARITY_VOCAB = len(task_vocab(TaskId.PARITY_CHECK))


def parity_train_config(**kw):
    kw = {"model": ModelConfig(arch="rnn", vocab_size=PARITY_VOCAB, d_model=8),
          "batch_size": 4, "max_steps": 2, "eval_every": 2, "n_eval": 4, "n_seeds": 1, **kw}
    return TrainConfig(task=TaskId.PARITY_CHECK, **kw)


def entry_point_calls():
    cfg = small_cfg("transformer")
    params = init_params(cfg)
    toks = np.zeros((1, 3), dtype=int)
    return {
        "model_forward": lambda: model_forward(cfg, params, toks),
        "backward": lambda: T.backward(model_forward(cfg, params, toks).logits[0].sum()),
        "profile": lambda: profiler.profile(cfg, params, toks),
        "train": lambda: train(parity_train_config()),
    }


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_restores_collector(collector, entry):
    entry_point_calls()[entry]()
    assert gc.isenabled() is collector


def raising_calls():
    cfg = small_cfg("rnn")
    params = init_params(cfg)
    toks = np.zeros((1, 3), dtype=int)
    # an update that overflows the parameters, as in
    # test_overflow_in_closing_evaluate_is_divergence
    diverging = parity_train_config(
        optimizer="sgd", lr=1e6, grad_clip=None, eval_every=1,
        model=ModelConfig(arch="rnn", vocab_size=PARITY_VOCAB, d_model=8, nonlin="relu"))
    return {
        "model_forward": (ModelError, lambda: model_forward(cfg, params, toks, mode="bad")),
        "backward": (T.ShapeError,
                     lambda: T.backward(model_forward(cfg, params, toks).logits[0])),
        "profile": (ModelError, lambda: profiler.profile(cfg, params, toks[0])),
        "train": (DivergenceError, lambda: train(diverging)),
    }


def test_diverging_step_is_reported_from_the_graph():
    """The overflow that the batched finite checks find inside the step's
    forward becomes the step's ``DivergenceError``, at the step where a check
    per node raised it."""
    error, call = raising_calls()["train"]
    with pytest.raises(error) as exc_info:
        call()
    assert (exc_info.value.step, exc_info.value.last_finite_step) == (2, 2)
    cause = exc_info.value.__cause__
    assert isinstance(cause, T.GraphOverflowError) and cause.op_kind == "affine"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_raising_entry_point_restores_collector(collector, entry):
    error, call = raising_calls()[entry]
    with pytest.raises(error):
        call()
    assert gc.isenabled() is collector


def test_scopes_nest_and_silence_numpy_only_inside(collector):
    with T.graph_scope():
        with T.graph_scope():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(np.exp(np.array([1000.0]))).all()
    assert gc.isenabled() is collector
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.exp(np.array([1000.0]))
