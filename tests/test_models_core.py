"""Architecture zoo basics: shapes, gradients, causality, config handling."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from recurlab import tensor as T
from recurlab.models import (ARCHS, STEP_CAPABLE, ModelConfig, ModelError,
                             ParamGraph, init_params, init_state,
                             load_checkpoint, model_forward, save_checkpoint,
                             step)
from recurlab.models.common import as_row, attend_cached, attend_one_head

VOCAB = 9


def tiny_cfg(arch, **kw):
    kw.setdefault("d_model", 4)
    kw.setdefault("n_layers", 1)
    kw.setdefault("n_heads", 1)
    kw.setdefault("block_size", 2)
    return ModelConfig(arch=arch, vocab_size=VOCAB, **kw)


def loss_of(cfg, params, toks, **kw):
    res = model_forward(cfg, params, toks, **kw)
    total = res.logits[0].softmax().log().sum()
    for lg in res.logits[1:]:
        total = total + lg.softmax().log().sum()
    return total, res


@pytest.mark.parametrize("arch", ARCHS)
def test_forward_shapes(arch):
    cfg = tiny_cfg(arch, d_model=8, n_layers=2, n_heads=2)
    params = init_params(cfg)
    toks = np.random.default_rng(0).integers(0, VOCAB, size=(3, 5))
    res = model_forward(cfg, params, toks)
    assert len(res.logits) == 5
    for lg in res.logits:
        assert lg.shape == (3, VOCAB)
        assert np.all(np.isfinite(lg.data))


@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
@pytest.mark.parametrize("arch", ARCHS)
def test_positions_match_full_forward(arch, mode):
    """Logits at requested positions, in the order given, equal the full
    forward's bit for bit."""
    cfg = tiny_cfg(arch, d_model=8, n_layers=2, n_heads=2)
    params = init_params(cfg)
    toks = np.random.default_rng(2).integers(0, VOCAB, size=(3, 6))
    full = model_forward(cfg, params, toks, mode=mode).logits
    for positions in ([5], [0], [3, 1, 4], list(range(6))):
        picked = model_forward(cfg, params, toks, mode=mode, positions=positions).logits
        assert len(picked) == len(positions)
        for p, lg in zip(positions, picked):
            assert np.array_equal(lg.data, full[p].data), (positions, p)


def _nodes_built(build) -> int:
    start = T.constant(0).id
    build()
    return T.constant(0).id - start - 1


@pytest.mark.parametrize(
    "arch, mode, n_layers",
    [pytest.param("transformer", "parallel", n, id=str(n)) for n in (1, 2)]
    + [pytest.param(arch, "recurrent", 2, id=f"{arch}-recurrent")
       for arch in sorted(STEP_CAPABLE)])
def test_transformer_positions_build_fewer_nodes(arch, mode, n_layers):
    """The parallel Transformer and every step route build less when asked
    for the last position only."""
    cfg = tiny_cfg(arch, d_model=8, n_layers=n_layers, n_heads=2)
    params = init_params(cfg)
    toks = np.random.default_rng(2).integers(0, VOCAB, size=(2, 8))
    full = _nodes_built(lambda: model_forward(cfg, params, toks, mode=mode))
    last = _nodes_built(lambda: model_forward(cfg, params, toks, mode=mode, positions=[7]))
    assert last < full


@pytest.mark.parametrize("positions", [[4], [-1], [1, 1], [0.0], [True], 2],
                         ids=["past-end", "negative", "duplicate", "float", "bool", "scalar"])
def test_bad_positions_rejected(positions):
    cfg = tiny_cfg("transformer")
    params = init_params(cfg)
    toks = np.array([[1, 2, 3, 4]])
    with pytest.raises(ModelError):
        model_forward(cfg, params, toks, positions=positions)


@pytest.mark.parametrize("scale", [None, 0.35])
@pytest.mark.parametrize("t", [1, 6])
def test_attend_cached_matches_attend_one_head(t, scale):
    """Scoring the stacked cache in one node gives the per-pair route's
    attention output bit for bit."""
    rng = np.random.default_rng(t)
    b, dh = 3, 4
    q = T.parameter(rng.normal(size=(b, dh)))
    keys = [T.parameter(rng.normal(size=(b, dh))) for _ in range(t)]
    values = [T.parameter(rng.normal(size=(b, 1, dh))) for _ in range(t)]
    per_pair = attend_one_head(q, keys, values, scale)
    cached = attend_cached(q, [as_row(k) for k in keys], values, scale)
    assert cached.shape == (b, dh)
    assert np.array_equal(cached.data, per_pair.data)


@pytest.mark.parametrize("arch", ["transformer", "recurrent-transformer",
                                  "stack-rnn", "tape-rnn"])
def test_cached_step_nodes_constant_in_cache_length(arch):
    """The last step of a length-9 and of a length-41 run build the same
    number of nodes: a KV cache of 9 or 41 entries, a stack 9 or 41 slots
    deep, or a tape sized for 9 or 41 tokens is read and updated whole."""
    cfg = tiny_cfg(arch, d_model=8, n_layers=2, n_heads=2)
    pg = ParamGraph(init_params(cfg))
    toks = np.random.default_rng(3).integers(0, VOCAB, size=(2, 41))

    def last_step_nodes(length):
        state = init_state(cfg, 2, length=length)
        for t in range(length):
            start = T.constant(0).id
            _, state = step(cfg, pg, state, toks[:, t])
        return T.constant(0).id - start - 1

    assert last_step_nodes(9) == last_step_nodes(41)


def test_feedback_step_builds_only_read_nodes():
    cfg = tiny_cfg("feedback-transformer", d_model=16, n_layers=2, n_heads=2)
    pg = ParamGraph(init_params(cfg))
    toks = np.random.default_rng(5).integers(0, VOCAB, size=(2, 4))
    state = init_state(cfg, 2)
    for t in range(3):
        _, state = step(cfg, pg, state, toks[:, t])
    start = T.constant(0).id
    logits, state = step(cfg, pg, state, toks[:, 3])
    end = T.constant(0).id
    reachable = {v.id for v in T.topo_nodes(logits, *state["memory"])}
    unread = [i for i in range(start + 1, end) if i not in reachable]
    assert end - start - 1 > 100
    assert not unread, f"{len(unread)} of {end - start - 1} nodes unread"


@pytest.mark.parametrize("arch", ARCHS)
def test_gradients_match_finite_differences(arch):
    """Central differences, eps 1e-5, on a sample of coordinates of every
    parameter tensor."""
    cfg = tiny_cfg(arch)
    params = init_params(cfg)
    rng = np.random.default_rng(7)
    toks = rng.integers(0, VOCAB, size=(1, 3))

    loss, res = loss_of(cfg, params, toks)
    T.backward(loss)
    grads = res.pgraph.grads()
    eps = 1e-5
    worst = 0.0
    for name, g in grads.items():
        flat_idx = rng.choice(g.size, size=min(4, g.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, g.shape)
            orig = params[name][idx]
            params[name][idx] = orig + eps
            up, _ = loss_of(cfg, params, toks)
            params[name][idx] = orig - eps
            dn, _ = loss_of(cfg, params, toks)
            params[name][idx] = orig
            numeric = (float(up.data) - float(dn.data)) / (2 * eps)
            analytic = float(g[idx])
            rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, rel)
    assert worst < 1e-4, f"{arch}: max rel err {worst:.3e}"


@pytest.mark.parametrize("arch", sorted(STEP_CAPABLE))
def test_causality_earlier_logits_unchanged(arch):
    """Changing the last token must not change any earlier position's logits
    for token-by-token architectures."""
    cfg = tiny_cfg(arch, d_model=8, n_layers=2)
    params = init_params(cfg)
    rng = np.random.default_rng(3)
    toks = rng.integers(0, VOCAB, size=(2, 6))
    base = model_forward(cfg, params, toks, mode="recurrent").logits
    toks2 = toks.copy()
    toks2[:, -1] = (toks2[:, -1] + 1) % VOCAB
    alt = model_forward(cfg, params, toks2, mode="recurrent").logits
    for t in range(5):
        np.testing.assert_array_equal(base[t].data, alt[t].data)


def test_mlp_logits_position_independent():
    cfg = tiny_cfg("mlp", n_layers=2)
    params = init_params(cfg)
    res = model_forward(cfg, params, np.array([[1, 2, 3, 4]]))
    for lg in res.logits[1:]:
        np.testing.assert_array_equal(lg.data, res.logits[0].data)


def test_mlp_permutation_invariant():
    cfg = tiny_cfg("mlp")
    params = init_params(cfg)
    a = model_forward(cfg, params, np.array([[1, 2, 3, 4]])).logits[0].data
    b = model_forward(cfg, params, np.array([[4, 2, 1, 3]])).logits[0].data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_universal_iteration_budget_enforced():
    cfg = tiny_cfg("universal-transformer", max_halting_steps=4)
    params = init_params(cfg)
    toks = np.array([[1, 2, 3]])
    model_forward(cfg, params, toks, T_steps=4)
    with pytest.raises(ModelError):
        model_forward(cfg, params, toks, T_steps=5)
    with pytest.raises(ModelError):
        model_forward(cfg, params, toks, T_steps=0)


def test_block_recurrent_depends_on_previous_block():
    cfg = tiny_cfg("block-recurrent-transformer", block_size=2)
    params = init_params(cfg)
    toks = np.array([[1, 2, 3, 4]])
    base = model_forward(cfg, params, toks).logits
    toks2 = toks.copy()
    toks2[0, 0] = 5                                # first block changes
    alt = model_forward(cfg, params, toks2).logits
    assert not np.array_equal(base[3].data, alt[3].data)  # carry reaches block 2


def test_feedback_window_limits_memory():
    cfg = tiny_cfg("feedback-transformer", feedback_window=2)
    params = init_params(cfg)
    pg = ParamGraph(params)
    state = init_state(cfg, batch=1)
    for tok in (1, 2, 3, 4, 5):
        _, state = step(cfg, pg, state, np.array([tok]))
    assert len(state["memory"]) == 2


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(arch="perceptron", vocab_size=4)
    with pytest.raises(ModelError):
        ModelConfig(arch="transformer", vocab_size=4, d_model=6, n_heads=4)


@pytest.mark.parametrize("field, value", [
    ("vocab_size", 0), ("d_model", 0), ("n_layers", 0), ("n_layers", -1), ("n_heads", 0),
    ("d_ff", 0), ("block_size", 0), ("max_halting_steps", 0), ("tape_extra_cells", -1),
    ("feedback_window", 0), ("feedback_window", -2)])
def test_config_rejects_meaningless_sizes(field, value):
    # feedback_window=0 used to read the whole memory (memory[-0:]), n_heads=0
    # divided by zero, and n_layers=0 built a model with no layers
    with pytest.raises(ModelError, match=field):
        ModelConfig(**{"arch": "feedback-transformer", "vocab_size": 4, field: value})


def test_config_keeps_unlimited_feedback_and_no_extra_cells():
    assert ModelConfig(arch="feedback-transformer", vocab_size=4,
                       feedback_window=None).feedback_window is None
    assert ModelConfig(arch="tape-rnn", vocab_size=4, tape_extra_cells=0).tape_extra_cells == 0


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg("lstm", n_layers=2)
    params = init_params(cfg)
    path = tmp_path / "model.npz"
    save_checkpoint(path, cfg, params, extra={"step": 12})
    cfg2, params2, extra = load_checkpoint(path)
    assert cfg2 == cfg and extra == {"step": 12}
    for name in params:
        np.testing.assert_array_equal(params[name], params2[name])
    toks = np.array([[1, 2, 3]])
    np.testing.assert_array_equal(model_forward(cfg, params, toks).logits[-1].data,
                                  model_forward(cfg2, params2, toks).logits[-1].data)


def test_checkpoint_unknown_config_key_is_model_error(tmp_path):
    cfg = tiny_cfg("rnn")
    meta = {"version": 1, "config": {**asdict(cfg), "mystery_knob": 1}, "extra": {}}
    path = tmp_path / "model.npz"
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **init_params(cfg))
    with pytest.raises(ModelError, match="mystery_knob"):
        load_checkpoint(path)


def test_init_deterministic_per_seed():
    a = init_params(tiny_cfg("rnn", seed=5))
    b = init_params(tiny_cfg("rnn", seed=5))
    c = init_params(tiny_cfg("rnn", seed=6))
    np.testing.assert_array_equal(a["embed"], b["embed"])
    assert not np.array_equal(a["embed"], c["embed"])
