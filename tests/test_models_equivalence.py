"""Route equivalences and state-resume properties.

Small-scale versions of the equivalence claims: the full-tolerance,
many-seed runs live in test_acceptance.py.
"""

import numpy as np
import pytest

from recurlab.models import (STEP_CAPABLE, ModelConfig, ParamGraph,
                             init_params, init_state, model_forward, step)
from recurlab.models.common import _position_row, sinusoidal_positions

VOCAB = 9


def cfg_for(arch, **kw):
    kw.setdefault("d_model", 8)
    kw.setdefault("n_layers", 2)
    kw.setdefault("n_heads", 2)
    return ModelConfig(arch=arch, vocab_size=VOCAB, **kw)


def route_gap(arch, seed, n, **kw):
    cfg = cfg_for(arch, seed=seed, **kw)
    params = init_params(cfg)
    toks = np.random.default_rng(seed).integers(0, VOCAB, size=(2, n))
    par = model_forward(cfg, params, toks, mode="parallel").logits
    rec = model_forward(cfg, params, toks, mode="recurrent").logits
    return max(float(np.abs(a.data - b.data).max()) for a, b in zip(par, rec))


@pytest.mark.parametrize("arch", ["rwkv", "linear-transformer"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ri_routes_agree(arch, seed):
    assert route_gap(arch, seed, n=12) < 1e-10


def test_kv_cache_routes_agree():
    for seed in range(3):
        assert route_gap("transformer", seed, n=10) < 1e-12


def test_odd_width_transformer_routes_agree():
    """An odd d_model gets a positional table (it ends on a sin column), and
    the two routes agree within criterion 1's tolerance."""
    assert route_gap("transformer", 0, n=10, d_model=5, n_heads=1) < 1e-8


@pytest.mark.parametrize("d_model", [4, 5, 16])
def test_positional_row_matches_the_table(d_model):
    """A step embeds one position's row, computed on its own; it is the
    parallel route's table row byte for byte."""
    table = sinusoidal_positions(300, d_model)
    for t in range(300):
        assert sinusoidal_positions(1, d_model, start=t)[0].tobytes() == table[t].tobytes()


def test_embedded_positional_row_is_the_tables_and_read_only():
    """A step reads its position's row from a cache that every later step at
    that position shares, so the row cannot be written."""
    table = sinusoidal_positions(40, 8)
    for t in (0, 7, 39, 7):
        row = _position_row(t, 8)
        assert row.tobytes() == table[t].tobytes() and not row.flags.writeable


@pytest.mark.parametrize("arch", ["rwkv", "linear-transformer", "transformer"])
def test_routes_agree_without_residual(arch):
    assert route_gap(arch, 0, n=8, use_residual=False) < 1e-10


def test_rwkv_single_token_is_value_projection():
    """With one token there is no history: the u-bonus cancels and the mix
    returns exactly the value vector."""
    cfg = cfg_for("rwkv", n_layers=1, use_residual=False, use_positional=False)
    params = init_params(cfg)
    toks = np.array([[3]])
    out = model_forward(cfg, params, toks).logits[0].data
    emb = params["embed"][3]
    v = emb @ params["l0.wv"]
    expected = v @ params["out_w"] + params["out_b"]
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_rwkv_decay_weights_match_hand_sum():
    """n=3, single channel block: the parallel mix at t=3 must equal the
    explicit decayed softmax-like average."""
    cfg = cfg_for("rwkv", n_layers=1, use_residual=False, use_positional=False, seed=4)
    params = init_params(cfg)
    toks = np.array([[1, 5, 2]])
    logits = model_forward(cfg, params, toks).logits

    w = np.where(params["l0.w_raw"] > 0, params["l0.w_raw"] + 1.0,
                 np.exp(params["l0.w_raw"]))          # elu_plus_one
    u = params["l0.u"]
    ks = [params["embed"][t] @ params["l0.wk"] for t in toks[0]]
    vs = [params["embed"][t] @ params["l0.wv"] for t in toks[0]]
    t = 2  # 0-based third position
    num = np.exp(u + ks[t]) * vs[t]
    den = np.exp(u + ks[t])
    for j in range(t):
        wt = np.exp(-(t - 1 - j) * w + ks[j])
        num += wt * vs[j]
        den += wt
    expected = (num / den) @ params["out_w"] + params["out_b"]
    np.testing.assert_allclose(logits[2].data[0], expected, atol=1e-10)


def test_linear_attention_matches_hand_sum():
    cfg = cfg_for("linear-transformer", n_layers=1, n_heads=1,
                  use_residual=False, use_positional=False, seed=2)
    params = init_params(cfg)
    toks = np.array([[4, 1, 7]])
    logits = model_forward(cfg, params, toks).logits

    def phi(x):
        return np.where(x > 0, x + 1.0, np.exp(x))
    qs = [phi(params["embed"][t] @ params["l0.wq"]) for t in toks[0]]
    ks = [phi(params["embed"][t] @ params["l0.wk"]) for t in toks[0]]
    vs = [params["embed"][t] @ params["l0.wv"] for t in toks[0]]
    t = 2
    num = sum((qs[t] @ ks[i]) * vs[i] for i in range(t + 1))
    den = sum(qs[t] @ ks[i] for i in range(t + 1))
    expected = (num / den) @ params["out_w"] + params["out_b"]
    np.testing.assert_allclose(logits[2].data[0], expected, atol=1e-10)


def test_linear_state_size_constant_in_t():
    cfg = cfg_for("linear-transformer")
    params = init_params(cfg)
    pg = ParamGraph(params)
    state = init_state(cfg, batch=1)
    sizes = []
    for tok in range(1, 7):
        _, state = step(cfg, pg, state, np.array([tok]))
        sizes.append(sum(a.data.size + b.data.size for a, b in state["layers"]))
    assert len(set(sizes)) == 1


def test_rwkv_state_size_constant_in_t():
    cfg = cfg_for("rwkv")
    params = init_params(cfg)
    pg = ParamGraph(params)
    state = init_state(cfg, batch=1)
    sizes = []
    for tok in range(1, 7):
        _, state = step(cfg, pg, state, np.array([tok]))
        sizes.append(sum(a.data.size + b.data.size for a, b in state["layers"]))
    assert len(set(sizes)) == 1


@pytest.mark.parametrize("arch", ["block-recurrent-transformer", "universal-transformer"])
def test_block_recurrent_and_universal_cells(arch):
    """Stepping token by token gives model_forward's logits byte for byte.
    The block-recurrent cell empties every layer's cache at each block's first
    token and carries the previous block's last top hidden through the block;
    the universal cell keeps one cache per iteration of its shared layer."""
    cfg = cfg_for(arch, block_size=3, max_halting_steps=3)
    params = init_params(cfg)
    toks = np.random.default_rng(5).integers(0, VOCAB, size=(2, 8))
    full = model_forward(cfg, params, toks).logits
    pg = ParamGraph(params)
    state = init_state(cfg, 2)
    tops = []
    for t in range(1, 9):                      # t tokens consumed after this step
        logits, state = step(cfg, pg, state, toks[:, t - 1])
        assert np.array_equal(logits.data, full[t - 1].data), t
        if arch == "universal-transformer":
            assert len(state["layers"]) == cfg.max_halting_steps
            rows = t
        else:
            tops.append(state["h_top"])
            rows = (t - 1) % cfg.block_size + 1
            block_start = (t - 1) // cfg.block_size * cfg.block_size
            assert state["carry"] is (tops[block_start - 1] if block_start else None), t
        assert {len(keys) for keys, *_ in state["layers"]} == {rows}, t


# arch -> cached rows per head after each of 8 steps, with a feedback window
# of 3, blocks of 3 and 2 iterations of the universal layer
CACHE_ROWS = {
    "transformer": [1, 2, 3, 4, 5, 6, 7, 8],
    "recurrent-transformer": [1, 2, 3, 4, 5, 6, 7, 8],
    "feedback-transformer": [0, 1, 2, 3, 3, 3, 3, 3],
    "block-recurrent-transformer": [1, 2, 3, 1, 2, 3, 1, 2],
    "universal-transformer": [1, 2, 3, 4, 5, 6, 7, 8],
}


@pytest.mark.parametrize("arch", list(CACHE_ROWS))
def test_cached_arrays_are_the_rows_stacked(arch):
    """After every step, each head's cached key and value arrays equal its
    rows' data concatenated, byte for byte: as the feedback window drops
    the oldest row, after a block reset and in every iteration's cache."""
    cfg = cfg_for(arch, feedback_window=3, block_size=3, max_halting_steps=2)
    pg = ParamGraph(init_params(cfg))
    toks = np.random.default_rng(4).integers(0, VOCAB, size=(2, 8))
    state = init_state(cfg, 2)
    rows = []
    for t in range(8):
        _, state = step(cfg, pg, state, toks[:, t])
        entries = [cache for cache in state["layers"] if cache is not None]
        rows.append(len(entries[0][0]) if entries else 0)
        for keys, vals, key_arrays, value_arrays in entries:
            assert len(keys) == len(vals) == rows[-1]
            for row_values, arrays in ((keys, key_arrays), (vals, value_arrays)):
                for i in range(cfg.n_heads):
                    array = arrays[:, i]
                    want = np.concatenate([r.data.reshape((2, 1, cfg.n_heads, -1))[:, :, i]
                                           for r in row_values], axis=1)
                    assert array.shape == want.shape and array.tobytes() == want.tobytes(), t
    assert rows == CACHE_ROWS[arch]


@pytest.mark.parametrize("arch", sorted(STEP_CAPABLE))
def test_prefix_state_resume_bit_identical(arch):
    """Run n steps straight; separately run j steps, keep the state, resume.
    The suffix logits must be bit-identical."""
    cfg = cfg_for(arch)
    params = init_params(cfg)
    rng = np.random.default_rng(11)
    toks = rng.integers(0, VOCAB, size=(2, 8))
    n, j = 8, 3

    pg = ParamGraph(params)
    state = init_state(cfg, 2, length=n)
    straight = []
    for t in range(n):
        out, state = step(cfg, pg, state, toks[:, t])
        straight.append(out.data)

    pg2 = ParamGraph(params)
    state = init_state(cfg, 2, length=n)
    for t in range(j):
        out, state = step(cfg, pg2, state, toks[:, t])
    kept = state                      # snapshot; steps never mutate input state
    resumed = []
    for t in range(j, n):
        out, kept = step(cfg, pg2, kept, toks[:, t])
        resumed.append(out.data)
    for a, b in zip(straight[j:], resumed):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("arch", sorted(STEP_CAPABLE))
def test_step_state_not_mutated(arch):
    """A retained state stays usable: stepping from it twice gives identical
    results, both from the initial state and from one that has already
    consumed two tokens."""
    cfg = cfg_for(arch)
    params = init_params(cfg)
    pg = ParamGraph(params)
    state = init_state(cfg, 1, length=4)
    for _ in range(3):             # from states that consumed 0, 1 and 2 tokens
        first, _ = step(cfg, pg, state, np.array([2]))
        second, _ = step(cfg, pg, state, np.array([2]))
        np.testing.assert_array_equal(first.data, second.data)
        _, state = step(cfg, pg, state, np.array([3]))
