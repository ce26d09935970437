"""Architecture zoo basics: shapes, gradients, causality, config handling."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from recurlab import tensor as T
from recurlab.models import (ARCHS, STEP_CAPABLE, ModelConfig, ModelError,
                             ParamGraph, init_params, init_state,
                             load_checkpoint, model_forward, save_checkpoint,
                             step)
from recurlab.models.config import ARCH_TABLE
from recurlab.models.common import scale_for, sinusoidal_positions
from recurlab.tasks import PAD_ID, TaskId, generate_with_length, task_vocab
from recurlab.trainer import encode_batch
from test_tensor import (affine_chain, decayed_sum_chain, ffn_sublayer_chain, layer_norm_chain,
                         linear_step_chain, rwkv_decay_chain, rwkv_output_chain,
                         transformer_layers)

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


@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
@pytest.mark.parametrize("arch", ARCHS)
def test_one_position_builds_fewer_nodes_than_all(arch, mode):
    """Every route reads out only at the requested positions, so one position
    builds fewer nodes than every position; the MLP's one pooled readout
    serves every position, so it builds as many.  A step route stops after
    the last requested position: it builds as many nodes as a forward over
    the tokens up to that position, and for no position only its initial
    state."""
    cfg = tiny_cfg(arch, d_model=8, n_layers=2, n_heads=2)
    params = init_params(cfg)
    toks = np.random.default_rng(2).integers(0, VOCAB, size=(2, 4))
    full = _nodes_built(lambda: model_forward(cfg, params, toks, mode=mode))
    stepped = mode == "recurrent" and arch in STEP_CAPABLE
    for p in range(4):
        one = _nodes_built(lambda: model_forward(cfg, params, toks, mode=mode, positions=[p]))
        assert one == full if arch == "mlp" else one < full, (p, one, full)
        if stepped:
            prefix = _nodes_built(lambda: model_forward(cfg, params, toks[:, :p + 1],
                                                        mode=mode, positions=[p]))
            assert one == prefix, (p, one, prefix)
    if stepped:
        none = _nodes_built(lambda: model_forward(cfg, params, toks, mode=mode, positions=[]))
        assert none == _nodes_built(lambda: model_forward(cfg, params, toks[:, :0], mode=mode))


# (arch, mode) -> the nodes one model_forward builds at d16, 2 layers, 2
# heads, n = 16: the parallel Transformer's 25 parameters, embedding (3
# nodes) and position rows, per layer 7 nodes (the rows' stack, LN1, three
# projections, one attention node for every query and head, one FFN node
# for every query), one readout and a pick per position; the softmax
# Transformer's recurrent route one attention node per step and layer for
# all heads and one node per layer and step for both residual adds and the
# FFN; RWKV's and the linear Transformer's recurrent routes their 27 and 25
# parameters, the embedded rows, per layer LN1, the projections (two or
# three), one scan, its read-outs' pick and one FFN node, then one readout
# and a pick per position
ROUTE_NODES = {
    ("transformer", "parallel"): 60, ("transformer", "recurrent"): 345,
    ("rwkv", "parallel"): 91, ("rwkv", "recurrent"): 57,
    ("linear-transformer", "parallel"): 107, ("linear-transformer", "recurrent"): 57,
}


@pytest.mark.parametrize("arch, mode", list(ROUTE_NODES))
def test_route_node_counts_are_pinned(arch, mode):
    """A re-split of the heads, or an FFN chain built node by node again,
    shows here as a count that grew."""
    cfg = ModelConfig(arch=arch, vocab_size=VOCAB, d_model=16, n_layers=2, n_heads=2)
    params = init_params(cfg)
    toks = np.random.default_rng(0).integers(0, VOCAB, size=(2, 16))
    assert _nodes_built(lambda: model_forward(cfg, params, toks, mode=mode)) == \
        ROUTE_NODES[arch, mode]


@pytest.mark.parametrize("scale_scores", [True, False], ids=["scaled", "unscaled"])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("length", [17, 40])
def test_parallel_transformer_matches_the_per_query_chain_byte_for_byte(length, n_heads,
                                                                        scale_scores):
    """Logits and parameter gradients equal those of the elementary chain
    that the parallel Transformer's fused nodes stand for, one node per
    position's row and per query, at every position and at three.  The
    golden gate's 7 tokens stay below numpy's 8-element pairwise-sum block,
    where a softmax sum, value mix or gradient sum over the wrong number of
    keys or queries would add in another order; these run past it."""
    cfg = ModelConfig(arch="transformer", vocab_size=VOCAB, d_model=8, n_layers=2,
                      n_heads=n_heads, scale_scores=scale_scores, seed=length + n_heads)
    params = init_params(cfg)
    toks = np.random.default_rng(length).integers(0, VOCAB, size=(3, length))
    for positions in (list(range(length)), [0, length // 2, length - 1]):
        weights = np.random.default_rng(1).normal(size=(len(positions), 3, VOCAB))

        def run(logits, nodes):
            terms = [(lg * T.constant(w)).sum() for lg, w in zip(logits, weights)]
            T.backward(sum(terms[1:], terms[0]))
            return ([lg.data.tobytes() for lg in logits],
                    [nodes[name].grad.tobytes() for name in sorted(params)])

        res = model_forward(cfg, params, toks, positions=positions)
        fused = run(res.logits, {name: res.pgraph[name] for name in params})
        p = {name: T.parameter(a) for name, a in params.items()}
        x = T.take_rows(p["embed"], toks) + T.constant(sinusoidal_positions(length, 8))
        chain = run(transformer_layers(x, p, n_heads, scale_for(cfg), positions, fused=False),
                    p)
        assert fused == chain, positions


def scan_route_chain(cfg, p, toks, positions) -> dict:
    """The recurrent route of RWKV or the linear Transformer as the
    elementary chain the step cells built one token at a time: per token
    the embedding row's gather and positional add, and per layer LN1, the
    projections, the state's chain (RWKV's decay, read-out and update, or
    the linear Transformer's feature maps and ``linear_step_chain``) and the
    FFN sublayer, read out at ``positions``; {position: logits}."""
    d = cfg.d_model
    states, logits = [None] * cfg.n_layers, {}
    for t in range(max(positions) + 1):
        h = T.take_rows(p["embed"], toks[:, t]) + T.constant(sinusoidal_positions(1, d, t)[0])
        for i in range(cfg.n_layers):
            pre = f"l{i}."
            x = layer_norm_chain(h, p[pre + "ln1_g"], p[pre + "ln1_b"])
            if cfg.arch == "rwkv":
                k, v = T.matmul(x, p[pre + "wk"]), T.matmul(x, p[pre + "wv"])
                ab = states[i]
                if ab is None:
                    ek = T.exp(k)
                    out, states[i] = v, (ek * v, ek)
                else:
                    z = rwkv_decay_chain(p[pre + "w_raw"])
                    out = rwkv_output_chain(p[pre + "u"], k, v, *ab)
                    ek = T.exp(k)
                    states[i] = (decayed_sum_chain(z, ab[0], ek, v),
                                 decayed_sum_chain(z, ab[1], ek))
            else:
                q, k = (T.nonlinearity(T.matmul(x, p[pre + w]), cfg.feature_map)
                        for w in ("wq", "wk"))
                out, states[i] = linear_step_chain(states[i], q, k, T.matmul(x, p[pre + "wv"]),
                                                   cfg.n_heads)
            h = ffn_sublayer_chain(h, out, (p[pre + "ln2_g"], p[pre + "ln2_b"]),
                                   (p[pre + "ffn.w1"], p[pre + "ffn.b1"]),
                                   (p[pre + "ffn.w2"], p[pre + "ffn.b2"]), cfg.nonlin)
        if t in positions:
            logits[t] = affine_chain([(h, p["out_w"])], p["out_b"])
    return logits


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("length", [17, 40])
@pytest.mark.parametrize("arch", ["rwkv", "linear-transformer"])
def test_scan_routes_match_the_per_token_chain_byte_for_byte(arch, length, n_heads):
    """Logits and parameter gradients of the recurrent route equal those of
    the elementary chain the step cells built one token at a time, at every
    position, at three and at one, past numpy's 8-element pairwise-sum
    block.  Under weights of -0.0 every gradient is a zero whose sign shows
    how it was summed."""
    cfg = ModelConfig(arch=arch, vocab_size=VOCAB, d_model=8, n_layers=2, n_heads=n_heads,
                      seed=length + n_heads)
    params = init_params(cfg)
    toks = np.random.default_rng(length).integers(0, VOCAB, size=(3, length))
    cases = [(list(range(length)), False), ([0, length // 2, length - 1], False),
             ([length // 2], False), ([length // 2, length - 3], True)]
    for positions, zero in cases:
        rng = np.random.default_rng(1)
        weights = [np.full((3, VOCAB), -0.0) if zero else rng.normal(size=(3, VOCAB))
                   for _ in positions]

        def run(logits, nodes):
            terms = [(logits[t] * T.constant(w)).sum() for t, w in zip(positions, weights)]
            T.backward(sum(terms[1:], terms[0]))
            return ([logits[t].data.tobytes() for t in positions],
                    [nodes[name].grad.tobytes() for name in sorted(params)])

        res = model_forward(cfg, params, toks, mode="recurrent", positions=positions)
        fused = run(dict(zip(positions, res.logits)), {name: res.pgraph[name] for name in params})
        p = {name: T.parameter(a) for name, a in params.items()}
        assert fused == run(scan_route_chain(cfg, p, toks, positions), p), (positions, zero)


@pytest.mark.parametrize("arch", ["rwkv", "linear-transformer"])
def test_a_state_kept_after_a_chunk_resumes_byte_for_byte(arch):
    """A scan cell's state after a chunk of j tokens, continued by a chunk
    of the other n - j, gives the logits of one chunk of all n tokens and
    of n single steps, whatever j, the first chunk read at its last token
    only."""
    cfg = ModelConfig(arch=arch, vocab_size=VOCAB, d_model=8, n_layers=2, n_heads=2, seed=4)
    pg = ParamGraph(init_params(cfg))
    toks = np.random.default_rng(6).integers(0, VOCAB, size=(2, 11))
    n = toks.shape[1]
    init, cell = ARCH_TABLE[arch].step

    def chunk(state, tokens, queries):
        h, state = cell(cfg, pg, state, tokens, queries)
        return [T.pick(T.affine([(h, pg["out_w"])], pg["out_b"], stacked=True), i).data
                for i in range(len(queries))], state

    whole, _ = chunk(init(cfg, 2), toks, list(range(n)))
    state, stepped = init(cfg, 2), []
    for t in range(n):
        logits, state = step(cfg, pg, state, toks[:, t])
        stepped.append(logits.data)
    assert [a.tobytes() for a in whole] == [a.tobytes() for a in stepped]
    for j in (1, 2, 5, n - 1):
        _, kept = chunk(init(cfg, 2), toks[:, :j], [j - 1])
        rest, _ = chunk(kept, toks[:, j:], list(range(n - j)))
        assert [a.tobytes() for a in rest] == [a.tobytes() for a in whole[j:]], j


@pytest.mark.parametrize("batch", [1, 2])
def test_parallel_transformer_builds_only_reachable_nodes(batch):
    """At one position every node the parallel Transformer builds reaches
    the logits; 24 key and value rows of the last layer, past the position,
    used not to."""
    cfg = ModelConfig(arch="transformer", vocab_size=VOCAB, d_model=16, n_layers=2, n_heads=2)
    params = init_params(cfg)
    toks = np.random.default_rng(5).integers(0, VOCAB, size=(batch, 16))
    start = T.constant(0.0).id
    res = model_forward(cfg, params, toks, positions=[3])
    built = T.constant(0.0).id - start - 1
    assert len(T.topo_nodes(*res.logits)) == built


@pytest.mark.parametrize("arch", ["rwkv", "linear-transformer"])
def test_recurrent_route_builds_only_reachable_nodes(arch):
    """Read at one position, every node the recurrent route of RWKV or the
    linear Transformer builds reaches the logits: no top-layer output at
    the positions before it, and no state update after it, is left
    unread."""
    cfg = ModelConfig(arch=arch, vocab_size=VOCAB, d_model=16, n_layers=2, n_heads=2)
    params = init_params(cfg)
    toks = np.random.default_rng(5).integers(0, VOCAB, size=(2, 10))
    start = T.constant(0.0).id
    res = model_forward(cfg, params, toks, mode="recurrent", positions=[6])
    built = T.constant(0.0).id - start - 1
    assert len(T.topo_nodes(*res.logits)) == built


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_parallel_transformer_layer_nodes_do_not_grow_with_length(n_layers):
    """A layer is a fixed number of nodes whatever the length: no per-query
    or per-row node is left in it, only the readout's picks."""
    cfg = ModelConfig(arch="transformer", vocab_size=VOCAB, d_model=8, n_layers=n_layers,
                      n_heads=2)
    params = init_params(cfg)
    kinds = []
    for length in (4, 23):
        toks = np.random.default_rng(length).integers(0, VOCAB, size=(2, length))
        res = model_forward(cfg, params, toks)
        kinds.append(sorted(v.op_kind for v in T.topo_nodes(*res.logits) if v.op_kind != "pick"))
    assert kinds[0] == kinds[1]
    assert "split_row" not in kinds[0] and kinds[0].count("attention") == n_layers


@pytest.mark.parametrize("shape", [(1, 1), (2, 2)], ids=["1L1H", "2L2H"])
@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
@pytest.mark.parametrize("arch", ARCHS)
def test_forward_reads_every_parameter(arch, mode, shape):
    """Every parameter ``init_params`` makes for an arch reaches its logits,
    so no row of the architecture table pairs a parameter function with a
    cell that ignores some of its weights."""
    cfg = ModelConfig(arch=arch, vocab_size=VOCAB, n_layers=shape[0], n_heads=shape[1])
    params = init_params(cfg)
    toks = np.random.default_rng(4).integers(0, VOCAB, size=(2, 6))
    res = model_forward(cfg, params, toks, mode=mode)
    reachable = {v.id for v in T.topo_nodes(*res.logits)}
    unread = [name for name in params if res.pgraph[name].id not in reachable]
    assert not unread, f"{arch} never reads {unread}"


def test_mlp_has_no_step_form():
    with pytest.raises(ModelError, match="mlp has no token-level step form"):
        init_state(tiny_cfg("mlp"), 2)


@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
@pytest.mark.parametrize("arch", ARCHS)
def test_empty_sequence_gives_no_logits(arch, mode):
    """A (B, 0) batch has no position to read out; the parallel Transformer
    used to raise a ShapeError from a concat of no rows."""
    cfg = tiny_cfg(arch, n_layers=2)
    res = model_forward(cfg, init_params(cfg), np.zeros((2, 0), dtype=int), mode=mode)
    assert res.logits == []


@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
@pytest.mark.parametrize("arch", ARCHS)
def test_empty_batch_rejected(arch, mode):
    """Tokens of shape (0, L) hold no sequence.  The softmax-attention archs
    used to raise a bare numpy ValueError from a reshape, the recurrent
    linear Transformer a ShapeError, and the rest to return no logits."""
    cfg = tiny_cfg(arch, n_layers=2)
    params = init_params(cfg)
    with pytest.raises(ModelError, match=re.escape("hold no sequence: shape (0, 3)")):
        model_forward(cfg, params, np.zeros((0, 3), dtype=int), mode=mode)
    if arch in STEP_CAPABLE:
        with pytest.raises(ModelError, match="batch must be >= 1, got 0"):
            init_state(cfg, 0, length=3)
        with pytest.raises(ModelError, match=re.escape("hold no sequence: shape (0,)")):
            step(cfg, ParamGraph(params), init_state(cfg, 2, length=3), np.zeros(0, dtype=int))


@pytest.mark.parametrize("positions", [[4], [-1], [1, 1], [0.0], [True], 2],
                         ids=["past-end", "negative", "duplicate", "float", "bool", "scalar"])
def test_bad_positions_rejected(positions):
    cfg = tiny_cfg("transformer")
    params = init_params(cfg)
    toks = np.array([[1, 2, 3, 4]])
    with pytest.raises(ModelError):
        model_forward(cfg, params, toks, positions=positions)


@pytest.mark.parametrize("token, message", [
    (-1, rf"token id -1 outside \[0, {VOCAB}\)"),
    (VOCAB, rf"token id {VOCAB} outside \[0, {VOCAB}\)"),
    (1.5, "token ids must be integers, got dtype float64")])
def test_bad_token_id_rejected(token, message):
    """-1 used to read the last embedding row, and VOCAB or a float id to raise
    a bare IndexError, in model_forward and in step."""
    cfg = tiny_cfg("transformer")
    params = init_params(cfg)
    for mode in ("parallel", "recurrent"):
        with pytest.raises(ModelError, match=message):
            model_forward(cfg, params, np.array([[1, token, 2]]), mode=mode)
    with pytest.raises(ModelError, match=message):
        step(cfg, ParamGraph(params), init_state(cfg, 2), np.array([3, token]))


@pytest.mark.parametrize("tokens", [np.array([[1, 2]]), np.array(1)], ids=["2d", "0d"])
def test_step_rejects_tokens_not_one_per_sequence(tokens):
    """step used to fail deep in the graph on a (1, 2) or 0-d array with a
    bare ValueError about unpacking."""
    cfg = tiny_cfg("transformer")
    pg = ParamGraph(init_params(cfg))
    message = re.escape(f"must be (batch,), got shape {tokens.shape}")
    with pytest.raises(ModelError, match=message):
        step(cfg, pg, init_state(cfg, 1), tokens)


@pytest.mark.parametrize("arch", sorted(STEP_CAPABLE))
def test_step_rejects_a_batch_other_than_the_states(arch):
    """A batch of 1 against a state of batch 2 used to broadcast to (2, vocab)
    logits in four archs and fail in an inner op in the others, and a first
    step ignored init_state's batch."""
    cfg = tiny_cfg(arch, n_layers=2)
    pg = ParamGraph(init_params(cfg))
    state = init_state(cfg, 2, length=3)
    for _ in range(2):
        for tokens in (np.array([1]), np.array([1, 2, 3])):
            message = f"token ids have batch {len(tokens)} but the state has batch 2"
            with pytest.raises(ModelError, match=message):
                step(cfg, pg, state, tokens)
        logits, state = step(cfg, pg, state, np.array([1, 2]))
        assert logits.shape == (2, VOCAB)


@pytest.mark.parametrize("tokens", [np.array([1, 2]), np.array([[[1, 2]]])], ids=["1d", "3d"])
def test_model_forward_rejects_tokens_not_batch_by_length(tokens):
    cfg = tiny_cfg("transformer")
    with pytest.raises(ModelError, match=r"must be \(batch, length\), got shape"):
        model_forward(cfg, init_params(cfg), tokens)


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


def test_unlimited_feedback_step_nodes_constant_in_memory_length():
    """Without a window every layer caches all past top outputs, yet step 20
    builds as many nodes as step 3: each layer projects only the newest top
    output and scores its whole cache in one node per head."""
    cfg = tiny_cfg("feedback-transformer", d_model=16, n_layers=2, n_heads=2,
                   feedback_window=None)
    pg = ParamGraph(init_params(cfg))
    toks = np.random.default_rng(3).integers(0, VOCAB, size=(2, 21))
    state = init_state(cfg, 2)
    counts = []
    for t in range(21):
        start = T.constant(0).id
        _, state = step(cfg, pg, state, toks[:, t])
        counts.append(T.constant(0).id - start - 1)
    assert counts[20] == counts[3]


def test_feedback_step_builds_only_read_nodes():
    cfg = tiny_cfg("feedback-transformer", d_model=16, n_layers=2, n_heads=4)
    pg = ParamGraph(init_params(cfg))
    toks = np.random.default_rng(5).integers(0, VOCAB, size=(2, 4))
    state = init_state(cfg, 2)
    for t in range(3):
        _, state = step(cfg, pg, state, toks[:, t])
    start = T.constant(0).id
    logits, state = step(cfg, pg, state, toks[:, 3])
    end = T.constant(0).id
    cached = [row for keys, vals, *_ in state["layers"] for row in keys + vals]
    reachable = {v.id for v in T.topo_nodes(logits, state["h_top"], *cached)}
    unread = [i for i in range(start + 1, end) if i not in reachable]
    assert end - start - 1 == 28          # one step, all of it read
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


def test_mlp_pools_only_non_pad_positions():
    """A right-padded row gives the logits of the same instance alone; pooling
    the PAD positions too moved an addition row at n=3 by 7.8e-2."""
    task = TaskId.ADDITION
    vocab = task_vocab(task)
    cfg = ModelConfig(arch="mlp", vocab_size=len(vocab), d_model=8)
    params = init_params(cfg)
    long_inst, short_inst = (generate_with_length(task, seed, 3) for seed in (0, 1))
    batch, _ = encode_batch([long_inst, short_inst], vocab)
    alone, _ = encode_batch([short_inst], vocab)
    assert batch.shape[1] > alone.shape[1] and (batch[1] == PAD_ID).any()
    padded = model_forward(cfg, params, batch).logits[0].data[1]
    single = model_forward(cfg, params, alone).logits[0].data[0]
    np.testing.assert_allclose(padded, single, rtol=0, atol=1e-12)
    # an all-PAD row pools to zeros instead of dividing by zero
    assert np.isfinite(model_forward(cfg, params, np.zeros((1, 4), int)).logits[0].data).all()


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
    cfg = tiny_cfg("feedback-transformer", n_layers=2, n_heads=2, feedback_window=2)
    params = init_params(cfg)
    pg = ParamGraph(params)
    state = init_state(cfg, batch=1)
    for tok in (1, 2, 3, 4, 5):
        _, state = step(cfg, pg, state, np.array([tok]))
    rows = [[(len(keys), len(vals))] * key_arrays.shape[1]
            for keys, vals, key_arrays, _ in state["layers"]]
    assert rows == [[(2, 2), (2, 2)], [(2, 2), (2, 2)]]


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


@pytest.mark.parametrize("content", ["empty", "truncated", "npy", "no-meta", "list-meta",
                                     "no-config", "mistyped-config"])
def test_unreadable_checkpoint_is_model_error(tmp_path, content):
    cfg = tiny_cfg("rnn")
    path = tmp_path / "model.npz"
    save_checkpoint(path, cfg, init_params(cfg))
    whole = path.read_bytes()
    with open(path, "wb") as fh:
        if content == "truncated":
            fh.write(whole[:len(whole) // 2])
        elif content == "npy":
            np.save(fh, np.ones(3))
        elif content == "no-meta":
            np.savez(fh, embed=np.ones(3))
        elif content == "list-meta":
            np.savez(fh, __meta__=np.frombuffer(b"[1]", dtype=np.uint8))
        elif content == "no-config":
            np.savez(fh, __meta__=np.frombuffer(b'{"version": 1, "config": 5}', dtype=np.uint8))
        elif content == "mistyped-config":
            meta = {"version": 1, "config": {**asdict(cfg), "vocab_size": "x"}}
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    with pytest.raises(ModelError, match="checkpoint"):
        load_checkpoint(path)


def test_init_deterministic_per_seed():
    a = init_params(tiny_cfg("rnn", seed=5))
    b = init_params(tiny_cfg("rnn", seed=5))
    c = init_params(tiny_cfg("rnn", seed=6))
    np.testing.assert_array_equal(a["embed"], b["embed"])
    assert not np.array_equal(a["embed"], c["embed"])
