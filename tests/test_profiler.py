"""Depth/time profiler: counting rules, fits, table emitters."""

from dataclasses import replace

import numpy as np
import pytest

from recurlab import tensor as T
from recurlab.automata import dfa_run, parity_dfa, machine_profile
from recurlab.models import ARCHS, ModelConfig, init_params, model_forward
from recurlab.models.linear import linear_attn_recurrent
from recurlab.profiler import (DepthProfile, ProfilerError, fit_complexity,
                               graph_profile, profile, profile_table,
                               table_to_csv, table_to_markdown)
from test_tensor import (affine_chain, attention_chain, cached_attention_chain,
                         cross_entropy_chain, decayed_sum_chain, ffn_sublayer_chain, heads_chain,
                         layer_norm_chain, linear_readout_chain, linear_step_chain,
                         lstm_chain, outer_update_chain, rwkv_decay_chain,
                         rwkv_output_chain, split_chain, with_arrays)

VOCAB = 7


def cfg_for(arch, **kw):
    kw.setdefault("d_model", 8)
    kw.setdefault("n_layers", 1)
    return ModelConfig(arch=arch, vocab_size=VOCAB, **kw)


def depths_over(arch, ns, **kw):
    cfg = cfg_for(arch, **kw)
    params = init_params(cfg)
    rng = np.random.default_rng(0)
    return [profile(cfg, params, rng.integers(0, VOCAB, size=(1, n))) for n in ns]


# -- counting rules ---------------------------------------------------------

def test_hand_built_graph_counts():
    # (a*b + c) -> 2 ops; longest chain mul->add -> depth 2
    a, b = T.parameter(np.ones(3)), T.parameter(np.ones(3))
    c = T.constant(np.ones(3))
    out = a * b + c
    p = graph_profile([out], n=3, arch="hand")
    assert p.total_ops == 2 and p.depth == 2


def test_shared_subgraph_counted_once():
    a = T.parameter(np.ones(2))
    shared = a * a
    out1, out2 = shared + a, shared * a
    p = graph_profile([out1, out2], n=2, arch="hand")
    assert p.total_ops == 3  # mul, add, mul — shared node not double counted


def test_leaves_are_free():
    a = T.parameter(np.ones(2))
    p = graph_profile([a + T.constant(1.0)], n=2, arch="hand")
    assert p.total_ops == 1 and p.depth == 1


def test_matmul_counts_one_regardless_of_size():
    small = graph_profile([T.matmul(T.parameter(np.ones((2, 2))),
                                    T.parameter(np.ones((2, 2))))], 2, "hand")
    big = graph_profile([T.matmul(T.parameter(np.ones((64, 64))),
                                  T.parameter(np.ones((64, 64))))], 64, "hand")
    assert small.total_ops == big.total_ops == 1
    assert big.flops > small.flops  # width shows up only in the flop metric


def _p(*shape):
    """A parameter leaf of ones (positive, so ``log`` stays finite)."""
    return T.parameter(np.ones(shape))


def _deeper(v, k):
    """``v`` below a chain of ``k`` reshapes: k more ops and depth, no flops."""
    for _ in range(k):
        v = v.reshape(v.shape)
    return v


def _attend(fn, key_shape, scale=None, deep=None, n_heads=1):
    """``fn`` over a (2, 3) query, two keys of ``key_shape`` and two (2, 1, 3)
    values, or with two heads over (2, 4) rows; ``deep`` maps an operand's
    index in (q, k0, k1, v0, v1) to the reshapes above it."""
    shapes = ([(2, 3), key_shape, key_shape, (2, 1, 3), (2, 1, 3)] if n_heads == 1
              else [(2, 4)] * 5)
    vs = [_deeper(_p(*shape), (deep or {}).get(i, 0)) for i, shape in enumerate(shapes)]
    return with_arrays(fn, n_heads)(vs[0], vs[1:3], vs[3:], scale)


def _ffn(deep_w2=0):
    """An FFN sublayer of width 3 and 5 hidden units over a (2, 3) input,
    W2 below ``deep_w2`` reshapes."""
    vs = [_p(*shape) for shape in ((2, 3), (2, 3), (3,), (3,), (3, 5), (5,), (5, 3), (3,))]
    vs[6] = _deeper(vs[6], deep_w2)
    return T.ffn_sublayer(vs[0], vs[1], vs[2:4], vs[4:6], vs[6:], "tanh", 1e-6)


# op kind -> (graph, (total_ops, depth, flops)); a (2, 3) operand has 6
# scalars, and the width enters only the flops
OP_COSTS = {
    "input": (lambda: T.constant(np.ones((2, 3))), (0, 0, 0)),
    "parameter": (lambda: _p(2, 3), (0, 0, 0)),
    "add": (lambda: _p(2, 3) + _p(3), (1, 1, 6)),
    "sub": (lambda: _p(2, 3) - _p(2, 3), (1, 1, 6)),
    "mul": (lambda: _p(2, 3) * _p(1), (1, 1, 6)),
    "divide": (lambda: _p(2, 3) / _p(2, 3), (1, 1, 6)),
    "matmul-2d": (lambda: T.matmul(_p(2, 3), _p(3, 4)), (1, 1, 2 * 8 * 3)),
    "matmul-1d-left": (lambda: T.matmul(_p(3), _p(3, 4)), (1, 1, 2 * 4 * 3)),
    "matmul-1d-right": (lambda: T.matmul(_p(2, 3), _p(3)), (1, 1, 2 * 2 * 3)),
    "exp": (lambda: T.exp(_p(2, 3)), (1, 1, 24)),
    "log": (lambda: T.log(_p(2, 3)), (1, 1, 24)),
    "softmax": (lambda: T.softmax(_p(2, 3)), (1, 1, 24)),
    **{f"nonlinearity-{kind}": (lambda kind=kind: T.nonlinearity(_p(2, 3), kind), (1, 1, 24))
       for kind in T.NONLINEARITIES},
    "concat": (lambda: T.concat([_p(2, 3), _p(1, 3)], axis=0), (1, 1, 0)),
    "view-slice": (lambda: _p(2, 3).slice((slice(None), 1)), (1, 1, 0)),
    "gather-slice": (lambda: _p(2, 3).slice(np.array([1, 1, 0])), (1, 1, 0)),
    "take-rows": (lambda: T.take_rows(_p(2, 3), [1, 0, 1]), (1, 1, 0)),
    "reshape": (lambda: _p(2, 3).reshape(3, 2), (1, 1, 0)),
    "sum-axis": (lambda: _p(2, 3).sum(axis=0), (1, 1, 6)),
    "sum-all": (lambda: _p(2, 3).sum(), (1, 1, 6)),
    # 13 ops on a chain 13 long from x, 2 from gain and 1 from bias;
    # 7·N + 12·N/d flops for N = 6 and d = 3
    "layer-norm": (lambda: T.layer_norm(_p(2, 3), _p(3), _p(3), 1e-6), (13, 13, 66)),
    "layer-norm-deep-gain": (lambda: T.layer_norm(_p(2, 3), _deeper(_p(3), 12), _p(3), 1e-6),
                             (25, 14, 66)),
    "layer-norm-deep-bias": (lambda: T.layer_norm(_p(2, 3), _p(3), _deeper(_p(3), 13), 1e-6),
                             (26, 14, 66)),
    # the first add, the layer norm's 13 ops, 2 per affine map, the
    # nonlinearity and the residual add, on chains 20 long from h and a and 3
    # from W2; the norm's 66 flops, (2·d + 5) per scalar of the (2, 5)
    # pre-activation and 2·f + 3 per output scalar
    "ffn-sublayer": (lambda: _ffn(), (20, 20, 254)),
    "ffn-sublayer-deep-w2": (lambda: _ffn(deep_w2=18), (38, 21, 254)),
    # k matmuls and k adds; the first pair's operands are k + 1 ops from the
    # output, pair j's k - j + 3 and the bias's 1; (2·m + 1)·N flops per pair
    # over width m, for N = 8 output scalars (16 with the (B, L, d) operands)
    "affine-1": (lambda: T.affine([(_p(2, 3), _p(3, 4))], _p(4)), (2, 2, 56)),
    "affine-1-deep-bias": (lambda: T.affine([(_p(2, 3), _p(3, 4))], _deeper(_p(4), 3)),
                           (5, 4, 56)),
    "affine-2-deep-second": (lambda: T.affine([(_p(2, 3), _p(3, 4)),
                                               (_p(2, 5), _deeper(_p(5, 4), 2))], _p(4)),
                             (6, 5, 144)),
    "affine-3-B-L-d": (lambda: T.affine([(_p(2, 2, 3), _p(3, 4)), (_p(2, 2, 5), _p(5, 4)),
                                         (_deeper(_p(2, 2, 1), 4), _p(1, 4))], _p(4)),
                       (10, 7, 336)),
    # c: 9 ops on chains 4 and 2 long from gates and c_prev, 15 flops per
    # scalar of c; h: 4 more on chains 3 and 2 from gates and c, 9 per scalar
    "lstm-c": (lambda: T.lstm_cell(_p(2, 12), _p(2, 3))[1], (9, 4, 90)),
    "lstm-c-deep-state": (lambda: T.lstm_cell(_p(2, 12), _deeper(_p(2, 3), 3))[1],
                          (12, 5, 90)),
    "lstm-h": (lambda: T.lstm_cell(_p(2, 12), _p(2, 3))[0], (13, 6, 144)),
    # 8 ops on one chain from x; 9 flops per scalar of x and 5 per row
    "cross-entropy": (lambda: T.cross_entropy(_p(2, 3), np.eye(3)[[0, 2]]), (8, 8, 64)),
    # over t = 2 keys: 2t + 6 ops (9 cached), one more with the scale, on
    # chains 7 long from q and each key (8 with the scale) and 3 from each
    # value; t·(2·6 + (4 + scale)·2 + 2·6) flops for the (2, 3) query and output
    "attention": (lambda: _attend(T.attention, (2, 3)), (10, 7, 64)),
    "attention-scaled-deep-q": (lambda: _attend(T.attention, (2, 3), 0.5, {0: 3}),
                                (14, 11, 68)),
    "attention-deep-key": (lambda: _attend(T.attention, (2, 3), deep={2: 4}), (14, 11, 64)),
    "attention-deep-value": (lambda: _attend(T.attention, (2, 3), deep={3: 6}), (16, 9, 64)),
    "cached-attention": (lambda: _attend(T.cached_attention, (2, 1, 3)), (9, 7, 64)),
    "cached-attention-scaled-deep-key": (
        lambda: _attend(T.cached_attention, (2, 1, 3), 0.5, {1: 3}), (13, 11, 68)),
    "cached-attention-deep-q": (lambda: _attend(T.cached_attention, (2, 1, 3), deep={0: 2}),
                                (11, 9, 64)),
    "cached-attention-deep-value": (
        lambda: _attend(T.cached_attention, (2, 1, 3), 0.5, {4: 6}), (16, 9, 68)),
    # with two heads, 2 · (2t + 6) ops (9 cached per head) and q's two splits
    # and the heads' concat, on chains 9 long from q, 8 from each key and 4
    # from each value; the flops of both heads
    "attention-2-heads": (lambda: _attend(T.attention, (2, 4), n_heads=2), (23, 9, 96)),
    "cached-attention-2-heads-deep-value": (
        lambda: _attend(T.cached_attention, (2, 4), deep={4: 6}, n_heads=2), (27, 10, 96)),
    # a row's slice, its two splits and two reshapes, on a chain 3 long; one
    # head's reshape alone
    "split-row": (lambda: T.split_row(_p(2, 3, 4), 2, 1, rows=True), (5, 3, 0)),
    "split-row-one-head": (lambda: T.split_row(_p(2, 4), 1, rows=True), (1, 1, 0)),
    # exp(-elu_plus_one(w)): 3 ops on one chain, 9 flops per scalar
    "rwkv-decay": (lambda: T.rwkv_decay(_p(3)), (3, 3, 27)),
    # (a + e^(u+k) v) / (b + e^(u+k)): 6 ops on chains 5 long from u and k, 3
    # from v and 2 from a and b, 9 flops per output scalar
    "rwkv-output": (lambda: T.rwkv_output(_p(3), _p(2, 3), _p(2, 3), _p(2, 3), _p(2, 3)),
                    (6, 5, 54)),
    "rwkv-output-deep-v": (lambda: T.rwkv_output(_p(3), _p(2, 3), _deeper(_p(2, 3), 3),
                                                 _p(2, 3), _p(2, 3)), (9, 6, 54)),
    # z * a + x: 2 ops on chains 2 long from z and a and 1 from x; z * a +
    # x * y: 3 ops on chains 2 long, 3 flops per output scalar
    "decayed-sum": (lambda: T.decayed_sum(_p(3), _p(2, 3), _p(2, 3)), (2, 2, 12)),
    "decayed-sum-deep-x": (lambda: T.decayed_sum(_p(3), _p(2, 3), _deeper(_p(2, 3), 2)),
                           (4, 3, 12)),
    "decayed-sum-weighted-deep-y": (
        lambda: T.decayed_sum(_p(3), _p(2, 3), _p(2, 3), _deeper(_p(2, 3), 2)), (5, 4, 18)),
    # a + k (x) v: 4 ops on chains 1 long from a and 3 from k and v, 3 flops
    # per scalar of the (2, 3, 4) output; without a, 3 ops on chains 2 long
    "outer-update": (lambda: T.outer_update(_p(2, 1, 3, 4), _p(2, 3), _p(2, 4), 1), (4, 3, 72)),
    "outer-update-first": (lambda: T.outer_update(None, _p(2, 3), _p(2, 4), 1), (3, 2, 48)),
    "outer-update-deep-state": (lambda: T.outer_update(_deeper(_p(2, 1, 3, 4), 3), _p(2, 3),
                                                       _p(2, 4), 1), (7, 4, 72)),
    # with two heads, 4 ops per head and v's two splits (k's are its
    # split_row's), on chains 4 long from v and 3 from k
    "outer-update-2-heads": (lambda: T.outer_update(_p(2, 2, 2, 3), _p(2, 4), _p(2, 6), 2),
                             (10, 4, 72)),
    "outer-update-2-heads-deep-key": (
        lambda: T.outer_update(_p(2, 2, 2, 3), _deeper(_p(2, 4), 1), _p(2, 6), 2), (11, 4, 72)),
    # b + k over two heads: two adds, on chains 1 long
    "key-sum": (lambda: T.key_sum(_p(2, 4), _deeper(_p(2, 4), 2), 2), (4, 3, 8)),
    # (q a) / (q . b): 6 ops on chains 4 long from q and 3 from a and b;
    # 2·3 + 1 flops per scalar of the (2, 4) output and 2 per scalar of q
    "linear-readout": (lambda: T.linear_readout(_p(2, 3), _p(2, 1, 3, 4), _p(2, 3)), (6, 4, 68)),
    "linear-readout-deep-b": (lambda: T.linear_readout(_p(2, 3), _p(2, 1, 3, 4),
                                                       _deeper(_p(2, 3), 2)), (8, 5, 68)),
    # with two heads, 6 ops per head, q's two splits and the heads' concat,
    # on chains 6 long from q and 4 from a and b
    "linear-readout-2-heads": (lambda: T.linear_readout(_p(2, 4), _p(2, 2, 2, 3), _p(2, 4)),
                               (15, 6, 76)),
}


@pytest.mark.parametrize("case", list(OP_COSTS))
def test_op_kind_profile_cost(case):
    """Each op kind's (total_ops, depth, flops) on a small hand-built graph."""
    build, want = OP_COSTS[case]
    p = graph_profile([build()], n=1, arch="hand")
    assert (p.total_ops, p.depth, p.flops) == want


def test_flops_per_op_kind():
    x = T.parameter(np.ones(10))
    tanh = graph_profile([T.nonlinearity(x, "tanh")], 10, "hand")
    exp = graph_profile([T.exp(x)], 10, "hand")
    assert tanh.flops == exp.flops == 40
    assert graph_profile([x.slice(slice(0, 5))], 10, "hand").flops == 0
    # a reduction costs one flop per input scalar, not per output scalar
    rows = T.parameter(np.ones((8, 5)))
    assert graph_profile([rows.sum(axis=0)], 8, "hand").flops == 40


@pytest.mark.parametrize("shape", [(3, 8), (2, 4, 7)])
def test_layer_norm_counts_as_the_chain_it_fuses(shape):
    """A fused layer norm adds the total_ops, depth and flops of its 13
    elementary ops, also below an inner node and beside a residual add."""
    def build(ln):
        x = T.nonlinearity(T.parameter(np.ones(shape)), "tanh")
        out = ln(x, T.parameter(np.ones(shape[-1])), T.parameter(np.zeros(shape[-1])), 1e-6)
        return graph_profile([out + x], n=1, arch="hand")

    fused, chain = build(T.layer_norm), build(layer_norm_chain)
    assert fused == chain
    assert (fused.total_ops, fused.depth) == (15, 15)


def _two_steps(step, vs, n_heads):
    """The second read-out of ``step`` over (q, k, v) twice, from no state."""
    _, ab = step(None, *vs[:3], n_heads)
    return step(ab, *vs[3:], n_heads)[0]


# kind -> (fused, chain, operand shapes[, the chain's operand shapes where
# they differ])
FUSED_CHAINS = {
    "affine-1": (lambda vs: T.affine([vs[:2]], vs[2]),
                 lambda vs: affine_chain([vs[:2]], vs[2]), [(2, 3), (3, 4), (4,)]),
    "affine-3": (lambda vs: T.affine([vs[0:2], vs[2:4], vs[4:6]], vs[6]),
                 lambda vs: affine_chain([vs[0:2], vs[2:4], vs[4:6]], vs[6]),
                 [(2, 3), (3, 4), (2, 5), (5, 4), (2, 1), (1, 4), (4,)]),
    "lstm": (lambda vs: T.lstm_cell(*vs)[0], lambda vs: lstm_chain(*vs)[0], [(2, 8), (2, 2)]),
    "ffn-sublayer": (lambda vs: T.ffn_sublayer(vs[0], vs[1], vs[2:4], vs[4:6], vs[6:],
                                               "elu_plus_one", 1e-6),
                     lambda vs: ffn_sublayer_chain(vs[0], vs[1], vs[2:4], vs[4:6], vs[6:],
                                                   "elu_plus_one"),
                     [(2, 4, 3), (2, 4, 3), (3,), (3,), (3, 5), (5,), (5, 3), (3,)]),
    "cross-entropy": (lambda vs: T.cross_entropy(vs[0], np.eye(3)[[1, 2]]),
                      lambda vs: cross_entropy_chain(vs[0], np.eye(3)[[1, 2]]), [(2, 3)]),
    "attention-scaled": (lambda vs: with_arrays(T.attention)(vs[0], vs[1:4], vs[4:], 0.5),
                         lambda vs: attention_chain(vs[0], vs[1:4], vs[4:], 0.5),
                         [(2, 3)] * 4 + [(2, 1, 3)] * 3),
    "cached-attention": (lambda vs: with_arrays(T.cached_attention)(vs[0], vs[1:3], vs[3:],
                                                                    None),
                         lambda vs: cached_attention_chain(vs[0], vs[1:3], vs[3:], None),
                         [(2, 3), (2, 1, 3), (2, 1, 3), (2, 1, 4), (2, 1, 4)]),
    "attention-2-heads": (
        lambda vs: with_arrays(T.attention, 2)(
            vs[0], [T.split_row(k, 2) for k in vs[1:3]],
            [T.split_row(v, 2, rows=True) for v in vs[3:]], 0.5),
        lambda vs: heads_chain(attention_chain)(
            vs[0], [split_chain(k, 2) for k in vs[1:3]],
            [split_chain(v, 2, rows=True) for v in vs[3:]], 2, 0.5),
        [(2, 4)] * 5),
    "cached-attention-4-heads": (
        lambda vs: with_arrays(T.cached_attention, 4)(
            vs[0], [T.split_row(k, 4, rows=True) for k in vs[1:3]],
            [T.split_row(v, 4, rows=True) for v in vs[3:]], None),
        lambda vs: heads_chain(cached_attention_chain)(
            vs[0], [split_chain(k, 4, rows=True) for k in vs[1:3]],
            [split_chain(v, 4, rows=True) for v in vs[3:]], 4, None),
        [(2, 8)] * 5),
    "split-row": (lambda vs: T.split_row(vs[0], 2, 1, rows=True),
                  lambda vs: split_chain(vs[0].slice((slice(None), 1)), 2, rows=True),
                  [(2, 3, 4)]),
    "rwkv-decay": (lambda vs: T.rwkv_decay(*vs), lambda vs: rwkv_decay_chain(*vs), [(3,)]),
    "rwkv-output": (lambda vs: T.rwkv_output(*vs), lambda vs: rwkv_output_chain(*vs),
                    [(3,)] + [(2, 3)] * 4),
    "decayed-sum": (lambda vs: T.decayed_sum(*vs), lambda vs: decayed_sum_chain(*vs),
                    [(3,), (2, 3), (2, 3)]),
    "decayed-sum-weighted": (lambda vs: T.decayed_sum(*vs), lambda vs: decayed_sum_chain(*vs),
                             [(3,), (2, 3), (2, 3), (2, 3)]),
    # at one head; the chain's state is the head's (B, dh, dv)
    "outer-update": (lambda vs: T.outer_update(*vs, 1), lambda vs: outer_update_chain(*vs),
                     [(2, 1, 3, 4), (2, 3), (2, 4)], [(2, 3, 4), (2, 3), (2, 4)]),
    "outer-update-first": (lambda vs: T.outer_update(None, *vs, 1),
                           lambda vs: outer_update_chain(None, *vs), [(2, 3), (2, 4)]),
    "linear-readout": (lambda vs: T.linear_readout(*vs), lambda vs: linear_readout_chain(*vs),
                       [(2, 3), (2, 1, 3, 4), (2, 3)], [(2, 3), (2, 3, 4), (2, 3)]),
    # a step from no state, whose update and read-out share the splits of
    # k; two steps, whose second also sums the keys
    "linear-step-first-2-heads": (lambda vs: linear_attn_recurrent(None, *vs, 2)[0],
                                  lambda vs: linear_step_chain(None, *vs, 2)[0],
                                  [(2, 4), (2, 4), (2, 6)]),
    "linear-step-first-4-heads": (lambda vs: linear_attn_recurrent(None, *vs, 4)[0],
                                  lambda vs: linear_step_chain(None, *vs, 4)[0],
                                  [(2, 8), (2, 8), (2, 4)]),
    "linear-two-steps-2-heads": (lambda vs: _two_steps(linear_attn_recurrent, vs, 2),
                                 lambda vs: _two_steps(linear_step_chain, vs, 2),
                                 [(2, 4), (2, 4), (2, 6)] * 2),
}



@pytest.mark.parametrize("kind", list(FUSED_CHAINS))
def test_fused_kinds_count_as_the_chains_they_fuse(kind):
    """A fused node adds the total_ops, depth and flops of the chain it
    replaces, with its parents at any depths."""
    fused, chain, shapes, *chain_shapes = FUSED_CHAINS[kind]
    for deep in range(len(shapes)):
        def build(fn, shapes):
            vs = [_deeper(_p(*shape), 5 if i == deep else i) for i, shape in enumerate(shapes)]
            out = fn(vs)
            return graph_profile(out if isinstance(out, list) else [out], n=1, arch="hand")
        assert build(fused, shapes) == build(chain, (chain_shapes or [shapes])[0]), deep


def test_invariants_enforced():
    with pytest.raises(ProfilerError):
        DepthProfile(total_ops=2, depth=5, n=1, arch="x")
    with pytest.raises(ProfilerError):
        graph_profile([], n=0, arch="x")


def test_a_fused_node_whose_chains_miss_a_parent_raises():
    """A chain length per parent, or the walk stops: zip would drop the
    third parent and its depth without a word."""
    op = T.Op("two-chains", None, lambda v: 0, ops=lambda v: 2, chains=lambda v: (2, 1))
    node = T.Value(np.ones(2), op, (_p(2), _p(2), _deeper(_p(2), 4)))
    with pytest.raises(ProfilerError, match="two-chains node .* 3 parents but 2 chain"):
        graph_profile([node], n=1, arch="hand")


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
def test_every_fused_node_has_one_chain_per_parent(mode, n_layers):
    for arch in ARCHS:
        cfg = cfg_for(arch, n_layers=n_layers, n_heads=n_layers, block_size=2)
        toks = np.random.default_rng(1).integers(0, VOCAB, size=(2, 5))
        res = model_forward(cfg, init_params(cfg), toks, mode=mode)
        for v in T.topo_nodes(*res.logits):
            if v.op.chains is not None:
                assert len(v.op.chains(v)) == len(v.parents), (arch, v)


@pytest.mark.parametrize("mode", ["parallel", "recurrent"])
def test_attention_builds_no_softmax_node(mode):
    """Softmax attention is one fused node per (query, head), or per head
    per step; the softmax nodes left are the stack and tape controllers',
    one per step but the last, whose action no logit reads."""
    n = 5
    toks = np.random.default_rng(2).integers(0, VOCAB, size=(2, n))
    for arch in ARCHS:
        cfg = cfg_for(arch, n_layers=2, n_heads=2, block_size=2)
        res = model_forward(cfg, init_params(cfg), toks, mode=mode)
        kinds = [v.op_kind for v in T.topo_nodes(*res.logits)]
        assert kinds.count("softmax") == (n - 1 if arch in ("stack-rnn", "tape-rnn") else 0), arch


def test_machine_profile_depth_equals_ops():
    trace = dfa_run(parity_dfa(), ["apple"] * 17)
    p = machine_profile(trace)
    assert p.total_ops == p.depth == p.n == 17


# -- architecture growth laws ----------------------------------------------

def test_mlp_depth_independent_of_n():
    assert len({p.depth for p in depths_over("mlp", [2, 5, 9, 33])}) == 1


def test_transformer_depth_exactly_constant():
    assert len({p.depth for p in depths_over("transformer", [4, 8, 16, 32])}) == 1


def test_rnn_depth_exactly_affine():
    ps = depths_over("rnn", [2, 3, 4, 8])
    d = {p.n: p.depth for p in ps}
    slope = d[3] - d[2]
    assert slope > 0
    assert d[4] - d[3] == slope and d[8] == d[2] + 6 * slope


def test_recurrent_transformers_have_constant_positive_increments():
    for arch in ("recurrent-transformer", "feedback-transformer"):
        ps = depths_over(arch, [2, 3, 4, 5])
        diffs = {ps[i + 1].depth - ps[i].depth for i in range(3)}
        assert len(diffs) == 1 and diffs.pop() > 0, arch


def test_block_recurrent_depth_steps_with_block_count():
    ps = depths_over("block-recurrent-transformer", [1, 2, 3, 4, 5, 8, 9], block_size=4)
    d = {p.n: p.depth for p in ps}
    assert d[1] == d[2] == d[3] == d[4]       # one block
    assert d[5] == d[8] > d[4]                # two blocks
    assert d[9] > d[8]                        # three


def test_transformer_total_ops_superlinear():
    # slopes per token (divided differences, as the grid doubles) must rise;
    # plain second differences would pass any increasing affine law too
    ns = np.array([4, 8, 16, 32])
    slopes = np.diff([p.total_ops for p in depths_over("transformer", ns)]) / np.diff(ns)
    assert np.all(slopes > 0) and np.all(np.diff(slopes) > 0), slopes


def test_universal_depth_linear_in_T():
    cfg = cfg_for("universal-transformer", max_halting_steps=16)
    params = init_params(cfg)
    toks = np.random.default_rng(0).integers(0, VOCAB, size=(1, 4))
    depths = [profile(replace(cfg, max_halting_steps=t), params, toks).depth
              for t in (1, 2, 3, 4)]
    diffs = set(np.diff(depths))
    assert len(diffs) == 1 and diffs.pop() > 0


# (arch, layers = heads) -> (total_ops, depth, flops) of the recurrent route
# at n = 4, 8, 16, 32 (d16, vocab 8, seed 3); the golden profile digests
# cover the parallel route only
RECURRENT_PROFILES = {
    ("rwkv", 1): [(194, 46, 16320), (410, 54, 33280), (842, 70, 67200), (1706, 102, 135040)],
    ("rwkv", 2): [(372, 85, 31520), (788, 93, 64320), (1620, 109, 129920),
                  (3284, 141, 261120)],
    ("linear-transformer", 1): [(210, 47, 22896), (422, 51, 46064), (846, 59, 92400),
                                (1694, 75, 185072)],
    ("linear-transformer", 2): [(544, 92, 39808), (1096, 96, 79904), (2200, 104, 160096),
                                (4408, 120, 320480)],
    ("transformer", 1): [(208, 47, 17970), (416, 47, 37044), (832, 47, 78504),
                         (1664, 47, 174672)],
    ("transformer", 2): [(552, 94, 34920), (1104, 94, 72208), (2208, 94, 153888),
                         (4416, 94, 345664)],
}


@pytest.mark.parametrize("arch, layers", list(RECURRENT_PROFILES))
def test_recurrent_route_profile_is_pinned(arch, layers):
    """The step route's counts stay those of its elementary ops whatever
    the step cells fuse or stack."""
    cfg = ModelConfig(arch=arch, vocab_size=8, d_model=16, n_layers=layers, n_heads=layers,
                      seed=3)
    params = init_params(cfg)
    got = []
    for n in (4, 8, 16, 32):
        toks = np.random.default_rng(3).integers(0, 8, size=(1, n))
        with T.graph_scope():
            p = graph_profile(model_forward(cfg, params, toks, mode="recurrent").logits,
                              n, arch)
        got.append((p.total_ops, p.depth, p.flops))
    assert got == RECURRENT_PROFILES[arch, layers]


def test_ri_models_constant_depth_parallel():
    for arch in ("rwkv", "linear-transformer"):
        assert len({p.depth for p in depths_over(arch, [4, 8, 16])}) == 1, arch


def test_ri_parallel_ops_affine_flops_superlinear():
    """The masked-matrix parallel routes build a fixed number of nodes per
    layer, so total_ops grows by the same amount per token (one logits slice
    each); the quadratic work still shows in flops.  Slopes are divided
    differences because the grid doubles."""
    ns = np.array([8, 16, 32, 64])
    for arch in ("rwkv", "linear-transformer"):
        ps = depths_over(arch, ns)
        ops_slopes = np.diff([p.total_ops for p in ps]) / np.diff(ns)
        flops_slopes = np.diff([p.flops for p in ps]) / np.diff(ns)
        assert len(set(ops_slopes)) == 1, (arch, ops_slopes)
        assert np.all(np.diff(flops_slopes) > 0), (arch, flops_slopes)
        assert len({p.depth for p in ps}) == 1, arch


def test_whole_memory_step_ops_affine_flops_superlinear():
    """The cached attention cell scores its whole KV cache in one node per
    head, and the stack- and tape-RNN update their whole memory in a fixed
    set of nodes, so each adds the same number of nodes per token; reading
    and writing a longer cache, stack or tape still shows in flops."""
    ns = np.array([8, 16, 32, 64])
    for arch in ("recurrent-transformer", "universal-transformer", "stack-rnn", "tape-rnn"):
        ps = depths_over(arch, ns, n_heads=2)
        ops_slopes = np.diff([p.total_ops for p in ps]) / np.diff(ns)
        flops_slopes = np.diff([p.flops for p in ps]) / np.diff(ns)
        assert len(set(ops_slopes)) == 1, (arch, ops_slopes)
        assert np.all(np.diff(flops_slopes) > 0), (arch, flops_slopes)


# -- fits -------------------------------------------------------------------

def test_fit_constant():
    fit = fit_complexity([(4, 10), (8, 10), (16, 10), (32, 10)])
    assert fit.class_label == "constant" and abs(fit.slope) <= 1e-9


def test_fit_linear_exact():
    fit = fit_complexity([(n, 3 * n + 2) for n in (4, 8, 16, 32)])
    assert fit.class_label == "linear"
    assert fit.r_squared > 0.999 and abs(fit.slope - 3) < 1e-9


def test_fit_linear_over_k():
    samples = [(n, 10 * int(np.ceil(n / 4)) + 5) for n in (3, 6, 9, 14, 21, 32)]
    fit = fit_complexity(samples, k=4)
    assert fit.class_label == "linear_over_k"
    assert abs(fit.slope - 10) < 1e-6


def test_fit_quadratic():
    fit = fit_complexity([(n, 1.5 * n * n + 35.5 * n + 2) for n in (4, 8, 16, 32)])
    assert fit.class_label == "quadratic"
    assert fit.r_squared > 0.999 and abs(fit.slope - 1.5) < 1e-9


def test_fit_quadratic_needs_strictly_rising_slopes():
    # slopes per token 83, 98, 98 rise, then hold: an affine law past a window
    assert fit_complexity([(4, 236), (8, 568), (16, 1352), (32, 2920)]).class_label == "linear"
    # slopes per token are undefined where n repeats
    samples = [(4, 16), (4, 17), (8, 64), (16, 256), (32, 1024)]
    assert fit_complexity(samples).class_label == "linear"


def test_fit_needs_four_points():
    with pytest.raises(ProfilerError):
        fit_complexity([(1, 1), (2, 2), (3, 3)])


def test_fit_r_squared_in_range():
    fit = fit_complexity([(1, 5), (2, 1), (3, 9), (4, 2)])
    assert 0.0 <= fit.r_squared <= 1.0


# -- table ------------------------------------------------------------------

def test_markdown_prints_a_constant_fit_slope_as_zero():
    """A flat depth is labelled ``constant`` with slope 0 and the flat value
    as intercept, not the least-squares residue of about 1e-16."""
    rows = profile_table([cfg_for("transformer", d_model=16)], [4, 8, 16, 32])
    fit, depth = rows[0]["depth_fit"], rows[0]["profiles"][0].depth
    assert (fit.class_label, fit.slope, fit.intercept) == ("constant", 0.0, depth)
    cells = [c.strip() for c in table_to_markdown(rows).splitlines()[2].split("|")]
    assert cells[2:4] == ["constant", "0"]


def test_profile_table_and_emitters():
    cfgs = [cfg_for("transformer"), cfg_for("rnn"),
            cfg_for("block-recurrent-transformer", block_size=4)]
    rows = profile_table(cfgs, [4, 6, 8, 12, 16])
    by_arch = {r["arch"]: r for r in rows}
    assert by_arch["transformer"]["depth_fit"].class_label == "constant"
    assert by_arch["rnn"]["depth_fit"].class_label == "linear"
    assert by_arch["block-recurrent-transformer"]["depth_fit"].class_label == "linear_over_k"
    # the paper's contrast: constant depth, quadratic total_ops
    assert by_arch["transformer"]["ops_fit"].class_label == "quadratic"
    assert by_arch["rnn"]["ops_fit"].class_label == "linear"

    csv_text = table_to_csv(rows)
    assert csv_text.splitlines()[0] == "arch,n,total_ops,depth,flops"
    assert len(csv_text.splitlines()) == 1 + 3 * 5
    md = table_to_markdown(rows)
    assert md.count("\n") == 2 + 3 and "| constant |" in md and "| quadratic |" in md
