"""Depth/time profiler: counting rules, fits, table emitters."""

from dataclasses import replace

import numpy as np
import pytest

from recurlab import tensor as T
from recurlab.automata import dfa_run, parity_dfa, machine_profile
from recurlab.models import ARCHS, ModelConfig, init_params, model_forward
from recurlab.profiler import (DepthProfile, ProfilerError, fit_complexity,
                               graph_profile, profile, profile_table,
                               table_to_csv, table_to_markdown)
from test_tensor import (affine_chain, cached_attention_chain, cross_entropy_chain,
                         embed_rows_chain, ffn_sublayer_chain, heads_chain,
                         layer_attention_chain, layer_norm_chain, linear_scan_chain, lstm_chain,
                         rwkv_scan_chain, split_chain, with_arrays)

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


def _ffn(deep_w2=0, lead=(2,)):
    """An FFN sublayer of width 3 and 5 hidden units over a ``lead`` + (3,)
    input, stacked over its first axis if ``lead`` has two, W2 below
    ``deep_w2`` reshapes."""
    vs = [_p(*shape) for shape in (lead + (3,), lead + (3,), (3,), (3,), (3, 5), (5,), (5, 3),
                                   (3,))]
    vs[6] = _deeper(vs[6], deep_w2)
    return T.ffn_sublayer(vs[0], vs[1], vs[2:4], vs[4:6], vs[6:], "tanh", 1e-6,
                          stacked=len(lead) == 2)


def _layer_attend(n_heads=1, scale=None, deep=None, queries=(0, 2)):
    """``T.attention`` over (2, 3, 4) projections q, k and v at ``queries``;
    ``deep`` maps an operand's index in (q, k, v) to the reshapes above it."""
    vs = [_deeper(_p(2, 3, 4), (deep or {}).get(i, 0)) for i in range(3)]
    return T.attention(*vs, n_heads, scale, queries)


def _rwkv_scan(n, deep=None, resume=False):
    """RWKV's scan over n tokens of (2, 3) rows, every token read; ``deep``
    maps an operand's index in (w, u, k, v) to the reshapes above it; with
    ``resume``, after a scan of two tokens that reads its second."""
    w, u, k, v = (_deeper(_p(*shape), (deep or {}).get(i, 0))
                  for i, shape in enumerate([(3,), (3,), (n, 2, 3), (n, 2, 3)]))
    prev = T.rwkv_scan(w, u, _p(2, 2, 3), _p(2, 2, 3), None, (1,)) if resume else None
    return T.rwkv_scan(w, u, k, v, prev, range(n))


def _linear_scan(n, n_heads=1, queries=None, deep=None, resume=False):
    """Linear attention's scan over n tokens of (2, 2·n_heads) rows, read at
    ``queries`` (every token by default); ``deep`` maps an operand's index
    in (q, k, v) to the reshapes above it; with ``resume``, after a scan of
    two tokens that reads its second."""
    queries = range(n) if queries is None else queries
    d = 2 * n_heads
    q, k, v = (_deeper(_p(*shape), (deep or {}).get(i, 0))
               for i, shape in enumerate([(len(queries), 2, d), (n, 2, d), (n, 2, d)]))
    prev = (T.linear_scan(_p(1, 2, d), _p(2, 2, d), _p(2, 2, d), None, (1,), n_heads,
                          "elu_plus_one") if resume else None)
    return T.linear_scan(q, k, v, prev, queries, n_heads, "elu_plus_one")


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
    # stacked over 3 queries: 20 ops per query on the same chains, and the
    # flops of the 3 queries' (2, 3) rows
    "ffn-sublayer-stacked": (lambda: _ffn(lead=(3, 2)), (60, 20, 762)),
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
    # stacked over 3 queries: a matmul and an add per query, (2·3 + 1)·24
    # flops for the (3, 2, 4) output
    "affine-1-stacked": (lambda: T.affine([(_p(3, 2, 3), _p(3, 4))], _p(4), stacked=True),
                         (6, 2, 168)),
    # c: 9 ops on chains 4 and 2 long from gates and c_prev, 15 flops per
    # scalar of c; h: 4 more on chains 3 and 2 from gates and c, 9 per scalar
    "lstm-c": (lambda: T.lstm_cell(_p(2, 12), _p(2, 3))[1], (9, 4, 90)),
    "lstm-c-deep-state": (lambda: T.lstm_cell(_p(2, 12), _deeper(_p(2, 3), 3))[1],
                          (12, 5, 90)),
    "lstm-h": (lambda: T.lstm_cell(_p(2, 12), _p(2, 3))[0], (13, 6, 144)),
    # 8 ops on one chain from x; 9 flops per scalar of x and 5 per row
    "cross-entropy": (lambda: T.cross_entropy(_p(2, 3), np.eye(3)[[0, 2]]), (8, 8, 64)),
    # one layer over 3 positions, queries 0 and 2 at one head: per query q's
    # row slice and 2(t + 1) + 6 ops (one more with the scale), 9 and 13;
    # per key row its slice and per value row a slice and a reshape, 9 in
    # all; on chains 8 long from q and k (9 with the scale) and 5 from v;
    # per key of each query 2·8 + 4·2 + 2·8 flops (2·2 more with the scale)
    # for (2, 4) rows, over 1 + 3 keys
    "attention": (lambda: _layer_attend(), (31, 8, 160)),
    "attention-scaled-deep-q": (lambda: _layer_attend(scale=0.5, deep={0: 3}), (36, 12, 168)),
    "attention-deep-key": (lambda: _layer_attend(deep={1: 4}), (35, 12, 160)),
    "attention-deep-value": (lambda: _layer_attend(deep={2: 6}), (37, 11, 160)),
    "cached-attention": (lambda: _attend(T.cached_attention, (2, 1, 3)), (9, 7, 64)),
    "cached-attention-scaled-deep-key": (
        lambda: _attend(T.cached_attention, (2, 1, 3), 0.5, {1: 3}), (13, 11, 68)),
    "cached-attention-deep-q": (lambda: _attend(T.cached_attention, (2, 1, 3), deep={0: 2}),
                                (11, 9, 64)),
    "cached-attention-deep-value": (
        lambda: _attend(T.cached_attention, (2, 1, 3), 0.5, {4: 6}), (16, 9, 68)),
    # with two heads, the query at position 2: its slice, 2 · (2·3 + 6) ops,
    # q's two splits and the heads' concat; 3 key rows of a slice and two
    # splits, 3 value rows of a slice, two splits and two reshapes; on
    # chains 10 long from q and k and 7 from v; 2·8 + 4·2·2 + 2·8 flops per
    # key, over 3 keys
    "attention-2-heads": (lambda: _layer_attend(n_heads=2, queries=(2,)), (52, 10, 144)),
    # the query at position 1, scaled: 1 + 2 · 11 + 3 ops, 2 key rows of 3
    # and 2 value rows of 5, and 6 reshapes above v, on a chain 6 + 7 long;
    # 2·8 + 5·2·2 + 2·8 flops per key, over 2 keys
    "attention-scaled-2-heads-deep-value": (
        lambda: _layer_attend(n_heads=2, scale=0.5, deep={2: 6}, queries=(1,)), (48, 13, 104)),
    "cached-attention-2-heads-deep-value": (
        lambda: _attend(T.cached_attention, (2, 4), deep={4: 6}, n_heads=2), (27, 10, 96)),
    # a row's two splits and two reshapes, on a chain 2 long; one head's
    # reshape alone
    "split-row": (lambda: T.split_row(_p(2, 4), 2, rows=True), (4, 2, 0)),
    "split-row-one-head": (lambda: T.split_row(_p(2, 4), 1, rows=True), (1, 1, 0)),
    # a (2, 3, 4) sequence's 3 row slices, on a chain 1 long; 3 rows'
    # reshapes and their concat, on a chain 2 long; a pick, no op
    "position-rows": (lambda: T.position_rows(_p(2, 3, 4)), (3, 1, 0)),
    "position-rows-deep": (lambda: T.position_rows(_deeper(_p(2, 3, 4), 2)), (5, 3, 0)),
    "stack-rows": (lambda: T.stack_rows(_p(3, 2, 4)), (4, 2, 0)),
    "pick": (lambda: T.pick(_deeper(_p(3, 2, 4), 2), 1), (2, 2, 0)),
    "pick-rows": (lambda: T.pick(_p(3, 2, 4), [0, 2]), (0, 0, 0)),
    # RWKV's scan over (2, 3) rows of every token; per token from the
    # second, the decay (3 ops, 9 flops per scalar of w), the read-out (6,
    # 9 per scalar) and but for the last the update (e^k, 2 decayed sums: 6
    # ops and 4 + 3 + 2 flops per scalar); the first token's update e^k v,
    # e^k (2 ops, 5 flops per scalar) and no read-out op; the read-out is 5
    # ops past u and k, 3 past v and 2 past a and b
    "rwkv-scan-two-tokens": (lambda: _rwkv_scan(2), (8, 5, 84)),
    "rwkv-scan": (lambda: _rwkv_scan(3), (23, 7, 219)),
    "rwkv-scan-deep-w": (lambda: _rwkv_scan(3, deep={0: 4}), (27, 11, 219)),
    "rwkv-scan-deep-v": (lambda: _rwkv_scan(2, deep={3: 3}), (11, 6, 84)),
    "rwkv-scan-deep-k": (lambda: _rwkv_scan(3, deep={2: 2}), (25, 8, 219)),
    # two tokens read once, then two more, whose scan first counts the
    # update after the first chunk's last token
    "rwkv-scan-resumed": (lambda: _rwkv_scan(2, resume=True), (38, 9, 354)),
    # linear attention over (2, 2·heads) rows, heads of width 2; per token
    # phi(k) (1 op, 4 flops per scalar) and the update: 4 ops per head and
    # b + k (an add per head), or 3 ops per head for the first token, 3
    # flops per scalar of a (2 for the first) and 1 per scalar of b; per
    # query phi(q) and the read-out (6 ops per head, 2·2 + 1 flops per output
    # scalar and 2 per scalar of q); with heads, each split of k, v and q
    # and the heads' concat; the read-out 5 ops past q and 3 past a and b
    "linear-scan": (lambda: _linear_scan(2), (24, 7, 164)),
    "linear-scan-one-token": (lambda: _linear_scan(1), (11, 6, 76)),
    "linear-scan-resumed": (lambda: _linear_scan(2, resume=True), (43, 9, 296)),
    "linear-scan-2-heads": (lambda: _linear_scan(2, n_heads=2), (58, 9, 328)),
    "linear-scan-2-heads-deep-key": (lambda: _linear_scan(2, n_heads=2, deep={1: 3}),
                                     (61, 12, 328)),
    "linear-scan-4-heads": (lambda: _linear_scan(2, n_heads=4), (110, 9, 656)),
    "linear-scan-queries": (lambda: _linear_scan(3, queries=(1,)), (23, 7, 164)),
    "linear-scan-deep-query": (lambda: _linear_scan(3, queries=(0, 2), deep={0: 6}),
                               (36, 11, 208)),
    "linear-scan-2-heads-queries": (lambda: _linear_scan(3, n_heads=2, queries=(2,)),
                                    (57, 10, 328)),
    # 3 positions' gathers, on a chain 1 long; with the positional adds, 3
    # more ops, 1 flop per output scalar, on a chain 2 long
    "embed-rows": (lambda: T.embed_rows(_p(3, 4), np.array([[1, 0, 1], [2, 2, 0]])), (3, 1, 0)),
    "embed-rows-positional-deep": (lambda: T.embed_rows(_deeper(_p(3, 4), 2),
                                                        np.array([[1, 0, 1], [2, 2, 0]]),
                                                        np.ones((3, 4))), (8, 4, 24)),
    # a matmul per query and no add, on chains 1 long; 2·3 flops per output
    # scalar
    "affine-1-stacked-no-bias": (lambda: T.affine([(_p(3, 2, 3), _deeper(_p(3, 4), 2))], None,
                                                  stacked=True), (5, 3, 144)),
    # a layer norm per query over 3 queries' (2, 3) rows
    "layer-norm-stacked": (lambda: T.layer_norm(_p(3, 2, 3), _p(3), _p(3), 1e-6, stacked=True),
                           (39, 13, 198)),
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


def _state_sinks(state, last=None) -> list:
    """The nodes of a scan's chain that its output rows past the read-outs
    stand for: the linear Transformer's per-head (a, b) after the last
    token, or the operands of RWKV's last update (``last``): (a, b) before
    it, if any, and the last k and v rows, since the scan that resumes
    RWKV's counts that update."""
    if last is None:
        return [x for ab in state for x in ab]
    return [*(last[0] or ()), *last[1:]]


def _scan_sinks(scan_chain, vs, queries, *args):
    """The sinks of a scan's chain over the operands ``vs``: its read-outs
    and the state it hands on."""
    outs, *state = scan_chain(*vs, None, queries, *args)
    return outs + _state_sinks(*state)


def _resumed_sinks(scan_chain, first_operands, operands, first, queries, *args):
    """The same over two chunks, the second resuming the first's state."""
    outs, state, *_ = scan_chain(*first_operands, None, first, *args)
    more, *state = scan_chain(*operands, state, queries, *args)
    return outs + more + _state_sinks(*state)


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
    "ffn-sublayer-stacked": (
        lambda vs: T.ffn_sublayer(vs[0], vs[1], vs[2:4], vs[4:6], vs[6:], "tanh", 1e-6,
                                  stacked=True),
        lambda vs: [ffn_sublayer_chain(T.pick(vs[0], i), T.pick(vs[1], i), vs[2:4], vs[4:6],
                                       vs[6:], "tanh") for i in range(3)],
        [(3, 2, 3), (3, 2, 3), (3,), (3,), (3, 5), (5,), (5, 3), (3,)]),
    "affine-stacked": (lambda vs: T.affine([vs[:2]], vs[2], stacked=True),
                       lambda vs: [affine_chain([(T.pick(vs[0], i), vs[1])], vs[2])
                                   for i in range(3)], [(3, 2, 3), (3, 4), (4,)]),
    "attention-scaled": (lambda vs: T.attention(*vs, 1, 0.5, (0, 2)),
                         lambda vs: layer_attention_chain(*vs, 1, 0.5, (0, 2)),
                         [(2, 3, 4)] * 3),
    "cached-attention": (lambda vs: with_arrays(T.cached_attention)(vs[0], vs[1:3], vs[3:],
                                                                    None),
                         lambda vs: cached_attention_chain(vs[0], vs[1:3], vs[3:], None),
                         [(2, 3), (2, 1, 3), (2, 1, 3), (2, 1, 4), (2, 1, 4)]),
    "attention-2-heads": (lambda vs: T.attention(*vs, 2, 0.5, (1, 2)),
                          lambda vs: layer_attention_chain(*vs, 2, 0.5, (1, 2)),
                          [(2, 3, 4)] * 3),
    "cached-attention-4-heads": (
        lambda vs: with_arrays(T.cached_attention, 4)(
            vs[0], [T.split_row(k, 4, rows=True) for k in vs[1:3]],
            [T.split_row(v, 4, rows=True) for v in vs[3:]], None),
        lambda vs: heads_chain(cached_attention_chain)(
            vs[0], [split_chain(k, 4, rows=True) for k in vs[1:3]],
            [split_chain(v, 4, rows=True) for v in vs[3:]], 4, None),
        [(2, 8)] * 5),
    "split-row": (lambda vs: T.split_row(vs[0], 2, rows=True),
                  lambda vs: split_chain(vs[0], 2, rows=True), [(2, 4)]),
    # the rows of a stack are picks of it, which stand for no op
    "position-rows": (lambda vs: T.position_rows(vs[0]),
                      lambda vs: [vs[0].slice((slice(None), t)) for t in range(3)],
                      [(2, 3, 4)]),
    "stack-rows": (lambda vs: T.stack_rows(vs[0]),
                   lambda vs: T.concat([T.pick(vs[0], t).reshape((2, 1, 4)) for t in range(3)],
                                       axis=1), [(3, 2, 4)]),
    "pick": (lambda vs: T.pick(vs[0], 1), lambda vs: vs[0], [(3, 2, 4)]),
    # a scan's rows are picks of its operands' stacks, which stand for no
    # op; its sinks are its read-outs and the state it hands on
    "rwkv-scan": (lambda vs: T.rwkv_scan(*vs, None, range(4)),
                  lambda vs: _scan_sinks(rwkv_scan_chain, vs, range(4)),
                  [(3,), (3,), (4, 2, 3), (4, 2, 3)]),
    "rwkv-scan-queries": (lambda vs: T.rwkv_scan(*vs, None, (1, 2)),
                          lambda vs: _scan_sinks(rwkv_scan_chain, vs, (1, 2)),
                          [(3,), (3,), (4, 2, 3), (4, 2, 3)]),
    "rwkv-scan-first-token-read": (lambda vs: T.rwkv_scan(*vs, None, (0, 2)),
                                   lambda vs: _scan_sinks(rwkv_scan_chain, vs, (0, 2)),
                                   [(3,), (3,), (3, 2, 3), (3, 2, 3)]),
    # (w, u, k, v, then the second chunk's k and v)
    "rwkv-scan-resumed": (
        lambda vs: T.rwkv_scan(*vs[:2], *vs[4:], T.rwkv_scan(*vs[:4], None, (0, 2)), (0, 1)),
        lambda vs: _resumed_sinks(rwkv_scan_chain, vs[:4], vs[:2] + vs[4:], (0, 2), (0, 1)),
        [(3,), (3,), (3, 2, 3), (3, 2, 3), (2, 2, 3), (2, 2, 3)]),
    # the same after a chunk of one token, whose update is the first
    "rwkv-scan-resumed-after-one-token": (
        lambda vs: T.rwkv_scan(*vs[:2], *vs[4:], T.rwkv_scan(*vs[:4], None, (0,)), (0, 1)),
        lambda vs: _resumed_sinks(rwkv_scan_chain, vs[:4], vs[:2] + vs[4:], (0,), (0, 1)),
        [(3,), (3,), (1, 2, 3), (1, 2, 3), (2, 2, 3), (2, 2, 3)]),
    "linear-scan": (lambda vs: T.linear_scan(*vs, None, range(3), 1, "elu_plus_one"),
                    lambda vs: _scan_sinks(linear_scan_chain, vs, range(3), 1, "elu_plus_one"),
                    [(3, 2, 3), (3, 2, 3), (3, 2, 3)]),
    "linear-scan-one-token": (lambda vs: T.linear_scan(*vs, None, (0,), 1, "tanh"),
                              lambda vs: _scan_sinks(linear_scan_chain, vs, (0,), 1, "tanh"),
                              [(1, 2, 3), (1, 2, 3), (1, 2, 3)]),
    "linear-scan-queries": (lambda vs: T.linear_scan(*vs, None, (1,), 1, "elu_plus_one"),
                            lambda vs: _scan_sinks(linear_scan_chain, vs, (1,), 1,
                                                   "elu_plus_one"),
                            [(1, 2, 3), (3, 2, 3), (3, 2, 3)]),
    "linear-scan-2-heads": (lambda vs: T.linear_scan(*vs, None, (0, 2), 2, "elu_plus_one"),
                            lambda vs: _scan_sinks(linear_scan_chain, vs, (0, 2), 2,
                                                   "elu_plus_one"),
                            [(2, 2, 4), (3, 2, 4), (3, 2, 4)]),
    "linear-scan-4-heads": (lambda vs: T.linear_scan(*vs, None, (1,), 4, "elu_plus_one"),
                            lambda vs: _scan_sinks(linear_scan_chain, vs, (1,), 4,
                                                   "elu_plus_one"),
                            [(1, 2, 8), (2, 2, 8), (2, 2, 8)]),
    # (q, k, v of the first chunk, then of the second)
    "linear-scan-resumed-2-heads": (
        lambda vs: T.linear_scan(*vs[3:], T.linear_scan(*vs[:3], None, (1,), 2, "relu"), (0, 1),
                                 2, "relu"),
        lambda vs: _resumed_sinks(linear_scan_chain, vs[:3], vs[3:], (1,), (0, 1), 2, "relu"),
        [(1, 2, 4), (2, 2, 4), (2, 2, 4), (2, 2, 4), (2, 2, 4), (2, 2, 4)]),
    "embed-rows": (lambda vs: T.embed_rows(vs[0], np.array([[1, 0, 1], [2, 2, 0]]),
                                           np.ones((3, 4))),
                   lambda vs: embed_rows_chain(vs[0], np.array([[1, 0, 1], [2, 2, 0]]),
                                               np.ones((3, 4))), [(3, 4)]),
    "affine-stacked-no-bias": (lambda vs: T.affine([vs[:2]], None, stacked=True),
                               lambda vs: [T.matmul(T.pick(vs[0], i), vs[1]) for i in range(3)],
                               [(3, 2, 3), (3, 4)]),
    "layer-norm-stacked": (lambda vs: T.layer_norm(*vs, 1e-6, stacked=True),
                           lambda vs: [layer_norm_chain(T.pick(vs[0], i), *vs[1:])
                                       for i in range(3)], [(3, 2, 3), (3,), (3,)]),
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


def _two_chunks(scan):
    """A scan over 3 tokens, every one read, then one over 3 more that
    resumes its state, with their chain's read-outs: (scan, chain) pairs."""
    if scan == "rwkv":
        w, u = _p(3), _p(3)
        stacks = [_deeper(_p(3, 2, 3), i) for i in range(4)]
        first = T.rwkv_scan(w, u, *stacks[:2], None, range(3))
        second = T.rwkv_scan(w, u, *stacks[2:], first, range(3))
        outs, state, _ = rwkv_scan_chain(w, u, *stacks[:2], None, range(3))
        more, *_ = rwkv_scan_chain(w, u, *stacks[2:], state, range(3))
    else:
        stacks = [_deeper(_p(3, 2, 4), i) for i in range(6)]
        first = T.linear_scan(*stacks[:3], None, range(3), 2, "elu_plus_one")
        second = T.linear_scan(*stacks[3:], first, range(3), 2, "elu_plus_one")
        outs, state = linear_scan_chain(*stacks[:3], None, range(3), 2, "elu_plus_one")
        more, _ = linear_scan_chain(*stacks[3:], state, range(3), 2, "elu_plus_one")
    return [(first, outs), (second, more)]


@pytest.mark.parametrize("scan", ["rwkv", "linear"])
def test_stacked_rows_keep_their_own_depths(scan):
    """Each read-out row of a scan, through a stacked layer norm and a
    stacked projection, is as deep as its own token's chain, not as the
    deepest row, in a first chunk and in one that resumes it."""
    gain, bias = _p(3 if scan == "rwkv" else 4), _p(3 if scan == "rwkv" else 4)
    weight = _p(*gain.shape * 2)
    for node, outs in _two_chunks(scan):
        rows = T.layer_norm(T.pick(node, [0, 1, 2]), gain, bias, 1e-6, stacked=True)
        projected = T.affine([(rows, weight)], None, stacked=True)
        got = [graph_profile([T.pick(projected, t)], 1, "hand").depth for t in range(3)]
        want = [graph_profile([T.matmul(layer_norm_chain(out, gain, bias), weight)], 1,
                              "hand").depth for out in outs]
        assert got == want and len(set(want)) == 3, (got, want)


def test_a_kind_that_mixes_rows_it_does_not_place_raises():
    """Only a kind that keeps rows apart carries per-row depths, and only
    one that places them mixes them: stacking a scan's rows into a sequence
    would give every position the deepest row's depth."""
    (node, _), _ = _two_chunks("rwkv")
    with pytest.raises(ProfilerError, match="stack_rows node .* one depth per row"):
        graph_profile([T.stack_rows(T.pick(node, [0, 1, 2]))], n=1, arch="hand")


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


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("arch, slope", [("rwkv", 2), ("linear-transformer", 1)])
def test_recurrent_route_depth_rises_by_a_fixed_step_per_token(arch, slope, layers):
    """The recurrent route's depth rises by the same step per token at any
    number of layers: 2 for RWKV's decayed sums and 1 for the linear
    Transformer's running sums, whose chains run along the top layer.  A
    stacked node that took its deepest row's depth for every row would
    make the step grow with the layers."""
    cfg = ModelConfig(arch=arch, vocab_size=8, d_model=16, n_layers=layers, n_heads=2, seed=3)
    params = init_params(cfg)
    ns = np.array([4, 8, 16, 32])
    depths = []
    for n in ns:
        toks = np.random.default_rng(3).integers(0, 8, size=(1, n))
        with T.graph_scope():
            depths.append(graph_profile(model_forward(cfg, params, toks,
                                                      mode="recurrent").logits, n, arch).depth)
    assert list(np.diff(depths) / np.diff(ns)) == [slope] * 3, depths


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
